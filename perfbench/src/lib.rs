//! The repository benchmark.
//!
//! Two workloads drive the λ² engine through its public entry points:
//!
//! * `wide_examples` — single-parameter catalog problems that carry about
//!   a dozen generated, value-sharing examples each, synthesized
//!   sequentially in-process with
//!   [`lambda2_synth::Synthesizer::synthesize_report`];
//! * `serve_warm` — an in-process `l2 serve` daemon answering a seeded,
//!   Zipf-skewed stream of `synth` requests from one closed-loop client.
//!
//! Every workload takes its inputs from the `--seed` argument, checks every
//! answer (module `check`), and prints one JSON line whose metric names and
//! units are fixed by [`END_TO_END`] and [`PER_LAYER`] (which must match
//! `BENCHMARK.json` at the repository root). End-to-end metrics come from
//! untraced runs; `--trace 1` prints the per-layer metrics instead, timed
//! from outside each layer's public calls and read from the counters the
//! engine already returns.

#![warn(missing_docs)]

mod check;
mod inproc;
mod layers;
mod serve;

use std::fmt::Write as _;

use lambda2_bench_suite::Benchmark;
use std::time::{Duration, Instant};

/// Metrics printed by an untraced run (`--trace 0`), as (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Metrics printed by a traced run (`--trace 1`), as (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("enumerate.ms", "ms"),
    ("enumerate.terms", "count"),
    ("enumerate.terms_per_s", "1/s"),
    ("enumerate.store_hits", "count"),
    ("enumerate.store_evictions", "count"),
    ("enumerate.episode_max_ms", "ms"),
    ("enumerate.store_bytes_max", "MB"),
    ("deduce.ms", "ms"),
    ("deduce.refuted", "count"),
    ("deduce.refute_ratio", "ratio"),
    ("analyze.pruned", "count"),
    ("analyze.static_refuted", "count"),
    ("expand.ms", "ms"),
    ("expand.hypotheses", "count"),
    ("verify.ms", "ms"),
    ("verify.candidates", "count"),
    ("verify.fail_ratio", "ratio"),
    ("search.ms", "ms"),
    ("search.self_ms", "ms"),
    ("search.popped", "count"),
    ("search.closings", "count"),
    ("warm.hits", "count"),
    ("warm.lookup_hit_ratio", "ratio"),
    ("warm.hit_requests_frac", "ratio"),
    ("warm.evictions", "count"),
    ("warm.bytes", "bytes"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.frame_bytes_p50", "bytes"),
    ("serve.shed", "count"),
    ("serve.crashed", "count"),
    ("parse.us", "us"),
    ("check.ms", "ms"),
    ("trace.events", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_frac", "ratio"),
];

/// The benchmark's workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Generated many-example problems, in-process.
    WideExamples,
    /// Zipf-skewed requests against an in-process serve daemon.
    ServeWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::WideExamples, Workload::ServeWarm];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WideExamples => "wide_examples",
            Workload::ServeWarm => "serve_warm",
        }
    }
}

/// How much fixed work one pass does. `Tiny` exists for the benchmark's
/// own tests: it runs the same code on a few trivial problems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured workload.
    Full,
    /// A few trivial problems, for smoke tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// How long to keep repeating passes of the fixed work.
    pub seconds: f64,
    /// Print per-layer metrics from traced passes instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Fixed work per pass.
    pub size: Size,
}

impl Config {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>
    /// [--size full|tiny]`.
    ///
    /// # Errors
    ///
    /// A message naming the first missing, unknown, or malformed argument.
    pub fn from_args(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut size = Size::Full;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds `{value}`"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got `{value}`"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    })
                }
                "--size" => {
                    size = match value {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(format!("--size takes full or tiny, got `{value}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            size,
        })
    }
}

/// Attempt and failure accounting for one run. A failure is a timeout,
/// exhaustion, an error or `overloaded` reply, a panic, or a failed
/// output check. Every problem of every workload is chosen to solve, so
/// any failure makes the run incorrect: its figures would not be the
/// program's work on the workload.
#[derive(Debug, Default)]
pub struct Tally {
    /// Synthesis attempts (in-process calls or `synth` requests).
    pub attempted: u64,
    /// Attempts that failed for any reason.
    pub failed: u64,
    /// Attempts whose returned program failed an output check.
    pub check_failures: u64,
    /// One line per failure, for the run's diagnostics.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records a failure that is not an output-check failure.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.messages.push(message);
    }

    /// Records an output-check failure.
    pub fn check_failed(&mut self, message: String) {
        self.check_failures += 1;
        self.fail(format!("check failed: {message}"));
    }

    /// Failed attempts over attempted ones.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The result of one invocation: what the last stdout line reports.
#[derive(Debug)]
pub struct RunResult {
    /// Attempt and failure accounting.
    pub tally: Tally,
    /// Metric values by name; units come from [`END_TO_END`]/[`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// `true` when no attempt failed, for any reason.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric of `spec` with its unit.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `spec` was not measured — a bug in the
    /// workload, which must fill every metric it declares.
    pub fn to_json_line(&self, spec: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, unit)) in spec.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one invocation of the benchmark.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (a catalog problem
/// missing, a daemon that cannot bind); failures of individual attempts
/// are counted in the result instead.
pub fn run(config: &Config) -> Result<RunResult, String> {
    match config.workload {
        Workload::WideExamples => inproc::run(config),
        Workload::ServeWarm => serve::run(config),
    }
}

/// What [`measure`] returns: the run's inputs, its set-up time, and the
/// untraced and traced passes.
pub(crate) struct Measured<T, P> {
    /// The inputs built by the first set-up.
    pub inputs: T,
    /// Median time of one set-up, in seconds.
    pub setup_s: f64,
    /// Peak resident set size of the run, in MiB, read when the last pass
    /// ends: the most memory any pass of the run needed.
    pub peak_rss_mb: f64,
    /// Untraced passes.
    pub plain: Vec<P>,
    /// Traced passes (none in an untraced run).
    pub traced: Vec<P>,
}

/// Set-ups timed before the first pass and again after every pass.
const SETUP_REPS: usize = 20;

/// Builds the inputs with `setup`, then repeats `pass` — called with
/// `true` for a traced pass — until another pass would overrun
/// `--seconds`. Untraced runs make only untraced passes (at least one);
/// traced runs alternate, starting untraced, and make at least one of
/// each. A `--size tiny` run stops as soon as it has that minimum.
///
/// Set-up takes about a millisecond, so a single timing would mostly
/// measure whatever else the machine was doing at that moment. It is
/// repeated [`SETUP_REPS`] times before the first pass and after every
/// pass, and `setup_s` is the median over all of them; only the first
/// set-up's inputs are used.
///
/// # Errors
///
/// The first error `setup` or `pass` returns.
pub(crate) fn measure<T, P>(
    config: &Config,
    mut setup: impl FnMut() -> Result<T, String>,
    mut pass: impl FnMut(&mut T, bool) -> Result<P, String>,
) -> Result<Measured<T, P>, String> {
    let mut setup_times = Vec::new();
    let mut time_setups = |times: &mut Vec<f64>| -> Result<T, String> {
        let mut first = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let inputs = setup()?;
            times.push(t.elapsed().as_secs_f64());
            first.get_or_insert(inputs);
        }
        Ok(first.expect("SETUP_REPS is positive"))
    };
    let mut inputs = time_setups(&mut setup_times)?;
    let budget = Duration::from_secs_f64(config.seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut longest = Duration::ZERO;
    loop {
        let trace_next = config.trace && traced.len() < plain.len();
        let t = Instant::now();
        let p = pass(&mut inputs, trace_next)?;
        longest = longest.max(t.elapsed());
        if trace_next {
            traced.push(p);
        } else {
            plain.push(p);
        }
        time_setups(&mut setup_times)?;
        let minimum = !config.trace || !traced.is_empty();
        if minimum && (config.size == Size::Tiny || started.elapsed() + longest > budget) {
            return Ok(Measured {
                inputs,
                setup_s: median(&setup_times),
                peak_rss_mb: peak_rss_mb(),
                plain,
                traced,
            });
        }
    }
}

/// The named catalog benchmarks, in the order given.
///
/// # Errors
///
/// A message naming the first name the catalog lacks.
pub(crate) fn pick(names: &[&str]) -> Result<Vec<Benchmark>, String> {
    let mut catalog = lambda2_bench_suite::catalog();
    names
        .iter()
        .map(|name| {
            let i = catalog
                .iter()
                .position(|b| b.problem.name() == *name)
                .ok_or_else(|| format!("no catalog problem `{name}`"))?;
            Ok(catalog.swap_remove(i))
        })
        .collect()
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (0 when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of `durations`, in seconds (0 when empty).
pub(crate) fn median_s(durations: impl IntoIterator<Item = Duration>) -> f64 {
    median(
        &durations
            .into_iter()
            .map(|d| d.as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

/// Milliseconds in `d`.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a pure function of `--seed`.
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label (so independent choices
    /// drawn from one seed do not share a sequence).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let args: Vec<String> = "--workload serve_warm --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let c = Config::from_args(&args).unwrap();
        assert_eq!(c.workload, Workload::ServeWarm);
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.size),
            (7, 10.0, true, Size::Full)
        );
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload catalog --seed 1 --seconds 1 --trace 0",
            "--trace 2 --workload serve_warm",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(Config::from_args(&args).is_err(), "{bad}");
        }
    }

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(1, 3).next_u64());
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(2, 2).next_u64());
    }
}
