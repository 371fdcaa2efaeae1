//! The in-process workload, `wide_examples`.
//!
//! It synthesizes a fixed set of single-parameter catalog problems
//! sequentially on one thread, each under its catalog options but with
//! about a dozen generated prefix/subtree-chain examples instead of the
//! curated ones, so signatures are longer and rows share sub-values
//! heavily. Passes repeat until `--seconds` is used up, each on newly
//! generated examples (see [`run`] for how passes become `wall_s`). The
//! problem set is fixed rather than drawn at random: catalog solve times
//! span four orders of magnitude (2 ms for `head`, 13 s for `fromfirst`),
//! so a random draw of a few problems would measure a different amount of
//! work on every seed. The seed instead fixes the order the problems run
//! in and the stream of generated example values. It never touches the
//! serve layer or the warm cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lambda2_bench_suite::{generators, Benchmark};
use lambda2_synth::{CollectTracer, Problem, SearchOptions, SearchReport, Synthesizer};

use crate::check::{check_program, reference_bound};
use crate::layers::LayerTotals;
use crate::{measure, median, median_s, ms, pick, ratio, Config, Measured, Rng};
use crate::{RunResult, Size, Tally};

/// Single-parameter problems of `wide_examples` (lists, trees, nested
/// lists). Problems whose generated examples sometimes admit a much
/// cheaper program are left out, since their work changes with the seed:
/// `sumt` (examples from one random 14-node tree; 75k–266k enumerated
/// terms over eight seeds) and `evens` (about one seed in five finds a
/// program in a fifth of the time). So is `lasts`, whose 5 s solve would
/// leave room for only a handful of passes in a run. The list problems here
/// vary by a few percent with the seed; `incrt` by about 10%.
pub const WIDE: &[&str] = &[
    "last", "length", "sum", "reverse", "incr", "incrt", "heads", "tails",
];

/// Generated examples per `wide_examples` problem.
pub const WIDE_EXAMPLES: usize = 12;

/// Per-problem timeout; every listed problem solves well within it.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One problem of a pass, ready to synthesize.
pub struct Job {
    /// The problem as synthesized (curated, or with generated examples).
    pub problem: Problem,
    /// The catalog options for it.
    pub synthesizer: Synthesizer,
    /// The reference-cost bound, when the reference is in-library.
    pub bound: Option<u32>,
}

fn job(bench: &Benchmark, problem: Problem) -> Job {
    let mut options = bench.tune(SearchOptions::default());
    options.timeout = Some(TIMEOUT);
    Job {
        bound: reference_bound(&problem, &bench.reference_program()),
        problem,
        synthesizer: Synthesizer::with_options(options),
    }
}

/// The workload's inputs: its problems in run order, and the jobs of the
/// next pass.
pub struct Inputs {
    benches: Vec<Benchmark>,
    examples: usize,
    seeds: Rng,
    /// The next pass's jobs, in run order.
    pub jobs: Vec<Job>,
}

impl Inputs {
    /// Orders the problems and draws the first pass's examples from the
    /// seed.
    ///
    /// # Errors
    ///
    /// A message when a named problem is missing from the catalog or the
    /// example generator rejects it.
    pub fn new(size: Size, seed: u64) -> Result<Inputs, String> {
        let (names, examples): (&[&str], usize) = match size {
            Size::Full => (WIDE, WIDE_EXAMPLES),
            Size::Tiny => (&["sum", "tails"], 4),
        };
        let mut order: Vec<&str> = names.to_vec();
        Rng::new(seed, 1).shuffle(&mut order);
        let mut inputs = Inputs {
            benches: pick(&order)?,
            examples,
            seeds: Rng::new(seed, 2),
            jobs: Vec::new(),
        };
        inputs.draw()?;
        Ok(inputs)
    }

    /// Replaces the jobs with the same problems on newly generated
    /// examples, the next ones the seed gives.
    fn draw(&mut self) -> Result<(), String> {
        self.jobs = self
            .benches
            .iter()
            .map(|b| {
                let problem = generators::example_sweep(b, self.examples, self.seeds.next_u64())
                    .ok_or_else(|| {
                        format!("cannot generate examples for `{}`", b.problem.name())
                    })?;
                Ok(job(b, problem))
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }
}

/// What one pass measured.
struct Pass {
    wall: Duration,
    latencies_ms: Vec<f64>,
    layers: LayerTotals,
    check: Duration,
    events: usize,
}

/// Counts one attempt and checks its answer; `Err` is a caught panic.
fn tally_report(tally: &mut Tally, job: &Job, report: Result<SearchReport, String>) {
    tally.attempted += 1;
    match report.map(|r| r.outcome) {
        Ok(Ok(s)) => {
            if let Err(e) = check_program(&job.problem, &s.program, s.cost, job.bound) {
                tally.check_failed(e);
            }
        }
        Ok(Err(e)) => tally.fail(format!("{}: {e}", job.problem.name())),
        Err(e) => tally.fail(e),
    }
}

/// Synthesizes every job once, then checks every answer outside the timed
/// region. A traced pass streams each search into a [`CollectTracer`] and
/// folds the reports' stats into per-layer totals.
fn pass(jobs: &[Job], traced: bool, tally: &mut Tally) -> Pass {
    let mut reports: Vec<Result<SearchReport, String>> = Vec::with_capacity(jobs.len());
    let mut latencies_ms = Vec::with_capacity(jobs.len());
    let mut layers = LayerTotals::default();
    let mut events = 0;
    let started = Instant::now();
    for job in jobs {
        let t = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                let mut tracer = CollectTracer::default();
                let report = job
                    .synthesizer
                    .synthesize_report_traced(&job.problem, &mut tracer);
                events += tracer.events.len();
                report
            } else {
                job.synthesizer.synthesize_report(&job.problem)
            }
        }));
        let span = ms(t.elapsed());
        latencies_ms.push(span);
        if let Ok(report) = &report {
            if traced {
                layers.add(&report.stats.to_json(), span);
            }
        }
        reports.push(report.map_err(|_| format!("{}: panicked", job.problem.name())));
    }
    let wall = started.elapsed();

    let started = Instant::now();
    for (job, report) in jobs.iter().zip(reports) {
        tally_report(tally, job, report);
    }
    Pass {
        wall,
        latencies_ms,
        layers,
        check: started.elapsed(),
        events,
    }
}

/// Runs `wide_examples` (see [`measure`] for the passes).
///
/// `wall_s` is the median untraced pass. Each problem's time is its
/// median solve across those passes, each on its own examples, so a run
/// averages over a couple of dozen example draws rather than following
/// one; there are only [`WIDE`]`.len()` = 8
/// of them, so the latency metrics are not request quantiles here:
/// `latency_p50_ms` is the median problem's time and `latency_p99_ms` the
/// slowest problem's. Every pass repeats the same deterministic search (its
/// counters are identical), yet on a shared 2-core machine the same solve
/// takes anywhere from 0.6× to 1.8× its usual time, in spells of a second
/// or more. Medians over the twenty-odd passes of a run follow the usual
/// speed; a fastest repeat would follow whether a rare quiet spell
/// happened to occur. A traced run reports per-layer numbers from its last
/// traced pass, and `trace.overhead_ratio` is the median traced pass over
/// the median untraced one.
///
/// # Errors
///
/// Set-up failures (see [`Inputs::new`]).
pub fn run(config: &Config) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let Measured {
        inputs,
        setup_s,
        peak_rss_mb,
        plain,
        traced,
    } = measure(
        config,
        || Inputs::new(config.size, config.seed),
        |inputs, traced| {
            let p = pass(&inputs.jobs, traced, &mut tally);
            inputs.draw()?;
            Ok(p)
        },
    )?;

    let median_wall = |passes: &[Pass]| median_s(passes.iter().map(|p| p.wall));
    let metrics = if let Some(last) = traced.last() {
        let mut m = last.layers.metrics();
        m.extend([
            ("warm.lookup_hit_ratio", 0.0),
            ("warm.evictions", 0.0),
            ("warm.bytes", 0.0),
            ("serve.queue_wait_p50_ms", 0.0),
            ("serve.queue_wait_p99_ms", 0.0),
            ("serve.service_p50_ms", 0.0),
            ("serve.service_p99_ms", 0.0),
            ("serve.overhead_p50_ms", 0.0),
            ("serve.frame_bytes_p50", 0.0),
            ("serve.shed", 0.0),
            ("serve.crashed", 0.0),
            ("parse.us", 0.0),
            ("check.ms", ms(last.check)),
            ("trace.events", last.events as f64),
            (
                "trace.overhead_ratio",
                ratio(median_wall(&traced), median_wall(&plain)),
            ),
            ("fail_frac", tally.fail_frac()),
        ]);
        m
    } else {
        let per_problem: Vec<f64> = (0..inputs.jobs.len())
            .map(|j| median(&plain.iter().map(|p| p.latencies_ms[j]).collect::<Vec<_>>()))
            .collect();
        vec![
            ("setup_s", setup_s),
            ("wall_s", median_wall(&plain)),
            ("latency_p50_ms", median(&per_problem)),
            (
                "latency_p99_ms",
                per_problem.iter().copied().fold(0.0, f64::max),
            ),
            ("peak_rss_mb", peak_rss_mb),
        ]
    };
    Ok(RunResult { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda2_lang::parser::parse_expr;
    use lambda2_synth::{Program, SynthError};

    fn report_for(job: &Job, body: &str, cost: u32) -> SearchReport {
        let mut report = job.synthesizer.synthesize_report(&job.problem);
        let s = report.outcome.as_mut().expect("sum solves");
        s.program = Program::new(job.problem.params().to_vec(), parse_expr(body).unwrap());
        s.cost = cost;
        report
    }

    #[test]
    fn wrong_answers_fail_the_check_and_failures_count() {
        let b = pick(&["sum"]).unwrap().remove(0);
        let job = job(&b, b.problem.clone());
        let mut tally = Tally::default();
        let right = job.synthesizer.synthesize_report(&job.problem);
        tally_report(&mut tally, &job, Ok(right));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        // Giving up or panicking passes no output check, yet on its own
        // makes the run incorrect.
        for error in [SynthError::Timeout, SynthError::Exhausted] {
            let mut gave_up = job.synthesizer.synthesize_report(&job.problem);
            gave_up.outcome = Err(error);
            tally_report(&mut tally, &job, Ok(gave_up));
        }
        tally_report(&mut tally, &job, Err("sum: panicked".into()));
        assert_eq!(
            (tally.attempted, tally.failed, tally.check_failures),
            (4, 3, 0)
        );
        let gave_up = RunResult {
            tally,
            metrics: vec![],
        };
        assert!(!gave_up.correct());
        let mut tally = gave_up.tally;

        // Wrong on the examples; right program, misreported cost; costlier
        // than the in-library reference `(foldl (lambda (a x) (+ a x)) 0 l)`.
        for (body, cost) in [
            ("0", 1),
            ("(foldl (lambda (a x) (+ a x)) 0 l)", 1),
            ("(foldl (lambda (a x) (+ (+ a x) 0)) 0 l)", 12),
        ] {
            tally_report(&mut tally, &job, Ok(report_for(&job, body, cost)));
        }
        assert_eq!(
            (tally.attempted, tally.failed, tally.check_failures),
            (7, 6, 3)
        );
        let result = RunResult {
            tally,
            metrics: vec![],
        };
        assert!(!result.correct());
        assert!(result
            .to_json_line(&[])
            .starts_with("{\"correct\": false, \"attempted\": 7"));
    }
}
