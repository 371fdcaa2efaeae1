//! Shared experiment-harness code for the λ² reproduction.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures as
//! aligned text (see DESIGN.md §4 for the experiment index):
//!
//! * `table1` — the per-benchmark results table,
//! * `fig_cactus` — problems-solved-within-t curves for λ², the
//!   no-deduction ablation, and the pure-enumeration baseline,
//! * `fig_ablation` — per-benchmark deduction speedups,
//! * `fig_examples` — synthesis time vs number of examples.
//!
//! Besides the text tables, every binary writes a machine-readable
//! `BENCH_<name>.json` report (see [`write_bench_json`]) into the repo's
//! `results/` directory (override with `LAMBDA2_RESULTS_DIR`), carrying
//! per-problem [`Measurement`]s with phase timings — deterministic paths
//! no matter which directory the binary is launched from.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

use lambda2_bench_suite::Benchmark;
use lambda2_synth::baseline::{synthesize_baseline, BaselineOptions};
use lambda2_synth::govern::panic_message;
use lambda2_synth::par::{synthesize_batch, ParEngine, ParTask};
use lambda2_synth::{Measurement, SearchOptions, Stats, SynthError, Synthesis, Synthesizer};

pub use lambda2_synth::obs::json::Json;

/// Which engine to run a benchmark with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Full λ²: hypotheses + deduction + best-first enumeration.
    Lambda2,
    /// λ² with deduction disabled (the paper's ablation).
    NoDeduce,
    /// Pure cost-ordered enumeration (no hypotheses at all).
    Baseline,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Lambda2 => write!(f, "lambda2"),
            Engine::NoDeduce => write!(f, "no-deduce"),
            Engine::Baseline => write!(f, "baseline"),
        }
    }
}

/// Per-run timeout applied to ordinary benchmarks.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);
/// Per-run timeout applied to benchmarks marked `hard`.
pub const HARD_TIMEOUT: Duration = Duration::from_secs(180);

/// Search options for one benchmark: suite defaults, the benchmark's own
/// tuning, and the hard-problem timeout when applicable.
pub fn options_for(bench: &Benchmark, timeout: Option<Duration>) -> SearchOptions {
    let mut options = bench.tune(SearchOptions::default());
    options.timeout = Some(timeout.unwrap_or(if bench.hard {
        HARD_TIMEOUT
    } else {
        DEFAULT_TIMEOUT
    }));
    options
}

/// Runs one benchmark under one engine and records the outcome.
///
/// The run is panic-isolated: a crash inside the engine becomes a
/// `solved: false` measurement carrying the panic message in `error`, so
/// a batch sweep records the failure and moves on instead of aborting.
pub fn run_benchmark(bench: &Benchmark, engine: Engine, timeout: Option<Duration>) -> Measurement {
    let options = options_for(bench, timeout);
    let problem = &bench.problem;
    let outcome = catch_unwind(AssertUnwindSafe(|| match engine {
        Engine::Lambda2 => Synthesizer::with_options(options.clone()).synthesize(problem),
        Engine::NoDeduce => Synthesizer::with_options(options.clone())
            .deduction(false)
            .synthesize(problem),
        Engine::Baseline => {
            let bopts = BaselineOptions {
                timeout: options.timeout,
                max_cost: options.max_cost,
                ..BaselineOptions::default()
            };
            synthesize_baseline(problem, &bopts)
        }
    }));
    let budget = timeout.unwrap_or(if bench.hard {
        HARD_TIMEOUT
    } else {
        DEFAULT_TIMEOUT
    });
    match outcome {
        Ok(result) => measurement_of(problem.name(), problem.examples().len(), &result, budget),
        Err(payload) => Measurement {
            name: problem.name().to_owned(),
            elapsed: Duration::ZERO,
            solved: false,
            cost: 0,
            size: 0,
            program: String::new(),
            examples: problem.examples().len(),
            stats: Stats::default(),
            error: Some(format!("panicked: {}", panic_message(&*payload))),
        },
    }
}

/// Runs a suite of benchmarks under one engine across `jobs` worker
/// threads (see [`lambda2_synth::par`]), returning measurements in suite
/// order. Per-problem results are identical to [`run_benchmark`] — each
/// worker runs the same engine under the same options and its own budget,
/// and panics are isolated per problem — only wall-clock time changes.
pub fn run_benchmarks_parallel(
    benches: &[Benchmark],
    engine: Engine,
    timeout: Option<Duration>,
    jobs: usize,
) -> Vec<Measurement> {
    let tasks: Vec<ParTask> = benches
        .iter()
        .map(|bench| {
            let mut options = options_for(bench, timeout);
            if engine == Engine::NoDeduce {
                options.deduction = false;
            }
            ParTask {
                spec: bench.problem.clone(),
                options,
                engine: match engine {
                    Engine::Baseline => ParEngine::Baseline,
                    Engine::Lambda2 | Engine::NoDeduce => ParEngine::Search,
                },
                collect_trace: false,
            }
        })
        .collect();
    let budgets: Vec<Duration> = benches
        .iter()
        .map(|bench| {
            timeout.unwrap_or(if bench.hard {
                HARD_TIMEOUT
            } else {
                DEFAULT_TIMEOUT
            })
        })
        .collect();
    synthesize_batch(tasks, jobs)
        .into_iter()
        .zip(budgets)
        .map(|(outcome, budget)| match outcome.result {
            Ok(report) => report.to_measurement_budgeted(&outcome.name, outcome.examples, budget),
            Err(msg) => Measurement {
                name: outcome.name,
                elapsed: Duration::ZERO,
                solved: false,
                cost: 0,
                size: 0,
                program: String::new(),
                examples: outcome.examples,
                stats: Stats::default(),
                error: Some(format!("panicked: {msg}")),
            },
        })
        .collect()
}

/// Parses a `--jobs <n>` argument pair out of `args` (any position),
/// returning the requested worker count (`0` = one per CPU) or `None`
/// when absent. Exits with a diagnostic on a malformed count, like the
/// quick-flag conventions of the bench binaries.
pub fn jobs_arg(args: &mut Vec<String>) -> Option<usize> {
    let at = args.iter().position(|a| a == "--jobs")?;
    args.remove(at);
    if at >= args.len() {
        eprintln!("error: --jobs requires a worker count");
        std::process::exit(2);
    }
    let raw = args.remove(at);
    match raw.parse::<usize>() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("error: --jobs: `{raw}` is not a whole number of workers");
            std::process::exit(2);
        }
    }
}

/// A per-run failure seen by the harness: the engine's own terminal
/// error, or a panic caught at the isolation boundary.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The engine returned a structured error.
    Synth(SynthError),
    /// The engine panicked; the rendered payload message.
    Panic(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Synth(e) => write!(f, "{e}"),
            RunError::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// Runs `synthesizer` on `problem` under panic isolation: a crash inside
/// the engine becomes [`RunError::Panic`] instead of aborting the sweep.
pub fn synthesize_isolated(
    synthesizer: &Synthesizer,
    problem: &lambda2_synth::Problem,
) -> Result<Synthesis, RunError> {
    match catch_unwind(AssertUnwindSafe(|| synthesizer.synthesize(problem))) {
        Ok(Ok(s)) => Ok(s),
        Ok(Err(e)) => Err(RunError::Synth(e)),
        Err(payload) => Err(RunError::Panic(panic_message(&*payload))),
    }
}

/// [`measurement_of`] over a panic-isolated outcome.
pub fn measurement_of_isolated(
    name: &str,
    examples: usize,
    result: &Result<Synthesis, RunError>,
    budget: Duration,
) -> Measurement {
    match result {
        Ok(s) => measurement_of(name, examples, &Ok(s.clone()), budget),
        Err(RunError::Synth(e)) => measurement_of(name, examples, &Err(e.clone()), budget),
        Err(e @ RunError::Panic(_)) => Measurement {
            name: name.to_owned(),
            elapsed: Duration::ZERO,
            solved: false,
            cost: 0,
            size: 0,
            program: String::new(),
            examples,
            stats: Stats::default(),
            error: Some(e.to_string()),
        },
    }
}

/// Converts a synthesis outcome into a [`Measurement`]. Timeouts are
/// charged the full `budget`; other failures (exhausted space,
/// inconsistent examples) report zero elapsed.
pub fn measurement_of(
    name: &str,
    examples: usize,
    result: &Result<Synthesis, SynthError>,
    budget: Duration,
) -> Measurement {
    match result {
        Ok(s) => Measurement {
            name: name.to_owned(),
            elapsed: s.elapsed,
            solved: true,
            cost: s.cost,
            size: s.program.body().size(),
            program: s.program.to_string(),
            examples,
            stats: s.stats.clone(),
            error: None,
        },
        Err(e) => Measurement {
            name: name.to_owned(),
            elapsed: if matches!(e, SynthError::Timeout) {
                budget
            } else {
                Duration::ZERO
            },
            solved: false,
            cost: 0,
            size: 0,
            program: String::new(),
            examples,
            stats: Stats::default(),
            error: Some(e.to_string()),
        },
    }
}

/// One record of a `BENCH_*.json` report: a labeled [`Measurement`] plus
/// experiment-specific extra fields (engine, config, sweep parameter, …).
pub fn record(label: &str, m: &Measurement, extra: &[(&'static str, Json)]) -> Json {
    let mut pairs = vec![("label".to_owned(), Json::str(label))];
    if let Json::Obj(mpairs) = m.to_json() {
        pairs.extend(mpairs);
    }
    for (k, v) in extra {
        pairs.push(((*k).to_owned(), v.clone()));
    }
    Json::Obj(pairs)
}

/// The directory `BENCH_*.json` reports are written into: the
/// `LAMBDA2_RESULTS_DIR` environment variable when set, otherwise the
/// repo's `results/` directory (resolved from this crate's manifest, so
/// the path does not depend on the launch directory).
pub fn results_dir() -> PathBuf {
    match std::env::var_os("LAMBDA2_RESULTS_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crate lives two levels below the repo root")
            .join("results"),
    }
}

/// Writes `BENCH_<name>.json` into [`results_dir`] (creating it if
/// needed): a single JSON object with the experiment name, top-level
/// `meta` fields, and a `results` array of [`record`]s. Returns the path
/// written.
///
/// When the `LAMBDA2_CORPUS_DIR` environment variable is set, the same
/// document is also folded into the run corpus there (see
/// [`lambda2_synth::ingest_bench`]), so every bench harness feeds the
/// cross-run regression watchdog without per-binary plumbing.
///
/// # Errors
///
/// Propagates the underlying filesystem write failure; corpus failures
/// are reported the same way (the bench file itself is already on disk).
pub fn write_bench_json(
    name: &str,
    meta: &[(&'static str, Json)],
    records: Vec<Json>,
) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut pairs = vec![
        ("v".to_owned(), lambda2_synth::SCHEMA_VERSION.into()),
        ("bench".to_owned(), Json::str(name)),
    ];
    for (k, v) in meta {
        pairs.push(((*k).to_owned(), v.clone()));
    }
    pairs.push(("results".to_owned(), Json::Arr(records)));
    let doc = Json::Obj(pairs);
    std::fs::write(&path, format!("{doc}\n"))?;
    if let Some(corpus_dir) = std::env::var_os("LAMBDA2_CORPUS_DIR") {
        let fold = || -> Result<usize, String> {
            let corpus =
                lambda2_synth::Corpus::open(Path::new(&corpus_dir)).map_err(|e| e.to_string())?;
            let records = lambda2_synth::ingest_bench(&doc)?;
            corpus.append(&records).map_err(|e| e.to_string())?;
            Ok(records.len())
        };
        match fold() {
            Ok(n) => eprintln!(
                "corpus: {n} record(s) -> {}",
                Path::new(&corpus_dir).display()
            ),
            Err(e) => return Err(std::io::Error::other(format!("LAMBDA2_CORPUS_DIR: {e}"))),
        }
    }
    Ok(path)
}

/// Renders rows as an aligned text table with a header.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_owned()
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a duration as milliseconds with one decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda2_bench_suite::by_name;

    #[test]
    fn run_benchmark_solves_a_trivial_problem() {
        let bench = by_name("ident").unwrap();
        let m = run_benchmark(&bench, Engine::Lambda2, Some(Duration::from_secs(10)));
        assert!(m.solved);
        assert_eq!(m.program, "(lambda (l) l)");
        assert_eq!(m.cost, 1);
    }

    #[test]
    fn measurement_of_records_the_terminal_error() {
        let ok: Result<Synthesis, SynthError> = Err(SynthError::Timeout);
        let m = measurement_of("p", 2, &ok, Duration::from_secs(3));
        assert!(!m.solved);
        assert_eq!(m.elapsed, Duration::from_secs(3));
        assert_eq!(m.error.as_deref(), Some("synthesis timed out"));

        let exhausted: Result<Synthesis, SynthError> = Err(SynthError::Exhausted);
        let m = measurement_of("p", 2, &exhausted, Duration::from_secs(3));
        assert_eq!(m.elapsed, Duration::ZERO);
        assert!(m.error.is_some());
    }

    #[test]
    fn engines_display_distinctly() {
        let names: Vec<String> = [Engine::Lambda2, Engine::NoDeduce, Engine::Baseline]
            .iter()
            .map(|e| e.to_string())
            .collect();
        assert_eq!(names.len(), 3);
        assert!(names.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["name", "t"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn ms_formats_milliseconds() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.0");
        assert_eq!(ms(Duration::from_micros(2500)), "2.5");
    }

    #[test]
    fn records_carry_label_measurement_and_extras() {
        let bench = by_name("ident").unwrap();
        let m = run_benchmark(&bench, Engine::Lambda2, Some(Duration::from_secs(10)));
        let r = record("lambda2/ident", &m, &[("engine", "lambda2".into())]);
        assert_eq!(r.get("label").unwrap().as_str(), Some("lambda2/ident"));
        assert_eq!(r.get("engine").unwrap().as_str(), Some("lambda2"));
        assert_eq!(r.get("solved"), Some(&Json::Bool(true)));
        assert!(r.get("stats").unwrap().get("phases").is_some());
    }

    #[test]
    fn write_bench_json_emits_a_parseable_report_under_the_results_dir() {
        // The env override redirects the report; without it the path
        // resolves from the crate manifest, independent of the CWD.
        let dir = std::env::temp_dir().join("bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("LAMBDA2_RESULTS_DIR", &dir);
        let bench = by_name("ident").unwrap();
        let m = run_benchmark(&bench, Engine::Lambda2, Some(Duration::from_secs(10)));
        let path = write_bench_json(
            "selftest",
            &[("quick", true.into())],
            vec![record("ident", &m, &[])],
        )
        .unwrap();
        std::env::remove_var("LAMBDA2_RESULTS_DIR");
        assert_eq!(path.parent(), Some(dir.as_path()));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = lambda2_synth::obs::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("v").and_then(Json::as_i64),
            Some(lambda2_synth::SCHEMA_VERSION as i64)
        );
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("selftest"));
        assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("results").unwrap().as_arr().unwrap().len(), 1);

        // Without the override, the path resolves to the repo's results/
        // directory (two levels up from crates/bench), CWD-independent.
        let default_dir = results_dir();
        assert!(
            default_dir.ends_with("results"),
            "{}",
            default_dir.display()
        );
        assert!(default_dir.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn parallel_suite_matches_sequential_measurements() {
        let names = ["ident", "head", "tail"];
        let benches: Vec<Benchmark> = names
            .iter()
            .map(|n| by_name(n).expect("suite problem"))
            .collect();
        let timeout = Some(Duration::from_secs(10));
        let parallel = run_benchmarks_parallel(&benches, Engine::Lambda2, timeout, 3);
        for (bench, m) in benches.iter().zip(&parallel) {
            let seq = run_benchmark(bench, Engine::Lambda2, timeout);
            assert_eq!(m.name, seq.name);
            assert_eq!(m.solved, seq.solved);
            assert_eq!(m.program, seq.program, "{}", m.name);
            assert_eq!(m.cost, seq.cost);
            assert_eq!(m.stats.popped, seq.stats.popped);
        }
    }

    #[test]
    fn jobs_arg_extracts_the_flag_pair() {
        let mut args: Vec<String> = vec!["--quick".into(), "--jobs".into(), "4".into()];
        assert_eq!(jobs_arg(&mut args), Some(4));
        assert_eq!(args, vec!["--quick".to_owned()]);
        assert_eq!(jobs_arg(&mut args), None);
    }
}
