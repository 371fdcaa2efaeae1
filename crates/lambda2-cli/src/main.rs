//! `l2` — the λ² synthesizer command-line tool.
//!
//! ```text
//! l2 synth <problem.l2>...  synthesize a program from each problem file
//! l2 run <problem.l2> ARGS  synthesize, then run the program on ARGS
//! l2 eval <expr> [x=v]...   evaluate an expression under bindings
//! l2 lint <problem.l2>...   statically check problem files
//! l2 bench <name>...        run suite benchmarks by name
//! l2 list                   list the benchmark suite
//! l2 profile summary <trace.jsonl>     per-combinator/per-rule attribution
//! l2 profile tree <trace.jsonl>        collapsed stacks for flamegraphs
//! l2 profile diff <a.jsonl> <b.jsonl>  first divergence of two traces
//! l2 profile report <trace.jsonl>      self-contained HTML report
//! l2 corpus ingest <dir> <file>...     backfill run records from
//!                                      --stats-json / BENCH_*.json files
//! l2 corpus list <dir>                 one line per problem+config
//! l2 corpus stats <dir>                cross-run aggregates (solve rate,
//!                                      costs, wall-time quantiles)
//! l2 corpus regress <baseline> <fresh> compare fresh runs to the baseline
//! l2 serve                  run the synthesis daemon (TCP or unix: socket)
//! l2 client synth <p.l2>... send problems to a running daemon
//! l2 client ping|stats|shutdown        poke a running daemon
//!
//! flags (synth/run/bench):
//!   --trace <path>          stream search telemetry as JSON Lines to <path>
//!   --stats-json            print each measurement as one JSON line
//!   --stats-json=<path>     ...or append the lines to <path> instead
//!   --corpus <dir>          append each measurement to the run corpus in
//!                           <dir> (see `l2 corpus`)
//!   --progress              render a live status line on stderr while the
//!                           search runs (sequential commands only)
//!   --timeout-ms <n>        wall-clock budget per problem (default 60000)
//!   --max-overshoot-ms <n>  deadline overshoot bound (default 100)
//!   --retry-ladder          on resource exhaustion, retry with degraded
//!                           options, then the enumerative baseline
//!   --jobs <n>              worker threads (0 = one per CPU; default 1,
//!                           sequential). Several problems: fan the batch
//!                           across the pool. One problem: parallelize
//!                           *within* its search (byte-identical results)
//!   --no-static-analysis    disable the abstract-interpretation refutation
//!                           pre-pass entirely (both tiers; same results)
//!   --no-static-prune       keep the pre-pass but disable its pruning
//!                           tier (the ablation arm: same programs and
//!                           costs, strictly more search work)
//!
//! flags (lint):
//!   --json                  one JSON object per diagnostic per line
//!
//! flags (profile):
//!   --json                  machine-readable output (summary/diff)
//!   --weight pops|time      tree weighting (default pops)
//!   --out <path>            write tree/report output to a file
//!
//! flags (serve):
//!   --addr <a>              listen address: host:port, or unix:/path
//!                           (default 127.0.0.1:7207; port 0 = ephemeral)
//!   --jobs <n>              synthesis worker threads (0 = one per CPU;
//!                           default 2)
//!   --queue <n>             admission-queue capacity (default 16);
//!                           requests beyond workers+queue are shed with
//!                           a structured `overloaded` + retry hint
//!   --timeout-ms <n>        default per-request budget (default 2000)
//!   --max-timeout-ms <n>    hard cap on any request's budget (30000)
//!   --warm-bytes <n>        warm term-store byte budget shared by the
//!                           whole worker pool (0 = off)
//!   --drain-grace-ms <n>    how long in-flight jobs get to finish on
//!                           drain before cancellation (default 1000)
//!   --corpus <dir>          append every served synthesis to a corpus
//!
//! flags (client):
//!   --addr <a>              daemon address (default 127.0.0.1:7207)
//!   --retries <n>           retry budget for sheds/transport errors (0)
//!   --backoff-ms <n>        base retry delay, exponential + jitter (100)
//!   --seed <n>              jitter seed (deterministic backoff; 0)
//!   --timeout-ms <n>        per-request budget sent to the daemon
//! ```
//!
//! `client` exit codes: 0 every request answered `ok`, 1 any request
//! failed (`error`, `unsolved`, `shutting_down`, or transport failure
//! after retries), 2 on usage or local I/O errors, 3 when the daemon
//! answered `overloaded` even after the retry budget — the daemon is
//! healthy but saturated, a distinct condition from failure.
//!
//! `lint` exit codes: 0 when every file is clean, 1 when any diagnostic
//! was reported, 2 on usage or I/O errors. An unreadable file does not
//! stop the remaining files from being linted — it is reported (code
//! `io-error` under `--json`) and the exit code deferred. Each diagnostic
//! carries a stable machine-readable code (`parse-error`,
//! `type-mismatch`, `contradictory-examples`, `duplicate-examples`,
//! `constant-input`, `permutation-conflict`, `unsat-abstract`,
//! `library-shadowed`, `library-unused`). `profile diff` exit codes: 0 when the traces are
//! identical, 1 when they diverge or one is a truncated prefix of the
//! other, 2 on usage or I/O errors.
//!
//! Batch runs (`synth`/`bench` with several problems) isolate each
//! problem: a failure — timeout, exhaustion, even a panic — is reported
//! (and recorded in the `--stats-json` line) and the batch continues;
//! the exit code is nonzero only if at least one problem failed. With
//! `--jobs`, problems fan out across a worker pool but results are
//! printed in input order, and `--trace` events carry `problem`/`worker`
//! tags, so output is deterministic up to timings. A single-problem
//! invocation instead spends `--jobs` *inside* the search
//! ([`SearchOptions::jobs`]): candidate verification fans out to worker
//! threads while the program, cost, counters, and trace stay
//! byte-identical to the sequential run.
//!
//! Problem files are s-expressions:
//!
//! ```text
//! (problem evens
//!   (params (l [int]))
//!   (returns [int])
//!   (example ([]) [])
//!   (example ([1 2 3 4]) [2 4])
//!   (example ([5 6]) [6]))
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use lambda2_synth::govern::panic_message;
use lambda2_synth::obs::json::Json;
use lambda2_synth::par::{
    effective_jobs, synthesize_batch, tagged_event_json, ParEngine, ParOutcome, ParTask,
};
use lambda2_synth::serve::{request_with_retry, Backoff};
use lambda2_synth::{
    aggregate, collapse_tree, diff_traces, ingest_bench, ingest_measurement, lint_source,
    load_access_log, load_records, load_trace, options_fingerprint, parse_problem, regress,
    render_access_html, render_html, summarize, AccessReport, Corpus, DiffOutcome, FindingKind,
    JsonlTracer, Measurement, Problem, RegressThresholds, RunRecord, SearchOptions, SearchReport,
    ServeConfig, Server, Synthesizer, TraceEvent, Tracer, Weight,
};

/// Default daemon address shared by `l2 serve` and `l2 client`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7207";

/// Flags shared by the synthesizing commands.
#[derive(Debug, Default)]
struct Flags {
    /// Write a JSONL trace of the search to this path.
    trace: Option<PathBuf>,
    /// Print the final `Measurement` as a single JSON line on stdout.
    stats_json: bool,
    /// `--stats-json=<path>`: append the measurement lines to a file
    /// instead of stdout.
    stats_json_out: Option<PathBuf>,
    /// Append each measurement to the run corpus in this directory.
    corpus: Option<PathBuf>,
    /// Render a live status line on stderr while the search runs.
    progress: bool,
    /// Wall-clock budget per problem, in milliseconds.
    timeout_ms: Option<u64>,
    /// Deadline overshoot bound, in milliseconds.
    max_overshoot_ms: Option<u64>,
    /// Retry with degraded options, then the baseline, on resource limits.
    retry_ladder: bool,
    /// Worker threads for batch commands (`None` = sequential, 0 = one
    /// per CPU).
    jobs: Option<usize>,
    /// Disable the abstract-interpretation refutation pre-pass.
    no_static_analysis: bool,
    /// Keep the pre-pass but disable its pruning tier (ablation arm).
    no_static_prune: bool,
    /// `lint`/`profile`: print machine-readable JSON instead of human text.
    json: bool,
    /// `profile tree`/`profile report`: write the output to this file
    /// instead of stdout (report defaults to `<trace>.html`).
    out: Option<PathBuf>,
    /// `profile tree`: weight stacks by `pops` (default) or `time`.
    weight: Option<String>,
    /// `corpus regress`: wall-time ratio threshold (default 1.5).
    wall_ratio: Option<f64>,
    /// `corpus regress`: wall-time absolute floor in ms (default 100).
    wall_floor_ms: Option<f64>,
    /// `corpus regress`: skip the wall-time comparison (cross-machine CI).
    no_wall_check: bool,
    /// `serve`/`client`: daemon address (`host:port` or `unix:/path`).
    addr: Option<String>,
    /// `serve`: admission-queue capacity.
    queue: Option<usize>,
    /// `serve`: hard cap on any request's timeout, in milliseconds.
    max_timeout_ms: Option<u64>,
    /// `serve`: pool-shared warm term-store byte budget (0 disables).
    warm_bytes: Option<usize>,
    /// `serve`: drain grace for in-flight jobs, in milliseconds.
    drain_grace_ms: Option<u64>,
    /// `serve`: append one JSONL access record per request to this file.
    access_log: Option<PathBuf>,
    /// `serve`: capture a full search trace for requests at or above
    /// this many milliseconds of service time.
    slow_trace_ms: Option<u64>,
    /// `serve`: directory where slow-request traces are written, one
    /// `<req_id>.jsonl` per captured request.
    slow_trace_dir: Option<PathBuf>,
    /// `client`: retry budget for sheds and transport errors.
    retries: Option<u32>,
    /// `client`: base backoff delay, in milliseconds.
    backoff_ms: Option<u64>,
    /// `client`: jitter seed (same seed, same backoff schedule).
    seed: Option<u64>,
}

impl Flags {
    /// Extracts the known flags from `args` (any position), leaving the
    /// positional arguments behind.
    fn extract(args: &mut Vec<String>) -> Result<Flags, String> {
        fn ms_arg(flag: &str, next: Option<String>) -> Result<u64, String> {
            let raw = next.ok_or_else(|| format!("{flag} requires a millisecond count"))?;
            raw.parse::<u64>()
                .map_err(|_| format!("{flag}: `{raw}` is not a whole number of milliseconds"))
        }
        let mut flags = Flags::default();
        let mut rest = Vec::with_capacity(args.len());
        let mut it = args.drain(..);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace" => match it.next() {
                    Some(path) => flags.trace = Some(PathBuf::from(path)),
                    None => return Err("--trace requires a file path".into()),
                },
                "--stats-json" => flags.stats_json = true,
                "--corpus" => match it.next() {
                    Some(dir) => flags.corpus = Some(PathBuf::from(dir)),
                    None => return Err("--corpus requires a directory path".into()),
                },
                "--progress" => flags.progress = true,
                "--no-wall-check" => flags.no_wall_check = true,
                "--wall-ratio" => {
                    let raw = it
                        .next()
                        .ok_or("--wall-ratio requires a factor (e.g. 1.5)")?;
                    let v = raw
                        .parse::<f64>()
                        .map_err(|_| format!("--wall-ratio: `{raw}` is not a number"))?;
                    if !v.is_finite() || v < 1.0 {
                        return Err(format!("--wall-ratio: `{raw}` must be a factor >= 1"));
                    }
                    flags.wall_ratio = Some(v);
                }
                "--wall-floor-ms" => {
                    let raw = it
                        .next()
                        .ok_or("--wall-floor-ms requires a millisecond count")?;
                    let v = raw
                        .parse::<f64>()
                        .map_err(|_| format!("--wall-floor-ms: `{raw}` is not a number"))?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(format!("--wall-floor-ms: `{raw}` must be >= 0"));
                    }
                    flags.wall_floor_ms = Some(v);
                }
                "--timeout-ms" => flags.timeout_ms = Some(ms_arg("--timeout-ms", it.next())?),
                "--max-overshoot-ms" => {
                    flags.max_overshoot_ms = Some(ms_arg("--max-overshoot-ms", it.next())?);
                }
                "--max-timeout-ms" => {
                    flags.max_timeout_ms = Some(ms_arg("--max-timeout-ms", it.next())?);
                }
                "--drain-grace-ms" => {
                    flags.drain_grace_ms = Some(ms_arg("--drain-grace-ms", it.next())?);
                }
                "--access-log" => match it.next() {
                    Some(path) => flags.access_log = Some(PathBuf::from(path)),
                    None => return Err("--access-log requires a file path".into()),
                },
                "--slow-trace-ms" => {
                    flags.slow_trace_ms = Some(ms_arg("--slow-trace-ms", it.next())?);
                }
                "--slow-trace-dir" => match it.next() {
                    Some(dir) => flags.slow_trace_dir = Some(PathBuf::from(dir)),
                    None => return Err("--slow-trace-dir requires a directory path".into()),
                },
                "--backoff-ms" => flags.backoff_ms = Some(ms_arg("--backoff-ms", it.next())?),
                "--addr" => match it.next() {
                    Some(addr) => flags.addr = Some(addr),
                    None => return Err("--addr requires an address".into()),
                },
                "--queue" => {
                    let raw = it.next().ok_or("--queue requires a capacity")?;
                    flags.queue =
                        Some(raw.parse::<usize>().map_err(|_| {
                            format!("--queue: `{raw}` is not a whole number of slots")
                        })?);
                }
                "--warm-bytes" => {
                    let raw = it.next().ok_or("--warm-bytes requires a byte count")?;
                    flags.warm_bytes = Some(raw.parse::<usize>().map_err(|_| {
                        format!("--warm-bytes: `{raw}` is not a whole number of bytes")
                    })?);
                }
                "--retries" => {
                    let raw = it.next().ok_or("--retries requires a count")?;
                    flags.retries = Some(
                        raw.parse::<u32>()
                            .map_err(|_| format!("--retries: `{raw}` is not a whole number"))?,
                    );
                }
                "--seed" => {
                    let raw = it.next().ok_or("--seed requires a number")?;
                    flags.seed = Some(
                        raw.parse::<u64>()
                            .map_err(|_| format!("--seed: `{raw}` is not a whole number"))?,
                    );
                }
                "--retry-ladder" => flags.retry_ladder = true,
                "--jobs" => {
                    let raw = it.next().ok_or("--jobs requires a worker count")?;
                    flags.jobs = Some(raw.parse::<usize>().map_err(|_| {
                        format!("--jobs: `{raw}` is not a whole number of workers")
                    })?);
                }
                "--no-static-analysis" => flags.no_static_analysis = true,
                "--no-static-prune" => flags.no_static_prune = true,
                "--json" => flags.json = true,
                "--out" => match it.next() {
                    Some(path) => flags.out = Some(PathBuf::from(path)),
                    None => return Err("--out requires a file path".into()),
                },
                "--weight" => {
                    let raw = it.next().ok_or("--weight requires `pops` or `time`")?;
                    if raw != "pops" && raw != "time" {
                        return Err(format!("--weight: `{raw}` is not `pops` or `time`"));
                    }
                    flags.weight = Some(raw);
                }
                other if other.starts_with("--stats-json=") => {
                    let path = &other["--stats-json=".len()..];
                    if path.is_empty() {
                        return Err("--stats-json=<path> requires a file path".into());
                    }
                    flags.stats_json_out = Some(PathBuf::from(path));
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown flag `{other}`"));
                }
                _ => rest.push(a),
            }
        }
        drop(it);
        *args = rest;
        Ok(flags)
    }

    /// Applies the governance flags on top of `options`.
    fn apply(&self, mut options: SearchOptions) -> SearchOptions {
        if let Some(ms) = self.timeout_ms {
            options.timeout = Some(Duration::from_millis(ms));
        }
        if let Some(ms) = self.max_overshoot_ms {
            options.max_overshoot = Duration::from_millis(ms);
        }
        if self.retry_ladder {
            options.retry_ladder = true;
        }
        if self.no_static_analysis {
            options.static_analysis = false;
        }
        if self.no_static_prune {
            options.static_prune = false;
        }
        if self.progress {
            options.progress = true;
        }
        options
    }

    /// The resolved worker count: `--jobs 0` means one per CPU, no flag
    /// means sequential.
    fn effective_jobs(&self) -> usize {
        match self.jobs {
            Some(n) => effective_jobs(n),
            None => 1,
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match Flags::extract(&mut args) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("synth") if args.len() >= 2 => cmd_synth(&args[1..], &flags),
        Some("run") if args.len() >= 3 => cmd_run(&args[1], &args[2..], &flags),
        Some("eval") if args.len() >= 2 => cmd_eval(&args[1], &args[2..]),
        Some("lint") if args.len() >= 2 => return cmd_lint(&args[1..], &flags),
        Some("bench") if args.len() >= 2 => cmd_bench(&args[1..], &flags),
        Some("list") => cmd_list(),
        Some("profile") if args.len() >= 2 => return cmd_profile(&args[1..], &flags),
        Some("corpus") if args.len() >= 2 => return cmd_corpus(&args[1..], &flags),
        Some("serve") => return cmd_serve(&args[1..], &flags),
        Some("client") if args.len() >= 2 => return cmd_client(&args[1..], &flags),
        _ => {
            eprintln!(
                "usage:\n  l2 [flags] synth <problem.l2>...\n  \
                 l2 [flags] run <problem.l2> <arg>...\n  \
                 l2 eval <expr> [x=v]...\n  \
                 l2 [--json] lint <problem.l2>...\n  \
                 l2 [flags] bench <name>...\n  l2 list\n  \
                 l2 profile summary|tree|diff|report <trace.jsonl>...\n  \
                 l2 corpus ingest|list|stats|regress ...\n  \
                 l2 serve [serve flags]\n  \
                 l2 serve report <access.jsonl> [--json] [--out <html>]\n  \
                 l2 client synth <problem.l2>... | ping | stats | shutdown\n\
                 flags: --trace <path>  --stats-json[=<path>]  --corpus <dir>  \
                 --progress  --timeout-ms <n>  \
                 --max-overshoot-ms <n>  --retry-ladder  --jobs <n>  \
                 --no-static-analysis  --no-static-prune\n\
                 profile flags: --json  --weight pops|time  --out <path>\n\
                 corpus flags: --json  --wall-ratio <f>  --wall-floor-ms <n>  \
                 --no-wall-check\n\
                 serve flags: --addr <a>  --jobs <n>  --queue <n>  --timeout-ms <n>  \
                 --max-timeout-ms <n>  --warm-bytes <n>  --drain-grace-ms <n>  \
                 --corpus <dir>  --access-log <path>  --slow-trace-ms <n>  \
                 --slow-trace-dir <dir>\n\
                 client flags: --addr <a>  --retries <n>  --backoff-ms <n>  \
                 --seed <n>  --timeout-ms <n>  --json"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `content` to stdout verbatim, ignoring broken pipes: every
/// subcommand's stdout must survive `l2 ... | head` without a panic or a
/// spurious nonzero exit. Write errors other than a closed pipe are also
/// ignored — stdout is a best-effort channel here; anything that decides
/// exit codes goes through return values, not print success.
fn emit(content: &str) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let _ = stdout.lock().write_all(content.as_bytes());
}

/// [`emit`] plus a trailing newline — the broken-pipe-safe `println!`.
fn emit_line(content: impl std::fmt::Display) {
    emit(&format!("{content}\n"));
}

/// Checks up front that a `--flag <path>` output target points somewhere
/// writable: a missing parent directory is a usage error reported before
/// any synthesis work starts, not after a whole batch has already run
/// (the parallel path only opens the trace file once all workers finish).
fn validate_out_path(flag: &str, path: &std::path::Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(format!(
                "{flag} {}: parent directory {} does not exist",
                path.display(),
                parent.display()
            ));
        }
    }
    Ok(())
}

fn validate_trace_path(flags: &Flags) -> Result<(), String> {
    match &flags.trace {
        Some(path) => validate_out_path("--trace", path),
        None => Ok(()),
    }
}

/// Where the synthesizing commands deliver their measurements, beyond
/// stdout/stderr. Built once per command, *before* any search work, so
/// every output path failure is immediate (see [`validate_out_path`]).
#[derive(Debug)]
struct Sinks {
    /// `--corpus <dir>`: the opened (and thus created) run corpus.
    corpus: Option<Corpus>,
    /// `--stats-json=<path>`: measurement lines are appended here.
    stats_json_out: Option<PathBuf>,
}

/// Validates every output flag and opens the corpus. The `--stats-json=`
/// target file is created (truncated) up front: a bad path fails the
/// command before the first search, and a rerun never mixes old and new
/// lines.
fn prepare_sinks(flags: &Flags) -> Result<Sinks, String> {
    validate_trace_path(flags)?;
    let corpus = match &flags.corpus {
        Some(dir) => Some(Corpus::open(dir).map_err(|e| format!("--corpus: {e}"))?),
        None => None,
    };
    if let Some(path) = &flags.stats_json_out {
        validate_out_path("--stats-json", path)?;
        std::fs::File::create(path).map_err(|e| format!("--stats-json {}: {e}", path.display()))?;
    }
    Ok(Sinks {
        corpus,
        stats_json_out: flags.stats_json_out.clone(),
    })
}

impl Sinks {
    /// Records one measurement in every configured sink. Failures here are
    /// reported but do not fail the run: the synthesis result already
    /// exists and has been printed.
    fn record(&self, measurement: &Measurement, fingerprint: &str) {
        if let Some(corpus) = &self.corpus {
            let record = RunRecord::of_measurement(measurement, fingerprint);
            if let Err(e) = corpus.append(&[record]) {
                eprintln!("warning: --corpus: {e}");
            }
        }
        if let Some(path) = &self.stats_json_out {
            use std::io::Write;
            let appended = std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", measurement.to_json()));
            if let Err(e) = appended {
                eprintln!("warning: --stats-json {}: {e}", path.display());
            }
        }
    }
}

/// Renders [`TraceEvent::Progress`] heartbeats as a single rewriting
/// status line on stderr, forwarding every event to the inner tracer
/// (when there is one). `enabled()` mirrors the inner tracer so the
/// engine keeps skipping payload rendering when only `--progress` is on.
struct ProgressLine<'a> {
    inner: Option<&'a mut dyn Tracer>,
    render: bool,
    wrote: bool,
}

impl ProgressLine<'_> {
    /// Terminates the status line so later stderr output starts clean.
    fn finish_line(&mut self) {
        if self.wrote {
            eprintln!();
            self.wrote = false;
        }
    }
}

impl Tracer for ProgressLine<'_> {
    fn enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|t| t.enabled())
    }

    fn emit(&mut self, event: TraceEvent) {
        if self.render {
            if let TraceEvent::Progress {
                budget,
                queue,
                best_cost,
                ..
            } = &event
            {
                eprint!(
                    "\r  {:6.1}s  {} pops  queue {}  cost {}  store {:.1} MB   ",
                    budget.elapsed.as_secs_f64(),
                    budget.pops,
                    queue,
                    best_cost,
                    budget.peak_store_bytes as f64 / (1024.0 * 1024.0),
                );
                self.wrote = true;
            }
        }
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.emit(event);
        }
    }
}

/// Runs one governed synthesis, honoring `--trace` and `--progress`, with
/// panic isolation: a crash inside the engine becomes an error
/// measurement, not an abort.
fn run_synthesis(
    synthesizer: &Synthesizer,
    problem: &Problem,
    flags: &Flags,
) -> Result<SearchReport, String> {
    let mut jsonl = match &flags.trace {
        Some(path) => Some(
            JsonlTracer::create(path)
                .map_err(|e| format!("opening trace file {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let report = {
        let mut line = ProgressLine {
            inner: jsonl.as_mut().map(|t| t as &mut dyn Tracer),
            render: flags.progress,
            wrote: false,
        };
        let tracer = &mut line;
        let r = catch_unwind(AssertUnwindSafe(|| {
            synthesizer.synthesize_report_traced(problem, tracer)
        }));
        line.finish_line();
        r
    };
    if let (Some(tracer), Some(path)) = (jsonl, &flags.trace) {
        let lines = tracer
            .finish()
            .map_err(|e| format!("writing trace file {}: {e}", path.display()))?;
        eprintln!("trace: {lines} events -> {}", path.display());
    }
    report.map_err(|payload| format!("synthesis panicked: {}", panic_message(&*payload)))
}

/// Prints the result summary (and the `--stats-json` line), and records
/// the measurement in the configured [`Sinks`]. Returns `true` when the
/// problem was solved.
fn report(
    problem: &Problem,
    outcome: &Result<SearchReport, String>,
    flags: &Flags,
    sinks: &Sinks,
    fingerprint: &str,
) -> bool {
    let (solved, error, measurement) = match outcome {
        Ok(report) => {
            let m = report.to_measurement(problem.name(), problem.examples().len());
            match &report.outcome {
                Ok(s) => {
                    emit_line(&s.program);
                    eprintln!(
                        "cost {}, {:.1} ms, {}",
                        s.cost,
                        report.elapsed.as_secs_f64() * 1e3,
                        s.stats
                    );
                    eprintln!("phases: {}", s.stats.phases);
                    (true, None, m)
                }
                Err(e) => {
                    if !report.frontier.is_empty() {
                        eprintln!("best incomplete candidates:");
                        for item in &report.frontier {
                            eprintln!("  cost {:3}  {}", item.cost, item.sketch);
                        }
                    }
                    (false, Some(e.to_string()), m)
                }
            }
        }
        Err(msg) => {
            let m = Measurement {
                name: problem.name().to_owned(),
                elapsed: Duration::ZERO,
                solved: false,
                cost: 0,
                size: 0,
                program: String::new(),
                examples: problem.examples().len(),
                stats: Default::default(),
                error: Some(msg.clone()),
            };
            (false, Some(msg.clone()), m)
        }
    };
    if let Some(e) = &error {
        eprintln!("{}: error: {e}", problem.name());
    }
    if flags.stats_json {
        emit_line(measurement.to_json());
    }
    sinks.record(&measurement, fingerprint);
    solved
}

fn cmd_synth(paths: &[String], flags: &Flags) -> Result<(), String> {
    let sinks = prepare_sinks(flags)?;
    // A single problem has no batch to fan out: `--jobs` becomes
    // within-problem parallelism inside the one search instead.
    if flags.effective_jobs() <= 1 || paths.len() == 1 {
        let mut failed = 0usize;
        for path in paths {
            match load_problem(path) {
                Ok(problem) => {
                    eprintln!(
                        "synthesizing `{}` from {} examples...",
                        problem.name(),
                        problem.examples().len()
                    );
                    let synthesizer = synthesizer_single(flags);
                    let fingerprint = options_fingerprint(synthesizer.options());
                    let outcome = run_synthesis(&synthesizer, &problem, flags);
                    if !report(&problem, &outcome, flags, &sinks, &fingerprint) {
                        failed += 1;
                    }
                }
                Err(msg) => {
                    eprintln!("{path}: error: {msg}");
                    failed += 1;
                }
            }
        }
        return batch_verdict(failed, paths.len());
    }

    // Parallel: load everything up front, fan the problems across the
    // worker pool, then print results in input order.
    let mut failed = 0usize;
    let mut tasks = Vec::new();
    for path in paths {
        match load_problem(path) {
            Ok(problem) => tasks.push(par_task(&problem, synthesizer_for(flags), flags)),
            Err(msg) => {
                eprintln!("{path}: error: {msg}");
                failed += 1;
            }
        }
    }
    failed += run_batch(tasks, flags, &sinks)?;
    batch_verdict(failed, paths.len())
}

/// Packages one problem for the worker pool.
fn par_task(problem: &Problem, synthesizer: Synthesizer, flags: &Flags) -> ParTask {
    ParTask {
        spec: problem.clone(),
        options: synthesizer.options().clone(),
        engine: ParEngine::Search,
        collect_trace: flags.trace.is_some(),
    }
}

/// Fans `tasks` across the worker pool, writes the merged worker-tagged
/// trace, and reports every outcome in input order. Returns the number of
/// failed problems.
fn run_batch(tasks: Vec<ParTask>, flags: &Flags, sinks: &Sinks) -> Result<usize, String> {
    let jobs = flags.effective_jobs();
    eprintln!("running {} problems across {jobs} workers...", tasks.len());
    // Outcomes come back in input order, so the per-task fingerprints
    // (bench tuning varies the options per problem) line up by index.
    let fingerprints: Vec<String> = tasks
        .iter()
        .map(|t| options_fingerprint(&t.options))
        .collect();
    let outcomes = synthesize_batch(tasks, jobs);
    write_tagged_trace(&outcomes, flags)?;
    Ok(outcomes
        .iter()
        .zip(&fingerprints)
        .filter(|(o, fp)| !report_par(o, flags, sinks, fp))
        .count())
}

/// Writes the batch's trace events — tagged with problem and worker — as
/// one JSONL file, in input (not completion) order.
fn write_tagged_trace(outcomes: &[ParOutcome], flags: &Flags) -> Result<(), String> {
    let Some(path) = &flags.trace else {
        return Ok(());
    };
    use std::io::Write;
    let io_err = |e: std::io::Error| format!("writing trace file {}: {e}", path.display());
    let file = std::fs::File::create(path)
        .map_err(|e| format!("opening trace file {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut lines = 0u64;
    for outcome in outcomes {
        for event in &outcome.events {
            // Progress heartbeats are wall-clock driven — volatile, like
            // `t_us` — so they are dropped from the merged trace to keep
            // it diffable across runs.
            if matches!(event, TraceEvent::Progress { .. }) {
                continue;
            }
            writeln!(
                out,
                "{}",
                tagged_event_json(event, &outcome.name, outcome.worker)
            )
            .map_err(io_err)?;
            lines += 1;
        }
    }
    out.flush().map_err(io_err)?;
    eprintln!("trace: {lines} events -> {}", path.display());
    Ok(())
}

/// [`report`] for a pool outcome: same summary lines, same `--stats-json`
/// record, same sink recording. Returns `true` when the problem was
/// solved.
fn report_par(outcome: &ParOutcome, flags: &Flags, sinks: &Sinks, fingerprint: &str) -> bool {
    let (solved, error, measurement) = match &outcome.result {
        Ok(report) => {
            let m = report.to_measurement(&outcome.name, outcome.examples);
            match &report.outcome {
                Ok(s) => {
                    emit_line(&s.program);
                    eprintln!(
                        "cost {}, {:.1} ms, {}",
                        s.cost,
                        report.elapsed.as_secs_f64() * 1e3,
                        s.stats
                    );
                    eprintln!("phases: {}", s.stats.phases);
                    (true, None, m)
                }
                Err(e) => {
                    if !report.frontier.is_empty() {
                        eprintln!("best incomplete candidates:");
                        for item in &report.frontier {
                            eprintln!("  cost {:3}  {}", item.cost, item.sketch);
                        }
                    }
                    (false, Some(e.to_string()), m)
                }
            }
        }
        Err(msg) => {
            let msg = format!("synthesis panicked: {msg}");
            let m = Measurement {
                name: outcome.name.clone(),
                elapsed: Duration::ZERO,
                solved: false,
                cost: 0,
                size: 0,
                program: String::new(),
                examples: outcome.examples,
                stats: Default::default(),
                error: Some(msg.clone()),
            };
            (false, Some(msg), m)
        }
    };
    if let Some(e) = &error {
        eprintln!("{}: error: {e}", outcome.name);
    }
    if flags.stats_json {
        emit_line(measurement.to_json());
    }
    sinks.record(&measurement, fingerprint);
    solved
}

fn cmd_run(path: &str, run_args: &[String], flags: &Flags) -> Result<(), String> {
    let sinks = prepare_sinks(flags)?;
    let problem = load_problem(path)?;
    eprintln!(
        "synthesizing `{}` from {} examples...",
        problem.name(),
        problem.examples().len()
    );
    let synthesizer = synthesizer_single(flags);
    let fingerprint = options_fingerprint(synthesizer.options());
    let outcome = run_synthesis(&synthesizer, &problem, flags);
    if !report(&problem, &outcome, flags, &sinks, &fingerprint) {
        return Err(format!("`{}` was not solved", problem.name()));
    }
    let program = match outcome {
        Ok(r) => r.outcome.expect("reported solved").program,
        Err(_) => unreachable!("report() returned true"),
    };
    let vals = run_args
        .iter()
        .map(|a| lambda2_lang::parser::parse_value(a).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let out = program.apply(&vals).map_err(|e| e.to_string())?;
    emit_line(&out);
    Ok(())
}

fn cmd_eval(expr: &str, bindings: &[String]) -> Result<(), String> {
    let e = lambda2_lang::parser::parse_expr(expr).map_err(|e| e.to_string())?;
    let mut env = lambda2_lang::env::Env::empty();
    for b in bindings {
        let (name, value) = b
            .split_once('=')
            .ok_or_else(|| format!("binding `{b}` is not of the form name=value"))?;
        let v = lambda2_lang::parser::parse_value(value).map_err(|e| e.to_string())?;
        env = env.bind(lambda2_lang::symbol::Symbol::intern(name), v);
    }
    let out = lambda2_lang::eval::eval_default(&e, &env).map_err(|e| e.to_string())?;
    emit_line(&out);
    Ok(())
}

fn cmd_bench(names: &[String], flags: &Flags) -> Result<(), String> {
    let sinks = prepare_sinks(flags)?;
    // One benchmark: `--jobs` parallelizes within the search rather than
    // fanning a one-item batch across the pool.
    let parallel = flags.effective_jobs() > 1 && names.len() > 1;
    let mut failed = 0usize;
    let mut tasks = Vec::new();
    for name in names {
        let Some(bench) = lambda2_bench_suite::by_name(name) else {
            eprintln!("{name}: error: unknown benchmark (try `l2 list`)");
            failed += 1;
            continue;
        };
        let mut options = bench.tune(SearchOptions::default());
        options.timeout = Some(Duration::from_secs(if bench.hard { 180 } else { 60 }));
        let mut options = flags.apply(options);
        if names.len() == 1 {
            options.jobs = flags.effective_jobs();
        }
        let synthesizer = Synthesizer::with_options(options);
        if parallel {
            tasks.push(par_task(&bench.problem, synthesizer, flags));
            continue;
        }
        let fingerprint = options_fingerprint(synthesizer.options());
        let outcome = run_synthesis(&synthesizer, &bench.problem, flags);
        if !report(&bench.problem, &outcome, flags, &sinks, &fingerprint) {
            failed += 1;
        }
    }
    if parallel {
        failed += run_batch(tasks, flags, &sinks)?;
    }
    batch_verdict(failed, names.len())
}

/// Statically checks each problem file, printing diagnostics as
/// `path: code: message` lines (or JSON Lines with `--json`). Exit codes:
/// 0 every file clean, 1 any diagnostic reported, 2 usage or I/O error.
///
/// Every file is checked even when an earlier one fails to read — an
/// unreadable file is reported (as an `io-error` JSON line with `--json`)
/// and the nonzero exit is deferred to the end, mirroring how a multi-
/// problem `l2 synth` reports every problem before failing the batch.
fn cmd_lint(paths: &[String], flags: &Flags) -> ExitCode {
    let mut diagnostics = 0usize;
    let mut io_errors = 0usize;
    for path in paths {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                io_errors += 1;
                if flags.json {
                    emit_line(Json::obj([
                        ("file", path.as_str().into()),
                        ("code", "io-error".into()),
                        ("message", e.to_string().as_str().into()),
                    ]));
                } else {
                    eprintln!("error: reading {path}: {e}");
                }
                continue;
            }
        };
        for d in lint_source(&src) {
            diagnostics += 1;
            if flags.json {
                emit_line(Json::obj([
                    ("file", path.as_str().into()),
                    ("code", d.code.name().into()),
                    ("message", d.message.as_str().into()),
                ]));
            } else {
                emit_line(format_args!("{path}: {}: {}", d.code.name(), d.message));
            }
        }
    }
    if io_errors > 0 {
        eprintln!(
            "{diagnostics} diagnostic(s), {io_errors} unreadable file(s) across {} file(s)",
            paths.len()
        );
        ExitCode::from(2)
    } else if diagnostics == 0 {
        eprintln!("{} file(s) clean", paths.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("{diagnostics} diagnostic(s) across {} file(s)", paths.len());
        ExitCode::FAILURE
    }
}

/// `l2 profile <summary|tree|diff|report> <trace>...` — offline analysis
/// of `--trace` JSONL files. Exit codes: 0 on success (for `diff`:
/// identical traces), 1 when `diff` finds a divergence or truncation,
/// 2 on usage or I/O errors.
fn cmd_profile(args: &[String], flags: &Flags) -> ExitCode {
    fn usage() -> ExitCode {
        eprintln!(
            "usage:\n  l2 profile summary <trace.jsonl> [--json]\n  \
             l2 profile tree <trace.jsonl> [--weight pops|time] [--out <path>]\n  \
             l2 profile diff <a.jsonl> <b.jsonl> [--json]\n  \
             l2 profile report <trace.jsonl> [--out <path>]"
        );
        ExitCode::from(2)
    }
    fn fail(msg: impl std::fmt::Display) -> ExitCode {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    }
    /// Writes `content` to `--out` (or stdout when absent).
    fn deliver(content: &str, out: Option<&PathBuf>, what: &str) -> ExitCode {
        match out {
            Some(path) => match std::fs::write(path, content) {
                Ok(()) => {
                    eprintln!("{what} -> {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format_args!("writing {}: {e}", path.display())),
            },
            None => {
                emit(content);
                ExitCode::SUCCESS
            }
        }
    }

    match (args.first().map(String::as_str), &args[1..]) {
        (Some("summary"), [trace]) => {
            let trace = match load_trace(std::path::Path::new(trace)) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            let summary = summarize(&trace);
            if flags.json {
                emit(&format!("{}\n", summary.to_json()));
            } else {
                emit(&summary.render_text());
            }
            ExitCode::SUCCESS
        }
        (Some("tree"), [trace]) => {
            let trace = match load_trace(std::path::Path::new(trace)) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            let weight = match flags.weight.as_deref() {
                Some("time") => Weight::Time,
                _ => Weight::Pops,
            };
            let stacks = match collapse_tree(&trace, weight) {
                Ok(s) => s,
                Err(e) => return fail(e),
            };
            let mut out = String::new();
            for (stack, w) in &stacks {
                out.push_str(&format!("{stack} {w}\n"));
            }
            deliver(&out, flags.out.as_ref(), "collapsed stacks")
        }
        (Some("diff"), [a, b]) => {
            let (ta, tb) = match (
                load_trace(std::path::Path::new(a)),
                load_trace(std::path::Path::new(b)),
            ) {
                (Ok(ta), Ok(tb)) => (ta, tb),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            };
            let outcome = diff_traces(&ta, &tb);
            if flags.json {
                emit(&format!("{}\n", diff_json(&outcome)));
            } else {
                let text = match &outcome {
                    DiffOutcome::Identical { events } => {
                        format!("identical: {events} events\n")
                    }
                    DiffOutcome::Truncated {
                        common,
                        len_a,
                        len_b,
                    } => format!(
                        "truncated: traces agree on the first {common} events, \
                         then one stops early ({len_a} vs {len_b} events)\n"
                    ),
                    DiffOutcome::Divergence {
                        index,
                        key_a,
                        key_b,
                    } => {
                        format!("divergence at event {index}:\n  a: {key_a}\n  b: {key_b}\n")
                    }
                };
                emit(&text);
            }
            if outcome.is_identical() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Some("report"), [trace_path]) => {
            let trace = match load_trace(std::path::Path::new(trace_path)) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            let html = render_html(&trace, trace_path);
            let default_out = PathBuf::from(trace_path).with_extension("html");
            let out = flags.out.clone().unwrap_or(default_out);
            deliver(&html, Some(&out), "report")
        }
        _ => usage(),
    }
}

/// One JSON object describing a [`DiffOutcome`].
fn diff_json(outcome: &DiffOutcome) -> Json {
    match outcome {
        DiffOutcome::Identical { events } => Json::obj([
            ("outcome", "identical".into()),
            ("events", (*events as u64).into()),
        ]),
        DiffOutcome::Truncated {
            common,
            len_a,
            len_b,
        } => Json::obj([
            ("outcome", "truncated".into()),
            ("common", (*common as u64).into()),
            ("len_a", (*len_a as u64).into()),
            ("len_b", (*len_b as u64).into()),
        ]),
        DiffOutcome::Divergence {
            index,
            key_a,
            key_b,
        } => Json::obj([
            ("outcome", "divergence".into()),
            ("index", (*index as u64).into()),
            ("key_a", key_a.as_str().into()),
            ("key_b", key_b.as_str().into()),
        ]),
    }
}

/// `l2 corpus <ingest|list|stats|regress> ...` — the cross-run record
/// store and its regression watchdog. Exit codes: 0 on success (for
/// `regress`: no regression), 1 when `regress` finds a regression, 2 on
/// usage or I/O errors.
fn cmd_corpus(args: &[String], flags: &Flags) -> ExitCode {
    fn usage() -> ExitCode {
        eprintln!(
            "usage:\n  l2 corpus ingest <dir> <file>...\n  \
             l2 corpus list <dir> [--json]\n  \
             l2 corpus stats <dir> [--json]\n  \
             l2 corpus regress <baseline> <fresh> [--json] [--wall-ratio <f>] \
             [--wall-floor-ms <n>] [--no-wall-check]\n\
             <baseline>/<fresh> are corpus directories or runs.jsonl files;\n\
             ingest accepts --stats-json line files and BENCH_*.json documents"
        );
        ExitCode::from(2)
    }
    fn fail(msg: impl std::fmt::Display) -> ExitCode {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    }
    /// Resolves a corpus directory (or a bare record file) to its records.
    fn load_store(raw: &str) -> Result<Vec<RunRecord>, String> {
        let path = std::path::Path::new(raw);
        let store = if path.is_dir() {
            path.join(lambda2_synth::obs::corpus::CORPUS_FILE)
        } else {
            path.to_path_buf()
        };
        if !store.exists() {
            return Err(format!("{}: no corpus store found", store.display()));
        }
        load_records(&store).map_err(|e| e.to_string())
    }
    /// Parses one ingest input: a whole-file JSON document (a bench
    /// report, or a single measurement) or JSON Lines of measurements.
    fn ingest_file(raw: &str) -> Result<Vec<RunRecord>, String> {
        use lambda2_synth::obs::corpus::ingest_fingerprint;
        use lambda2_synth::obs::json::parse;
        let text = std::fs::read_to_string(raw).map_err(|e| format!("reading {raw}: {e}"))?;
        // `--stats-json` lines carry no options, so every such record
        // shares one explicit ingest fingerprint: comparable with each
        // other, never with first-class fingerprinted runs.
        let stats_fp = ingest_fingerprint("stats-json\n");
        if let Ok(doc) = parse(text.trim()) {
            if doc.get("results").is_some() {
                return ingest_bench(&doc).map_err(|e| format!("{raw}: {e}"));
            }
            return ingest_measurement(&doc, &stats_fp)
                .map(|r| vec![r])
                .map_err(|e| format!("{raw}: {e}"));
        }
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = parse(line).map_err(|e| format!("{raw}:{}: {e}", i + 1))?;
            records.push(
                ingest_measurement(&doc, &stats_fp).map_err(|e| format!("{raw}:{}: {e}", i + 1))?,
            );
        }
        Ok(records)
    }

    match (args.first().map(String::as_str), &args[1..]) {
        (Some("ingest"), [dir, files @ ..]) if !files.is_empty() => {
            let corpus = match Corpus::open(std::path::Path::new(dir)) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            let mut total = 0usize;
            for file in files {
                let records = match ingest_file(file) {
                    Ok(r) => r,
                    Err(e) => return fail(e),
                };
                if let Err(e) = corpus.append(&records) {
                    return fail(e);
                }
                total += records.len();
            }
            eprintln!(
                "ingested {total} record(s) from {} file(s) -> {}",
                files.len(),
                corpus.store_path().display()
            );
            ExitCode::SUCCESS
        }
        (Some(cmd @ ("list" | "stats")), [dir]) => {
            let records = match load_store(dir) {
                Ok(r) => r,
                Err(e) => return fail(e),
            };
            let aggregates = aggregate(&records);
            let mut out = String::new();
            for a in &aggregates {
                if flags.json {
                    out.push_str(&format!("{}\n", a.to_json()));
                } else if cmd == "list" {
                    out.push_str(&format!(
                        "{:16} {:22} {:3} run(s)  {:3} solved\n",
                        a.problem, a.fingerprint, a.runs, a.solved
                    ));
                } else {
                    let cost = match (a.cost_lo, a.cost_hi) {
                        (Some(lo), Some(hi)) if lo == hi => format!("cost {lo}"),
                        (Some(lo), Some(hi)) => format!("cost {lo}..{hi} (forked!)"),
                        _ => "unsolved".to_owned(),
                    };
                    out.push_str(&format!(
                        "{:16} {:22} {:3}/{:<3} solved  {cost:24} wall p50 {:8.1} ms  \
                         p90 {:8.1} ms  max {:8.1} ms{}\n",
                        a.problem,
                        a.fingerprint,
                        a.solved,
                        a.runs,
                        a.wall_ms(0.5),
                        a.wall_ms(0.9),
                        a.wall_ms(1.0),
                        if a.counters_agree {
                            ""
                        } else {
                            "  [counters diverge across runs]"
                        }
                    ));
                }
            }
            if aggregates.is_empty() && !flags.json {
                out.push_str("(corpus is empty)\n");
            }
            emit(&out);
            ExitCode::SUCCESS
        }
        (Some("regress"), [baseline, fresh]) => {
            let (base, new) = match (load_store(baseline), load_store(fresh)) {
                (Ok(b), Ok(n)) => (b, n),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            };
            let defaults = RegressThresholds::default();
            let thresholds = RegressThresholds {
                wall_ratio: flags.wall_ratio.unwrap_or(defaults.wall_ratio),
                wall_floor_ms: flags.wall_floor_ms.unwrap_or(defaults.wall_floor_ms),
                check_wall: !flags.no_wall_check,
            };
            let findings = regress(&base, &new, &thresholds);
            let regressions = findings
                .iter()
                .filter(|f| f.kind == FindingKind::Regression)
                .count();
            if flags.json {
                let mut out = String::new();
                for f in &findings {
                    out.push_str(&format!("{}\n", f.to_json()));
                }
                emit(&out);
            } else {
                let mut out = String::new();
                for f in &findings {
                    out.push_str(&format!(
                        "{}: {} [{}]: {}\n",
                        f.problem,
                        f.kind.name(),
                        f.fingerprint,
                        f.detail
                    ));
                }
                let groups: std::collections::BTreeSet<_> = new
                    .iter()
                    .map(|r| (r.problem.as_str(), r.fingerprint.as_str()))
                    .collect();
                out.push_str(&format!(
                    "{} fresh group(s) compared: {regressions} regression(s), {} note(s)\n",
                    groups.len(),
                    findings.len() - regressions
                ));
                emit(&out);
            }
            if regressions == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

/// `l2 serve` — runs the synthesis daemon until a `shutdown` request or
/// (on Unix) SIGTERM/SIGINT, then drains and prints the final accounting
/// as one JSON line on stdout. `--timeout-ms` sets the *default*
/// per-request budget (requests may carry their own, capped by
/// `--max-timeout-ms`). Exit codes: 0 after a clean drain, 1 on a fatal
/// listener error, 2 on usage or bind errors.
fn cmd_serve(args: &[String], flags: &Flags) -> ExitCode {
    if args.first().map(String::as_str) == Some("report") {
        return cmd_serve_report(&args[1..], flags);
    }
    if let Some(extra) = args.first() {
        eprintln!("error: serve takes no positional arguments (got `{extra}`)");
        return ExitCode::from(2);
    }
    if flags.slow_trace_ms.is_some() != flags.slow_trace_dir.is_some() {
        eprintln!("error: --slow-trace-ms and --slow-trace-dir must be given together");
        return ExitCode::from(2);
    }
    if let Some(path) = &flags.access_log {
        if let Err(msg) = validate_out_path("--access-log", path) {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    }
    let mut config = ServeConfig {
        addr: flags
            .addr
            .clone()
            .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_owned()),
        options: flags.apply(SearchOptions::default()),
        corpus_dir: flags.corpus.clone(),
        access_log: flags.access_log.clone(),
        slow_trace_ms: flags.slow_trace_ms,
        slow_trace_dir: flags.slow_trace_dir.clone(),
        ..ServeConfig::default()
    };
    if let Some(jobs) = flags.jobs {
        config.workers = effective_jobs(jobs);
    }
    if let Some(slots) = flags.queue {
        config.queue_capacity = slots;
    }
    if let Some(ms) = flags.timeout_ms {
        config.default_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = flags.max_timeout_ms {
        config.max_timeout = Duration::from_millis(ms);
    }
    if let Some(bytes) = flags.warm_bytes {
        config.warm_cache_bytes = bytes;
    }
    if let Some(ms) = flags.drain_grace_ms {
        config.drain_grace = Duration::from_millis(ms);
    }
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: serve: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("serve: listening on {}", server.local_addr());
    watch_signals(server.control());
    match server.run() {
        Ok(summary) => {
            eprintln!(
                "serve: drained in {:.1} ms ({} accepted, {} solved, {} shed, {} crashed; \
                 service p50/p99 {:.1}/{:.1} ms, queue wait p50/p99 {:.1}/{:.1} ms)",
                summary.drain_elapsed.as_secs_f64() * 1e3,
                summary.accepted,
                summary.solved,
                summary.shed,
                summary.crashed,
                summary.latency_ms(true, 0.5),
                summary.latency_ms(true, 0.99),
                summary.latency_ms(false, 0.5),
                summary.latency_ms(false, 0.99),
            );
            emit_line(summary.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `l2 serve report <access.jsonl>` — offline analyzer for a daemon's
/// access log. Prints a human-readable summary (or the full analysis as
/// one JSON line with `--json`) and writes a self-contained HTML
/// dashboard next to the log (or to `--out`). Exit codes: 0 on success,
/// 2 on usage errors or an unreadable/invalid log.
fn cmd_serve_report(args: &[String], flags: &Flags) -> ExitCode {
    let [log_path] = args else {
        eprintln!("usage: l2 serve report <access.jsonl> [--json] [--out <html>]");
        return ExitCode::from(2);
    };
    let records = match load_access_log(std::path::Path::new(log_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = AccessReport::analyze(&records);
    if flags.json {
        emit_line(report.to_json());
    } else {
        emit(&report.render_text());
    }
    let html = render_access_html(&report, log_path);
    let default_out = PathBuf::from(log_path).with_extension("html");
    let out = flags.out.clone().unwrap_or(default_out);
    match std::fs::write(&out, html) {
        Ok(()) => {
            eprintln!("dashboard -> {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: writing {}: {e}", out.display());
            ExitCode::from(2)
        }
    }
}

/// Forwards SIGTERM/SIGINT to the daemon's drain flag. The handler body
/// is a single atomic store (async-signal-safe); a watcher thread does
/// the actual forwarding, and exits on its own if the daemon starts
/// draining for another reason (a `shutdown` request).
#[cfg(unix)]
fn watch_signals(control: std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        /// POSIX `signal(2)`, hand-declared to keep the tree
        /// dependency-free; `sighandler_t` is a plain function pointer,
        /// passed as `usize`.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    // SIGTERM = 15 and SIGINT = 2 on every Unix target Rust supports.
    unsafe {
        signal(15, on_signal as extern "C" fn(i32) as usize);
        signal(2, on_signal as extern "C" fn(i32) as usize);
    }
    std::thread::spawn(move || loop {
        if TERMINATE.load(Ordering::SeqCst) {
            control.store(true, Ordering::SeqCst);
            return;
        }
        if control.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

/// Off Unix the daemon is stopped via the `shutdown` protocol op.
#[cfg(not(unix))]
fn watch_signals(_control: std::sync::Arc<std::sync::atomic::AtomicBool>) {}

/// `l2 client` — sends requests to a running daemon, retrying sheds and
/// transport failures with seeded jittered backoff. Every response
/// document is printed as one JSON line on stdout, except `stats`, which
/// renders a human-readable counter table by default (pass `--json` for
/// the raw reply line); a short human summary goes to stderr. Exit
/// codes: 0 all requests `ok`, 1 any request failed (`error`/`unsolved`/
/// `shutting_down`, a `stats` reply without a server object, or
/// transport failure after retries), 2 usage or local I/O error, 3
/// otherwise-healthy runs where the daemon answered `overloaded` even
/// after the retry budget.
fn cmd_client(args: &[String], flags: &Flags) -> ExitCode {
    let addr = flags.addr.as_deref().unwrap_or(DEFAULT_SERVE_ADDR);
    let retries = flags.retries.unwrap_or(0);
    let mut backoff = Backoff::new(
        Duration::from_millis(flags.backoff_ms.unwrap_or(100)),
        Duration::from_secs(5),
        flags.seed.unwrap_or(0),
    );
    let mut requests: Vec<(String, Json)> = Vec::new();
    match args[0].as_str() {
        op @ ("ping" | "stats" | "shutdown") => {
            if args.len() > 1 {
                eprintln!("error: client {op} takes no further arguments");
                return ExitCode::from(2);
            }
            requests.push((
                op.to_owned(),
                Json::obj([("v", 1u64.into()), ("op", op.into())]),
            ));
        }
        "synth" => {
            if args.len() < 2 {
                eprintln!("error: client synth requires at least one problem file");
                return ExitCode::from(2);
            }
            for path in &args[1..] {
                let source = match std::fs::read_to_string(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: reading {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let mut pairs = vec![
                    ("v".to_owned(), 1u64.into()),
                    ("op".to_owned(), "synth".into()),
                    ("id".to_owned(), path.as_str().into()),
                    ("problem".to_owned(), source.into()),
                ];
                if let Some(ms) = flags.timeout_ms {
                    pairs.push(("timeout_ms".to_owned(), ms.into()));
                }
                requests.push((path.clone(), Json::Obj(pairs)));
            }
        }
        other => {
            eprintln!("error: unknown client op `{other}` (synth|ping|stats|shutdown)");
            return ExitCode::from(2);
        }
    }
    let mut failed = false;
    let mut overloaded = false;
    for (label, request) in &requests {
        let is_stats = request.get("op").and_then(Json::as_str) == Some("stats");
        match request_with_retry(addr, request, retries, &mut backoff) {
            Ok(resp) => {
                if !is_stats || flags.json {
                    emit_line(&resp);
                }
                match resp.get("status").and_then(Json::as_str) {
                    Some("ok") if is_stats => match resp.get("server") {
                        Some(server @ Json::Obj(_)) => {
                            if !flags.json {
                                emit(&render_server_stats(server));
                            }
                        }
                        _ => {
                            failed = true;
                            eprintln!("{label}: ok reply carries no `server` counters object");
                        }
                    },
                    Some("ok") => {
                        if let Some(program) = resp.get("program").and_then(Json::as_str) {
                            eprintln!("{label}: {program}");
                        }
                    }
                    Some("overloaded") => {
                        overloaded = true;
                        eprintln!(
                            "{label}: overloaded (retry_after_ms {})",
                            resp.get("retry_after_ms")
                                .and_then(Json::as_u64)
                                .unwrap_or(0)
                        );
                    }
                    status => {
                        failed = true;
                        eprintln!(
                            "{label}: {}: {}",
                            status.unwrap_or("reply carries no status"),
                            resp.get("error").and_then(Json::as_str).unwrap_or("-")
                        );
                    }
                }
            }
            Err(e) => {
                failed = true;
                eprintln!("error: {label}: {e}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else if overloaded {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders a daemon's `stats` counters object as an aligned
/// human-readable table: scalars one per row, histogram summaries
/// (`queue_wait_us`, `service_us`, `frame_bytes`) inlined as
/// `count/p50/p99/mean/max`, and count maps (per-op, per-client) as
/// indented sub-rows. Field order follows the reply, so new server
/// counters show up without a client change.
fn render_server_stats(server: &Json) -> String {
    fn scalar(v: &Json) -> String {
        match v {
            Json::Float(f) => format!("{f:.1}"),
            other => other.to_string(),
        }
    }
    let Json::Obj(pairs) = server else {
        return String::new();
    };
    let mut out = String::new();
    for (key, value) in pairs {
        match value {
            Json::Obj(sub) if sub.iter().any(|(k, _)| k == "count") => {
                let mut line = format!("{key:<26}");
                for field in ["count", "p50", "p99", "mean", "max"] {
                    if let Some(v) = value.get(field) {
                        line.push_str(&format!(" {field} {}", scalar(v)));
                    }
                }
                out.push_str(&line);
                out.push('\n');
            }
            Json::Obj(sub) => {
                out.push_str(key);
                out.push('\n');
                for (name, n) in sub {
                    out.push_str(&format!("  {name:<24} {}\n", scalar(n)));
                }
            }
            other => out.push_str(&format!("{key:<26} {}\n", scalar(other))),
        }
    }
    out
}

fn cmd_list() -> Result<(), String> {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for b in lambda2_bench_suite::catalog() {
        // Ignore broken pipes (e.g. `l2 list | head`).
        let _ = writeln!(
            out,
            "{:12} {:7} {:2} examples  {}{}",
            b.problem.name(),
            b.category.to_string(),
            b.problem.examples().len(),
            b.problem.description().unwrap_or(""),
            if b.hard { "  [hard]" } else { "" }
        );
    }
    Ok(())
}

/// Builds the default synthesizer for file-based commands.
fn synthesizer_for(flags: &Flags) -> Synthesizer {
    let options = flags.apply(SearchOptions {
        timeout: Some(Duration::from_secs(60)),
        ..SearchOptions::default()
    });
    Synthesizer::with_options(options)
}

/// [`synthesizer_for`] with `--jobs` applied as *within-problem*
/// parallelism ([`SearchOptions::jobs`]): a single-problem invocation has
/// no batch to fan out, so the workers verify candidates of the one
/// search instead. Results are byte-identical to `--jobs 1`.
fn synthesizer_single(flags: &Flags) -> Synthesizer {
    let mut options = flags.apply(SearchOptions {
        timeout: Some(Duration::from_secs(60)),
        ..SearchOptions::default()
    });
    options.jobs = flags.effective_jobs();
    Synthesizer::with_options(options)
}

/// Reads and parses a problem file.
fn load_problem(path: &str) -> Result<Problem, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_problem(&src)
}

/// Summarizes a batch: `Ok` when every problem solved, a counting error
/// otherwise (the per-problem diagnostics were already printed).
fn batch_verdict(failed: usize, total: usize) -> Result<(), String> {
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} of {total} problems failed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "(problem evens\n  (params (l [int]))\n  (returns [int])\n  \
                          (example ([]) [])\n  (example ([1 2 3 4]) [2 4])\n  \
                          (example ([5 6]) [6]))";

    #[test]
    fn parse_problem_accepts_the_documented_format() {
        let p = parse_problem(SAMPLE).unwrap();
        assert_eq!(p.name(), "evens");
        assert_eq!(p.params().len(), 1);
        assert_eq!(p.examples().len(), 3);
        assert_eq!(p.return_type().to_string(), "[int]");
    }

    #[test]
    fn parse_problem_rejects_malformed_files() {
        assert!(parse_problem("(nonsense)").is_err());
        assert!(parse_problem("(problem)").is_err());
        assert!(parse_problem("(problem p (params (l [int])) (wat))").is_err());
        assert!(parse_problem("(problem p (params (l [int])) (returns [int]))").is_err());
        assert!(parse_problem("atom").is_err());
    }

    #[test]
    fn parse_problem_checks_example_shapes() {
        let bad = "(problem p (params (l [int])) (returns [int]) (example [1] [1]))";
        assert!(parse_problem(bad).is_err());
    }

    #[test]
    fn flags_extract_from_any_position() {
        let mut args: Vec<String> = ["synth", "--trace", "out.jsonl", "p.l2", "--stats-json"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let flags = Flags::extract(&mut args).unwrap();
        assert_eq!(
            flags.trace.as_deref(),
            Some(std::path::Path::new("out.jsonl"))
        );
        assert!(flags.stats_json);
        assert_eq!(args, vec!["synth".to_owned(), "p.l2".to_owned()]);

        let mut missing: Vec<String> = vec!["synth".into(), "--trace".into()];
        assert!(Flags::extract(&mut missing).is_err());
        let mut unknown: Vec<String> = vec!["--wat".into()];
        assert!(Flags::extract(&mut unknown).is_err());
    }

    #[test]
    fn governance_flags_parse_and_apply() {
        let mut args: Vec<String> = [
            "synth",
            "--timeout-ms",
            "250",
            "--max-overshoot-ms",
            "50",
            "--retry-ladder",
            "p.l2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let flags = Flags::extract(&mut args).unwrap();
        assert_eq!(flags.timeout_ms, Some(250));
        assert_eq!(flags.max_overshoot_ms, Some(50));
        assert!(flags.retry_ladder);
        assert_eq!(args, vec!["synth".to_owned(), "p.l2".to_owned()]);

        let opts = flags.apply(SearchOptions::default());
        assert_eq!(opts.timeout, Some(Duration::from_millis(250)));
        assert_eq!(opts.max_overshoot, Duration::from_millis(50));
        assert!(opts.retry_ladder);
    }

    #[test]
    fn governance_flags_reject_bad_milliseconds() {
        let mut missing: Vec<String> = vec!["--timeout-ms".into()];
        assert!(Flags::extract(&mut missing).is_err());
        let mut junk: Vec<String> = vec!["--timeout-ms".into(), "soon".into()];
        let err = Flags::extract(&mut junk).unwrap_err();
        assert!(err.contains("soon"), "{err}");
        let mut negative: Vec<String> = vec!["--max-overshoot-ms".into(), "-5".into()];
        assert!(Flags::extract(&mut negative).is_err());
    }

    #[test]
    fn parallel_flags_parse() {
        let mut args: Vec<String> = ["bench", "--jobs", "4", "--retry-ladder", "evens"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let flags = Flags::extract(&mut args).unwrap();
        assert_eq!(flags.jobs, Some(4));
        assert!(flags.retry_ladder);
        assert_eq!(flags.effective_jobs(), 4);
        assert_eq!(args, vec!["bench".to_owned(), "evens".to_owned()]);

        // No flag = sequential; `--jobs 0` = one worker per CPU.
        assert_eq!(Flags::default().effective_jobs(), 1);
        let auto = Flags {
            jobs: Some(0),
            ..Flags::default()
        };
        assert!(auto.effective_jobs() >= 1);

        let mut missing: Vec<String> = vec!["--jobs".into()];
        assert!(Flags::extract(&mut missing).is_err());
        let mut junk: Vec<String> = vec!["--jobs".into(), "many".into()];
        assert!(Flags::extract(&mut junk).is_err());
    }

    #[test]
    fn lint_and_analysis_flags_parse_and_apply() {
        let mut args: Vec<String> = [
            "lint",
            "--json",
            "p.l2",
            "--no-static-analysis",
            "--no-static-prune",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let flags = Flags::extract(&mut args).unwrap();
        assert!(flags.json);
        assert!(flags.no_static_analysis);
        assert!(flags.no_static_prune);
        assert_eq!(args, vec!["lint".to_owned(), "p.l2".to_owned()]);

        let opts = flags.apply(SearchOptions::default());
        assert!(!opts.static_analysis);
        assert!(!opts.static_prune);
        let defaults = Flags::default().apply(SearchOptions::default());
        assert!(defaults.static_analysis);
        assert!(defaults.static_prune, "pruning ships on by default");
    }

    #[test]
    fn lint_reports_every_file_despite_an_unreadable_one() {
        let dir = std::env::temp_dir().join(format!("l2-lint-multi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.l2");
        std::fs::write(
            &good,
            "(problem ident\n  (params (l [int]))\n  (returns [int])\n  \
             (example ([]) [])\n  (example ([1 2]) [1 2])\n  (example ([3]) [3]))\n",
        )
        .unwrap();
        let missing = dir.join("does-not-exist.l2");
        let paths = vec![
            missing.to_string_lossy().into_owned(),
            good.to_string_lossy().into_owned(),
        ];
        // The unreadable first file must not stop the second from being
        // linted; the I/O failure is reported and the exit is 2.
        let code = cmd_lint(&paths, &Flags::default());
        assert_eq!(code, ExitCode::from(2));
        // All files readable and clean: success.
        let code = cmd_lint(&paths[1..], &Flags::default());
        assert_eq!(code, ExitCode::SUCCESS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_verdict_counts_failures() {
        assert!(batch_verdict(0, 3).is_ok());
        let err = batch_verdict(2, 3).unwrap_err();
        assert!(err.contains("2 of 3"), "{err}");
    }

    #[test]
    fn profile_flags_parse() {
        let mut args: Vec<String> = [
            "profile", "tree", "t.jsonl", "--weight", "time", "--out", "t.txt",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let flags = Flags::extract(&mut args).unwrap();
        assert_eq!(flags.weight.as_deref(), Some("time"));
        assert_eq!(flags.out.as_deref(), Some(std::path::Path::new("t.txt")));
        assert_eq!(args, vec!["profile", "tree", "t.jsonl"]);

        let mut bad: Vec<String> = vec!["--weight".into(), "bytes".into()];
        let err = Flags::extract(&mut bad).unwrap_err();
        assert!(err.contains("bytes"), "{err}");
        let mut missing: Vec<String> = vec!["--out".into()];
        assert!(Flags::extract(&mut missing).is_err());
    }

    #[test]
    fn trace_paths_with_missing_parents_are_rejected_up_front() {
        let flags = Flags {
            trace: Some(PathBuf::from("/nonexistent-dir-for-test/trace.jsonl")),
            ..Flags::default()
        };
        let err = validate_trace_path(&flags).unwrap_err();
        assert!(err.contains("/nonexistent-dir-for-test"), "{err}");
        assert!(err.contains("does not exist"), "{err}");

        // A bare filename (empty parent) and an existing directory pass.
        let bare = Flags {
            trace: Some(PathBuf::from("trace.jsonl")),
            ..Flags::default()
        };
        assert!(validate_trace_path(&bare).is_ok());
        let here = Flags {
            trace: Some(std::env::temp_dir().join("trace.jsonl")),
            ..Flags::default()
        };
        assert!(validate_trace_path(&here).is_ok());
        assert!(validate_trace_path(&Flags::default()).is_ok());
    }

    #[test]
    fn corpus_and_progress_flags_parse() {
        let mut args: Vec<String> = [
            "synth",
            "--corpus",
            "results/corpus",
            "--progress",
            "--stats-json=stats.jsonl",
            "p.l2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let flags = Flags::extract(&mut args).unwrap();
        assert_eq!(
            flags.corpus.as_deref(),
            Some(std::path::Path::new("results/corpus"))
        );
        assert!(flags.progress);
        assert_eq!(
            flags.stats_json_out.as_deref(),
            Some(std::path::Path::new("stats.jsonl"))
        );
        assert!(!flags.stats_json);
        assert_eq!(args, vec!["synth".to_owned(), "p.l2".to_owned()]);

        // `--progress` is an options knob (the engine emits the events).
        assert!(flags.apply(SearchOptions::default()).progress);
        assert!(!Flags::default().apply(SearchOptions::default()).progress);

        let mut missing: Vec<String> = vec!["--corpus".into()];
        assert!(Flags::extract(&mut missing).is_err());
        let mut empty: Vec<String> = vec!["--stats-json=".into()];
        assert!(Flags::extract(&mut empty).is_err());
    }

    #[test]
    fn regress_threshold_flags_parse_and_validate() {
        let mut args: Vec<String> = [
            "corpus",
            "regress",
            "a",
            "b",
            "--wall-ratio",
            "2.0",
            "--wall-floor-ms",
            "250",
            "--no-wall-check",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let flags = Flags::extract(&mut args).unwrap();
        assert_eq!(flags.wall_ratio, Some(2.0));
        assert_eq!(flags.wall_floor_ms, Some(250.0));
        assert!(flags.no_wall_check);
        assert_eq!(args, vec!["corpus", "regress", "a", "b"]);

        let mut sub_one: Vec<String> = vec!["--wall-ratio".into(), "0.5".into()];
        assert!(Flags::extract(&mut sub_one).is_err());
        let mut negative: Vec<String> = vec!["--wall-floor-ms".into(), "-1".into()];
        assert!(Flags::extract(&mut negative).is_err());
        let mut junk: Vec<String> = vec!["--wall-ratio".into(), "fast".into()];
        assert!(Flags::extract(&mut junk).is_err());
    }

    #[test]
    fn output_paths_are_validated_before_any_search() {
        // A `--stats-json=` target with a missing parent fails up front...
        let bad_stats = Flags {
            stats_json_out: Some(PathBuf::from("/nonexistent-dir-for-test/stats.jsonl")),
            ..Flags::default()
        };
        let err = prepare_sinks(&bad_stats).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");

        // ...a corpus path that collides with a file fails up front...
        let file = std::env::temp_dir().join(format!("l2-sink-test-{}", std::process::id()));
        std::fs::write(&file, "x").unwrap();
        let bad_corpus = Flags {
            corpus: Some(file.join("corpus")),
            ..Flags::default()
        };
        assert!(prepare_sinks(&bad_corpus).is_err());
        let _ = std::fs::remove_file(&file);

        // ...and no flags means no sinks.
        let sinks = prepare_sinks(&Flags::default()).unwrap();
        assert!(sinks.corpus.is_none());
        assert!(sinks.stats_json_out.is_none());
    }

    #[test]
    fn diff_json_covers_every_outcome() {
        let identical = diff_json(&DiffOutcome::Identical { events: 4 });
        assert_eq!(
            identical.get("outcome").and_then(Json::as_str),
            Some("identical")
        );
        assert_eq!(identical.get("events").and_then(Json::as_i64), Some(4));

        let truncated = diff_json(&DiffOutcome::Truncated {
            common: 2,
            len_a: 2,
            len_b: 5,
        });
        assert_eq!(
            truncated.get("outcome").and_then(Json::as_str),
            Some("truncated")
        );
        assert_eq!(truncated.get("len_b").and_then(Json::as_i64), Some(5));

        let diverged = diff_json(&DiffOutcome::Divergence {
            index: 1,
            key_a: "{\"ev\":\"pop\"}".into(),
            key_b: "{\"ev\":\"plan\"}".into(),
        });
        assert_eq!(
            diverged.get("outcome").and_then(Json::as_str),
            Some("divergence")
        );
        assert_eq!(diverged.get("index").and_then(Json::as_i64), Some(1));
        assert!(diverged
            .get("key_a")
            .and_then(Json::as_str)
            .unwrap()
            .contains("pop"));
    }
}
