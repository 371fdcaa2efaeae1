//! The `serve_warm` workload: an in-process `l2 serve` daemon under
//! `ServeConfig::default()` (listening on a Unix-domain socket), driven by
//! one closed-loop client.
//!
//! The client keeps one connection open, sends one `synth` request
//! carrying `.l2` surface text, waits for the reply, and only then sends
//! the next. Requests follow a seeded Zipf(1) draw over [`PROBLEMS`], so a
//! few problems repeat often and the tail recurs now and then. Repeats make
//! the warm term-store cache and the per-request paths (framing, parse,
//! admission, queue wait) dominate; the working set is larger than the
//! default 32 MiB warm budget, so the cache also evicts.
//!
//! With one client the daemon sees the same request sequence, and so makes
//! the same cold solves and evictions, on every run with a given seed; with
//! two, the order in which their replies happened to finish would decide
//! what the shared cache keeps. The socket and the single connection keep timers out of the
//! latencies: the daemon polls for new connections every 10 ms, and it
//! writes each frame's length and payload separately, which on a reused
//! TCP connection waits out delayed acknowledgements (about 85 ms a request
//! on Linux); neither happens on a connected Unix socket.
//!
//! Every reply is checked like an in-process answer, and every reply for
//! the same problem must carry the same program text and cost: warm and
//! cold answers are identical.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lambda2_synth::obs::json::Json;
use lambda2_synth::serve::Client;
use lambda2_synth::{parse_problem, Library, Problem, ServeConfig, ServeSummary, Server};

use crate::check::{check_program, parse_program, reference_bound};
use crate::layers::LayerTotals;
use crate::RunResult;
use crate::{measure, median, median_s, ms, pick, quantile, ratio, Config, Measured, Rng};
use crate::{Size, Tally};

/// Default-library catalog problems that solve cold in well under the
/// daemon's 2 s default timeout, hottest Zipf rank first.
pub const PROBLEMS: &[&str] = &[
    "ident",
    "head",
    "tail",
    "incr",
    "double",
    "multfirst",
    "tails",
    "heads",
    "last",
    "shiftl",
    "incrt",
    "doublet",
    "square",
    "negate",
    "positives",
    "squaret",
];

/// `synth` requests per pass. Latency quantiles pool the requests of every
/// pass of a run.
pub const REQUESTS: usize = 200;

/// Requests per block of the plan (see [`plan`]).
pub const BLOCK: usize = 100;

/// In a traced run, the client samples the `stats` op after every this
/// many requests.
const STATS_EVERY: usize = 50;

/// One distinct problem of the request mix.
pub struct Entry {
    /// The problem as the catalog defines it, for checking answers.
    pub problem: Problem,
    /// Its `.l2` document.
    pub source: String,
    /// The `synth` request carrying `source`.
    pub request: Json,
    /// The reference-cost bound, when the reference is in-library.
    pub bound: Option<u32>,
}

/// Renders `problem` as a `.l2` document. The problem must use the default
/// library, which a document without a `library` stanza declares.
pub fn render(problem: &Problem) -> String {
    let params: Vec<String> = problem
        .params()
        .iter()
        .map(|(p, t)| format!("({p} {t})"))
        .collect();
    let mut doc = format!(
        "(problem {}\n  (params {})\n  (returns {})",
        problem.name(),
        params.join(" "),
        problem.return_type()
    );
    for ex in problem.examples() {
        let inputs: Vec<String> = ex.inputs.iter().map(ToString::to_string).collect();
        doc.push_str(&format!(
            "\n  (example ({}) {})",
            inputs.join(" "),
            ex.output
        ));
    }
    doc.push(')');
    doc
}

fn is_default_library(library: &Library) -> bool {
    let d = Library::default();
    library.ops() == d.ops()
        && library.combs() == d.combs()
        && library.constants() == d.constants()
        && library.costs() == d.costs()
}

/// The request mix: one [`Entry`] per problem, in Zipf rank order.
///
/// # Errors
///
/// A message when a problem is missing, uses a non-default library, or
/// its rendered document does not parse back.
pub fn entries(size: Size) -> Result<Vec<Entry>, String> {
    let names = match size {
        Size::Full => PROBLEMS,
        Size::Tiny => &PROBLEMS[..3],
    };
    pick(names)?
        .into_iter()
        .map(|b| {
            let name = b.problem.name();
            if !is_default_library(b.problem.library()) {
                return Err(format!("`{name}` does not use the default library"));
            }
            let source = render(&b.problem);
            parse_problem(&source).map_err(|e| format!("`{name}` renders badly: {e}"))?;
            let request = Json::obj([
                ("v", Json::from(1u64)),
                ("op", Json::str("synth")),
                ("problem", Json::str(source.clone())),
            ]);
            Ok(Entry {
                bound: reference_bound(&b.problem, &b.reference_program()),
                problem: b.problem,
                source,
                request,
            })
        })
        .collect()
}

/// `n` request indices into `0..k` in Zipf(1) proportions, in an order
/// drawn from `rng`. The plan is cut into blocks of [`BLOCK`] requests,
/// and each block gets the `r`-th ranked problem `BLOCK / (r · H_k)` times
/// (rounded by largest remainder) in its own shuffled order. Fixing the
/// proportions block by block and drawing only the order keeps the amount
/// of cold work close across plans while the cache sees a different
/// sequence in each.
pub fn plan(rng: &mut Rng, k: usize, n: usize) -> Vec<usize> {
    let total: f64 = (1..=k).map(|r| 1.0 / r as f64).sum();
    let mut plan = Vec::with_capacity(n);
    while plan.len() < n {
        let size = BLOCK.min(n - plan.len());
        let shares: Vec<f64> = (1..=k).map(|r| size as f64 / (r as f64 * total)).collect();
        let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..k).collect();
        by_remainder.sort_by(|&a, &b| {
            (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
        });
        let short = size - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(short) {
            counts[i] += 1;
        }
        let mut block: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
            .collect();
        rng.shuffle(&mut block);
        plan.extend(block);
    }
    plan
}

/// The daemon's Unix-domain socket: a file in the working directory, named
/// for this process and run, removed when the run ends.
struct Socket(String);

impl Socket {
    fn new() -> Socket {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        Socket(format!("perfbench-{}-{run}.sock", std::process::id()))
    }
}

impl Drop for Socket {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One request's outcome as the client saw it.
struct Sample {
    entry: usize,
    latency_ms: f64,
    reply: Result<Json, String>,
}

/// What one pass of requests measured.
struct Pass {
    plan: Vec<usize>,
    wall: Duration,
    samples: Vec<Sample>,
    /// `stats` op samples of a traced pass: one before it, then every
    /// [`STATS_EVERY`] requests, then one after it.
    stats: Vec<Json>,
}

/// What a run keeps of a pass once its replies are checked: holding every
/// reply of a run would grow the memory the run measures.
struct Kept {
    wall: Duration,
    latencies_ms: Vec<f64>,
    /// Per-layer metrics, for a traced pass.
    layers: Vec<(&'static str, f64)>,
    /// Time spent checking the replies.
    check: Duration,
    /// `stats` op samples taken.
    stats: usize,
}

/// The closed-loop client: one connection, reopened only after a
/// transport error.
struct Caller {
    addr: String,
    client: Option<Client>,
}

impl Caller {
    fn call(&mut self, request: &Json) -> Result<Json, String> {
        let client = match &mut self.client {
            Some(c) => c,
            None => self
                .client
                .insert(Client::connect(&self.addr).map_err(|e| e.to_string())?),
        };
        let reply = client.call(request).map_err(|e| e.to_string());
        if reply.is_err() {
            self.client = None;
        }
        reply
    }

    fn stats(&mut self) -> Result<Json, String> {
        let reply = self.call(&Json::obj([
            ("v", Json::from(1u64)),
            ("op", Json::str("stats")),
        ]))?;
        reply
            .get("server")
            .cloned()
            .ok_or_else(|| format!("stats reply without `server`: {reply}"))
    }
}

/// A daemon serving on its own thread for the whole run, and the client's
/// connection to it. Dropping it closes the connection, stops the daemon
/// and waits for its thread, so no path out of a run leaves it running.
struct Daemon {
    caller: Caller,
    control: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<ServeSummary>>>,
    /// Dropped last, once the daemon has stopped.
    _socket: Socket,
}

impl Daemon {
    fn start(server: Server, socket: Socket) -> Daemon {
        let caller = Caller {
            addr: server.local_addr().to_owned(),
            client: None,
        };
        let control = server.control();
        Daemon {
            caller,
            control,
            thread: Some(thread::spawn(move || server.run())),
            _socket: socket,
        }
    }

    /// Stops the daemon and reports how its thread ended.
    fn stop(mut self) -> Result<(), String> {
        self.caller.client = None;
        self.control.store(true, Ordering::SeqCst);
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Err(e))) => Err(format!("daemon failed: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".to_owned()),
            _ => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.caller.client = None;
        self.control.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Sends `plan` through the daemon's client, one request at a time.
fn pass(
    caller: &mut Caller,
    entries: &[Entry],
    plan: Vec<usize>,
    traced: bool,
) -> Result<Pass, String> {
    let mut samples = Vec::with_capacity(plan.len());
    let mut stats = Vec::new();
    if traced {
        stats.push(caller.stats());
    }
    let started = Instant::now();
    for (i, &entry) in plan.iter().enumerate() {
        let t = Instant::now();
        let reply = caller.call(&entries[entry].request);
        samples.push(Sample {
            entry,
            latency_ms: ms(t.elapsed()),
            reply,
        });
        if traced && (i + 1) % STATS_EVERY == 0 {
            stats.push(caller.stats());
        }
    }
    let wall = started.elapsed();
    if traced {
        stats.push(caller.stats());
    }
    Ok(Pass {
        plan,
        wall,
        samples,
        stats: stats.into_iter().collect::<Result<Vec<_>, _>>()?,
    })
}

/// The first answer to each problem in a run, by entry index: every later
/// answer must repeat it.
type Answers = HashMap<usize, (String, u64)>;

/// Counts failures and checks every `ok` answer; returns the time spent
/// checking.
fn check_pass(
    entries: &[Entry],
    pass: &Pass,
    answers: &mut Answers,
    tally: &mut Tally,
) -> Duration {
    let started = Instant::now();
    for s in &pass.samples {
        tally.attempted += 1;
        let e = &entries[s.entry];
        let name = e.problem.name();
        let reply = match &s.reply {
            Ok(r) => r,
            Err(err) => {
                tally.fail(format!("{name}: {err}"));
                continue;
            }
        };
        let status = reply.get("status").and_then(Json::as_str).unwrap_or("");
        if status != "ok" {
            tally.fail(format!("{name}: {status} reply: {reply}"));
            continue;
        }
        let (Some(text), Some(cost)) = (
            reply.get("program").and_then(Json::as_str),
            reply.get("cost").and_then(Json::as_u64),
        ) else {
            tally.check_failed(format!(
                "{name}: ok reply without program and cost: {reply}"
            ));
            continue;
        };
        let first = answers
            .entry(s.entry)
            .or_insert_with(|| (text.to_owned(), cost));
        if (first.0.as_str(), first.1) != (text, cost) {
            tally.check_failed(format!(
                "{name}: answered `{text}` (cost {cost}) after `{}` (cost {})",
                first.0, first.1
            ));
            continue;
        }
        let checked = u32::try_from(cost)
            .map_err(|_| format!("{name}: cost {cost} out of range"))
            .and_then(|cost| {
                let program = parse_program(&e.problem, text)?;
                check_program(&e.problem, &program, cost, e.bound)
            });
        if let Err(err) = checked {
            tally.check_failed(err);
        }
    }
    started.elapsed()
}

fn field(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The per-layer metrics of a traced pass.
fn layer_metrics(entries: &[Entry], pass: &Pass) -> Vec<(&'static str, f64)> {
    let mut layers = LayerTotals::default();
    let (mut queue, mut service, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for s in &pass.samples {
        let Ok(reply) = &s.reply else { continue };
        let Some(stats) = reply.get("stats") else {
            continue;
        };
        let (elapsed, waited) = (field(reply, "elapsed_ms"), field(reply, "queue_wait_ms"));
        layers.add(stats, elapsed);
        queue.push(waited);
        service.push(elapsed);
        overhead.push(s.latency_ms - elapsed - waited);
    }
    // The daemon's counters run for its whole life: take this pass's part.
    let last = pass.stats.last().cloned().unwrap_or(Json::Null);
    let first = pass.stats.first().cloned().unwrap_or(Json::Null);
    let during = |key| field(&last, key) - field(&first, key);
    let lookups = during("warm_cache_lookup_hits") + during("warm_cache_lookup_misses");
    let warm_bytes = pass
        .stats
        .iter()
        .map(|s| field(s, "warm_cache_bytes"))
        .fold(0.0, f64::max);

    // The daemon parses each request document; time the same call here.
    let mut parse_us = Vec::with_capacity(pass.plan.len());
    for &i in &pass.plan {
        let t = Instant::now();
        let parsed = parse_problem(std::hint::black_box(&entries[i].source));
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(parsed.is_ok());
    }

    let mut m = layers.metrics();
    m.extend([
        (
            "warm.lookup_hit_ratio",
            ratio(during("warm_cache_lookup_hits"), lookups),
        ),
        ("warm.evictions", during("warm_cache_evictions")),
        ("warm.bytes", warm_bytes),
        ("serve.queue_wait_p50_ms", quantile(&queue, 0.5)),
        ("serve.queue_wait_p99_ms", quantile(&queue, 0.99)),
        ("serve.service_p50_ms", quantile(&service, 0.5)),
        ("serve.service_p99_ms", quantile(&service, 0.99)),
        ("serve.overhead_p50_ms", quantile(&overhead, 0.5)),
        (
            "serve.frame_bytes_p50",
            last.get("frame_bytes").map_or(0.0, |h| field(h, "p50")),
        ),
        ("serve.shed", during("shed")),
        ("serve.crashed", during("crashed")),
        ("parse.us", median(&parse_us)),
    ]);
    m
}

/// The workload's inputs: the request documents, the stream of plans, and
/// the daemon — bound by set-up, started by the first pass.
struct Inputs {
    entries: Vec<Entry>,
    plans: Rng,
    bound: Option<(Server, Socket)>,
    daemon: Option<Daemon>,
}

/// Runs `serve_warm` (see [`measure`] for the passes). One daemon serves
/// the whole run, so after the first pass its warm cache is in the steady
/// state of a daemon that has been up a while. Every pass sends its own
/// plan, the next one drawn from the seed.
///
/// `wall_s` is the median pass; the latency quantiles pool every request
/// of the untraced passes. Which requests find their stores warm depends
/// on the order of the requests, so a run that followed one order would
/// move with the seed; a run spans ten or so plans. A traced pass also
/// samples the `stats` op, and the per-layer numbers come from the last
/// one.
///
/// # Errors
///
/// Set-up failures (see [`entries`]), a daemon that fails to bind or
/// ends with an error.
pub fn run(config: &Config) -> Result<RunResult, String> {
    let n = match config.size {
        Size::Full => REQUESTS,
        Size::Tiny => 24,
    };
    let setup = || -> Result<_, String> {
        let entries = entries(config.size)?;
        let socket = Socket::new();
        let server = Server::bind(ServeConfig {
            addr: format!("unix:{}", socket.0),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        Ok(Inputs {
            entries,
            plans: Rng::new(config.seed, 3),
            bound: Some((server, socket)),
            daemon: None,
        })
    };
    let mut tally = Tally::default();
    let mut answers = Answers::new();
    let Measured {
        inputs,
        setup_s,
        peak_rss_mb,
        plain,
        traced,
    } = measure(config, setup, |inputs, traced| {
        if let Some((server, socket)) = inputs.bound.take() {
            inputs.daemon = Some(Daemon::start(server, socket));
        }
        let daemon = inputs
            .daemon
            .as_mut()
            .expect("set-up binds a daemon and the first pass starts it");
        let plan = plan(&mut inputs.plans, inputs.entries.len(), n);
        let p = pass(&mut daemon.caller, &inputs.entries, plan, traced)?;
        Ok(Kept {
            check: check_pass(&inputs.entries, &p, &mut answers, &mut tally),
            layers: if traced {
                layer_metrics(&inputs.entries, &p)
            } else {
                Vec::new()
            },
            wall: p.wall,
            latencies_ms: p.samples.iter().map(|s| s.latency_ms).collect(),
            stats: p.stats.len(),
        })
    })?;
    inputs.daemon.map_or(Ok(()), Daemon::stop)?;

    let median_wall = |passes: &[Kept]| median_s(passes.iter().map(|p| p.wall));
    let metrics = if let Some(last) = traced.last() {
        let mut m = last.layers.clone();
        m.extend([
            ("check.ms", ms(last.check)),
            ("trace.events", last.stats as f64),
            (
                "trace.overhead_ratio",
                ratio(median_wall(&traced), median_wall(&plain)),
            ),
            ("fail_frac", tally.fail_frac()),
        ]);
        m
    } else {
        let latencies: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.latencies_ms.iter().copied())
            .collect();
        vec![
            ("setup_s", setup_s),
            ("wall_s", median_wall(&plain)),
            ("latency_p50_ms", quantile(&latencies, 0.5)),
            ("latency_p99_ms", quantile(&latencies, 0.99)),
            ("peak_rss_mb", peak_rss_mb),
        ]
    };
    Ok(RunResult { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda2_synth::obs::json;

    fn ok_reply(program: &str, cost: u32) -> Result<Json, String> {
        Ok(json::parse(&format!(
            r#"{{"status":"ok","program":"{program}","cost":{cost}}}"#
        ))
        .unwrap())
    }

    #[test]
    fn documents_round_trip_and_plans_are_seeded_and_skewed() {
        let entries = entries(Size::Full).unwrap();
        for e in &entries {
            let parsed = parse_problem(&e.source).unwrap();
            assert_eq!(
                parsed.examples(),
                e.problem.examples(),
                "{}",
                e.problem.name()
            );
        }
        let draw = |seed| plan(&mut Rng::new(seed, 3), entries.len(), REQUESTS);
        let p = draw(5);
        assert_eq!(p, draw(5));
        assert_ne!(p, draw(6));
        assert_eq!(p.len(), REQUESTS);
        // Every block holds the same Zipf-skewed multiset, in its own order.
        let sorted = |b: &[usize]| {
            let mut b = b.to_vec();
            b.sort_unstable();
            b
        };
        let blocks: Vec<&[usize]> = p.chunks(BLOCK).collect();
        assert!(blocks.iter().all(|b| sorted(b) == sorted(blocks[0])));
        assert_ne!(blocks[0], blocks[1]);
        let count = |i| blocks[0].iter().filter(|&&x| x == i).count();
        assert!(count(0) > 10 * count(entries.len() - 1) && count(entries.len() - 1) > 0);
    }

    #[test]
    fn wrong_or_inconsistent_replies_fail_the_check() {
        let entries = entries(Size::Tiny).unwrap();
        let (ident, head) = (0, 1);
        let sample = |entry, reply| Sample {
            entry,
            latency_ms: 1.0,
            reply,
        };
        let pass = Pass {
            plan: Vec::new(),
            wall: Duration::ZERO,
            stats: Vec::new(),
            samples: vec![
                sample(ident, ok_reply("(lambda (l) l)", 1)),
                sample(ident, ok_reply("(lambda (l) l)", 1)),
                // Satisfies the examples, but differs from the first answer.
                sample(ident, ok_reply("(lambda (l) (map (lambda (x) x) l))", 1)),
                // Wrong on the examples.
                sample(head, ok_reply("(lambda (l) 0)", 1)),
                sample(head, Ok(json::parse(r#"{"status":"overloaded"}"#).unwrap())),
                sample(head, Err("connection refused".into())),
            ],
        };
        let mut tally = Tally::default();
        check_pass(&entries, &pass, &mut Answers::new(), &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed, tally.check_failures),
            (6, 4, 2)
        );
    }
}
