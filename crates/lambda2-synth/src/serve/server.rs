//! The synthesis daemon: listener, admission queue, worker pool, drain.
//!
//! # Architecture
//!
//! ```text
//!  clients ──TCP/Unix──▶ connection threads ──try_send──▶ bounded queue
//!                          │  (parse, validate,             │
//!                          │   shed when full)              ▼
//!                          │                          worker threads
//!                          ◀────────reply channel──── (catch_unwind,
//!                                                      warm stores,
//!                                                      cancel tokens)
//! ```
//!
//! Three robustness invariants hold by construction:
//!
//! * **Every admitted request gets exactly one reply.** Workers answer on
//!   a per-job channel on every path — success, unsolved, crash, drain —
//!   and a dropped channel (worker death outside the panic guard) turns
//!   into a structured error at the connection.
//! * **Memory is bounded.** The admission queue is a
//!   [`std::sync::mpsc::sync_channel`] of fixed capacity; when it is full
//!   the connection thread replies `overloaded` with a retry hint instead
//!   of queueing. Frames are capped before allocation; warm stores are
//!   LRU-evicted under a byte budget.
//! * **A crashing request cannot take the daemon down.** The search runs
//!   under [`catch_unwind`]; a panic yields a structured `error` response
//!   and the worker loops on to the next job. (The shared warm-store
//!   cache may lose entries mid-panic — they are deterministic caches and
//!   rebuild on demand.)
//!
//! # Determinism
//!
//! Workers call [`Synthesizer::synthesize_report_warm`] — the same retry
//! ladder `l2 synth` uses — so a problem served here returns the same
//! program, cost, and attempt ladder as a local run with the same
//! [`SearchOptions`], warm cache on or off (only cache-effectiveness
//! counters differ). The pool shares one mutex-guarded [`WarmCache`], so
//! a store warmed by any worker serves every later request for the same
//! signature, and the byte budget bounds the pool's total footprint.
//!
//! # Drain
//!
//! Setting the control flag (a `shutdown` request, or the CLI's SIGTERM
//! handler flipping [`Server::control`]) starts a drain: the accept loop
//! stops, connection threads close at their next read-timeout poll,
//! queued-but-unstarted jobs are answered `shutting_down`, in-flight jobs
//! get [`ServeConfig::drain_grace`] to finish and are then cancelled via
//! their [`CancelToken`]s. Corpus writes flush per record, so there is
//! nothing left to lose at exit.
//!
//! # Observability
//!
//! Every request is assigned a stable server-side ID (`c<conn>-r<n>`,
//! echoed in the reply as `req_id`) and accounted exactly once:
//!
//! * **Access log** ([`ServeConfig::access_log`]) — one
//!   [`AccessRecord`] JSONL line per request, written by whichever side
//!   *decides* the request: the connection thread for non-synthesis ops
//!   and admission rejections (parse errors, invalid problems, sheds,
//!   drain refusals), the worker for every admitted job (it alone knows
//!   queue wait, service time, warm-cache hits, and crash outcome).
//! * **Live histograms** — queue wait, service time, and frame sizes,
//!   plus per-op and per-client request counts, kept in [`Shared`] and
//!   surfaced through the `stats` op and the final [`ServeSummary`].
//! * **Slow-trace capture** ([`ServeConfig::slow_trace_ms`] +
//!   [`ServeConfig::slow_trace_dir`]) — jobs at or over the threshold
//!   have their full JSONL search trace (buffered in memory during the
//!   run) written to `<dir>/<req_id>.jsonl`, readable by `l2 profile`.
//! * **Corpus records** — with [`ServeConfig::corpus_dir`] set, each
//!   finished job appends a [`RunRecord`] keyed by `req_id`, so
//!   `l2 corpus regress` gates served traffic like local runs.
//!
//! All of it is observation-only: the engine runs identically with every
//! layer on or off (tracing is emit-only by construction; the access log
//! and histograms read outcomes, never influence them), and the
//! differential test in `tests/serve.rs` holds served replies
//! byte-identical either way.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

use crate::enumerate::WarmCache;
use crate::govern::{CancelToken, SearchReport};
use crate::l2file;
use crate::obs::corpus::{options_fingerprint, Corpus, RunRecord};
use crate::obs::json::Json;
use crate::obs::metrics::{Histogram, EXP2_BOUNDS};
use crate::obs::{JsonlTracer, NoopTracer, Tracer};
use crate::problem::Problem;
use crate::search::SearchOptions;
use crate::stats::Measurement;
use crate::synthesizer::Synthesizer;

use super::access::{AccessLog, AccessRecord};
use super::frame::{write_frame, FrameError, FrameReader, MAX_FRAME_BYTES};
use super::proto::{self, ReqOp, Request};

/// Daemon tunables. The defaults suit tests and light local use; the CLI
/// exposes each as a flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address: `host:port` for TCP, or `unix:/path/to.sock` for a
    /// Unix-domain socket (Unix targets only). Port 0 binds ephemerally;
    /// read the real address back from [`Server::local_addr`].
    pub addr: String,
    /// Worker threads executing synthesis jobs.
    pub workers: usize,
    /// Admission-queue capacity. Requests beyond `workers + queue` are
    /// shed with `overloaded` — the daemon's memory stays bounded no
    /// matter the offered load.
    pub queue_capacity: usize,
    /// Per-frame payload cap (see [`MAX_FRAME_BYTES`]).
    pub max_frame_bytes: usize,
    /// Timeout applied to requests that carry none.
    pub default_timeout: Duration,
    /// Hard cap on any request's timeout; larger asks are clamped so one
    /// client cannot monopolize a worker.
    pub max_timeout: Duration,
    /// Byte budget for the warm term-store cache shared by the whole
    /// worker pool (one [`WarmCache`], one budget — not per worker); 0
    /// disables warm reuse.
    pub warm_cache_bytes: usize,
    /// How long in-flight jobs get to finish during drain before their
    /// budgets are cancelled.
    pub drain_grace: Duration,
    /// Socket read timeout; doubles as the shutdown-poll cadence for idle
    /// connections, so drains complete within roughly this bound after
    /// in-flight work ends.
    pub read_timeout: Duration,
    /// Base search options; per-request timeouts override
    /// [`SearchOptions::timeout`].
    pub options: SearchOptions,
    /// When set, every finished synthesis is appended to this run-corpus
    /// directory (same records `l2 bench --corpus` writes), keyed by the
    /// server-assigned request ID.
    pub corpus_dir: Option<PathBuf>,
    /// When set, every request appends one [`AccessRecord`] JSONL line
    /// to this file (created if absent, appended to otherwise).
    pub access_log: Option<PathBuf>,
    /// Service-time threshold (milliseconds) at or above which a job's
    /// full search trace is kept; requires [`ServeConfig::slow_trace_dir`].
    /// `Some(0)` captures every job.
    pub slow_trace_ms: Option<u64>,
    /// Directory receiving `<req_id>.jsonl` slow traces (created on
    /// startup); requires [`ServeConfig::slow_trace_ms`].
    pub slow_trace_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 16,
            max_frame_bytes: MAX_FRAME_BYTES,
            default_timeout: Duration::from_secs(2),
            max_timeout: Duration::from_secs(30),
            warm_cache_bytes: 32 << 20,
            drain_grace: Duration::from_secs(1),
            read_timeout: Duration::from_millis(50),
            options: SearchOptions::default(),
            corpus_dir: None,
            access_log: None,
            slow_trace_ms: None,
            slow_trace_dir: None,
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, t: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(t)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(t)),
        }
    }

    /// The client's identity for per-client accounting: the source IP
    /// (port stripped — one host, one bucket) for TCP, `unix` for
    /// Unix-domain sockets.
    fn peer(&self) -> String {
        match self {
            Conn::Tcp(s) => s
                .peer_addr()
                .map(|a| a.ip().to_string())
                .unwrap_or_else(|_| "unknown".to_owned()),
            #[cfg(unix)]
            Conn::Unix(_) => "unix".to_owned(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Live request-shape distributions, mutex-guarded in [`Shared`]: the
/// instruments behind the enriched `stats` op. Lock traffic is one short
/// critical section per request (plus one per completed job), far off
/// any search hot path.
struct ServeMetrics {
    /// Queue wait of every executed job, microseconds.
    queue_wait_us: Histogram,
    /// Service time of every executed job (crashed included),
    /// microseconds.
    service_us: Histogram,
    /// Request frame payload sizes, bytes.
    frame_bytes: Histogram,
    /// Requests per op (`synth`, `ping`, `stats`, `shutdown`, `invalid`).
    ops: BTreeMap<String, u64>,
    /// Requests per client peer (IP for TCP, `unix` for sockets).
    clients: BTreeMap<String, u64>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        ServeMetrics {
            queue_wait_us: Histogram::new(EXP2_BOUNDS),
            service_us: Histogram::new(EXP2_BOUNDS),
            frame_bytes: Histogram::new(EXP2_BOUNDS),
            ops: BTreeMap::new(),
            clients: BTreeMap::new(),
        }
    }
}

fn count_map_json(m: &BTreeMap<String, u64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), (*v).into())).collect())
}

/// Counters the daemon keeps while serving; snapshotted by the `stats`
/// op and folded into the final [`ServeSummary`].
struct Shared {
    /// Jobs sitting in the admission queue (approximate; for hints).
    depth: AtomicUsize,
    /// Jobs currently executing on a worker.
    in_flight: AtomicUsize,
    /// Connections ever accepted.
    connections: AtomicU64,
    /// Synthesis jobs admitted to the queue.
    accepted: AtomicU64,
    /// Jobs that ran to a report (solved or not).
    completed: AtomicU64,
    /// Completed jobs whose outcome was a program.
    solved: AtomicU64,
    /// Jobs shed at admission with `overloaded`.
    shed: AtomicU64,
    /// Jobs that panicked under the unwind guard.
    crashed: AtomicU64,
    /// Malformed requests (bad frame payloads, invalid problems).
    rejected: AtomicU64,
    /// Queued-but-unstarted jobs answered `shutting_down` during drain.
    drained: AtomicU64,
    /// Warm-cache hits summed across workers.
    warm_hits: AtomicU64,
    /// Exponentially-weighted mean service time, microseconds.
    ewma_us: AtomicU64,
    /// Job sequence numbers (cancel-registry keys).
    seq: AtomicU64,
    /// Slow traces captured to [`ServeConfig::slow_trace_dir`].
    slow_traces: AtomicU64,
    /// Cancel tokens of in-flight jobs, for drain.
    cancels: Mutex<HashMap<u64, CancelToken>>,
    /// Live request-shape histograms and per-op/per-client counts.
    metrics: Mutex<ServeMetrics>,
    started: Instant,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            depth: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            solved: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            ewma_us: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            slow_traces: AtomicU64::new(0),
            cancels: Mutex::new(HashMap::new()),
            metrics: Mutex::new(ServeMetrics::new()),
            started: Instant::now(),
        }
    }

    /// Milliseconds since the daemon started — the access log's clock.
    fn t_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Locks the live metrics, recovering from a poisoned lock (a panic
    /// while holding it leaves counters merely stale, never corrupt
    /// enough to justify wedging every later request).
    fn metrics(&self) -> std::sync::MutexGuard<'_, ServeMetrics> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Accounts one inbound request's shape (called once per request on
    /// the connection thread, before dispatch).
    fn record_request_shape(&self, op: &str, peer: &str, frame_bytes: u64) {
        let mut m = self.metrics();
        m.frame_bytes.record(frame_bytes);
        *m.ops.entry(op.to_owned()).or_default() += 1;
        *m.clients.entry(peer.to_owned()).or_default() += 1;
    }

    /// Accounts one executed job's latencies.
    fn record_timings(&self, queue_wait: Duration, service: Duration) {
        let mut m = self.metrics();
        m.queue_wait_us
            .record(queue_wait.as_micros().min(u128::from(u64::MAX)) as u64);
        m.service_us
            .record(service.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    fn register_cancel(&self, seq: u64, token: CancelToken) {
        if let Ok(mut map) = self.cancels.lock() {
            map.insert(seq, token);
        }
    }

    fn unregister_cancel(&self, seq: u64) {
        if let Ok(mut map) = self.cancels.lock() {
            map.remove(&seq);
        }
    }

    fn cancel_all(&self) {
        if let Ok(map) = self.cancels.lock() {
            for token in map.values() {
                token.cancel();
            }
        }
    }

    /// Folds a completed job's service time into the EWMA (α = 1/8).
    /// Racy read-modify-write is fine — this feeds a retry *hint*.
    fn record_service(&self, elapsed: Duration) {
        let sample = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let old = self.ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.ewma_us.store(new, Ordering::Relaxed);
    }

    /// How long a shed client should wait before retrying — see
    /// [`retry_hint_ms`] for the computation and its clamps.
    fn retry_after_ms(&self, workers: usize) -> u64 {
        retry_hint_ms(
            self.ewma_us.load(Ordering::Relaxed),
            self.depth.load(Ordering::Relaxed),
            workers,
        )
    }

    fn snapshot_json(&self, config: &ServeConfig, warm: &WarmCache) -> Json {
        let (warm_lookups_hit, warm_lookups_miss, warm_evictions) = warm.counters();
        let m = self.metrics();
        Json::obj([
            (
                "uptime_ms",
                Json::Float(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            ("workers", config.workers.into()),
            ("queue_capacity", config.queue_capacity.into()),
            ("queue_depth", self.depth.load(Ordering::Relaxed).into()),
            ("in_flight", self.in_flight.load(Ordering::Relaxed).into()),
            (
                "connections",
                self.connections.load(Ordering::Relaxed).into(),
            ),
            ("accepted", self.accepted.load(Ordering::Relaxed).into()),
            ("completed", self.completed.load(Ordering::Relaxed).into()),
            ("solved", self.solved.load(Ordering::Relaxed).into()),
            ("shed", self.shed.load(Ordering::Relaxed).into()),
            ("crashed", self.crashed.load(Ordering::Relaxed).into()),
            ("rejected", self.rejected.load(Ordering::Relaxed).into()),
            ("drained", self.drained.load(Ordering::Relaxed).into()),
            ("warm_hits", self.warm_hits.load(Ordering::Relaxed).into()),
            (
                "ewma_service_us",
                self.ewma_us.load(Ordering::Relaxed).into(),
            ),
            (
                "slow_traces",
                self.slow_traces.load(Ordering::Relaxed).into(),
            ),
            ("warm_cache_entries", warm.len().into()),
            ("warm_cache_bytes", warm.approx_bytes().into()),
            ("warm_cache_lookup_hits", warm_lookups_hit.into()),
            ("warm_cache_lookup_misses", warm_lookups_miss.into()),
            ("warm_cache_evictions", warm_evictions.into()),
            ("queue_wait_us", m.queue_wait_us.summary_json()),
            ("service_us", m.service_us.summary_json()),
            ("frame_bytes", m.frame_bytes.summary_json()),
            ("ops", count_map_json(&m.ops)),
            ("clients", count_map_json(&m.clients)),
        ])
    }
}

/// Final accounting returned by [`Server::run`] after a drain.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Connections ever accepted.
    pub connections: u64,
    /// Synthesis jobs admitted.
    pub accepted: u64,
    /// Jobs that ran to a report.
    pub completed: u64,
    /// Jobs solved with a program.
    pub solved: u64,
    /// Jobs shed with `overloaded`.
    pub shed: u64,
    /// Jobs that panicked (and were answered structurally).
    pub crashed: u64,
    /// Malformed requests.
    pub rejected: u64,
    /// Queued jobs answered `shutting_down` at drain.
    pub drained: u64,
    /// Slow traces captured.
    pub slow_traces: u64,
    /// Wall-clock from drain start to full stop.
    pub drain_elapsed: Duration,
    /// Queue-wait distribution over every executed job, microseconds.
    pub queue_wait_us: Histogram,
    /// Service-time distribution over every executed job, microseconds.
    pub service_us: Histogram,
}

impl ServeSummary {
    /// Serializes the summary as a JSON object, latency summaries
    /// included — a clean shutdown leaves a usable one-line capacity
    /// record, not just counts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("connections", self.connections.into()),
            ("accepted", self.accepted.into()),
            ("completed", self.completed.into()),
            ("solved", self.solved.into()),
            ("shed", self.shed.into()),
            ("crashed", self.crashed.into()),
            ("rejected", self.rejected.into()),
            ("drained", self.drained.into()),
            ("slow_traces", self.slow_traces.into()),
            (
                "drain_elapsed_ms",
                Json::Float(self.drain_elapsed.as_secs_f64() * 1e3),
            ),
            ("queue_wait_us", self.queue_wait_us.summary_json()),
            ("service_us", self.service_us.summary_json()),
        ])
    }

    /// A latency quantile in milliseconds (0 when no job was timed):
    /// `service` selects service time, otherwise queue wait. Backs the
    /// CLI's one-line drain record.
    pub fn latency_ms(&self, service: bool, q: f64) -> f64 {
        let h = if service {
            &self.service_us
        } else {
            &self.queue_wait_us
        };
        h.quantile(q).unwrap_or(0) as f64 / 1e3
    }
}

/// Floor for the shed-retry hint. Queue depth is read racily and can be
/// transiently 0 at shed time (workers just drained it) while the daemon
/// is still saturated; without a floor the hint would be 0 ms and invite
/// a client tight-retry loop.
const RETRY_HINT_FLOOR_MS: u64 = 10;

/// Ceiling for the shed-retry hint: a long queue of slow jobs should not
/// tell clients to go away for minutes — the backlog estimate is an
/// EWMA-based guess, not a promise.
const RETRY_HINT_CEILING_MS: u64 = 30_000;

/// Service time assumed before the first job completes (the EWMA is
/// still 0 at startup): 20 ms, a typical quick-catalog synthesis.
const RETRY_HINT_MIN_SERVICE_US: u64 = 20_000;

/// How long a shed client should wait before retrying: the EWMA service
/// time multiplied by the queue ahead of it (plus the client's own job),
/// spread across the workers, clamped to
/// [[`RETRY_HINT_FLOOR_MS`], [`RETRY_HINT_CEILING_MS`]]. Pure so the
/// admission-control arithmetic is unit-testable without a daemon.
fn retry_hint_ms(ewma_us: u64, depth: usize, workers: usize) -> u64 {
    let ewma_us = ewma_us.max(RETRY_HINT_MIN_SERVICE_US);
    let waiting = (depth as u64).saturating_add(1);
    let ms = ewma_us.saturating_mul(waiting) / (workers.max(1) as u64) / 1_000;
    ms.clamp(RETRY_HINT_FLOOR_MS, RETRY_HINT_CEILING_MS)
}

/// One admitted synthesis job crossing from a connection thread to a
/// worker: the parsed [`Problem`] (the `Arc` spine is `Send`, so it
/// crosses directly) and a reply channel the worker answers exactly once.
struct Job {
    seq: u64,
    /// Server-assigned request ID (`c<conn>-r<n>`): the access-log key,
    /// corpus key, and slow-trace filename.
    req_id: String,
    /// Client peer, carried for the worker-side access record.
    peer: String,
    /// Request frame payload size, carried for the access record.
    frame_bytes: u64,
    id: Option<String>,
    spec: Problem,
    timeout: Duration,
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    failpoint: Option<String>,
    enqueued: Instant,
    reply: mpsc::Sender<Json>,
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    config: ServeConfig,
    listener: ListenerKind,
    local_addr: String,
    control: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured address (TCP `host:port`, or `unix:/path` on
    /// Unix targets; a stale socket file at that path is removed first).
    ///
    /// # Errors
    ///
    /// Any bind/listen failure, or `unix:` on a non-Unix target.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let (listener, local_addr) = if let Some(path) = config.addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (ListenerKind::Unix(l), config.addr.clone())
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix: addresses need a Unix target",
                ));
            }
        } else {
            let l = TcpListener::bind(&config.addr)?;
            let addr = l.local_addr()?.to_string();
            (ListenerKind::Tcp(l), addr)
        };
        Ok(Server {
            config,
            listener,
            local_addr,
            control: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// The drain flag. Setting it to `true` (from a signal handler, a
    /// watchdog, or a test) starts a graceful shutdown; the `shutdown`
    /// protocol op sets the same flag.
    pub fn control(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.control)
    }

    /// Serves until the control flag is set, then drains and returns the
    /// final accounting.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only — per-connection and per-request
    /// failures are answered structurally and never stop the daemon.
    pub fn run(self) -> io::Result<ServeSummary> {
        let Server {
            config,
            listener,
            control,
            ..
        } = self;
        match &listener {
            ListenerKind::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            ListenerKind::Unix(l) => l.set_nonblocking(true)?,
        }
        let corpus = match &config.corpus_dir {
            Some(dir) => Some(Corpus::open(dir).map_err(|e| io::Error::other(e.to_string()))?),
            None => None,
        };
        let access = match &config.access_log {
            Some(path) => Some(AccessLog::open(path).map_err(|e| io::Error::other(e.to_string()))?),
            None => None,
        };
        if let Some(dir) = &config.slow_trace_dir {
            std::fs::create_dir_all(dir)?;
        }
        let shared = Shared::new();
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue_capacity);
        let job_rx = Mutex::new(job_rx);
        // One warm cache for the whole pool: any worker's finished search
        // seeds any other worker's next one, under a single byte budget.
        let warm = WarmCache::new(config.warm_cache_bytes);
        let mut listen_error: Option<io::Error> = None;
        let mut drain_started_at: Option<Instant> = None;

        thread::scope(|scope| {
            for _ in 0..config.workers.max(1) {
                scope.spawn(|| {
                    worker_loop(
                        &config,
                        &shared,
                        &control,
                        &job_rx,
                        &warm,
                        corpus.as_ref(),
                        access.as_ref(),
                    )
                });
            }
            while !control.load(Ordering::SeqCst) {
                let accepted = match &listener {
                    ListenerKind::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                    #[cfg(unix)]
                    ListenerKind::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
                };
                match accepted {
                    Ok(conn) => {
                        let conn_no = shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
                        let tx = job_tx.clone();
                        let (config, shared, control) = (&config, &shared, &control);
                        let (warm, access) = (&warm, access.as_ref());
                        scope.spawn(move || {
                            connection_loop(
                                conn, conn_no, config, shared, control, tx, warm, access,
                            )
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        listen_error = Some(e);
                        control.store(true, Ordering::SeqCst);
                    }
                }
            }
            // Drain: give in-flight jobs their grace, then cancel them.
            let drain_started = Instant::now();
            while shared.in_flight.load(Ordering::SeqCst) > 0
                && drain_started.elapsed() < config.drain_grace
            {
                thread::sleep(Duration::from_millis(5));
            }
            shared.cancel_all();
            drop(job_tx);
            // The scope's implicit join waits for workers (queue empty +
            // flag set) and connections (next read-timeout poll).
            drain_started_at = Some(drain_started);
        });

        if let Some(e) = listen_error {
            return Err(e);
        }
        let (queue_wait_us, service_us) = {
            let m = shared.metrics();
            (m.queue_wait_us.clone(), m.service_us.clone())
        };
        Ok(ServeSummary {
            connections: shared.connections.load(Ordering::Relaxed),
            accepted: shared.accepted.load(Ordering::Relaxed),
            completed: shared.completed.load(Ordering::Relaxed),
            solved: shared.solved.load(Ordering::Relaxed),
            shed: shared.shed.load(Ordering::Relaxed),
            crashed: shared.crashed.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            drained: shared.drained.load(Ordering::Relaxed),
            slow_traces: shared.slow_traces.load(Ordering::Relaxed),
            drain_elapsed: drain_started_at.map_or(Duration::ZERO, |t| t.elapsed()),
            queue_wait_us,
            service_us,
        })
    }
}

/// Per-request context a connection thread hands to the dispatchers:
/// the minted request ID, the client identity, and the access log.
struct RequestCtx<'a> {
    req_id: String,
    peer: &'a str,
    frame_bytes: u64,
    access: Option<&'a AccessLog>,
}

impl RequestCtx<'_> {
    /// A record skeleton for requests decided on the connection thread
    /// (non-synthesis ops and admission rejections): no queue wait, no
    /// service time — the request never reached a worker.
    fn record(&self, shared: &Shared, op: &str, status: &str) -> AccessRecord {
        AccessRecord {
            t_ms: shared.t_ms(),
            req_id: self.req_id.clone(),
            op: op.to_owned(),
            peer: self.peer.to_owned(),
            status: status.to_owned(),
            frame_bytes: self.frame_bytes,
            queue_wait_ms: None,
            service_ms: None,
            warm_hits: None,
            shed: false,
            crashed: false,
            problem: None,
            fingerprint: None,
        }
    }
}

/// Appends one access record, reporting (never propagating) failures:
/// telemetry must not take down a request.
fn append_access(access: Option<&AccessLog>, record: &AccessRecord) {
    if let Some(log) = access {
        if let Err(e) = log.append(record) {
            eprintln!("warning: access-log append failed: {e}");
        }
    }
}

/// Serves one connection: strictly sequential frames, one reply per
/// request. Framing errors close the connection; *protocol* errors
/// (bad JSON, invalid problems) are answered structurally and the
/// connection keeps going — the framing layer is still in sync.
///
/// Every request is stamped with a server-assigned ID (`c<conn>-r<n>`)
/// before dispatch; the reply carries it back as `req_id`.
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    mut conn: Conn,
    conn_no: u64,
    config: &ServeConfig,
    shared: &Shared,
    control: &AtomicBool,
    job_tx: mpsc::SyncSender<Job>,
    warm: &WarmCache,
    access: Option<&AccessLog>,
) {
    if conn.set_read_timeout(config.read_timeout).is_err() {
        return;
    }
    let peer = conn.peer();
    let mut reader = FrameReader::new(config.max_frame_bytes);
    let mut req_no = 0u64;
    loop {
        let payload = match reader.read_frame(&mut conn) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(FrameError::TimedOut) => {
                if control.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        req_no += 1;
        let ctx = RequestCtx {
            req_id: format!("c{conn_no}-r{req_no}"),
            peer: &peer,
            frame_bytes: payload.len() as u64,
            access,
        };
        let reply = handle_payload(&payload, config, shared, control, &job_tx, warm, &ctx);
        let reply = proto::tag_req_id(reply, &ctx.req_id);
        if write_frame(&mut conn, reply.to_string().as_bytes()).is_err() {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_payload(
    payload: &[u8],
    config: &ServeConfig,
    shared: &Shared,
    control: &AtomicBool,
    job_tx: &mpsc::SyncSender<Job>,
    warm: &WarmCache,
    ctx: &RequestCtx<'_>,
) -> Json {
    let req = match proto::parse_request(payload) {
        Ok(r) => r,
        Err(msg) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.record_request_shape("invalid", ctx.peer, ctx.frame_bytes);
            append_access(ctx.access, &ctx.record(shared, "invalid", "error"));
            return proto::resp_error(None, &msg);
        }
    };
    let op = match req.op {
        ReqOp::Ping => "ping",
        ReqOp::Stats => "stats",
        ReqOp::Shutdown => "shutdown",
        ReqOp::Synth => "synth",
    };
    shared.record_request_shape(op, ctx.peer, ctx.frame_bytes);
    let id = req.id.clone();
    match req.op {
        ReqOp::Ping => {
            append_access(ctx.access, &ctx.record(shared, op, "ok"));
            proto::resp_pong(id.as_deref())
        }
        ReqOp::Stats => {
            append_access(ctx.access, &ctx.record(shared, op, "ok"));
            proto::resp_stats(id.as_deref(), shared.snapshot_json(config, warm))
        }
        ReqOp::Shutdown => {
            control.store(true, Ordering::SeqCst);
            append_access(ctx.access, &ctx.record(shared, op, "ok"));
            proto::resp_draining(id.as_deref())
        }
        ReqOp::Synth => admit_synth(req, config, shared, control, job_tx, ctx),
    }
}

/// Validates a synth request on the connection thread (cheap, and bad
/// problems never consume a queue slot), then runs admission control.
///
/// Access-record discipline: this function writes the record for every
/// request it *decides* (drain refusal, invalid problem, shed,
/// disconnected queue); an admitted job's record is written by the
/// worker, which alone knows queue wait, service time, and outcome.
fn admit_synth(
    req: Request,
    config: &ServeConfig,
    shared: &Shared,
    control: &AtomicBool,
    job_tx: &mpsc::SyncSender<Job>,
    ctx: &RequestCtx<'_>,
) -> Json {
    let id = req.id.clone();
    if control.load(Ordering::SeqCst) {
        append_access(ctx.access, &ctx.record(shared, "synth", "shutting_down"));
        return proto::resp_shutting_down(id.as_deref());
    }
    let problem: Result<Problem, String> = match (&req.problem_source, &req.problem_json) {
        (Some(src), _) => l2file::parse_problem(src),
        (None, Some(jp)) => jp.build(),
        (None, None) => unreachable!("parse_request requires a problem for synth"),
    };
    let problem = match problem {
        Ok(p) => p,
        Err(msg) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            append_access(ctx.access, &ctx.record(shared, "synth", "error"));
            return proto::resp_error(id.as_deref(), &format!("invalid problem: {msg}"));
        }
    };
    let timeout = req
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(config.default_timeout)
        .min(config.max_timeout);
    let (reply_tx, reply_rx) = mpsc::channel();
    let problem_name = problem.name().to_owned();
    let job = Job {
        seq: shared.seq.fetch_add(1, Ordering::Relaxed),
        req_id: ctx.req_id.clone(),
        peer: ctx.peer.to_owned(),
        frame_bytes: ctx.frame_bytes,
        id: id.clone(),
        spec: problem,
        timeout,
        failpoint: req.failpoint,
        enqueued: Instant::now(),
        reply: reply_tx,
    };
    match job_tx.try_send(job) {
        Ok(()) => {
            shared.depth.fetch_add(1, Ordering::SeqCst);
            shared.accepted.fetch_add(1, Ordering::Relaxed);
            // The worker answers exactly once on every path; a dropped
            // channel means the worker died outside its panic guard.
            match reply_rx.recv() {
                Ok(json) => json,
                Err(_) => proto::resp_error(id.as_deref(), "worker disappeared mid-request"),
            }
        }
        Err(TrySendError::Full(_)) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            let mut record = ctx.record(shared, "synth", "overloaded");
            record.shed = true;
            record.problem = Some(problem_name);
            append_access(ctx.access, &record);
            proto::resp_overloaded(
                id.as_deref(),
                shared.retry_after_ms(config.workers),
                shared.depth.load(Ordering::Relaxed),
            )
        }
        Err(TrySendError::Disconnected(_)) => {
            append_access(ctx.access, &ctx.record(shared, "synth", "shutting_down"));
            proto::resp_shutting_down(id.as_deref())
        }
    }
}

fn worker_loop(
    config: &ServeConfig,
    shared: &Shared,
    control: &AtomicBool,
    job_rx: &Mutex<mpsc::Receiver<Job>>,
    warm: &WarmCache,
    corpus: Option<&Corpus>,
    access: Option<&AccessLog>,
) {
    loop {
        let next = {
            let rx = match job_rx.lock() {
                Ok(rx) => rx,
                Err(_) => return,
            };
            rx.recv_timeout(Duration::from_millis(25))
        };
        match next {
            Ok(job) => {
                shared.depth.fetch_sub(1, Ordering::SeqCst);
                if control.load(Ordering::SeqCst) {
                    shared.drained.fetch_add(1, Ordering::Relaxed);
                    append_access(
                        access,
                        &AccessRecord {
                            t_ms: shared.t_ms(),
                            req_id: job.req_id.clone(),
                            op: "synth".to_owned(),
                            peer: job.peer.clone(),
                            status: "shutting_down".to_owned(),
                            frame_bytes: job.frame_bytes,
                            queue_wait_ms: Some(job.enqueued.elapsed().as_secs_f64() * 1e3),
                            service_ms: None,
                            warm_hits: None,
                            shed: false,
                            crashed: false,
                            problem: Some(job.spec.name().to_owned()),
                            fingerprint: None,
                        },
                    );
                    let _ = job.reply.send(proto::resp_shutting_down(job.id.as_deref()));
                    continue;
                }
                execute(job, config, shared, warm, corpus, access);
            }
            Err(RecvTimeoutError::Timeout) => {
                if control.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// An in-memory byte sink for per-request trace capture: the
/// [`JsonlTracer`] writes into it during the search, and the buffer is
/// persisted to `<slow_trace_dir>/<req_id>.jsonl` afterwards only when
/// the job proved slow — capture cost without the decision having to be
/// made up front.
#[derive(Clone, Default)]
struct TraceBuf(Arc<Mutex<Vec<u8>>>);

impl TraceBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Write for TraceBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs one job under the unwind guard and answers its reply channel
/// exactly once. The receiver may have hung up (connection died); the
/// job is still executed and accounted, so send results are ignored.
fn execute(
    job: Job,
    config: &ServeConfig,
    shared: &Shared,
    warm: &WarmCache,
    corpus: Option<&Corpus>,
    access: Option<&AccessLog>,
) {
    let queue_wait = job.enqueued.elapsed();
    let queue_wait_ms = queue_wait.as_secs_f64() * 1e3;
    let problem = job.spec;
    let mut options = config.options.clone();
    options.timeout = Some(job.timeout);
    let token = CancelToken::new();
    shared.register_cancel(job.seq, token.clone());
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    #[cfg(feature = "failpoints")]
    if let Some(site) = &job.failpoint {
        if !arm_failpoint(site) {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            shared.unregister_cancel(job.seq);
            let _ = job.reply.send(proto::resp_error(
                job.id.as_deref(),
                &format!("unknown failpoint site `{site}`"),
            ));
            return;
        }
    }
    // Slow-trace capture: when configured, the search runs against a
    // JSONL tracer writing into an in-memory buffer; the buffer is kept
    // only if the job proves slow. Tracing is emit-only by construction
    // (the engine never reads events), so the dyn swap cannot perturb
    // the search — the differential test in `tests/serve.rs` enforces it.
    let slow_capture = config.slow_trace_ms.is_some() && config.slow_trace_dir.is_some();
    let trace_buf = TraceBuf::default();
    let mut slow_tracer = slow_capture.then(|| JsonlTracer::new(trace_buf.clone()));
    let mut noop = NoopTracer;
    let tracer: &mut dyn Tracer = match slow_tracer.as_mut() {
        Some(t) => t,
        None => &mut noop,
    };
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        // The one failpoint site that models an *unguarded* engine panic
        // — deeper sites (verify.candidate, deduce.plan) are absorbed by
        // the engine's own per-candidate isolation and never reach this
        // guard. Compiles to nothing without the `failpoints` feature.
        if let Some(crate::failpoints::FailAction::Panic) =
            crate::failpoints::check("serve.request")
        {
            panic!("injected panic at serve.request");
        }
        Synthesizer::with_options(options.clone()).synthesize_report_warm(
            &problem,
            tracer,
            Some(&token),
            Some(warm),
        )
    }));
    let elapsed = started.elapsed();
    #[cfg(feature = "failpoints")]
    crate::failpoints::reset();
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    shared.unregister_cancel(job.seq);
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.record_timings(queue_wait, elapsed);
    if let Some(tracer) = slow_tracer {
        let _ = tracer.finish();
        if let Some(dir) = &config.slow_trace_dir {
            if elapsed.as_millis() as u64 >= config.slow_trace_ms.unwrap_or(0) {
                let path = dir.join(format!("{}.jsonl", job.req_id));
                match std::fs::write(&path, trace_buf.take()) {
                    Ok(()) => {
                        shared.slow_traces.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => eprintln!(
                        "warning: slow-trace write to {} failed: {e}",
                        path.display()
                    ),
                }
            }
        }
    }
    let fingerprint = (access.is_some() || corpus.is_some()).then(|| options_fingerprint(&options));
    let mut record = AccessRecord {
        t_ms: shared.t_ms(),
        req_id: job.req_id.clone(),
        op: "synth".to_owned(),
        peer: job.peer.clone(),
        status: String::new(),
        frame_bytes: job.frame_bytes,
        queue_wait_ms: Some(queue_wait_ms),
        service_ms: Some(elapsed.as_secs_f64() * 1e3),
        warm_hits: None,
        shed: false,
        crashed: false,
        problem: Some(problem.name().to_owned()),
        fingerprint: fingerprint.clone(),
    };
    let reply = match result {
        Ok(report) => {
            shared
                .warm_hits
                .fetch_add(report.stats.warm_hits, Ordering::Relaxed);
            if report.outcome.is_ok() {
                shared.solved.fetch_add(1, Ordering::Relaxed);
            }
            shared.record_service(elapsed);
            record.status = if report.outcome.is_ok() {
                "ok".to_owned()
            } else {
                "unsolved".to_owned()
            };
            record.warm_hits = Some(report.stats.warm_hits);
            if let Some(corpus) = corpus {
                let m = measurement_of_report(&problem, &report);
                let run = RunRecord::of_served_request(
                    &m,
                    fingerprint.as_deref().unwrap_or_default(),
                    &job.req_id,
                );
                if let Err(e) = corpus.append(&[run]) {
                    eprintln!("warning: corpus append failed: {e}");
                }
            }
            proto::resp_report(job.id.as_deref(), &report, queue_wait_ms)
        }
        Err(payload) => {
            shared.crashed.fetch_add(1, Ordering::Relaxed);
            record.status = "error".to_owned();
            record.crashed = true;
            proto::resp_error(
                job.id.as_deref(),
                &format!("synthesis crashed: {}", panic_message(payload.as_ref())),
            )
        }
    };
    append_access(access, &record);
    let _ = job.reply.send(reply);
}

#[cfg(feature = "failpoints")]
fn arm_failpoint(site: &str) -> bool {
    use crate::failpoints::{arm, FailAction};
    // Sites must be `&'static str`; map through the known list.
    for known in [
        "serve.request",
        "search.pop",
        "verify.candidate",
        "deduce.plan",
        "enumerate.level",
        "store.evict",
    ] {
        if known == site {
            arm(known, FailAction::Panic, 1);
            return true;
        }
    }
    false
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

fn measurement_of_report(problem: &Problem, report: &SearchReport) -> Measurement {
    match &report.outcome {
        Ok(s) => Measurement {
            name: problem.name().to_owned(),
            elapsed: report.elapsed,
            solved: true,
            cost: s.cost,
            size: s.program.body().size(),
            program: s.program.to_string(),
            examples: problem.examples().len(),
            stats: report.stats.clone(),
            error: None,
        },
        Err(e) => Measurement {
            name: problem.name().to_owned(),
            elapsed: report.elapsed,
            solved: false,
            cost: 0,
            size: 0,
            program: String::new(),
            examples: problem.examples().len(),
            stats: report.stats.clone(),
            error: Some(e.to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_never_invites_a_tight_loop() {
        // Transiently empty queue (depth 0, tiny EWMA): the floor holds.
        assert_eq!(retry_hint_ms(1, 0, 4), RETRY_HINT_FLOOR_MS);
        assert_eq!(retry_hint_ms(0, 0, 1), RETRY_HINT_MIN_SERVICE_US / 1_000);
        for depth in 0..8 {
            for workers in 1..8 {
                assert!(retry_hint_ms(0, depth, workers) >= RETRY_HINT_FLOOR_MS);
            }
        }
    }

    #[test]
    fn retry_hint_uses_assumed_service_time_at_startup() {
        // Before any job completes the EWMA is 0; the hint falls back to
        // the assumed minimum service time rather than hinting 0.
        assert_eq!(
            retry_hint_ms(0, 3, 2),
            RETRY_HINT_MIN_SERVICE_US * 4 / 2 / 1_000
        );
    }

    #[test]
    fn retry_hint_scales_with_backlog_per_worker() {
        // 100ms EWMA, 9 queued ahead + this client, 2 workers -> 500ms.
        assert_eq!(retry_hint_ms(100_000, 9, 2), 500);
        // Same backlog, more workers -> proportionally sooner.
        assert_eq!(retry_hint_ms(100_000, 9, 5), 200);
        // Degenerate worker count is treated as one worker.
        assert_eq!(retry_hint_ms(100_000, 9, 0), 1_000);
    }

    #[test]
    fn retry_hint_saturates_at_the_ceiling() {
        assert_eq!(
            retry_hint_ms(u64::MAX, usize::MAX, 1),
            RETRY_HINT_CEILING_MS
        );
        assert_eq!(retry_hint_ms(60_000_000, 100, 1), RETRY_HINT_CEILING_MS);
    }
}
