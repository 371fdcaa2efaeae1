//! Resource governance: cooperative budgets, bounded-overshoot deadlines,
//! and structured search reports.
//!
//! The search's wall-clock budget used to be checked only at queue-pop
//! boundaries, so one expensive enumeration level or deduction sweep could
//! overshoot a deadline by seconds. A [`Budget`] is a single shared handle
//! threaded through every long-running phase — the search loop, the
//! enumeration stores, closing-stream materialization, deduction planning,
//! and verification fuel accounting. Phases call [`Budget::tick`] at fine
//! granularity; the budget polls the clock adaptively so that the gap
//! between two consecutive polls stays a fraction of the configured
//! overshoot bound, making cancellation fire *inside* phases with bounded
//! lag instead of only between pops.
//!
//! On exhaustion the engine degrades gracefully: [`SearchReport`] carries
//! the terminal error, an *anytime* best-cost frontier snapshot of the
//! open hypotheses, the full search counters, and a [`BudgetSnapshot`]
//! of what was consumed.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::obs::json::Json;
use crate::obs::metrics::{Histogram, EXP2_BOUNDS};
use crate::search::{SearchOptions, SynthError, Synthesis};
use crate::stats::Stats;

/// Default bound on how far past its deadline a search may run before it
/// notices and returns ([`SearchOptions::max_overshoot`]).
pub const DEFAULT_MAX_OVERSHOOT: Duration = Duration::from_millis(100);

/// Upper bound on the adaptive poll stride: even if ticks turn out to be
/// extremely cheap, the clock is consulted at least once per this many
/// ticks.
const MAX_STRIDE: u32 = 4096;

/// Minimum wall-clock spacing between two progress heartbeats
/// ([`Budget::take_heartbeat`]). Heartbeats ride the adaptive poll
/// cadence, so they can be *later* than this (a poll must happen first)
/// but never more frequent.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// Which resource limit a [`Budget`] ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was triggered from another thread.
    Cancelled,
    /// The popped-queue-item cap was reached.
    PopLimit,
    /// The cumulative evaluation-fuel cap was reached.
    FuelLimit,
}

impl BudgetExceeded {
    /// The stable name used in snapshots and traces.
    pub fn name(self) -> &'static str {
        match self {
            BudgetExceeded::Deadline => "deadline",
            BudgetExceeded::Cancelled => "cancelled",
            BudgetExceeded::PopLimit => "pop-limit",
            BudgetExceeded::FuelLimit => "fuel-limit",
        }
    }

    /// Maps the exceeded limit onto the engine's error vocabulary.
    pub fn to_synth_error(self) -> SynthError {
        match self {
            BudgetExceeded::Deadline => SynthError::Timeout,
            BudgetExceeded::Cancelled => SynthError::Cancelled,
            BudgetExceeded::PopLimit => SynthError::LimitReached,
            BudgetExceeded::FuelLimit => SynthError::FuelExhausted,
        }
    }
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A cloneable, thread-safe handle that cancels the [`Budget`] it was
/// taken from. The search observes the cancellation at its next clock
/// poll, so the same overshoot bound applies.
#[derive(Clone, Debug)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A free-standing token, not yet tied to any budget. Attach it to one
    /// or more budgets with [`Budget::with_cancel`] — a daemon creates one
    /// per served request up front and every rung of that request's retry
    /// ladder adopts it, so a drain can cancel the request from outside
    /// the worker thread.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

/// A shared resource budget for one synthesis attempt.
///
/// The handle is not `Sync` — the search is single-threaded — but it hands
/// out [`CancelToken`]s that are. All accounting goes through interior
/// mutability so the budget can be threaded as `&Budget` through deeply
/// nested phases without fighting the borrow checker.
///
/// Once any limit trips, the verdict is *latched*: every subsequent
/// [`Budget::tick`] fails immediately with the same [`BudgetExceeded`],
/// which keeps abort points deterministic under fault injection.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    deadline: Option<Instant>,
    max_overshoot: Duration,
    cancel: Arc<AtomicBool>,
    max_pops: u64,
    max_fuel: u64,
    pops: Cell<u64>,
    fuel_spent: Cell<u64>,
    peak_store_bytes: Cell<usize>,
    ticks: Cell<u64>,
    until_poll: Cell<u32>,
    stride: Cell<u32>,
    last_poll: Cell<Instant>,
    exceeded: Cell<Option<BudgetExceeded>>,
    last_heartbeat: Cell<Instant>,
    heartbeat_ready: Cell<bool>,
    /// Distribution of wall-clock gaps between consecutive clock polls
    /// (microseconds) — the empirical overshoot bound the adaptive stride
    /// actually achieved. `RefCell` because recording needs `&mut` through
    /// the `&self` the search threads everywhere; polls never re-enter.
    poll_gap_us: RefCell<Histogram>,
}

impl Budget {
    /// A budget with a wall-clock limit (and nothing else).
    pub fn new(timeout: Option<Duration>, max_overshoot: Duration) -> Budget {
        let start = Instant::now();
        Budget {
            start,
            deadline: timeout.map(|t| start + t),
            max_overshoot,
            cancel: Arc::new(AtomicBool::new(false)),
            max_pops: u64::MAX,
            max_fuel: u64::MAX,
            pops: Cell::new(0),
            fuel_spent: Cell::new(0),
            peak_store_bytes: Cell::new(0),
            ticks: Cell::new(0),
            until_poll: Cell::new(0), // first tick polls immediately
            stride: Cell::new(1),
            last_poll: Cell::new(start),
            exceeded: Cell::new(None),
            last_heartbeat: Cell::new(start),
            heartbeat_ready: Cell::new(false),
            poll_gap_us: RefCell::new(Histogram::new(EXP2_BOUNDS)),
        }
    }

    /// A budget with no limits at all (used by compatibility wrappers and
    /// tests; its ticks still cost a few branches).
    pub fn unlimited() -> Budget {
        Budget::new(None, DEFAULT_MAX_OVERSHOOT)
    }

    /// The budget implied by a full set of [`SearchOptions`]: deadline,
    /// overshoot bound, pop cap, and cumulative fuel cap.
    pub fn for_search(options: &SearchOptions) -> Budget {
        let mut b = Budget::new(options.timeout, options.max_overshoot);
        b.max_pops = options.max_popped;
        b.max_fuel = options.max_total_fuel;
        b
    }

    /// A thread-safe handle that cancels this budget.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.cancel),
        }
    }

    /// Adopts an externally created [`CancelToken`] (chainable):
    /// cancelling `token` cancels this budget. Replaces the budget's own
    /// token; several budgets may adopt the same one.
    pub fn with_cancel(mut self, token: &CancelToken) -> Budget {
        self.cancel = Arc::clone(&token.flag);
        self
    }

    /// Time elapsed since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// A snapshot of the poll-gap distribution (microseconds between
    /// consecutive clock polls). The search folds this into
    /// `Stats::metrics` when metrics are enabled.
    pub fn poll_gap_us(&self) -> Histogram {
        self.poll_gap_us.borrow().clone()
    }

    /// The configured overshoot bound.
    pub fn max_overshoot(&self) -> Duration {
        self.max_overshoot
    }

    /// Fine-grained checkpoint: call from inner loops of long phases.
    ///
    /// Almost always this is a couple of `Cell` reads; every `stride`
    /// calls it polls the clock and the cancel flag, adapting the stride
    /// so that the wall-clock gap between polls stays under a quarter of
    /// the overshoot bound.
    ///
    /// # Errors
    ///
    /// Returns the (latched) [`BudgetExceeded`] verdict once any limit has
    /// tripped.
    #[inline]
    pub fn tick(&self) -> Result<(), BudgetExceeded> {
        self.ticks.set(self.ticks.get() + 1);
        if let Some(e) = self.exceeded.get() {
            return Err(e);
        }
        let left = self.until_poll.get();
        if left > 0 {
            self.until_poll.set(left - 1);
            return Ok(());
        }
        self.poll()
    }

    /// Forced checkpoint: polls the clock and cancel flag immediately
    /// (used at coarse boundaries such as enumeration levels).
    ///
    /// # Errors
    ///
    /// Same as [`Budget::tick`].
    pub fn check_now(&self) -> Result<(), BudgetExceeded> {
        if let Some(e) = self.exceeded.get() {
            return Err(e);
        }
        self.poll()
    }

    #[cold]
    fn poll(&self) -> Result<(), BudgetExceeded> {
        let now = Instant::now();
        // Adapt the stride: aim for a poll gap under a quarter of the
        // overshoot bound, backing off geometrically while ticks are
        // cheap and collapsing fast when a phase's per-tick work grows.
        let gap = now.saturating_duration_since(self.last_poll.get());
        self.poll_gap_us
            .borrow_mut()
            .record(gap.as_micros().min(u64::MAX as u128) as u64);
        let target = self.max_overshoot / 4;
        let stride = self.stride.get();
        let new_stride = if gap.saturating_mul(4) < target {
            (stride.saturating_mul(2)).min(MAX_STRIDE)
        } else if gap > target {
            (stride / 4).max(1)
        } else {
            stride
        };
        self.stride.set(new_stride);
        self.until_poll.set(new_stride);
        self.last_poll.set(now);
        if now.saturating_duration_since(self.last_heartbeat.get()) >= HEARTBEAT_INTERVAL {
            self.heartbeat_ready.set(true);
        }
        if self.cancel.load(Ordering::Relaxed) {
            return Err(self.trip(BudgetExceeded::Cancelled));
        }
        if let Some(d) = self.deadline {
            if now >= d {
                return Err(self.trip(BudgetExceeded::Deadline));
            }
        }
        Ok(())
    }

    fn trip(&self, e: BudgetExceeded) -> BudgetExceeded {
        self.exceeded.set(Some(e));
        e
    }

    /// Accounts one queue pop and runs a checkpoint.
    ///
    /// # Errors
    ///
    /// Fails with [`BudgetExceeded::PopLimit`] when the pop cap is
    /// reached, or whatever [`Budget::tick`] reports.
    pub fn note_pop(&self) -> Result<(), BudgetExceeded> {
        let pops = self.pops.get() + 1;
        self.pops.set(pops);
        if pops >= self.max_pops {
            return Err(self.trip(BudgetExceeded::PopLimit));
        }
        self.tick()
    }

    /// Accounts evaluation fuel actually consumed by verification.
    ///
    /// # Errors
    ///
    /// Fails with [`BudgetExceeded::FuelLimit`] when cumulative fuel
    /// crosses the cap.
    pub fn charge_fuel(&self, used: u64) -> Result<(), BudgetExceeded> {
        let spent = self.fuel_spent.get().saturating_add(used);
        self.fuel_spent.set(spent);
        if spent >= self.max_fuel {
            return Err(self.trip(BudgetExceeded::FuelLimit));
        }
        Ok(())
    }

    /// Records the current total store footprint (keeps the high-water
    /// mark for the snapshot).
    pub fn note_store_bytes(&self, bytes: usize) {
        if bytes > self.peak_store_bytes.get() {
            self.peak_store_bytes.set(bytes);
        }
    }

    /// Latches a deadline verdict immediately, as if the clock had
    /// expired. Used by the fail-point harness to make mid-phase expiry
    /// deterministic, and available to embedders as a synchronous abort.
    pub fn force_expire(&self) {
        self.trip(BudgetExceeded::Deadline);
    }

    /// `true` once any limit has tripped.
    pub fn is_exceeded(&self) -> bool {
        self.exceeded.get().is_some()
    }

    /// Consumes a pending progress heartbeat, if one is due.
    ///
    /// Heartbeats piggyback on the adaptive clock polls: a poll that
    /// observes at least [`HEARTBEAT_INTERVAL`] since the previous
    /// heartbeat arms the flag, and this call disarms it. One `Cell` read
    /// when nothing is due, so the search loop can ask on every pop.
    /// Purely observational — never affects any limit verdict.
    pub fn take_heartbeat(&self) -> bool {
        if !self.heartbeat_ready.get() {
            return false;
        }
        self.heartbeat_ready.set(false);
        self.last_heartbeat.set(self.last_poll.get());
        true
    }

    /// A point-in-time summary of the budget's accounting.
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            pops: self.pops.get(),
            fuel_spent: self.fuel_spent.get(),
            peak_store_bytes: self.peak_store_bytes.get(),
            ticks: self.ticks.get(),
            elapsed: self.start.elapsed(),
            exceeded: self.exceeded.get(),
        }
    }
}

/// What a [`Budget`] had consumed when it was snapshotted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetSnapshot {
    /// Queue pops accounted.
    pub pops: u64,
    /// Evaluation fuel consumed by verification.
    pub fuel_spent: u64,
    /// High-water mark of the enumeration stores' byte footprint.
    pub peak_store_bytes: usize,
    /// Checkpoints executed (a measure of governance coverage).
    pub ticks: u64,
    /// Wall-clock time since the budget was created.
    pub elapsed: Duration,
    /// The limit that tripped, if any.
    pub exceeded: Option<BudgetExceeded>,
}

impl BudgetSnapshot {
    /// Serializes the snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("pops", self.pops.into()),
            ("fuel_spent", self.fuel_spent.into()),
            ("peak_store_bytes", self.peak_store_bytes.into()),
            ("ticks", self.ticks.into()),
            ("elapsed_ms", Json::Float(self.elapsed.as_secs_f64() * 1e3)),
            (
                "exceeded",
                match self.exceeded {
                    Some(e) => e.name().into(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// One open hypothesis from the queue at the moment a search gave up —
/// the *anytime* result: the cheapest partial programs still under
/// consideration, best-first, so a caller can display or persist where
/// the search was headed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierItem {
    /// The hypothesis sketch, holes rendered as `?N`.
    pub sketch: String,
    /// Its admissible cost bound (queue priority).
    pub cost: u32,
    /// Open holes remaining.
    pub holes: usize,
}

impl FrontierItem {
    /// Serializes the item as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sketch", self.sketch.as_str().into()),
            ("cost", self.cost.into()),
            ("holes", self.holes.into()),
        ])
    }
}

/// Which rung of the retry ladder produced an [`Attempt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// The caller's options, unmodified.
    Full,
    /// Tightened term-cost caps (cheaper, less complete).
    Degraded,
    /// The pure enumerative baseline engine.
    Baseline,
}

impl Rung {
    /// The stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::Degraded => "degraded",
            Rung::Baseline => "baseline",
        }
    }
}

/// One synthesis attempt recorded by the retry ladder.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// Which configuration ran.
    pub rung: Rung,
    /// `None` on success; the terminal error otherwise.
    pub error: Option<SynthError>,
    /// Wall-clock time the attempt took.
    pub elapsed: Duration,
}

impl Attempt {
    /// Serializes the attempt as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rung", self.rung.name().into()),
            (
                "error",
                match &self.error {
                    Some(e) => e.to_string().into(),
                    None => Json::Null,
                },
            ),
            ("elapsed_ms", Json::Float(self.elapsed.as_secs_f64() * 1e3)),
        ])
    }
}

/// The full outcome of a governed synthesis: success or failure, plus
/// everything the engine knows about how it got there.
///
/// Unlike the bare `Result` of `search`, a report is returned on *every*
/// path — budget exhaustion, cancellation, injected faults — so batch
/// harnesses and services always get structured data, never a wedged
/// process.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// The terminal result.
    pub outcome: Result<Synthesis, SynthError>,
    /// Best-cost open hypotheses at termination (empty on success).
    pub frontier: Vec<FrontierItem>,
    /// Search counters, merged across retry-ladder attempts.
    pub stats: Stats,
    /// Total wall-clock time across attempts.
    pub elapsed: Duration,
    /// Resource accounting of the primary attempt's budget.
    pub budget: BudgetSnapshot,
    /// Every attempt the retry ladder made, in order.
    pub attempts: Vec<Attempt>,
}

impl SearchReport {
    /// `true` when a program was found (by any rung).
    pub fn is_success(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Flattens the report into the harness record format
    /// ([`crate::stats::Measurement`]) used by bench output and
    /// `l2 --stats-json`.
    pub fn to_measurement(&self, name: &str, examples: usize) -> crate::stats::Measurement {
        let (cost, size, program) = match &self.outcome {
            Ok(s) => (s.cost, s.program.body().size(), s.program.to_string()),
            Err(_) => (0, 0, String::new()),
        };
        crate::stats::Measurement {
            name: name.to_owned(),
            elapsed: self.elapsed,
            solved: self.is_success(),
            cost,
            size,
            program,
            examples,
            stats: self.stats.clone(),
            error: self.outcome.as_ref().err().map(ToString::to_string),
        }
    }

    /// Like [`SearchReport::to_measurement`] with the bench harness's
    /// charging convention: solved runs report their own synthesis time,
    /// timeouts are charged the full `budget`, other failures report zero
    /// elapsed. Counters are the report's on every outcome, so a failed
    /// run still shows where its work went.
    pub fn to_measurement_budgeted(
        &self,
        name: &str,
        examples: usize,
        budget: Duration,
    ) -> crate::stats::Measurement {
        let mut m = self.to_measurement(name, examples);
        m.elapsed = match &self.outcome {
            Ok(s) => s.elapsed,
            Err(SynthError::Timeout) => budget,
            Err(_) => Duration::ZERO,
        };
        m
    }

    /// Serializes the report (minus the program itself — see
    /// [`crate::stats::Measurement`] for the harness record) as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("solved", self.is_success().into()),
            (
                "error",
                match &self.outcome {
                    Ok(_) => Json::Null,
                    Err(e) => e.to_string().into(),
                },
            ),
            ("elapsed_ms", Json::Float(self.elapsed.as_secs_f64() * 1e3)),
            (
                "frontier",
                Json::Arr(self.frontier.iter().map(FrontierItem::to_json).collect()),
            ),
            ("budget", self.budget.to_json()),
            (
                "attempts",
                Json::Arr(self.attempts.iter().map(Attempt::to_json).collect()),
            ),
            ("stats", self.stats.to_json()),
        ])
    }
}

/// Renders a caught panic payload for traces and error records.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..100_000 {
            b.tick().unwrap();
        }
        b.note_pop().unwrap();
        b.charge_fuel(1_000_000).unwrap();
        assert!(!b.is_exceeded());
        let s = b.snapshot();
        assert_eq!(s.pops, 1);
        assert_eq!(s.fuel_spent, 1_000_000);
        assert_eq!(s.exceeded, None);
    }

    #[test]
    fn deadline_trips_and_latches() {
        let b = Budget::new(Some(Duration::ZERO), Duration::from_millis(1));
        // The first poll observes the expired deadline.
        let e = b.check_now().unwrap_err();
        assert_eq!(e, BudgetExceeded::Deadline);
        // ...and every subsequent tick fails identically (latched).
        assert_eq!(b.tick().unwrap_err(), BudgetExceeded::Deadline);
        assert_eq!(b.snapshot().exceeded, Some(BudgetExceeded::Deadline));
        assert_eq!(e.to_synth_error(), SynthError::Timeout);
    }

    #[test]
    fn cancel_token_is_observed_at_the_next_poll() {
        let b = Budget::unlimited();
        let token = b.cancel_token();
        b.check_now().unwrap();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.check_now().unwrap_err(), BudgetExceeded::Cancelled);
        assert_eq!(
            BudgetExceeded::Cancelled.to_synth_error(),
            SynthError::Cancelled
        );
    }

    #[test]
    fn pop_and_fuel_limits_trip() {
        let mut b = Budget::unlimited();
        b.max_pops = 3;
        b.max_fuel = 10;
        b.note_pop().unwrap();
        b.note_pop().unwrap();
        assert_eq!(b.note_pop().unwrap_err(), BudgetExceeded::PopLimit);

        let mut b = Budget::unlimited();
        b.max_fuel = 10;
        b.charge_fuel(9).unwrap();
        assert_eq!(b.charge_fuel(1).unwrap_err(), BudgetExceeded::FuelLimit);
        assert_eq!(
            BudgetExceeded::FuelLimit.to_synth_error(),
            SynthError::FuelExhausted
        );
    }

    #[test]
    fn force_expire_is_seen_by_the_very_next_tick() {
        let b = Budget::unlimited();
        // Warm the stride up so ordinary ticks skip the clock...
        for _ in 0..10_000 {
            b.tick().unwrap();
        }
        // ...yet a forced expiry is still caught immediately: the latched
        // verdict is checked on every tick, not only at poll boundaries.
        b.force_expire();
        assert_eq!(b.tick().unwrap_err(), BudgetExceeded::Deadline);
    }

    #[test]
    fn stride_adapts_but_stays_bounded() {
        let b = Budget::new(Some(Duration::from_secs(60)), Duration::from_millis(100));
        for _ in 0..1_000_000 {
            b.tick().unwrap();
        }
        assert!(b.stride.get() >= 1);
        assert!(b.stride.get() <= MAX_STRIDE);
        // Store-byte high-water mark.
        b.note_store_bytes(100);
        b.note_store_bytes(50);
        assert_eq!(b.snapshot().peak_store_bytes, 100);
    }

    #[test]
    fn heartbeats_ride_polls_and_are_rate_limited() {
        let b = Budget::unlimited();
        // Nothing due until a poll observes the interval elapsed.
        assert!(!b.take_heartbeat());
        b.check_now().unwrap();
        assert!(!b.take_heartbeat());
        std::thread::sleep(HEARTBEAT_INTERVAL);
        b.check_now().unwrap();
        assert!(b.take_heartbeat());
        // Consumed: disarmed until the interval elapses again.
        assert!(!b.take_heartbeat());
        b.check_now().unwrap();
        assert!(!b.take_heartbeat());
    }

    #[test]
    fn snapshot_json_shape() {
        let b = Budget::unlimited();
        b.note_pop().unwrap();
        let j = b.snapshot().to_json();
        assert_eq!(j.get("pops").and_then(|v| v.as_i64()), Some(1));
        assert!(j.get("elapsed_ms").is_some());
        assert_eq!(j.get("exceeded"), Some(&Json::Null));
        let b2 = Budget::new(Some(Duration::ZERO), Duration::ZERO);
        let _ = b2.check_now();
        let j2 = b2.snapshot().to_json();
        assert_eq!(
            j2.get("exceeded").and_then(|v| v.as_str()),
            Some("deadline")
        );
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let p = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(&*p), "boom");
        let p = std::panic::catch_unwind(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(panic_message(&*p), "boom 42");
    }

    #[test]
    fn failed_runs_keep_their_counters_when_budgeted() {
        let problem = crate::problem::Problem::builder("id")
            .param("l", "[int]")
            .returns("[int]")
            .example(&["[1 2]"], "[1 2]")
            .example(&["[]"], "[]")
            .build()
            .unwrap();
        let report = crate::synthesizer::Synthesizer::with_options(crate::search::SearchOptions {
            max_popped: 3,
            ..crate::search::SearchOptions::default()
        })
        .synthesize_report(&problem);
        assert_eq!(
            report.outcome.as_ref().err(),
            Some(&SynthError::LimitReached)
        );
        let m = report.to_measurement_budgeted("id", 2, Duration::from_secs(1));
        assert!(!m.solved);
        assert!(m.stats.popped > 0);
        assert_eq!(m.stats.popped, report.stats.popped);
        assert_eq!(m.elapsed, Duration::ZERO, "only timeouts are charged");
    }
}
