//! Best-first enumerative search over hypotheses.
//!
//! The queue holds two kinds of work, both priced with the admissible cost
//! bound from [`crate::hypothesis`]:
//!
//! * **hypotheses** — when popped, a complete hypothesis is verified against
//!   the original examples (first success is the minimal-cost answer);
//!   an open hypothesis spawns (a) combinator expansions of its leftmost
//!   hole for every combinator × collection candidate, pruned and annotated
//!   by deduction, and (b) a *closing stream* for the same hole;
//! * **closing streams** — `(hypothesis, hole, tier)` items that lazily
//!   materialize the enumerator's terms of exactly cost `tier` which
//!   satisfy the hole's spec, then reschedule themselves at `tier + 1`.
//!   This keeps enumeration interleaved with expansion in strict cost
//!   order without ever building a level eagerly ahead of need.
//!
//! Work is shared aggressively across hypotheses: enumeration stores are
//! cached by [`StoreKey`] (same scope + same example environments ⇒ same
//! term universe), and combinator expansions are *planned once per hole
//! context* ([`crate::expand::Template`]) — thousands of sibling
//! hypotheses holding the same open hole reuse the same deduction results.
//!
//! The search runs under a cooperative resource [`Budget`]
//! ([`crate::govern`]): deadlines, cancellation, pop caps, and cumulative
//! eval fuel are all checked *inside* the long phases (enumeration levels,
//! planning sweeps, verification), not just at pop boundaries, so aborts
//! land within [`SearchOptions::max_overshoot`]. Verification and planning
//! are panic-isolated — a crashing candidate is counted, traced, and
//! skipped. [`search_governed`] returns a structured [`SearchReport`] on
//! every path; [`search`]/[`search_traced`] are thin `Result` wrappers.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda2_lang::ast::{Comb, Expr, HoleId};
use lambda2_lang::env::Env;
use lambda2_lang::ty::Type;

use crate::analyze::{AbsArgs, AbsCache, TermAbs};
use crate::cost::CostModel;
use crate::enumerate::{canonical, EnumLimits, StoreKey, TermStore, WarmCache};
use crate::expand::{
    plan_constructors, plan_expansion_within, Candidate, ConsTemplate, ExpandFail, Template,
};
use crate::failpoints::{self, FailAction};
use crate::govern::{
    panic_message, Budget, BudgetExceeded, FrontierItem, SearchReport, DEFAULT_MAX_OVERSHOOT,
};
use crate::hypothesis::{HoleInfo, Hypothesis};
use crate::library::Library;
use crate::obs::metrics::Histogram;
use crate::obs::{NoopTracer, PopKind, RefuteReason, StoreAction, TraceEvent, Tracer};
use crate::problem::Problem;
use crate::spec::{ExampleRow, Spec};
use crate::stats::Stats;
use crate::verify::Program;

/// Tunables for the search. The defaults reproduce the paper's
/// configuration; the ablation experiments toggle [`SearchOptions::deduction`].
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Enable deduction (refutation + example propagation). Disabling this
    /// is the paper's "λ² without deduction" ablation.
    pub deduction: bool,
    /// Enable the abstract-interpretation pre-pass ([`crate::analyze`])
    /// that refutes combinator expansions before deduction runs. The
    /// analyzer's checks are strictly weaker than deduction's, so toggling
    /// this never changes the synthesized program or its cost — only which
    /// counter ([`Stats::static_refutations`] vs [`Stats::refuted`])
    /// attributes each refutation. Ignored when `deduction` is off.
    ///
    /// [`Stats::static_refutations`]: crate::stats::Stats::static_refutations
    /// [`Stats::refuted`]: crate::stats::Stats::refuted
    pub static_analysis: bool,
    /// Additionally run the analyzer's *pruning-tier* domains
    /// (cardinality), which refute hypotheses deduction would keep and so
    /// remove real search work. Sound: pruned hypotheses provably have no
    /// completion, so the synthesized program and its cost are identical
    /// on/off while `enumerated_terms` only drops (held to by the
    /// differential suite in `tests/static_analysis.rs`). Pruned
    /// refutations are counted in [`Stats::pruned_refutations`] and
    /// re-proved by a brute-force oracle under `check-invariants`.
    /// Ignored when `static_analysis` or `deduction` is off.
    ///
    /// [`Stats::pruned_refutations`]: crate::stats::Stats::pruned_refutations
    pub static_prune: bool,
    /// Maximum cost of an enumerated closing term per hole.
    pub max_term_cost: u32,
    /// Maximum closing-term cost for *blind* holes (holes with an empty
    /// spec, where observational equivalence cannot prune). Keeping this
    /// lower than [`SearchOptions::max_term_cost`] prevents structural
    /// blow-up on fold initial-value holes and in the no-deduction
    /// ablation.
    pub max_term_cost_blind: u32,
    /// Maximum cost of a collection argument in a combinator expansion.
    /// The default (1) admits exactly the variables in scope, matching the
    /// paper's hypothesis grammar — fold chain-deduction only works on
    /// variable collections anyway. Raise to admit projections like
    /// `(cdr l)` at a significant search-space cost.
    pub max_collection_cost: u32,
    /// Maximum cost of a fold's concrete initial-value candidate when the
    /// hole's rows contain empty-collection examples (which pin the value
    /// and prune aggressively).
    pub max_init_cost: u32,
    /// Maximum init-candidate cost when *no* empty-collection row
    /// constrains the value — every typed term qualifies, so the budget
    /// must stay small.
    pub max_free_init_cost: u32,
    /// Global cost ceiling: hypotheses above this are abandoned.
    pub max_cost: u32,
    /// Wall-clock budget; `None` searches until exhaustion.
    pub timeout: Option<Duration>,
    /// Bound on how far past [`SearchOptions::timeout`] the search may run
    /// before it notices and returns. The governing [`Budget`] adapts its
    /// clock-poll stride to keep the gap between polls a fraction of this;
    /// smaller bounds poll more often. The default (100ms) keeps polling
    /// cost unmeasurable while bounding overshoot tightly.
    pub max_overshoot: Duration,
    /// Hard cap on popped queue items (guards unattended runs).
    pub max_popped: u64,
    /// Evaluation fuel for verification runs (per candidate).
    pub eval_fuel: u64,
    /// Cumulative cap on evaluation fuel consumed by verification across
    /// the whole search (`u64::MAX` = unlimited). Bounds total eval work
    /// independently of wall-clock on candidate sets that are cheap to
    /// generate but expensive to run.
    pub max_total_fuel: u64,
    /// After a resource-bounded failure (timeout, pop cap, fuel cap),
    /// retry with degraded options and finally the baseline enumerator.
    /// Read by `Synthesizer::synthesize_report` — the core search loop
    /// itself never retries.
    pub retry_ladder: bool,
    /// Limits for the enumeration stores.
    pub enum_limits: EnumLimits,
    /// Global cap on the approximate heap bytes held across all
    /// enumeration stores; exceeding it evicts least-recently-used stores
    /// (they are deterministic caches and rebuild on demand). Bounds
    /// memory on hard problems.
    pub max_store_bytes: usize,
    /// Expand holes with invertible-constructor hypotheses
    /// (`(cons ◻ ◻)`, `(pair ◻ ◻)`, `(tree ◻ ◻)`) whose component holes
    /// get exact deduced specs. Extends the paper's hypothesis grammar —
    /// enabling combinator-under-constructor programs like
    /// `(cons (foldl …) l)` — at a measurable search-space cost, so it is
    /// off by default (matching the paper) and opted into per problem.
    pub constructor_hypotheses: bool,
    /// Use deduction-emitted trace probes in the enumerator's dedup
    /// signatures (ablation knob; see `enumerate`). On by default — the
    /// nested benchmarks rely on them.
    pub trace_probes: bool,
    /// Expand holes with *empty* deduced specs using combinators. Off by
    /// default: a hole deduction could say nothing about gives nested
    /// combinators no guidance, and such hypotheses are overwhelmingly
    /// junk — every known suite solution carries deduced rows at every
    /// level. Enable to restore the unrestricted hypothesis grammar.
    /// (Ignored when deduction is disabled: the ablation must still form
    /// hypotheses.)
    pub expand_blind_holes: bool,
    /// Record distribution metrics ([`Stats::metrics`]) — queue depth, pop
    /// cost, per-episode phase latency, store occupancy. On by default:
    /// recording is a handful of integer adds per observation and by
    /// construction feeds nothing back into the search, so the synthesized
    /// program, its cost, and every counter are identical on/off (held to
    /// by a differential test).
    ///
    /// [`Stats::metrics`]: crate::stats::Stats::metrics
    pub metrics: bool,
    /// Worker threads for *within-problem* parallelism (1 = fully
    /// sequential, the default). With `jobs > 1` the search drains runs
    /// of equal-cost entries from the head of the priority queue and
    /// verifies the complete candidates among them on up to `jobs`
    /// threads stealing from a shared index; every verdict is applied
    /// back on the coordinating thread in deterministic `(cost, seq)`
    /// order. Enumeration, deduction planning, and store management stay
    /// on the coordinating thread. The synthesized program, its cost,
    /// every counter, and the trace are byte-identical to a sequential
    /// run (wall-clock phase histograms excepted — they measure real
    /// time); only speed changes.
    pub jobs: usize,
    /// Emit periodic [`TraceEvent::Progress`] heartbeats into the tracer,
    /// riding the governing budget's adaptive poll cadence (at most one
    /// per [`crate::govern::HEARTBEAT_INTERVAL`], so overhead is bounded
    /// regardless of search speed). Off by default: heartbeat count and
    /// content are wall-clock driven, so they would make otherwise
    /// deterministic traces volatile under `l2 profile diff`. Purely
    /// observational — the same differential test that covers `metrics`
    /// proves toggling this changes no program, cost, or counter.
    pub progress: bool,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            deduction: true,
            static_analysis: true,
            static_prune: true,
            max_term_cost: 12,
            max_term_cost_blind: 6,
            max_collection_cost: 1,
            max_init_cost: 5,
            max_free_init_cost: 2,
            max_cost: 28,
            timeout: Some(Duration::from_secs(20)),
            max_overshoot: DEFAULT_MAX_OVERSHOOT,
            max_popped: 20_000_000,
            eval_fuel: 50_000,
            max_total_fuel: u64::MAX,
            retry_ladder: false,
            enum_limits: EnumLimits::default(),
            max_store_bytes: 3_000_000_000,
            constructor_hypotheses: false,
            trace_probes: true,
            expand_blind_holes: false,
            jobs: 1,
            metrics: true,
            progress: false,
        }
    }
}

impl SearchOptions {
    /// The degraded-caps configuration used by the retry ladder's second
    /// rung: tightened term-cost and global caps — the same engine on a
    /// much smaller space, completing quickly when the answer is simple
    /// and the full configuration drowned in a deep space.
    pub fn degraded(&self) -> SearchOptions {
        SearchOptions {
            max_term_cost: self.max_term_cost.min(8),
            max_term_cost_blind: self.max_term_cost_blind.min(4),
            max_cost: self.max_cost.min(20),
            retry_ladder: false,
            ..self.clone()
        }
    }
}

/// Folds one timed phase episode into the scalar phase total and, when
/// metrics are on, the phase's per-episode latency histogram.
#[inline]
fn note_phase(total: &mut Duration, hist: &mut Histogram, metrics: bool, d: Duration) {
    *total += d;
    if metrics {
        hist.record(d.as_micros().min(u64::MAX as u128) as u64);
    }
}

/// Why synthesis failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// The user's examples are contradictory.
    InconsistentExamples,
    /// The wall-clock budget was exhausted.
    Timeout,
    /// The whole (cost-bounded) space was searched without a fit.
    Exhausted,
    /// The popped-item cap was reached.
    LimitReached,
    /// Cancelled cooperatively via a [`crate::govern::CancelToken`].
    Cancelled,
    /// The cumulative evaluation-fuel cap
    /// ([`SearchOptions::max_total_fuel`]) was exhausted.
    FuelExhausted,
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::InconsistentExamples => {
                write!(
                    f,
                    "examples are inconsistent (same inputs, different outputs)"
                )
            }
            SynthError::Timeout => write!(f, "synthesis timed out"),
            SynthError::Exhausted => {
                write!(f, "no program within the cost bounds fits the examples")
            }
            SynthError::LimitReached => write!(f, "search node limit reached"),
            SynthError::Cancelled => write!(f, "synthesis was cancelled"),
            SynthError::FuelExhausted => write!(f, "evaluation fuel budget exhausted"),
        }
    }
}

impl SynthError {
    /// `true` for failures caused by a *resource* limit (timeout, pop cap,
    /// fuel cap) — the errors a degraded or baseline retry can plausibly
    /// fix. Exhaustion and inconsistent examples are semantic
    /// verdicts no retry can change.
    pub fn is_resource_limit(&self) -> bool {
        matches!(
            self,
            SynthError::Timeout | SynthError::LimitReached | SynthError::FuelExhausted
        )
    }
}

impl std::error::Error for SynthError {}

/// A successful synthesis.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The minimal-cost program fitting all examples.
    pub program: Program,
    /// Its cost under the problem's cost model.
    pub cost: u32,
    /// Search counters.
    pub stats: Stats,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// One planned expansion of either flavor, for the Apply stream.
enum Planned {
    Comb(Template),
    Cons(ConsTemplate),
}

impl Planned {
    fn delta_cost(&self) -> u32 {
        match self {
            Planned::Comb(t) => t.delta_cost,
            Planned::Cons(t) => t.delta_cost,
        }
    }

    fn instantiate(
        &self,
        hyp: &Hypothesis,
        hole: lambda2_lang::ast::HoleId,
        costs: &CostModel,
        next_hole: &mut lambda2_lang::ast::HoleId,
    ) -> Hypothesis {
        match self {
            Planned::Comb(t) => t.instantiate(hyp, hole, costs, next_hole),
            Planned::Cons(t) => t.instantiate(hyp, hole, costs, next_hole),
        }
    }
}

enum Kind {
    Hyp(Hypothesis),
    /// A lazy stream over a hole's planned expansions (sorted by cost):
    /// popping instantiates template `index` and reschedules `index + 1`.
    /// Instantiation (hole-id minting + spine rebuild) is deferred until a
    /// child is actually due — most never are.
    Apply {
        hyp: Hypothesis,
        hole: HoleId,
        templates: Arc<Vec<Planned>>,
        index: usize,
    },
    Close {
        hyp: Hypothesis,
        hole: HoleId,
        tier: u32,
    },
}

struct Entry {
    cost: u32,
    seq: u64,
    kind: Kind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.cost == other.cost && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        // BinaryHeap is a max-heap; invert so the cheapest pops first,
        // FIFO within equal costs for determinism.
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Runs best-first synthesis on `problem`.
///
/// # Errors
///
/// See [`SynthError`].
pub fn search(problem: &Problem, options: &SearchOptions) -> Result<Synthesis, SynthError> {
    search_traced(problem, options, &mut NoopTracer)
}

/// [`search`], with telemetry: every pop, plan/refute decision, closing
/// tier, store lifecycle change, verification attempt, and isolated fault
/// is reported to `tracer`. With the default [`NoopTracer`] this is
/// exactly [`search`] — call sites check [`Tracer::enabled`] before
/// rendering event payloads, so a disabled tracer costs nothing.
///
/// # Errors
///
/// See [`SynthError`].
pub fn search_traced(
    problem: &Problem,
    options: &SearchOptions,
    tracer: &mut dyn Tracer,
) -> Result<Synthesis, SynthError> {
    let budget = Budget::for_search(options);
    search_governed(problem, options, &budget, tracer).outcome
}

/// [`search_traced`] under an explicit resource [`Budget`], returning a
/// structured [`SearchReport`] on *every* path — success, exhaustion,
/// timeout, cancellation, resource caps, injected faults.
///
/// This is the engine's primary entry point; [`search`] and
/// [`search_traced`] build a budget from the options and keep only the
/// outcome. Call this directly for anytime results (the best-cost
/// [`FrontierItem`] snapshot), resource accounting, or cooperative
/// cancellation via [`Budget::cancel_token`].
///
/// The budget is ticked inside every long phase — enumeration levels,
/// deduction planning sweeps, closing-tier materialization, and
/// per-candidate verification — so a deadline or cancellation is observed
/// within [`SearchOptions::max_overshoot`] even when a single phase runs
/// long. Verification and planning run under panic isolation: a panicking
/// candidate is counted in [`Stats::faults`], traced as
/// [`TraceEvent::Fault`], and skipped; it never aborts the search.
pub fn search_governed(
    problem: &Problem,
    options: &SearchOptions,
    budget: &Budget,
    tracer: &mut dyn Tracer,
) -> SearchReport {
    search_governed_warm(problem, options, budget, tracer, None)
}

/// [`search_governed`] with an optional cross-search warm store cache.
///
/// When `warm` is provided, the search seeds enumeration stores from the
/// shared [`WarmCache`] (keyed by [`warm_config_fingerprint`] +
/// [`StoreKey`]) instead of building them cold, and parks its live stores
/// back into the cache when it finishes. The cache is mutex-guarded, so a
/// whole worker pool shares one instance (and one byte budget); the lock
/// is held only per take/put, never across search phases. Reuse is
/// semantically transparent: a store's contents are a deterministic
/// function of its key, the library, and the enumeration limits, and
/// every read is bounded by the cost the search asks for — so the
/// synthesized program, its cost, and the attempt ladder are identical
/// warm or cold. Only work counters ([`Stats::enumerated_terms`],
/// [`Stats::warm_hits`]) differ, reflecting the work actually saved.
pub fn search_governed_warm(
    problem: &Problem,
    options: &SearchOptions,
    budget: &Budget,
    tracer: &mut dyn Tracer,
    warm: Option<&WarmCache>,
) -> SearchReport {
    let start = Instant::now();
    let library = problem.library();
    let costs = library.costs().clone();
    let warm_config = warm_config_fingerprint(library, options);
    let mut stats = Stats::default();

    // Root spec: the user's examples, verbatim.
    let rows: Vec<ExampleRow> = problem
        .examples()
        .iter()
        .map(|ex| {
            let mut env = Env::empty();
            for ((sym, _), v) in problem.params().iter().zip(&ex.inputs) {
                env = env.bind(*sym, v.clone());
            }
            ExampleRow::new(env, ex.output.clone())
        })
        .collect();
    let root_spec = match Spec::new(rows) {
        Ok(spec) => spec,
        Err(_) => {
            return SearchReport {
                outcome: Err(SynthError::InconsistentExamples),
                frontier: Vec::new(),
                stats,
                elapsed: start.elapsed(),
                budget: budget.snapshot(),
                attempts: Vec::new(),
            }
        }
    };
    let root_info = HoleInfo::new(
        problem.return_type().clone(),
        problem.params().to_vec(),
        root_spec,
    );

    // Stores carry a last-used tick for LRU eviction under the global
    // term budget.
    let mut stores: HashMap<StoreKey, (TermStore, u64)> = HashMap::new();
    let mut store_tick: u64 = 0;
    let mut templates: HashMap<(StoreKey, Type), Arc<Vec<Planned>>> = HashMap::new();
    // Memoized per-term abstractions for the refutation pre-pass, keyed
    // like the stores whose arenas mint the term ids; a small slice of
    // the term byte budget bounds it.
    let mut abs_cache: AbsCache<StoreKey> = AbsCache::new(options.max_store_bytes / 8);
    let mut queue: BinaryHeap<Entry> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut next_hole: HoleId = 1;

    let root = Hypothesis::root(root_info, &costs);
    queue.push(Entry {
        cost: root.cost,
        seq,
        kind: Kind::Hyp(root),
    });

    // Queue admissibility check: best-first popping must see monotonically
    // non-decreasing costs, or the first program found is not minimal.
    #[cfg(feature = "check-invariants")]
    let mut last_popped_cost: u32 = 0;

    let jobs = options.jobs.max(1);
    let outcome: Result<(Program, u32), SynthError> = 'search: {
        while let Some(first) = queue.pop() {
            // Parallel rounds (`jobs > 1`): drain the run of equal-cost
            // entries at the head of the queue and speculatively verify
            // the complete hypotheses among them on worker threads, then
            // process every entry strictly in original `seq` order on
            // this thread, consuming the precomputed verdicts. The round
            // is order-safe: any child an entry pushes carries a strictly
            // larger `seq` than every drained entry, so even a sequential
            // run would pop the whole run before any of their children.
            // All accounting happens at apply time, in apply order, which
            // is what makes `--jobs N` byte-identical to `--jobs 1`.
            let round_cost = first.cost;
            let mut round: VecDeque<Entry> = VecDeque::new();
            round.push_back(first);
            if jobs > 1 {
                while round.len() < ROUND_CAP && queue.peek().is_some_and(|e| e.cost == round_cost)
                {
                    round.push_back(queue.pop().expect("peeked entry exists"));
                }
            }
            let mut preruns: HashMap<u64, PreRun> = HashMap::new();
            if jobs > 1 {
                let complete: Vec<&Entry> = round
                    .iter()
                    .filter(|e| match &e.kind {
                        Kind::Hyp(h) => h.cost <= options.max_cost && h.is_complete(),
                        _ => false,
                    })
                    .collect();
                if complete.len() >= 2 {
                    // Fail-point decisions are taken here, on the
                    // coordinating thread, in seq order — workers only
                    // execute what they are handed.
                    let tasks: Vec<(&Expr, Option<FailAction>)> = complete
                        .iter()
                        .map(|e| match &e.kind {
                            Kind::Hyp(h) => (&h.expr, failpoints::check("verify.candidate")),
                            _ => unreachable!("filtered to hypotheses"),
                        })
                        .collect();
                    let runs = preverify(problem, options.eval_fuel, jobs, &tasks);
                    preruns = complete.iter().map(|e| e.seq).zip(runs).collect();
                }
            }
            let aborted: Option<Result<(Program, u32), SynthError>> = 'round: {
                while let Some(entry) = round.pop_front() {
                    stats.popped += 1;
                    if options.metrics {
                        // Depth after the pop, before this item's children push.
                        // Undrained round entries would still be queued at this
                        // point in a sequential run, so they count as depth.
                        stats
                            .metrics
                            .queue_depth
                            .record_usize(queue.len() + round.len());
                        stats.metrics.pop_cost.record(u64::from(entry.cost));
                    }
                    #[cfg(feature = "check-invariants")]
                    {
                        assert!(
                            entry.cost >= last_popped_cost,
                            "queue admissibility violated: popped cost {} after {}",
                            entry.cost,
                            last_popped_cost
                        );
                        last_popped_cost = entry.cost;
                    }
                    if tracer.enabled() {
                        let (kind, hyp) = match &entry.kind {
                            Kind::Hyp(h) => (PopKind::Hypothesis, h),
                            Kind::Apply { hyp, .. } => (PopKind::Apply, hyp),
                            Kind::Close { hyp, .. } => (PopKind::Close, hyp),
                        };
                        tracer.emit(TraceEvent::Pop {
                            n: stats.popped,
                            kind,
                            cost: entry.cost,
                            holes: hyp.holes().len(),
                            sketch: hyp.expr.to_string(),
                        });
                    }
                    if let Some(FailAction::ExpireDeadline) = failpoints::check("search.pop") {
                        budget.force_expire();
                    }
                    if let Err(e) = budget.note_pop() {
                        break 'round Some(Err(e.to_synth_error()));
                    }
                    // Live-progress heartbeat: consumes the governor's poll-armed
                    // flag, so cadence (and overhead) is bounded by the heartbeat
                    // interval however fast pops are. Observation-only: nothing
                    // here feeds back into the search.
                    if options.progress && budget.take_heartbeat() {
                        tracer.emit(TraceEvent::Progress {
                            budget: budget.snapshot(),
                            queue: queue.len() + round.len(),
                            best_cost: entry.cost,
                            phases: stats.phases,
                        });
                    }
                    if stats.popped % 65_536 == 0
                        && std::env::var_os("LAMBDA2_STORE_DEBUG").is_some()
                    {
                        let rss = std::fs::read_to_string("/proc/self/status")
                            .ok()
                            .and_then(|s| {
                                s.lines()
                                    .find(|l| l.starts_with("VmRSS"))
                                    .map(|l| l.trim().to_owned())
                            })
                            .unwrap_or_default();
                        eprintln!(
                    "[debug] popped {}k queue {} stores {} terms {} ~{}MB templates {} (sum {} max {}) {rss}",
                    stats.popped / 1024,
                    queue.len() + round.len(),
                    stores.len(),
                    stores.values().map(|(s, _)| s.len()).sum::<usize>(),
                    stores.values().map(|(s, _)| s.approx_bytes()).sum::<usize>() / 1_048_576,
                    templates.len(),
                    templates.values().map(|t| t.len()).sum::<usize>(),
                    templates.values().map(|t| t.len()).max().unwrap_or(0),
                );
                    }

                    let entry_cost = entry.cost;
                    let entry_seq = entry.seq;
                    match entry.kind {
                        Kind::Hyp(hyp) => {
                            if hyp.cost > options.max_cost {
                                continue;
                            }
                            if hyp.is_complete() {
                                let verdict = match preruns.remove(&entry_seq) {
                                    Some(pre) => apply_prerun(
                                        pre, hyp.cost, options, budget, &mut stats, tracer,
                                    ),
                                    None => verify_candidate(
                                        problem, &hyp.expr, hyp.cost, options, budget, &mut stats,
                                        tracer,
                                    ),
                                };
                                match verdict {
                                    Verdict::Pass(program) => {
                                        if std::env::var_os("LAMBDA2_STORE_DEBUG").is_some() {
                                            let mut sizes: Vec<usize> =
                                                stores.values().map(|(s, _)| s.len()).collect();
                                            sizes.sort_unstable_by(|a, b| b.cmp(a));
                                            eprintln!(
                                                "[debug] {} stores, sizes top10 {:?}, total {}",
                                                sizes.len(),
                                                &sizes[..sizes.len().min(10)],
                                                sizes.iter().sum::<usize>()
                                            );
                                        }
                                        break 'round Some(Ok((program, hyp.cost)));
                                    }
                                    Verdict::Fail => {
                                        stats.verify_failures += 1;
                                        continue;
                                    }
                                    Verdict::Fault => continue,
                                    Verdict::Budget(e) => {
                                        break 'round Some(Err(e.to_synth_error()))
                                    }
                                }
                            }

                            let (hole, info) = hyp.first_hole().expect("incomplete has a hole");
                            let info = Arc::clone(info);

                            // (a) Closing stream for this hole, starting at the
                            // cheapest term tier.
                            let tier0 = costs.hole_min();
                            seq += 1;
                            queue.push(Entry {
                                cost: hyp.cost - costs.hole_min() + tier0,
                                seq,
                                kind: Kind::Close {
                                    hyp: hyp.clone(),
                                    hole,
                                    tier: tier0,
                                },
                            });

                            // (b) Combinator expansions, via the per-hole-context
                            // template cache. Skip planning entirely when even the
                            // cheapest conceivable template (comb + lambda + two
                            // leaves) cannot fit the global budget — deep holes near
                            // the cost ceiling otherwise pay for stores they never use.
                            let min_comb_cost = library
                                .combs()
                                .iter()
                                .map(|c| costs.comb_cost(*c))
                                .min()
                                .unwrap_or(u32::MAX);
                            let min_delta = min_comb_cost
                                .saturating_add(costs.lambda)
                                .saturating_add(2 * costs.hole_min());
                            if hyp.cost - costs.hole_min() + min_delta > options.max_cost {
                                continue;
                            }
                            if options.deduction
                                && !options.expand_blind_holes
                                && info.spec.is_empty()
                            {
                                // Deduction had nothing to say about this hole;
                                // closings (first-order terms) remain available.
                                continue;
                            }
                            let tkey = (info.store_key.clone(), canonical(&info.ty));
                            let planned = match templates.get(&tkey) {
                                Some(ts) => Arc::clone(ts),
                                None => {
                                    let t_enum = Instant::now();
                                    let store = touch_store(
                                        &mut stores,
                                        &mut store_tick,
                                        &info,
                                        options,
                                        &mut stats,
                                        tracer,
                                        warm,
                                        warm_config,
                                    );
                                    // The collection pool is cheap (cost <= 3); the
                                    // larger init pool is only materialized when some
                                    // collection candidate actually has empty-collection
                                    // rows to constrain it.
                                    let before = store.inserted();
                                    if let Err(e) = store.ensure_within(
                                        options.max_collection_cost,
                                        library,
                                        budget,
                                    ) {
                                        stats.enumerated_terms += store.inserted() - before;
                                        note_phase(
                                            &mut stats.phases.enumerate,
                                            &mut stats.metrics.enumerate_us,
                                            options.metrics,
                                            t_enum.elapsed(),
                                        );
                                        break 'round Some(Err(e.to_synth_error()));
                                    }
                                    let needs_deep_inits = options.deduction
                                        && store
                                            .collections(options.max_collection_cost)
                                            .iter()
                                            .any(|(_, vals)| {
                                                vals.iter().any(|v| match v {
                                                    lambda2_lang::value::Value::List(xs) => {
                                                        xs.is_empty()
                                                    }
                                                    lambda2_lang::value::Value::Tree(t) => {
                                                        t.is_empty()
                                                    }
                                                    _ => false,
                                                })
                                            });
                                    let arg_cost = if needs_deep_inits {
                                        options.max_collection_cost.max(options.max_init_cost)
                                    } else {
                                        options.max_collection_cost.max(options.max_free_init_cost)
                                    };
                                    if let Err(e) = store.ensure_within(arg_cost, library, budget) {
                                        stats.enumerated_terms += store.inserted() - before;
                                        note_phase(
                                            &mut stats.phases.enumerate,
                                            &mut stats.metrics.enumerate_us,
                                            options.metrics,
                                            t_enum.elapsed(),
                                        );
                                        break 'round Some(Err(e.to_synth_error()));
                                    }
                                    stats.enumerated_terms += store.inserted() - before;
                                    let pool: Vec<_> = store
                                        .error_free(arg_cost)
                                        .into_iter()
                                        .map(|(t, vals)| {
                                            (store.expr_of(t), t.ty.clone(), vals, t.cost, t.term)
                                        })
                                        .collect();
                                    note_phase(
                                        &mut stats.phases.enumerate,
                                        &mut stats.metrics.enumerate_us,
                                        options.metrics,
                                        t_enum.elapsed(),
                                    );

                                    let t_deduce = Instant::now();
                                    // The spec's output abstraction is shared by every
                                    // (combinator, candidate) pair of this sweep.
                                    let out_abs = TermAbs::of_outputs(info.spec.rows());
                                    let mut planned = Vec::new();
                                    for &comb in library.combs() {
                                        // Cheap shape pre-filter on the hole type.
                                        let hole_ok = match comb {
                                            Comb::Map | Comb::Filter => {
                                                matches!(info.ty, Type::List(_) | Type::Var(_))
                                            }
                                            Comb::Mapt => {
                                                matches!(info.ty, Type::Tree(_) | Type::Var(_))
                                            }
                                            _ => true,
                                        };
                                        if !hole_ok {
                                            continue;
                                        }
                                        for (expr, ty, vals, cost, term) in &pool {
                                            // Shape pre-filter on the collection.
                                            let coll_ok = *cost <= options.max_collection_cost
                                                && if comb.is_tree() {
                                                    matches!(ty, Type::Tree(_))
                                                } else {
                                                    matches!(ty, Type::List(_))
                                                };
                                            if !coll_ok {
                                                continue;
                                            }
                                            // The candidate's abstraction is memoized per
                                            // term id: combinator number two onward (and
                                            // any later sweep reusing this store) hits.
                                            let coll_abs =
                                                abs_cache.get_or_insert(&tkey.0, *term, || {
                                                    TermAbs::of_values(vals)
                                                });
                                            let abs = AbsArgs {
                                                coll: &coll_abs,
                                                out: &out_abs,
                                            };
                                            let cand = Candidate {
                                                expr,
                                                ty,
                                                values: vals.clone(),
                                                cost: *cost,
                                            };
                                            if comb.init_index().is_none() {
                                                match plan_isolated(
                                                    &info,
                                                    comb,
                                                    &cand,
                                                    None,
                                                    &costs,
                                                    options.deduction,
                                                    options.static_analysis,
                                                    options.static_prune,
                                                    Some(abs),
                                                    budget,
                                                ) {
                                                    PlanOutcome::Planned(t) => {
                                                        if tracer.enabled() {
                                                            tracer.emit(TraceEvent::Plan {
                                                                comb: comb.name(),
                                                                coll: expr.to_string(),
                                                                init: None,
                                                                delta_cost: t.delta_cost,
                                                                rows: t.body_info.spec.rows().len(),
                                                            });
                                                        }
                                                        planned.push(Planned::Comb(t));
                                                    }
                                                    PlanOutcome::Budget(e) => {
                                                        note_phase(
                                                            &mut stats.phases.deduce,
                                                            &mut stats.metrics.deduce_us,
                                                            options.metrics,
                                                            t_deduce.elapsed(),
                                                        );
                                                        break 'round Some(Err(e.to_synth_error()));
                                                    }
                                                    PlanOutcome::Rejected(fail) => {
                                                        refute(
                                                            &mut stats,
                                                            tracer,
                                                            fail,
                                                            comb,
                                                            expr,
                                                            None,
                                                            options.metrics,
                                                        );
                                                    }
                                                    PlanOutcome::Fault(detail) => {
                                                        fault(
                                                            &mut stats,
                                                            tracer,
                                                            "deduce.plan",
                                                            detail,
                                                        );
                                                    }
                                                }
                                                continue;
                                            }
                                            // Folds: one template per initial-value
                                            // candidate of the hole's (result) type.
                                            // Empty-collection rows pin the init value,
                                            // allowing a larger budget; without them
                                            // every typed term qualifies, so keep the
                                            // budget tight.
                                            let empty_rows: Vec<(
                                                usize,
                                                &lambda2_lang::value::Value,
                                            )> = if options.deduction {
                                                info.spec
                                                    .rows()
                                                    .iter()
                                                    .enumerate()
                                                    .filter(|(i, _)| match &vals[*i] {
                                                        lambda2_lang::value::Value::List(xs) => {
                                                            xs.is_empty()
                                                        }
                                                        lambda2_lang::value::Value::Tree(t) => {
                                                            t.is_empty()
                                                        }
                                                        _ => false,
                                                    })
                                                    .map(|(i, r)| (i, &r.output))
                                                    .collect()
                                            } else {
                                                Vec::new()
                                            };
                                            let init_budget = if empty_rows.is_empty() {
                                                options.max_free_init_cost
                                            } else {
                                                options.max_init_cost
                                            };
                                            for (ie, ity, ivals, icost, _) in &pool {
                                                if *icost > init_budget
                                                    || !crate::enumerate::unifiable(ity, &info.ty)
                                                {
                                                    continue;
                                                }
                                                if empty_rows
                                                    .iter()
                                                    .any(|(i, out)| &ivals[*i] != *out)
                                                {
                                                    stats.refuted += 1;
                                                    if tracer.enabled() {
                                                        tracer.emit(TraceEvent::Refute {
                                                            comb: comb.name(),
                                                            coll: expr.to_string(),
                                                            init: Some(ie.to_string()),
                                                            reason: RefuteReason::InitMismatch,
                                                        });
                                                    }
                                                    continue;
                                                }
                                                let init = Candidate {
                                                    expr: ie,
                                                    ty: ity,
                                                    values: ivals.clone(),
                                                    cost: *icost,
                                                };
                                                match plan_isolated(
                                                    &info,
                                                    comb,
                                                    &cand,
                                                    Some(&init),
                                                    &costs,
                                                    options.deduction,
                                                    options.static_analysis,
                                                    options.static_prune,
                                                    Some(abs),
                                                    budget,
                                                ) {
                                                    PlanOutcome::Planned(t) => {
                                                        if tracer.enabled() {
                                                            tracer.emit(TraceEvent::Plan {
                                                                comb: comb.name(),
                                                                coll: expr.to_string(),
                                                                init: Some(ie.to_string()),
                                                                delta_cost: t.delta_cost,
                                                                rows: t.body_info.spec.rows().len(),
                                                            });
                                                        }
                                                        planned.push(Planned::Comb(t));
                                                    }
                                                    PlanOutcome::Budget(e) => {
                                                        note_phase(
                                                            &mut stats.phases.deduce,
                                                            &mut stats.metrics.deduce_us,
                                                            options.metrics,
                                                            t_deduce.elapsed(),
                                                        );
                                                        break 'round Some(Err(e.to_synth_error()));
                                                    }
                                                    PlanOutcome::Rejected(fail) => {
                                                        refute(
                                                            &mut stats,
                                                            tracer,
                                                            fail,
                                                            comb,
                                                            expr,
                                                            Some(ie),
                                                            options.metrics,
                                                        );
                                                    }
                                                    PlanOutcome::Fault(detail) => {
                                                        fault(
                                                            &mut stats,
                                                            tracer,
                                                            "deduce.plan",
                                                            detail,
                                                        );
                                                    }
                                                }
                                            }
                                        }
                                    }
                                    // Constructor hypotheses: invertible constructors
                                    // split a hole into exactly-specified components.
                                    if options.constructor_hypotheses && options.deduction {
                                        planned.extend(
                                            plan_constructors(&info, &costs)
                                                .into_iter()
                                                .map(Planned::Cons),
                                        );
                                    }
                                    // The Apply stream below walks templates in order,
                                    // so sort by cost for best-first behavior.
                                    planned.sort_by_key(Planned::delta_cost);
                                    note_phase(
                                        &mut stats.phases.deduce,
                                        &mut stats.metrics.deduce_us,
                                        options.metrics,
                                        t_deduce.elapsed(),
                                    );
                                    if options.metrics {
                                        if let Some(pct) = abs_cache.take_hit_pct() {
                                            stats.metrics.abs_cache_hit_pct.record(pct);
                                        }
                                    }
                                    let planned = Arc::new(planned);
                                    templates.insert(tkey, Arc::clone(&planned));
                                    evict_stores(
                                        &mut stores,
                                        options,
                                        &info.store_key,
                                        &mut stats,
                                        tracer,
                                        budget,
                                    );
                                    planned
                                }
                            };

                            if !planned.is_empty() {
                                seq += 1;
                                let first_cost =
                                    hyp.cost - costs.hole_min() + planned[0].delta_cost();
                                if first_cost <= options.max_cost {
                                    queue.push(Entry {
                                        cost: first_cost,
                                        seq,
                                        kind: Kind::Apply {
                                            hyp: hyp.clone(),
                                            hole,
                                            templates: planned,
                                            index: 0,
                                        },
                                    });
                                }
                            }
                        }
                        Kind::Apply {
                            hyp,
                            hole,
                            templates,
                            index,
                        } => {
                            stats.expansions += 1;
                            let t_expand = Instant::now();
                            let child =
                                templates[index].instantiate(&hyp, hole, &costs, &mut next_hole);
                            note_phase(
                                &mut stats.phases.expand,
                                &mut stats.metrics.expand_us,
                                options.metrics,
                                t_expand.elapsed(),
                            );
                            seq += 1;
                            queue.push(Entry {
                                cost: child.cost,
                                seq,
                                kind: Kind::Hyp(child),
                            });
                            // Advance the stream.
                            if index + 1 < templates.len() {
                                let next_cost =
                                    hyp.cost - costs.hole_min() + templates[index + 1].delta_cost();
                                if next_cost <= options.max_cost {
                                    seq += 1;
                                    queue.push(Entry {
                                        cost: next_cost,
                                        seq,
                                        kind: Kind::Apply {
                                            hyp,
                                            hole,
                                            templates,
                                            index: index + 1,
                                        },
                                    });
                                }
                            }
                        }
                        Kind::Close { hyp, hole, tier } => {
                            let info = hyp
                                .holes()
                                .iter()
                                .find(|(h, _)| *h == hole)
                                .map(|(_, i)| Arc::clone(i))
                                .expect("close item refers to an open hole");
                            let t_enum = Instant::now();
                            let store = touch_store(
                                &mut stores,
                                &mut store_tick,
                                &info,
                                options,
                                &mut stats,
                                tracer,
                                warm,
                                warm_config,
                            );
                            let before = store.inserted();
                            if let Err(e) = store.ensure_within(tier, library, budget) {
                                stats.enumerated_terms += store.inserted() - before;
                                note_phase(
                                    &mut stats.phases.enumerate,
                                    &mut stats.metrics.enumerate_us,
                                    options.metrics,
                                    t_enum.elapsed(),
                                );
                                break 'round Some(Err(e.to_synth_error()));
                            }
                            stats.enumerated_terms += store.inserted() - before;
                            let fills: Vec<(Arc<lambda2_lang::ast::Expr>, u32)> = store
                                .closings(tier, &info.ty, &info.spec)
                                .map(|t| (store.expr_of(t), t.cost))
                                .collect();
                            note_phase(
                                &mut stats.phases.enumerate,
                                &mut stats.metrics.enumerate_us,
                                options.metrics,
                                t_enum.elapsed(),
                            );
                            if tracer.enabled() {
                                tracer.emit(TraceEvent::Tier {
                                    tier,
                                    cost: entry_cost,
                                    fills: fills.len(),
                                });
                            }
                            evict_stores(
                                &mut stores,
                                options,
                                &info.store_key,
                                &mut stats,
                                tracer,
                                budget,
                            );
                            let closes_last_hole = hyp.holes().len() == 1;
                            // Closing the last hole can surface thousands of
                            // complete candidates in one tier — the search's
                            // dominant verification batch. Fan it out: children
                            // are built and fail-point decisions taken here in
                            // fill order, workers execute only the metered runs,
                            // and the verdicts are applied below in the same fill
                            // order with all accounting on this thread.
                            let mut pre_closed: VecDeque<(Hypothesis, PreRun)> = VecDeque::new();
                            if closes_last_hole && jobs > 1 {
                                let children: Vec<Hypothesis> = fills
                                    .iter()
                                    .filter_map(|(expr, term_cost)| {
                                        let child_cost = hyp.cost - costs.hole_min() + term_cost;
                                        (child_cost <= options.max_cost)
                                            .then(|| hyp.fill(hole, expr, vec![], child_cost))
                                    })
                                    .collect();
                                if children.len() >= 2 {
                                    let tasks: Vec<(&Expr, Option<FailAction>)> = children
                                        .iter()
                                        .map(|c| (&c.expr, failpoints::check("verify.candidate")))
                                        .collect();
                                    let runs = preverify(problem, options.eval_fuel, jobs, &tasks);
                                    pre_closed = children.into_iter().zip(runs).collect();
                                }
                            }
                            for (expr, term_cost) in fills {
                                let child_cost = hyp.cost - costs.hole_min() + term_cost;
                                if child_cost > options.max_cost {
                                    continue;
                                }
                                stats.closings += 1;
                                // Closing the last hole completes the program; verify
                                // *now* and only enqueue survivors — blind holes can
                                // produce tens of thousands of candidates per tier,
                                // and queueing the failures (the vast majority) would
                                // balloon memory. Survivors still go through the
                                // queue so the cheapest fitting program wins.
                                if closes_last_hole {
                                    let (child, verdict) = match pre_closed.pop_front() {
                                        Some((child, pre)) => {
                                            let v = apply_prerun(
                                                pre, child_cost, options, budget, &mut stats,
                                                tracer,
                                            );
                                            (child, v)
                                        }
                                        None => {
                                            let child = hyp.fill(hole, &expr, vec![], child_cost);
                                            let v = verify_candidate(
                                                problem,
                                                &child.expr,
                                                child_cost,
                                                options,
                                                budget,
                                                &mut stats,
                                                tracer,
                                            );
                                            (child, v)
                                        }
                                    };
                                    match verdict {
                                        Verdict::Pass(_) => {
                                            seq += 1;
                                            queue.push(Entry {
                                                cost: child_cost,
                                                seq,
                                                kind: Kind::Hyp(child),
                                            });
                                        }
                                        Verdict::Fail => stats.verify_failures += 1,
                                        Verdict::Fault => {}
                                        Verdict::Budget(e) => {
                                            break 'round Some(Err(e.to_synth_error()))
                                        }
                                    }
                                    continue;
                                }
                                let child = hyp.fill(hole, &expr, vec![], child_cost);
                                seq += 1;
                                queue.push(Entry {
                                    cost: child_cost,
                                    seq,
                                    kind: Kind::Hyp(child),
                                });
                            }
                            // Reschedule the stream at the next tier; blind holes (no
                            // spec rows, hence no observational pruning) get a tighter
                            // cap.
                            let tier_cap = if info.spec.is_empty() {
                                options.max_term_cost_blind.min(options.max_term_cost)
                            } else {
                                options.max_term_cost
                            };
                            let next_tier = tier + 1;
                            let next_cost = hyp.cost - costs.hole_min() + next_tier;
                            if next_tier <= tier_cap && next_cost <= options.max_cost {
                                seq += 1;
                                queue.push(Entry {
                                    cost: next_cost,
                                    seq,
                                    kind: Kind::Close {
                                        hyp,
                                        hole,
                                        tier: next_tier,
                                    },
                                });
                            }
                        }
                    }
                }
                None
            };
            if let Some(v) = aborted {
                // Push the round's unprocessed remainder back so an
                // abort's anytime frontier matches a sequential run's
                // abandoned queue exactly.
                for e in round {
                    queue.push(e);
                }
                break 'search v;
            }
        }
        // The queue drained. A limit can still have latched during the last
        // iteration's phases (a fuel cap, a forced expiry) without aborting
        // it — report that verdict rather than a spurious exhaustion.
        match budget.check_now() {
            Err(e) => Err(e.to_synth_error()),
            Ok(()) => Err(SynthError::Exhausted),
        }
    };

    if options.metrics {
        // Live stores' level histograms were not folded in by eviction;
        // do it now (each store counted exactly once per build).
        for (store, _) in stores.values() {
            stats.metrics.level_terms.merge(store.level_terms());
        }
        stats.metrics.poll_gap_us.merge(&budget.poll_gap_us());
    }
    if let Some(warm) = warm {
        // Park live stores for the next search, most recently used last so
        // the cache's LRU order mirrors this search's.
        let mut parked: Vec<(StoreKey, (TermStore, u64))> = stores.drain().collect();
        parked.sort_by_key(|(_, (_, tick))| *tick);
        for (key, (store, _)) in parked {
            warm.put(warm_config, key, store);
        }
    }

    let elapsed = start.elapsed();
    let (outcome, frontier) = match outcome {
        Ok((program, cost)) => (
            Ok(Synthesis {
                program,
                cost,
                stats: stats.clone(),
                elapsed,
            }),
            Vec::new(),
        ),
        Err(e) => (Err(e), frontier_of(&mut queue)),
    };
    SearchReport {
        outcome,
        frontier,
        stats,
        elapsed,
        budget: budget.snapshot(),
        attempts: Vec::new(),
    }
}

/// How many open hypotheses a report's anytime frontier carries.
const FRONTIER_LIMIT: usize = 5;

/// How deep into the abandoned queue the frontier scan pops. The queue can
/// hold millions of entries at termination; only the cheapest few dozen
/// are examined (in priority order) for hypotheses worth reporting.
const FRONTIER_SCAN: usize = 64;

/// Pops the best-cost open hypotheses off an abandoned queue — the
/// *anytime* result attached to failure reports.
fn frontier_of(queue: &mut BinaryHeap<Entry>) -> Vec<FrontierItem> {
    let mut out = Vec::new();
    for _ in 0..FRONTIER_SCAN {
        let Some(entry) = queue.pop() else { break };
        if let Kind::Hyp(h) = entry.kind {
            out.push(FrontierItem {
                sketch: h.expr.to_string(),
                cost: entry.cost,
                holes: h.holes().len(),
            });
            if out.len() >= FRONTIER_LIMIT {
                break;
            }
        }
    }
    out
}

/// Cap on how many equal-cost entries a parallel round drains from the
/// queue at once. Bounds speculative verification (everything past a
/// passing candidate is wasted work) and the memory pulled out of the
/// heap; the remainder stays queued and leads the next round.
const ROUND_CAP: usize = 256;

/// The raw outcome of one speculative verification executed on a worker
/// thread: the constructed program, the (possibly panicked) metered run,
/// and its wall time. No accounting happens on the worker —
/// [`apply_prerun`] replays these on the coordinating thread in
/// deterministic order, reproducing [`verify_candidate`]'s effects
/// exactly.
struct PreRun {
    program: Program,
    run: std::thread::Result<(bool, u64)>,
    elapsed: Duration,
    injected: Option<FailAction>,
}

/// Runs `tasks` (complete candidate bodies, paired with the fail-point
/// action the coordinating thread already decided for each) on up to
/// `jobs` worker threads stealing from a shared index. Work-stealing
/// order is irrelevant to the result: each task is independent, results
/// land in task order, and all stats/budget/trace effects are deferred to
/// [`apply_prerun`].
fn preverify(
    problem: &Problem,
    eval_fuel: u64,
    jobs: usize,
    tasks: &[(&Expr, Option<FailAction>)],
) -> Vec<PreRun> {
    use std::sync::atomic::AtomicUsize;
    let next = AtomicUsize::new(0);
    let workers = jobs.min(tasks.len());
    // The `par.worker` fail point (checked here, on the coordinating
    // thread — the registry is thread-local) staggers worker startup to
    // perturb steal order; the determinism suite uses it to show results
    // are schedule-independent.
    let delay = matches!(failpoints::check("par.worker"), Some(FailAction::Delay));
    let mut out: Vec<Option<PreRun>> = Vec::with_capacity(tasks.len());
    out.resize_with(tasks.len(), || None);
    let chunks: Vec<Vec<(usize, PreRun)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    if delay {
                        std::thread::sleep(Duration::from_millis(2 * w as u64));
                    }
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        let (body, injected) = &tasks[i];
                        let program = Program::new(problem.params().to_vec(), (*body).clone());
                        let fuel = match injected {
                            Some(FailAction::ExhaustFuel) => 0,
                            _ => eval_fuel,
                        };
                        let t_verify = Instant::now();
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            if let Some(FailAction::Panic) = injected {
                                panic!("injected panic at verify.candidate");
                            }
                            program.satisfies_problem_metered(problem, fuel)
                        }));
                        mine.push((
                            i,
                            PreRun {
                                program,
                                run,
                                elapsed: t_verify.elapsed(),
                                injected: *injected,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify worker panicked outside isolation"))
            .collect()
    });
    for (i, pre) in chunks.into_iter().flatten() {
        out[i] = Some(pre);
    }
    out.into_iter()
        .map(|o| o.expect("the steal loop covers every task"))
        .collect()
}

/// Applies a speculative verification's outcome on the coordinating
/// thread: stats, phase time, trace event, and fuel charge happen here,
/// in the same order [`verify_candidate`] produces them, so a parallel
/// round's observable effects match a sequential run's byte for byte.
fn apply_prerun(
    pre: PreRun,
    cost: u32,
    options: &SearchOptions,
    budget: &Budget,
    stats: &mut Stats,
    tracer: &mut dyn Tracer,
) -> Verdict {
    stats.verified += 1;
    note_phase(
        &mut stats.phases.verify,
        &mut stats.metrics.verify_us,
        options.metrics,
        pre.elapsed,
    );
    match pre.run {
        Ok((ok, used)) => {
            let used = match pre.injected {
                Some(FailAction::ExhaustFuel) => u64::MAX,
                _ => used,
            };
            if tracer.enabled() {
                tracer.emit(TraceEvent::Verify {
                    ok,
                    cost,
                    program: pre.program.body().to_string(),
                });
            }
            let charge = budget.charge_fuel(used);
            if ok {
                Verdict::Pass(pre.program)
            } else if let Err(e) = charge {
                Verdict::Budget(e)
            } else {
                Verdict::Fail
            }
        }
        Err(payload) => {
            fault(stats, tracer, "verify.candidate", panic_message(&*payload));
            Verdict::Fault
        }
    }
}

/// Outcome of one isolated candidate verification.
enum Verdict {
    /// The candidate satisfies every example.
    Pass(Program),
    /// The candidate fails some example.
    Fail,
    /// The candidate panicked; the fault was counted and traced.
    Fault,
    /// The cumulative fuel cap tripped while charging this run.
    Budget(BudgetExceeded),
}

/// Verifies one complete candidate under panic isolation, charging the
/// evaluation fuel it actually consumed against `budget`.
///
/// The `catch_unwind` boundary is sound: the closure reads only `program`
/// and `problem` (no shared mutable state is touched inside it), and the
/// stats/budget updates happen after the closure returns — a panic cannot
/// leave either mid-update.
///
/// A candidate that both passes and trips the fuel cap is a success: it
/// was verified before the cap mattered, and a correct program beats a
/// resource verdict.
fn verify_candidate(
    problem: &Problem,
    body: &Expr,
    cost: u32,
    options: &SearchOptions,
    budget: &Budget,
    stats: &mut Stats,
    tracer: &mut dyn Tracer,
) -> Verdict {
    stats.verified += 1;
    let program = Program::new(problem.params().to_vec(), body.clone());
    let injected = failpoints::check("verify.candidate");
    let fuel = match injected {
        Some(FailAction::ExhaustFuel) => 0,
        _ => options.eval_fuel,
    };
    let t_verify = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        if let Some(FailAction::Panic) = injected {
            panic!("injected panic at verify.candidate");
        }
        program.satisfies_problem_metered(problem, fuel)
    }));
    note_phase(
        &mut stats.phases.verify,
        &mut stats.metrics.verify_us,
        options.metrics,
        t_verify.elapsed(),
    );
    match run {
        Ok((ok, used)) => {
            // An injected exhaustion charges "everything", so the cap
            // trips even when configured unlimited — the fault becomes
            // observable as a deterministic `FuelExhausted`.
            let used = match injected {
                Some(FailAction::ExhaustFuel) => u64::MAX,
                _ => used,
            };
            if tracer.enabled() {
                tracer.emit(TraceEvent::Verify {
                    ok,
                    cost,
                    program: program.body().to_string(),
                });
            }
            let charge = budget.charge_fuel(used);
            if ok {
                Verdict::Pass(program)
            } else if let Err(e) = charge {
                Verdict::Budget(e)
            } else {
                Verdict::Fail
            }
        }
        Err(payload) => {
            fault(stats, tracer, "verify.candidate", panic_message(&*payload));
            Verdict::Fault
        }
    }
}

/// Outcome of one isolated planning attempt.
enum PlanOutcome {
    /// A usable expansion template.
    Planned(Template),
    /// Refuted or ill-typed (counted by [`refute`]).
    Rejected(ExpandFail),
    /// The budget tripped mid-planning; abort the sweep.
    Budget(BudgetExceeded),
    /// Planning panicked; the payload's message.
    Fault(String),
}

/// Plans one combinator expansion under panic isolation and the budget.
/// The `catch_unwind` boundary is sound for the same reason as
/// [`verify_candidate`]: the closure only reads the hole context and
/// candidates, and all accounting happens after it returns.
#[allow(clippy::too_many_arguments)]
fn plan_isolated(
    info: &HoleInfo,
    comb: Comb,
    cand: &Candidate<'_>,
    init: Option<&Candidate<'_>>,
    costs: &CostModel,
    deduction: bool,
    analysis: bool,
    prune: bool,
    abs: Option<AbsArgs<'_>>,
    budget: &Budget,
) -> PlanOutcome {
    let injected = failpoints::check("deduce.plan");
    let run = catch_unwind(AssertUnwindSafe(|| {
        if let Some(FailAction::Panic) = injected {
            panic!("injected panic at deduce.plan");
        }
        plan_expansion_within(
            info, comb, cand, init, costs, deduction, analysis, prune, abs, budget,
        )
    }));
    match run {
        Ok(Ok(t)) => PlanOutcome::Planned(t),
        Ok(Err(ExpandFail::Budget(e))) => PlanOutcome::Budget(e),
        Ok(Err(fail)) => PlanOutcome::Rejected(fail),
        Err(payload) => PlanOutcome::Fault(panic_message(&*payload)),
    }
}

/// Accounts a panic caught at a governed site in `stats` and the trace.
/// The candidate or plan is skipped; the search continues.
fn fault(stats: &mut Stats, tracer: &mut dyn Tracer, site: &'static str, detail: String) {
    stats.faults += 1;
    if tracer.enabled() {
        tracer.emit(TraceEvent::Fault { site, detail });
    }
}

/// Fingerprint of everything a term store's *contents* depend on: the
/// library (operators, combinators, constants, cost model) and the
/// enumeration knobs ([`SearchOptions::enum_limits`],
/// [`SearchOptions::trace_probes`]). Two searches with equal fingerprints
/// build byte-identical stores for equal [`StoreKey`]s, which is the
/// safety condition for sharing a [`WarmCache`] across requests.
/// Deliberately *excludes* budgets, cost ceilings, and observation knobs —
/// they bound how far a store gets built, never what a built level holds.
pub fn warm_config_fingerprint(library: &Library, options: &SearchOptions) -> u64 {
    let mut material = String::new();
    for op in library.ops() {
        material.push_str(op.name());
        material.push(',');
    }
    material.push(';');
    for comb in library.combs() {
        material.push_str(comb.name());
        material.push(',');
    }
    material.push(';');
    for c in library.constants() {
        material.push_str(&c.to_string());
        material.push(',');
    }
    // Exhaustive destructures: adding a field to either struct is a
    // compile error here until its cache-key relevance is decided.
    let CostModel {
        var,
        lit,
        op,
        if_,
        lambda,
        comb,
    } = library.costs();
    let EnumLimits {
        max_level_terms,
        max_terms,
        synthetic_probes,
    } = options.enum_limits;
    material.push_str(&format!(
        ";costs={var},{lit},{op},{if_},{lambda},{comb};limits={max_level_terms},{max_terms},{synthetic_probes};trace_probes={}",
        options.trace_probes
    ));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in material.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Looks up (or creates) the enumeration store for a hole context,
/// refreshing its LRU tick and accounting the hit/create in `stats` and
/// the trace.
#[allow(clippy::too_many_arguments)]
fn touch_store<'a>(
    stores: &'a mut HashMap<StoreKey, (TermStore, u64)>,
    store_tick: &mut u64,
    info: &HoleInfo,
    options: &SearchOptions,
    stats: &mut Stats,
    tracer: &mut dyn Tracer,
    warm: Option<&WarmCache>,
    warm_config: u64,
) -> &'a mut TermStore {
    *store_tick += 1;
    let hit = stores.contains_key(&info.store_key);
    let mut warmed = false;
    let entry = stores.entry(info.store_key.clone()).or_insert_with(|| {
        let seeded = warm.and_then(|w| w.take(warm_config, &info.store_key));
        let store = match seeded {
            Some(store) => {
                warmed = true;
                store
            }
            None => TermStore::with_probes(
                info.scope.clone(),
                &info.spec,
                if options.trace_probes {
                    &info.probes
                } else {
                    &[]
                },
                options.enum_limits,
            ),
        };
        (store, 0)
    });
    entry.1 = *store_tick;
    if hit {
        stats.store_hits += 1;
    }
    if warmed {
        stats.warm_hits += 1;
    }
    if options.metrics {
        stats.metrics.store_terms.record_usize(entry.0.len());
        stats
            .metrics
            .store_bytes
            .record_usize(entry.0.approx_bytes());
    }
    if tracer.enabled() {
        tracer.emit(TraceEvent::Store {
            action: if hit || warmed {
                StoreAction::Hit
            } else {
                StoreAction::Create
            },
            terms: entry.0.len(),
            bytes: entry.0.approx_bytes(),
        });
    }
    &mut entry.0
}

/// Accounts a rejected combinator expansion in `stats` and the trace.
fn refute(
    stats: &mut Stats,
    tracer: &mut dyn Tracer,
    fail: ExpandFail,
    comb: Comb,
    coll: &Arc<lambda2_lang::ast::Expr>,
    init: Option<&Arc<lambda2_lang::ast::Expr>>,
    record_metrics: bool,
) {
    let reason = match fail {
        ExpandFail::Refuted => {
            stats.refuted += 1;
            RefuteReason::Deduction
        }
        ExpandFail::StaticRefuted(domain) => {
            // Static refutations get their own counters and trace event —
            // disjoint from `refuted`, so on/off ablations compare
            // cleanly; pruning-tier verdicts are split out again because
            // each one is work deduction would *not* have removed.
            let pruned = domain.tier() == crate::analyze::Tier::Pruning;
            if pruned {
                stats.pruned_refutations += 1;
            } else {
                stats.static_refutations += 1;
            }
            if record_metrics {
                // 1-based DOMAIN_ORDER index, so histogram buckets line
                // up with the coarse-to-fine domain table.
                stats
                    .metrics
                    .static_refute_domain
                    .record(domain.order_index() as u64 + 1);
            }
            if tracer.enabled() {
                tracer.emit(TraceEvent::StaticRefute {
                    comb: comb.name(),
                    coll: coll.to_string(),
                    init: init.map(|e| e.to_string()),
                    domain: domain.name(),
                    pruned,
                });
            }
            return;
        }
        ExpandFail::IllTyped => {
            stats.ill_typed += 1;
            RefuteReason::IllTyped
        }
        ExpandFail::Budget(_) => {
            unreachable!("budget failures abort the planning sweep before refutation accounting")
        }
    };
    if tracer.enabled() {
        tracer.emit(TraceEvent::Refute {
            comb: comb.name(),
            coll: coll.to_string(),
            init: init.map(|e| e.to_string()),
            reason,
        });
    }
}

/// Evicts least-recently-used stores until the approximate heap footprint
/// fits `max_bytes`, never evicting `current` (just touched). Evicted
/// stores rebuild deterministically if revisited, trading CPU for bounded
/// memory. Records the pre-sweep footprint as the budget's high-water
/// mark.
fn evict_stores(
    stores: &mut HashMap<StoreKey, (TermStore, u64)>,
    options: &SearchOptions,
    current: &StoreKey,
    stats: &mut Stats,
    tracer: &mut dyn Tracer,
    budget: &Budget,
) {
    // An injected eviction shrinks the byte budget to zero for this one
    // sweep, forcing out every store but the current one.
    let max_bytes = match failpoints::check("store.evict") {
        Some(FailAction::EvictStores) => 0,
        _ => options.max_store_bytes,
    };
    let mut total: usize = stores.values().map(|(s, _)| s.approx_bytes()).sum();
    budget.note_store_bytes(total);
    while total > max_bytes && stores.len() > 1 {
        let victim = stores
            .iter()
            .filter(|(k, _)| *k != current)
            .min_by_key(|(_, (_, tick))| *tick)
            .map(|(k, (s, _))| (k.clone(), s.len(), s.approx_bytes()));
        match victim {
            Some((key, terms, bytes)) => {
                if let Some((store, _)) = stores.remove(&key) {
                    // A store's per-level term histogram is folded into the
                    // run metrics exactly once: here for evicted stores, at
                    // search end for live ones. A store evicted and later
                    // rebuilt counts again — the histogram measures work
                    // done, like `Stats::enumerated_terms`.
                    if options.metrics {
                        stats.metrics.level_terms.merge(store.level_terms());
                    }
                }
                stats.store_evictions += 1;
                if tracer.enabled() {
                    tracer.emit(TraceEvent::Store {
                        action: StoreAction::Evict,
                        terms,
                        bytes,
                    });
                }
                total -= bytes;
            }
            None => break,
        }
    }
}

// Debug instrumentation: set LAMBDA2_STORE_DEBUG=1 to dump store sizes.

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(problem: &Problem) -> Synthesis {
        search(problem, &SearchOptions::default()).expect("should synthesize")
    }

    fn problem(
        name: &str,
        params: &[(&str, &str)],
        ret: &str,
        examples: &[(&[&str], &str)],
    ) -> Problem {
        let mut b = Problem::builder(name);
        for (n, t) in params {
            b = b.param(n, t);
        }
        b = b.returns(ret);
        for (ins, out) in examples {
            b = b.example(ins, out);
        }
        b.build().unwrap()
    }

    #[test]
    fn synthesizes_identity() {
        let p = problem(
            "id",
            &[("l", "[int]")],
            "[int]",
            &[(&["[1 2]"], "[1 2]"), (&["[]"], "[]"), (&["[3]"], "[3]")],
        );
        let s = solve(&p);
        assert_eq!(s.program.body().to_string(), "l");
        assert_eq!(s.cost, 1);
    }

    #[test]
    fn synthesizes_increment_map() {
        let p = problem(
            "incr",
            &[("l", "[int]")],
            "[int]",
            &[(&["[]"], "[]"), (&["[1 2]"], "[2 3]"), (&["[7]"], "[8]")],
        );
        let s = solve(&p);
        let shown = s.program.body().to_string();
        assert!(shown.starts_with("(map (lambda (x) "), "{shown}");
        let out = s
            .program
            .apply(&[lambda2_lang::parser::parse_value("[10 20]").unwrap()])
            .unwrap();
        assert_eq!(out, lambda2_lang::parser::parse_value("[11 21]").unwrap());
    }

    #[test]
    fn synthesizes_length_via_fold() {
        let p = problem(
            "length",
            &[("l", "[int]")],
            "int",
            &[
                (&["[]"], "0"),
                (&["[7]"], "1"),
                (&["[7 4]"], "2"),
                (&["[7 4 9]"], "3"),
            ],
        );
        let s = solve(&p);
        let out = s
            .program
            .apply(&[lambda2_lang::parser::parse_value("[1 2 3 4 5]").unwrap()])
            .unwrap();
        assert_eq!(out, lambda2_lang::value::Value::Int(5));
    }

    #[test]
    fn minimality_prefers_first_order_solutions() {
        // car is expressible first-order; no combinator should appear.
        let p = problem(
            "head",
            &[("l", "[int]")],
            "int",
            &[(&["[3 1]"], "3"), (&["[5]"], "5"), (&["[2 9 9]"], "2")],
        );
        let s = solve(&p);
        assert_eq!(s.program.body().to_string(), "(car l)");
    }

    #[test]
    fn inconsistent_examples_error_out() {
        let p = problem(
            "bad",
            &[("x", "int")],
            "int",
            &[(&["1"], "1"), (&["1"], "2")],
        );
        assert_eq!(
            search(&p, &SearchOptions::default()).unwrap_err(),
            SynthError::InconsistentExamples
        );
    }

    #[test]
    fn impossible_problems_exhaust_or_time_out() {
        // Output depends on information not present in the input under a
        // tiny cost budget: forces exhaustion quickly.
        let p = problem(
            "impossible",
            &[("x", "int")],
            "int",
            &[
                (&["1"], "100"),
                (&["2"], "-3"),
                (&["3"], "77"),
                (&["4"], "1234"),
            ],
        );
        let opts = SearchOptions {
            max_cost: 5,
            max_term_cost: 5,
            timeout: Some(Duration::from_secs(5)),
            ..SearchOptions::default()
        };
        let err = search(&p, &opts).unwrap_err();
        assert!(matches!(err, SynthError::Exhausted | SynthError::Timeout));
    }

    #[test]
    fn verification_rejects_overfit_closings() {
        // reverse: the [] and [5] examples alone admit `l` itself, but the
        // two-element example forces the fold. Checks end-to-end behavior.
        let p = problem(
            "reverse",
            &[("l", "[int]")],
            "[int]",
            &[
                (&["[]"], "[]"),
                (&["[5]"], "[5]"),
                (&["[5 2]"], "[2 5]"),
                (&["[5 2 9]"], "[9 2 5]"),
            ],
        );
        let s = solve(&p);
        let rev = s
            .program
            .apply(&[lambda2_lang::parser::parse_value("[1 2 3 4]").unwrap()])
            .unwrap();
        assert_eq!(rev, lambda2_lang::parser::parse_value("[4 3 2 1]").unwrap());
    }

    #[test]
    fn tiny_store_budget_still_solves_via_eviction() {
        // Eviction trades CPU for memory but must not change answers.
        let p = problem(
            "sum",
            &[("l", "[int]")],
            "int",
            &[
                (&["[]"], "0"),
                (&["[5]"], "5"),
                (&["[5 3]"], "8"),
                (&["[5 3 9]"], "17"),
            ],
        );
        let opts = SearchOptions {
            max_store_bytes: 200_000, // absurdly small
            ..SearchOptions::default()
        };
        let s = search(&p, &opts).expect("solves despite eviction churn");
        assert!(s.program.satisfies_problem(&p, 100_000));
    }

    #[test]
    fn blind_hole_expansion_is_opt_in() {
        // With deduction on, holes that deduction said nothing about are
        // not expanded with combinators by default; the option restores
        // the unrestricted grammar. Both settings must agree on problems
        // whose solutions carry rows everywhere (the whole suite).
        let p = problem(
            "incr",
            &[("l", "[int]")],
            "[int]",
            &[(&["[]"], "[]"), (&["[1 7]"], "[2 8]"), (&["[4]"], "[5]")],
        );
        let restricted = search(&p, &SearchOptions::default()).unwrap();
        let unrestricted = search(
            &p,
            &SearchOptions {
                expand_blind_holes: true,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        assert_eq!(restricted.cost, unrestricted.cost);
        // The restricted search never does more expansion work.
        assert!(restricted.stats.expansions <= unrestricted.stats.expansions);
    }

    #[test]
    fn constructor_hypotheses_unlock_fold_under_cons() {
        // (cons (foldl + 0 l) l) buries a combinator inside a constructor:
        // reachable only through the constructor-hypothesis extension.
        let p = problem(
            "prepend_sum",
            &[("l", "[int]")],
            "[int]",
            &[
                (&["[]"], "[0]"),
                (&["[5]"], "[5 5]"),
                (&["[5 3]"], "[8 5 3]"),
                (&["[5 3 9]"], "[17 5 3 9]"),
            ],
        );
        let opts = SearchOptions {
            constructor_hypotheses: true,
            ..SearchOptions::default()
        };
        let s = search(&p, &opts).expect("solves with constructors");
        assert!(
            s.program.body().to_string().starts_with("(cons "),
            "{}",
            s.program
        );
        assert!(
            s.program.body().to_string().contains("foldl"),
            "{}",
            s.program
        );

        // Without the extension (the default) the program is out of the
        // grammar.
        let opts = SearchOptions {
            timeout: Some(Duration::from_secs(5)),
            max_cost: 14,
            ..SearchOptions::default()
        };
        assert!(search(&p, &opts).is_err());
    }

    #[test]
    fn deduction_off_still_solves_trivial_problems() {
        let p = problem(
            "id",
            &[("l", "[int]")],
            "[int]",
            &[(&["[1 2]"], "[1 2]"), (&["[]"], "[]"), (&["[3]"], "[3]")],
        );
        let opts = SearchOptions {
            deduction: false,
            ..SearchOptions::default()
        };
        let s = search(&p, &opts).unwrap();
        assert_eq!(s.program.body().to_string(), "l");
    }

    fn reverse_problem() -> Problem {
        problem(
            "reverse",
            &[("l", "[int]")],
            "[int]",
            &[
                (&["[]"], "[]"),
                (&["[5]"], "[5]"),
                (&["[5 2]"], "[2 5]"),
                (&["[5 2 9]"], "[9 2 5]"),
            ],
        )
    }

    #[test]
    fn successful_reports_carry_accounting_and_no_frontier() {
        let p = problem(
            "id",
            &[("l", "[int]")],
            "[int]",
            &[(&["[1 2]"], "[1 2]"), (&["[]"], "[]"), (&["[3]"], "[3]")],
        );
        let opts = SearchOptions::default();
        let budget = Budget::for_search(&opts);
        let report = search_governed(&p, &opts, &budget, &mut NoopTracer);
        assert!(report.frontier.is_empty());
        assert_eq!(report.budget.exceeded, None);
        assert!(report.budget.pops > 0);
        assert!(report.budget.fuel_spent > 0, "verification charges fuel");
        let s = report.outcome.expect("solves");
        assert_eq!(s.program.body().to_string(), "l");
        assert_eq!(s.stats.popped, report.stats.popped);
    }

    #[test]
    fn pop_limit_reports_a_best_cost_frontier() {
        // reverse solves around pop 51 with the defaults; cut well short.
        let opts = SearchOptions {
            max_popped: 20,
            ..SearchOptions::default()
        };
        let budget = Budget::for_search(&opts);
        let report = search_governed(&reverse_problem(), &opts, &budget, &mut NoopTracer);
        assert_eq!(report.outcome.unwrap_err(), SynthError::LimitReached);
        assert_eq!(report.budget.exceeded, Some(BudgetExceeded::PopLimit));
        assert!(!report.frontier.is_empty(), "open hypotheses remain");
        // Best-first: the frontier is sorted by cost and every item is an
        // open sketch.
        assert!(report.frontier.windows(2).all(|w| w[0].cost <= w[1].cost));
        assert!(report.frontier.iter().all(|f| f.holes > 0));
    }

    #[test]
    fn zero_timeout_reports_an_immediate_timeout() {
        let opts = SearchOptions {
            timeout: Some(Duration::ZERO),
            ..SearchOptions::default()
        };
        let budget = Budget::for_search(&opts);
        let report = search_governed(&reverse_problem(), &opts, &budget, &mut NoopTracer);
        assert_eq!(report.outcome.unwrap_err(), SynthError::Timeout);
        assert_eq!(report.budget.exceeded, Some(BudgetExceeded::Deadline));
    }

    #[test]
    fn pre_cancelled_budgets_report_cancellation() {
        let opts = SearchOptions::default();
        let budget = Budget::for_search(&opts);
        budget.cancel_token().cancel();
        let report = search_governed(&reverse_problem(), &opts, &budget, &mut NoopTracer);
        assert_eq!(report.outcome.unwrap_err(), SynthError::Cancelled);
        assert_eq!(report.budget.exceeded, Some(BudgetExceeded::Cancelled));
    }

    #[test]
    fn tiny_total_fuel_reports_fuel_exhaustion() {
        let opts = SearchOptions {
            max_total_fuel: 50,
            ..SearchOptions::default()
        };
        let budget = Budget::for_search(&opts);
        let report = search_governed(&reverse_problem(), &opts, &budget, &mut NoopTracer);
        assert_eq!(report.outcome.unwrap_err(), SynthError::FuelExhausted);
        assert_eq!(report.budget.exceeded, Some(BudgetExceeded::FuelLimit));
        assert!(report.budget.fuel_spent >= 50);
    }

    /// Every deterministic counter in [`Stats`] (wall-clock phase totals
    /// and latency histograms excluded — they measure real time).
    fn counter_snapshot(s: &Stats) -> [u64; 14] {
        [
            s.popped,
            s.expansions,
            s.refuted,
            s.static_refutations,
            s.pruned_refutations,
            s.ill_typed,
            s.closings,
            s.verified,
            s.verify_failures,
            s.enumerated_terms,
            s.store_hits,
            s.warm_hits,
            s.store_evictions,
            s.faults,
        ]
    }

    fn run_with_jobs(
        p: &Problem,
        opts: &SearchOptions,
        jobs: usize,
    ) -> (SearchReport, Vec<TraceEvent>) {
        let opts = SearchOptions {
            jobs,
            ..opts.clone()
        };
        let budget = Budget::for_search(&opts);
        let mut tracer = crate::obs::CollectTracer::default();
        let report = search_governed(p, &opts, &budget, &mut tracer);
        (report, tracer.events)
    }

    #[test]
    fn parallel_jobs_match_sequential_byte_for_byte() {
        // The determinism bar for within-problem parallelism: program,
        // cost, every counter, and the full event trace must be
        // byte-identical to a sequential run for any worker count.
        let problems = [
            reverse_problem(),
            problem(
                "incr",
                &[("l", "[int]")],
                "[int]",
                &[(&["[]"], "[]"), (&["[1 2]"], "[2 3]"), (&["[7]"], "[8]")],
            ),
            problem(
                "sum",
                &[("l", "[int]")],
                "int",
                &[
                    (&["[]"], "0"),
                    (&["[5]"], "5"),
                    (&["[5 3]"], "8"),
                    (&["[5 3 9]"], "17"),
                ],
            ),
        ];
        for p in &problems {
            let (seq, seq_events) = run_with_jobs(p, &SearchOptions::default(), 1);
            let s1 = seq.outcome.expect("solves sequentially");
            for jobs in [2, 4] {
                let (par, par_events) = run_with_jobs(p, &SearchOptions::default(), jobs);
                let sp = par.outcome.expect("solves in parallel");
                assert_eq!(
                    s1.program.body().to_string(),
                    sp.program.body().to_string(),
                    "program diverged at jobs={jobs} on {}",
                    p.name()
                );
                assert_eq!(s1.cost, sp.cost);
                assert_eq!(
                    counter_snapshot(&s1.stats),
                    counter_snapshot(&sp.stats),
                    "counters diverged at jobs={jobs} on {}",
                    p.name()
                );
                assert_eq!(
                    seq_events,
                    par_events,
                    "trace diverged at jobs={jobs} on {}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn parallel_abort_frontier_matches_sequential() {
        // A mid-round abort must leave the same abandoned queue as a
        // sequential one: unprocessed round entries go back before the
        // frontier snapshot is taken.
        let opts = SearchOptions {
            max_popped: 20,
            ..SearchOptions::default()
        };
        let (seq, seq_events) = run_with_jobs(&reverse_problem(), &opts, 1);
        let (par, par_events) = run_with_jobs(&reverse_problem(), &opts, 4);
        assert_eq!(seq.outcome.unwrap_err(), par.outcome.unwrap_err());
        assert_eq!(seq.budget.exceeded, par.budget.exceeded);
        assert_eq!(seq.frontier, par.frontier);
        assert_eq!(seq_events, par_events);
    }

    #[test]
    fn parallel_fuel_cap_matches_sequential() {
        // Fuel is charged at apply time in seq order, so the cap trips on
        // the same candidate regardless of worker count.
        let opts = SearchOptions {
            max_total_fuel: 50,
            ..SearchOptions::default()
        };
        let (seq, seq_events) = run_with_jobs(&reverse_problem(), &opts, 1);
        let (par, par_events) = run_with_jobs(&reverse_problem(), &opts, 4);
        assert_eq!(seq.outcome.unwrap_err(), SynthError::FuelExhausted);
        assert_eq!(par.outcome.unwrap_err(), SynthError::FuelExhausted);
        assert_eq!(seq.budget.fuel_spent, par.budget.fuel_spent);
        assert_eq!(counter_snapshot(&seq.stats), counter_snapshot(&par.stats));
        assert_eq!(seq_events, par_events);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn staggered_workers_change_nothing() {
        // Perturb work-stealing order via the `par.worker` delay fail
        // point: workers start staggered, so steal order is shuffled
        // relative to an unperturbed run — results must not move.
        let (seq, seq_events) = run_with_jobs(&reverse_problem(), &SearchOptions::default(), 1);
        let _guard = crate::failpoints::FailGuard::arm("par.worker", FailAction::Delay, u64::MAX);
        let (par, par_events) = run_with_jobs(&reverse_problem(), &SearchOptions::default(), 4);
        let s1 = seq.outcome.expect("solves");
        let sp = par.outcome.expect("solves staggered");
        assert_eq!(s1.program.body().to_string(), sp.program.body().to_string());
        assert_eq!(s1.cost, sp.cost);
        assert_eq!(counter_snapshot(&s1.stats), counter_snapshot(&sp.stats));
        assert_eq!(seq_events, par_events);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn forced_evictions_keep_warm_accounting_consistent() {
        // Satellite audit for the PR 3 bug class: every sweep the
        // `store.evict` fail point forces evicts all but the current
        // store, so the warm cache is parked, seeded, and re-parked with
        // maximal churn. Under `check-invariants` the cache audits its
        // incremental byte total against a full recomputation on every
        // take/put; the searches must still solve identically.
        let p = reverse_problem();
        let opts = SearchOptions::default();
        let warm = WarmCache::new(usize::MAX);

        let cold = {
            let _g =
                crate::failpoints::FailGuard::arm("store.evict", FailAction::EvictStores, u64::MAX);
            let budget = Budget::for_search(&opts);
            search_governed_warm(&p, &opts, &budget, &mut NoopTracer, Some(&warm))
        };
        let cold = cold.outcome.expect("solves despite forced evictions");
        assert!(
            cold.stats.store_evictions > 0,
            "fail point forced evictions"
        );
        assert!(!warm.is_empty(), "surviving stores parked at search end");

        // Second run seeds from the parked stores, again under forced
        // eviction: take/put accounting must survive the full cycle.
        let seeded = {
            let _g =
                crate::failpoints::FailGuard::arm("store.evict", FailAction::EvictStores, u64::MAX);
            let budget = Budget::for_search(&opts);
            search_governed_warm(&p, &opts, &budget, &mut NoopTracer, Some(&warm))
        };
        let seeded = seeded.outcome.expect("warm rerun solves");
        assert!(seeded.stats.warm_hits > 0, "rerun seeded from the cache");
        assert_eq!(
            cold.program.body().to_string(),
            seeded.program.body().to_string(),
            "warm reuse is semantically transparent"
        );
        assert_eq!(cold.cost, seeded.cost);
        let (hits, misses, _) = warm.counters();
        assert!(hits > 0 && misses > 0);
    }

    #[test]
    fn governed_and_plain_search_agree() {
        // The governed entry point must not change what is found.
        let p = reverse_problem();
        let opts = SearchOptions::default();
        let plain = search(&p, &opts).expect("solves");
        let budget = Budget::for_search(&opts);
        let governed = search_governed(&p, &opts, &budget, &mut NoopTracer)
            .outcome
            .expect("solves");
        assert_eq!(
            plain.program.body().to_string(),
            governed.program.body().to_string()
        );
        assert_eq!(plain.cost, governed.cost);
        assert_eq!(plain.stats.popped, governed.stats.popped);
    }
}
