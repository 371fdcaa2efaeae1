//! # `lambda2-synth` — the λ² synthesis engine
//!
//! Reproduction of the synthesis algorithm from *"Synthesizing data
//! structure transformations from input-output examples"* (Feser,
//! Chaudhuri, Dillig — PLDI 2015). Given a typed signature and
//! input-output examples, [`Synthesizer`] returns the **simplest**
//! (minimal-cost) program in the object language of
//! [`lambda2_lang`] that fits every example.
//!
//! The algorithm combines three ideas:
//!
//! 1. **Inductive generalization** ([`hypothesis`], [`expand`]) — examples
//!    are generalized into partial programs with typed, example-annotated
//!    holes, e.g. `map ◻ l` or `foldr ◻ ◻ l`.
//! 2. **Deduction** ([`deduce`]) — per-combinator rules that refute
//!    hypotheses outright or infer new examples for their holes.
//! 3. **Best-first enumerative search** ([`search`], [`enumerate`]) — a
//!    cost-ordered queue with an admissible bound, plus bottom-up term
//!    enumeration with observational-equivalence pruning for closing holes.
//!
//! A pure-enumeration [`baseline`] engine and a deduction-off ablation
//! ([`SearchOptions::deduction`]) reproduce the paper's comparisons.
//!
//! # Examples
//!
//! ```
//! use lambda2_synth::{Problem, Synthesizer};
//!
//! let problem = Problem::builder("evens")
//!     .describe("keep the even elements")
//!     .param("l", "[int]")
//!     .returns("[int]")
//!     .example(&["[]"], "[]")
//!     .example(&["[1 2 3 4]"], "[2 4]")
//!     .example(&["[5 6]"], "[6]")
//!     .build()?;
//!
//! let result = Synthesizer::default().synthesize(&problem).expect("solved");
//! // A minimal filter over the list.
//! assert!(result.program.body().to_string().starts_with("(filter (lambda (x) "));
//! # use lambda2_lang::parser::parse_value;
//! let out = result.program.apply(&[parse_value("[7 8 9 10]").unwrap()]).unwrap();
//! assert_eq!(out, parse_value("[8 10]").unwrap());
//! # Ok::<(), lambda2_synth::ProblemError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analyze;
pub mod baseline;
pub mod cost;
pub mod deduce;
pub mod enumerate;
pub mod expand;
pub mod failpoints;
pub mod govern;
pub mod hypothesis;
pub mod l2file;
pub mod library;
pub mod obs;
pub mod par;
pub mod problem;
pub mod search;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod synthesizer;
pub mod verify;

pub use analyze::lint::{lint_source, Diagnostic};
pub use analyze::{RefuteDomain, Verdict};
pub use cost::CostModel;
pub use enumerate::{WarmCache, WarmStores};
pub use govern::{
    Attempt, Budget, BudgetExceeded, BudgetSnapshot, CancelToken, FrontierItem, Rung, SearchReport,
};
pub use l2file::{parse_problem, parse_problem_file, LibrarySpec, ProblemFile};
pub use library::Library;
pub use obs::corpus::{
    aggregate, build_rev, ingest_bench, ingest_measurement, load_records, options_fingerprint,
    regress, Aggregate, Corpus, CorpusError, Finding, FindingKind, RegressThresholds, RunRecord,
};
pub use obs::metrics::{Histogram, SearchMetrics};
pub use obs::profile::{
    collapse_tree, diff_traces, load_trace, parse_trace, summarize, DiffOutcome, ProfileError,
    Summary, Trace, Weight,
};
pub use obs::report::{render_access_html, render_html};
pub use obs::{
    CollectTracer, JsonlTracer, NoopTracer, PhaseTimes, TraceEvent, Tracer, SCHEMA_VERSION,
};
pub use par::{
    effective_jobs, run_pool, synthesize_batch, ParEngine, ParOutcome, ParTask, PoolItem,
};
pub use problem::{Example, Problem, ProblemBuilder, ProblemError};
pub use search::{
    search_governed, search_governed_warm, warm_config_fingerprint, SearchOptions, SynthError,
    Synthesis,
};
pub use serve::{
    load_access_log, AccessError, AccessLog, AccessRecord, AccessReport, ServeConfig, ServeSummary,
    Server,
};
pub use spec::{ExampleRow, Spec};
pub use stats::{Measurement, Stats};
pub use synthesizer::Synthesizer;
pub use verify::Program;
