//! The public synthesizer façade.

use std::time::{Duration, Instant};

use crate::baseline::{synthesize_baseline_within, BaselineOptions};
use crate::enumerate::WarmCache;
use crate::govern::{Attempt, Budget, CancelToken, Rung, SearchReport};
use crate::obs::{NoopTracer, Tracer};
use crate::problem::Problem;
use crate::search::{
    search, search_governed_warm, search_traced, SearchOptions, SynthError, Synthesis,
};

/// Example-guided program synthesizer (the λ² algorithm).
///
/// Wraps [`SearchOptions`] behind a builder-style API.
///
/// # Examples
///
/// ```
/// use lambda2_synth::{Problem, Synthesizer};
///
/// let problem = Problem::builder("double")
///     .param("l", "[int]")
///     .returns("[int]")
///     .example(&["[]"], "[]")
///     .example(&["[1 2]"], "[2 4]")
///     .example(&["[5]"], "[10]")
///     .build()?;
/// let result = Synthesizer::default().synthesize(&problem).expect("solved");
/// // A minimal map over the list; exact argument order may vary.
/// assert!(result.program.body().to_string().starts_with("(map (lambda (x) "));
/// # use lambda2_lang::parser::parse_value;
/// let out = result.program.apply(&[parse_value("[3 4]").unwrap()]).unwrap();
/// assert_eq!(out, parse_value("[6 8]").unwrap());
/// # Ok::<(), lambda2_synth::ProblemError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Synthesizer {
    options: SearchOptions,
}

impl Synthesizer {
    /// Creates a synthesizer with default options.
    pub fn new() -> Synthesizer {
        Synthesizer::default()
    }

    /// Creates a synthesizer from explicit options.
    pub fn with_options(options: SearchOptions) -> Synthesizer {
        Synthesizer { options }
    }

    /// Sets the wall-clock budget (chainable).
    pub fn timeout(mut self, timeout: Duration) -> Synthesizer {
        self.options.timeout = Some(timeout);
        self
    }

    /// Removes the wall-clock budget (chainable).
    pub fn no_timeout(mut self) -> Synthesizer {
        self.options.timeout = None;
        self
    }

    /// Enables or disables deduction — the paper's key ablation (chainable).
    pub fn deduction(mut self, enabled: bool) -> Synthesizer {
        self.options.deduction = enabled;
        self
    }

    /// Enables or disables the abstract-interpretation refutation pre-pass
    /// (chainable); see [`SearchOptions::static_analysis`]. Its
    /// attribution-tier domains never change the result — only refutation
    /// attribution in [`crate::Stats`] — while its pruning tier (gated
    /// separately by [`Synthesizer::static_prune`]) removes search work.
    pub fn static_analysis(mut self, enabled: bool) -> Synthesizer {
        self.options.static_analysis = enabled;
        self
    }

    /// Enables or disables the pruning tier of the static pre-pass
    /// (chainable); see [`SearchOptions::static_prune`]. Sound: the
    /// synthesized program and its cost are byte-identical either way
    /// (differentially tested); only the amount of enumeration and
    /// deduction work spent getting there changes.
    pub fn static_prune(mut self, enabled: bool) -> Synthesizer {
        self.options.static_prune = enabled;
        self
    }

    /// Sets the global cost ceiling (chainable).
    pub fn max_cost(mut self, max_cost: u32) -> Synthesizer {
        self.options.max_cost = max_cost;
        self
    }

    /// Sets the deadline-overshoot bound (chainable); see
    /// [`SearchOptions::max_overshoot`].
    pub fn max_overshoot(mut self, bound: Duration) -> Synthesizer {
        self.options.max_overshoot = bound;
        self
    }

    /// Enables or disables the degraded-options retry ladder used by
    /// [`Synthesizer::synthesize_report`] (chainable).
    pub fn retry_ladder(mut self, enabled: bool) -> Synthesizer {
        self.options.retry_ladder = enabled;
        self
    }

    /// The active options.
    pub fn options(&self) -> &SearchOptions {
        &self.options
    }

    /// Synthesizes the minimal-cost program fitting `problem`'s examples.
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize(&self, problem: &Problem) -> Result<Synthesis, SynthError> {
        search(problem, &self.options)
    }

    /// [`Synthesizer::synthesize`], streaming telemetry into `tracer`
    /// (see [`crate::obs`]).
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize_traced(
        &self,
        problem: &Problem,
        tracer: &mut dyn Tracer,
    ) -> Result<Synthesis, SynthError> {
        search_traced(problem, &self.options, tracer)
    }

    /// Fully governed synthesis: always returns a structured
    /// [`SearchReport`] — outcome, anytime frontier, merged stats, budget
    /// accounting, and the attempt log.
    ///
    /// When [`SearchOptions::retry_ladder`] is on and the primary attempt
    /// fails on a *resource* limit (timeout, pop cap, fuel cap — never
    /// exhaustion or inconsistent examples, which no retry can fix), the
    /// ladder re-runs with degraded options and finally the pure
    /// enumerative baseline, each under a fresh budget with the same
    /// deadline; worst-case wall time is therefore three deadlines. If
    /// every rung fails, the report keeps the primary rung's error and
    /// frontier.
    pub fn synthesize_report(&self, problem: &Problem) -> SearchReport {
        self.synthesize_report_traced(problem, &mut NoopTracer)
    }

    /// [`Synthesizer::synthesize_report`] with telemetry.
    pub fn synthesize_report_traced(
        &self,
        problem: &Problem,
        tracer: &mut dyn Tracer,
    ) -> SearchReport {
        self.synthesize_report_warm(problem, tracer, None, None)
    }

    /// [`Synthesizer::synthesize_report_traced`] for long-lived hosts (the
    /// serve daemon): optionally adopts an external [`CancelToken`] on
    /// every rung's budget (so a drain can cancel the request from
    /// outside) and seeds/harvests a shared cross-request [`WarmCache`]
    /// (see [`crate::search::search_governed_warm`]). With both `None`
    /// this is exactly [`Synthesizer::synthesize_report_traced`]; with
    /// either set, the synthesized program, cost, and attempt ladder are
    /// unchanged — cancellation only adds an exit path and the warm cache
    /// is semantically transparent.
    pub fn synthesize_report_warm(
        &self,
        problem: &Problem,
        tracer: &mut dyn Tracer,
        cancel: Option<&CancelToken>,
        warm: Option<&WarmCache>,
    ) -> SearchReport {
        let adopt = |mut budget: Budget| -> Budget {
            if let Some(token) = cancel {
                budget = budget.with_cancel(token);
            }
            budget
        };
        let overall = Instant::now();
        let budget = adopt(Budget::for_search(&self.options));
        let mut report = search_governed_warm(problem, &self.options, &budget, tracer, warm);
        report.attempts.push(Attempt {
            rung: Rung::Full,
            error: report.outcome.as_ref().err().cloned(),
            elapsed: report.elapsed,
        });
        let retryable = matches!(&report.outcome, Err(e) if e.is_resource_limit());
        if !self.options.retry_ladder || !retryable {
            report.elapsed = overall.elapsed();
            return report;
        }

        // Rung 2: tightened term-cost and global caps.
        let degraded = self.options.degraded();
        let rung_budget = adopt(Budget::for_search(&degraded));
        let rung = search_governed_warm(problem, &degraded, &rung_budget, tracer, warm);
        report.stats.merge(&rung.stats);
        report.attempts.push(Attempt {
            rung: Rung::Degraded,
            error: rung.outcome.as_ref().err().cloned(),
            elapsed: rung.elapsed,
        });
        if rung.outcome.is_ok() {
            report.outcome = rung.outcome;
            report.frontier = Vec::new();
            report.elapsed = overall.elapsed();
            return report;
        }

        // Rung 3: the pure enumerative baseline — no hypotheses at all, so
        // it is immune to whatever made the main engine's space explode.
        let bopts = BaselineOptions {
            timeout: self.options.timeout,
            eval_fuel: self.options.eval_fuel,
            ..BaselineOptions::default()
        };
        let bbudget = adopt(Budget::new(
            self.options.timeout,
            self.options.max_overshoot,
        ));
        let rung_start = Instant::now();
        match synthesize_baseline_within(problem, &bopts, &bbudget) {
            Ok(s) => {
                report.stats.merge(&s.stats);
                report.attempts.push(Attempt {
                    rung: Rung::Baseline,
                    error: None,
                    elapsed: rung_start.elapsed(),
                });
                report.outcome = Ok(s);
                report.frontier = Vec::new();
            }
            Err(e) => {
                report.attempts.push(Attempt {
                    rung: Rung::Baseline,
                    error: Some(e),
                    elapsed: rung_start.elapsed(),
                });
                // All rungs failed: keep the primary rung's error and
                // frontier — they describe the most capable attempt.
            }
        }
        report.elapsed = overall.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id_problem() -> Problem {
        Problem::builder("id")
            .param("l", "[int]")
            .returns("[int]")
            .example(&["[1 2]"], "[1 2]")
            .example(&["[]"], "[]")
            .example(&["[3]"], "[3]")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_methods_set_options() {
        let s = Synthesizer::new()
            .timeout(Duration::from_secs(3))
            .deduction(false)
            .static_analysis(false)
            .static_prune(false)
            .max_cost(17)
            .max_overshoot(Duration::from_millis(40))
            .retry_ladder(true);
        assert_eq!(s.options().timeout, Some(Duration::from_secs(3)));
        assert!(!s.options().deduction);
        assert!(!s.options().static_analysis);
        assert!(!s.options().static_prune);
        assert_eq!(s.options().max_cost, 17);
        assert_eq!(s.options().max_overshoot, Duration::from_millis(40));
        assert!(s.options().retry_ladder);
        let s = s.no_timeout();
        assert_eq!(s.options().timeout, None);
    }

    #[test]
    fn synthesize_smoke() {
        let p = Problem::builder("sum")
            .param("l", "[int]")
            .returns("int")
            .example(&["[]"], "0")
            .example(&["[1]"], "1")
            .example(&["[1 2]"], "3")
            .example(&["[1 2 3]"], "6")
            .build()
            .unwrap();
        let s = Synthesizer::new().synthesize(&p).unwrap();
        assert!(s.program.satisfies_problem(&p, 10_000));
        assert!(s.stats.popped > 0);
    }

    #[test]
    fn report_without_ladder_records_one_attempt() {
        let s = Synthesizer::with_options(SearchOptions {
            max_popped: 3,
            ..SearchOptions::default()
        });
        let report = s.synthesize_report(&id_problem());
        assert_eq!(report.outcome.unwrap_err(), SynthError::LimitReached);
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].rung, Rung::Full);
        assert_eq!(report.attempts[0].error, Some(SynthError::LimitReached));
    }

    #[test]
    fn retry_ladder_falls_back_to_the_baseline() {
        // A 3-pop cap trips before the (trivially solvable) problem can be
        // answered by the main engine on both rungs; the pop-cap-free
        // baseline rung then solves it.
        let s = Synthesizer::with_options(SearchOptions {
            max_popped: 3,
            retry_ladder: true,
            ..SearchOptions::default()
        });
        let report = s.synthesize_report(&id_problem());
        let rungs: Vec<Rung> = report.attempts.iter().map(|a| a.rung).collect();
        assert_eq!(rungs, vec![Rung::Full, Rung::Degraded, Rung::Baseline]);
        assert_eq!(report.attempts[0].error, Some(SynthError::LimitReached));
        assert_eq!(report.attempts[2].error, None);
        let solved = report.outcome.expect("baseline rung solves identity");
        assert_eq!(solved.program.body().to_string(), "l");
        assert!(report.frontier.is_empty());
    }

    #[test]
    fn non_resource_failures_are_never_retried() {
        // Inconsistent examples: retrying cannot help, the ladder must not
        // spend two more deadlines discovering that.
        let p = Problem::builder("bad")
            .param("x", "int")
            .returns("int")
            .example(&["1"], "1")
            .example(&["1"], "2")
            .build()
            .unwrap();
        let s = Synthesizer::new().retry_ladder(true);
        let report = s.synthesize_report(&p);
        assert_eq!(
            report.outcome.unwrap_err(),
            SynthError::InconsistentExamples
        );
        assert_eq!(report.attempts.len(), 1);
    }
}
