//! Per-layer totals, read from the counters and phase times the engine
//! already returns.
//!
//! In-process runs and serve replies both expose a run's [`Stats`] as the
//! JSON object `Stats::to_json` builds, so one reader serves both: the
//! in-process workloads serialize their `SearchReport.stats`, and the serve
//! workload reads each reply's `stats` field.
//!
//! [`Stats`]: lambda2_synth::Stats

use lambda2_synth::obs::json::Json;

use crate::ratio;

/// Sums of the engine's counters and phase times over a set of runs,
/// plus the span the benchmark measured around each run.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Runs folded in.
    pub runs: u64,
    /// Sum of the spans around each search, milliseconds.
    pub search_ms: f64,
    /// Phase times, milliseconds.
    pub deduce_ms: f64,
    /// Enumeration phase time, milliseconds.
    pub enumerate_ms: f64,
    /// Expansion phase time, milliseconds.
    pub expand_ms: f64,
    /// Verification phase time, milliseconds.
    pub verify_ms: f64,
    /// `Stats::popped`.
    pub popped: u64,
    /// `Stats::expansions`.
    pub expansions: u64,
    /// `Stats::refuted`.
    pub refuted: u64,
    /// `Stats::static_refutations`.
    pub static_refuted: u64,
    /// `Stats::pruned_refutations`.
    pub pruned: u64,
    /// `Stats::closings`.
    pub closings: u64,
    /// `Stats::verified`.
    pub verified: u64,
    /// `Stats::verify_failures`.
    pub verify_failures: u64,
    /// `Stats::enumerated_terms`.
    pub terms: u64,
    /// `Stats::store_hits`.
    pub store_hits: u64,
    /// `Stats::store_evictions`.
    pub store_evictions: u64,
    /// `Stats::warm_hits`.
    pub warm_hits: u64,
    /// Runs with at least one warm hit.
    pub warm_hit_runs: u64,
    /// Longest single enumeration episode, microseconds.
    pub episode_max_us: u64,
    /// Largest enumeration-store footprint seen, bytes.
    pub store_bytes_max: u64,
}

fn count(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

impl LayerTotals {
    /// Folds in one run: its `stats` JSON object and the span measured
    /// around it, in milliseconds.
    pub fn add(&mut self, stats: &Json, span_ms: f64) {
        self.runs += 1;
        self.search_ms += span_ms;
        let phase = |key: &str| {
            stats
                .get("phases")
                .and_then(|p| p.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        self.deduce_ms += phase("deduce_ms");
        self.enumerate_ms += phase("enumerate_ms");
        self.expand_ms += phase("expand_ms");
        self.verify_ms += phase("verify_ms");
        self.popped += count(stats, "popped");
        self.expansions += count(stats, "expansions");
        self.refuted += count(stats, "refuted");
        self.static_refuted += count(stats, "static_refutations");
        self.pruned += count(stats, "pruned_refutations");
        self.closings += count(stats, "closings");
        self.verified += count(stats, "verified");
        self.verify_failures += count(stats, "verify_failures");
        self.terms += count(stats, "enumerated_terms");
        self.store_hits += count(stats, "store_hits");
        self.store_evictions += count(stats, "store_evictions");
        let warm = count(stats, "warm_hits");
        self.warm_hits += warm;
        self.warm_hit_runs += u64::from(warm > 0);
        let max_of = |instrument: &str| {
            stats
                .get("metrics")
                .and_then(|m| m.get(instrument))
                .map_or(0, |h| count(h, "max"))
        };
        self.episode_max_us = self.episode_max_us.max(max_of("enumerate_us"));
        self.store_bytes_max = self.store_bytes_max.max(max_of("store_bytes"));
    }

    /// The engine-layer metrics of [`crate::PER_LAYER`] (`enumerate.*`,
    /// `deduce.*`, `analyze.*`, `expand.*`, `verify.*`, `search.*`, and
    /// `warm.hits`/`warm.hit_requests_frac`).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let phases = self.deduce_ms + self.enumerate_ms + self.expand_ms + self.verify_ms;
        vec![
            ("enumerate.ms", self.enumerate_ms),
            ("enumerate.terms", self.terms as f64),
            (
                "enumerate.terms_per_s",
                ratio(self.terms as f64, self.enumerate_ms / 1e3),
            ),
            ("enumerate.store_hits", self.store_hits as f64),
            ("enumerate.store_evictions", self.store_evictions as f64),
            ("enumerate.episode_max_ms", self.episode_max_us as f64 / 1e3),
            (
                "enumerate.store_bytes_max",
                self.store_bytes_max as f64 / (1u64 << 20) as f64,
            ),
            ("deduce.ms", self.deduce_ms),
            ("deduce.refuted", self.refuted as f64),
            (
                "deduce.refute_ratio",
                ratio(self.refuted as f64, (self.refuted + self.expansions) as f64),
            ),
            ("analyze.pruned", self.pruned as f64),
            ("analyze.static_refuted", self.static_refuted as f64),
            ("expand.ms", self.expand_ms),
            ("expand.hypotheses", self.expansions as f64),
            ("verify.ms", self.verify_ms),
            ("verify.candidates", self.verified as f64),
            (
                "verify.fail_ratio",
                ratio(self.verify_failures as f64, self.verified as f64),
            ),
            ("search.ms", self.search_ms),
            ("search.self_ms", self.search_ms - phases),
            ("search.popped", self.popped as f64),
            ("search.closings", self.closings as f64),
            ("warm.hits", self.warm_hits as f64),
            (
                "warm.hit_requests_frac",
                ratio(self.warm_hit_runs as f64, self.runs as f64),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda2_synth::obs::json;

    #[test]
    fn folds_counters_phases_and_maxima() {
        let stats = json::parse(
            r#"{"popped":3,"expansions":4,"refuted":12,"enumerated_terms":100,
                "warm_hits":2,"phases":{"deduce_ms":1.5,"enumerate_ms":6.0,
                "expand_ms":0.5,"verify_ms":1.0},
                "metrics":{"enumerate_us":{"count":2,"sum":5,"min":1,"max":4000},
                           "store_bytes":{"count":1,"sum":9,"min":9,"max":2097152}}}"#,
        )
        .unwrap();
        let mut t = LayerTotals::default();
        t.add(&stats, 10.0);
        t.add(&json::parse(r#"{"popped":1}"#).unwrap(), 2.0);
        let m: std::collections::HashMap<_, _> = t.metrics().into_iter().collect();
        assert_eq!(m["search.popped"], 4.0);
        assert_eq!(m["search.self_ms"], 3.0);
        assert_eq!(m["deduce.refute_ratio"], 0.75);
        assert_eq!(m["enumerate.terms_per_s"], 100.0 / 0.006);
        assert_eq!(m["enumerate.episode_max_ms"], 4.0);
        assert_eq!(m["enumerate.store_bytes_max"], 2.0);
        assert_eq!(m["warm.hit_requests_frac"], 0.5);
    }
}
