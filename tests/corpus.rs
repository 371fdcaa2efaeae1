//! End-to-end tests for cross-run observability: the corpus record store,
//! the regression watchdog over real synthesized runs, and the
//! progress-heartbeats-are-observation-only guarantee (toggling
//! [`SearchOptions::progress`] changes no synthesized program, cost, or
//! search counter).

use std::path::PathBuf;
use std::time::Duration;

use lambda2::synth::{
    aggregate, options_fingerprint, regress, CollectTracer, Corpus, FindingKind, Measurement,
    Problem, RegressThresholds, SearchOptions, Synthesizer, TraceEvent,
};

const QUICK: &[&str] = &["ident", "incr", "evens", "sum", "reverse"];

fn temp_corpus(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lambda2-corpus-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_options(name: &str) -> (Problem, SearchOptions) {
    let bench = lambda2::suite::by_name(name).expect("suite problem");
    let options = SearchOptions {
        timeout: Some(Duration::from_secs(30)),
        ..bench.tune(SearchOptions::default())
    };
    (bench.problem.clone(), options)
}

fn measure(problem: &Problem, options: &SearchOptions) -> Measurement {
    let report = Synthesizer::with_options(options.clone()).synthesize_report(problem);
    assert!(report.outcome.is_ok(), "{} solves", problem.name());
    report.to_measurement(problem.name(), problem.examples().len())
}

/// Toggling progress heartbeats is pure observation: over the quick
/// catalog, the synthesized program, its cost, and every search counter
/// are identical with heartbeats on (and collected) and off.
#[test]
fn progress_heartbeats_change_no_search_results() {
    for name in QUICK {
        let (problem, base) = quick_options(name);
        let run = |progress: bool| {
            let options = SearchOptions {
                progress,
                ..base.clone()
            };
            let mut tracer = CollectTracer::default();
            let report =
                Synthesizer::with_options(options).synthesize_report_traced(&problem, &mut tracer);
            (report, tracer.events)
        };
        let (on, _events_on) = run(true);
        let (off, events_off) = run(false);
        let s_on = on.outcome.as_ref().expect("solves");
        let s_off = off.outcome.as_ref().expect("solves");
        assert_eq!(s_on.program.to_string(), s_off.program.to_string());
        assert_eq!(s_on.cost, s_off.cost);
        let m_on = on.to_measurement(problem.name(), problem.examples().len());
        let m_off = off.to_measurement(problem.name(), problem.examples().len());
        let counters = |m: &Measurement| {
            (
                m.stats.popped,
                m.stats.expansions,
                m.stats.refuted,
                m.stats.static_refutations,
                m.stats.ill_typed,
                m.stats.closings,
                m.stats.verified,
                m.stats.verify_failures,
                m.stats.enumerated_terms,
                m.stats.store_hits,
                m.stats.store_evictions,
            )
        };
        assert_eq!(counters(&m_on), counters(&m_off), "{name}");
        // Progress off emits no heartbeats, ever.
        assert!(
            !events_off
                .iter()
                .any(|e| matches!(e, TraceEvent::Progress { .. })),
            "{name}"
        );
    }
}

/// A search that runs past the heartbeat interval emits progress events
/// carrying a live budget snapshot, and they ride the governor's poll
/// cadence (bounded count, monotone pop counter).
#[test]
fn long_runs_emit_monotone_progress_heartbeats() {
    // No total function in the search space maps these inputs to these
    // outputs cheaply, so the search grinds until the timeout.
    let problem = Problem::builder("grind")
        .param("l", "[int]")
        .returns("[int]")
        .example(&["[1 2 3]"], "[999 123 7]")
        .example(&["[4]"], "[5612]")
        .example(&["[9 9]"], "[17 3]")
        .build()
        .unwrap();
    let options = SearchOptions {
        progress: true,
        timeout: Some(Duration::from_millis(900)),
        ..SearchOptions::default()
    };
    let mut tracer = CollectTracer::default();
    let report = Synthesizer::with_options(options).synthesize_report_traced(&problem, &mut tracer);
    let heartbeats: Vec<_> = tracer
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Progress { budget, .. } => Some(budget),
            _ => None,
        })
        .collect();
    // The run lasted several heartbeat intervals (200ms each), so at
    // least one fired; the adaptive cadence bounds how many.
    assert!(
        report.elapsed >= Duration::from_millis(600),
        "expected the grind to hit its timeout, finished in {:?}",
        report.elapsed
    );
    assert!(
        !heartbeats.is_empty(),
        "no heartbeat in {:?}",
        report.elapsed
    );
    assert!(
        heartbeats.len() as u128 <= report.elapsed.as_millis() / 100 + 2,
        "{} heartbeats in {:?}",
        heartbeats.len(),
        report.elapsed
    );
    // Budget snapshots are live and monotone.
    for pair in heartbeats.windows(2) {
        assert!(pair[1].pops >= pair[0].pops);
        assert!(pair[1].elapsed >= pair[0].elapsed);
    }
}

/// Under the retry ladder the rungs run one after another on the caller's
/// tracer, so heartbeats stay monotone inside each rung: the pop counter
/// may reset only where one rung hands over to the next.
#[test]
fn ladder_progress_heartbeats_reset_only_at_rung_boundaries() {
    // Inexpressible cheaply, so the full rung grinds to its deadline and
    // the ladder walks on.
    let problem = Problem::builder("grind")
        .param("l", "[int]")
        .returns("[int]")
        .example(&["[1 2 3]"], "[999 123 7]")
        .example(&["[4]"], "[5612]")
        .example(&["[9 9]"], "[17 3]")
        .build()
        .unwrap();
    let options = SearchOptions {
        progress: true,
        retry_ladder: true,
        timeout: Some(Duration::from_millis(700)),
        ..SearchOptions::default()
    };
    let mut tracer = CollectTracer::default();
    let report = Synthesizer::with_options(options).synthesize_report_traced(&problem, &mut tracer);
    assert!(report.outcome.is_err(), "grind is inexpressible");
    assert!(report.attempts.len() > 1, "the ladder retried");

    let beats: Vec<u64> = tracer
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Progress { budget, .. } => Some(budget.pops),
            _ => None,
        })
        .collect();
    assert!(!beats.is_empty(), "no heartbeat from any rung");
    let resets = beats.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(
        resets < report.attempts.len(),
        "{resets} pop-counter resets over {} rungs: {beats:?}",
        report.attempts.len()
    );
}

/// Real measurements round-trip through a corpus on disk, aggregate
/// cleanly, and two identically-configured runs regress clean while a
/// perturbed counter is flagged — the library contract behind
/// `l2 corpus regress` exit codes 0 and 1.
#[test]
fn corpus_round_trip_and_regression_watchdog_over_real_runs() {
    let dir = temp_corpus("watchdog");
    let corpus = Corpus::open(&dir).unwrap();

    let mut baseline = Vec::new();
    let mut fresh = Vec::new();
    for name in QUICK {
        let (problem, options) = quick_options(name);
        let fp = options_fingerprint(&options);
        baseline.push(lambda2::synth::RunRecord::of_measurement(
            &measure(&problem, &options),
            &fp,
        ));
        fresh.push(lambda2::synth::RunRecord::of_measurement(
            &measure(&problem, &options),
            &fp,
        ));
    }
    corpus.append(&baseline).unwrap();
    let stored = corpus.load().unwrap();
    assert_eq!(stored, baseline);

    let aggs = aggregate(&stored);
    assert_eq!(aggs.len(), QUICK.len());
    assert!(aggs.iter().all(|a| a.solved == 1 && a.counters_agree));

    // Identical configuration, deterministic engine: regress is clean
    // (wall check off — this is exactly CI's cross-machine mode).
    let thresholds = RegressThresholds {
        check_wall: false,
        ..RegressThresholds::default()
    };
    let findings = regress(&stored, &fresh, &thresholds);
    assert!(
        findings.iter().all(|f| f.kind != FindingKind::Regression),
        "{findings:?}"
    );

    // Deliberately perturb one counter in one fresh run: regression.
    let (problem, options) = quick_options("sum");
    let mut m = measure(&problem, &options);
    m.stats.popped += 1;
    let perturbed = vec![lambda2::synth::RunRecord::of_measurement(
        &m,
        &options_fingerprint(&options),
    )];
    let findings = regress(&stored, &perturbed, &thresholds);
    assert!(
        findings
            .iter()
            .any(|f| f.kind == FindingKind::Regression && f.detail.contains("popped")),
        "{findings:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Observation-only knobs share a fingerprint (so toggling them never
/// forks a baseline), while search-relevant option changes fork it.
#[test]
fn fingerprints_fork_on_search_options_only() {
    let (_, base) = quick_options("sum");
    let fp = options_fingerprint(&base);
    let mut observed = base.clone();
    observed.progress = true;
    observed.metrics = !observed.metrics;
    assert_eq!(fp, options_fingerprint(&observed));
    let mut forked = base.clone();
    forked.timeout = Some(Duration::from_secs(31));
    assert_ne!(fp, options_fingerprint(&forked));
}
