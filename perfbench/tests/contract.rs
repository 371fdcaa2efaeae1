//! The benchmark's output contract: the metric names and units it prints
//! are the ones `BENCHMARK.json` declares, and a tiny run of every
//! workload, traced and untraced, finishes and prints every metric.

use std::path::Path;
use std::process::Command;

use lambda2_synth::obs::json::{self, Json};
use perfbench::{Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
    spec.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn printed_metrics_and_workloads_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap_or(""))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn tiny_runs_of_every_workload_print_every_metric() {
    for workload in Workload::ALL {
        for (trace, spec) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--size", "tiny"])
                .output()
                .expect("run perfbench");
            let what = format!("{} --trace {trace}", workload.name());
            assert!(out.status.success(), "{what}: {out:?}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).unwrap_or_else(|e| panic!("{what}: {e}: {last}"));
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{what}: no metrics object: {last}");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{what}: {name}"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    (name.clone(), unit.to_owned())
                })
                .collect();
            assert_eq!(printed, owned(spec), "{what}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_an_error_and_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
