//! `BENCHMARK.json` at the repository root must describe exactly what the
//! harness runs and emits.

use medvid_perfbench::report::{END_TO_END, PER_LAYER};
use medvid_perfbench::stats::valid_metric_name;
use medvid_perfbench::WORKLOADS;
use serde::Deserialize;

#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
    #[serde(default)]
    bound: Option<f64>,
}

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect()
}

#[test]
fn emitted_metrics_match_the_manifest() {
    let b = benchmark();
    assert_eq!(names(&b.end_to_end), END_TO_END);
    assert_eq!(names(&b.per_layer), PER_LAYER);
    let workloads: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn manifest_obeys_its_limits() {
    let b = benchmark();
    assert!(b.command.len() <= 32 && b.command.iter().all(|c| c.len() <= 200));
    assert!(b
        .command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    assert_eq!(b.paths, ["perfbench"]);
    assert!((1..=60).contains(&b.run_seconds));
    assert!(b
        .workloads
        .iter()
        .all(|w| valid_metric_name(&w.name) && !w.why.is_empty() && w.why.len() <= 200));
    for m in b.end_to_end.iter().chain(&b.per_layer) {
        assert!(valid_metric_name(&m.name), "{}", m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
    }
    for m in &b.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    assert!(b.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = b
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = b
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
}
