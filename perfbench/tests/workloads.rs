//! A short run of every workload, untraced and traced, at the test scale:
//! each must pass its own correctness checks and emit a well-formed
//! result line carrying its full metric catalogue.

use medvid_perfbench::fixture::Scale;
use medvid_perfbench::report::{END_TO_END, PER_LAYER};
use medvid_perfbench::{render, run, RunConfig, WORKLOADS};
use std::time::Instant;

fn short_run(workload: &str, trace: bool) {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::TEST,
        started: Instant::now(),
    };
    let report = run(&cfg);
    let lines = render(&report, trace).expect("every catalogued metric measured");
    let json = lines.last().expect("a result line");
    assert!(
        report.correct() && report.failed == 0 && report.attempted > 0,
        "{workload} (trace {trace}) failed its checks:\n{}",
        lines.join("\n")
    );
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in catalogue {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": "))
                && json.contains(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} missing from {json}"
        );
    }
    if !trace {
        for (name, _) in END_TO_END {
            let v = report.get(name).expect("measured");
            assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
        }
    }
}

#[test]
fn mine_corpus_short_run() {
    short_run("mine_corpus", false);
    short_run("mine_corpus", true);
}

#[test]
fn query_hot_short_run() {
    short_run("query_hot", false);
    short_run("query_hot", true);
}

#[test]
fn ingest_mixed_short_run() {
    short_run("ingest_mixed", false);
    short_run("ingest_mixed", true);
}

#[test]
fn every_workload_is_covered() {
    assert_eq!(WORKLOADS, ["mine_corpus", "query_hot", "ingest_mixed"]);
}

#[test]
fn arguments_are_validated() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = RunConfig::from_args(
        &args("--workload query_hot --seed 3 --seconds 20 --trace 1"),
        Instant::now(),
    )
    .expect("valid arguments");
    assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 20.0, true));
    for bad in [
        "--workload nope --seed 3 --seconds 20 --trace 0",
        "--workload query_hot --seconds 20 --trace 0",
        "--workload query_hot --seed x --seconds 20 --trace 0",
        "--workload query_hot --seed 3 --seconds 0 --trace 0",
        "--workload query_hot --seed 3 --seconds 20 --trace 2",
    ] {
        assert!(
            RunConfig::from_args(&args(bad), Instant::now()).is_err(),
            "{bad}"
        );
    }
}
