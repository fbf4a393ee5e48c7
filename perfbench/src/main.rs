//! `medvid-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable report, then one JSON line with the run's
//! metrics. Exits non-zero, printing no result, when the arguments are
//! malformed or a metric could not be measured.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match medvid_perfbench::RunConfig::from_args(&args, started) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!(
                "usage: medvid-perfbench --workload NAME --seed N --seconds S --trace 0|1\n{e}"
            );
            return ExitCode::from(2);
        }
    };
    let report = medvid_perfbench::run(&cfg);
    match medvid_perfbench::render(&report, cfg.trace) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}
