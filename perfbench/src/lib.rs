//! The ClassMiner benchmark: three workloads, each timed from outside the
//! program through the crates' public APIs, with correctness checks in the
//! same run. See README.md for the workloads, the metrics and what each
//! layer metric is expected to move.

pub mod fixture;
mod ingest;
mod mine;
mod query;
pub mod report;
pub mod stats;

use fixture::Scale;
use report::{Report, END_TO_END, PER_LAYER};
use std::time::Instant;

/// The workloads, by their `--workload` names.
pub const WORKLOADS: &[&str] = &["mine_corpus", "query_hot", "ingest_mixed"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) rather than untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// When the run started; set-up time is measured from here.
    pub started: Instant,
}

impl RunConfig {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    /// Describes the first missing or malformed argument.
    pub fn from_args(args: &[String], started: Instant) -> Result<RunConfig, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let i = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload = value("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        let seed = value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        Ok(RunConfig {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::BENCH,
            started,
        })
    }
}

/// Runs one workload and returns its report, run context included.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    report.context("workload", &cfg.workload);
    report.context("seed", cfg.seed);
    report.context("seconds", cfg.seconds);
    report.context("trace", cfg.trace);
    report.context("host_cpus", query::host_cpus());
    report.context("par_threads", medvid_par::max_threads());
    match cfg.workload.as_str() {
        "mine_corpus" => mine::run(cfg, &mut report),
        "query_hot" => query::run_hot(cfg, &mut report),
        "ingest_mixed" => ingest::run(cfg, &mut report),
        other => unreachable!("workload {other} was validated on parsing"),
    }
    if let Some(rss) = stats::peak_rss_mib() {
        report.metric("peak_rss_mib", rss, "MiB");
    }
    report
}

/// The report's lines: the human-readable part, then the machine-readable JSON
/// line for this run's catalogue.
///
/// # Errors
/// When an end-to-end metric was not measured or a value is not finite.
pub fn render(report: &Report, trace: bool) -> Result<Vec<String>, String> {
    let mut lines = report.human_lines();
    lines.push(if trace {
        report.json_line(PER_LAYER, true)?
    } else {
        report.json_line(END_TO_END, false)?
    });
    Ok(lines)
}
