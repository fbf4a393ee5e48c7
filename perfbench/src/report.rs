//! The metric catalogue and the result a run prints.
//!
//! Every run prints a human-readable report (run context, every metric
//! the workload measured under the names the benchmark notes use, and any
//! failed check), then, as its last line, one JSON object for benchmark
//! runners: the end-to-end catalogue for untraced runs, the per-layer
//! catalogue for traced runs.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`. Every workload reports each of
/// them, with a per-workload meaning of "operation" (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_cost_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer the
/// workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("structure.shot_detect_ms", "ms"),
    ("structure.group_mine_ms", "ms"),
    ("structure.scene_merge_ms", "ms"),
    ("structure.pcs_cluster_ms", "ms"),
    ("structure.shots", "count"),
    ("vision.visual_cues_ms", "ms"),
    ("audio.analyze_shots_ms", "ms"),
    ("audio.speech_score_us", "us"),
    ("audio.speech_score_calls", "count"),
    ("audio.mfcc_us", "us"),
    ("audio.mfcc_calls", "count"),
    ("audio.speaker_change_us", "us"),
    ("audio.speaker_change_calls", "count"),
    ("events.mine_with_cues_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.search_ms", "ms"),
    ("index.append_us", "us"),
    ("knn.comparisons_per_query", "count"),
    ("knn.rerank_per_query", "count"),
    ("knn.planner_flat_share", "ratio"),
    ("serve.wire_ms", "ms"),
    ("serve.server_total_us", "us"),
    ("serve.admission_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.index_search_us", "us"),
    ("serve.writer_wait_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_invalidations", "count"),
    ("serve.rejected", "count"),
    ("cluster.connect_ms", "ms"),
    ("cluster.shard_direct_ms", "ms"),
    ("cluster.overhead_ms", "ms"),
    ("cluster.merge_us", "us"),
    ("store.append_us", "us"),
    ("store.checkpoints", "count"),
    ("store.disk_bytes_per_live_byte", "ratio"),
    ("store.recover_ms", "ms"),
    ("jobs.compactions", "count"),
    ("loadgen.lag_p90_ms", "ms"),
    ("mine.pass_wall_ms", "ms"),
    ("mine.unattributed_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, String)>,
    context: Vec<(String, String)>,
    problems: Vec<String>,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
}

impl Report {
    /// Records a metric (a later value under the same name replaces it).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// Records a run-context entry.
    pub fn context(&mut self, key: &str, value: impl Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Records the seconds since `clock` as set-up phase `phase`, and
    /// restarts the clock.
    pub fn lap(&mut self, phase: &str, clock: &mut Instant) {
        self.context(&format!("setup.{phase}_s"), clock.elapsed().as_secs_f64());
        *clock = Instant::now();
    }

    /// Records the `q` tail of `sorted` under `name`, or, when too few
    /// samples lie beyond it, a context line saying it was refused and
    /// which percentile the samples do support.
    pub fn tail(&mut self, name: &str, sorted: &[f64], q: f64, unit: &str) {
        if let Some(v) = crate::stats::tail_percentile(sorted, q) {
            return self.metric(name, v, unit);
        }
        let supported = crate::stats::highest_supported(sorted.len())
            .map_or("none".to_string(), |p| format!("p{}", p * 100.0));
        self.context(
            &format!("{name}.refused"),
            format!(
                "{} samples leave fewer than {} beyond p{}; highest supported: {supported}",
                sorted.len(),
                crate::stats::MIN_TAIL_SAMPLES,
                q * 100.0
            ),
        );
    }

    /// Records a wrong result: the run is incorrect and the operation
    /// counts as failed.
    pub fn wrong(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problem(problem);
    }

    /// Records a failed correctness check that is not one operation's
    /// result (an invariant over the whole run).
    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Failed or refused operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report lines.
    pub fn human_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, v) in &self.context {
            out.push(format!("context {k} = {v}"));
        }
        for (k, (v, unit)) in &self.metrics {
            out.push(format!("metric {k} = {v} {unit}"));
        }
        out.push(format!(
            "metric error_rate = {} ratio ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        for p in &self.problems {
            out.push(format!("check FAILED: {p}"));
        }
        out
    }

    /// The machine-readable result line over `catalogue`. A per-layer metric the
    /// workload did not exercise reads 0; a missing end-to-end metric, or
    /// any non-finite value, is an error.
    pub fn json_line(
        &self,
        catalogue: &[(&str, &str)],
        zero_missing: bool,
    ) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            if !crate::stats::valid_metric_name(name) {
                return Err(format!("metric name {name:?} breaks the name grammar"));
            }
            let value = match self.get(name) {
                Some(v) => v,
                None if zero_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn catalogue_names_and_units_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 1.25, "s");
        r.metric("op_cost_p50_ms", 0.5, "ms");
        r.metric("peak_rss_mib", 12.0, "MiB");
        let line = r.json_line(END_TO_END, false).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"op_cost_p50_ms\": {\"value\": 0.5, \"unit\": \"ms\"}, \
             \"peak_rss_mib\": {\"value\": 12.0, \"unit\": \"MiB\"}}}"
        );
        r.wrong("bad hit");
        assert!(r
            .json_line(END_TO_END, false)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
        assert!(Report::default().json_line(END_TO_END, false).is_err());
        assert!(Report::default()
            .json_line(&[("bad name", "ms")], true)
            .is_err());
        let layers = Report::default().json_line(PER_LAYER, true).unwrap();
        assert!(layers.contains("\"serve.wire_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
    }

    #[test]
    fn refused_tails_become_context() {
        let mut r = Report::default();
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        r.tail("query_p90_ms", &few, 0.9, "ms");
        assert_eq!(r.get("query_p90_ms"), None);
        assert!(r
            .human_lines()
            .iter()
            .any(|l| l.contains("query_p90_ms.refused") && l.ends_with("highest supported: p50")));
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        r.tail("query_p90_ms", &many, 0.9, "ms");
        assert_eq!(r.get("query_p90_ms"), Some(179.0));
    }
}
