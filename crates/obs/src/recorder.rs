//! The cheap handle pipeline code records through.

use crate::registry::MetricsRegistry;
use crate::report::MiningReport;
use crate::span::{Span, Stage};
use std::sync::Arc;

/// A cloneable telemetry handle: either wired to a [`MetricsRegistry`] or
/// disabled.
///
/// Every instrumented pipeline entry point takes a `&Recorder`; the
/// uninstrumented public API passes [`Recorder::disabled`], which makes
/// every call a no-op — no clock reads, no allocation, no locking — so
/// instrumentation costs nothing when it is not wanted (the untraced
/// `perfbench` workloads run through this path).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    registry: Option<Arc<MetricsRegistry>>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Recorder { registry: None }
    }

    /// An enabled recorder over a fresh registry.
    pub fn new() -> Self {
        Recorder {
            registry: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// An enabled recorder over an existing (possibly shared) registry.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Recorder {
            registry: Some(registry),
        }
    }

    /// Whether this recorder is wired to a registry.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, if enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// Adds `by` to a named counter. No-op when disabled or `by == 0`.
    pub fn incr(&self, name: &'static str, by: u64) {
        if by == 0 {
            return;
        }
        if let Some(reg) = &self.registry {
            reg.incr(name, by);
        }
    }

    /// Records one sample into a named value histogram. No-op when disabled.
    pub fn record_value(&self, name: &'static str, value: u64) {
        if let Some(reg) = &self.registry {
            reg.record_value(name, value);
        }
    }

    /// Opens an RAII span timing `stage`; inert when disabled.
    pub fn span(&self, stage: Stage) -> Span {
        match &self.registry {
            Some(reg) => Span::enter(Arc::clone(reg), stage),
            None => Span::disabled(),
        }
    }

    /// Folds everything recorded here into `target`'s registry.
    ///
    /// No-op if either side is disabled. Used by parallel fan-outs to merge
    /// per-thread recorders into a shared one.
    pub fn merge_into(&self, target: &Recorder) {
        if let (Some(src), Some(dst)) = (&self.registry, &target.registry) {
            dst.merge_from(src);
        }
    }

    /// Snapshot of everything recorded so far as a [`MiningReport`]
    /// (unlabelled; empty when disabled).
    pub fn report(&self) -> MiningReport {
        match &self.registry {
            Some(reg) => MiningReport::from_registry(reg),
            None => MiningReport::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        rec.incr(counters::SHOTS_DETECTED, 5);
        let span = rec.span(Stage::ShotDetect);
        assert!(!span.is_enabled());
        drop(span);
        assert!(!rec.is_enabled());
        assert!(rec.report().is_empty());
    }

    #[test]
    fn enabled_recorder_counts_and_times() {
        let rec = Recorder::new();
        rec.incr(counters::SHOTS_DETECTED, 5);
        rec.incr(counters::SHOTS_DETECTED, 2);
        {
            let _s = rec.span(Stage::ShotDetect);
        }
        let reg = rec.registry().unwrap();
        assert_eq!(reg.counter(counters::SHOTS_DETECTED), 7);
        assert_eq!(reg.stage(Stage::ShotDetect).unwrap().total.count(), 1);
    }

    #[test]
    fn merge_into_combines_recorders() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.incr(counters::QUERIES_RUN, 1);
        b.incr(counters::QUERIES_RUN, 2);
        b.merge_into(&a);
        assert_eq!(a.registry().unwrap().counter(counters::QUERIES_RUN), 3);
        // Disabled sides are a no-op, not an error.
        b.merge_into(&Recorder::disabled());
        Recorder::disabled().merge_into(&a);
    }
}
