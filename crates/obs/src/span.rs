//! RAII stage spans with nested self-time attribution.

use crate::registry::MetricsRegistry;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// The instrumented stages of the ClassMiner pipeline (Fig. 3 plus the
/// database paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Shot-cut detection + representative-frame features (Sec. 3.1).
    ShotDetect,
    /// Group detection and classification (Sec. 3.2).
    GroupMine,
    /// Group merging into scenes (Sec. 3.4).
    SceneMerge,
    /// Pairwise Cluster Scheme over scenes (Sec. 3.5).
    PcsCluster,
    /// Audio mining: clip selection, speech classification, BIC tests
    /// (Sec. 4.2). Its work is broken down by [`Stage::AudioClipScore`],
    /// [`Stage::AudioMfcc`] and [`Stage::AudioBicTest`].
    AudioBic,
    /// Inside [`Stage::AudioBic`]: cutting a shot's clips, extracting each
    /// clip's 14 features and scoring it with the speech GMM.
    AudioClipScore,
    /// Inside [`Stage::AudioBic`]: MFCCs (and voiced frames) of a shot's
    /// representative clip.
    AudioMfcc,
    /// Inside [`Stage::AudioBic`]: one scene's BIC speaker-change tests
    /// between its speech shots.
    AudioBicTest,
    /// Visual-cue extraction from representative frames (Secs. 4.1, 4.3).
    VisualCues,
    /// Event decision rules over scene evidence (Sec. 4.3).
    EventRules,
    /// Hierarchical index construction (Sec. 2).
    IndexBuild,
    /// Query execution against the database (Sec. 6.2).
    Query,
    /// End-to-end handling of one serving request (`medvid-serve`): framing,
    /// cache lookup, queueing and response. Queue wait is included.
    ServeRequest,
    /// Query execution on a serving worker thread (the post-dequeue slice of
    /// a [`Stage::ServeRequest`]).
    ServeExec,
    /// One group-committed write-ahead-log append (`medvid-store`),
    /// including any fsync the policy demanded.
    StoreAppend,
    /// One checkpoint segment: atomic snapshot write plus WAL truncation
    /// (`medvid-store`).
    StoreCheckpoint,
    /// Crash recovery: checkpoint load plus WAL-tail replay
    /// (`medvid-store`).
    StoreRecover,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 17] = [
        Stage::ShotDetect,
        Stage::GroupMine,
        Stage::SceneMerge,
        Stage::PcsCluster,
        Stage::AudioBic,
        Stage::AudioClipScore,
        Stage::AudioMfcc,
        Stage::AudioBicTest,
        Stage::VisualCues,
        Stage::EventRules,
        Stage::IndexBuild,
        Stage::Query,
        Stage::ServeRequest,
        Stage::ServeExec,
        Stage::StoreAppend,
        Stage::StoreCheckpoint,
        Stage::StoreRecover,
    ];

    /// The stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ShotDetect => "shot_detect",
            Stage::GroupMine => "group_mine",
            Stage::SceneMerge => "scene_merge",
            Stage::PcsCluster => "pcs_cluster",
            Stage::AudioBic => "audio_bic",
            Stage::AudioClipScore => "audio_clip_score",
            Stage::AudioMfcc => "audio_mfcc",
            Stage::AudioBicTest => "audio_bic_test",
            Stage::VisualCues => "visual_cues",
            Stage::EventRules => "event_rules",
            Stage::IndexBuild => "index_build",
            Stage::Query => "query",
            Stage::ServeRequest => "serve_request",
            Stage::ServeExec => "serve_exec",
            Stage::StoreAppend => "store_append",
            Stage::StoreCheckpoint => "store_checkpoint",
            Stage::StoreRecover => "store_recover",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    /// Per-thread stack of child-time accumulators (nanoseconds), one frame
    /// per live enabled span on this thread.
    static CHILD_NANOS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An RAII guard timing one [`Stage`].
///
/// Created via [`crate::Recorder::span`]; records on drop. A span created
/// while another span on the same thread is live counts as that span's
/// child: the parent's *self* time excludes the child's wall-clock time.
/// Spans are expected to be dropped in LIFO order (the natural result of
/// lexical scoping); a disabled recorder yields an inert span with no clock
/// reads at all.
#[derive(Debug)]
#[must_use = "a span records its stage timing when dropped"]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    registry: Arc<MetricsRegistry>,
    stage: Stage,
    start: Instant,
}

impl Span {
    /// An inert span that records nothing.
    pub fn disabled() -> Self {
        Span { active: None }
    }

    /// Starts timing `stage` against `registry`.
    pub fn enter(registry: Arc<MetricsRegistry>, stage: Stage) -> Self {
        CHILD_NANOS.with(|stack| stack.borrow_mut().push(0));
        Span {
            active: Some(ActiveSpan {
                registry,
                stage,
                start: Instant::now(),
            }),
        }
    }

    /// Whether this span is recording.
    pub fn is_enabled(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let total = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let child_nanos = CHILD_NANOS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let own = stack.pop().unwrap_or(0);
            // Attribute this span's full wall clock to the parent's children.
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(total);
            }
            own
        });
        let self_nanos = total.saturating_sub(child_nanos);
        active.registry.record_span(active.stage, total, self_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stage_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        assert_eq!(Stage::ShotDetect.to_string(), "shot_detect");
    }

    #[test]
    fn disabled_span_records_nothing() {
        let s = Span::disabled();
        assert!(!s.is_enabled());
        drop(s);
    }

    #[test]
    fn nested_spans_attribute_child_time_to_child() {
        let reg = Arc::new(MetricsRegistry::new());
        {
            let _outer = Span::enter(Arc::clone(&reg), Stage::EventRules);
            std::thread::sleep(Duration::from_millis(5));
            {
                let _inner = Span::enter(Arc::clone(&reg), Stage::AudioBic);
                std::thread::sleep(Duration::from_millis(20));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let outer = reg.stage(Stage::EventRules).unwrap();
        let inner = reg.stage(Stage::AudioBic).unwrap();
        let outer_total = outer.total.sum_nanos();
        let outer_self = outer.self_time.sum_nanos();
        let inner_total = inner.total.sum_nanos();
        // The outer span's total covers everything; its self time excludes
        // the inner span's 20 ms.
        assert!(outer_total >= inner_total);
        assert!(
            outer_self < inner_total,
            "outer self {outer_self} should exclude inner {inner_total}"
        );
        assert!(outer_self >= Duration::from_millis(8).as_nanos() as u64);
        assert_eq!(outer_total - outer_self, inner_total);
    }
}
