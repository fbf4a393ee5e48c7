//! Per-request tracing: every protocol request carries a trace id and,
//! when asked, a per-stage timing breakdown.
//!
//! A [`TraceCtx`] lives on the connection thread for the duration of one
//! request. It owns a single monotonic timeline anchored at request
//! receipt — the arrival of the frame's 4-byte length prefix, so reading
//! the body and decoding it are the first stage ([`STAGE_WIRE_DECODE`]):
//! [`TraceCtx::mark`] closes the interval since the previous
//! mark and attributes it to a named stage, so the stage durations are
//! consecutive, non-overlapping sub-intervals — their sum can never
//! exceed the request's total latency. Work that happens on another
//! thread (queue wait, worker execution) is measured there and folded in
//! with [`TraceCtx::add_stage`], which clamps each interval to the
//! still-unattributed wait on this timeline, so the invariant holds end
//! to end even against a misreported external measurement.
//!
//! Trace ids are client-supplied (echoed verbatim) or server-generated:
//! `t-<pid>-<counter>` from one process-wide atomic, so ids are unique
//! within a server and stable enough to grep across client and server
//! logs without a randomness dependency.

use crate::protocol::{StageTiming, TraceReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Stage label for reading a request frame's body off the socket and
/// decoding its JSON, from the arrival of the length prefix.
pub const STAGE_WIRE_DECODE: &str = "wire_decode";
/// Stage label for time spent validating and canonicalising a request.
pub const STAGE_ADMISSION: &str = "admission";
/// Stage label for the result-cache lookup.
pub const STAGE_CACHE: &str = "cache_lookup";
/// Stage label for time spent queued behind the worker pool.
pub const STAGE_QUEUE_WAIT: &str = "queue_wait";
/// Stage label for index search on a worker thread.
pub const STAGE_EXECUTE: &str = "index_search";
/// Stage label for WAL append inside a durable ingest.
pub const STAGE_STORE_APPEND: &str = "store_append";
/// Stage label for rebuilding index structures during ingest.
pub const STAGE_BUILD: &str = "index_build";
/// Stage label for time spent waiting on the writer mutex — the narrowed
/// critical section starts when this stage closes, so slow-query
/// breakdowns separate lock contention from actual write work.
pub const STAGE_WRITER_WAIT: &str = "writer_wait";
/// Stage label for the epoch swap that publishes a new generation.
pub const STAGE_PUBLISH: &str = "epoch_publish";

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Generates a process-unique server-side trace id.
fn generate_id() -> String {
    let n = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    format!("t-{}-{n:06}", std::process::id())
}

/// Timing context for one in-flight request.
#[derive(Debug)]
pub struct TraceCtx {
    id: String,
    detail: bool,
    started: Instant,
    last_mark: Instant,
    stages: Vec<StageTiming>,
}

impl TraceCtx {
    /// Starts a trace. `id` echoes the client's trace id when supplied;
    /// otherwise a server-side id is generated. `detail` controls whether
    /// a per-stage breakdown is recorded and returned on the wire.
    pub fn begin(id: Option<String>, detail: bool) -> Self {
        Self::begin_at(id, detail, Instant::now())
    }

    /// Starts a trace whose timeline is anchored at `started`, an instant
    /// already past (when the request's frame began to arrive); the first
    /// [`Self::mark`] attributes everything since then.
    pub fn begin_at(id: Option<String>, detail: bool, started: Instant) -> Self {
        TraceCtx {
            id: id.filter(|s| !s.is_empty()).unwrap_or_else(generate_id),
            detail,
            started,
            last_mark: started,
            stages: Vec::new(),
        }
    }

    /// The trace id echoed in the response.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Whether the client asked for a per-stage breakdown.
    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Closes the interval since the previous mark and attributes it to
    /// `stage`. Marks share one timeline, so recorded stages can never
    /// sum past the total.
    pub fn mark(&mut self, stage: &str) {
        let now = Instant::now();
        let nanos = now.duration_since(self.last_mark).as_nanos() as u64;
        self.last_mark = now;
        self.push(stage, nanos);
    }

    /// Folds in a stage measured elsewhere (worker thread). The interval
    /// is clamped to the still-unattributed time since the last mark and
    /// consumed from the timeline, so even a misreported external clock
    /// cannot push the stage sum past the request total.
    pub fn add_stage(&mut self, stage: &str, nanos: u64) {
        let now = Instant::now();
        let available = now.duration_since(self.last_mark).as_nanos() as u64;
        let nanos = nanos.min(available);
        self.last_mark += std::time::Duration::from_nanos(nanos);
        self.push(stage, nanos);
    }

    fn push(&mut self, stage: &str, nanos: u64) {
        if !self.detail {
            return;
        }
        self.stages.push(StageTiming {
            stage: stage.to_string(),
            micros: nanos / 1_000,
        });
    }

    /// Total nanoseconds since the trace began.
    pub fn elapsed_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Snapshot of the recorded stages (empty without the detail flag).
    pub fn stages(&self) -> &[StageTiming] {
        &self.stages
    }

    /// Builds the wire report: trace id, total latency, and the stage
    /// breakdown when the detail flag was set.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            trace_id: self.id.clone(),
            total_micros: self.elapsed_nanos() / 1_000,
            stages: self.stages.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn generated_ids_are_unique_and_prefixed() {
        let a = TraceCtx::begin(None, false);
        let b = TraceCtx::begin(None, false);
        assert_ne!(a.id(), b.id());
        assert!(a.id().starts_with("t-"));
    }

    #[test]
    fn client_id_is_echoed_verbatim() {
        let t = TraceCtx::begin(Some("req-42".to_string()), true);
        assert_eq!(t.id(), "req-42");
        assert_eq!(t.report().trace_id, "req-42");
    }

    #[test]
    fn empty_client_id_falls_back_to_generated() {
        let t = TraceCtx::begin(Some(String::new()), false);
        assert!(t.id().starts_with("t-"));
    }

    #[test]
    fn stage_sum_never_exceeds_total() {
        let mut t = TraceCtx::begin(None, true);
        std::thread::sleep(Duration::from_millis(2));
        t.mark(STAGE_ADMISSION);
        std::thread::sleep(Duration::from_millis(2));
        t.mark(STAGE_CACHE);
        t.add_stage(STAGE_EXECUTE, 500_000);
        let report = t.report();
        assert_eq!(report.stages.len(), 3);
        let sum: u64 = report.stages.iter().map(|s| s.micros).sum();
        assert!(
            sum <= report.total_micros,
            "stage sum {sum} > total {}",
            report.total_micros
        );
    }

    #[test]
    fn begin_at_attributes_the_time_before_the_trace_object_existed() {
        let arrived = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let mut t = TraceCtx::begin_at(None, true, arrived);
        t.mark(STAGE_WIRE_DECODE);
        let report = t.report();
        assert_eq!(report.stages[0].stage, STAGE_WIRE_DECODE);
        assert!(report.stages[0].micros >= 2_000, "{:?}", report.stages);
        assert!(report.stages[0].micros <= report.total_micros);
    }

    #[test]
    fn detail_flag_gates_the_breakdown() {
        let mut t = TraceCtx::begin(None, false);
        t.mark(STAGE_ADMISSION);
        t.add_stage(STAGE_EXECUTE, 1_000);
        assert!(t.report().stages.is_empty());
    }
}
