//! The `medvid-serve/v1` wire protocol.
//!
//! Frames are a 4-byte big-endian length prefix followed by that many bytes
//! of JSON. One request frame yields exactly one response frame, so clients
//! can pipeline over a single connection without correlation ids.

use medvid_index::{NodeId, PlannedPath, RetrievalStats, Strategy};
use medvid_types::{EventKind, ShotId, VideoId};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::time::Instant;

/// Protocol identifier, reported by [`Response::Stats`].
pub const PROTOCOL_VERSION: &str = "medvid-serve/v1";

/// Upper bound on a frame body; larger prefixes are treated as corruption
/// so a garbage length cannot make the server allocate gigabytes.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Retrieval path selector on the wire ([`Strategy`] itself is not serde).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WireStrategy {
    /// Cluster-based hierarchical retrieval (Eq. 25).
    #[default]
    Hierarchical,
    /// Exhaustive flat scan (Eq. 24).
    Flat,
    /// Live Eq. 24–25 cost planning (exact, flat-identical results).
    Planned,
}

impl From<WireStrategy> for Strategy {
    fn from(w: WireStrategy) -> Self {
        match w {
            WireStrategy::Hierarchical => Strategy::Hierarchical,
            WireStrategy::Flat => Strategy::Flat,
            WireStrategy::Planned => Strategy::Planned,
        }
    }
}

/// [`PlannedPath`] on the wire. Serde-defaulted to `Unplanned`, so
/// pre-planner peers interoperate unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WirePlannedPath {
    /// No planner decision (explicit strategy).
    #[default]
    Unplanned,
    /// The planner ran the quantized flat scan.
    QuantizedFlat,
    /// The planner ran the best-first descent.
    BestFirst,
}

impl From<PlannedPath> for WirePlannedPath {
    fn from(p: PlannedPath) -> Self {
        match p {
            PlannedPath::Unplanned => WirePlannedPath::Unplanned,
            PlannedPath::QuantizedFlat => WirePlannedPath::QuantizedFlat,
            PlannedPath::BestFirst => WirePlannedPath::BestFirst,
        }
    }
}

/// A retrieval request. All fields are optional filters, mirroring the
/// fluent [`medvid_index::Query`] builder.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Query-by-example feature vector (dimensionality must match the
    /// database's records).
    #[serde(default)]
    pub vector: Option<Vec<f32>>,
    /// Keep only shots of this mined event category.
    #[serde(default)]
    pub event: Option<EventKind>,
    /// Keep only shots under this concept node's subtree.
    #[serde(default)]
    pub under: Option<NodeId>,
    /// Apply access control at this clearance level.
    #[serde(default)]
    pub clearance: Option<u8>,
    /// Maximum results (server default applies when absent).
    #[serde(default)]
    pub limit: Option<usize>,
    /// Retrieval path (default hierarchical).
    #[serde(default)]
    pub strategy: Option<WireStrategy>,
    /// Artificial execution delay, for load tests and admission-control
    /// exercises only — production clients leave this unset.
    #[serde(default)]
    pub delay_ms: Option<u64>,
    /// Client-supplied trace id, echoed in the response; the server
    /// generates one when absent.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace_id: Option<String>,
    /// Request a per-stage timing breakdown in the response.
    #[serde(default)]
    pub trace: bool,
}

/// One shot to ingest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestShot {
    /// Owning video.
    pub video: VideoId,
    /// Shot within that video.
    pub shot: ShotId,
    /// Concatenated feature vector.
    pub features: Vec<f32>,
    /// Mined event of the owning scene.
    pub event: EventKind,
    /// Scene-level concept node to index under.
    pub scene_node: NodeId,
}

/// A client request.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Request {
    /// Run a retrieval.
    Query(QueryRequest),
    /// Add shots; the server rebuilds off to the side and swaps epochs.
    Ingest {
        /// The shots to index.
        shots: Vec<IngestShot>,
        /// Client-supplied trace id, echoed in the response.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        trace_id: Option<String>,
        /// Request a per-stage timing breakdown in the response.
        #[serde(default)]
        trace: bool,
        /// Cluster-topology epoch the sender routed under. A fenced node
        /// (one that lost leadership of its shard) refuses writes carrying
        /// an older epoch with [`ErrorKind::Fenced`], so a resurrected old
        /// primary can never acknowledge a write the promoted leader does
        /// not have. Absent for standalone (non-cluster) clients, which
        /// are never fenced.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        topology_epoch: Option<u64>,
    },
    /// Server statistics (epoch, cache, executor, protocol version).
    Stats,
    /// Live rolling-window metrics snapshot (`medvid-obs/v2`): recent
    /// qps, latency quantiles, cache and executor health, store status.
    Metrics,
    /// Contents of the in-memory slow-query log, oldest first.
    SlowQueries {
        /// Also empty the log server-side after reading it.
        #[serde(default)]
        drain: bool,
    },
    /// Persist the current epoch's database as JSON at a server-side path.
    Snapshot {
        /// Target path on the server's filesystem.
        path: String,
    },
    /// Replace the serving database with a snapshot loaded from a
    /// server-side path. The swap bumps the epoch (it never resets), so
    /// every cached result keyed to the old generation is invalidated.
    Restore {
        /// Snapshot path on the server's filesystem.
        path: String,
    },
    /// Begin a graceful drain: in-flight work completes, then the server
    /// stops accepting connections.
    Shutdown,
    /// Ship a suffix of the durable write-ahead log (WAL-shipping
    /// replication). A follower sends its highest applied sequence number;
    /// the leader answers with [`Response::LogSegment`] carrying every
    /// durable record past it — plus a full checkpoint snapshot when the
    /// follower is so far behind that the leader's WAL no longer holds its
    /// resume point (checkpoints truncate the log).
    FetchLog {
        /// Highest sequence number the follower has applied (0 = nothing).
        from_seq: u64,
        /// Cap on records per segment; the leader applies its own default
        /// when absent. Catch-up loops until `applied == leader last_seq`.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        max_records: Option<usize>,
    },
    /// Raise this node's fence epoch (control-plane verb). Once fenced at
    /// epoch `e`, the node refuses every ingest carrying a topology epoch
    /// `< e` — the mechanism that silences a resurrected old primary after
    /// its shard promoted a replica or split. The fence only ever rises;
    /// a lower epoch is a no-op.
    Fence {
        /// Minimum topology epoch future ingests must carry.
        epoch: u64,
    },
    /// Promote this node to shard leader at the given topology epoch
    /// (control-plane verb): fences the node at `topology_epoch` and marks
    /// its replication role as leader. The heavy lifting of a real
    /// promotion — reopening the shipped WAL as the write side — happens
    /// in-process on the control plane; this verb is the wire-visible
    /// state flip for already-durable nodes.
    Promote {
        /// Topology epoch of the promotion (becomes the fence).
        topology_epoch: u64,
    },
    /// Enqueue background work on the server's durable job queue
    /// (answered with [`Response::JobSubmitted`] as soon as the
    /// submission record is logged — the work itself runs on the job
    /// worker and lands as later epoch bumps).
    SubmitJob {
        /// What to run.
        kind: WireJobKind,
    },
    /// Job status: one job by id, or the whole queue when `id` is absent.
    JobStatus {
        /// The job to describe; `None` lists every job.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        id: Option<u64>,
    },
}

/// A job submission on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WireJobKind {
    /// Re-run the full PCS/merge fit over the drifted index and publish
    /// the rebuilt hierarchy as one epoch bump.
    Compaction,
    /// Index a batch of mined shots as checkpointed background work.
    Ingest {
        /// The shots to index.
        shots: Vec<IngestShot>,
    },
}

/// Point-in-time status of one background job on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireJobStatus {
    /// Queue-assigned job id.
    pub id: u64,
    /// Kind name (`compaction` / `ingest`).
    pub kind: String,
    /// Phase name (`queued` / `leased` / `completed` / `failed`).
    pub state: String,
    /// Leases taken so far.
    pub attempts: u32,
    /// Last checkpointed step, when any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub step: Option<u32>,
    /// Last checkpointed progress cursor, when any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cursor: Option<u64>,
    /// Most recent error, when any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Pipeline version the job was submitted under.
    pub pipeline_version: u32,
}

/// Machine-readable error category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ErrorKind {
    /// The admission queue is full; retry with backoff.
    Overloaded,
    /// The request waited in the queue past its deadline.
    DeadlineExceeded,
    /// The request was malformed or referenced unknown entities.
    BadRequest,
    /// The server is draining and takes no new work.
    ShuttingDown,
    /// The durable storage layer failed (WAL append, checkpoint or
    /// snapshot I/O). The in-memory epoch is unchanged and the operation
    /// was not acknowledged. A failed WAL append poisons the store, so
    /// retrying the write is refused until the server restarts and
    /// recovers — blind client retries cannot corrupt the log.
    Store,
    /// The write carried a cluster-topology epoch older than this node's
    /// fence: the node lost leadership of its shard (a replica was
    /// promoted, or the shard split) and must not acknowledge writes
    /// routed under the stale topology. The write was not applied; the
    /// client should reload the topology and re-route.
    Fenced,
    /// Unexpected server-side failure.
    Internal,
}

/// One ranked hit on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hit {
    /// Owning video.
    pub video: VideoId,
    /// Shot within that video.
    pub shot: ShotId,
    /// Squared feature distance (0.0 for pure semantic queries).
    pub distance: f32,
}

/// Retrieval cost counters on the wire. The kernel/planner fields are
/// serde-defaulted so pre-planner peers interoperate unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Feature-distance evaluations performed.
    pub comparisons: usize,
    /// Candidates that entered ranking.
    pub ranked: usize,
    /// Index nodes visited.
    pub nodes_visited: usize,
    /// Total feature dimensions touched.
    pub dims_touched: usize,
    /// Sibling subtrees pruned.
    pub pruned_subtrees: usize,
    /// Records scanned by the quantized integer kernel.
    #[serde(default)]
    pub quantized_comparisons: usize,
    /// Quantized candidates re-ranked exactly in f32.
    #[serde(default)]
    pub rerank_candidates: usize,
    /// The planner's predicted `comparisons` (0 when unplanned).
    #[serde(default)]
    pub planner_estimated_comparisons: usize,
    /// Which path the planner chose, if it ran.
    #[serde(default)]
    pub planner_path: WirePlannedPath,
}

impl From<RetrievalStats> for WireStats {
    fn from(s: RetrievalStats) -> Self {
        WireStats {
            comparisons: s.comparisons,
            ranked: s.ranked,
            nodes_visited: s.nodes_visited,
            dims_touched: s.dims_touched,
            pruned_subtrees: s.pruned_subtrees,
            quantized_comparisons: s.quantized_comparisons,
            rerank_candidates: s.rerank_candidates,
            planner_estimated_comparisons: s.planner_estimated_comparisons,
            planner_path: s.planner_path.into(),
        }
    }
}

/// Cumulative retrieval-kernel activity, surfaced in [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnnKernelStats {
    /// Records scanned by the quantized integer kernel since startup.
    pub quantized_comparisons: u64,
    /// Quantized candidates re-ranked exactly in f32 since startup.
    pub rerank_candidates: u64,
    /// Planned queries sent down the quantized flat path.
    pub planner_flat_fallbacks: u64,
}

/// Result-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that went to the index.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Wholesale clears triggered by epoch swaps.
    pub invalidations: u64,
    /// Live entries.
    pub entries: usize,
    /// Capacity bound.
    pub capacity: usize,
}

/// Executor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorStats {
    /// Worker threads.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Jobs completed.
    pub executed: u64,
    /// Jobs refused because the queue was full.
    pub rejected: u64,
    /// Jobs abandoned because their deadline passed while queued.
    pub deadline_misses: u64,
}

/// One named stage of a traced request, in microseconds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (`admission`, `cache_lookup`, `queue_wait`,
    /// `index_search`, `store_append`, `index_build`).
    pub stage: String,
    /// Time spent in the stage, microseconds.
    pub micros: u64,
}

/// Per-request timing report, returned when the request set its `trace`
/// flag. The stages are non-overlapping sub-intervals of the request's
/// lifetime, so their sum never exceeds `total_micros`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReport {
    /// The request's trace id (client-supplied or server-generated).
    pub trace_id: String,
    /// End-to-end server-side latency, microseconds.
    pub total_micros: u64,
    /// Per-stage breakdown.
    pub stages: Vec<StageTiming>,
}

/// One entry of the server's bounded slow-query log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowQueryRecord {
    /// Trace id of the slow request.
    pub trace_id: String,
    /// End-to-end latency, milliseconds.
    pub total_ms: f64,
    /// Stage breakdown (empty when the request was not traced in detail —
    /// the server still records coarse stages for its own slow log).
    pub stages: Vec<StageTiming>,
    /// Compact description of the request ("query vector=1 limit=5 ..."),
    /// never the payload itself.
    pub shape: String,
    /// Epoch the request executed against.
    pub epoch: u64,
}

/// Rolling-window traffic summary: what happened over roughly the last
/// two minutes, not since startup.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WindowSummary {
    /// Wall-clock span the summary covers, seconds.
    pub span_secs: f64,
    /// Requests completed in the window.
    pub requests: u64,
    /// Requests that returned a typed error in the window.
    pub errors: u64,
    /// Requests per second over the window.
    pub qps: f64,
    /// Errors as a share of requests (0 when idle).
    pub error_rate: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Worst request latency in the window, milliseconds.
    pub max_ms: f64,
    /// 99th-percentile admission-queue wait, milliseconds.
    pub queue_p99_ms: f64,
    /// Result-cache hits in the window.
    pub cache_hits: u64,
    /// Result-cache misses in the window.
    pub cache_misses: u64,
    /// Hits as a share of lookups (0 when no lookups).
    pub cache_hit_rate: f64,
}

/// Replication health of a follower (or the leader's own view of its
/// log position), surfaced through [`MetricsSnapshot`] so `medvid top`
/// and the Prometheus exposition can graph catch-up progress.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationStatus {
    /// `"leader"` or `"follower"`.
    pub role: String,
    /// Highest durable sequence number the leader has acknowledged, as of
    /// the follower's last fetch (a leader reports its own last_seq).
    pub leader_seq: u64,
    /// Highest sequence number this node has applied.
    pub applied_seq: u64,
    /// `leader_seq - applied_seq`: records acknowledged upstream but not
    /// yet applied here. 0 means fully caught up as of the last fetch.
    pub lag: u64,
}

/// Job-queue health, surfaced through [`MetricsSnapshot`] so `medvid top`
/// and the Prometheus exposition can watch background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct JobsStatus {
    /// Jobs waiting to run.
    pub queued: u64,
    /// Jobs currently held by a worker.
    pub leased: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs terminally failed.
    pub failed: u64,
    /// Attempts re-queued after an explicit failure.
    pub retries: u64,
    /// Leases observed expired and handed to another worker.
    pub lease_expiries: u64,
    /// Compaction passes published.
    pub compactions: u64,
    /// Appends since the serving index's last full re-fit.
    pub drift: u64,
}

/// The live metrics snapshot answered to [`Request::Metrics`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Snapshot schema identifier
    /// ([`medvid_obs::report::LIVE_SCHEMA_VERSION`]).
    pub schema: String,
    /// Protocol identifier ([`PROTOCOL_VERSION`]).
    pub protocol: String,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Current epoch.
    pub epoch: u64,
    /// Indexed shots in the current epoch.
    pub records: usize,
    /// Rolling-window traffic summary.
    pub window: WindowSummary,
    /// Cumulative result-cache statistics.
    pub cache: CacheStats,
    /// Executor statistics (including live queue depth).
    pub executor: ExecutorStats,
    /// Durable-store health (WAL bytes/records/fsyncs, poisoned flag);
    /// absent for in-memory servers.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub store: Option<medvid_store::StoreStatus>,
    /// Entries currently held in the slow-query log.
    pub slow_queries: usize,
    /// Slow-query threshold, milliseconds.
    pub slow_threshold_ms: f64,
    /// Cumulative retrieval-kernel activity (quantized scans, re-ranks,
    /// planner fallbacks). Serde-defaulted for pre-planner peers.
    #[serde(default)]
    pub knn: KnnKernelStats,
    /// Shard identity of this server within a cluster; absent for
    /// standalone servers (and on the wire from pre-cluster servers).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard: Option<u32>,
    /// Replication health, present on replicating nodes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub replication: Option<ReplicationStatus>,
    /// Cluster-topology fence epoch, present once a control plane has
    /// fenced or promoted this node (ingests carrying an older epoch are
    /// refused with [`ErrorKind::Fenced`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fence_epoch: Option<u64>,
    /// Job-queue health, present on servers running a job worker (and
    /// absent on the wire from pre-jobs servers).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub jobs: Option<JobsStatus>,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` lines plus `name value` samples) so it can be scraped
    /// from the CLI without an HTTP endpoint.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, value: f64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge("medvid_uptime_seconds", "Server uptime", self.uptime_secs);
        gauge("medvid_epoch", "Current database epoch", self.epoch as f64);
        gauge(
            "medvid_records",
            "Indexed shots in the current epoch",
            self.records as f64,
        );
        let w = &self.window;
        gauge("medvid_window_qps", "Rolling-window requests/s", w.qps);
        gauge(
            "medvid_window_error_rate",
            "Rolling-window error share",
            w.error_rate,
        );
        gauge(
            "medvid_window_latency_p50_ms",
            "Rolling-window median latency",
            w.p50_ms,
        );
        gauge(
            "medvid_window_latency_p99_ms",
            "Rolling-window p99 latency",
            w.p99_ms,
        );
        gauge(
            "medvid_window_queue_wait_p99_ms",
            "Rolling-window p99 queue wait",
            w.queue_p99_ms,
        );
        gauge(
            "medvid_window_cache_hit_rate",
            "Rolling-window cache hit share",
            w.cache_hit_rate,
        );
        gauge(
            "medvid_cache_entries",
            "Live result-cache entries",
            self.cache.entries as f64,
        );
        gauge(
            "medvid_executor_queue_depth",
            "Requests waiting in the admission queue",
            self.executor.queue_depth as f64,
        );
        gauge(
            "medvid_executor_rejected_total",
            "Requests shed at admission since startup",
            self.executor.rejected as f64,
        );
        gauge(
            "medvid_slow_queries_logged",
            "Entries in the slow-query log",
            self.slow_queries as f64,
        );
        gauge(
            "medvid_knn_quantized_comparisons_total",
            "Records scanned by the quantized integer kernel",
            self.knn.quantized_comparisons as f64,
        );
        gauge(
            "medvid_knn_rerank_candidates_total",
            "Quantized candidates re-ranked exactly in f32",
            self.knn.rerank_candidates as f64,
        );
        gauge(
            "medvid_planner_flat_fallbacks_total",
            "Planned queries sent down the quantized flat path",
            self.knn.planner_flat_fallbacks as f64,
        );
        if let Some(shard) = self.shard {
            gauge(
                "medvid_shard",
                "Shard identity within the cluster",
                shard as f64,
            );
        }
        if let Some(rep) = &self.replication {
            gauge(
                "medvid_replication_leader_seq",
                "Leader's highest durable WAL sequence as of the last fetch",
                rep.leader_seq as f64,
            );
            gauge(
                "medvid_replication_applied_seq",
                "Highest WAL sequence applied locally",
                rep.applied_seq as f64,
            );
            gauge(
                "medvid_replication_lag",
                "Records acknowledged upstream but not yet applied here",
                rep.lag as f64,
            );
        }
        if let Some(jobs) = &self.jobs {
            gauge(
                "medvid_jobs_queue_depth",
                "Jobs waiting or running on the background queue",
                (jobs.queued + jobs.leased) as f64,
            );
            gauge(
                "medvid_jobs_completed_total",
                "Background jobs finished successfully",
                jobs.completed as f64,
            );
            gauge(
                "medvid_jobs_failed_total",
                "Background jobs terminally failed",
                jobs.failed as f64,
            );
            gauge(
                "medvid_jobs_retries_total",
                "Job attempts re-queued after a failure",
                jobs.retries as f64,
            );
            gauge(
                "medvid_jobs_lease_expiries_total",
                "Job leases that expired and were handed over",
                jobs.lease_expiries as f64,
            );
            gauge(
                "medvid_jobs_compactions_total",
                "Compaction passes published",
                jobs.compactions as f64,
            );
            gauge(
                "medvid_index_drift",
                "Appends since the serving index's last full re-fit",
                jobs.drift as f64,
            );
        }
        if let Some(store) = &self.store {
            gauge(
                "medvid_store_wal_bytes",
                "Write-ahead log size in bytes",
                store.wal_bytes as f64,
            );
            gauge(
                "medvid_store_wal_records",
                "Records in the write-ahead log",
                store.wal_records as f64,
            );
            gauge(
                "medvid_store_poisoned",
                "1 when the store refused writes after a failure",
                if store.poisoned.is_some() { 1.0 } else { 0.0 },
            );
        }
        out
    }
}

/// A server response.
// One short-lived value is built per request, so the size spread between
// `Metrics` (a full snapshot) and the small control variants costs
// nothing worth an indirection on the wire type.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Response {
    /// Retrieval results.
    Results {
        /// Epoch the query executed against.
        epoch: u64,
        /// Whether the result came from the cache.
        cached: bool,
        /// Ranked hits.
        hits: Vec<Hit>,
        /// Retrieval cost counters (of the original execution if cached).
        stats: WireStats,
        /// Trace id of the request (echoed or server-generated).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        trace_id: Option<String>,
        /// Per-stage timing, present when the request set its trace flag.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        trace: Option<TraceReport>,
    },
    /// Ingest acknowledged.
    Ingested {
        /// Shots accepted.
        accepted: usize,
        /// The new epoch.
        epoch: u64,
        /// Trace id of the request (echoed or server-generated).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        trace_id: Option<String>,
        /// Per-stage timing, present when the request set its trace flag.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        trace: Option<TraceReport>,
        /// Highest durable WAL sequence number after this ingest, present
        /// on durable servers. Coordinators running replicated acks wait
        /// until a follower's `applied_seq` reaches this before answering
        /// the client, so a promoted leader always holds every acked write.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        last_seq: Option<u64>,
    },
    /// Acknowledges [`Request::Fence`] / [`Request::Promote`] with the
    /// node's effective fence epoch after the raise.
    Fenced {
        /// The fence now in force (fences only rise).
        epoch: u64,
    },
    /// Server statistics.
    Stats {
        /// Protocol identifier ([`PROTOCOL_VERSION`]).
        protocol: String,
        /// Current epoch.
        epoch: u64,
        /// Indexed shots in the current epoch.
        records: usize,
        /// Result-cache statistics.
        cache: CacheStats,
        /// Executor statistics.
        executor: ExecutorStats,
        /// Durable-store metrics; absent when the server runs in-memory
        /// only (and on the wire from pre-store servers).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        store: Option<medvid_store::StoreStatus>,
    },
    /// Snapshot persisted.
    SnapshotWritten {
        /// Where it was written.
        path: String,
        /// Epoch that was persisted.
        epoch: u64,
    },
    /// Snapshot restored and swapped in as the serving database.
    Restored {
        /// The new (bumped, never reset) epoch.
        epoch: u64,
        /// Indexed shots in the restored database.
        records: usize,
    },
    /// Acknowledges [`Request::Shutdown`]; the connection closes after.
    Bye,
    /// Live rolling-window metrics, answering [`Request::Metrics`].
    Metrics {
        /// The snapshot.
        snapshot: MetricsSnapshot,
    },
    /// Slow-query log contents, answering [`Request::SlowQueries`].
    SlowQueries {
        /// Logged slow requests, oldest first.
        records: Vec<SlowQueryRecord>,
    },
    /// Typed failure.
    Error {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// Trace id of the failed request, when one was established
        /// before the failure.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        trace_id: Option<String>,
        /// Shard that produced the error, when the answering server (or a
        /// coordinator relaying for it) knows its cluster identity —
        /// coordinator degradation reports name the culprit with this.
        /// Serde-defaulted, so pre-cluster peers interoperate unchanged.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        shard: Option<u32>,
    },
    /// A suffix of the durable log, answering [`Request::FetchLog`].
    LogSegment {
        /// Shard identity of the answering leader, when configured.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        shard: Option<u32>,
        /// Sequence number the leader's newest checkpoint covers.
        checkpoint_seq: u64,
        /// Leader's highest durable sequence number (the lag watermark).
        last_seq: u64,
        /// Full checkpoint document, present when the requested
        /// `from_seq` predates the leader's checkpoint (the WAL no longer
        /// holds those records): the follower restores it, then replays
        /// `records` on top — the same checkpoint + suffix-replay path
        /// crash recovery uses.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        snapshot: Option<medvid_store::StoreCheckpoint>,
        /// Durable WAL records past the resume point, ascending by seq.
        records: Vec<medvid_store::WalRecord>,
    },
    /// A job was durably enqueued, answering [`Request::SubmitJob`].
    JobSubmitted {
        /// Queue-assigned job id, for later [`Request::JobStatus`] polls.
        id: u64,
    },
    /// Job statuses, answering [`Request::JobStatus`] (one entry for an
    /// id lookup that matched, empty for one that did not).
    Jobs {
        /// The matching jobs, ascending by id.
        jobs: Vec<WireJobStatus>,
    },
}

impl Response {
    /// Shorthand for an error response with no trace id.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Self {
        Response::Error {
            kind,
            message: message.into(),
            trace_id: None,
            shard: None,
        }
    }

    /// Shorthand for an error response carrying the request's trace id.
    pub fn traced_error(kind: ErrorKind, message: impl Into<String>, trace_id: &str) -> Self {
        Response::Error {
            kind,
            message: message.into(),
            trace_id: Some(trace_id.to_string()),
            shard: None,
        }
    }

    /// Stamps `shard` onto responses that carry a shard field and do not
    /// already name one (errors and log segments). Responses from servers
    /// that know their own shard win over a relaying coordinator's guess.
    pub fn stamp_shard(&mut self, shard: Option<u32>) {
        let Some(id) = shard else { return };
        match self {
            Response::Error { shard, .. } | Response::LogSegment { shard, .. }
                if shard.is_none() =>
            {
                *shard = Some(id);
            }
            _ => {}
        }
    }
}

/// Writes one length-prefixed frame, header and payload in a single
/// `write_all`. Two writes on a persistent TCP connection (a 4-byte
/// header, then the body) let Nagle's algorithm hold the body until the
/// peer's delayed ACK of the header fires — about 40 ms per direction.
///
/// # Errors
/// Propagates I/O failures; oversized payloads are `InvalidInput`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds limit", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Granularity of the frame-body read loop: the buffer grows chunk by
/// chunk as bytes actually arrive, so a lying length prefix on a
/// truncated stream costs at most one chunk of allocation, not the
/// claimed frame size.
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Reads one length-prefixed frame.
///
/// # Errors
/// Propagates I/O failures; a length prefix beyond [`MAX_FRAME_BYTES`] is
/// `InvalidData` (corrupt or hostile peer).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    read_frame_at(r).map(|(payload, _)| payload)
}

/// [`read_frame`], also returning the instant the 4-byte length prefix
/// finished arriving: the moment a request reached its reader, before
/// the body was read or decoded.
///
/// # Errors
/// As [`read_frame`].
fn read_frame_at<R: Read>(r: &mut R) -> io::Result<(Vec<u8>, Instant)> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let arrived = Instant::now();
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    let len = len as usize;
    let mut buf = Vec::with_capacity(len.min(READ_CHUNK_BYTES));
    while buf.len() < len {
        let chunk = (len - buf.len()).min(READ_CHUNK_BYTES);
        let start = buf.len();
        buf.resize(start + chunk, 0);
        r.read_exact(&mut buf[start..])?;
    }
    Ok((buf, arrived))
}

/// Serialises `msg` and writes it as one frame.
///
/// # Errors
/// Propagates I/O failures; serialisation failures are `InvalidData`.
pub fn send_message<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let payload = serde_json::to_vec(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(w, &payload)
}

/// Reads one frame and deserialises it.
///
/// # Errors
/// Propagates I/O failures; malformed payloads are `InvalidData`.
pub fn recv_message<R: Read, T: serde::de::DeserializeOwned>(r: &mut R) -> io::Result<T> {
    recv_message_at(r).map(|(msg, _)| msg)
}

/// [`recv_message`], also returning when the frame's length prefix
/// arrived (see [`read_frame_at`]), so a server can time reading the
/// body and decoding it.
///
/// # Errors
/// As [`recv_message`].
pub(crate) fn recv_message_at<R: Read, T: serde::de::DeserializeOwned>(
    r: &mut R,
) -> io::Result<(T, Instant)> {
    let (payload, arrived) = read_frame_at(r)?;
    let msg = serde_json::from_slice(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((msg, arrived))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &5u32.to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
    }

    /// A writer that counts `write` calls, as a socket sees them.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        // Header and payload in separate writes stall a persistent TCP
        // connection on Nagle's algorithm plus delayed ACK.
        for payload in [&b""[..], b"hello", &[7u8; 200_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(
                w.writes,
                1,
                "{}-byte payload took {} writes",
                payload.len(),
                w.writes
            );
            let mut cursor = std::io::Cursor::new(w.bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"xx");
        let mut cursor = std::io::Cursor::new(bytes);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// Offline builds may link a type-check-only serde_json stub whose
    /// runtime errors on every call; wire-compat tests need the real one.
    fn serde_runtime_available() -> bool {
        serde_json::to_vec(&0u8).is_ok()
    }

    #[test]
    fn pre_cluster_error_json_still_parses() {
        if !serde_runtime_available() {
            return;
        }
        // A pre-cluster peer sends errors without the shard field; it must
        // deserialise to `shard: None`, not a parse failure.
        let old = br#"{"type":"error","kind":"overloaded","message":"full"}"#;
        let resp: Response = serde_json::from_slice(old).unwrap();
        match resp {
            Response::Error { kind, shard, .. } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert_eq!(shard, None);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn stamp_shard_marks_errors_but_never_overwrites() {
        let mut resp = Response::error(ErrorKind::Store, "wal torn");
        resp.stamp_shard(Some(3));
        assert!(matches!(resp, Response::Error { shard: Some(3), .. }));
        // A shard already named by the origin server wins.
        resp.stamp_shard(Some(7));
        assert!(matches!(resp, Response::Error { shard: Some(3), .. }));
        // Non-error responses are untouched.
        let mut bye = Response::Bye;
        bye.stamp_shard(Some(1));
        assert!(matches!(bye, Response::Bye));
    }

    #[test]
    fn shardless_errors_serialise_without_the_field() {
        if !serde_runtime_available() {
            return;
        }
        let bytes = serde_json::to_vec(&Response::error(ErrorKind::Internal, "x")).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            !text.contains("shard"),
            "wire compatibility: absent shard must not serialise: {text}"
        );
    }

    #[test]
    fn pre_control_plane_ingest_json_still_parses() {
        if !serde_runtime_available() {
            return;
        }
        // A pre-control-plane client ingests without a routing epoch; it
        // must deserialise to `topology_epoch: None`, not a parse failure.
        let old = br#"{"type":"ingest","shots":[]}"#;
        let req: Request = serde_json::from_slice(old).unwrap();
        match req {
            Request::Ingest { topology_epoch, .. } => assert_eq!(topology_epoch, None),
            other => panic!("expected ingest, got {other:?}"),
        }
        // And a pre-control-plane server acks without a durable watermark.
        let old = br#"{"type":"ingested","accepted":3,"epoch":2}"#;
        let resp: Response = serde_json::from_slice(old).unwrap();
        match resp {
            Response::Ingested { last_seq, .. } => assert_eq!(last_seq, None),
            other => panic!("expected ingested, got {other:?}"),
        }
    }

    #[test]
    fn pre_control_plane_metrics_json_still_parses() {
        if !serde_runtime_available() {
            return;
        }
        // Round-trip a current snapshot, strip the fence field, and parse
        // as an old peer's answer: fence_epoch must default to None.
        let snapshot = MetricsSnapshot {
            schema: "test".to_string(),
            protocol: PROTOCOL_VERSION.to_string(),
            uptime_secs: 1.0,
            epoch: 1,
            records: 0,
            window: WindowSummary::default(),
            cache: CacheStats::default(),
            executor: ExecutorStats::default(),
            store: None,
            slow_queries: 0,
            slow_threshold_ms: 100.0,
            knn: KnnKernelStats::default(),
            shard: None,
            replication: None,
            fence_epoch: Some(3),
            jobs: None,
        };
        let text = String::from_utf8(serde_json::to_vec(&snapshot).unwrap()).unwrap();
        assert!(text.contains("\"fence_epoch\":3"), "snapshot carries the fence: {text}");
        let old_peer = text.replace(",\"fence_epoch\":3", "");
        let back: MetricsSnapshot = serde_json::from_slice(old_peer.as_bytes()).unwrap();
        assert_eq!(back.fence_epoch, None);
    }

    #[test]
    fn fence_verbs_roundtrip_on_the_wire() {
        if !serde_runtime_available() {
            return;
        }
        for req in [
            Request::Fence { epoch: 7 },
            Request::Promote { topology_epoch: 9 },
        ] {
            let bytes = serde_json::to_vec(&req).unwrap();
            let back: Request = serde_json::from_slice(&bytes).unwrap();
            match (&req, &back) {
                (Request::Fence { epoch: a }, Request::Fence { epoch: b }) => assert_eq!(a, b),
                (
                    Request::Promote { topology_epoch: a },
                    Request::Promote { topology_epoch: b },
                ) => assert_eq!(a, b),
                other => panic!("fence verb changed shape on the wire: {other:?}"),
            }
        }
        let bytes = serde_json::to_vec(&Response::Fenced { epoch: 7 }).unwrap();
        let back: Response = serde_json::from_slice(&bytes).unwrap();
        assert!(matches!(back, Response::Fenced { epoch: 7 }));
    }

    #[test]
    fn job_verbs_roundtrip_on_the_wire() {
        if !serde_runtime_available() {
            return;
        }
        let submit = Request::SubmitJob {
            kind: WireJobKind::Compaction,
        };
        let bytes = serde_json::to_vec(&submit).unwrap();
        let back: Request = serde_json::from_slice(&bytes).unwrap();
        assert!(matches!(
            back,
            Request::SubmitJob {
                kind: WireJobKind::Compaction
            }
        ));
        // An id-less status poll must not serialise the field (and an
        // explicit id must survive the roundtrip).
        let bytes = serde_json::to_vec(&Request::JobStatus { id: None }).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(!text.contains("\"id\""), "absent id must not serialise: {text}");
        let back: Request = serde_json::from_slice(text.as_bytes()).unwrap();
        assert!(matches!(back, Request::JobStatus { id: None }));
        let bytes = serde_json::to_vec(&Request::JobStatus { id: Some(7) }).unwrap();
        let back: Request = serde_json::from_slice(&bytes).unwrap();
        assert!(matches!(back, Request::JobStatus { id: Some(7) }));

        let resp = Response::Jobs {
            jobs: vec![WireJobStatus {
                id: 1,
                kind: "ingest".to_string(),
                state: "leased".to_string(),
                attempts: 2,
                step: Some(3),
                cursor: Some(512),
                error: None,
                pipeline_version: 1,
            }],
        };
        let bytes = serde_json::to_vec(&resp).unwrap();
        let back: Response = serde_json::from_slice(&bytes).unwrap();
        match back {
            Response::Jobs { jobs } => {
                assert_eq!(jobs.len(), 1);
                assert_eq!(jobs[0].cursor, Some(512));
                assert_eq!(jobs[0].error, None);
            }
            other => panic!("expected jobs, got {other:?}"),
        }
    }

    #[test]
    fn pre_jobs_metrics_json_still_parses() {
        if !serde_runtime_available() {
            return;
        }
        // A jobless server's snapshot must not serialise the field, and a
        // pre-jobs peer's snapshot must deserialise to `jobs: None`.
        let snapshot = MetricsSnapshot {
            schema: "test".to_string(),
            protocol: PROTOCOL_VERSION.to_string(),
            uptime_secs: 1.0,
            epoch: 1,
            records: 0,
            window: WindowSummary::default(),
            cache: CacheStats::default(),
            executor: ExecutorStats::default(),
            store: None,
            slow_queries: 0,
            slow_threshold_ms: 100.0,
            knn: KnnKernelStats::default(),
            shard: None,
            replication: None,
            fence_epoch: None,
            jobs: None,
        };
        let text = String::from_utf8(serde_json::to_vec(&snapshot).unwrap()).unwrap();
        assert!(!text.contains("\"jobs\""), "absent jobs must not serialise: {text}");
        let back: MetricsSnapshot = serde_json::from_slice(text.as_bytes()).unwrap();
        assert_eq!(back.jobs, None);
    }

    #[test]
    fn epochless_ingest_serialises_without_the_field() {
        if !serde_runtime_available() {
            return;
        }
        let bytes = serde_json::to_vec(&Request::Ingest {
            shots: Vec::new(),
            trace_id: None,
            trace: false,
            topology_epoch: None,
        })
        .unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            !text.contains("topology_epoch"),
            "wire compatibility: absent routing epoch must not serialise: {text}"
        );
    }
}
