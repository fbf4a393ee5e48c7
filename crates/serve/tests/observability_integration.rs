//! Live-server observability, end to end over TCP: trace-id echo and
//! generation, per-stage breakdowns whose sum stays within the total,
//! the `Metrics` verb's rolling-window snapshot, cache/overload counter
//! surfacing, and the slow-query log under an induced queue backlog.

use medvid_index::VideoDatabase;
use medvid_obs::Recorder;
use medvid_serve::trace::{STAGE_CACHE, STAGE_EXECUTE, STAGE_QUEUE_WAIT, STAGE_WIRE_DECODE};
use medvid_serve::{
    spawn, Client, ErrorKind, IngestShot, QueryRequest, Response, ServerConfig, ServerHandle,
    SlowQueryRecord, TraceReport,
};
use medvid_types::{EventKind, ShotId, VideoId};
use std::time::Duration;

const DIMS: usize = 266;

fn shot(i: usize) -> IngestShot {
    // Scene-node ids are deterministic for the standard medical taxonomy,
    // so a client-side copy of the hierarchy names valid server nodes.
    let scenes = VideoDatabase::medical().hierarchy().scene_nodes();
    let mut features = vec![0.0f32; DIMS];
    features[i % DIMS] = 1.0;
    IngestShot {
        video: VideoId(7),
        shot: ShotId(i),
        features,
        event: EventKind::Dialog,
        scene_node: scenes[i % scenes.len()],
    }
}

fn serve() -> (ServerHandle, Client) {
    serve_with(ServerConfig::default())
}

fn serve_with(config: ServerConfig) -> (ServerHandle, Client) {
    let handle =
        spawn(VideoDatabase::medical(), config, Recorder::disabled()).expect("bind loopback");
    let client = Client::connect(handle.addr(), Duration::from_secs(10)).expect("connect");
    (handle, client)
}

fn probe_vector(seed: usize) -> Option<Vec<f32>> {
    let mut v = vec![0.0f32; DIMS];
    v[seed % DIMS] = 1.0;
    Some(v)
}

fn query(trace_id: Option<&str>, trace: bool, seed: usize) -> QueryRequest {
    QueryRequest {
        vector: probe_vector(seed),
        trace_id: trace_id.map(str::to_string),
        trace,
        ..QueryRequest::default()
    }
}

fn assert_stage_sum_within_total(report: &TraceReport) {
    assert_eq!(
        report.stages.first().map(|s| s.stage.as_str()),
        Some(STAGE_WIRE_DECODE),
        "the trace starts when the frame arrives, so decoding it is the first stage"
    );
    let sum: u64 = report.stages.iter().map(|s| s.micros).sum();
    assert!(
        sum <= report.total_micros,
        "stage sum {sum}us exceeds total {}us: {:?}",
        report.total_micros,
        report.stages
    );
}

#[test]
fn trace_ids_echo_verbatim_or_generate() {
    let (handle, mut client) = serve();
    let shots: Vec<_> = (0..4).map(shot).collect();
    match client
        .ingest_traced(shots, Some("ing-1".into()))
        .expect("ingest")
    {
        Response::Ingested {
            accepted,
            trace_id,
            trace,
            ..
        } => {
            assert_eq!(accepted, 4);
            assert_eq!(trace_id.as_deref(), Some("ing-1"));
            let report = trace.expect("traced ingest returns a breakdown");
            assert!(!report.stages.is_empty(), "ingest stages recorded");
            assert_stage_sum_within_total(&report);
        }
        other => panic!("expected Ingested, got {other:?}"),
    }

    // A client-supplied id is echoed verbatim, without the detail payload
    // unless asked.
    match client.query(query(Some("q-alpha"), false, 0)).expect("query") {
        Response::Results {
            trace_id, trace, ..
        } => {
            assert_eq!(trace_id.as_deref(), Some("q-alpha"));
            assert!(trace.is_none(), "untraced query must not carry stages");
        }
        other => panic!("expected Results, got {other:?}"),
    }

    // No id supplied: the server mints one.
    match client.query(query(None, false, 1)).expect("query") {
        Response::Results { trace_id, .. } => {
            let id = trace_id.expect("server-generated id present");
            assert!(
                id.starts_with("t-") && !id.is_empty(),
                "generated id {id:?} must be non-empty and prefixed"
            );
        }
        other => panic!("expected Results, got {other:?}"),
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn traced_query_breakdown_nests_inside_total_latency() {
    let (handle, mut client) = serve();
    let shots: Vec<_> = (0..6).map(shot).collect();
    client.ingest(shots).expect("ingest");

    // Cold query: a cache miss runs on the worker pool, so the breakdown
    // carries both halves of the admission split.
    let report = match client.query(query(Some("q-cold"), true, 3)).expect("query") {
        Response::Results { cached, trace, .. } => {
            assert!(!cached, "first probe cannot be cached");
            trace.expect("trace requested")
        }
        other => panic!("expected Results, got {other:?}"),
    };
    let stages: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    assert!(
        stages.contains(&STAGE_QUEUE_WAIT) && stages.contains(&STAGE_EXECUTE),
        "cache miss must show queue wait and index search, got {stages:?}"
    );
    assert_stage_sum_within_total(&report);

    // Same canonical query again: answered from the cache, so the
    // breakdown stops at the lookup — no worker stages.
    let report = match client.query(query(Some("q-warm"), true, 3)).expect("query") {
        Response::Results { cached, trace, .. } => {
            assert!(cached, "repeat probe must hit the cache");
            trace.expect("trace requested")
        }
        other => panic!("expected Results, got {other:?}"),
    };
    let stages: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    assert!(
        stages.contains(&STAGE_CACHE),
        "cache hit must show the lookup stage, got {stages:?}"
    );
    assert!(
        !stages.contains(&STAGE_EXECUTE),
        "cache hit must not reach the workers, got {stages:?}"
    );
    assert_stage_sum_within_total(&report);
    handle.shutdown();
    handle.join();
}

#[test]
fn metrics_verb_reports_the_rolling_window() {
    let (handle, mut client) = serve();
    client.ingest((0..4).map(shot).collect()).expect("ingest");
    for i in 0..8 {
        // Half the probes repeat, so the window sees hits and misses.
        client.query(query(None, false, i / 2)).expect("query");
    }
    let snapshot = match client.metrics().expect("metrics round-trip") {
        Response::Metrics { snapshot } => snapshot,
        other => panic!("expected Metrics, got {other:?}"),
    };
    assert_eq!(snapshot.schema, "medvid-obs/v2");
    assert_eq!(snapshot.protocol, "medvid-serve/v1");
    assert!(snapshot.records >= 4, "ingested records visible");
    assert!(snapshot.window.requests >= 9, "window saw the traffic");
    assert!(snapshot.window.qps > 0.0, "qps computed over a live window");
    assert!(snapshot.window.p99_ms >= snapshot.window.p50_ms);
    assert!(snapshot.window.cache_hits >= 1, "repeat probes hit");
    assert!(snapshot.window.cache_misses >= 1, "cold probes missed");
    assert!(snapshot.store.is_none(), "in-memory server has no store");
    assert!(snapshot.slow_threshold_ms > 0.0);

    // The same snapshot renders as Prometheus text without the server's
    // help, so scrape bridges can live client-side.
    let text = snapshot.render_prometheus();
    for series in [
        "medvid_window_qps",
        "medvid_window_latency_p99_ms",
        "medvid_cache_entries",
        "medvid_executor_queue_depth",
    ] {
        assert!(text.contains(series), "prometheus text missing {series}");
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn stats_surface_cache_and_overload_counters() {
    let (handle, mut client) = serve_with(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    client.ingest((0..4).map(shot).collect()).expect("ingest");
    // One miss, one hit on the same canonical query.
    client.query(query(None, false, 2)).expect("cold");
    client.query(query(None, false, 2)).expect("warm");

    // Saturate the single worker (first occupant runs) and the one-slot
    // queue (second occupant waits); a further query must then be shed.
    // Delayed queries bypass the cache, so both really reach the pool.
    let addr = handle.addr();
    let occupy = |delay: u64| {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
            let req = QueryRequest {
                delay_ms: Some(delay),
                ..QueryRequest::default()
            };
            c.query(req).expect("delayed query answers")
        })
    };
    let first = occupy(800);
    std::thread::sleep(Duration::from_millis(100));
    let second = occupy(600);
    std::thread::sleep(Duration::from_millis(100));
    let mut rejected_seen = false;
    for attempt in 0..5 {
        // Fresh cache keys per attempt, so an executed probe cannot turn
        // later attempts into cache hits that never reach the queue.
        let resp = client
            .query(query(None, false, 90 + attempt))
            .expect("overload probe answers");
        if let Response::Error { kind, .. } = resp {
            assert_eq!(kind, ErrorKind::Overloaded);
            rejected_seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    // On a pathologically scheduled host the shed request may have been
    // the second occupant instead of a probe; either proves the path.
    for h in [first, second] {
        if let Response::Error { kind, .. } = h.join().expect("occupant thread") {
            assert_eq!(kind, ErrorKind::Overloaded);
            rejected_seen = true;
        }
    }
    assert!(rejected_seen, "full queue must shed load with Overloaded");

    match client.stats().expect("stats") {
        Response::Stats {
            cache, executor, ..
        } => {
            assert!(cache.hits >= 1, "cache hit counter surfaced");
            assert!(cache.misses >= 1, "cache miss counter surfaced");
            assert!(executor.rejected >= 1, "overload rejection surfaced");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    handle.shutdown();
    handle.join();
}

fn slow_records(client: &mut Client, drain: bool) -> Vec<SlowQueryRecord> {
    match client.slow_queries(drain).expect("slow_queries") {
        Response::SlowQueries { records } => records,
        other => panic!("expected SlowQueries, got {other:?}"),
    }
}

#[test]
fn slow_log_attributes_queue_backlog_and_stays_bounded() {
    // One worker, a permissive queue, and a threshold far below the
    // induced delay: a fast query stuck behind a slow one must land in
    // the log with queue wait dominating its breakdown.
    let (handle, mut client) = serve_with(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        slow_query_threshold: Duration::from_millis(40),
        slow_log_capacity: 2,
        deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    client.ingest((0..4).map(shot).collect()).expect("ingest");
    let addr = handle.addr();
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
        let req = QueryRequest {
            delay_ms: Some(250),
            trace_id: Some("blocker".into()),
            ..QueryRequest::default()
        };
        c.query(req).expect("blocker completes")
    });
    std::thread::sleep(Duration::from_millis(80));
    // The victim does no slow work of its own — all its latency is queue.
    client.query(query(Some("victim"), false, 0)).expect("victim");
    blocker.join().expect("blocker thread");

    let records = slow_records(&mut client, false);
    let victim = records
        .iter()
        .find(|r| r.trace_id == "victim")
        .expect("queue-delayed query logged as slow");
    assert!(victim.total_ms >= 40.0, "victim latency past the threshold");
    let queue_wait = victim
        .stages
        .iter()
        .find(|s| s.stage == STAGE_QUEUE_WAIT)
        .map(|s| s.micros)
        .expect("breakdown recorded without the client trace flag");
    assert!(
        victim.stages.iter().all(|s| s.micros <= queue_wait),
        "queue wait must dominate the victim's stages: {:?}",
        victim.stages
    );

    // The log is a bounded ring: three more slow queries through a
    // capacity-2 log keep only the newest two, oldest first.
    for id in ["s1", "s2", "s3"] {
        let req = QueryRequest {
            delay_ms: Some(60),
            trace_id: Some(id.into()),
            ..QueryRequest::default()
        };
        client.query(req).expect("slow probe");
    }
    let ids: Vec<String> = slow_records(&mut client, false)
        .into_iter()
        .map(|r| r.trace_id)
        .collect();
    assert_eq!(ids, vec!["s2", "s3"], "oldest entries evicted in order");

    // Draining empties the log server-side.
    assert!(!slow_records(&mut client, true).is_empty());
    assert!(slow_records(&mut client, false).is_empty(), "drained");
    handle.shutdown();
    handle.join();
}
