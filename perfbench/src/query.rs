//! `query_hot`: two closed-loop clients, each on one persistent
//! connection, querying a 32-vector hot set with skewed popularity
//! against one server over the 20 000-record archive. Strategy unset
//! (server default), limit 10. Once warm, nearly every query is a
//! result-cache hit, so the wire and `serve` dominate.
//!
//! Its traced run adds a scatter-gather probe over the same archive
//! (two hash-partitioned shards behind a `Coordinator`, unique `Planned`
//! queries, no cache hits) to measure the `knn`, `index` search and
//! `cluster` layers.

use crate::fixture::{archive_records, build_db, hot_set, perturb, seeded, Fixture, Zipf};
use crate::report::Report;
use crate::stats::{mean, median, percentile, sorted};
use crate::RunConfig;
use medvid_cluster::coordinator::merge_topk;
use medvid_cluster::{shard_of, ClusterTopology, Coordinator, CoordinatorConfig};
use medvid_index::{QueryResult, ShotRecord, VideoDatabase};
use medvid_obs::Recorder;
use medvid_serve::{
    Client, Hit, MetricsSnapshot, QueryRequest, Response, ServerConfig, ServerHandle, TraceReport,
    WireStrategy,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Hot-set size: fits the server's 256-entry result cache.
pub(crate) const HOT_SET: usize = 32;
/// Result limit of every query.
pub(crate) const LIMIT: usize = 10;
/// Shards of the scatter-gather probe.
pub(crate) const SHARDS: u32 = 2;
/// Share of queries whose answers are checked after the window.
const CHECK_SHARE: f64 = 1.0 / 16.0;
/// Cap on checked answers per client.
const CHECK_CAP: usize = 48;
/// Length of the scatter-gather probe in a traced `query_hot` run.
const SCAN_PROBE: Duration = Duration::from_secs(4);
/// Direct shard probes and in-process searches per scatter-gather probe.
const PROBES: usize = 100;
/// Client socket timeout.
pub(crate) const TIMEOUT: Duration = Duration::from_secs(30);

/// The mined corpus's database and the archive records built from it.
pub(crate) struct Archive {
    /// The mined corpus's own database (built).
    pub(crate) mined: VideoDatabase,
    /// Mined records plus seeded neighbours.
    pub(crate) records: Vec<ShotRecord>,
}

/// Mines the corpus once and derives the archive records from it. The
/// corpus itself is dropped: serving never needs the raw video.
pub(crate) fn archive(cfg: &RunConfig, report: &mut Report) -> Archive {
    let fx = Fixture::new(cfg.scale.corpus, report);
    let mut clock = Instant::now();
    let (mined, _) = fx.miner.index_corpus(&fx.corpus);
    report.lap("mining", &mut clock);
    let records = archive_records(&mined, cfg.scale.archive_records, cfg.seed);
    report.lap("neighbours", &mut clock);
    report.context("mined_records", mined.len());
    report.context("archive_records", records.len());
    Archive { mined, records }
}

/// Whether wire hits equal in-process results, bit for bit.
pub(crate) fn same_hits(wire: &[Hit], local: &[QueryResult]) -> bool {
    wire.len() == local.len()
        && wire.iter().zip(local).all(|(h, r)| {
            h.video == r.shot.video
                && h.shot == r.shot.shot
                && h.distance.to_bits() == r.distance.to_bits()
        })
}

/// The server's live metrics snapshot, over a fresh connection.
pub(crate) fn snapshot(addr: SocketAddr) -> MetricsSnapshot {
    let mut client = Client::connect(addr, TIMEOUT).expect("connect for metrics");
    match client.metrics().expect("metrics round trip") {
        Response::Metrics { snapshot } => snapshot,
        other => panic!("expected a metrics snapshot, got {other:?}"),
    }
}

/// Queries every hot vector once, each over a fresh connection, so the
/// result cache is warm before timing starts.
pub(crate) fn warm(addr: SocketAddr, hot: &[Vec<f32>]) {
    for v in hot {
        let mut client = Client::connect(addr, TIMEOUT).expect("connect to warm the cache");
        let response = client
            .query(hot_request(v.clone(), false))
            .expect("warm-up query");
        assert!(
            matches!(response, Response::Results { .. }),
            "warm-up query refused: {response:?}"
        );
    }
}

/// A hot-set query: strategy left to the server, limit [`LIMIT`].
pub(crate) fn hot_request(vector: Vec<f32>, trace: bool) -> QueryRequest {
    QueryRequest {
        vector: Some(vector),
        limit: Some(LIMIT),
        trace,
        ..QueryRequest::default()
    }
}

/// What one closed-loop client saw.
#[derive(Debug, Default)]
pub(crate) struct ClientRun {
    /// Client-observed latency of every answered query, ms.
    pub(crate) latency_ms: Vec<f64>,
    /// Client-observed µs and the server's trace, per traced answer.
    pub(crate) traces: Vec<(f64, TraceReport)>,
    /// Queries attempted.
    pub(crate) attempted: u64,
    /// Queries refused or failed.
    pub(crate) failed: u64,
    /// (hot-set index, hits) of the seeded sample checked afterwards.
    pub(crate) checked: Vec<(usize, Vec<Hit>)>,
}

impl ClientRun {
    /// Folds another client's run into this one.
    pub(crate) fn absorb(&mut self, other: ClientRun) {
        self.latency_ms.extend(other.latency_ms);
        self.traces.extend(other.traces);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked.extend(other.checked);
    }
}

/// One closed-loop client on one persistent connection, drawing hot-set
/// vectors by popularity until `until`.
pub(crate) fn hot_client(
    addr: SocketAddr,
    hot: &[Vec<f32>],
    rng: &mut StdRng,
    until: Instant,
    trace: bool,
) -> ClientRun {
    let zipf = Zipf::new(hot.len());
    let mut run = ClientRun::default();
    let mut client = Client::connect(addr, TIMEOUT).expect("connect");
    while Instant::now() < until {
        let v = zipf.pick(rng);
        let check = rng.gen::<f64>() < CHECK_SHARE && run.checked.len() < CHECK_CAP;
        run.attempted += 1;
        let request = hot_request(hot[v].clone(), trace);
        let t = Instant::now();
        let response = client.query(request);
        let elapsed = t.elapsed().as_secs_f64();
        match response {
            Ok(Response::Results {
                hits, trace: tr, ..
            }) => {
                run.latency_ms.push(elapsed * 1e3);
                if let Some(tr) = tr {
                    run.traces.push((elapsed * 1e6, tr));
                }
                if check {
                    run.checked.push((v, hits));
                }
            }
            Ok(_) => run.failed += 1,
            Err(_) => {
                run.failed += 1;
                client = Client::connect(addr, TIMEOUT).expect("reconnect");
            }
        }
    }
    run
}

/// Runs `clients` hot-set clients in parallel until `until`.
fn hot_phase(
    addr: SocketAddr,
    hot: &[Vec<f32>],
    seed: u64,
    phase: u64,
    until: Instant,
    trace: bool,
) -> ClientRun {
    let clients = host_cpus().min(2) as u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = seeded(seed, 100 + phase * 10 + c);
                    hot_client(addr, hot, &mut rng, until, trace)
                })
            })
            .collect();
        let mut all = ClientRun::default();
        for h in handles {
            all.absorb(h.join().expect("client thread"));
        }
        all
    })
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Records the client-observed query metrics of a phase that lasted
/// `secs`: p50, p90 (when supported), throughput, and the p50 of each
/// tenth of the phase. Returns the p50.
pub(crate) fn latency_metrics(report: &mut Report, latency_ms: &[f64], secs: f64) -> f64 {
    let s = sorted(latency_ms);
    let p50 = percentile(&s, 0.5).unwrap_or(0.0);
    let qps = s.len() as f64 / secs;
    report.context("query_samples", s.len());
    report.metric("query_p50_ms", p50, "ms");
    report.tail("query_p90_ms", &s, 0.9, "ms");
    report.metric("queries_per_s", qps, "1/s");
    let tenths: Vec<String> = latency_ms
        .chunks(latency_ms.len().div_ceil(10).max(1))
        .map(|c| format!("{:.3}", median(c)))
        .collect();
    report.context("query_p50_by_tenth_ms", tenths.join(" "));
    p50
}

/// Checks every traced request: stage sum ≤ server total ≤ client
/// latency. A request out of that order is a wrong result.
pub(crate) fn check_traces(report: &mut Report, traces: &[(f64, TraceReport)]) {
    for (client_us, t) in traces {
        let stages: u64 = t.stages.iter().map(|s| s.micros).sum();
        if stages > t.total_micros || t.total_micros as f64 > client_us.ceil() {
            report.wrong(format!(
                "trace {}: stage sum {stages} µs, server total {} µs, client {client_us:.0} µs out of order",
                t.trace_id, t.total_micros
            ));
        }
    }
}

/// Records the per-stage means of `traces` and the wire time: client
/// latency minus the server's own total.
pub(crate) fn trace_metrics(report: &mut Report, traces: &[(f64, TraceReport)]) {
    let stage = |t: &TraceReport, name: &str| -> f64 {
        t.stages
            .iter()
            .filter(|s| s.stage == name)
            .fold(0.0, |acc, s| acc + s.micros as f64)
    };
    let per =
        |f: &dyn Fn(&(f64, TraceReport)) -> f64| mean(&traces.iter().map(f).collect::<Vec<_>>());
    report.context("traced_requests", traces.len());
    report.metric(
        "serve.server_total_us",
        per(&|(_, t)| t.total_micros as f64),
        "us",
    );
    report.metric(
        "serve.wire_ms",
        per(&|(c, t)| (c - t.total_micros as f64) / 1e3),
        "ms",
    );
    for (name, stage_name) in [
        ("serve.admission_us", "admission"),
        ("serve.cache_lookup_us", "cache_lookup"),
        ("serve.queue_wait_us", "queue_wait"),
        ("serve.index_search_us", "index_search"),
        ("serve.writer_wait_us", "writer_wait"),
        ("store.append_us", "store_append"),
        ("index.append_us", "index_build"),
    ] {
        report.metric(name, per(&|(_, t)| stage(t, stage_name)), "us");
    }
}

/// The delta of counter `f` between two snapshots of each server, summed.
fn delta(
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
    f: fn(&MetricsSnapshot) -> u64,
) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| f(a).saturating_sub(f(b)) as f64)
        .sum()
}

/// Result-cache and admission counter deltas between two snapshots of
/// each server.
pub(crate) fn cache_metrics(
    report: &mut Report,
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
) {
    let hits = delta(before, after, |m| m.cache.hits);
    let misses = delta(before, after, |m| m.cache.misses);
    report.metric(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    report.metric(
        "serve.cache_evictions",
        delta(before, after, |m| m.cache.evictions),
        "count",
    );
    report.metric(
        "serve.cache_invalidations",
        delta(before, after, |m| m.cache.invalidations),
        "count",
    );
    report.metric(
        "serve.rejected",
        delta(before, after, |m| m.executor.rejected),
        "count",
    );
}

/// kNN kernel counter deltas between two snapshots of each shard, over
/// `queries` coordinator queries (each fanned out to every shard).
fn knn_metrics(
    report: &mut Report,
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
    queries: usize,
) {
    let q = queries.max(1) as f64;
    report.metric(
        "knn.comparisons_per_query",
        delta(before, after, |m| m.knn.quantized_comparisons) / q,
        "count",
    );
    report.metric(
        "knn.rerank_per_query",
        delta(before, after, |m| m.knn.rerank_candidates) / q,
        "count",
    );
    report.metric(
        "knn.planner_flat_share",
        delta(before, after, |m| m.knn.planner_flat_fallbacks) / (q * before.len().max(1) as f64),
        "ratio",
    );
}

/// `query_hot`.
pub(crate) fn run_hot(cfg: &RunConfig, report: &mut Report) {
    let ar = archive(cfg, report);
    let mut clock = Instant::now();
    let db = build_db(&ar.records);
    report.lap("build", &mut clock);
    let local = db.clone();
    let hot = hot_set(&ar.mined, HOT_SET, cfg.seed);
    let server = ServerConfig::default();
    report.context("records_per_shard", db.len());
    report.context("hot_set", hot.len());
    report.context("cache_capacity", server.cache_capacity);
    report.context("clients", host_cpus().min(2));
    let handle = medvid_serve::spawn(db, server, Recorder::disabled()).expect("bind server");
    let addr = handle.addr();
    warm(addr, &hot);
    report.lap("serve", &mut clock);
    report.metric("setup_s", cfg.started.elapsed().as_secs_f64(), "s");

    let untraced_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let start = Instant::now();
    let run = hot_phase(addr, &hot, cfg.seed, 0, start + secs(untraced_secs), false);
    let untraced_p50 = latency_metrics(report, &run.latency_ms, start.elapsed().as_secs_f64());
    report.metric("op_cost_p50_ms", untraced_p50, "ms");
    let mut runs = vec![run];

    if cfg.trace {
        let before = snapshot(addr);
        let traced = hot_phase(addr, &hot, cfg.seed, 1, start + secs(cfg.seconds), true);
        let after = snapshot(addr);
        cache_metrics(report, &[before], &[after]);
        check_traces(report, &traced.traces);
        trace_metrics(report, &traced.traces);
        report.metric(
            "bench.trace_overhead_ratio",
            median(&traced.latency_ms) / untraced_p50,
            "ratio",
        );
        runs.push(traced);
    }
    shutdown(vec![handle]);
    if cfg.trace {
        scan_probe(cfg, &ar.records, &local, report);
    }

    for run in runs {
        report.attempted += run.attempted;
        report.failed += run.failed;
        for (v, hits) in &run.checked {
            let (want, _) = local.hierarchical_search(&hot[*v], LIMIT, None);
            if !same_hits(hits, &want) {
                report.wrong(format!(
                    "hot vector {v}: served hits differ from in-process hierarchical_search"
                ));
            }
        }
    }
}

/// A unique query-by-example vector: a seeded archive record, perturbed.
fn scan_vector(records: &[ShotRecord], rng: &mut StdRng) -> Vec<f32> {
    perturb(
        &records[rng.gen_range(0..records.len())].features,
        rng,
        0.05,
    )
}

/// A scatter-gather probe request (traced: the probe only runs in traced
/// runs).
fn scan_request(vector: Vec<f32>) -> QueryRequest {
    QueryRequest {
        vector: Some(vector),
        limit: Some(LIMIT),
        strategy: Some(WireStrategy::Planned),
        trace: true,
        ..QueryRequest::default()
    }
}

/// What the probe's coordinator client saw.
#[derive(Default)]
struct ScanRun {
    latency_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The first [`PROBES`] answered vectors.
    vectors: Vec<Vec<f32>>,
    checked: Vec<(Vec<f32>, Vec<Hit>)>,
}

/// One closed-loop client sending unique vectors through `coordinator`
/// until `until`.
fn scan_phase(
    coordinator: &Coordinator,
    records: &[ShotRecord],
    rng: &mut StdRng,
    until: Instant,
) -> ScanRun {
    let mut run = ScanRun::default();
    while Instant::now() < until {
        let vector = scan_vector(records, rng);
        let check = rng.gen::<f64>() < CHECK_SHARE && run.checked.len() < CHECK_CAP;
        run.attempted += 1;
        let request = scan_request(vector.clone());
        let t = Instant::now();
        let outcome = coordinator.query(&request);
        let elapsed = t.elapsed().as_secs_f64();
        match outcome {
            Ok(o) if o.status.is_complete() => {
                run.latency_ms.push(elapsed * 1e3);
                if check {
                    run.checked.push((vector.clone(), o.hits));
                }
                if run.vectors.len() < PROBES {
                    run.vectors.push(vector);
                }
            }
            _ => run.failed += 1,
        }
    }
    run
}

/// The scatter-gather probe of a traced `query_hot` run: the same
/// archive hash-partitioned over [`SHARDS`] shards behind a
/// `Coordinator`, one closed-loop client sending unique `Planned`
/// queries for [`SCAN_PROBE`]. Nothing is cached, so this is where the
/// `knn`, `index` search and `cluster` layers are measured; sampled
/// answers must equal a single-node `planned_search` over all records
/// (`full`).
fn scan_probe(cfg: &RunConfig, records: &[ShotRecord], full: &VideoDatabase, report: &mut Report) {
    let mut parts: Vec<Vec<ShotRecord>> = vec![Vec::new(); SHARDS as usize];
    for r in records {
        parts[shard_of(r.shot.video, SHARDS) as usize].push(r.clone());
    }
    let shard_dbs: Vec<VideoDatabase> = parts.iter().map(|p| build_db(p)).collect();
    report.context(
        "scan_probe.records_per_shard",
        shard_dbs
            .iter()
            .map(|d| d.len().to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    let handles: Vec<ServerHandle> = shard_dbs
        .iter()
        .enumerate()
        .map(|(i, db)| {
            let config = ServerConfig {
                shard: Some(i as u32),
                ..ServerConfig::default()
            };
            medvid_serve::spawn(db.clone(), config, Recorder::disabled()).expect("bind shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = handles.iter().map(|h| h.addr()).collect();
    let coordinator = Coordinator::new(
        ClusterTopology::of_primaries(&addrs),
        CoordinatorConfig::default(),
        Recorder::disabled(),
    );
    let mut rng = seeded(cfg.seed, 200);
    let before: Vec<_> = addrs.iter().map(|&a| snapshot(a)).collect();
    let run = scan_phase(&coordinator, records, &mut rng, Instant::now() + SCAN_PROBE);
    let after: Vec<_> = addrs.iter().map(|&a| snapshot(a)).collect();
    knn_metrics(report, &before, &after, run.attempted as usize);
    let coordinator_p50 = median(&run.latency_ms);
    report.context("scan_probe.queries", run.latency_ms.len());
    report.context("scan_probe.coordinator_p50_ms", coordinator_p50);
    let mut direct = ClientRun::default();
    cluster_metrics(
        report,
        &addrs,
        &shard_dbs,
        records,
        &run.vectors,
        &mut rng,
        coordinator_p50,
        &mut direct,
    );
    check_traces(report, &direct.traces);
    shutdown(handles);

    report.attempted += run.attempted + direct.attempted;
    report.failed += run.failed + direct.failed;
    for (vector, hits) in &run.checked {
        let (want, _) = full.planned_search(vector, LIMIT, None);
        if !same_hits(hits, &want) {
            report.wrong(
                "a gathered answer differs from single-node planned_search over all records",
            );
        }
    }
}

/// Direct probes of each shard, outside the coordinator: connect cost,
/// per-shard latency under the coordinator's connect-per-request
/// discipline (with server traces), merge cost, and in-process search
/// time on each shard's records.
#[allow(clippy::too_many_arguments)]
fn cluster_metrics(
    report: &mut Report,
    addrs: &[SocketAddr],
    shard_dbs: &[VideoDatabase],
    records: &[ShotRecord],
    traced_vectors: &[Vec<f32>],
    rng: &mut StdRng,
    coordinator_p50: f64,
    direct: &mut ClientRun,
) {
    let mut connect_ms = Vec::new();
    for &addr in addrs {
        for _ in 0..PROBES / 2 {
            let t = Instant::now();
            let client = Client::connect(addr, TIMEOUT);
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(client);
        }
    }
    report.metric("cluster.connect_ms", median(&connect_ms), "ms");

    let vectors: Vec<Vec<f32>> = (0..PROBES).map(|_| scan_vector(records, rng)).collect();
    let mut per_shard_ms: Vec<Vec<f64>> = vec![Vec::new(); addrs.len()];
    let mut merge_us = Vec::new();
    for v in &vectors {
        let mut gathered: Vec<Hit> = Vec::new();
        for (i, &addr) in addrs.iter().enumerate() {
            direct.attempted += 1;
            let request = scan_request(v.clone());
            let t = Instant::now();
            let answer = Client::connect(addr, TIMEOUT).and_then(|mut c| c.query(request));
            let elapsed = t.elapsed().as_secs_f64();
            match answer {
                Ok(Response::Results { hits, trace, .. }) => {
                    per_shard_ms[i].push(elapsed * 1e3);
                    gathered.extend(hits);
                    if let Some(tr) = trace {
                        direct.traces.push((elapsed * 1e6, tr));
                    }
                }
                _ => direct.failed += 1,
            }
        }
        let t = Instant::now();
        merge_topk(std::hint::black_box(&mut gathered), LIMIT);
        merge_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let slowest = per_shard_ms.iter().map(|s| median(s)).fold(0.0, f64::max);
    report.metric("cluster.shard_direct_ms", slowest, "ms");
    report.metric("cluster.overhead_ms", coordinator_p50 - slowest, "ms");
    report.metric("cluster.merge_us", mean(&merge_us), "us");

    let mut search_ms = Vec::new();
    for v in traced_vectors {
        for db in shard_dbs {
            let t = Instant::now();
            std::hint::black_box(db.planned_search(v, LIMIT, None));
            search_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    report.metric("index.search_ms", mean(&search_ms), "ms");
}

/// Seconds as a `Duration`.
pub(crate) fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Drains and joins every server.
pub(crate) fn shutdown(handles: Vec<ServerHandle>) {
    for h in &handles {
        h.shutdown();
    }
    for h in handles {
        h.join();
    }
}
