//! E-SERVE: concurrent serving throughput and latency, flat scan (Eq. 24)
//! vs cluster-based hierarchical retrieval (Eq. 25), through the full
//! `medvid-serve/v1` stack (TCP framing, admission control, result cache) —
//! plus the same load scattered across a sharded cluster through the
//! `medvid-cluster` coordinator.

use medvid::{ClassMiner, ClassMinerConfig};
use medvid_cluster::{shard_of, ClusterTopology, Coordinator, CoordinatorConfig};
use medvid_eval::report::{f3, print_table, write_report};
use medvid_index::persist::DatabaseSnapshot;
use medvid_index::{ShotRecord, VideoDatabase};
use medvid_obs::{CorpusReport, LogHistogram, Recorder};
use medvid_serve::loadgen::{self, LoadConfig};
use medvid_serve::{Client, MetricsSnapshot, QueryRequest, Response, ServerConfig, WireStrategy};
use medvid_synth::{standard_corpus, CorpusScale};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Bound on client-observed p50 minus the server window's p50, on
/// loopback with persistent connections. A delayed-ACK stall costs at
/// least 40 ms per request, so a regression cannot hide under it.
const WIRE_GAP_BOUND_MS: f64 = 10.0;

#[derive(Serialize)]
struct Row {
    strategy: &'static str,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    ok: usize,
    cached: usize,
    rejected: usize,
    errors: usize,
}

/// The scatter-gather tier under the same client mix: every query fans
/// out to all shards and merges, so the row measures the coordinator's
/// end-to-end path, not a single node.
#[derive(Serialize)]
struct ClusterRow {
    shards: u32,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    complete: usize,
    degraded: usize,
    errors: usize,
}

/// The artefact payload: the per-strategy rows plus the server's own live
/// (`medvid-obs/v2`) view of the run, captured right after the load.
#[derive(Serialize)]
struct LoadtestReport {
    rows: Vec<Row>,
    cluster: Vec<ClusterRow>,
    live: MetricsSnapshot,
}

/// Restores a database holding exactly `records` under the mined
/// corpus's hierarchy, config and policy.
fn db_of(template: &DatabaseSnapshot, records: Vec<ShotRecord>) -> VideoDatabase {
    VideoDatabase::from_snapshot(DatabaseSnapshot {
        version: template.version,
        hierarchy: template.hierarchy.clone(),
        config: template.config,
        policy: template.policy.clone(),
        records,
    })
    .expect("records come from a valid database")
}

/// Drives `clients x requests` flat queries through a coordinator over
/// `shards` in-memory shard servers holding a production-hash partition
/// of the mined corpus.
fn cluster_run(
    template: &DatabaseSnapshot,
    shards: u32,
    clients: usize,
    requests: usize,
    vector_pool: &[Vec<f32>],
) -> ClusterRow {
    let mut parts: Vec<Vec<ShotRecord>> = vec![Vec::new(); shards as usize];
    for r in &template.records {
        parts[shard_of(r.shot.video, shards) as usize].push(r.clone());
    }
    let handles: Vec<_> = parts
        .into_iter()
        .enumerate()
        .map(|(i, part)| {
            medvid_serve::spawn(
                db_of(template, part),
                ServerConfig {
                    shard: Some(i as u32),
                    ..ServerConfig::default()
                },
                Recorder::disabled(),
            )
            .expect("bind shard server")
        })
        .collect();
    let topology =
        ClusterTopology::of_primaries(&handles.iter().map(|h| h.addr()).collect::<Vec<_>>());
    let coordinator = Coordinator::new(topology, CoordinatorConfig::default(), Recorder::disabled());

    let started = Instant::now();
    let per_client: Vec<(Vec<f64>, usize, usize, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let coordinator = &coordinator;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(requests);
                    let (mut complete, mut degraded, mut errors) = (0usize, 0usize, 0usize);
                    for i in 0..requests {
                        let vector = vector_pool[(c + i * 7) % vector_pool.len()].clone();
                        let req = QueryRequest {
                            vector: Some(vector),
                            limit: Some(10),
                            strategy: Some(WireStrategy::Flat),
                            ..QueryRequest::default()
                        };
                        let t0 = Instant::now();
                        match coordinator.query(&req) {
                            Ok(outcome) if outcome.status.is_complete() => complete += 1,
                            Ok(_) => degraded += 1,
                            Err(_) => errors += 1,
                        }
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    (latencies, complete, degraded, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load client panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    for h in handles {
        h.shutdown();
        h.join();
    }

    let mut latencies: Vec<f64> = Vec::new();
    let (mut complete, mut degraded, mut errors) = (0usize, 0usize, 0usize);
    for (l, c, d, e) in per_client {
        latencies.extend(l);
        complete += c;
        degraded += d;
        errors += e;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    ClusterRow {
        shards,
        throughput_rps: (clients * requests) as f64 / wall.max(1e-9),
        p50_ms: quantile(0.50),
        p99_ms: quantile(0.99),
        complete,
        degraded,
        errors,
    }
}

fn main() {
    let full = std::env::args().nth(1).as_deref() == Some("full");
    let (scale, clients, requests) = if full {
        (CorpusScale::Small, 8, 200)
    } else {
        (CorpusScale::Tiny, 4, 50)
    };
    let corpus = standard_corpus(scale, 2003);
    let miner = ClassMiner::new(ClassMinerConfig::default(), 2003).expect("default miner config");
    let (db, _) = miner.index_corpus(&corpus);
    // Query by example with real indexed vectors so both strategies do
    // meaningful distance work (and the cache sees repeats).
    let vector_pool: Vec<Vec<f32>> = db
        .records_iter()
        .step_by(7)
        .take(32)
        .map(|r| r.features.clone())
        .collect();
    let rec = Recorder::new();
    let handle = medvid_serve::spawn(db, ServerConfig::default(), rec.clone())
        .expect("bind loopback server");
    let addr = handle.addr();
    println!("serving on {addr}; {clients} clients x {requests} requests per strategy");
    let mut rows = Vec::new();
    let mut client_latency = LogHistogram::new();
    for strategy in [
        WireStrategy::Flat,
        WireStrategy::Hierarchical,
        WireStrategy::Planned,
    ] {
        let config = LoadConfig {
            clients,
            requests_per_client: requests,
            strategy,
            vector_pool: vector_pool.clone(),
            timeout: Duration::from_secs(30),
            ..LoadConfig::default()
        };
        let report = loadgen::run(addr, &config).expect("load run against live server");
        client_latency.merge(&report.latency);
        let label = match strategy {
            WireStrategy::Flat => "flat",
            WireStrategy::Hierarchical => "hierarchical",
            WireStrategy::Planned => "planned",
        };
        rows.push(Row {
            strategy: label,
            throughput_rps: report.throughput_rps(),
            p50_ms: report.quantile_ms(0.50),
            p99_ms: report.quantile_ms(0.99),
            ok: report.ok,
            cached: report.cached,
            rejected: report.rejected,
            errors: report.errors,
        });
    }
    // The server's own rolling-window view of the load it just absorbed:
    // the Metrics verb must answer while the server is still live, and its
    // window must have seen the traffic.
    let mut probe = Client::connect(addr, Duration::from_secs(10)).expect("connect metrics probe");
    let live = match probe.metrics().expect("metrics round-trip") {
        Response::Metrics { snapshot } => snapshot,
        other => panic!("expected a metrics snapshot, got {other:?}"),
    };
    assert!(
        live.window.requests > 0,
        "rolling window saw none of the load"
    );
    println!(
        "metrics verb: ok — {} qps {:.1}, p99 {:.2} ms, cache hit {:.0}%",
        live.schema,
        live.window.qps,
        live.window.p99_ms,
        live.window.cache_hit_rate * 100.0
    );
    // The two latency views of the same requests: the clients' (frame
    // written to answer read) and the server's window (frame arrival to
    // answer written). They differ only by the loopback wire.
    let client_p50_ms = client_latency.quantile_nanos(0.50) as f64 / 1e6;
    let gap_ms = client_p50_ms - live.window.p50_ms;
    println!(
        "p50: client {client_p50_ms:.3} ms, server window {:.3} ms, wire gap {gap_ms:.3} ms",
        live.window.p50_ms
    );
    assert!(
        gap_ms < WIRE_GAP_BOUND_MS,
        "client p50 exceeds the server's by {gap_ms:.3} ms (bound {WIRE_GAP_BOUND_MS} ms): \
         the persistent-connection wire is stalling"
    );
    println!("wire gap: ok");
    handle.shutdown();
    handle.join();

    // The same client mix through the scatter-gather tier at shard counts
    // 1, 2 and 4: each record lands on the shard the production placement
    // hash assigns its video, and every query fans out and merges.
    let template = {
        let (db, _) = miner.index_corpus(&corpus);
        db.snapshot()
    };
    let cluster: Vec<ClusterRow> = [1u32, 2, 4]
        .into_iter()
        .map(|shards| cluster_run(&template, shards, clients, requests, &vector_pool))
        .collect();
    for c in &cluster {
        assert_eq!(c.degraded, 0, "no shard ever went away");
        assert_eq!(c.errors, 0, "every scatter-gather query must resolve");
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_string(),
                f3(r.throughput_rps),
                f3(r.p50_ms),
                f3(r.p99_ms),
                r.ok.to_string(),
                r.cached.to_string(),
                r.rejected.to_string(),
                r.errors.to_string(),
            ]
        })
        .collect();
    print_table(
        "E-SERVE — concurrent serving, flat vs hierarchical",
        &[
            "strategy", "req/s", "p50 ms", "p99 ms", "ok", "cached", "rejected", "errors",
        ],
        &table,
    );
    let cluster_table: Vec<Vec<String>> = cluster
        .iter()
        .map(|c| {
            vec![
                c.shards.to_string(),
                f3(c.throughput_rps),
                f3(c.p50_ms),
                f3(c.p99_ms),
                c.complete.to_string(),
                c.degraded.to_string(),
                c.errors.to_string(),
            ]
        })
        .collect();
    print_table(
        "E-SERVE — scatter-gather cluster, flat queries vs shard count",
        &[
            "shards", "req/s", "p50 ms", "p99 ms", "complete", "degraded", "errors",
        ],
        &cluster_table,
    );
    let telemetry = CorpusReport::from_totals(rec.report());
    write_report("loadtest", &telemetry, &LoadtestReport { rows, cluster, live });
}
