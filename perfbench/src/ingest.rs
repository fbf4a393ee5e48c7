//! `ingest_mixed`: writes beside reads on one durable server.
//!
//! The server runs `StoreConfig::default()` (fsync on every append,
//! checkpoint at 4 MiB / 4 096 WAL records) and the default jobs drift
//! threshold (1 024 appends per compaction), over the mined corpus. One
//! open-loop writer sends a 50-shot video batch every 200 ms, each ack
//! timed from when its batch was due; one closed-loop reader queries the
//! `query_hot` hot set on a persistent connection. Afterwards the server
//! is restarted on its directory and every acked shot must be back.

use crate::fixture::{hot_set, ingest_batch, seeded, Fixture, INGEST_VIDEO_BASE, SHOTS_PER_VIDEO};
use crate::query::{
    cache_metrics, check_traces, host_cpus, hot_client, latency_metrics, secs, shutdown, snapshot,
    trace_metrics, warm, ClientRun, HOT_SET, TIMEOUT,
};
use crate::report::Report;
use crate::stats::{median, percentile, sorted};
use crate::RunConfig;
use medvid_index::{ShotRecord, ShotRef, VideoDatabase};
use medvid_obs::Recorder;
use medvid_serve::{Client, IngestShot, Response, ServerConfig, TraceReport};
use medvid_store::{Store, StoreConfig};
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Writer period: one batch every 200 ms (~250 shots/s).
pub(crate) const BATCH_PERIOD: Duration = Duration::from_millis(200);

/// How often the traced run polls the store and job status.
const POLL_PERIOD: Duration = Duration::from_millis(250);

/// What the open-loop writer saw.
#[derive(Debug, Default)]
struct WriterRun {
    /// Ack latency from each batch's due time, ms.
    ack_ms: Vec<f64>,
    /// How late each batch was sent relative to its due time, ms.
    lag_ms: Vec<f64>,
    /// Client-observed µs and the server trace, per traced ack.
    traces: Vec<(f64, TraceReport)>,
    attempted: u64,
    failed: u64,
    /// Every acknowledged shot.
    acked: Vec<IngestShot>,
}

/// Sends batch `k` at `start + k * BATCH_PERIOD`, until `until`.
fn writer(
    addr: SocketAddr,
    mined: &[ShotRecord],
    rng: &mut StdRng,
    start: Instant,
    first_batch: usize,
    until: Instant,
    trace: bool,
) -> WriterRun {
    let mut run = WriterRun::default();
    let mut client = Client::connect(addr, TIMEOUT).expect("writer connect");
    let mut k = 0u32;
    loop {
        let due = start + BATCH_PERIOD * k;
        if due >= until {
            break;
        }
        let batch = ingest_batch(mined, INGEST_VIDEO_BASE + first_batch + k as usize, rng);
        let payload = batch.clone();
        k += 1;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        run.lag_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        run.attempted += 1;
        let response = if trace {
            client.ingest_traced(payload, None)
        } else {
            client.ingest(payload)
        };
        let acked = Instant::now();
        match response {
            Ok(Response::Ingested {
                accepted,
                trace: tr,
                ..
            }) if accepted == batch.len() => {
                run.ack_ms
                    .push(acked.duration_since(due).as_secs_f64() * 1e3);
                if let Some(tr) = tr {
                    run.traces
                        .push((acked.duration_since(sent).as_secs_f64() * 1e6, tr));
                }
                run.acked.extend(batch);
            }
            Ok(_) => run.failed += 1,
            Err(_) => {
                run.failed += 1;
                client = Client::connect(addr, TIMEOUT).expect("writer reconnect");
            }
        }
    }
    run
}

/// Checkpoints and compactions observed by polling until `until`.
fn poller(addr: SocketAddr, until: Instant) -> (u64, u64) {
    let first = snapshot(addr);
    let mut seqs = BTreeSet::new();
    let checkpoint_seq =
        |m: &medvid_serve::MetricsSnapshot| m.store.as_ref().map_or(0, |s| s.checkpoint_seq);
    seqs.insert(checkpoint_seq(&first));
    let mut last = first.clone();
    while Instant::now() < until {
        std::thread::sleep(POLL_PERIOD);
        last = snapshot(addr);
        seqs.insert(checkpoint_seq(&last));
    }
    let compactions =
        |m: &medvid_serve::MetricsSnapshot| m.jobs.as_ref().map_or(0, |j| j.compactions);
    (
        seqs.len() as u64 - 1,
        compactions(&last).saturating_sub(compactions(&first)),
    )
}

/// One phase: writer and reader side by side (plus the poller when
/// traced) until `until`.
#[allow(clippy::too_many_arguments)]
fn phase(
    addr: SocketAddr,
    mined: &[ShotRecord],
    hot: &[Vec<f32>],
    seed: u64,
    phase: u64,
    first_batch: usize,
    until: Instant,
    trace: bool,
) -> (WriterRun, ClientRun, Option<(u64, u64)>) {
    let start = Instant::now();
    std::thread::scope(|s| {
        let w = s.spawn(move || {
            let mut rng = seeded(seed, 300 + phase);
            writer(addr, mined, &mut rng, start, first_batch, until, trace)
        });
        let r = s.spawn(move || {
            let mut rng = seeded(seed, 400 + phase);
            hot_client(addr, hot, &mut rng, until, trace)
        });
        let p = trace.then(|| s.spawn(move || poller(addr, until)));
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
            p.map(|p| p.join().expect("poller thread")),
        )
    })
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The store directory of this run, inside the benchmark's directory.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("ingest-{}", std::process::id()))
}

/// `ingest_mixed`.
pub(crate) fn run(cfg: &RunConfig, report: &mut Report) {
    let fx = Fixture::new(cfg.scale.corpus, report);
    let mut clock = Instant::now();
    let (db, _) = fx.miner.index_corpus(&fx.corpus);
    drop(fx);
    report.lap("mining", &mut clock);
    let mined: Vec<ShotRecord> = db.records_iter().cloned().collect();
    let hot = hot_set(&db, HOT_SET, cfg.seed);
    let dir = work_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let store = StoreConfig::default();
    let server = ServerConfig::default();
    report.context("records_per_shard", format!("{} at start", db.len()));
    report.context("fsync", store.fsync);
    report.context("checkpoint_wal_bytes", store.checkpoint_wal_bytes);
    report.context("checkpoint_wal_records", store.checkpoint_wal_records);
    report.context("jobs_drift_threshold", server.jobs.drift_threshold);
    report.context(
        "writer",
        format!(
            "open loop, {SHOTS_PER_VIDEO} shots every {} ms",
            BATCH_PERIOD.as_millis()
        ),
    );
    report.context(
        "clients",
        format!("1 writer + 1 reader ({} cpus)", host_cpus()),
    );
    let (handle, _) =
        medvid_serve::spawn_durable(&dir, store, db, server.clone(), Recorder::disabled())
            .expect("spawn durable server");
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
    let (w, r, _) = phase(
        addr,
        &mined,
        &hot,
        cfg.seed,
        0,
        0,
        start + secs(untraced_secs),
        false,
    );
    let window = start.elapsed().as_secs_f64();
    // The bounded operation is the reader's query, whose every answer
    // follows a cache cleared by the last ack. The writer's ack latency
    // is reported beside it; it followed the host's speed drift too
    // closely (ten-seed quartile spreads up to 29 %) to carry a bound.
    let reader_p50 = latency_metrics(report, &r.latency_ms, window);
    report.metric("op_cost_p50_ms", reader_p50, "ms");
    let acks = sorted(&w.ack_ms);
    let ack_p50 = percentile(&acks, 0.5).unwrap_or(0.0);
    report.context("ingest_ack_samples", acks.len());
    report.metric("ingest_ack_p50_ms", ack_p50, "ms");
    report.tail("ingest_ack_p90_ms", &acks, 0.9, "ms");
    report.metric("acked_shots_per_s", w.acked.len() as f64 / window, "1/s");
    let mut writers = vec![w];
    let mut readers = vec![r];

    if cfg.trace {
        let before = snapshot(addr);
        let first_batch = writers[0].attempted as usize;
        let (w, r, polled) = phase(
            addr,
            &mined,
            &hot,
            cfg.seed,
            1,
            first_batch,
            start + secs(cfg.seconds),
            true,
        );
        let after = snapshot(addr);
        cache_metrics(report, &[before], &[after]);
        check_traces(report, &w.traces);
        check_traces(report, &r.traces);
        // Stage means describe the writer's acks: the ingest path whose
        // wire, WAL append and index append this workload exists to load.
        trace_metrics(report, &w.traces);
        let (checkpoints, compactions) = polled.expect("traced phase polls");
        report.metric("store.checkpoints", checkpoints as f64, "count");
        report.metric("jobs.compactions", compactions as f64, "count");
        report.metric(
            "bench.trace_overhead_ratio",
            median(&w.ack_ms) / ack_p50,
            "ratio",
        );
        writers.push(w);
        readers.push(r);
    }
    let lag: Vec<f64> = writers
        .iter()
        .flat_map(|w| w.lag_ms.iter().copied())
        .collect();
    report.metric(
        "loadgen.lag_p90_ms",
        percentile(&sorted(&lag), 0.9).unwrap_or(0.0),
        "ms",
    );
    shutdown(vec![handle]);

    let acked: Vec<&IngestShot> = writers.iter().flat_map(|w| w.acked.iter()).collect();
    let live_bytes = (acked.len() * acked.first().map_or(0, |s| s.features.len()) * 4) as f64;
    report.metric(
        "store.disk_bytes_per_live_byte",
        dir_bytes(&dir) as f64 / live_bytes.max(1.0),
        "ratio",
    );

    // Restart on the run's directory, then check every acked shot.
    let t = Instant::now();
    let (restarted, _) = medvid_serve::spawn_durable(
        &dir,
        store,
        VideoDatabase::medical(),
        server,
        Recorder::disabled(),
    )
    .expect("restart durable server");
    report.metric("store.recover_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    shutdown(vec![restarted]);
    let recovered = Store::open(&dir, store, VideoDatabase::medical(), Recorder::disabled())
        .expect("reopen the store");
    let missing: Vec<&&IngestShot> = acked
        .iter()
        .filter(|s| {
            recovered
                .db
                .record(ShotRef {
                    video: s.video,
                    shot: s.shot,
                })
                .is_none_or(|r| r.features != s.features)
        })
        .collect();
    report.context("acked_shots", acked.len());
    if !missing.is_empty() {
        // Each acked batch is one video; a batch with a lost shot failed.
        let batches: BTreeSet<_> = missing.iter().map(|s| s.video).collect();
        report.failed += batches.len() as u64;
        report.problem(format!(
            "{} acked shots of {} batches missing or altered after restart",
            missing.len(),
            batches.len()
        ));
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        // Only succeeds once no other run is using the work directory.
        let _ = std::fs::remove_dir(parent);
    }

    for w in &writers {
        report.attempted += w.attempted;
        report.failed += w.failed;
    }
    for r in &readers {
        report.attempted += r.attempted;
        report.failed += r.failed;
        for (_, hits) in &r.checked {
            if hits.is_empty() || hits.windows(2).any(|p| p[0].distance > p[1].distance) {
                report.wrong("a reader answer is empty or out of rank order");
            }
        }
    }
}
