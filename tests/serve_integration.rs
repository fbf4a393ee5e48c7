//! medvid-serve integration: a server restored from a persisted snapshot
//! answers concurrent clients exactly like the in-process database, sheds
//! load with typed rejections, absorbs online ingest with epoch swaps, and
//! drains cleanly on shutdown.

use medvid::index::{Strategy, VideoDatabase};
use medvid::obs::Recorder;
use medvid::serve::{
    self, Client, ErrorKind, IngestShot, QueryRequest, Response, ServerConfig, WireStrategy,
};
use medvid::synth::{standard_corpus, CorpusScale};
use medvid::types::{ShotId, VideoId};
use medvid::{ClassMiner, ClassMinerConfig};
use std::time::Duration;

fn build_db(seed: u64) -> VideoDatabase {
    let corpus = standard_corpus(CorpusScale::Tiny, seed);
    let miner = ClassMiner::new(ClassMinerConfig::default(), seed).unwrap();
    miner.index_corpus(&corpus).0
}

fn spawn_server(db: VideoDatabase, config: ServerConfig) -> serve::ServerHandle {
    serve::spawn(db, config, Recorder::new()).expect("bind loopback server")
}

fn connect(handle: &serve::ServerHandle) -> Client {
    Client::connect(handle.addr(), Duration::from_secs(30)).expect("connect to server")
}

#[test]
fn concurrent_clients_match_direct_queries() {
    let db = build_db(400);
    // Round-trip through a persisted snapshot: the server must answer from
    // the restored database, not the one it was mined into.
    let dir = std::env::temp_dir().join(format!("medvid-serve-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("db.json");
    db.save_json(&snapshot).unwrap();
    let restored = VideoDatabase::load_json(&snapshot).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let probes: Vec<Vec<f32>> = db
        .records_iter()
        .step_by(5)
        .take(8)
        .map(|r| r.features.clone())
        .collect();
    assert!(probes.len() >= 4, "corpus too small for the probe set");
    let handle = spawn_server(restored, ServerConfig::default());
    let threads: Vec<_> = probes
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, probe)| {
            let mut client = connect(&handle);
            std::thread::spawn(move || {
                let wire = if i % 2 == 0 {
                    WireStrategy::Flat
                } else {
                    WireStrategy::Hierarchical
                };
                let response = client
                    .query(QueryRequest {
                        vector: Some(probe.clone()),
                        limit: Some(5),
                        strategy: Some(wire),
                        ..QueryRequest::default()
                    })
                    .expect("query round-trip");
                (probe, wire, response)
            })
        })
        .collect();
    for t in threads {
        let (probe, wire, response) = t.join().expect("client thread");
        let Response::Results { hits, .. } = response else {
            panic!("expected results, got {response:?}");
        };
        let (expected, _) = db
            .query()
            .similar_to(probe)
            .limit(5)
            .strategy(Strategy::from(wire))
            .run();
        assert_eq!(hits.len(), expected.len());
        for (h, e) in hits.iter().zip(&expected) {
            assert_eq!((h.video, h.shot), (e.shot.video, e.shot.shot));
            assert!((h.distance - e.distance).abs() < 1e-6);
        }
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn overload_sheds_with_structured_rejection() {
    let db = build_db(401);
    let probe: Vec<f32> = db.records_iter().next().unwrap().features.clone();
    let handle = spawn_server(
        db,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            deadline: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    // Occupy the single worker, then the single queue slot, with slow
    // queries; the third must be refused at admission, not queued. The
    // pause between the two submissions lets the worker dequeue the first
    // before the second arrives — submitting both at once races the worker
    // for the single queue slot and can reject the second instead.
    let slow: Vec<_> = (0..2)
        .map(|i| {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(250));
            }
            let mut client = connect(&handle);
            let probe = probe.clone();
            std::thread::spawn(move || {
                client.query(QueryRequest {
                    vector: Some(probe),
                    delay_ms: Some(2_000),
                    ..QueryRequest::default()
                })
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    let mut client = connect(&handle);
    let response = client
        .query(QueryRequest {
            vector: Some(probe),
            delay_ms: Some(1),
            ..QueryRequest::default()
        })
        .expect("rejection still yields a response frame");
    let Response::Error { kind, .. } = response else {
        panic!("expected structured rejection, got {response:?}");
    };
    assert_eq!(kind, ErrorKind::Overloaded);
    for t in slow {
        let resp = t.join().expect("slow client").expect("slow query answered");
        assert!(
            matches!(resp, Response::Results { .. }),
            "admitted work completes: {resp:?}"
        );
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn ingest_swaps_epochs_and_serves_the_new_shot() {
    let db = build_db(402);
    let template = db.records_iter().next().unwrap().clone();
    let handle = spawn_server(db, ServerConfig::default());
    let mut client = connect(&handle);

    let Response::Stats { epoch, records, .. } = client.stats().unwrap() else {
        panic!("stats request failed");
    };
    // A new video arrives online: three shots near (but distinct from) an
    // already-indexed one.
    let batch: Vec<IngestShot> = (0..3)
        .map(|i| {
            let mut features = template.features.clone();
            features[i] += 0.125;
            IngestShot {
                video: VideoId(999),
                shot: ShotId(i),
                features,
                event: template.event,
                scene_node: template.scene_node,
            }
        })
        .collect();
    let mut features = template.features.clone();
    features[0] += 0.125; // the first shot of the batch, used as the probe
    let response = client.ingest(batch).unwrap();
    let Response::Ingested {
        accepted,
        epoch: new_epoch,
        ..
    } = response
    else {
        panic!("expected ingest ack, got {response:?}");
    };
    assert_eq!(accepted, 3);
    assert_eq!(new_epoch, epoch + 1, "ingest must bump the epoch");

    let Response::Stats {
        epoch: seen_epoch,
        records: new_records,
        ..
    } = client.stats().unwrap()
    else {
        panic!("stats request failed");
    };
    assert_eq!(seen_epoch, new_epoch);
    assert_eq!(new_records, records + 3);

    // The freshly ingested shot is retrievable at the new epoch.
    let response = client
        .query(QueryRequest {
            vector: Some(features),
            limit: Some(1),
            strategy: Some(WireStrategy::Flat),
            ..QueryRequest::default()
        })
        .unwrap();
    let Response::Results { epoch, hits, .. } = response else {
        panic!("query after ingest failed");
    };
    assert_eq!(epoch, new_epoch);
    assert_eq!((hits[0].video, hits[0].shot), (VideoId(999), ShotId(0)));
    assert_eq!(hits[0].distance, 0.0);
    handle.shutdown();
    handle.join();
}

#[test]
fn repeated_query_is_served_from_cache() {
    let db = build_db(403);
    let probe: Vec<f32> = db.records_iter().next().unwrap().features.clone();
    let handle = spawn_server(db, ServerConfig::default());
    let mut client = connect(&handle);
    let request = QueryRequest {
        vector: Some(probe),
        limit: Some(3),
        ..QueryRequest::default()
    };
    let Response::Results { cached, hits, .. } = client.query(request.clone()).unwrap() else {
        panic!("first query failed");
    };
    assert!(!cached, "first execution cannot be a cache hit");
    let Response::Results {
        cached: second_cached,
        hits: second_hits,
        ..
    } = client.query(request).unwrap()
    else {
        panic!("second query failed");
    };
    assert!(second_cached, "identical repeat must hit the cache");
    assert_eq!(hits, second_hits);
    handle.shutdown();
    handle.join();
}

#[test]
fn persistent_connection_round_trip_has_no_delayed_ack_stall() {
    let db = build_db(405);
    let probe: Vec<f32> = db.records_iter().next().unwrap().features.clone();
    let handle = spawn_server(db, ServerConfig::default());
    let mut client = connect(&handle);
    let request = QueryRequest {
        vector: Some(probe),
        limit: Some(3),
        ..QueryRequest::default()
    };
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let response = client.query(request.clone()).unwrap();
            assert!(
                matches!(response, Response::Results { .. }),
                "got {response:?}"
            );
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    // A frame split over two writes, or Nagle left on at either end, makes
    // every request on a reused connection wait out a delayed ACK: 40 ms
    // or more. The server's own work here is a cache hit.
    assert!(
        median < Duration::from_millis(10),
        "median round trip on one persistent connection is {median:?}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn unbuilt_database_answers_default_queries_and_keeps_its_workers() {
    // A fresh store serves a database that has never been built. Default
    // queries against it must be answered, not kill the worker that runs
    // them: with 2 workers, 5 such queries would otherwise leave none.
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = spawn_server(VideoDatabase::medical(), config);
    let mut client = connect(&handle);
    for i in 0..5 {
        // Distinct vectors, so every query reaches a worker (no cache hit).
        let response = client
            .query(QueryRequest {
                vector: Some(vec![i as f32; 266]),
                limit: Some(3),
                ..QueryRequest::default()
            })
            .expect("query round-trip");
        let Response::Results { hits, .. } = response else {
            panic!("query {i} on an unbuilt database: got {response:?}");
        };
        assert!(hits.is_empty(), "query {i}: hits from an empty database");
    }
    let stats = client.stats().expect("stats round-trip");
    assert!(matches!(stats, Response::Stats { .. }), "got {stats:?}");
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_request_drains_the_server() {
    let db = build_db(404);
    let handle = spawn_server(db, ServerConfig::default());
    let addr = handle.addr();
    let mut client = connect(&handle);
    let response = client.shutdown().unwrap();
    assert!(matches!(response, Response::Bye), "got {response:?}");
    // join returns only after the accept loop and every connection thread
    // finished draining; afterwards the port no longer accepts work.
    handle.join();
    let refused = match Client::connect(addr, Duration::from_millis(500)) {
        Err(_) => true,
        Ok(mut late) => !matches!(late.stats(), Ok(Response::Stats { .. })),
    };
    assert!(refused, "drained server must not answer new requests");
}
