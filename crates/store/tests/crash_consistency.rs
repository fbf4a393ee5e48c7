//! Crash-consistency properties for the storage engine, driven by
//! medvid-testkit: a WAL torn at *every possible byte offset*, or mauled
//! by seeded bit-flips and garbage, must recover without panicking to a
//! state that is exactly the replay of some valid prefix of what was
//! appended — never an invented record, never a reordering, never a
//! record resurrected from past the damage.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_index::{ShotRef, VideoDatabase};
use medvid_obs::Recorder;
use medvid_store::{
    scan_wal, verify, FsyncPolicy, Store, StoreConfig, StoreError, StoredShot, WalOp, WAL_FILE,
    WAL_MAGIC,
};
use medvid_testkit::{forall, require, NoShrink};
use medvid_types::{EventKind, ShotId, VideoId};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medvid-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stored_shot(db: &VideoDatabase, idx: usize) -> StoredShot {
    let mut features = vec![0.0f32; 8];
    features[idx % 8] = 1.0;
    StoredShot {
        video: VideoId(idx / 4),
        shot: ShotId(idx),
        features,
        event: EventKind::Dialog,
        scene_node: db.hierarchy().scene_nodes()[idx % 4],
    }
}

fn apply(db: &mut VideoDatabase, shot: &StoredShot) {
    db.try_insert_shot(
        ShotRef {
            video: shot.video,
            shot: shot.shot,
        },
        shot.features.clone(),
        shot.event,
        shot.scene_node,
    )
    .unwrap();
}

/// Builds a store directory holding `n` single-shot appends past the
/// baseline checkpoint under `fsync`, then syncs; returns the shots in
/// append order.
fn seeded_store(dir: &Path, n: usize, fsync: FsyncPolicy) -> Vec<StoredShot> {
    let mut recovered = Store::open(
        dir,
        StoreConfig {
            fsync,
            ..StoreConfig::default()
        },
        VideoDatabase::medical(),
        Recorder::disabled(),
    )
    .unwrap();
    let mut shots = Vec::new();
    for i in 0..n {
        let s = stored_shot(&recovered.db, i);
        apply(&mut recovered.db, &s);
        recovered
            .store
            .append(&[WalOp::IngestShot { shot: s.clone() }])
            .unwrap();
        shots.push(s);
    }
    recovered.store.sync().expect("final sync");
    shots
}

/// The shots a recovered database holds, in `ShotId` order (ids are
/// assigned in append order, so this is also append order).
fn recovered_ids(db: &VideoDatabase) -> Vec<usize> {
    let mut ids: Vec<usize> = db.snapshot().records.iter().map(|r| r.shot.shot.0).collect();
    ids.sort_unstable();
    ids
}

/// Recovery of a damaged WAL must yield exactly the shots of some prefix
/// of the append sequence.
fn require_prefix(got: &[usize], appended: usize) -> Result<(), String> {
    require!(
        got.len() <= appended,
        "recovered {} shots but only {appended} were ever appended",
        got.len()
    );
    for (i, id) in got.iter().enumerate() {
        require!(
            *id == i,
            "recovered shot ids are not a prefix: position {i} holds id {id}"
        );
    }
    Ok(())
}

#[test]
fn truncation_at_every_byte_offset_recovers_a_prefix() {
    let dir = scratch("every-offset");
    let shots = seeded_store(&dir, 10, FsyncPolicy::Always);
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert!(wal.len() > WAL_MAGIC.len());
    let full = scan_wal(&dir.join(WAL_FILE)).unwrap().unwrap();
    assert_eq!(full.records.len(), shots.len() + 1); // + checkpoint marker

    for cut in 0..=wal.len() {
        std::fs::write(dir.join(WAL_FILE), &wal[..cut]).unwrap();
        // Reference: what the scanner sees in the truncated bytes, before
        // recovery repairs the file. The marker record does not count as a
        // shot.
        let whole = scan_wal(&dir.join(WAL_FILE)).unwrap().unwrap().records.len();
        let expect_shots = whole.saturating_sub(1);
        let recovered = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap_or_else(|e| panic!("cut at {cut}/{} failed recovery: {e}", wal.len()));
        let ids = recovered_ids(&recovered.db);
        require_prefix(&ids, shots.len()).unwrap_or_else(|m| panic!("cut at {cut}: {m}"));
        assert_eq!(
            ids.len(),
            expect_shots,
            "cut at {cut}: {whole} whole records should replay to {expect_shots} shots"
        );
        // The report accounts for exactly the bytes it threw away.
        let report = &recovered.report;
        assert_eq!(
            report.valid_wal_bytes + report.discarded_bytes,
            cut as u64,
            "cut at {cut}: byte accounting disagrees"
        );
        // A cut exactly on a record boundary (including "just the magic
        // header") looks like a log that simply ended there — no fault.
        // Any other cut is structural damage and must be reported.
        let on_boundary =
            full.offsets.contains(&(cut as u64)) || cut as u64 == full.valid_bytes;
        assert_eq!(
            report.fault.is_none(),
            on_boundary,
            "cut at {cut}: fault {:?} disagrees with boundary status {on_boundary}",
            report.fault
        );

        // Recovery truncated the tail, so a second open is clean.
        drop(recovered);
        let again = Store::open(
            &dir,
            StoreConfig::default(),
            VideoDatabase::medical(),
            Recorder::disabled(),
        )
        .unwrap();
        assert!(
            again.report.clean(),
            "cut at {cut}: reopen after recovery still reports {:?}",
            again.report.fault
        );
        assert_eq!(recovered_ids(&again.db), ids, "cut at {cut}: reopen diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_corruption_never_panics_and_never_invents_records() {
    forall(
        "bit-flips and garbage in the WAL recover to a valid prefix",
        |rng| {
            let shots = rng.usize_in(1, 12);
            let flips = rng.usize_in(1, 6);
            let seed = rng.next_u64();
            let fsync = *rng.pick(&[
                FsyncPolicy::Always,
                FsyncPolicy::EveryN(8),
                FsyncPolicy::Never,
            ]);
            NoShrink((shots, flips, seed, fsync))
        },
        |input| {
            let (shots, flips, seed, fsync) = input.0;
            let dir = scratch(&format!("flip-{seed:x}"));
            let appended = seeded_store(&dir, shots, fsync);
            let wal_path = dir.join(WAL_FILE);
            let mut wal = std::fs::read(&wal_path).map_err(|e| e.to_string())?;

            // Seeded damage: flip bits at deterministic offsets, optionally
            // append garbage (a torn final write).
            let mut state = seed;
            for _ in 0..flips {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let off = (state >> 16) as usize % wal.len();
                let bit = (state >> 8) % 8;
                wal[off] ^= 1 << bit;
            }
            if state % 3 == 0 {
                wal.extend((0..(state % 97) as usize).map(|i| (state >> (i % 56)) as u8));
            }
            std::fs::write(&wal_path, &wal).map_err(|e| e.to_string())?;

            let outcome = Store::open(
                &dir,
                StoreConfig::default(),
                VideoDatabase::medical(),
                Recorder::disabled(),
            );
            let result = match outcome {
                // Damage to the magic header is a hard corruption error —
                // typed, not a panic — and everything else must recover.
                Err(StoreError::Corrupt(_)) => Ok(()),
                Err(e) => Err(format!("unexpected error kind: {e}")),
                Ok(recovered) => {
                    let ids = recovered_ids(&recovered.db);
                    require_prefix(&ids, appended.len())
                }
            };
            let _ = std::fs::remove_dir_all(&dir);
            result
        },
    );
}

#[test]
fn verify_agrees_with_recovery_without_mutating() {
    let dir = scratch("verify-agree");
    seeded_store(&dir, 6, FsyncPolicy::Always);
    let wal_path = dir.join(WAL_FILE);
    let wal = std::fs::read(&wal_path).unwrap();
    let torn = wal.len() - 3;
    std::fs::write(&wal_path, &wal[..torn]).unwrap();

    let report = verify(&dir).unwrap();
    assert!(!report.healthy(), "torn tail must fail verification");
    assert!(report.fault.is_some());
    // verify() is read-only: the torn bytes are still on disk.
    assert_eq!(std::fs::read(&wal_path).unwrap().len(), torn);

    // Recovery then repairs, and verify() agrees it is healthy.
    let recovered = Store::open(
        &dir,
        StoreConfig::default(),
        VideoDatabase::medical(),
        Recorder::disabled(),
    )
    .unwrap();
    assert_eq!(recovered.db.len(), 5, "the torn record is gone, rest stay");
    drop(recovered);
    let report = verify(&dir).unwrap();
    assert!(report.healthy(), "post-recovery store must verify clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_checkpoint_is_a_typed_error_never_silent_data_loss() {
    let dir = scratch("bad-ckpt");
    seeded_store(&dir, 4, FsyncPolicy::Always);
    let ckpt = dir.join(medvid_store::CHECKPOINT_FILE);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&ckpt, &bytes).unwrap();

    // A store with an unreadable checkpoint must refuse to open (opening
    // with `initial` would silently forget every checkpointed record), and
    // must say so in a typed error.
    match Store::open(
        &dir,
        StoreConfig::default(),
        VideoDatabase::medical(),
        Recorder::disabled(),
    ) {
        Err(e) => {
            let msg = e.to_string();
            assert!(!msg.is_empty());
        }
        Ok(_) => panic!("opened a store whose checkpoint is damaged"),
    }
    let report = verify(&dir).unwrap();
    assert!(!report.healthy());
    assert!(report.checkpoint_error.is_some() || report.checkpoint_seq.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
