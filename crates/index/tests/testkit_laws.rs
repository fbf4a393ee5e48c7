//! Laws of the database index, checked with the medvid-testkit property
//! runner: subspace distances behave like a metric, flat search ranks by
//! distance, and access filtering is monotone in clearance.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_index::db::{IndexConfig, ShotRef, VideoDatabase};
use medvid_index::features::Subspace;
use medvid_index::{AccessPolicy, Clearance, ConceptHierarchy, UserContext};
use medvid_testkit::{forall_with, require, Config, TkRng, CASES_ENV};
use medvid_types::{EventKind, ShotId, VideoId};

/// Every case builds a full medical hierarchy, so the default budget is
/// smaller than the other suites'.
const CASES: usize = 24;

/// The environment's configuration, running `cases` cases unless
/// `MEDVID_TESTKIT_CASES` overrides the count.
fn config(cases: usize) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var_os(CASES_ENV).is_none() {
        cfg.cases = cases;
    }
    cfg
}

fn unit_vec(rng: &mut TkRng, dims: usize) -> Vec<f32> {
    (0..dims).map(|_| rng.f32_in(0.0, 1.0)).collect()
}

#[test]
fn subspace_distance_is_metric_like() {
    forall_with(
        &config(CASES),
        "top-variance subspace distance is symmetric, non-negative and zero on itself",
        |rng| (unit_vec(rng, 16), unit_vec(rng, 16), rng.usize_in(1, 15)),
        |(a, b, k)| {
            if a.len() != 16 || b.len() != 16 || *k == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let s = Subspace::top_variance(&[a.as_slice(), b.as_slice()], *k);
            let (dab, dba) = (s.sq_distance(a, b), s.sq_distance(b, a));
            require!((dab - dba).abs() < 1e-6, "asymmetric: {dab} vs {dba}");
            require!(dab >= 0.0, "negative distance {dab}");
            require!(s.sq_distance(a, a) == 0.0, "nonzero self-distance");
            require!(s.len() <= (*k).max(1), "{} dims kept for k={k}", s.len());
            Ok(())
        },
    );
}

#[test]
fn flat_search_ranks_by_distance() {
    forall_with(
        &config(CASES),
        "flat search scans every record and ranks by distance",
        |rng| {
            let len = rng.usize_in(4, 19);
            (0..len).map(|_| rng.u64_in(0, 999)).collect::<Vec<u64>>()
        },
        |seeds| {
            if seeds.len() < 4 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut db = VideoDatabase::new(ConceptHierarchy::medical(), IndexConfig::default());
            let scenes = db.hierarchy().scene_nodes();
            for (i, &s) in seeds.iter().enumerate() {
                let mut f = vec![0.0f32; 266];
                f[(s % 200) as usize] = 1.0;
                f[200 + (s % 60) as usize] = 0.5;
                db.insert_shot(
                    ShotRef {
                        video: VideoId(0),
                        shot: ShotId(i),
                    },
                    f,
                    EventKind::Dialog,
                    scenes[i % scenes.len()],
                );
            }
            db.build();
            let q = vec![0.1f32; 266];
            let (hits, stats) = db.flat_search(&q, seeds.len(), None);
            require!(
                stats.comparisons == seeds.len(),
                "{} comparisons for {} records",
                stats.comparisons,
                seeds.len()
            );
            for w in hits.windows(2) {
                require!(
                    w[0].distance <= w[1].distance,
                    "out of order: {} then {}",
                    w[0].distance,
                    w[1].distance
                );
            }
            Ok(())
        },
    );
}

#[test]
fn access_filtering_is_monotone_in_clearance() {
    forall_with(
        &config(CASES),
        "higher clearance sees at least as much; top clearance sees everything",
        |rng| (rng.usize_in(4, 19), rng.usize_in(1, 3) as u8),
        |&(n, protected_level)| {
            if n < 4 || protected_level == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut db = VideoDatabase::new(ConceptHierarchy::medical(), IndexConfig::default());
            let scenes = db.hierarchy().scene_nodes();
            for i in 0..n {
                let mut f = vec![0.0f32; 266];
                f[i % 266] = 1.0;
                db.insert_shot(
                    ShotRef {
                        video: VideoId(0),
                        shot: ShotId(i),
                    },
                    f,
                    EventKind::DETERMINATE[i % 3],
                    scenes[i % scenes.len()],
                );
            }
            let mut policy = AccessPolicy::allow_all();
            policy.require_event(EventKind::ClinicalOperation, Clearance(protected_level));
            db.set_policy(policy);
            db.build();
            let q = vec![0.0f32; 266];
            let mut prev = 0usize;
            for c in 0..4u8 {
                let user = UserContext::new(Clearance(c));
                let (hits, _) = db.flat_search(&q, n, Some(&user));
                require!(
                    hits.len() >= prev,
                    "clearance {c} sees {} hits, below {prev}",
                    hits.len()
                );
                prev = hits.len();
            }
            require!(prev == n, "top clearance sees {prev} of {n}");
            Ok(())
        },
    );
}
