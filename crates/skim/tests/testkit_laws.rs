//! Laws of skim construction, checked with the medvid-testkit property
//! runner.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_skim::{build_skim, frame_compression_ratio, SkimLevel};
use medvid_testkit::{forall_with, require, Config, NoShrink, TkRng, CASES_ENV};
use medvid_types::{
    ClusterId, ClusteredScene, ContentStructure, FrameFeatures, Group, GroupId, GroupKind, Scene,
    SceneId, Shot, ShotId,
};

/// The environment's configuration, running `cases` cases unless
/// `MEDVID_TESTKIT_CASES` overrides the count.
fn config(cases: usize) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var_os(CASES_ENV).is_none() {
        cfg.cases = cases;
    }
    cfg
}

/// A random-but-valid hierarchy: 2–39 shots partitioned into groups of
/// 1–4, groups into scenes of 1–3, scenes into clusters of 1–3.
fn structure(rng: &mut TkRng) -> NoShrink<ContentStructure> {
    let n_shots = rng.usize_in(2, 39);
    let shots: Vec<Shot> = (0..n_shots)
        .map(|i| Shot::new(ShotId(i), i * 20, (i + 1) * 20, FrameFeatures::zeros()).unwrap())
        .collect();
    let mut groups: Vec<Group> = Vec::new();
    let mut i = 0usize;
    while i < n_shots {
        let take = rng.usize_in(1, 4).min(n_shots - i);
        let members: Vec<ShotId> = (i..i + take).map(ShotId).collect();
        groups.push(Group {
            id: GroupId(groups.len()),
            representative_shots: vec![members[0]],
            shot_clusters: vec![members.clone()],
            shots: members,
            kind: GroupKind::SpatiallyRelated,
        });
        i += take;
    }
    let mut scenes: Vec<Scene> = Vec::new();
    let mut g = 0usize;
    while g < groups.len() {
        let take = rng.usize_in(1, 3).min(groups.len() - g);
        let members: Vec<GroupId> = (g..g + take).map(GroupId).collect();
        scenes.push(Scene {
            id: SceneId(scenes.len()),
            representative_group: members[0],
            groups: members,
        });
        g += take;
    }
    let mut clusters: Vec<ClusteredScene> = Vec::new();
    let mut c = 0usize;
    while c < scenes.len() {
        let take = rng.usize_in(1, 3).min(scenes.len() - c);
        let members: Vec<SceneId> = (c..c + take).map(SceneId).collect();
        let centroid = scenes[members[0].index()].representative_group;
        clusters.push(ClusteredScene {
            id: ClusterId(clusters.len()),
            scenes: members,
            centroid_group: centroid,
        });
        c += take;
    }
    NoShrink(ContentStructure {
        shots,
        groups,
        scenes,
        clustered_scenes: clusters,
    })
}

#[test]
fn skim_sizes_and_fcr_are_monotone() {
    forall_with(
        &config(64),
        "skims grow and FCR rises toward level 1, which shows every frame",
        structure,
        |NoShrink(cs)| {
            require!(
                cs.validate() == Ok(()),
                "invalid fixture: {:?}",
                cs.validate()
            );
            let mut prev_len = 0usize;
            let mut prev_fcr = 0.0f64;
            for level in SkimLevel::ALL {
                let skim = build_skim(cs, level);
                let fcr = frame_compression_ratio(cs, &skim);
                require!(skim.len() >= prev_len, "level {} shrank", level.number());
                require!(
                    fcr >= prev_fcr - 1e-12,
                    "level {} FCR fell to {fcr}",
                    level.number()
                );
                require!(
                    (0.0..=1.0 + 1e-12).contains(&fcr),
                    "FCR {fcr} out of [0, 1]"
                );
                // Every skim shot exists and appears once.
                for w in skim.shots.windows(2) {
                    require!(w[0] < w[1], "skim shots out of order: {:?}", skim.shots);
                }
                prev_len = skim.len();
                prev_fcr = fcr;
            }
            require!(
                (prev_fcr - 1.0).abs() < 1e-12,
                "level 1 FCR {prev_fcr}, not 1"
            );
            Ok(())
        },
    );
}
