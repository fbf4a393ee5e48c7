//! Structure-mining laws checked with the medvid-testkit property runner.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_structure::cluster::{cluster_scenes_stats, ClusterConfig};
use medvid_structure::group::{detect_groups, GroupConfig};
use medvid_structure::scene::{detect_scenes, SceneConfig};
use medvid_structure::shot::{build_shots, detect_cuts, ShotDetectorConfig};
use medvid_structure::similarity::GroupSimMatrix;
use medvid_structure::{group_similarity, shot_similarity, SimilarityWeights};
use medvid_testkit::domain::{frame_seq, shift_luminance, shots as gen_shots, structure_fixture};
use medvid_testkit::{forall, forall_with, require, Config, NoShrink, TkRng, CASES_ENV};
use medvid_types::{ColorHistogram, FrameFeatures, Group, Scene, Shot, ShotId, TamuraTexture};

/// The environment's configuration, running `cases` cases unless
/// `MEDVID_TESTKIT_CASES` overrides the count.
fn config(cases: usize) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var_os(CASES_ENV).is_none() {
        cfg.cases = cases;
    }
    cfg
}

/// Shot `i` of `len` frames whose colour histogram and texture are one-hot
/// at `bin` (so equal bins are identical shots, distinct bins disjoint).
fn shot_from_bin(i: usize, bin: usize, len: usize) -> Shot {
    let mut hist = vec![0.0f32; 256];
    hist[bin % 256] = 1.0;
    let mut tex = vec![0.0f32; 10];
    tex[bin % 10] = 1.0;
    Shot::new(
        ShotId(i),
        i * 100,
        i * 100 + len.max(1),
        FrameFeatures {
            color: ColorHistogram::new(hist).unwrap(),
            texture: TamuraTexture::new(tex).unwrap(),
        },
    )
    .unwrap()
}

/// `lo..=hi` random bins, each below `bins`.
fn bin_seq(rng: &mut TkRng, lo: usize, hi: usize, bins: usize) -> Vec<usize> {
    let len = rng.usize_in(lo, hi);
    (0..len).map(|_| rng.usize_in(0, bins - 1)).collect()
}

/// Shrinking a fixture by dropping elements would break the positional
/// id invariants the miners rely on; properties bail out (pass) on such
/// out-of-domain candidates so the reported minimal input stays meaningful.
fn fixture_consistent(shots: &[Shot], groups: &[Group], scenes: &[Scene]) -> bool {
    shots.iter().enumerate().all(|(i, s)| s.id.index() == i)
        && groups.iter().enumerate().all(|(i, g)| {
            g.id.index() == i
                && !g.shots.is_empty()
                && g.shots.iter().all(|s| s.index() < shots.len())
        })
        && scenes.iter().enumerate().all(|(i, s)| {
            s.id.index() == i
                && !s.groups.is_empty()
                && s.groups.iter().all(|g| g.index() < groups.len())
                && s.representative_group.index() < groups.len()
        })
}

#[test]
fn cut_detection_is_invariant_under_luminance_offset() {
    forall(
        "detect_cuts(x + c) == detect_cuts(x) for non-saturating c",
        |rng| {
            let (cuts, span) = (rng.usize_in(2, 4), rng.usize_in(8, 14));
            let seq = frame_seq(rng, cuts, span);
            let delta = rng.i64_in(-30, 30);
            (NoShrink(seq), delta)
        },
        |(seq, delta)| {
            let config = ShotDetectorConfig {
                window: 8,
                min_shot_len: 2,
                ..ShotDetectorConfig::default()
            };
            let shifted = shift_luminance(&seq.0.frames, *delta as i16);
            let (cuts_a, diffs_a, thr_a) = detect_cuts(&seq.0.frames, &config);
            let (cuts_b, diffs_b, thr_b) = detect_cuts(&shifted, &config);
            // The generator keeps every channel in [40, 210], so a +-30
            // offset never clamps and |a - b| per channel is unchanged —
            // the whole evidence chain must be bit-identical.
            require!(cuts_a == cuts_b, "cuts moved: {cuts_a:?} vs {cuts_b:?}");
            require!(
                diffs_a == diffs_b,
                "frame diffs changed under offset {delta}"
            );
            require!(thr_a == thr_b, "thresholds changed under offset {delta}");
            Ok(())
        },
    );
}

#[test]
fn build_shots_partitions_the_frame_range() {
    forall(
        "build_shots yields a contiguous partition of [0, n)",
        |rng| {
            let (cuts, span) = (rng.usize_in(1, 5), rng.usize_in(6, 12));
            NoShrink(frame_seq(rng, cuts, span))
        },
        |seq| {
            let seq = &seq.0;
            let shots = build_shots(&seq.frames, &seq.cuts);
            require!(
                !shots.is_empty(),
                "no shots from {} frames",
                seq.frames.len()
            );
            require!(
                shots[0].start_frame == 0,
                "first shot starts at {}",
                shots[0].start_frame
            );
            let last = shots.last().expect("non-empty");
            require!(
                last.end_frame == seq.frames.len(),
                "last shot ends at {} != {}",
                last.end_frame,
                seq.frames.len()
            );
            for (i, s) in shots.iter().enumerate() {
                require!(s.id.index() == i, "shot {i} has id {:?}", s.id);
                require!(s.start_frame < s.end_frame, "shot {i} is empty");
                require!(
                    (s.start_frame..s.end_frame).contains(&s.rep_frame),
                    "shot {i} rep frame {} outside [{}, {})",
                    s.rep_frame,
                    s.start_frame,
                    s.end_frame
                );
                if i > 0 {
                    require!(
                        s.start_frame == shots[i - 1].end_frame,
                        "gap before shot {i}: {} != {}",
                        s.start_frame,
                        shots[i - 1].end_frame
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn shot_similarity_is_bounded_and_symmetric() {
    forall(
        "StSim in [0, 1] and StSim(a, b) == StSim(b, a)",
        |rng| {
            let n = rng.usize_in(2, 6);
            gen_shots(rng, n)
        },
        |shots| {
            if shots.len() < 2 {
                return Ok(());
            }
            let w = SimilarityWeights::default();
            for a in shots {
                for b in shots {
                    let s_ab = shot_similarity(a, b, w);
                    let s_ba = shot_similarity(b, a, w);
                    require!(
                        (0.0..=1.0 + 1e-6).contains(&s_ab),
                        "StSim({:?}, {:?}) = {s_ab} out of [0, 1]",
                        a.id,
                        b.id
                    );
                    require!(
                        s_ab == s_ba,
                        "asymmetric: StSim({:?},{:?})={s_ab} vs {s_ba}",
                        a.id,
                        b.id
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn group_sim_matrix_matches_direct_eq9() {
    forall(
        "GroupSimMatrix cell == group_similarity, bit-for-bit",
        |rng| {
            let scenes = rng.usize_in(1, 5);
            structure_fixture(rng, scenes)
        },
        |(shots, groups, scenes)| {
            if !fixture_consistent(shots, groups, scenes) {
                return Ok(()); // a shrunk candidate left the domain
            }
            let w = SimilarityWeights::default();
            let matrix = GroupSimMatrix::compute(groups, shots, w);
            require!(
                matrix.len() == groups.len(),
                "matrix covers {} groups",
                matrix.len()
            );
            for a in groups {
                for b in groups {
                    let cached = matrix.get(a.id, b.id);
                    let direct = group_similarity(a, b, shots, w);
                    require!(
                        cached == direct,
                        "cell ({:?}, {:?}): matrix {cached} vs direct {direct}",
                        a.id,
                        b.id
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn scene_count_is_monotone_in_merge_threshold() {
    forall(
        "higher TG never merges more: scenes(t2) >= scenes(t1) for t2 >= t1",
        |rng| {
            let scenes = rng.usize_in(2, 6);
            let fixture = structure_fixture(rng, scenes);
            let t1 = rng.f32_in(0.0, 1.0);
            let t2 = rng.f32_in(t1, 1.0);
            (NoShrink(fixture), t1, t2)
        },
        |(fixture, t1, t2)| {
            let (shots, groups, _) = &fixture.0;
            if t2 < t1 {
                return Ok(()); // a shrunk threshold left the domain
            }
            let w = SimilarityWeights::default();
            let at = |tg: f32| {
                detect_scenes(
                    groups,
                    shots,
                    w,
                    &SceneConfig {
                        merge_threshold: Some(tg),
                        min_scene_shots: 0,
                    },
                )
            };
            let low = at(*t1);
            let high = at(*t2);
            require!(
                high.scenes.len() >= low.scenes.len(),
                "raising TG {t1} -> {t2} merged more: {} -> {} scenes",
                low.scenes.len(),
                high.scenes.len()
            );
            // With elimination disabled, every group lands in exactly one scene.
            for det in [&low, &high] {
                let assigned: usize = det.scenes.iter().map(|s| s.groups.len()).sum();
                require!(
                    assigned == groups.len() && det.dropped == 0,
                    "scenes cover {assigned} of {} groups (dropped {})",
                    groups.len(),
                    det.dropped
                );
            }
            Ok(())
        },
    );
}

#[test]
fn pcs_cluster_count_stays_within_paper_bounds() {
    forall(
        "PCS picks N* in [0.5 M, 0.7 M] and partitions the scenes",
        |rng| {
            let scenes = rng.usize_in(2, 9);
            structure_fixture(rng, scenes)
        },
        |(shots, groups, scenes)| {
            if !fixture_consistent(shots, groups, scenes) {
                return Ok(()); // a shrunk candidate left the domain
            }
            let config = ClusterConfig::default();
            let (clusters, stats) =
                cluster_scenes_stats(scenes, groups, shots, SimilarityWeights::default(), &config);
            let m = scenes.len();
            let lo = ((m as f64 * config.range.0).floor() as usize).max(1);
            let hi = ((m as f64 * config.range.1).floor() as usize).clamp(lo, m);
            require!(
                (lo..=hi).contains(&clusters.len()),
                "chose {} clusters for {m} scenes, outside [{lo}, {hi}]",
                clusters.len()
            );
            require!(
                stats.final_clusters == clusters.len(),
                "stats report {} clusters, partition has {}",
                stats.final_clusters,
                clusters.len()
            );
            // Every scene appears in exactly one cluster.
            let mut seen = vec![0usize; m];
            for c in &clusters {
                require!(!c.scenes.is_empty(), "empty cluster {:?}", c.id);
                require!(
                    c.centroid_group.index() < groups.len(),
                    "centroid {:?} out of range",
                    c.centroid_group
                );
                for s in &c.scenes {
                    seen[s.index()] += 1;
                }
            }
            require!(
                seen.iter().all(|&n| n == 1),
                "scene membership counts {seen:?} are not a partition"
            );
            Ok(())
        },
    );
}

#[test]
fn pcs_fixed_target_is_respected() {
    forall(
        "ClusterConfig::target overrides the validity search",
        |rng| {
            let scenes = rng.usize_in(2, 7);
            let fixture = structure_fixture(rng, scenes);
            let target = rng.usize_in(1, 9);
            (NoShrink(fixture), target)
        },
        |(fixture, target)| {
            let (shots, groups, scenes) = &fixture.0;
            let config = ClusterConfig {
                target: Some(*target),
                ..ClusterConfig::default()
            };
            let (clusters, _) =
                cluster_scenes_stats(scenes, groups, shots, SimilarityWeights::default(), &config);
            let want = (*target).clamp(1, scenes.len());
            require!(
                clusters.len() == want,
                "target {target} over {} scenes gave {} clusters (want {want})",
                scenes.len(),
                clusters.len()
            );
            Ok(())
        },
    );
}

#[test]
fn similarity_is_symmetric_bounded() {
    forall_with(
        &config(64),
        "StSim of one-hot shots is symmetric, in [0, 1] and 1 on itself for any WC + WT = 1",
        |rng| {
            (
                rng.usize_in(0, 255),
                rng.usize_in(0, 255),
                rng.f32_in(0.0, 1.0),
            )
        },
        |&(b1, b2, wc)| {
            let w = SimilarityWeights {
                color: wc,
                texture: 1.0 - wc,
            };
            let a = shot_from_bin(0, b1, 10);
            let b = shot_from_bin(1, b2, 10);
            let s1 = shot_similarity(&a, &b, w);
            let s2 = shot_similarity(&b, &a, w);
            require!((s1 - s2).abs() < 1e-6, "asymmetric: {s1} vs {s2}");
            require!(
                (-1e-6..=1.0 + 1e-6).contains(&s1),
                "StSim {s1} outside [0, 1] at WC={wc}"
            );
            let self_sim = shot_similarity(&a, &a, w);
            require!(
                (self_sim - 1.0).abs() < 1e-5,
                "StSim(bin {b1}, itself) = {self_sim} at WC={wc}"
            );
            Ok(())
        },
    );
}

#[test]
fn groups_partition_shots_for_any_bin_sequence() {
    forall_with(
        &config(64),
        "detected groups partition the shots into contiguous runs",
        |rng| bin_seq(rng, 1, 39, 8),
        |bins| {
            if bins.is_empty() {
                return Ok(()); // a shrunk candidate left the domain
            }
            // Spread bins so that distinct values are visually distinct.
            let shots: Vec<Shot> = bins
                .iter()
                .enumerate()
                .map(|(i, &b)| shot_from_bin(i, b * 30, 10 + i % 20))
                .collect();
            let det = detect_groups(
                &shots,
                SimilarityWeights::default(),
                &GroupConfig::default(),
            );
            let mut all: Vec<ShotId> = det.groups.iter().flat_map(|g| g.shots.clone()).collect();
            all.sort_unstable();
            let expected: Vec<ShotId> = (0..shots.len()).map(ShotId).collect();
            require!(all == expected, "groups cover {all:?}, not every shot once");
            for g in &det.groups {
                for w in g.shots.windows(2) {
                    require!(
                        w[1].index() == w[0].index() + 1,
                        "group {:?} is not contiguous: {:?}",
                        g.id,
                        g.shots
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn scenes_use_each_group_at_most_once() {
    forall_with(
        &config(64),
        "scenes hold disjoint groups, their representative, and >= min_scene_shots shots",
        |rng| (bin_seq(rng, 2, 29, 6), rng.usize_in(1, 3)),
        |(bins, min_shots)| {
            if bins.len() < 2 || *min_shots == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let shots: Vec<Shot> = bins
                .iter()
                .enumerate()
                .map(|(i, &b)| shot_from_bin(i, b * 40, 12))
                .collect();
            let w = SimilarityWeights::default();
            let groups = detect_groups(&shots, w, &GroupConfig::default()).groups;
            let det = detect_scenes(
                &groups,
                &shots,
                w,
                &SceneConfig {
                    merge_threshold: None,
                    min_scene_shots: *min_shots,
                },
            );
            let mut seen = std::collections::HashSet::new();
            for scene in &det.scenes {
                require!(
                    scene.groups.contains(&scene.representative_group),
                    "scene {:?} misses its representative group",
                    scene.id
                );
                for g in &scene.groups {
                    require!(seen.insert(*g), "group {g:?} used twice");
                }
                let shot_count: usize = scene.groups.iter().map(|&g| groups[g.index()].len()).sum();
                require!(
                    shot_count >= *min_shots,
                    "scene {:?} has {shot_count} shots, below {min_shots}",
                    scene.id
                );
            }
            Ok(())
        },
    );
}

#[test]
fn rep_shots_always_members() {
    forall_with(
        &config(64),
        "representative shots are members and clusters partition each group",
        |rng| bin_seq(rng, 1, 24, 5),
        |bins| {
            let shots: Vec<Shot> = bins
                .iter()
                .enumerate()
                .map(|(i, &b)| shot_from_bin(i, b * 50, 10))
                .collect();
            let det = detect_groups(
                &shots,
                SimilarityWeights::default(),
                &GroupConfig::default(),
            );
            for g in &det.groups {
                require!(
                    !g.representative_shots.is_empty(),
                    "group {:?} has no representative",
                    g.id
                );
                for r in &g.representative_shots {
                    require!(
                        g.shots.contains(r),
                        "representative {r:?} outside group {:?}",
                        g.id
                    );
                }
                let mut cluster_shots: Vec<ShotId> =
                    g.shot_clusters.iter().flatten().copied().collect();
                cluster_shots.sort_unstable();
                let mut members = g.shots.clone();
                members.sort_unstable();
                require!(
                    cluster_shots == members,
                    "clusters {cluster_shots:?} do not partition {members:?}"
                );
            }
            Ok(())
        },
    );
}
