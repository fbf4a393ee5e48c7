//! E-ABL1–3, E-AUD, E-COD: our ablations and the substrate sanity rows.
//!
//! * E-ABL1 — entropy-automatic group thresholds vs fixed T2 values.
//! * E-ABL2 — PCS with validity-selected N vs a fixed 40 % reduction vs
//!   seeded k-means (seed sensitivity).
//! * E-ABL3 — colour+texture similarity weights vs colour-only.
//! * E-AUD — BIC speaker-change accuracy vs the penalty factor λ.
//! * E-COD — codec bitrate and PSNR at two quality settings.
//!
//! Every row comes from the tiny standard corpus (seed 2003, video 0) or,
//! for BIC, from seeded synthetic speech, so the output is deterministic.
//! Writes `target/experiments/ablation.json`.

use medvid_audio::bic::{bic_on_waveforms, BicConfig};
use medvid_codec::{decode_video, encode_video, psnr, EncoderConfig, Quality};
use medvid_eval::metrics::scene_precision;
use medvid_eval::report::write_report;
use medvid_obs::CorpusReport;
use medvid_signal::kmeans::kmeans;
use medvid_signal::mel::MfccExtractor;
use medvid_structure::cluster::{cluster_scenes, ClusterConfig};
use medvid_structure::group::{detect_groups, GroupConfig};
use medvid_structure::scene::{detect_scenes, SceneConfig};
use medvid_structure::shot::{detect_shots, ShotDetectorConfig};
use medvid_structure::similarity::SimilarityWeights;
use medvid_structure::{mine_structure, MiningConfig};
use medvid_synth::voice::{synth_speech, voice_for_speaker};
use medvid_synth::{standard_corpus, CorpusScale};
use medvid_types::{Shot, ShotId, Video};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Scene-detection quality under one setting (E-ABL1, E-ABL3).
#[derive(Serialize)]
struct SceneRow {
    setting: String,
    precision: f64,
    crf: f64,
}

/// E-ABL2: cluster counts per method, and k-means' distinct partitions
/// over five seeds (PCS is seedless, so always one).
#[derive(Serialize)]
struct ClusteringRows {
    scenes: usize,
    pcs_validity_clusters: usize,
    fixed_reduction_clusters: usize,
    kmeans_distinct_partitions: usize,
}

/// E-AUD: correct verdicts on 10 same-speaker and 10 different-speaker
/// pairs at one λ.
#[derive(Serialize)]
struct BicRow {
    lambda: f64,
    correct: usize,
    pairs: usize,
}

/// E-COD: the first 60 frames of video 0 at one quality.
#[derive(Serialize)]
struct CodecRow {
    quality: u8,
    bytes: usize,
    frames: usize,
    bits_per_pixel: f64,
    psnr_db: f64,
}

#[derive(Serialize)]
struct AblationReport {
    thresholds: Vec<SceneRow>,
    clustering: ClusteringRows,
    features: Vec<SceneRow>,
    bic: Vec<BicRow>,
    codec: Vec<CodecRow>,
}

/// Detects scenes over `shots` and returns each scene's sorted shot ids.
fn scenes_for(shots: &[Shot], w: SimilarityWeights, cfg: &GroupConfig) -> Vec<Vec<ShotId>> {
    let groups = detect_groups(shots, w, cfg).groups;
    detect_scenes(&groups, shots, w, &SceneConfig::default())
        .scenes
        .iter()
        .map(|se| {
            let mut v: Vec<ShotId> = se
                .groups
                .iter()
                .flat_map(|&g| groups[g.index()].shots.clone())
                .collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Scene precision and CRF of `shots` under one similarity/group setting,
/// printed as a `[tag] setting: P=… CRF=…` row.
fn scene_row(
    tag: &str,
    setting: String,
    video: &Video,
    shots: &[Shot],
    w: SimilarityWeights,
    cfg: &GroupConfig,
) -> SceneRow {
    let truth = video
        .truth
        .as_ref()
        .expect("synthetic video has ground truth");
    let j = scene_precision(&scenes_for(shots, w, cfg), shots, truth);
    println!(
        "[{tag}] {setting}: P={:.3} CRF={:.3}",
        j.precision(),
        j.crf()
    );
    SceneRow {
        setting,
        precision: j.precision(),
        crf: j.crf(),
    }
}

fn ablate_thresholds(video: &Video, shots: &[Shot]) -> Vec<SceneRow> {
    let w = SimilarityWeights::default();
    let mut rows = vec![scene_row(
        "abl-thresholds",
        "auto entropy".into(),
        video,
        shots,
        w,
        &GroupConfig::default(),
    )];
    for t2 in [0.3f32, 0.5, 0.7, 0.9] {
        let fixed = GroupConfig {
            t1: Some(1.2),
            t2: Some(t2),
            th: None,
        };
        rows.push(scene_row(
            "abl-thresholds",
            format!("fixed T2={t2}"),
            video,
            shots,
            w,
            &fixed,
        ));
    }
    rows
}

fn ablate_clustering(video: &Video) -> ClusteringRows {
    let cs = mine_structure(video, &MiningConfig::default());
    let w = SimilarityWeights::default();
    let validity = cluster_scenes(
        &cs.scenes,
        &cs.groups,
        &cs.shots,
        w,
        &ClusterConfig::default(),
    );
    println!(
        "[abl-clustering] PCS+validity: {} scenes -> {} clusters",
        cs.scenes.len(),
        validity.len()
    );
    let fixed = cluster_scenes(
        &cs.scenes,
        &cs.groups,
        &cs.shots,
        w,
        &ClusterConfig {
            target: Some((cs.scenes.len() as f64 * 0.6) as usize),
            ..Default::default()
        },
    );
    println!(
        "[abl-clustering] fixed 40% reduction: {} clusters",
        fixed.len()
    );
    // k-means over the scenes' representative-shot features: seed
    // sensitivity shows as distinct partitions over 5 seeds.
    let points: Vec<Vec<f64>> = cs
        .scenes
        .iter()
        .map(|se| {
            let g = &cs.groups[se.representative_group.index()];
            let s = &cs.shots[g.representative_shots[0].index()];
            s.features.concat().iter().map(|&x| x as f64).collect()
        })
        .collect();
    let k = validity.len().min(points.len().max(1));
    let mut partitions = std::collections::HashSet::new();
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(km) = kmeans(&points, k, 30, &mut rng) {
            partitions.insert(km.assignments);
        }
    }
    println!(
        "[abl-clustering] k-means over 5 seeds: {} distinct partitions (PCS is seedless: always 1)",
        partitions.len()
    );
    ClusteringRows {
        scenes: cs.scenes.len(),
        pcs_validity_clusters: validity.len(),
        fixed_reduction_clusters: fixed.len(),
        kmeans_distinct_partitions: partitions.len(),
    }
}

fn ablate_features(video: &Video, shots: &[Shot]) -> Vec<SceneRow> {
    [
        ("paper WC=0.7/WT=0.3", SimilarityWeights::default()),
        ("color_only", SimilarityWeights::color_only()),
        (
            "texture_heavy WC=0.3/WT=0.7",
            SimilarityWeights {
                color: 0.3,
                texture: 0.7,
            },
        ),
    ]
    .into_iter()
    .map(|(name, w)| {
        scene_row(
            "abl-features",
            name.into(),
            video,
            shots,
            w,
            &GroupConfig::default(),
        )
    })
    .collect()
}

fn bic_sweep() -> Vec<BicRow> {
    const SR: u32 = 8000;
    let speech = |speaker: u32, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        synth_speech(&voice_for_speaker(speaker), 16000, 0, SR, &mut rng)
    };
    let ex = MfccExtractor::paper_default(SR);
    [0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|lambda| {
            let cfg = BicConfig { lambda };
            let mut correct = 0usize;
            for i in 0..10u64 {
                let a = speech(1 + (i % 5) as u32, i);
                let b = speech(1 + (i % 5) as u32, 100 + i);
                if !bic_on_waveforms(&a, &b, &ex, &cfg).unwrap().speaker_change {
                    correct += 1;
                }
                let d = speech(6 + (i % 5) as u32, 200 + i);
                if bic_on_waveforms(&a, &d, &ex, &cfg).unwrap().speaker_change {
                    correct += 1;
                }
            }
            println!("[bic] lambda={lambda}: accuracy {correct}/20");
            BicRow {
                lambda,
                correct,
                pairs: 20,
            }
        })
        .collect()
}

fn codec_rows(video: &Video) -> Vec<CodecRow> {
    let frames: Vec<_> = video.frames.iter().take(60).cloned().collect();
    let pixels: u64 = frames.iter().map(|f| f.pixel_count() as u64).sum();
    [25u8, 75]
        .into_iter()
        .map(|q| {
            let cfg = EncoderConfig {
                quality: Quality::new(q).unwrap(),
                ..Default::default()
            };
            let bits = encode_video(&frames, &cfg).unwrap();
            let decoded = decode_video(&bits).unwrap();
            let p = psnr(&frames[0], &decoded[0]);
            let bpp = bits.len() as f64 * 8.0 / pixels as f64;
            println!(
                "[codec] q={q}: {} bytes for {} frames ({bpp:.2} bpp), PSNR {p:.1} dB",
                bits.len(),
                frames.len(),
            );
            CodecRow {
                quality: q,
                bytes: bits.len(),
                frames: frames.len(),
                bits_per_pixel: bpp,
                psnr_db: p,
            }
        })
        .collect()
}

fn main() {
    let corpus = standard_corpus(CorpusScale::Tiny, 2003);
    let video = &corpus[0];
    let shots = detect_shots(video, &ShotDetectorConfig::default()).shots;
    let report = AblationReport {
        thresholds: ablate_thresholds(video, &shots),
        clustering: ablate_clustering(video),
        features: ablate_features(video, &shots),
        bic: bic_sweep(),
        codec: codec_rows(video),
    };
    write_report("ablation", &CorpusReport::empty(), &report);
}
