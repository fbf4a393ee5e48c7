//! Set-up shared by the workloads: the synthesised corpus, the trained
//! miner, and the archive database of mined shots plus seeded neighbours.

use crate::report::Report;
use medvid::{ClassMiner, ClassMinerConfig};
use medvid_audio::SpeechClassifier;
use medvid_index::{ShotRecord, ShotRef, VideoDatabase};
use medvid_serve::IngestShot;
use medvid_synth::generate::speech_training_clips;
use medvid_synth::{standard_corpus, CorpusScale};
use medvid_types::{ShotId, Video, VideoId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seed of the standard corpus and of classifier training. The corpus is
/// a fixed fixture (the Small standard corpus); `--seed` drives every
/// input drawn from it (neighbours, query streams, ingest batches,
/// verification samples).
pub(crate) const CORPUS_SEED: u64 = 2003;

/// First video id of the seeded neighbour records.
const NEIGHBOUR_VIDEO_BASE: usize = 1_000;

/// First video id of shots the ingest workload writes.
pub(crate) const INGEST_VIDEO_BASE: usize = 1_000_000;

/// Shots per synthetic (neighbour or ingested) video.
pub(crate) const SHOTS_PER_VIDEO: usize = 50;

/// How big a run's inputs are.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus scale mined by every workload.
    pub corpus: CorpusScale,
    /// Records in the archive database the query workloads serve.
    pub archive_records: usize,
    /// Floors on Table 1's average event precision and recall over the
    /// corpus. Mining that falls below a floor is a wrong result,
    /// however fast.
    pub event_floor: (f64, f64),
}

impl Scale {
    /// The benchmark's scale. The seed code mines this corpus at event
    /// precision 0.9429 and recall 0.8684.
    pub const BENCH: Scale = Scale {
        corpus: CorpusScale::Small,
        archive_records: 20_000,
        event_floor: (0.90, 0.85),
    };

    /// A small scale for the benchmark's own tests. The seed code mines
    /// this corpus at event precision and recall 1.0.
    pub const TEST: Scale = Scale {
        corpus: CorpusScale::Tiny,
        archive_records: 1_500,
        event_floor: (0.9, 0.9),
    };
}

/// The corpus and a miner trained exactly as [`ClassMiner::new`] trains.
pub(crate) struct Fixture {
    /// The synthesised videos, with ground truth.
    pub(crate) corpus: Vec<Video>,
    /// Total frames across the corpus.
    pub(crate) frames: usize,
    /// The trained speech classifier the miner was built around.
    pub(crate) classifier: SpeechClassifier,
    /// The pipeline configuration.
    pub(crate) config: ClassMinerConfig,
    /// The miner.
    pub(crate) miner: ClassMiner,
}

impl Fixture {
    /// Synthesises the corpus and trains the miner, recording both as
    /// set-up phases.
    pub(crate) fn new(scale: CorpusScale, report: &mut Report) -> Fixture {
        let mut clock = Instant::now();
        let corpus = standard_corpus(scale, CORPUS_SEED);
        report.lap("synthesis", &mut clock);
        let classifier = train_classifier(CORPUS_SEED);
        report.lap("training", &mut clock);
        let frames = corpus.iter().map(|v| v.frame_count()).sum();
        report.context("corpus_videos", corpus.len());
        report.context("corpus_frames", frames);
        let config = ClassMinerConfig::default();
        let miner = ClassMiner::with_classifier(config, classifier.clone());
        Fixture {
            corpus,
            frames,
            classifier,
            config,
            miner,
        }
    }
}

/// Trains the speech classifier with the same clips, rate, components and
/// generator sequence as [`ClassMiner::new`] does for `seed`, so a miner
/// built around it mines identically.
pub(crate) fn train_classifier(seed: u64) -> SpeechClassifier {
    const SAMPLE_RATE: u32 = 8000;
    let mut rng = StdRng::seed_from_u64(seed);
    let (speech, nonspeech) = speech_training_clips(SAMPLE_RATE, 2.0, 24, &mut rng);
    SpeechClassifier::train(&speech, &nonspeech, SAMPLE_RATE, 2, &mut rng)
        .expect("the standard training clips train a classifier")
}

/// The generator of input stream `stream` under `seed`: every workload
/// input is drawn from one, so the same `--seed` gives the same inputs.
pub(crate) fn seeded(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `features` scaled per dimension by a seeded factor in
/// `[1 - amount, 1 + amount]`: a nearby, non-negative, distinct vector.
pub(crate) fn perturb(features: &[f32], rng: &mut StdRng, amount: f64) -> Vec<f32> {
    features
        .iter()
        .map(|&x| (f64::from(x) * (1.0 + amount * (2.0 * rng.gen::<f64>() - 1.0))) as f32)
        .collect()
}

/// The archive: every mined record, plus seeded perturbed neighbours of
/// them in synthetic videos of [`SHOTS_PER_VIDEO`] shots, up to `target`
/// records. Neighbours cycle through the mined records, so every seed
/// gives the archive the same shape and only the perturbations differ.
pub(crate) fn archive_records(mined: &VideoDatabase, target: usize, seed: u64) -> Vec<ShotRecord> {
    let base: Vec<ShotRecord> = mined.records_iter().cloned().collect();
    let mut rng = seeded(seed, 1);
    let mut out = base.clone();
    let mut i = 0usize;
    while out.len() < target {
        let src = &base[i % base.len()];
        out.push(ShotRecord {
            shot: ShotRef {
                video: VideoId(NEIGHBOUR_VIDEO_BASE + i / SHOTS_PER_VIDEO),
                shot: ShotId(i % SHOTS_PER_VIDEO),
            },
            features: perturb(&src.features, &mut rng, 0.2),
            event: src.event,
            scene_node: src.scene_node,
        });
        i += 1;
    }
    out
}

/// A built medical-taxonomy database over `records`.
pub(crate) fn build_db(records: &[ShotRecord]) -> VideoDatabase {
    let mut db = VideoDatabase::medical();
    for r in records {
        db.try_insert_shot(r.shot, r.features.clone(), r.event, r.scene_node)
            .expect("archive records are valid");
    }
    db.build();
    db
}

/// Picks popular items with Zipf-like skew: item `i` has weight
/// `1 / (i + 1)`.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A picker over `n` items.
    pub(crate) fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / (i as f64 + 1.0);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The next item.
    pub(crate) fn pick(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The hot set: `n` distinct mined shots' feature vectors, seeded.
pub(crate) fn hot_set(mined: &VideoDatabase, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let records: Vec<&ShotRecord> = mined.records_iter().collect();
    let mut rng = seeded(seed, 2);
    let mut chosen: Vec<usize> = Vec::new();
    while chosen.len() < n.min(records.len()) {
        let i = rng.gen_range(0..records.len());
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    chosen
        .iter()
        .map(|&i| records[i].features.clone())
        .collect()
}

/// One ingest batch: a new video of [`SHOTS_PER_VIDEO`] shots, each a
/// perturbed copy of a seeded mined record.
pub(crate) fn ingest_batch(
    mined: &[ShotRecord],
    video: usize,
    rng: &mut StdRng,
) -> Vec<IngestShot> {
    (0..SHOTS_PER_VIDEO)
        .map(|i| {
            let src = &mined[rng.gen_range(0..mined.len())];
            IngestShot {
                video: VideoId(video),
                shot: ShotId(i),
                features: perturb(&src.features, rng, 0.2),
                event: src.event,
                scene_node: src.scene_node,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(32);
        let mut rng = seeded(5, 0);
        let mut counts = [0usize; 32];
        for _ in 0..10_000 {
            counts[z.pick(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[31] * 10, "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn perturbation_is_seeded_and_close() {
        let f = vec![0.5f32, 0.0, 2.0];
        let a = perturb(&f, &mut seeded(1, 0), 0.2);
        let b = perturb(&f, &mut seeded(1, 0), 0.2);
        assert_eq!(a, b);
        assert_eq!(a[1], 0.0);
        assert!((a[0] - 0.5).abs() <= 0.1 && (a[2] - 2.0).abs() <= 0.4);
    }
}
