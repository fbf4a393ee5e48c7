//! The end-to-end ClassMiner pipeline (paper Fig. 3).
//!
//! [`ClassMiner`] owns a trained speech classifier and the full mining
//! configuration; [`ClassMiner::mine`] runs shot detection, content-structure
//! mining and event mining on one video, and [`ClassMiner::index_corpus`]
//! builds the hierarchical database over a mined corpus.

use medvid_audio::bic::BicConfig;
use medvid_audio::{AudioMiner, SpeechClassifier};
use medvid_events::{EventMiner, SceneEvent};
use medvid_index::db::IndexConfig;
use medvid_index::VideoDatabase;
use medvid_obs::{CorpusReport, MiningReport, Recorder};
use medvid_signal::gmm::GmmError;
use medvid_skim::{build_skim, Skim, SkimLevel};
use medvid_structure::{mine_structure_observed, MiningConfig};
use medvid_synth::generate::speech_training_clips;
use medvid_types::{ContentStructure, Video};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the full pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassMinerConfig {
    /// Content-structure mining parameters.
    pub mining: MiningConfig,
    /// BIC speaker-change parameters.
    pub bic: BicConfig,
    /// Database index parameters.
    pub index: IndexConfig,
    /// Audio sample rate the speech classifier is trained at (0 = 8 kHz).
    pub sample_rate: u32,
}

/// Everything mined from one video.
#[derive(Debug, Clone)]
pub struct MinedVideo {
    /// The content-structure hierarchy.
    pub structure: ContentStructure,
    /// Per-scene mined events.
    pub events: Vec<SceneEvent>,
}

impl MinedVideo {
    /// Builds the skim of one level from the mined structure.
    pub fn skim(&self, level: SkimLevel) -> Skim {
        build_skim(&self.structure, level)
    }
}

/// The ClassMiner system: a trained event miner plus mining configuration.
#[derive(Debug, Clone)]
pub struct ClassMiner {
    config: ClassMinerConfig,
    event_miner: EventMiner,
}

impl ClassMiner {
    /// Creates a ClassMiner, training the speech/non-speech GMM classifier
    /// on synthesised labelled clips (deterministic for a given seed).
    ///
    /// # Errors
    /// Propagates [`GmmError`] from classifier training.
    pub fn new(config: ClassMinerConfig, seed: u64) -> Result<Self, GmmError> {
        let sample_rate = if config.sample_rate == 0 {
            8000
        } else {
            config.sample_rate
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (speech, nonspeech) = speech_training_clips(sample_rate, 2.0, 24, &mut rng);
        let classifier = SpeechClassifier::train(&speech, &nonspeech, sample_rate, 2, &mut rng)?;
        let audio = AudioMiner::new(classifier, config.bic);
        Ok(Self {
            config,
            event_miner: EventMiner::new(audio),
        })
    }

    /// Creates a ClassMiner around an already-trained speech classifier.
    pub fn with_classifier(config: ClassMinerConfig, classifier: SpeechClassifier) -> Self {
        let audio = AudioMiner::new(classifier, config.bic);
        Self {
            config,
            event_miner: EventMiner::new(audio),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &ClassMinerConfig {
        &self.config
    }

    /// The event-mining front-end.
    pub fn event_miner(&self) -> &EventMiner {
        &self.event_miner
    }

    /// Mines one video end-to-end: content structure, then scene events.
    pub fn mine(&self, video: &Video) -> MinedVideo {
        self.mine_observed(video, &Recorder::disabled())
    }

    /// Like [`Self::mine`], reporting per-stage timings and domain counters
    /// from every pipeline stage through `rec`.
    pub fn mine_observed(&self, video: &Video, rec: &Recorder) -> MinedVideo {
        rec.record_value(medvid_obs::values::PAR_THREADS, medvid_par::max_threads() as u64);
        let structure = mine_structure_observed(video, &self.config.mining, rec);
        let events = self.event_miner.mine_observed(video, &structure, rec);
        MinedVideo { structure, events }
    }

    /// Mines one video and returns the mining result together with its
    /// telemetry report (stage timings + domain counters).
    pub fn mine_report(&self, video: &Video) -> (MinedVideo, MiningReport) {
        let rec = Recorder::new();
        let mined = self.mine_observed(video, &rec);
        let report = rec
            .report()
            .for_video(video.id.to_string(), video.title.clone());
        (mined, report)
    }

    /// Mines a corpus and builds the hierarchical database over it.
    pub fn index_corpus(&self, corpus: &[Video]) -> (VideoDatabase, Vec<MinedVideo>) {
        self.index_corpus_observed(corpus, &Recorder::disabled())
    }

    /// Like [`Self::index_corpus`], reporting mining and index-construction
    /// telemetry through `rec`.
    pub fn index_corpus_observed(
        &self,
        corpus: &[Video],
        rec: &Recorder,
    ) -> (VideoDatabase, Vec<MinedVideo>) {
        let mut db = VideoDatabase::medical();
        let mut mined = Vec::with_capacity(corpus.len());
        for video in corpus {
            let m = self.mine_observed(video, rec);
            let events: Vec<_> = m.events.iter().map(|e| (e.scene, e.event)).collect();
            db.insert_video(video.id, &m.structure, &events);
            mined.push(m);
        }
        db.build_observed(rec);
        (db, mined)
    }

    /// Mines and indexes a corpus, returning per-video telemetry reports and
    /// the corpus-wide totals alongside the database.
    pub fn index_corpus_report(
        &self,
        corpus: &[Video],
    ) -> (VideoDatabase, Vec<MinedVideo>, CorpusReport) {
        let total = Recorder::new();
        let mut db = VideoDatabase::medical();
        let mut mined = Vec::with_capacity(corpus.len());
        let mut reports = Vec::with_capacity(corpus.len());
        for video in corpus {
            let per = Recorder::new();
            let m = self.mine_observed(video, &per);
            let events: Vec<_> = m.events.iter().map(|e| (e.scene, e.event)).collect();
            db.insert_video(video.id, &m.structure, &events);
            mined.push(m);
            reports.push(
                per.report()
                    .for_video(video.id.to_string(), video.title.clone()),
            );
            per.merge_into(&total);
        }
        db.build_observed(&total);
        (db, mined, CorpusReport::new(reports, total.report()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvid_synth::{standard_corpus, CorpusScale};

    #[test]
    fn pipeline_mines_and_indexes_tiny_corpus() {
        let corpus = standard_corpus(CorpusScale::Tiny, 31);
        let miner = ClassMiner::new(ClassMinerConfig::default(), 31).unwrap();
        let (db, mined) = miner.index_corpus(&corpus);
        assert_eq!(mined.len(), corpus.len());
        assert!(!db.is_empty());
        for m in &mined {
            assert_eq!(m.structure.validate(), Ok(()));
            assert_eq!(m.events.len(), m.structure.scenes.len());
        }
        // Query the database with one of its own shots.
        let q = mined[0].structure.shots[0].features.concat();
        let (hits, stats) = db.hierarchical_search(&q, 5, None);
        assert!(!hits.is_empty());
        assert!(stats.comparisons < db.len());
    }

    #[test]
    fn mine_report_times_every_pipeline_stage() {
        use medvid_obs::{counters, Stage};
        let corpus = standard_corpus(CorpusScale::Tiny, 33);
        let miner = ClassMiner::new(ClassMinerConfig::default(), 33).unwrap();
        let (mined, report) = miner.mine_report(&corpus[0]);
        assert_eq!(report.video.as_deref(), Some("V0"));
        assert_eq!(
            report.counter(counters::SHOTS_DETECTED),
            mined.structure.shots.len() as u64
        );
        for stage in [
            Stage::ShotDetect,
            Stage::GroupMine,
            Stage::SceneMerge,
            Stage::PcsCluster,
            Stage::VisualCues,
            Stage::AudioBic,
            Stage::EventRules,
        ] {
            assert!(
                report.stage_total_secs(stage) > 0.0,
                "stage {stage} has no recorded wall clock"
            );
        }
    }

    #[test]
    fn index_corpus_report_merges_per_video_telemetry() {
        use medvid_obs::{counters, Stage};
        let corpus = standard_corpus(CorpusScale::Tiny, 34);
        let miner = ClassMiner::new(ClassMinerConfig::default(), 34).unwrap();
        let (db, mined, report) = miner.index_corpus_report(&corpus);
        assert_eq!(mined.len(), corpus.len());
        assert_eq!(report.videos.len(), corpus.len());
        let per_video_shots: u64 = report
            .videos
            .iter()
            .map(|r| r.counter(counters::SHOTS_DETECTED))
            .sum();
        assert_eq!(
            report.totals.counter(counters::SHOTS_DETECTED),
            per_video_shots
        );
        assert_eq!(
            report.totals.counter(counters::INDEX_SHOTS),
            db.len() as u64
        );
        assert!(report.totals.stage_total_secs(Stage::IndexBuild) > 0.0);
        // Per-video reports never see the corpus-level index build.
        for r in &report.videos {
            assert_eq!(r.stage_total_secs(Stage::IndexBuild), 0.0);
        }
    }

    #[test]
    fn audio_sub_stages_reconcile_with_audio_bic() {
        use medvid_obs::Stage;
        let corpus = standard_corpus(CorpusScale::Tiny, 35);
        let miner = ClassMiner::new(ClassMinerConfig::default(), 35).unwrap();
        // One thread: every sub-stage span nests inside its `audio_bic`
        // span on the same thread, so the two clocks measure the same work.
        let (_, _, report) = medvid_par::with_threads(1, || miner.index_corpus_report(&corpus));
        let totals = &report.totals;
        let audio = totals.stage_total_secs(Stage::AudioBic);
        let subs = [Stage::AudioClipScore, Stage::AudioMfcc, Stage::AudioBicTest];
        for stage in subs {
            assert!(totals.stage_total_secs(stage) > 0.0, "{stage} never ran");
        }
        let sum: f64 = subs.iter().map(|&s| totals.stage_total_secs(s)).sum();
        assert!(
            sum <= audio && sum >= 0.95 * audio,
            "audio sub-stages sum to {sum:.4} s of audio_bic's {audio:.4} s"
        );
    }

    #[test]
    fn skims_available_from_mined_video() {
        let corpus = standard_corpus(CorpusScale::Tiny, 32);
        let miner = ClassMiner::new(ClassMinerConfig::default(), 32).unwrap();
        let m = miner.mine(&corpus[0]);
        let s4 = m.skim(SkimLevel::ClusteredScenes);
        let s1 = m.skim(SkimLevel::Shots);
        assert!(s4.len() <= s1.len());
        assert_eq!(s1.len(), m.structure.shots.len());
    }
}
