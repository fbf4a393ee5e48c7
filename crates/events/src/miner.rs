//! End-to-end event mining: cue extraction + rules over every scene.

use crate::rules::{classify_scene, SceneEvidence, ShotEvidence};
use medvid_audio::{AudioMiner, ShotAudio};
use medvid_obs::{counters, Recorder, Stage};
use medvid_types::{ContentStructure, EventKind, GroupKind, SceneId, Video};
use medvid_vision::{extract_cues, VisualCues};

/// The mined event of one scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneEvent {
    /// The scene.
    pub scene: SceneId,
    /// Its mined category.
    pub event: EventKind,
}

/// The event-mining front-end: holds the audio miner (with its trained
/// speech classifier) and drives cue extraction plus the decision rules.
#[derive(Debug, Clone)]
pub struct EventMiner {
    audio: AudioMiner,
}

impl EventMiner {
    /// Builds a miner.
    pub fn new(audio: AudioMiner) -> Self {
        Self { audio }
    }

    /// Extracts per-shot visual cues from the representative frames.
    pub fn visual_cues(&self, video: &Video, structure: &ContentStructure) -> Vec<VisualCues> {
        self.visual_cues_observed(video, structure, &Recorder::disabled())
    }

    /// Like [`Self::visual_cues`], timing the pass under the `visual_cues`
    /// stage and counting detected faces plus skin/blood frames through `rec`.
    pub fn visual_cues_observed(
        &self,
        video: &Video,
        structure: &ContentStructure,
        rec: &Recorder,
    ) -> Vec<VisualCues> {
        let _span = rec.span(Stage::VisualCues);
        let cues: Vec<VisualCues> = structure
            .shots
            .iter()
            .map(|s| {
                let idx = s.rep_frame.min(video.frames.len().saturating_sub(1));
                extract_cues(&video.frames[idx])
            })
            .collect();
        let faces: u64 = cues.iter().map(|c| c.faces.len() as u64).sum();
        let skin = cues.iter().filter(|c| c.has_skin()).count() as u64;
        let blood = cues.iter().filter(|c| c.has_blood_red).count() as u64;
        rec.incr(counters::FACES_FOUND, faces);
        rec.incr(counters::SKIN_FRAMES, skin);
        rec.incr(counters::BLOOD_FRAMES, blood);
        cues
    }

    /// Mines the event category of every scene.
    pub fn mine(&self, video: &Video, structure: &ContentStructure) -> Vec<SceneEvent> {
        self.mine_observed(video, structure, &Recorder::disabled())
    }

    /// Like [`Self::mine`], reporting cue-extraction and rule-evaluation
    /// timings plus the BIC speaker-change work through `rec`.
    pub fn mine_observed(
        &self,
        video: &Video,
        structure: &ContentStructure,
        rec: &Recorder,
    ) -> Vec<SceneEvent> {
        let cues = self.visual_cues_observed(video, structure, rec);
        let audio = self
            .audio
            .analyze_shots_observed(video, &structure.shots, rec);
        self.mine_with_cues_observed(structure, &cues, &audio, rec)
    }

    /// Mines events from pre-extracted cues (used by the evaluation harness
    /// to amortise cue extraction across experiments).
    pub fn mine_with_cues(
        &self,
        structure: &ContentStructure,
        cues: &[VisualCues],
        audio: &[ShotAudio],
    ) -> Vec<SceneEvent> {
        self.mine_with_cues_observed(structure, cues, audio, &Recorder::disabled())
    }

    /// Like [`Self::mine_with_cues`], timing the speaker-change matrices
    /// under the `audio_bic` stage (and its `audio_bic_test` sub-stage)
    /// and the evidence assembly plus rule
    /// evaluation under `event_rules`, and counting BIC tests run/accepted.
    pub fn mine_with_cues_observed(
        &self,
        structure: &ContentStructure,
        cues: &[VisualCues],
        audio: &[ShotAudio],
        rec: &Recorder,
    ) -> Vec<SceneEvent> {
        let _span = rec.span(Stage::EventRules);
        let mut bic_run = 0u64;
        let mut bic_accepted = 0u64;
        let events: Vec<SceneEvent> = structure
            .scenes
            .iter()
            .map(|scene| {
                let shot_ids = structure.scene_shots(scene.id);
                let shots: Vec<ShotEvidence> = shot_ids
                    .iter()
                    .map(|&sid| {
                        let c = &cues[sid.index()];
                        ShotEvidence {
                            slide_or_clipart: c.is_slide_or_clipart(),
                            face: c.has_face(),
                            face_close_up: c.has_face_close_up(),
                            skin: c.has_skin(),
                            skin_close_up: c.has_skin_close_up(),
                            blood_red: c.has_blood_red,
                            speech: audio[sid.index()].is_speech,
                        }
                    })
                    .collect();
                let n = shot_ids.len();
                let mut matrix = vec![vec![None; n]; n];
                {
                    let _bic_span = rec.span(Stage::AudioBic);
                    let _test_span = rec.span(Stage::AudioBicTest);
                    for i in 0..n {
                        for j in i + 1..n {
                            let verdict = self
                                .audio
                                .speaker_change(
                                    &audio[shot_ids[i].index()],
                                    &audio[shot_ids[j].index()],
                                )
                                .map(|o| o.speaker_change);
                            if verdict.is_some() {
                                bic_run += 1;
                            }
                            if verdict == Some(true) {
                                bic_accepted += 1;
                            }
                            matrix[i][j] = verdict;
                            matrix[j][i] = verdict;
                        }
                    }
                }
                let any_temporal = scene
                    .groups
                    .iter()
                    .any(|&g| structure.group(g).kind == GroupKind::TemporallyRelated);
                let any_spatial = scene
                    .groups
                    .iter()
                    .any(|&g| structure.group(g).kind == GroupKind::SpatiallyRelated);
                let evidence = SceneEvidence {
                    shots,
                    any_temporally_related_group: any_temporal,
                    any_spatially_related_group: any_spatial,
                    speaker_change: matrix,
                };
                SceneEvent {
                    scene: scene.id,
                    event: classify_scene(&evidence),
                }
            })
            .collect();
        rec.incr(counters::BIC_TESTS_RUN, bic_run);
        rec.incr(counters::BIC_CHANGES_ACCEPTED, bic_accepted);
        events
    }
}

/// Convenience wrapper: mines structure-scene events in one call.
pub fn mine_events(
    video: &Video,
    structure: &ContentStructure,
    audio: AudioMiner,
) -> Vec<SceneEvent> {
    EventMiner::new(audio).mine(video, structure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvid_audio::bic::BicConfig;
    use medvid_audio::SpeechClassifier;
    use medvid_structure::{mine_structure, MiningConfig};
    use medvid_synth::corpus::programme_spec;
    use medvid_synth::generate::speech_training_clips;
    use medvid_synth::{generate_video, CorpusScale};
    use medvid_types::VideoId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn miner(seed: u64) -> EventMiner {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sp, ns) = speech_training_clips(8000, 2.0, 24, &mut rng);
        let clf = SpeechClassifier::train(&sp, &ns, 8000, 2, &mut rng).unwrap();
        EventMiner::new(AudioMiner::new(clf, BicConfig::default()))
    }

    #[test]
    fn mines_events_on_tiny_programme() {
        let spec = programme_spec("t", CorpusScale::Tiny, 21);
        let video = generate_video(VideoId(0), &spec, 21);
        let structure = mine_structure(&video, &MiningConfig::default());
        let events = miner(1).mine(&video, &structure);
        assert_eq!(events.len(), structure.scenes.len());
        // At least one determinate event must be found in a programme that
        // scripts presentations, dialogs and clinical scenes.
        assert!(
            events.iter().any(|e| e.event.is_determinate()),
            "events: {events:?}"
        );
    }

    #[test]
    fn ground_truth_scenes_classify_mostly_correctly() {
        // Use ground-truth shot boundaries and scenes to isolate the event
        // rules from structure-mining noise.
        let spec = programme_spec("t", CorpusScale::Small, 33);
        let video = generate_video(VideoId(0), &spec, 33);
        let truth = video.truth.clone().unwrap();
        let structure = truth_structure(&video);
        let events = miner(2).mine(&video, &structure);
        let mut correct = 0usize;
        let mut total = 0usize;
        for (unit, ev) in truth.semantic_units.iter().zip(events.iter()) {
            if let Some(expected) = unit.event {
                total += 1;
                if ev.event == expected {
                    correct += 1;
                }
            }
        }
        assert!(total >= 5, "labelled units: {total}");
        let acc = correct as f64 / total as f64;
        assert!(
            acc >= 0.6,
            "event accuracy {acc} ({correct}/{total}); events: {events:?}"
        );
    }

    /// Builds a ContentStructure from ground truth: one group per GT scene
    /// slice, classified by the real classifier.
    fn truth_structure(video: &medvid_types::Video) -> ContentStructure {
        use medvid_structure::group::classify_group;
        use medvid_structure::similarity::SimilarityWeights;
        use medvid_types::{GroupId, Scene, SceneId};
        let truth = video.truth.as_ref().unwrap();
        let shots = medvid_structure::shot::build_shots(&video.frames, &truth.shot_cuts);
        let mut groups = Vec::new();
        let mut scenes = Vec::new();
        for (i, unit) in truth.semantic_units.iter().enumerate() {
            let members: Vec<_> = shots
                .iter()
                .filter(|s| s.start_frame >= unit.start_frame && s.end_frame <= unit.end_frame)
                .map(|s| s.id)
                .collect();
            if members.is_empty() {
                continue;
            }
            let gid = GroupId(groups.len());
            groups.push(classify_group(
                gid,
                members,
                &shots,
                SimilarityWeights::default(),
                0.75,
            ));
            scenes.push(Scene {
                id: SceneId(i),
                groups: vec![gid],
                representative_group: gid,
            });
        }
        // Re-index scenes (all units were non-empty here).
        for (i, s) in scenes.iter_mut().enumerate() {
            s.id = SceneId(i);
        }
        ContentStructure {
            shots,
            groups,
            scenes,
            clustered_scenes: Vec::new(),
        }
    }
}
