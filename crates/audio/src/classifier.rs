//! Clean-speech vs non-clean-speech GMM classification (paper Sec. 4.2).

use crate::features::ClipFeatureExtractor;
use medvid_signal::gmm::{GmmClassifier, GmmError};
use rand::Rng;

/// A two-class GMM classifier over the 14 clip features.
///
/// The clip-feature extractor (Hamming window + FFT plan) is built once at
/// construction and shared by training and every subsequent
/// [`SpeechClassifier::classify`] call.
#[derive(Debug, Clone)]
pub struct SpeechClassifier {
    inner: GmmClassifier,
    extractor: ClipFeatureExtractor,
}

impl SpeechClassifier {
    /// Trains the classifier from labelled waveform clips. Clips are
    /// featurised in parallel (order-preserving, so training is
    /// deterministic for a given `rng`).
    ///
    /// # Errors
    /// Returns [`GmmError`] when either class has too few usable clips.
    pub fn train<R: Rng + ?Sized>(
        speech_clips: &[Vec<f32>],
        nonspeech_clips: &[Vec<f32>],
        sample_rate: u32,
        components: usize,
        rng: &mut R,
    ) -> Result<Self, GmmError> {
        let extractor = ClipFeatureExtractor::new(sample_rate);
        let featurise = |clips: &[Vec<f32>]| -> Vec<Vec<f64>> {
            medvid_par::par_map_indexed(clips.len(), |i| extractor.extract(&clips[i]))
                .into_iter()
                .flatten()
                .collect()
        };
        let pos = featurise(speech_clips);
        let neg = featurise(nonspeech_clips);
        Ok(Self {
            inner: GmmClassifier::train(&pos, &neg, components, 40, rng)?,
            extractor,
        })
    }

    /// Classifies a waveform clip. Returns `None` for clips too short to
    /// featurise; otherwise `(is_speech, margin)`.
    pub fn classify(&self, clip: &[f32]) -> Option<(bool, f64)> {
        let f = self.extractor.extract(clip)?;
        Some(self.classify_features(&f))
    }

    /// Classifies an already extracted 14-feature vector (see
    /// [`crate::features`]): `(is_speech, margin)`.
    pub fn classify_features(&self, features: &[f64]) -> (bool, f64) {
        self.inner.classify(features)
    }

    /// Speech-likeness score (log-likelihood margin); `None` for clips too
    /// short to featurise.
    pub fn speech_score(&self, clip: &[f32]) -> Option<f64> {
        self.classify(clip).map(|(_, margin)| margin)
    }

    /// The sample rate the classifier was trained at.
    pub fn sample_rate(&self) -> u32 {
        self.extractor.sample_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvid_synth::generate::speech_training_clips;
    use medvid_synth::voice::{synth_ambient, synth_speech, voice_for_speaker};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SR: u32 = 8000;

    fn trained(seed: u64) -> SpeechClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        let (speech, nonspeech) = speech_training_clips(SR, 2.0, 24, &mut rng);
        SpeechClassifier::train(&speech, &nonspeech, SR, 2, &mut rng).unwrap()
    }

    #[test]
    fn classifies_held_out_clips() {
        let clf = trained(1);
        let mut rng = StdRng::seed_from_u64(999);
        let mut correct = 0;
        let total = 20;
        for i in 0..total / 2 {
            let clip = synth_speech(
                &voice_for_speaker(20 + i as u32),
                16000,
                i * 1000,
                SR,
                &mut rng,
            );
            if clf.classify(&clip).unwrap().0 {
                correct += 1;
            }
            let noise = synth_ambient(16000, i * 777, SR, &mut rng);
            if !clf.classify(&noise).unwrap().0 {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc >= 0.9, "speech/non-speech accuracy {acc}");
    }

    #[test]
    fn speech_scores_rank_speech_above_noise() {
        let clf = trained(2);
        let mut rng = StdRng::seed_from_u64(5);
        let speech = synth_speech(&voice_for_speaker(31), 16000, 0, SR, &mut rng);
        let noise = synth_ambient(16000, 0, SR, &mut rng);
        assert!(clf.speech_score(&speech).unwrap() > clf.speech_score(&noise).unwrap());
    }

    #[test]
    fn short_clip_is_none() {
        let clf = trained(3);
        assert!(clf.classify(&[0.0; 10]).is_none());
    }

    #[test]
    fn training_fails_with_no_data() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(SpeechClassifier::train(&[], &[], SR, 2, &mut rng).is_err());
    }
}
