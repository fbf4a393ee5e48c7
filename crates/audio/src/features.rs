//! The 14 clip-level audio features (paper Sec. 4.2, after Liu & Huang \[22\]).
//!
//! Each ~2-second clip is framed at 30 ms / 10 ms hop; frame-level
//! measurements are aggregated into exactly [`CLIP_FEATURE_DIMS`] = 14
//! clip-level features chosen to separate clean speech from music, noise and
//! silence:
//!
//!  0. mean frame RMS energy
//!  1. std of frame RMS (speech is strongly amplitude-modulated)
//!  2. silence-frame ratio (speech has inter-word pauses)
//!  3. mean zero-crossing rate
//!  4. std of zero-crossing rate
//!  5. mean spectral centroid (normalised to Nyquist)
//!  6. std of spectral centroid
//!  7. mean spectral roll-off (85%)
//!  8. mean spectral flux
//!  9. sub-band energy ratio 0–500 Hz
//! 10. sub-band energy ratio 500–1000 Hz
//! 11. sub-band energy ratio 1–2 kHz
//! 12. sub-band energy ratio 2–4 kHz
//! 13. pitch strength (autocorrelation peak in the 80–320 Hz lag range)

use medvid_signal::fft::{next_pow2, Complex, FftPlan};
use medvid_signal::stats::{mean, rms, std_dev, zero_crossing_rate};
use medvid_signal::window::{apply_window_into, frames, hamming};

/// Number of clip-level features.
pub const CLIP_FEATURE_DIMS: usize = 14;

/// A reusable clip-feature extractor: the Hamming analysis window, the
/// [`FftPlan`] and the per-bin spectrum tables are built once and amortised
/// across every clip, and the per-frame window / spectrum buffers are reused
/// across frames.
///
/// The extractor is immutable and `Sync`, so shots can be featurised in
/// parallel against one shared instance. Each table entry comes from the
/// expression the frame loop would otherwise evaluate per frame, and every
/// sum keeps its order, so the features are bit-identical to computing each
/// frame from scratch (`crates/audio/tests/testkit_bic.rs` checks this).
#[derive(Debug, Clone)]
pub struct ClipFeatureExtractor {
    sample_rate: u32,
    frame_len: usize,
    hop: usize,
    window: Vec<f64>,
    plan: FftPlan,
    /// `bin_freqs[k] = k * bin_hz`: the centre frequency of spectrum bin `k`.
    bin_freqs: Vec<f64>,
    /// Sub-band `b` (0–500, 500–1000, 1000–2000, 2000 Hz–Nyquist) covers
    /// bins `band_starts[b]..band_starts[b + 1]`.
    band_starts: [usize; 5],
}

impl ClipFeatureExtractor {
    /// Builds an extractor with the paper's framing (30 ms window, 10 ms hop)
    /// at `sample_rate`.
    pub fn new(sample_rate: u32) -> Self {
        let frame_len = (0.030 * sample_rate as f64).round() as usize;
        let hop = (0.010 * sample_rate as f64).round() as usize;
        let plan = FftPlan::new(next_pow2(frame_len));
        let bins = plan.len() / 2 + 1;
        let bin_hz = sample_rate as f64 / 2.0 / (bins - 1).max(1) as f64;
        let bin_freqs: Vec<f64> = (0..bins).map(|k| k as f64 * bin_hz).collect();
        // Bin frequencies ascend, so each sub-band is one contiguous run.
        let first_at_or_above = |hz: f64| bin_freqs.partition_point(|&f| f < hz);
        let band_starts = [
            0,
            first_at_or_above(500.0),
            first_at_or_above(1000.0),
            first_at_or_above(2000.0),
            bins,
        ];
        Self {
            sample_rate,
            frame_len,
            hop,
            window: hamming(frame_len),
            plan,
            bin_freqs,
            band_starts,
        }
    }

    /// The sample rate the extractor frames at.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Extracts the 14 clip features from a waveform.
    ///
    /// Returns `None` for clips shorter than one analysis frame.
    pub fn extract(&self, signal: &[f32]) -> Option<Vec<f64>> {
        let (frame_len, hop) = (self.frame_len, self.hop);
        if signal.len() < frame_len || frame_len == 0 || hop == 0 {
            return None;
        }
        let nyquist = self.sample_rate as f64 / 2.0;

        let mut energies = Vec::new();
        let mut zcrs = Vec::new();
        let mut centroids = Vec::new();
        let mut rolloffs = Vec::new();
        let mut fluxes = Vec::new();
        let mut band_energy = [0.0f64; 4];
        let mut total_energy = 0.0f64;
        // Reused across frames: the windowed frame, FFT scratch, the power
        // spectrum, and the current / previous magnitude spectra (swapped,
        // never reallocated; each bin's square root is taken once).
        let mut windowed = Vec::with_capacity(frame_len);
        let mut scratch: Vec<Complex> = Vec::new();
        let mut power: Vec<f64> = Vec::new();
        let mut magnitude: Vec<f64> = Vec::new();
        let mut prev_magnitude: Vec<f64> = Vec::new();
        let mut has_prev = false;

        for frame in frames(signal, frame_len, hop) {
            energies.push(rms(frame));
            zcrs.push(zero_crossing_rate(frame));
            apply_window_into(frame, &self.window, &mut windowed);
            self.plan
                .power_spectrum_into(&windowed, &mut scratch, &mut power);
            let total: f64 = power.iter().sum();
            if total > 1e-12 {
                // Centroid.
                let centroid: f64 = self
                    .bin_freqs
                    .iter()
                    .zip(&power)
                    .map(|(&hz, &p)| hz * p)
                    .sum::<f64>()
                    / total;
                centroids.push(centroid / nyquist);
                // Roll-off at 85%.
                let mut acc = 0.0;
                let mut roll = 0usize;
                for (k, &p) in power.iter().enumerate() {
                    acc += p;
                    if acc >= 0.85 * total {
                        roll = k;
                        break;
                    }
                }
                rolloffs.push(self.bin_freqs[roll] / nyquist);
            } else {
                centroids.push(0.0);
                rolloffs.push(0.0);
            }
            // Flux.
            magnitude.clear();
            magnitude.extend(power.iter().map(|p| p.sqrt()));
            if has_prev {
                let flux: f64 = magnitude
                    .iter()
                    .zip(prev_magnitude.iter())
                    .map(|(&a, &b)| (a - b).abs())
                    .sum::<f64>()
                    / self.bin_freqs.len() as f64;
                fluxes.push(flux);
            }
            // Sub-bands, each summed in ascending bin order.
            for (band, energy) in band_energy.iter_mut().enumerate() {
                let (lo, hi) = (self.band_starts[band], self.band_starts[band + 1]);
                for &p in &power[lo..hi] {
                    *energy += p;
                    total_energy += p;
                }
            }
            std::mem::swap(&mut prev_magnitude, &mut magnitude);
            has_prev = true;
        }

        let peak = energies.iter().copied().fold(0.0f64, f64::max);
        let silence_thresh = (peak * 0.1).max(1e-4);
        let silence_ratio =
            energies.iter().filter(|&&e| e < silence_thresh).count() as f64 / energies.len() as f64;

        let mut out = Vec::with_capacity(CLIP_FEATURE_DIMS);
        out.push(mean(&energies));
        out.push(std_dev(&energies));
        out.push(silence_ratio);
        out.push(mean(&zcrs));
        out.push(std_dev(&zcrs));
        out.push(mean(&centroids));
        out.push(std_dev(&centroids));
        out.push(mean(&rolloffs));
        out.push(mean(&fluxes));
        for band in band_energy {
            out.push(if total_energy > 1e-12 {
                band / total_energy
            } else {
                0.0
            });
        }
        out.push(pitch_strength(signal, self.sample_rate));
        debug_assert_eq!(out.len(), CLIP_FEATURE_DIMS);
        Some(out)
    }
}

/// Extracts the 14 clip features from a waveform at `sample_rate`.
///
/// One-shot convenience over [`ClipFeatureExtractor`]; batch callers should
/// build the extractor once and reuse it across clips.
///
/// Returns `None` for clips shorter than one analysis frame.
pub fn clip_features(signal: &[f32], sample_rate: u32) -> Option<Vec<f64>> {
    ClipFeatureExtractor::new(sample_rate).extract(signal)
}

/// Pitch strength: the median, over the clip's highest-energy analysis
/// frames, of the normalised autocorrelation peak in the 80–320 Hz
/// fundamental range. High for voiced speech; low for noise (even coloured
/// noise, whose correlation decays monotonically rather than peaking at a
/// period).
pub fn pitch_strength(signal: &[f32], sample_rate: u32) -> f64 {
    let sr = sample_rate as f64;
    let min_lag = (sr / 320.0) as usize;
    let max_lag = (sr / 80.0) as usize;
    let frame_len = max_lag * 3; // three fundamental periods at the low end
    if signal.len() < frame_len || min_lag == 0 {
        return 0.0;
    }
    // Rank frames by energy; analyse the top third (the voiced parts).
    let hop = frame_len / 2;
    let mut frames_by_energy: Vec<(f64, usize)> = (0..)
        .map(|i| i * hop)
        .take_while(|&s| s + frame_len <= signal.len())
        .map(|s| {
            let e: f64 = signal[s..s + frame_len]
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum();
            (e, s)
        })
        .collect();
    if frames_by_energy.is_empty() {
        return 0.0;
    }
    frames_by_energy.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite energy"));
    let take = (frames_by_energy.len() / 3).max(1);
    let mut peaks: Vec<f64> = Vec::with_capacity(take);
    for &(energy, start) in frames_by_energy.iter().take(take) {
        if energy < 1e-9 {
            peaks.push(0.0);
            continue;
        }
        let seg: Vec<f64> = signal[start..start + frame_len]
            .iter()
            .map(|&s| s as f64)
            .collect();
        let mean = seg.iter().sum::<f64>() / seg.len() as f64;
        let seg: Vec<f64> = seg.iter().map(|s| s - mean).collect();
        let sq: Vec<f64> = seg.iter().map(|x| x * x).collect();
        // `ea` at lag `l` sums the first `n - l` squares left to right,
        // which is exactly entry `n - l` of this running prefix. (`eb` is a
        // suffix sum and `corr` changes with every lag: neither can be
        // derived from a prefix without changing the rounding.)
        let mut prefix_sq = Vec::with_capacity(sq.len() + 1);
        let mut acc = 0.0f64;
        prefix_sq.push(acc);
        for &x in &sq {
            acc += x;
            prefix_sq.push(acc);
        }
        let last_lag = max_lag.min(seg.len() - 1);
        let mut best = 0.0f64;
        let mut consider = |lag: usize, corr: f64, eb: f64| {
            let ea = prefix_sq[seg.len() - lag];
            let denom = (ea * eb).sqrt();
            if denom > 1e-12 {
                best = best.max(corr / denom);
            }
        };
        let mut lag = min_lag;
        while lag + LAG_LANES - 1 <= last_lag {
            let (corr, eb) = lag_block(&seg, &sq, lag);
            for j in 0..LAG_LANES {
                consider(lag + j, corr[j], eb[j]);
            }
            lag += LAG_LANES;
        }
        for lag in lag..=last_lag {
            let (a, b) = (&seg[..seg.len() - lag], &seg[lag..]);
            let corr: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            let eb: f64 = sq[lag..].iter().sum();
            consider(lag, corr, eb);
        }
        peaks.push(best);
    }
    peaks.sort_by(|a, b| a.partial_cmp(b).expect("finite peak"));
    peaks[peaks.len() / 2].clamp(0.0, 1.0)
}

/// Lags [`lag_block`] evaluates together.
const LAG_LANES: usize = 8;

/// `corr` and `eb` of [`pitch_strength`] for the `LAG_LANES` lags from
/// `lag0`: `corr[j] = sum_i seg[i] seg[i + lag0 + j]` over `i < n - lag0 - j`
/// and `eb[j] = sum_i sq[i]` over `i >= lag0 + j`.
///
/// One lag at a time, each sum is a chain of dependent additions that
/// waits on the adder's latency. Here the lags' sums advance side by side
/// as independent chains, but each chain still adds exactly its own terms
/// in ascending `i` from `Sum`'s `-0.0` start, so every value is
/// bit-identical to summing that lag alone.
///
/// Requires `lag0 + LAG_LANES <= seg.len()` and `sq[i] == seg[i] * seg[i]`.
fn lag_block(seg: &[f64], sq: &[f64], lag0: usize) -> ([f64; LAG_LANES], [f64; LAG_LANES]) {
    let n = seg.len();
    let mut corr = [-0.0f64; LAG_LANES];
    let mut eb = [-0.0f64; LAG_LANES];
    // Terms every lag of the block has, then each lag's own tail.
    let shared = n - lag0 - (LAG_LANES - 1);
    for (&x, ys) in seg[..shared].iter().zip(seg[lag0..].windows(LAG_LANES)) {
        for (c, &y) in corr.iter_mut().zip(ys) {
            *c += x * y;
        }
    }
    for (j, c) in corr.iter_mut().enumerate() {
        for i in shared..n - lag0 - j {
            *c += seg[i] * seg[i + lag0 + j];
        }
    }
    // Each lag's own head, then the squares every lag of the block sums.
    for (j, e) in eb.iter_mut().enumerate() {
        for &s in &sq[lag0 + j..lag0 + LAG_LANES - 1] {
            *e += s;
        }
    }
    for &s in &sq[lag0 + LAG_LANES - 1..] {
        for e in eb.iter_mut() {
            *e += s;
        }
    }
    (corr, eb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvid_synth::voice::{synth_ambient, synth_music, synth_speech, voice_for_speaker};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SR: u32 = 8000;

    fn two_secs_speech(seed: u64, speaker: u32) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        synth_speech(&voice_for_speaker(speaker), 16000, 0, SR, &mut rng)
    }

    #[test]
    fn features_have_14_dims() {
        let f = clip_features(&two_secs_speech(1, 1), SR).unwrap();
        assert_eq!(f.len(), CLIP_FEATURE_DIMS);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn too_short_clip_is_none() {
        assert!(clip_features(&[0.0; 100], SR).is_none());
        assert!(clip_features(&[], SR).is_none());
    }

    #[test]
    fn speech_has_higher_pitch_strength_than_noise() {
        let mut rng = StdRng::seed_from_u64(2);
        let speech = two_secs_speech(2, 1);
        let noise = synth_ambient(16000, 0, SR, &mut rng);
        let ps_speech = pitch_strength(&speech, SR);
        let ps_noise = pitch_strength(&noise, SR);
        assert!(
            ps_speech > ps_noise + 0.2,
            "speech {ps_speech} vs noise {ps_noise}"
        );
    }

    #[test]
    fn speech_has_higher_energy_modulation_than_music() {
        let mut rng = StdRng::seed_from_u64(3);
        let speech = clip_features(&two_secs_speech(3, 2), SR).unwrap();
        let music = clip_features(&synth_music(16000, 0, SR, &mut rng), SR).unwrap();
        // Feature 1 is the std of frame RMS; feature 2 the silence ratio.
        assert!(
            speech[1] > music[1],
            "speech RMS std {} vs music {}",
            speech[1],
            music[1]
        );
        assert!(
            speech[2] > music[2],
            "speech silence {} vs music {}",
            speech[2],
            music[2]
        );
    }

    #[test]
    fn silence_clip_features_are_degenerate() {
        let f = clip_features(&vec![0.0f32; 16000], SR).unwrap();
        assert!(f[0] < 1e-9, "zero energy");
        assert_eq!(f[13], 0.0, "no pitch");
    }

    #[test]
    fn extractor_reuse_matches_one_shot_path() {
        let ex = ClipFeatureExtractor::new(SR);
        // Reuse the same extractor (and its internal buffers) across clips:
        // each result must equal the stateless free-function output exactly.
        for seed in [7u64, 8, 9] {
            let clip = two_secs_speech(seed, seed as u32);
            assert_eq!(ex.extract(&clip), clip_features(&clip, SR), "seed {seed}");
        }
        assert!(ex.extract(&[0.0; 100]).is_none());
    }

    #[test]
    fn subband_ratios_sum_to_one_for_nonsilent() {
        let f = clip_features(&two_secs_speech(4, 3), SR).unwrap();
        let sum: f64 = f[9..13].iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "band ratios sum {sum}");
    }
}
