//! Mel filterbank and MFCC extraction.
//!
//! Paper Sec. 4.2: "a set of 14 dimensional mel frequency coefficients (MFCC)
//! are extracted from 30 ms sliding windows with an overlapping of 20 ms."
//! We implement the textbook chain: pre-emphasis → Hamming window → power
//! spectrum → triangular mel filterbank → log → DCT-II, keeping the first 14
//! coefficients (including C0, which carries loudness and helps the BIC test
//! separate speakers with different levels).

use crate::fft::FftPlan;
use crate::window::{apply_window_into, hamming};
use std::f64::consts::PI;

/// Number of MFCC coefficients the paper uses.
pub const MFCC_DIMS: usize = 14;

/// Default number of triangular mel filters.
pub const DEFAULT_FILTERS: usize = 26;

/// Converts Hz to mel (O'Shaughnessy).
#[inline]
pub fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mel to Hz.
#[inline]
pub fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// A bank of triangular mel-spaced filters over a one-sided power spectrum.
///
/// Each triangle is stored over its nonzero span only, as `(first_bin,
/// weights)`: a 26-filter bank over 129 bins touches about 10 bins per
/// filter instead of 129. Summing a dense row adds `+0.0` products outside
/// the span, which leave a sum of non-negative finite terms unchanged, so
/// for any power spectrum the banded sum is bit-identical to the dense one.
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    /// `(first, weights)`: `weights[i]` is the weight of spectrum bin
    /// `first + i`; every bin outside the span weighs zero.
    filters: Vec<(usize, Vec<f64>)>,
}

impl MelFilterbank {
    /// Builds a filterbank.
    ///
    /// * `n_filters` — number of triangular filters;
    /// * `spectrum_bins` — length of the one-sided power spectrum (fft/2 + 1);
    /// * `sample_rate` — audio sample rate in Hz.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn new(n_filters: usize, spectrum_bins: usize, sample_rate: u32) -> Self {
        assert!(n_filters > 0 && spectrum_bins > 1 && sample_rate > 0);
        let nyquist = sample_rate as f64 / 2.0;
        let mel_lo = hz_to_mel(0.0);
        let mel_hi = hz_to_mel(nyquist);
        // n_filters + 2 edge points, evenly spaced in mel.
        let edges: Vec<f64> = (0..n_filters + 2)
            .map(|i| {
                let mel = mel_lo + (mel_hi - mel_lo) * i as f64 / (n_filters + 1) as f64;
                mel_to_hz(mel)
            })
            .collect();
        let bin_hz = nyquist / (spectrum_bins - 1) as f64;
        let filters = edges
            .windows(3)
            .map(|e| {
                let (lo, mid, hi) = (e[0], e[1], e[2]);
                let weight = |k: usize| {
                    let hz = k as f64 * bin_hz;
                    if hz > lo && hz < mid {
                        (hz - lo) / (mid - lo)
                    } else if (hz - mid).abs() < f64::EPSILON {
                        1.0
                    } else if hz > mid && hz < hi {
                        (hi - hz) / (hi - mid)
                    } else {
                        0.0
                    }
                };
                let Some(first) = (0..spectrum_bins).find(|&k| weight(k) != 0.0) else {
                    return (0, Vec::new());
                };
                let last = (first..spectrum_bins)
                    .rev()
                    .find(|&k| weight(k) != 0.0)
                    .expect("the first nonzero bin is in range");
                (first, (first..=last).map(weight).collect())
            })
            .collect();
        Self { filters }
    }

    /// Applies the bank to a power spectrum, returning per-filter energies.
    pub fn apply(&self, power: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.apply_into(power, &mut out);
        out
    }

    /// Applies the bank into a caller-owned buffer (cleared first), avoiding
    /// the per-window allocation of [`MelFilterbank::apply`] on hot paths.
    ///
    /// `power` must be non-negative (a power spectrum); bins past its end
    /// count as zero.
    pub fn apply_into(&self, power: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.filters.iter().map(|(first, weights)| {
            let span = power.get(*first..).unwrap_or(&[]);
            let mut acc = 0.0;
            for (w, p) in weights.iter().zip(span) {
                acc += w * p;
            }
            acc
        }));
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the bank is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

/// MFCC extractor with the paper's framing (30 ms window, 10 ms hop = 20 ms
/// overlap) baked in as defaults.
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    sample_rate: u32,
    frame_len: usize,
    hop: usize,
    window: Vec<f64>,
    bank: MelFilterbank,
    plan: FftPlan,
    /// The kept rows of the orthonormal DCT-II over the log filter energies.
    dct: Vec<DctRow>,
}

/// Row `k` of the orthonormal DCT-II of length `N`: `scale` is `s_k` and
/// `cos[n]` is `cos(pi/N * (n + 1/2) * k)`, the same expressions
/// [`crate::dct::dct2`] evaluates on every call. A frame's coefficient is
/// `scale * sum_n x_n cos[n]`, summed in `dct2`'s order, so it matches
/// `dct2` bit for bit without its `N * N` cosines per frame.
#[derive(Debug, Clone)]
struct DctRow {
    scale: f64,
    cos: Vec<f64>,
}

impl DctRow {
    /// The first `n_coeffs` rows of the length-`n` transform.
    fn table(n_coeffs: usize, n: usize) -> Vec<DctRow> {
        let nf = n as f64;
        (0..n_coeffs)
            .map(|k| DctRow {
                scale: if k == 0 {
                    (1.0 / nf).sqrt()
                } else {
                    (2.0 / nf).sqrt()
                },
                cos: (0..n)
                    .map(|i| (PI / nf * (i as f64 + 0.5) * k as f64).cos())
                    .collect(),
            })
            .collect()
    }

    fn apply(&self, x: &[f64]) -> f64 {
        let sum: f64 = x.iter().zip(&self.cos).map(|(&v, &c)| v * c).sum();
        self.scale * sum
    }
}

impl MfccExtractor {
    /// Creates an extractor with the paper's parameters: 30 ms windows,
    /// 20 ms overlap (10 ms hop), 14 coefficients.
    pub fn paper_default(sample_rate: u32) -> Self {
        Self::new(sample_rate, 0.030, 0.010, DEFAULT_FILTERS, MFCC_DIMS)
    }

    /// Creates a custom extractor.
    ///
    /// # Panics
    /// Panics if parameters are degenerate (zero-length frames, more
    /// coefficients than filters).
    pub fn new(
        sample_rate: u32,
        window_secs: f64,
        hop_secs: f64,
        n_filters: usize,
        n_coeffs: usize,
    ) -> Self {
        let frame_len = (window_secs * sample_rate as f64).round() as usize;
        let hop = (hop_secs * sample_rate as f64).round() as usize;
        assert!(frame_len > 1 && hop > 0, "degenerate framing");
        assert!(n_coeffs <= n_filters, "more coefficients than filters");
        let fft_len = crate::fft::next_pow2(frame_len);
        let bank = MelFilterbank::new(n_filters, fft_len / 2 + 1, sample_rate);
        Self {
            sample_rate,
            frame_len,
            hop,
            window: hamming(frame_len),
            bank,
            plan: FftPlan::new(fft_len),
            dct: DctRow::table(n_coeffs, n_filters),
        }
    }

    /// Frame length in samples.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Hop size in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Extracts one MFCC vector per frame of `signal`.
    ///
    /// Frames are processed in parallel chunks (see `medvid-par`); each chunk
    /// reuses one set of scratch buffers and the shared [`FftPlan`], so the
    /// steady-state hot loop performs no per-window allocation beyond the
    /// returned coefficient vectors. Every frame is a pure function of the
    /// input, so the output is bit-identical at any thread count.
    ///
    /// Returns an empty vector for signals shorter than one frame.
    pub fn extract(&self, signal: &[f32]) -> Vec<Vec<f64>> {
        let pre = pre_emphasis(signal, 0.97);
        let n_frames = if pre.len() < self.frame_len {
            0
        } else {
            (pre.len() - self.frame_len) / self.hop + 1
        };
        let starts: Vec<usize> = (0..n_frames).map(|i| i * self.hop).collect();
        medvid_par::par_map_chunks(
            &starts,
            medvid_par::chunk_len_for(starts.len()),
            |_, chunk| {
                let mut windowed = Vec::with_capacity(self.frame_len);
                let mut scratch = Vec::new();
                let mut power = Vec::new();
                let mut energies = Vec::new();
                let mut logs = Vec::new();
                chunk
                    .iter()
                    .map(|&start| {
                        let frame = &pre[start..start + self.frame_len];
                        apply_window_into(frame, &self.window, &mut windowed);
                        self.plan
                            .power_spectrum_into(&windowed, &mut scratch, &mut power);
                        self.bank.apply_into(&power, &mut energies);
                        logs.clear();
                        logs.extend(energies.iter().map(|&e| (e + 1e-12).ln()));
                        self.dct.iter().map(|row| row.apply(&logs)).collect()
                    })
                    .collect()
            },
        )
    }
}

/// First-order pre-emphasis filter `y[n] = x[n] - alpha x[n-1]`.
pub fn pre_emphasis(signal: &[f32], alpha: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(signal.len());
    let mut prev = 0.0f32;
    for &s in signal {
        out.push(s - alpha * prev);
        prev = s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    #[test]
    fn mel_hz_roundtrip() {
        for hz in [0.0, 100.0, 1000.0, 4000.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() < 1e-6, "{hz} -> {back}");
        }
    }

    #[test]
    fn mel_scale_is_monotone() {
        assert!(hz_to_mel(100.0) < hz_to_mel(200.0));
        assert!(mel_to_hz(100.0) < mel_to_hz(200.0));
    }

    #[test]
    fn filterbank_rows_are_nonnegative_and_nonzero() {
        let bank = MelFilterbank::new(20, 129, 8000);
        assert_eq!(bank.len(), 20);
        let flat = vec![1.0; 129];
        let out = bank.apply(&flat);
        // Every filter should respond to a flat spectrum.
        assert!(out.iter().all(|&e| e > 0.0));
    }

    #[test]
    fn paper_default_framing() {
        let ex = MfccExtractor::paper_default(8000);
        assert_eq!(ex.frame_len(), 240); // 30 ms at 8 kHz
        assert_eq!(ex.hop(), 80); // 10 ms at 8 kHz
    }

    #[test]
    fn extract_yields_14_dims_per_frame() {
        let ex = MfccExtractor::paper_default(8000);
        let sig: Vec<f32> = (0..8000)
            .map(|i| (2.0 * PI * 440.0 * i as f32 / 8000.0).sin())
            .collect();
        let mfcc = ex.extract(&sig);
        assert!(!mfcc.is_empty());
        assert!(mfcc.iter().all(|v| v.len() == MFCC_DIMS));
    }

    #[test]
    fn different_spectra_give_different_mfcc() {
        let ex = MfccExtractor::paper_default(8000);
        let low: Vec<f32> = (0..2400)
            .map(|i| (2.0 * PI * 200.0 * i as f32 / 8000.0).sin())
            .collect();
        let high: Vec<f32> = (0..2400)
            .map(|i| (2.0 * PI * 2000.0 * i as f32 / 8000.0).sin())
            .collect();
        let a = &ex.extract(&low)[0];
        let b = &ex.extract(&high)[0];
        let dist: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 1.0, "MFCC should separate spectra, dist={dist}");
    }

    #[test]
    fn short_signal_gives_no_frames() {
        let ex = MfccExtractor::paper_default(8000);
        assert!(ex.extract(&[0.0; 100]).is_empty());
    }

    #[test]
    fn extract_is_bit_identical_across_thread_counts() {
        let ex = MfccExtractor::paper_default(8000);
        let sig: Vec<f32> = (0..16000)
            .map(|i| (2.0 * PI * 330.0 * i as f32 / 8000.0).sin() * (1.0 + (i as f32 * 1e-3).cos()))
            .collect();
        let reference = medvid_par::with_threads(1, || ex.extract(&sig));
        for threads in [2, 4, 8] {
            let out = medvid_par::with_threads(threads, || ex.extract(&sig));
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn apply_into_matches_apply() {
        let bank = MelFilterbank::new(12, 65, 8000);
        let power: Vec<f64> = (0..65).map(|i| (i as f64 * 0.3).sin().abs()).collect();
        let mut out = vec![1.0; 3];
        bank.apply_into(&power, &mut out);
        assert_eq!(out, bank.apply(&power));
    }

    #[test]
    fn pre_emphasis_boosts_transitions() {
        let out = pre_emphasis(&[1.0, 1.0, 1.0], 1.0);
        assert_eq!(out, vec![1.0, 0.0, 0.0]);
    }
}
