//! The MFCC chain without its precomputed tables, kept as the test
//! reference `MfccExtractor` must match bit for bit: dense filterbank rows
//! (one weight per spectrum bin), the ad-hoc `fft_in_place`, and a full
//! `dct2` of every frame's log energies, truncated to the kept
//! coefficients.
//!
//! Shared by the `medvid-signal` and `medvid-audio` property suites
//! (`#[path]`-included), so both hold the extractor to one reference.

use medvid_signal::dct::dct2;
use medvid_signal::fft::{fft_in_place, next_pow2, Complex};
use medvid_signal::mel::{hz_to_mel, mel_to_hz, pre_emphasis};
use medvid_signal::window::{apply_window, hamming};

/// `rows[m][k]`: the weight of spectrum bin `k` in triangle `m`.
pub fn dense_filterbank(n_filters: usize, spectrum_bins: usize, sample_rate: u32) -> Vec<Vec<f64>> {
    let nyquist = sample_rate as f64 / 2.0;
    let mel_lo = hz_to_mel(0.0);
    let mel_hi = hz_to_mel(nyquist);
    let edges: Vec<f64> = (0..n_filters + 2)
        .map(|i| {
            let mel = mel_lo + (mel_hi - mel_lo) * i as f64 / (n_filters + 1) as f64;
            mel_to_hz(mel)
        })
        .collect();
    let bin_hz = nyquist / (spectrum_bins - 1) as f64;
    let mut filters = Vec::with_capacity(n_filters);
    for m in 0..n_filters {
        let (lo, mid, hi) = (edges[m], edges[m + 1], edges[m + 2]);
        let mut f = vec![0.0; spectrum_bins];
        for (k, w) in f.iter_mut().enumerate() {
            let hz = k as f64 * bin_hz;
            if hz > lo && hz < mid {
                *w = (hz - lo) / (mid - lo);
            } else if (hz - mid).abs() < f64::EPSILON {
                *w = 1.0;
            } else if hz > mid && hz < hi {
                *w = (hi - hz) / (hi - mid);
            }
        }
        filters.push(f);
    }
    filters
}

/// Applies dense rows to a power spectrum: every bin of every row.
pub fn apply_dense(rows: &[Vec<f64>], power: &[f64]) -> Vec<f64> {
    rows.iter()
        .map(|f| f.iter().zip(power).map(|(w, p)| w * p).sum::<f64>())
        .collect()
}

/// MFCCs of `signal` with the framing and shape `MfccExtractor::new`
/// takes.
pub fn mfcc(
    signal: &[f32],
    sample_rate: u32,
    window_secs: f64,
    hop_secs: f64,
    n_filters: usize,
    n_coeffs: usize,
) -> Vec<Vec<f64>> {
    let frame_len = (window_secs * sample_rate as f64).round() as usize;
    let hop = (hop_secs * sample_rate as f64).round() as usize;
    let fft_len = next_pow2(frame_len);
    let rows = dense_filterbank(n_filters, fft_len / 2 + 1, sample_rate);
    let window = hamming(frame_len);
    let pre = pre_emphasis(signal, 0.97);
    if pre.len() < frame_len {
        return Vec::new();
    }
    (0..=(pre.len() - frame_len) / hop)
        .map(|i| {
            let windowed = apply_window(&pre[i * hop..i * hop + frame_len], &window);
            let mut buf = vec![Complex::default(); fft_len];
            for (b, &s) in buf.iter_mut().zip(&windowed) {
                b.re = s;
            }
            fft_in_place(&mut buf, false);
            let power: Vec<f64> = buf[..=fft_len / 2].iter().map(|c| c.norm_sq()).collect();
            let logs: Vec<f64> = apply_dense(&rows, &power)
                .iter()
                .map(|&e| (e + 1e-12).ln())
                .collect();
            let mut c = dct2(&logs);
            c.truncate(n_coeffs);
            c
        })
        .collect()
}

/// MFCCs with the paper's framing (`MfccExtractor::paper_default`).
pub fn mfcc_paper_default(signal: &[f32], sample_rate: u32) -> Vec<Vec<f64>> {
    mfcc(signal, sample_rate, 0.030, 0.010, 26, 14)
}

/// The first index at which two MFCC sequences differ in any bit, with a
/// description, or `None` when they are bit-identical.
pub fn first_bit_difference(got: &[Vec<f64>], want: &[Vec<f64>]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{} frames vs {} in the reference",
            got.len(),
            want.len()
        ));
    }
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() {
            return Some(format!(
                "frame {t}: {} coefficients vs {}",
                g.len(),
                w.len()
            ));
        }
        for (k, (a, b)) in g.iter().zip(w).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Some(format!(
                    "frame {t} coefficient {k}: {a:e} vs reference {b:e}"
                ));
            }
        }
    }
    None
}
