//! Iterative radix-2 FFT.
//!
//! Used by the MFCC front-end (power spectra of 30 ms audio windows). Inputs
//! are zero-padded to the next power of two by the convenience wrappers.

use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{i theta}`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

/// Returns the smallest power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place iterative radix-2 FFT.
///
/// `inverse = true` computes the unscaled inverse transform; divide by `len`
/// afterwards to invert exactly (the [`ifft`] wrapper does this).
///
/// # Panics
/// Panics if `buf.len()` is not a power of two.
pub fn fft_in_place(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    // Danielson-Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex::from_angle(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2] * w;
                buf[i + k] = u + v;
                buf[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let n = next_pow2(signal.len());
    let mut buf = vec![Complex::default(); n];
    for (b, &s) in buf.iter_mut().zip(signal.iter()) {
        b.re = s;
    }
    fft_in_place(&mut buf, false);
    buf
}

/// Exact inverse FFT (scales by `1/len`).
///
/// # Panics
/// Panics if `spectrum.len()` is not a power of two.
pub fn ifft(spectrum: &[Complex]) -> Vec<Complex> {
    let mut buf = spectrum.to_vec();
    fft_in_place(&mut buf, true);
    let scale = 1.0 / buf.len() as f64;
    for c in &mut buf {
        c.re *= scale;
        c.im *= scale;
    }
    buf
}

/// One-sided power spectrum of a real signal: `len/2 + 1` bins of `|X_k|^2`.
pub fn power_spectrum(signal: &[f64]) -> Vec<f64> {
    let spec = fft_real(signal);
    let half = spec.len() / 2;
    spec[..=half].iter().map(|c| c.norm_sq()).collect()
}

/// A precomputed FFT plan for one transform length: bit-reversal permutation
/// table plus per-stage twiddle factors, amortised across every window of an
/// MFCC extraction instead of being recomputed (and reallocated) per call.
///
/// The twiddle table is filled by the same incremental recurrence
/// `w ← w · w_len` that [`fft_in_place`] evaluates on the fly, so
/// [`FftPlan::forward_in_place`] is **bit-identical** to
/// `fft_in_place(buf, false)` — swapping the plan into a pipeline changes no
/// output, only the allocation profile.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// `rev[i]` = bit-reversed index of `i` (swap applied once when `i < rev[i]`).
    rev: Vec<usize>,
    /// Forward twiddles flattened per stage: stage with butterfly span `len`
    /// starts at offset `len/2 - 1` and holds `len/2` factors (`n - 1` total).
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let mut rev = vec![0usize; n];
        let mut j = 0usize;
        for r in rev.iter_mut().skip(1) {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            *r = j;
        }
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let wlen = Complex::from_angle(-2.0 * PI / len as f64);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        Self { n, rev, twiddles }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the transform length is zero (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward FFT in place using the precomputed tables.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned length.
    pub fn forward_in_place(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length must match the plan");
        let n = self.n;
        if n <= 1 {
            return;
        }
        for i in 1..n {
            let j = self.rev[i];
            if i < j {
                buf.swap(i, j);
            }
        }
        // Each block of `len` splits into its low and high halves, zipped
        // with the stage's twiddles: no index arithmetic and no bounds checks
        // in the butterfly, so the optimiser can vectorise it. The per-element
        // arithmetic is exactly `fft_in_place`'s (no reassociation, and Rust
        // never contracts to FMA), so the output stays bit-identical.
        let mut len = 2;
        let mut offset = 0;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[offset..offset + half];
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            offset += half;
            len <<= 1;
        }
    }

    /// One-sided power spectrum of a real signal into caller-owned buffers:
    /// `signal` is zero-padded (or truncated) to the planned length in
    /// `scratch`, transformed in place, and `out` receives the `n/2 + 1` bins
    /// of `|X_k|^2`. Neither buffer allocates after its first use at this
    /// plan's length — this is the zero-allocation hot path under per-window
    /// MFCC extraction.
    pub fn power_spectrum_into(&self, signal: &[f64], scratch: &mut Vec<Complex>, out: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.n, Complex::default());
        for (b, &s) in scratch.iter_mut().zip(signal.iter()) {
            b.re = s;
        }
        self.forward_in_place(scratch);
        let half = self.n / 2;
        out.clear();
        out.extend(scratch[..=half].iter().map(|c| c.norm_sq()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} != {b} (eps {eps})");
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut sig = vec![0.0; 8];
        sig[0] = 1.0;
        let spec = fft_real(&sig);
        for c in &spec {
            assert_close(c.re, 1.0, 1e-12);
            assert_close(c.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn fft_of_dc_concentrates_at_zero() {
        let sig = vec![1.0; 16];
        let spec = fft_real(&sig);
        assert_close(spec[0].re, 16.0, 1e-9);
        for c in &spec[1..] {
            assert_close(c.abs(), 0.0, 1e-9);
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let sig: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() + 0.2).collect();
        let spec = fft_real(&sig);
        let back = ifft(&spec);
        for (orig, rec) in sig.iter().zip(back.iter()) {
            assert_close(*orig, rec.re, 1e-9);
            assert_close(0.0, rec.im, 1e-9);
        }
    }

    #[test]
    fn sinusoid_peaks_at_its_bin() {
        let n = 128;
        let k = 5;
        let sig: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let ps = power_spectrum(&sig);
        let argmax = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, k);
    }

    #[test]
    fn parseval_energy_preserved() {
        let sig: Vec<f64> = (0..32).map(|i| ((i * 7 % 13) as f64) / 13.0).collect();
        let time_energy: f64 = sig.iter().map(|x| x * x).sum();
        let spec = fft_real(&sig);
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum::<f64>() / 32.0;
        assert_close(time_energy, freq_energy, 1e-9);
    }

    #[test]
    fn next_pow2_boundaries() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(240), 256);
        assert_eq!(next_pow2(256), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let mut buf = vec![Complex::default(); 3];
        fft_in_place(&mut buf, false);
    }

    #[test]
    fn plan_forward_is_bit_identical_to_fft_in_place() {
        for n in [1usize, 2, 8, 64, 256] {
            let plan = FftPlan::new(n);
            let mut a: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.73).sin(), (i as f64 * 0.31).cos()))
                .collect();
            let mut b = a.clone();
            fft_in_place(&mut a, false);
            plan.forward_in_place(&mut b);
            // Exact equality: the plan replays the same incremental twiddle
            // recurrence, so outputs must match bit for bit.
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn plan_power_spectrum_matches_free_function() {
        let sig: Vec<f64> = (0..200).map(|i| (i as f64 * 0.11).sin()).collect();
        let reference = power_spectrum(&sig);
        let plan = FftPlan::new(next_pow2(sig.len()));
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        plan.power_spectrum_into(&sig, &mut scratch, &mut out);
        assert_eq!(out, reference);
        // Reuse with a second signal: buffers are recycled, result unchanged.
        let sig2: Vec<f64> = (0..200).map(|i| (i as f64 * 0.29).cos()).collect();
        plan.power_spectrum_into(&sig2, &mut scratch, &mut out);
        assert_eq!(out, power_spectrum(&sig2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_pow2() {
        let _ = FftPlan::new(12);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert_close(Complex::new(3.0, 4.0).abs(), 5.0, 1e-12);
    }
}
