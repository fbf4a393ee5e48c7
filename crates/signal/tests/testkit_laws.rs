//! DSP laws checked with the medvid-testkit property runner.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_signal::dct::{dct2, dct3};
use medvid_signal::entropy_threshold;
use medvid_signal::fft::{
    fft_in_place, fft_real, ifft, next_pow2, power_spectrum, Complex, FftPlan,
};
use medvid_signal::kmeans::kmeans;
use medvid_signal::matrix::Matrix;
use medvid_signal::mel::{MelFilterbank, MfccExtractor};
use medvid_signal::window::{apply_window, apply_window_into, hamming, hann};
use medvid_testkit::{domain, forall, forall_with, require, Config, TkRng, CASES_ENV};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "reference/mfcc.rs"]
mod reference_mfcc;

/// The environment's configuration, running `cases` cases unless
/// `MEDVID_TESTKIT_CASES` overrides the count.
fn config(cases: usize) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var_os(CASES_ENV).is_none() {
        cfg.cases = cases;
    }
    cfg
}

fn signal_f64(rng: &mut TkRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.f64_in(-1.0, 1.0)).collect()
}

/// Textbook O(n^2) DFT — the specification the fast paths must match.
fn naive_dft(signal: &[Complex]) -> Vec<Complex> {
    let n = signal.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::new(0.0, 0.0);
            for (t, &x) in signal.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                acc = acc + x * Complex::from_angle(angle);
            }
            acc
        })
        .collect()
}

#[test]
fn fft_plan_matches_naive_dft() {
    forall(
        "FftPlan == naive DFT",
        |rng| {
            let n = 1usize << rng.usize_in(0, 7); // 1..=128
            signal_f64(rng, n)
        },
        |sig| {
            if !sig.len().is_power_of_two() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let input: Vec<Complex> = sig.iter().map(|&re| Complex::new(re, 0.0)).collect();
            let expected = naive_dft(&input);
            let mut buf = input;
            FftPlan::new(sig.len()).forward_in_place(&mut buf);
            for (k, (got, want)) in buf.iter().zip(&expected).enumerate() {
                let err = (*got - *want).abs();
                require!(
                    err < 1e-6 * (sig.len() as f64).max(1.0),
                    "bin {k}: fft={got:?} dft={want:?} err={err}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn fft_plan_is_bit_identical_to_ad_hoc_fft() {
    forall(
        "FftPlan == fft_in_place bit-for-bit",
        |rng| {
            let n = 1usize << rng.usize_in(0, 9);
            signal_f64(rng, n)
        },
        |sig| {
            if !sig.len().is_power_of_two() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let input: Vec<Complex> = sig.iter().map(|&re| Complex::new(re, 0.0)).collect();
            let mut ad_hoc = input.clone();
            fft_in_place(&mut ad_hoc, false);
            let mut planned = input;
            FftPlan::new(sig.len()).forward_in_place(&mut planned);
            for (k, (a, p)) in ad_hoc.iter().zip(&planned).enumerate() {
                require!(
                    a.re == p.re && a.im == p.im,
                    "bin {k} differs: ad-hoc {a:?} vs planned {p:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn parseval_energy_is_preserved() {
    forall(
        "Parseval: N * sum|x|^2 == sum|X|^2",
        |rng| {
            let len = rng.usize_in(1, 300);
            signal_f64(rng, len)
        },
        |sig| {
            if sig.is_empty() {
                return Ok(());
            }
            let spec = fft_real(sig);
            let n = spec.len() as f64; // padded length
            let time_energy: f64 = sig.iter().map(|x| x * x).sum();
            let freq_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum();
            let err = (freq_energy - n * time_energy).abs();
            require!(
                err < 1e-6 * (1.0 + n * time_energy),
                "time {time_energy} * {n} != freq {freq_energy} (err {err})"
            );
            Ok(())
        },
    );
}

#[test]
fn fft_ifft_roundtrip_recovers_signal() {
    forall(
        "ifft(fft(x)) == x",
        |rng| {
            let len = rng.usize_in(1, 257);
            signal_f64(rng, len)
        },
        |sig| {
            if sig.is_empty() {
                return Ok(());
            }
            let spec = fft_real(sig);
            let back = ifft(&spec);
            for (t, (&orig, rec)) in sig.iter().zip(&back).enumerate() {
                require!(
                    (rec.re - orig).abs() < 1e-9 && rec.im.abs() < 1e-9,
                    "sample {t}: {orig} -> {rec:?}"
                );
            }
            // The zero padding must come back as zeros.
            for (t, rec) in back.iter().enumerate().skip(sig.len()) {
                require!(
                    rec.re.abs() < 1e-9 && rec.im.abs() < 1e-9,
                    "padding sample {t} is {rec:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn planned_power_spectrum_matches_free_function() {
    forall(
        "power_spectrum_into == power_spectrum",
        |rng| {
            let len = rng.usize_in(1, 400);
            signal_f64(rng, len)
        },
        |sig| {
            if sig.is_empty() {
                return Ok(());
            }
            let expected = power_spectrum(sig);
            let plan = FftPlan::new(next_pow2(sig.len()));
            let mut scratch = Vec::new();
            let mut out = Vec::new();
            plan.power_spectrum_into(sig, &mut scratch, &mut out);
            require!(
                out.len() == expected.len(),
                "bin count {} vs {}",
                out.len(),
                expected.len()
            );
            for (k, (a, b)) in out.iter().zip(&expected).enumerate() {
                require!(a == b, "bin {k}: planned {a} vs free {b}");
            }
            Ok(())
        },
    );
}

#[test]
fn windows_are_bounded_symmetric_and_roundtrip() {
    forall(
        "hamming/hann shape laws + apply_window_into == apply_window",
        |rng| {
            let n = rng.usize_in(2, 512);
            let frame: Vec<f64> = signal_f64(rng, n);
            frame
        },
        |frame| {
            let n = frame.len();
            if n < 2 {
                return Ok(());
            }
            let frame_f32: Vec<f32> = frame.iter().map(|&x| x as f32).collect();
            for (name, w) in [("hamming", hamming(n)), ("hann", hann(n))] {
                require!(w.len() == n, "{name} length {} != {n}", w.len());
                for (i, &v) in w.iter().enumerate() {
                    require!((0.0..=1.0).contains(&v), "{name}[{i}] = {v} out of [0,1]");
                    let mirror = w[n - 1 - i];
                    require!(
                        (v - mirror).abs() < 1e-12,
                        "{name} not symmetric at {i}: {v} vs {mirror}"
                    );
                }
                let direct = apply_window(&frame_f32, &w);
                let mut into = Vec::new();
                apply_window_into(&frame_f32, &w, &mut into);
                require!(direct == into, "{name}: _into disagrees with direct");
                for (i, (&windowed, &x)) in direct.iter().zip(frame).enumerate() {
                    require!(
                        windowed.abs() <= (x as f32).abs() as f64 + 1e-9,
                        "{name}[{i}] amplified: |{windowed}| > |{x}|"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn mel_filterbank_partition_bounds() {
    forall(
        "mel filterbank: nonnegative weights, column sums in [0, 1]",
        |rng| {
            let n_filters = rng.usize_in(4, 32);
            let bins = rng.usize_in(33, 257);
            let sr = rng.usize_in(4000, 16000) as u32;
            (n_filters, bins, sr as u64)
        },
        |&(n_filters, bins, sr)| {
            if n_filters == 0 || bins < 2 || sr < 100 {
                return Ok(());
            }
            let fb = MelFilterbank::new(n_filters, bins, sr as u32);
            require!(fb.len() == n_filters, "filter count {}", fb.len());
            // Column k of the weight matrix = response to the basis
            // spectrum e_k. Adjacent triangles share edges, so each
            // column sums to at most 1 (and never goes negative).
            let stride = (bins / 16).max(1);
            for k in (0..bins).step_by(stride) {
                let mut basis = vec![0.0f64; bins];
                basis[k] = 1.0;
                let col = fb.apply(&basis);
                let mut sum = 0.0;
                for (m, &w) in col.iter().enumerate() {
                    require!(w >= 0.0, "negative weight {w} at filter {m}, bin {k}");
                    sum += w;
                }
                require!(sum <= 1.0 + 1e-9, "bin {k} column sum {sum} > 1");
            }
            Ok(())
        },
    );
}

#[test]
fn mel_filterbank_is_linear_and_monotone() {
    forall(
        "mel filterbank linearity",
        |rng| {
            let bins = rng.usize_in(33, 129);
            let a: Vec<f64> = (0..bins).map(|_| rng.f64_in(0.0, 10.0)).collect();
            let b: Vec<f64> = (0..bins).map(|_| rng.f64_in(0.0, 10.0)).collect();
            (a, b)
        },
        |(a, b)| {
            if a.len() < 2 || a.len() != b.len() {
                return Ok(());
            }
            let fb = MelFilterbank::new(12, a.len(), 8000);
            let fa = fb.apply(a);
            let fbv = fb.apply(b);
            let summed: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
            let fsum = fb.apply(&summed);
            for m in 0..fa.len() {
                let lhs = fsum[m];
                let rhs = fa[m] + fbv[m];
                require!(
                    (lhs - rhs).abs() < 1e-9 * (1.0 + rhs.abs()),
                    "filter {m}: F(a+b)={lhs} != F(a)+F(b)={rhs}"
                );
                require!(fa[m] >= 0.0, "negative energy {} at {m}", fa[m]);
            }
            Ok(())
        },
    );
}

#[test]
fn entropy_threshold_lies_within_data_range() {
    forall(
        "entropy_threshold in [min, max]",
        |rng| {
            let len = rng.usize_in(2, 300);
            (0..len)
                .map(|_| rng.f64_in(-50.0, 150.0) as f32)
                .collect::<Vec<f32>>()
        },
        |values| {
            if values.is_empty() {
                return Ok(());
            }
            let t = entropy_threshold(values);
            let min = values.iter().copied().fold(f32::INFINITY, f32::min);
            let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            require!(
                (min..=max).contains(&t),
                "threshold {t} outside data range [{min}, {max}]"
            );
            Ok(())
        },
    );
}

#[test]
fn fft_ifft_recovers_signal() {
    forall_with(
        &config(64),
        "ifft(fft_real(x)) == x on the unpadded samples",
        |rng| {
            let len = rng.usize_in(1, 199);
            signal_f64(rng, len)
        },
        |sig| {
            let back = ifft(&fft_real(sig));
            for (t, (orig, rec)) in sig.iter().zip(&back).enumerate() {
                require!(
                    (orig - rec.re).abs() < 1e-8,
                    "sample {t}: {orig} -> {rec:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn entropy_threshold_within_range() {
    forall_with(
        &config(64),
        "entropy_threshold of non-negative values in [min, max]",
        |rng| {
            let len = rng.usize_in(1, 299);
            (0..len)
                .map(|_| rng.f64_in(0.0, 100.0) as f32)
                .collect::<Vec<f32>>()
        },
        |values| {
            if values.is_empty() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let t = entropy_threshold(values);
            let min = values.iter().copied().fold(f32::INFINITY, f32::min);
            let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            require!(
                t >= min - 1e-6 && t <= max + 1e-6,
                "t={t} outside [{min},{max}]"
            );
            Ok(())
        },
    );
}

#[test]
fn dct_roundtrip() {
    forall_with(
        &config(64),
        "dct3(dct2(x)) == x",
        |rng| {
            let len = rng.usize_in(1, 99);
            (0..len)
                .map(|_| rng.f64_in(-10.0, 10.0))
                .collect::<Vec<f64>>()
        },
        |sig| {
            let back = dct3(&dct2(sig));
            require!(
                back.len() == sig.len(),
                "length {} -> {}",
                sig.len(),
                back.len()
            );
            for (t, (a, b)) in sig.iter().zip(&back).enumerate() {
                require!((a - b).abs() < 1e-8, "sample {t}: {a} -> {b}");
            }
            Ok(())
        },
    );
}

#[test]
fn kmeans_assignments_are_valid() {
    forall_with(
        &config(64),
        "kmeans assigns every point to one of k clusters",
        |rng| {
            let n = rng.usize_in(2, 39);
            let k = rng.usize_in(1, n.min(4));
            (n, k, rng.u64_in(0, 99))
        },
        |&(n, k, seed)| {
            if k == 0 || k > n {
                return Ok(()); // a shrunk candidate left the domain
            }
            let points: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let Some(km) = kmeans(&points, k, 20, &mut rng) else {
                return Err(format!("kmeans gave up on n={n}, k={k}"));
            };
            require!(
                km.assignments.len() == n,
                "{} assignments for {n} points",
                km.assignments.len()
            );
            require!(
                km.assignments.iter().all(|&a| a < k),
                "assignment out of range: {:?}",
                km.assignments
            );
            require!(km.inertia >= 0.0, "negative inertia {}", km.inertia);
            Ok(())
        },
    );
}

#[test]
fn spd_logdet_matches_cholesky() {
    forall_with(
        &config(64),
        "log_det_spd of a 2x2 SPD matrix == ln(d0 d1 - c^2)",
        |rng| {
            (
                rng.f64_in(0.1, 10.0),
                rng.f64_in(0.1, 10.0),
                rng.f64_in(-0.9, 0.9),
            )
        },
        |&(d0, d1, c)| {
            if d0 < 0.1 || d1 < 0.1 {
                return Ok(()); // a shrunk candidate left the domain
            }
            // 2x2 SPD matrix via correlation parameterisation.
            let cov = c * (d0 * d1).sqrt();
            let m = Matrix::from_rows(2, 2, vec![d0, cov, cov, d1]);
            let ld = m
                .log_det_spd()
                .map_err(|e| format!("d0={d0} d1={d1} c={c}: {e}"))?;
            let expected = (d0 * d1 - cov * cov).ln();
            require!((ld - expected).abs() < 1e-6, "{ld} vs {expected}");
            Ok(())
        },
    );
}

/// The clip classes the audio chain meets; [`clip`] synthesises each.
const CLIP_KINDS: [&str; 7] = [
    "speech",
    "ambient",
    "music",
    "silence",
    "dc_offset",
    "clipped",
    "partials",
];

/// Voiced harmonic bursts at a syllable rate, with pauses between them.
fn speech_like(rng: &mut TkRng, len: usize, sr: f64) -> Vec<f32> {
    let f0 = rng.f64_in(90.0, 250.0);
    let rate = rng.f64_in(3.0, 6.0);
    let tau = std::f64::consts::TAU;
    (0..len)
        .map(|i| {
            let t = i as f64 / sr;
            let env = (tau * rate * t).sin().max(0.0).powi(2);
            let f = f0 * (1.0 + 0.03 * (tau * 0.7 * t).sin());
            let voiced: f64 = (1..=8)
                .map(|h| (tau * h as f64 * f * t).sin() / h as f64)
                .sum();
            (0.4 * env * voiced + 0.01 * rng.f64_in(-1.0, 1.0)) as f32
        })
        .collect()
}

/// A `len`-sample clip of class `CLIP_KINDS[kind]`, drawn from `seed`.
fn clip(kind: usize, len: usize, seed: u64, sample_rate: u32) -> Vec<f32> {
    let mut rng = TkRng::new(seed);
    let sr = sample_rate as f64;
    let tau = std::f64::consts::TAU;
    match CLIP_KINDS[kind % CLIP_KINDS.len()] {
        "speech" => speech_like(&mut rng, len, sr),
        "ambient" => {
            // Low-passed noise under a mains hum.
            let mut y = 0.0f64;
            (0..len)
                .map(|i| {
                    y = 0.9 * y + 0.1 * rng.f64_in(-1.0, 1.0);
                    (2.0 * y + 0.05 * (tau * 50.0 * i as f64 / sr).sin()) as f32
                })
                .collect()
        }
        "music" => {
            let root = rng.f64_in(110.0, 440.0);
            (0..len)
                .map(|i| {
                    let t = i as f64 / sr;
                    [1.0, 1.26, 1.5]
                        .iter()
                        .map(|r| 0.25 * (tau * root * r * t).sin())
                        .sum::<f64>() as f32
                })
                .collect()
        }
        "silence" => vec![0.0; len],
        "dc_offset" => speech_like(&mut rng, len, sr)
            .iter()
            .map(|s| s + 0.4)
            .collect(),
        "clipped" => speech_like(&mut rng, len, sr)
            .iter()
            .map(|s| (s * 8.0).clamp(-1.0, 1.0))
            .collect(),
        _ => domain::audio_buffer(&mut rng, len, sample_rate),
    }
}

/// A clip length up to 4 s, often below or near one analysis frame.
fn clip_len(rng: &mut TkRng, sample_rate: u32) -> usize {
    let frame = (0.030 * sample_rate as f64).round() as usize;
    if rng.bool_p(0.25) {
        rng.usize_in(0, 2 * frame)
    } else {
        rng.usize_in(0, 4 * sample_rate as usize)
    }
}

const SAMPLE_RATES: [u32; 3] = [8000, 11025, 16000];

#[test]
fn mfcc_is_bit_identical_to_the_dense_dct_reference() {
    forall_with(
        &config(32),
        "MfccExtractor::paper_default == dense filterbank + per-frame dct2, bit for bit",
        |rng| {
            let sr_index = if rng.bool_p(0.5) {
                0
            } else {
                rng.usize_in(0, 2)
            };
            let len = clip_len(rng, SAMPLE_RATES[sr_index]);
            (
                rng.usize_in(0, CLIP_KINDS.len() - 1),
                len,
                rng.next_u64(),
                sr_index,
            )
        },
        |&(kind, len, seed, sr_index)| {
            let sr = SAMPLE_RATES[sr_index % SAMPLE_RATES.len()];
            let signal = clip(kind, len, seed, sr);
            let got = MfccExtractor::paper_default(sr).extract(&signal);
            let want = reference_mfcc::mfcc_paper_default(&signal, sr);
            if let Some(diff) = reference_mfcc::first_bit_difference(&got, &want) {
                return Err(format!(
                    "{} clip of {len} samples at {sr} Hz: {diff}",
                    CLIP_KINDS[kind % CLIP_KINDS.len()]
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn mfcc_custom_shapes_are_bit_identical() {
    // (window s, hop s) pairs: the paper's, a short one and a long one
    // whose FFT is 1024 points at 16 kHz.
    const FRAMINGS: [(f64, f64); 3] = [(0.030, 0.010), (0.016, 0.008), (0.064, 0.020)];
    forall_with(
        &config(32),
        "MfccExtractor::new(any shape) == dense reference, bit for bit",
        |rng| {
            let n_filters = rng.usize_in(1, 40);
            let n_coeffs = if rng.bool_p(0.5) {
                n_filters
            } else {
                rng.usize_in(1, n_filters)
            };
            let shape = (n_filters, n_coeffs, rng.usize_in(0, 8));
            let sr = SAMPLE_RATES[shape.2 % 3];
            let len = rng.usize_in(0, sr as usize);
            (
                shape,
                (rng.usize_in(0, CLIP_KINDS.len() - 1), len, rng.next_u64()),
            )
        },
        |&((n_filters, n_coeffs, shape), (kind, len, seed))| {
            if n_filters == 0 || n_coeffs > n_filters {
                return Ok(()); // a shrunk candidate left the domain
            }
            let sr = SAMPLE_RATES[shape % 3];
            let (window, hop) = FRAMINGS[(shape / 3) % 3];
            let signal = clip(kind, len, seed, sr);
            let got = MfccExtractor::new(sr, window, hop, n_filters, n_coeffs).extract(&signal);
            let want = reference_mfcc::mfcc(&signal, sr, window, hop, n_filters, n_coeffs);
            if let Some(diff) = reference_mfcc::first_bit_difference(&got, &want) {
                return Err(format!(
                    "{n_coeffs} of {n_filters} filters, {window} s / {hop} s at {sr} Hz, \
                     {} clip of {len} samples: {diff}",
                    CLIP_KINDS[kind % CLIP_KINDS.len()]
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn banded_filterbank_is_bit_identical_to_dense_rows() {
    forall_with(
        &config(64),
        "MelFilterbank (nonzero spans) == dense rows, bit for bit, on power spectra",
        |rng| {
            // Up to 64 filters over as few as 9 bins: narrow low-frequency
            // triangles there can miss every bin and leave an empty span.
            let n_filters = rng.usize_in(1, 64);
            let bins = rng.usize_in(9, 513);
            (n_filters, bins, rng.usize_in(0, 2), rng.next_u64())
        },
        |&(n_filters, bins, sr_index, seed)| {
            if n_filters == 0 || bins < 2 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let sr = SAMPLE_RATES[sr_index % 3];
            let mut rng = TkRng::new(seed);
            // Non-negative, with exact zeros and a wide dynamic range.
            let power: Vec<f64> = (0..bins)
                .map(|_| match rng.usize_in(0, 3) {
                    0 => 0.0,
                    1 => rng.f64_in(0.0, 1e-9),
                    _ => rng.f64_in(0.0, 1e4),
                })
                .collect();
            let got = MelFilterbank::new(n_filters, bins, sr).apply(&power);
            let rows = reference_mfcc::dense_filterbank(n_filters, bins, sr);
            let want = reference_mfcc::apply_dense(&rows, &power);
            for (m, (g, w)) in got.iter().zip(&want).enumerate() {
                require!(
                    g.to_bits() == w.to_bits(),
                    "filter {m} of {n_filters} over {bins} bins at {sr} Hz: {g:e} vs dense {w:e}"
                );
            }
            require!(
                got.len() == want.len(),
                "{} filters vs {}",
                got.len(),
                want.len()
            );
            Ok(())
        },
    );
}
