//! BIC speaker-change laws and randomized coverage, plus the clip
//! segmentation and clip-feature laws, driven by medvid-testkit.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_audio::bic::{bic_on_waveforms, bic_speaker_change, voiced_frames, BicConfig, BicError};
use medvid_audio::clips::{segment_clips, shot_clips};
use medvid_audio::features::{clip_features, pitch_strength, CLIP_FEATURE_DIMS};
use medvid_audio::{AudioMiner, SpeechClassifier};
use medvid_signal::fft::power_spectrum;
use medvid_signal::mel::MfccExtractor;
use medvid_signal::stats::{mean, rms, std_dev, zero_crossing_rate};
use medvid_signal::window::{apply_window, frames as frame_slices, hamming};
use medvid_synth::generate::speech_training_clips;
use medvid_synth::voice::{synth_ambient, synth_music, synth_speech, voice_for_speaker};
use medvid_synth::{standard_corpus, CorpusScale};
use medvid_testkit::{forall, forall_with, require, Config, TkRng, CASES_ENV};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../signal/tests/reference/mfcc.rs"]
mod reference_mfcc;

const SR: u32 = 8000;
/// Two seconds of audio per clip — enough MFCC frames for a stable
/// covariance without making the randomized sweep slow.
const CLIP_SAMPLES: usize = 16_000;

fn speech(speaker: u32, noise_seed: u64, t0: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(noise_seed);
    synth_speech(&voice_for_speaker(speaker), CLIP_SAMPLES, t0, SR, &mut rng)
}

/// Random MFCC-like frame matrix: `len` frames of dimension `p`, each
/// dimension offset so covariances are well-conditioned.
fn frames(rng: &mut TkRng, len: usize, p: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|_| (0..p).map(|d| d as f64 + rng.f64_in(-1.0, 1.0)).collect())
        .collect()
}

/// Shrinking can shorten individual frames, leaving a ragged matrix the
/// covariance fit was never meant to see; properties bail out (pass) on
/// such out-of-domain candidates.
fn rectangular(x: &[Vec<f64>], p: usize) -> bool {
    x.iter().all(|f| f.len() == p)
}

/// The environment's configuration, running `cases` cases unless
/// `MEDVID_TESTKIT_CASES` overrides the count.
fn config(cases: usize) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var_os(CASES_ENV).is_none() {
        cfg.cases = cases;
    }
    cfg
}

#[test]
fn delta_bic_is_monotone_in_lambda() {
    forall(
        "dBIC(lambda2) >= dBIC(lambda1) for lambda2 >= lambda1",
        |rng| {
            let p = rng.usize_in(2, 6);
            let needed = (2 * p).max(4);
            let ni = rng.usize_in(needed, needed + 30);
            let xi = frames(rng, ni, p);
            let nj = rng.usize_in(needed, needed + 30);
            let xj = frames(rng, nj, p);
            let l1 = rng.f64_in(0.0, 2.0);
            let l2 = rng.f64_in(l1, 3.0);
            ((xi, xj), l1, l2)
        },
        |((xi, xj), l1, l2)| {
            let p = xi.first().map(|f| f.len()).unwrap_or(0);
            if l2 < l1 || p == 0 || !rectangular(xi, p) || !rectangular(xj, p) {
                return Ok(()); // a shrunk candidate left the domain
            }
            let run = |lambda: f64| bic_speaker_change(xi, xj, &BicConfig { lambda });
            let (a, b) = match (run(*l1), run(*l2)) {
                (Ok(a), Ok(b)) => (a, b),
                // Shrinking can drop frames below the covariance minimum.
                _ => return Ok(()),
            };
            require!(
                a.delta_bic <= b.delta_bic,
                "raising lambda {l1} -> {l2} lowered dBIC: {} -> {}",
                a.delta_bic,
                b.delta_bic
            );
            Ok(())
        },
    );
}

#[test]
fn bic_is_symmetric_under_argument_swap() {
    forall(
        "dBIC(a, b) ~= dBIC(b, a)",
        |rng| {
            let p = rng.usize_in(2, 5);
            let needed = (2 * p).max(4);
            let ni = rng.usize_in(needed, needed + 24);
            let xi = frames(rng, ni, p);
            let nj = rng.usize_in(needed, needed + 24);
            let xj = frames(rng, nj, p);
            (xi, xj)
        },
        |(xi, xj)| {
            let p = xi.first().map(|f| f.len()).unwrap_or(0);
            if p == 0 || !rectangular(xi, p) || !rectangular(xj, p) {
                return Ok(()); // a shrunk candidate left the domain
            }
            let cfg = BicConfig::default();
            let (ab, ba) = match (
                bic_speaker_change(xi, xj, &cfg),
                bic_speaker_change(xj, xi, &cfg),
            ) {
                (Ok(ab), Ok(ba)) => (ab, ba),
                _ => return Ok(()), // shrinking left the domain
            };
            // The pooled covariance sums frames in a different order, so
            // agreement is up to floating-point accumulation, not exact.
            let tol = 1e-6 * (1.0 + ab.delta_bic.abs());
            require!(
                (ab.delta_bic - ba.delta_bic).abs() <= tol,
                "asymmetric: {} vs {}",
                ab.delta_bic,
                ba.delta_bic
            );
            Ok(())
        },
    );
}

#[test]
fn too_few_frames_is_a_typed_error() {
    forall(
        "short inputs yield BicError::TooFewFrames, not a panic",
        |rng| {
            let p = rng.usize_in(2, 6);
            let needed = (2 * p).max(4);
            let n_short = rng.usize_in(1, needed - 1);
            let short = frames(rng, n_short, p);
            let long = frames(rng, needed + 4, p);
            (short, long)
        },
        |(short, long)| {
            let p = long.first().map(|f| f.len()).unwrap_or(0);
            let needed = (2 * p).max(4);
            if short.is_empty()
                || short.len() >= needed
                || long.len() < needed
                || !rectangular(short, p)
                || !rectangular(long, p)
            {
                return Ok(()); // a shrunk candidate left the domain
            }
            for (a, b) in [(short, long), (long, short)] {
                match bic_speaker_change(a, b, &BicConfig::default()) {
                    Err(BicError::TooFewFrames { frames, needed: n }) => {
                        require!(
                            frames == short.len() && n == needed,
                            "error reports {frames}/{n}, expected {}/{needed}",
                            short.len()
                        );
                    }
                    other => return Err(format!("expected TooFewFrames, got {other:?}")),
                }
            }
            Ok(())
        },
    );
}

/// Randomized coverage across speaker fundamentals: same-speaker pairs must
/// rarely alarm, distinct-fundamental pairs must usually be caught. The
/// detector is statistical, so the assertion is on aggregate counts — but
/// the sweep itself is fully determined by the testkit seed.
#[test]
fn speaker_change_detection_across_randomized_fundamentals() {
    let cfg = Config::from_env();
    let mut rng = TkRng::new(cfg.seed);
    let extractor = MfccExtractor::paper_default(SR);
    let bic = BicConfig::default();
    const PAIRS: usize = 6;

    let mut false_alarms = Vec::new();
    let mut misses = Vec::new();
    for pair in 0..PAIRS {
        // Same speaker, different utterances (noise seed and phase offset).
        let id = rng.usize_in(1, 12) as u32;
        let a = speech(id, rng.next_u64(), rng.usize_in(0, 40_000));
        let b = speech(id, rng.next_u64(), rng.usize_in(40_000, 120_000));
        let out = bic_on_waveforms(&a, &b, &extractor, &bic).expect("enough frames");
        if out.speaker_change {
            false_alarms.push((pair, id, out.delta_bic));
        }

        // Distinct speakers, constrained to clearly separated fundamentals.
        let (s1, s2) = loop {
            let s1 = rng.usize_in(1, 12) as u32;
            let s2 = rng.usize_in(1, 12) as u32;
            let gap = (voice_for_speaker(s1).f0 - voice_for_speaker(s2).f0).abs();
            if s1 != s2 && gap > 25.0 {
                break (s1, s2);
            }
        };
        let a = speech(s1, rng.next_u64(), rng.usize_in(0, 40_000));
        let b = speech(s2, rng.next_u64(), rng.usize_in(0, 40_000));
        let out = bic_on_waveforms(&a, &b, &extractor, &bic).expect("enough frames");
        if !out.speaker_change {
            misses.push((pair, s1, s2, out.delta_bic));
        }
    }

    assert!(
        false_alarms.len() <= 2 && misses.len() <= 2,
        "BIC coverage sweep failed — reproduce with: MEDVID_TESTKIT_SEED={} \
         ({} same-speaker false alarms: {:?}; {} distinct-speaker misses: {:?})",
        cfg.seed,
        false_alarms.len(),
        false_alarms,
        misses.len(),
        misses
    );
}

#[test]
fn clips_partition_their_span() {
    forall_with(
        &config(64),
        "2-second clips tile [start, end) contiguously",
        |rng| {
            (
                rng.usize_in(0, 99_999),
                rng.usize_in(0, 199_999),
                rng.u64_in(4000, 47_999) as u32,
            )
        },
        |&(start, len, sr)| {
            if sr < 4000 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let clips = segment_clips(start, start + len, sr);
            let clip_len = (2.0 * sr as f64) as usize;
            if len < clip_len {
                require!(clips.is_empty(), "{} clips from a short span", clips.len());
                return Ok(());
            }
            let (first, last) = match (clips.first(), clips.last()) {
                (Some(f), Some(l)) => (f, l),
                _ => return Err(format!("no clips from a span of {len} samples")),
            };
            require!(first.start == start, "first clip starts at {}", first.start);
            require!(last.end == start + len, "last clip ends at {}", last.end);
            for w in clips.windows(2) {
                require!(
                    w[0].end == w[1].start,
                    "gap between {:?} and {:?}",
                    w[0],
                    w[1]
                );
            }
            for c in &clips {
                require!(
                    (clip_len..2 * clip_len).contains(&c.len()),
                    "clip {c:?} length {} outside [{clip_len}, {})",
                    c.len(),
                    2 * clip_len
                );
            }
            Ok(())
        },
    );
}

#[test]
fn clip_features_always_14_finite_dims() {
    forall_with(
        &config(64),
        "clip_features yields 14 finite dimensions",
        |rng| {
            let len = rng.usize_in(240, 3999);
            (0..len)
                .map(|_| rng.f32_in(-1.0, 1.0))
                .collect::<Vec<f32>>()
        },
        |samples| {
            if let Some(f) = clip_features(samples, 8000) {
                require!(f.len() == CLIP_FEATURE_DIMS, "{} dims", f.len());
                require!(
                    f.iter().all(|v| v.is_finite()),
                    "non-finite feature in {f:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn voiced_frames_is_subset_preserving_dims() {
    forall_with(
        &config(64),
        "voiced_frames keeps a non-empty subset of the input frames",
        |rng| {
            let len = rng.usize_in(0, 59);
            (0..len)
                .map(|_| (0..14).map(|_| rng.f64_in(-10.0, 10.0)).collect())
                .collect::<Vec<Vec<f64>>>()
        },
        |frames| {
            if !rectangular(frames, 14) {
                return Ok(()); // a shrunk candidate left the domain
            }
            let kept = voiced_frames(frames);
            require!(
                kept.len() <= frames.len(),
                "{} kept of {}",
                kept.len(),
                frames.len()
            );
            for f in &kept {
                require!(f.len() == 14, "kept frame has {} dims", f.len());
                require!(frames.contains(f), "kept frame {f:?} is not an input frame");
            }
            require!(
                frames.is_empty() || !kept.is_empty(),
                "filter must keep something"
            );
            Ok(())
        },
    );
}

/// Pitch strength with its three sums recomputed from scratch at every lag:
/// the reference the prefix-summed `pitch_strength` must match bit for bit.
fn reference_pitch_strength(signal: &[f32], sample_rate: u32) -> f64 {
    let sr = sample_rate as f64;
    let min_lag = (sr / 320.0) as usize;
    let max_lag = (sr / 80.0) as usize;
    let frame_len = max_lag * 3;
    if signal.len() < frame_len || min_lag == 0 {
        return 0.0;
    }
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
        let mut best = 0.0f64;
        for lag in min_lag..=max_lag.min(seg.len() - 1) {
            let (a, b) = (&seg[..seg.len() - lag], &seg[lag..]);
            let corr: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            let ea: f64 = a.iter().map(|x| x * x).sum();
            let eb: f64 = b.iter().map(|x| x * x).sum();
            let denom = (ea * eb).sqrt();
            if denom > 1e-12 {
                best = best.max(corr / denom);
            }
        }
        peaks.push(best);
    }
    peaks.sort_by(|a, b| a.partial_cmp(b).expect("finite peak"));
    peaks[peaks.len() / 2].clamp(0.0, 1.0)
}

/// The 14 clip features computed frame by frame from scratch: the ad-hoc
/// FFT, per-bin band branches, both square roots of the flux per bin, and
/// the three-sum pitch strength.
fn reference_clip_features(signal: &[f32], sample_rate: u32) -> Option<Vec<f64>> {
    let frame_len = (0.030 * sample_rate as f64).round() as usize;
    let hop = (0.010 * sample_rate as f64).round() as usize;
    if signal.len() < frame_len || frame_len == 0 || hop == 0 {
        return None;
    }
    let window = hamming(frame_len);
    let nyquist = sample_rate as f64 / 2.0;
    let (mut energies, mut zcrs, mut centroids, mut rolloffs, mut fluxes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut band_energy = [0.0f64; 4];
    let mut total_energy = 0.0f64;
    let mut prev: Option<Vec<f64>> = None;
    for frame in frame_slices(signal, frame_len, hop) {
        energies.push(rms(frame));
        zcrs.push(zero_crossing_rate(frame));
        let power = power_spectrum(&apply_window(frame, &window));
        let bins = power.len();
        let bin_hz = nyquist / (bins - 1).max(1) as f64;
        let total: f64 = power.iter().sum();
        if total > 1e-12 {
            let centroid: f64 = power
                .iter()
                .enumerate()
                .map(|(k, &p)| k as f64 * bin_hz * p)
                .sum::<f64>()
                / total;
            centroids.push(centroid / nyquist);
            let mut acc = 0.0;
            let mut roll = 0usize;
            for (k, &p) in power.iter().enumerate() {
                acc += p;
                if acc >= 0.85 * total {
                    roll = k;
                    break;
                }
            }
            rolloffs.push(roll as f64 * bin_hz / nyquist);
        } else {
            centroids.push(0.0);
            rolloffs.push(0.0);
        }
        if let Some(prev) = &prev {
            let flux: f64 = power
                .iter()
                .zip(prev.iter())
                .map(|(&a, &b)| (a.sqrt() - b.sqrt()).abs())
                .sum::<f64>()
                / bins as f64;
            fluxes.push(flux);
        }
        for (k, &p) in power.iter().enumerate() {
            let hz = k as f64 * bin_hz;
            let band = if hz < 500.0 {
                0
            } else if hz < 1000.0 {
                1
            } else if hz < 2000.0 {
                2
            } else {
                3
            };
            band_energy[band] += p;
            total_energy += p;
        }
        prev = Some(power);
    }
    let peak = energies.iter().copied().fold(0.0f64, f64::max);
    let silence_thresh = (peak * 0.1).max(1e-4);
    let silence_ratio =
        energies.iter().filter(|&&e| e < silence_thresh).count() as f64 / energies.len() as f64;
    let mut out = vec![
        mean(&energies),
        std_dev(&energies),
        silence_ratio,
        mean(&zcrs),
        std_dev(&zcrs),
        mean(&centroids),
        std_dev(&centroids),
        mean(&rolloffs),
        mean(&fluxes),
    ];
    for band in band_energy {
        out.push(if total_energy > 1e-12 {
            band / total_energy
        } else {
            0.0
        });
    }
    out.push(reference_pitch_strength(signal, sample_rate));
    Some(out)
}

/// The clip classes of the bit-identity sweep.
const VOICE_KINDS: [&str; 7] = [
    "speech",
    "ambient",
    "music",
    "silence",
    "dc_offset",
    "clipped",
    "speech_at_16k",
];

/// A `len`-sample clip of class `VOICE_KINDS[kind]` from the corpus
/// synthesiser, with its sample rate.
fn voice_clip(kind: usize, len: usize, seed: u64) -> (Vec<f32>, u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let speaker = (seed % 40) as u32;
    let t0 = (seed % 10_000) as usize;
    let talk = |rng: &mut StdRng, sr| synth_speech(&voice_for_speaker(speaker), len, t0, sr, rng);
    let clip = match VOICE_KINDS[kind % VOICE_KINDS.len()] {
        "speech" => talk(&mut rng, SR),
        "ambient" => synth_ambient(len, t0, SR, &mut rng),
        "music" => synth_music(len, t0, SR, &mut rng),
        "silence" => vec![0.0; len],
        "dc_offset" => talk(&mut rng, SR).iter().map(|s| s + 0.3).collect(),
        "clipped" => talk(&mut rng, SR)
            .iter()
            .map(|s| (s * 12.0).clamp(-1.0, 1.0))
            .collect(),
        _ => return (talk(&mut rng, 16_000), 16_000),
    };
    (clip, SR)
}

/// `(kind, len, seed)`: lengths from below one analysis frame up to 4 s.
fn voice_case(rng: &mut TkRng) -> (usize, usize, u64) {
    let len = if rng.bool_p(0.25) {
        rng.usize_in(0, 600)
    } else {
        rng.usize_in(0, 4 * SR as usize)
    };
    (rng.usize_in(0, VOICE_KINDS.len() - 1), len, rng.next_u64())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn clip_features_and_pitch_match_the_reference_bit_for_bit() {
    forall_with(
        &config(32),
        "clip_features and pitch_strength == from-scratch reference, bit for bit",
        voice_case,
        |&(kind, len, seed)| {
            let (clip, sr) = voice_clip(kind, len, seed);
            let what = format!(
                "{} clip of {len} samples",
                VOICE_KINDS[kind % VOICE_KINDS.len()]
            );
            let (got, want) = (
                pitch_strength(&clip, sr),
                reference_pitch_strength(&clip, sr),
            );
            require!(
                got.to_bits() == want.to_bits(),
                "{what}: pitch {got:e} vs {want:e}"
            );
            match (clip_features(&clip, sr), reference_clip_features(&clip, sr)) {
                (None, None) => {}
                (Some(got), Some(want)) => {
                    require!(
                        same_bits(&got, &want),
                        "{what}: features {got:?} vs {want:?}"
                    )
                }
                (got, want) => return Err(format!("{what}: {got:?} vs {want:?}")),
            }
            Ok(())
        },
    );
}

#[test]
fn mfcc_of_synthetic_voices_matches_the_reference_bit_for_bit() {
    forall_with(
        &config(32),
        "MfccExtractor on corpus voices == dense + dct2 reference, bit for bit",
        voice_case,
        |&(kind, len, seed)| {
            let (clip, sr) = voice_clip(kind, len, seed);
            let got = MfccExtractor::paper_default(sr).extract(&clip);
            let want = reference_mfcc::mfcc_paper_default(&clip, sr);
            if let Some(diff) = reference_mfcc::first_bit_difference(&got, &want) {
                return Err(format!(
                    "{} clip of {len} samples: {diff}",
                    VOICE_KINDS[kind % VOICE_KINDS.len()]
                ));
            }
            Ok(())
        },
    );
}

/// `AudioMiner::analyze_shots` over every shot of the Tiny corpus against
/// the reference chain assembled by hand: from-scratch clip features, the
/// same GMM, and the dense-filterbank `dct2` MFCCs. Representative clips,
/// speech flags, every MFCC bit and every ΔBIC must agree.
#[test]
fn analyze_shots_on_the_tiny_corpus_matches_the_reference_chain() {
    let mut rng = StdRng::seed_from_u64(2003);
    let (sp, ns) = speech_training_clips(SR, 2.0, 24, &mut rng);
    let classifier = SpeechClassifier::train(&sp, &ns, SR, 2, &mut rng).expect("trains");
    let miner = AudioMiner::new(classifier.clone(), BicConfig::default());
    let mut speech_shots = 0;
    for video in standard_corpus(CorpusScale::Tiny, 2003) {
        let cuts = video
            .truth
            .as_ref()
            .expect("synthetic truth")
            .shot_cuts
            .clone();
        let shots = medvid_structure::shot::build_shots(&video.frames, &cuts);
        let got = miner.analyze_shots(&video, &shots);
        let mut want_mfcc = Vec::with_capacity(shots.len());
        for (shot, audio) in shots.iter().zip(&got) {
            let (s0, s1) = video.frame_range_to_samples(shot.start_frame, shot.end_frame);
            let best = shot_clips(&video.audio, s0, s1)
                .into_iter()
                .filter_map(|c| {
                    let f = reference_clip_features(video.audio.clip_samples(c), SR)?;
                    Some((c, classifier.classify_features(&f).1))
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite score"));
            let here = format!("video {} shot {}", video.id, shot.id);
            assert_eq!(audio.representative_clip, best.map(|b| b.0), "{here}");
            assert_eq!(audio.is_speech, best.is_some_and(|b| b.1 > 0.0), "{here}");
            let mfcc = best.map_or_else(Vec::new, |(clip, _)| {
                voiced_frames(&reference_mfcc::mfcc_paper_default(
                    video.audio.clip_samples(clip),
                    SR,
                ))
            });
            if let Some(diff) = reference_mfcc::first_bit_difference(&audio.mfcc, &mfcc) {
                panic!("{here}: {diff}");
            }
            speech_shots += usize::from(audio.is_speech);
            want_mfcc.push(mfcc);
        }
        for i in 0..shots.len() {
            for j in i + 1..shots.len() {
                let Some(got_bic) = miner.speaker_change(&got[i], &got[j]) else {
                    continue;
                };
                let want_bic =
                    bic_speaker_change(&want_mfcc[i], &want_mfcc[j], &BicConfig::default())
                        .expect("the miner's test ran on the same frames");
                assert_eq!(
                    got_bic.delta_bic.to_bits(),
                    want_bic.delta_bic.to_bits(),
                    "video {} shots {i}/{j}",
                    video.id
                );
            }
        }
    }
    assert!(speech_shots > 0, "the Tiny corpus carries speech");
}
