//! BIC speaker-change laws and randomized coverage, plus the clip
//! segmentation and clip-feature laws, driven by medvid-testkit.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_audio::bic::{bic_on_waveforms, bic_speaker_change, voiced_frames, BicConfig, BicError};
use medvid_audio::clips::segment_clips;
use medvid_audio::features::{clip_features, CLIP_FEATURE_DIMS};
use medvid_signal::mel::MfccExtractor;
use medvid_synth::voice::{synth_speech, voice_for_speaker};
use medvid_testkit::{forall, forall_with, require, Config, TkRng, CASES_ENV};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
