//! Laws of the event decision rules, checked with the medvid-testkit
//! property runner: classification is deterministic, and every verdict
//! is backed by the cues its rule requires.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_events::rules::{classify_scene, SceneEvidence, ShotEvidence};
use medvid_testkit::{forall_with, require, Config, NoShrink, TkRng, CASES_ENV};
use medvid_types::EventKind;

/// The environment's configuration, running `cases` cases unless
/// `MEDVID_TESTKIT_CASES` overrides the count.
fn config(cases: usize) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var_os(CASES_ENV).is_none() {
        cfg.cases = cases;
    }
    cfg
}

fn shot(rng: &mut TkRng) -> ShotEvidence {
    let face = rng.bool_p(0.5);
    let skin = rng.bool_p(0.5);
    ShotEvidence {
        slide_or_clipart: rng.bool_p(0.5),
        face,
        face_close_up: rng.bool_p(0.5) && face,
        skin,
        skin_close_up: rng.bool_p(0.5) && skin,
        blood_red: rng.bool_p(0.5),
        speech: rng.bool_p(0.5),
    }
}

/// 1–9 shots of random cues with a symmetric speaker-change matrix whose
/// off-diagonal cells are a change, no change or unknown (half the time).
fn evidence(rng: &mut TkRng) -> NoShrink<SceneEvidence> {
    let n = rng.usize_in(1, 9);
    let shots: Vec<ShotEvidence> = (0..n).map(|_| shot(rng)).collect();
    let mut matrix = vec![vec![None; n]; n];
    #[allow(clippy::needless_range_loop)] // fills (i, j) and (j, i) together
    for i in 0..n {
        for j in i + 1..n {
            let v = match rng.usize_in(0, 3) {
                0 => Some(true),
                1 => Some(false),
                _ => None,
            };
            matrix[i][j] = v;
            matrix[j][i] = v;
        }
    }
    NoShrink(SceneEvidence {
        shots,
        any_temporally_related_group: rng.bool_p(0.5),
        any_spatially_related_group: rng.bool_p(0.5),
        speaker_change: matrix,
    })
}

/// Whether some adjacent shot pair is a confirmed speaker change.
fn adjacent_change(ev: &SceneEvidence) -> bool {
    (0..ev.shots.len().saturating_sub(1)).any(|i| ev.speaker_change[i][i + 1] == Some(true))
}

#[test]
fn classify_never_panics_and_is_deterministic() {
    forall_with(
        &config(64),
        "classify_scene is deterministic",
        evidence,
        |NoShrink(ev)| {
            let (a, b) = (classify_scene(ev), classify_scene(ev));
            require!(a == b, "{a:?} then {b:?}");
            Ok(())
        },
    );
}

#[test]
fn presentation_requires_its_cues() {
    forall_with(
        &config(64),
        "Presentation needs a slide, a face close-up and a temporal group",
        evidence,
        |NoShrink(ev)| {
            if classify_scene(ev) == EventKind::Presentation {
                require!(ev.shots.iter().any(|s| s.slide_or_clipart), "no slide");
                require!(ev.shots.iter().any(|s| s.face_close_up), "no face close-up");
                require!(ev.any_temporally_related_group, "no temporal group");
            }
            Ok(())
        },
    );
}

#[test]
fn dialog_requires_faces_and_change() {
    forall_with(
        &config(64),
        "Dialog needs adjacent faces, a speaker change and a spatial group",
        evidence,
        |NoShrink(ev)| {
            if classify_scene(ev) == EventKind::Dialog {
                let n = ev.shots.len();
                require!(
                    (0..n.saturating_sub(1)).any(|i| ev.shots[i].face && ev.shots[i + 1].face),
                    "no adjacent face pair"
                );
                require!(adjacent_change(ev), "no adjacent speaker change");
                require!(ev.any_spatially_related_group, "no spatial group");
            }
            Ok(())
        },
    );
}

#[test]
fn clinical_requires_skin_or_blood_and_no_change() {
    forall_with(
        &config(64),
        "Clinical operation needs skin or blood cues and no speaker change",
        evidence,
        |NoShrink(ev)| {
            if classify_scene(ev) == EventKind::ClinicalOperation {
                require!(!adjacent_change(ev), "adjacent speaker change");
                let n = ev.shots.len();
                let has_cue = ev.shots.iter().any(|s| s.skin_close_up || s.blood_red)
                    || ev.shots.iter().filter(|s| s.skin).count() * 2 > n;
                require!(has_cue, "no skin close-up, blood or skin majority");
            }
            Ok(())
        },
    );
}
