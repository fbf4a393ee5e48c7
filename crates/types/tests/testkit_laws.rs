//! Laws of the shared data types, checked with the medvid-testkit
//! property runner.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_testkit::domain::image;
use medvid_testkit::{forall_with, require, Config, CASES_ENV};
use medvid_types::{AudioClip, ColorHistogram, FrameFeatures, Image, Rgb, Shot, ShotId};

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
fn image_fill_rect_never_panics() {
    forall_with(
        &config(64),
        "fill_rect clips any rectangle to the image",
        |rng| {
            let size = (rng.usize_in(1, 31), rng.usize_in(1, 31));
            let rect = (
                rng.usize_in(0, 39),
                rng.usize_in(0, 39),
                rng.usize_in(0, 79),
                rng.usize_in(0, 79),
            );
            let color = (
                rng.usize_in(0, 255) as u8,
                rng.usize_in(0, 255) as u8,
                rng.usize_in(0, 255) as u8,
            );
            (size, rect, color)
        },
        |&((w, h), (x0, y0, x1, y1), (r, g, b))| {
            if w == 0 || h == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut img = Image::black(w, h);
            img.fill_rect(x0, y0, x1, y1, Rgb::new(r, g, b));
            require!(
                img.pixel_count() == w * h,
                "{} pixels in {w}x{h}",
                img.pixel_count()
            );
            Ok(())
        },
    );
}

#[test]
fn mean_abs_diff_is_symmetric_and_bounded() {
    forall_with(
        &config(64),
        "mean_abs_diff is symmetric, within [0, 255] and zero on itself",
        |rng| {
            let (w, h) = (rng.usize_in(1, 15), rng.usize_in(1, 15));
            (image(rng, w, h), image(rng, w, h))
        },
        |(a, b)| {
            let d1 = a.mean_abs_diff(b);
            let d2 = b.mean_abs_diff(a);
            require!((d1 - d2).abs() < 1e-6, "asymmetric: {d1} vs {d2}");
            require!((0.0..=255.0).contains(&d1), "{d1} out of [0, 255]");
            require!(
                a.mean_abs_diff(&a.clone()) == 0.0,
                "nonzero self-difference"
            );
            Ok(())
        },
    );
}

#[test]
fn histogram_l1_distance_triangle() {
    forall_with(
        &config(64),
        "L1 histogram distance obeys the triangle inequality",
        |rng| {
            (
                rng.usize_in(0, 255),
                rng.usize_in(0, 255),
                rng.usize_in(0, 255),
            )
        },
        |&(b1, b2, b3)| {
            let one_hot = |bin: usize| {
                let mut v = vec![0.0f32; 256];
                v[bin] = 1.0;
                ColorHistogram::new(v).map_err(|e| format!("bin {bin}: {e:?}"))
            };
            let (x, y, z) = (one_hot(b1)?, one_hot(b2)?, one_hot(b3)?);
            let (xz, xy, yz) = (x.l1_distance(&z), x.l1_distance(&y), y.l1_distance(&z));
            require!(
                xz <= xy + yz + 1e-6,
                "d(x,z)={xz} > d(x,y)={xy} + d(y,z)={yz}"
            );
            Ok(())
        },
    );
}

#[test]
fn shot_rep_frame_is_inside_shot() {
    forall_with(
        &config(64),
        "a shot's representative frame lies in [start, end)",
        |rng| (rng.usize_in(0, 9_999), rng.usize_in(1, 499)),
        |&(start, len)| {
            if len == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let s = Shot::new(ShotId(0), start, start + len, FrameFeatures::zeros())
                .map_err(|e| format!("[{start}, {}): {e:?}", start + len))?;
            require!(
                (s.start_frame..s.end_frame).contains(&s.rep_frame),
                "rep frame {} outside [{}, {})",
                s.rep_frame,
                s.start_frame,
                s.end_frame
            );
            Ok(())
        },
    );
}

#[test]
fn audio_clip_len_consistent() {
    forall_with(
        &config(64),
        "an audio clip's length and duration match its span",
        |rng| (rng.usize_in(0, 99_999), rng.usize_in(1, 99_999)),
        |&(start, len)| {
            if len == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let c = AudioClip::new(start, start + len)
                .map_err(|e| format!("[{start}, {}): {e:?}", start + len))?;
            require!(c.len() == len, "len {} for a span of {len}", c.len());
            let secs = c.duration_secs(8000);
            require!(
                (secs - len as f64 / 8000.0).abs() < 1e-12,
                "{secs} s for {len} samples at 8 kHz"
            );
            Ok(())
        },
    );
}
