//! Decoder robustness fuzzing and codec round-trip laws driven by
//! medvid-testkit.
//!
//! The decoder is the one component fed bytes it did not produce, so the
//! contract is: any input yields `Ok` or a typed [`DecodeError`] — never a
//! panic, never an allocation proportional to a lying header field. The
//! round-trip laws pin the other direction: varints and encoded frames
//! come back as they went in (frames within a PSNR floor).
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_codec::bitio::{write_ivarint, write_uvarint, Reader};
use medvid_codec::{decode_video, encode_video, psnr, DecodeError, EncoderConfig, Quality};
use medvid_testkit::{forall, forall_with, require, Config, NoShrink, TkRng, CASES_ENV};
use medvid_types::{Image, Rgb};

/// The codec magic (crate-private constant, restated here as the on-wire
/// bytes a fuzzer would learn from any valid stream).
const MAGIC: [u8; 4] = *b"MVC1";

/// The environment's configuration, running `cases` cases unless
/// `MEDVID_TESTKIT_CASES` overrides the count.
fn config(cases: usize) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var_os(CASES_ENV).is_none() {
        cfg.cases = cases;
    }
    cfg
}

/// A small valid bitstream to mutate: a few frames of seeded blocks.
fn valid_stream(rng: &mut TkRng, n_frames: usize) -> Vec<u8> {
    let frames: Vec<Image> = (0..n_frames)
        .map(|_| {
            let mut img = Image::filled(
                16,
                16,
                Rgb::new(
                    rng.usize_in(0, 255) as u8,
                    rng.usize_in(0, 255) as u8,
                    rng.usize_in(0, 255) as u8,
                ),
            );
            img.fill_rect(
                rng.usize_in(0, 8),
                rng.usize_in(0, 8),
                8,
                8,
                Rgb::new(rng.usize_in(0, 255) as u8, 40, 200),
            );
            img
        })
        .collect();
    encode_video(&frames, &EncoderConfig::default()).expect("valid frames encode")
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    forall(
        "decode_video(arbitrary bytes) returns, never panics",
        |rng| {
            let len = rng.usize_in(0, 2048);
            let mut bytes = rng.bytes(len);
            // Half the cases lead with the magic so fuzzing reaches the
            // header and frame parsers instead of dying at byte 0.
            if rng.bool_p(0.5) && bytes.len() >= MAGIC.len() {
                bytes[..MAGIC.len()].copy_from_slice(&MAGIC);
            }
            bytes
        },
        |bytes| {
            match decode_video(bytes) {
                Ok(frames) => {
                    // A garbage input that happens to parse must still have
                    // been bounded by the header sanity caps.
                    for f in &frames {
                        require!(
                            (f.width() as u64) * (f.height() as u64) <= 1 << 24,
                            "decoded {}x{} frame from fuzz input",
                            f.width(),
                            f.height()
                        );
                    }
                }
                Err(
                    DecodeError::BadMagic
                    | DecodeError::Bitstream(_)
                    | DecodeError::BadFrameType(_)
                    | DecodeError::BlockOverflow
                    | DecodeError::BadHeader,
                ) => {}
            }
            Ok(())
        },
    );
}

#[test]
fn truncated_valid_streams_error_cleanly() {
    forall(
        "every proper prefix of a valid stream is Err, not a panic",
        |rng| {
            let frames = rng.usize_in(1, 3);
            let stream = valid_stream(rng, frames);
            let cut = rng.usize_in(0, stream.len().saturating_sub(1));
            (NoShrink(stream), cut)
        },
        |(stream, cut)| {
            let stream = &stream.0;
            if *cut >= stream.len() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let truncated = &stream[..*cut];
            require!(
                decode_video(truncated).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                stream.len()
            );
            Ok(())
        },
    );
}

#[test]
fn bit_flipped_streams_never_panic() {
    forall(
        "decode_video(bit-flipped valid stream) returns Ok or typed Err",
        |rng| {
            let frames = rng.usize_in(1, 3);
            let stream = valid_stream(rng, frames);
            let flips: Vec<(usize, u8)> = (0..rng.usize_in(1, 8))
                .map(|_| (rng.usize_in(0, stream.len() - 1), 1u8 << rng.usize_in(0, 7)))
                .collect();
            (NoShrink(stream), flips)
        },
        |(stream, flips)| {
            let mut bytes = stream.0.clone();
            for &(pos, mask) in flips {
                if let Some(b) = bytes.get_mut(pos) {
                    *b ^= mask;
                }
            }
            // Either outcome is acceptable; reaching this line at all is
            // the property (catch_unwind in the runner converts panics).
            let _ = decode_video(&bytes);
            Ok(())
        },
    );
}

#[test]
fn lying_frame_count_cannot_force_a_huge_allocation() {
    forall(
        "header n_frames beyond the buffer cannot preallocate beyond it",
        |rng| {
            // Hand-built header: magic, tiny dims, an absurd frame count,
            // then a handful of garbage body bytes.
            let mut bytes = MAGIC.to_vec();
            bytes.push(16); // width varint
            bytes.push(16); // height varint
                            // n_frames varint: ~2^21 frames claimed.
            bytes.extend_from_slice(&[0xFF, 0xFF, 0x7F]);
            bytes.push(75); // quality
            bytes.push(12); // gop varint
            let body = rng.usize_in(0, 64);
            bytes.extend(rng.bytes(body));
            bytes
        },
        |bytes| {
            // The claim exceeds the body by orders of magnitude; decode
            // must fail on the missing data without allocating frame slots
            // for the lie (with_capacity is clamped to remaining bytes —
            // observable here as the call returning promptly at all).
            require!(
                decode_video(bytes).is_err(),
                "decoder accepted a stream claiming 2^21 frames in {} bytes",
                bytes.len()
            );
            Ok(())
        },
    );
}

#[test]
fn decoder_never_panics_on_garbage() {
    forall_with(
        &config(32),
        "decode_video(short garbage) returns, never panics",
        |rng| {
            let len = rng.usize_in(0, 299);
            rng.bytes(len)
        },
        |bytes| {
            let _ = decode_video(bytes); // must return Err, never panic
            Ok(())
        },
    );
}

#[test]
fn decoder_never_panics_on_truncation() {
    forall_with(
        &config(32),
        "decode_video(prefix of a flat-colour stream) returns, never panics",
        |rng| {
            (
                rng.usize_in(1, 23),
                rng.usize_in(1, 23),
                rng.usize_in(0, 399),
            )
        },
        |&(w, h, cut)| {
            if w == 0 || h == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let frames = vec![Image::filled(w, h, Rgb::new(30, 60, 90)); 2];
            let bits = encode_video(&frames, &EncoderConfig::default())
                .map_err(|e| format!("encode {w}x{h}: {e:?}"))?;
            let _ = decode_video(&bits[..cut.min(bits.len())]);
            Ok(())
        },
    );
}

#[test]
fn varint_roundtrip() {
    forall_with(
        &config(32),
        "read_ivarint(write_ivarint(v)) == v",
        |rng| {
            let len = rng.usize_in(0, 49);
            (0..len)
                .map(|_| rng.next_u64() as i64)
                .collect::<Vec<i64>>()
        },
        |values| {
            let mut buf = Vec::new();
            for &v in values {
                write_ivarint(&mut buf, v);
            }
            let mut r = Reader::new(&buf);
            for &v in values {
                let got = r.read_ivarint().map_err(|e| format!("{v}: {e:?}"))?;
                require!(got == v, "wrote {v}, read {got}");
            }
            require!(
                r.is_at_end(),
                "trailing bytes after {} values",
                values.len()
            );
            Ok(())
        },
    );
}

#[test]
fn uvarint_roundtrip() {
    forall_with(
        &config(32),
        "read_uvarint(write_uvarint(v)) == v",
        |rng| {
            let len = rng.usize_in(0, 49);
            (0..len).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        },
        |values| {
            let mut buf = Vec::new();
            for &v in values {
                write_uvarint(&mut buf, v);
            }
            let mut r = Reader::new(&buf);
            for &v in values {
                let got = r.read_uvarint().map_err(|e| format!("{v}: {e:?}"))?;
                require!(got == v, "wrote {v}, read {got}");
            }
            Ok(())
        },
    );
}

#[test]
fn codec_roundtrip_arbitrary_frames() {
    forall_with(
        &config(32),
        "decode(encode(frames)) keeps dimensions and PSNR > 20 dB",
        |rng| {
            let size = (rng.usize_in(1, 39), rng.usize_in(1, 31));
            let n = rng.usize_in(1, 3);
            let quality = rng.usize_in(20, 94) as u8;
            (size, n, quality, rng.u64_in(0, 999))
        },
        |&((w, h), n, quality, seed)| {
            if w == 0 || h == 0 || n == 0 || quality < 20 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut s = seed;
            let frames: Vec<Image> = (0..n)
                .map(|_| {
                    let mut img = Image::filled(w, h, Rgb::new(100, 120, 140));
                    for byte in img.raw_mut() {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        // Smooth-ish content: limited deviation.
                        *byte =
                            (*byte as i16 + ((s >> 33) as u8 % 32) as i16 - 16).clamp(0, 255) as u8;
                    }
                    img
                })
                .collect();
            let cfg = EncoderConfig {
                quality: Quality::new(quality).ok_or(format!("invalid quality {quality}"))?,
                ..Default::default()
            };
            let bits = encode_video(&frames, &cfg).map_err(|e| format!("encode: {e:?}"))?;
            let out = decode_video(&bits).map_err(|e| format!("decode: {e:?}"))?;
            require!(out.len() == n, "{} frames decoded of {n}", out.len());
            for (orig, dec) in frames.iter().zip(&out) {
                require!(
                    (dec.width(), dec.height()) == (w, h),
                    "decoded {}x{} from {w}x{h}",
                    dec.width(),
                    dec.height()
                );
                let p = psnr(orig, dec);
                require!(p > 20.0, "PSNR {p} too low at quality {quality}");
            }
            Ok(())
        },
    );
}
