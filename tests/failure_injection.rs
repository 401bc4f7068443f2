//! Failure injection: corrupted bitstreams, malformed containers, and
//! hostile inputs must produce errors (or garbage frames), never panics or
//! undefined behaviour in the decode path.

use sieve::prelude::*;
use sieve_video::{ContainerError, DecodeError, Decoder, EncodedFrame, EncodedVideo, VideoIndex};

fn sample_video() -> EncodedVideo {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
    EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(50, 100),
        video.frames().take(120),
    )
}

#[test]
fn truncation_at_every_boundary_is_graceful() {
    let video = sample_video();
    let bytes = video.to_bytes();
    // Every prefix either parses (and then decodes or errors cleanly) or
    // reports a container error; nothing panics.
    for cut in [0, 3, 4, 10, 20, 21, 100, bytes.len() / 2, bytes.len() - 1] {
        let prefix = &bytes[..cut.min(bytes.len())];
        match VideoIndex::parse(prefix) {
            Ok(index) => {
                // Index parsed but payloads may be truncated.
                for (i, meta) in index.i_frames() {
                    let _ = index.decode_iframe(prefix, meta);
                    let _ = i;
                }
            }
            Err(e) => {
                assert!(matches!(
                    e,
                    ContainerError::BadHeader | ContainerError::Truncated
                ));
            }
        }
    }
}

#[test]
fn bit_flips_in_payload_never_panic() {
    let video = sample_video();
    let mut bytes = video.to_bytes();
    let payload_start = bytes.len() / 2;
    // Flip a spread of bits in the payload region and attempt decodes.
    for k in 0..64 {
        let pos = payload_start + (k * 131) % (bytes.len() - payload_start);
        bytes[pos] ^= 1 << (k % 8);
        if let Ok(corrupt) = EncodedVideo::from_bytes(&bytes) {
            let mut dec = Decoder::new(corrupt.resolution(), corrupt.quality());
            for ef in corrupt.frames() {
                // Either a frame (possibly visually wrong) or a clean error.
                let _ = dec.decode_frame(ef);
            }
        }
        bytes[pos] ^= 1 << (k % 8); // restore
    }
}

#[test]
fn frame_table_corruption_detected() {
    let video = sample_video();
    let mut bytes = video.to_bytes();
    // Corrupt a frame-type byte in the table (offset 21 is the first entry).
    bytes[21] = 0xFF;
    assert_eq!(
        VideoIndex::parse(&bytes).unwrap_err(),
        ContainerError::BadHeader
    );
}

#[test]
fn header_resolution_corruption_detected() {
    let video = sample_video();
    let mut bytes = video.to_bytes();
    // Zero width.
    bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
    assert!(VideoIndex::parse(&bytes).is_err());
}

#[test]
fn wrong_quality_decodes_but_degrades() {
    // A decoder configured with the wrong quantizer quality must still
    // produce frames (the bitstream is syntactically identical), just with
    // wrong sample values — the classic mismatched-decoder behaviour.
    let video = sample_video();
    let first_i = video.i_frame_indices()[0];
    let right = Decoder::decode_iframe(
        video.resolution(),
        video.quality(),
        &video.frames()[first_i].data,
    )
    .expect("decodes");
    let wrong = Decoder::decode_iframe(video.resolution(), 10, &video.frames()[first_i].data)
        .expect("still decodes");
    assert_ne!(right, wrong);
}

#[test]
fn p_frame_payload_as_iframe_is_error_or_garbage() {
    let video = sample_video();
    let p_idx = (0..video.frame_count())
        .find(|&i| video.frames()[i].frame_type == FrameType::P)
        .expect("stream has P-frames");
    // Feeding a P-frame payload to the independent I-frame decoder must not
    // panic; it typically under-runs the bitstream.
    let result = Decoder::decode_iframe(
        video.resolution(),
        video.quality(),
        &video.frames()[p_idx].data,
    );
    if let Err(e) = result {
        assert_eq!(e, DecodeError::Bitstream);
    }
}

#[test]
fn empty_and_hostile_inputs() {
    assert!(VideoIndex::parse(&[]).is_err());
    assert!(VideoIndex::parse(b"SEV1").is_err());
    assert!(EncodedVideo::from_bytes(&[0u8; 64]).is_err());
    // A header claiming u32::MAX frames must not allocate absurdly.
    let mut evil = Vec::new();
    evil.extend_from_slice(b"SEV1");
    evil.extend_from_slice(&32u32.to_le_bytes());
    evil.extend_from_slice(&32u32.to_le_bytes());
    evil.extend_from_slice(&30u32.to_le_bytes());
    evil.push(75);
    evil.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        VideoIndex::parse(&evil).unwrap_err(),
        ContainerError::Truncated
    );
}

/// An intra payload for a 16x16 frame (four luma blocks, one per chroma
/// plane) whose luma DC deltas are `luma_dc` and whose other blocks are
/// empty.
fn intra_payload_16x16(luma_dc: [i64; 4]) -> Vec<u8> {
    use sieve_video::bitio::BitWriter;
    let mut w = BitWriter::new();
    for dc in luma_dc.into_iter().chain([0, 0]) {
        if dc != 0 {
            w.write_ue(0); // run
            w.write_se(dc); // level
        }
        w.write_ue(64); // EOB
    }
    w.finish()
}

#[test]
fn hostile_coefficient_levels_are_rejected_not_overflowed() {
    // Levels are attacker-chosen: unbounded, a DC of i32::MAX overflows the
    // +128 level shift (a panic in overflow-checked builds, which is what
    // tier-1 runs) and a level past 32 bits truncates into a plausible
    // one. The parser must bound them instead.
    let res = Resolution::new(16, 16);
    for level in [
        i32::MAX as i64,
        i32::MIN as i64,
        (1 << 32) + 5,
        -(1 << 40),
        (1 << 15) + 1,
    ] {
        assert_eq!(
            Decoder::decode_iframe(res, 75, &intra_payload_16x16([level, 0, 0, 0])).unwrap_err(),
            DecodeError::Bitstream,
            "level {level}"
        );
    }
    // The delta-coded DC is bounded as a running sum, not per delta.
    let cap = 1i64 << 15;
    assert_eq!(
        Decoder::decode_iframe(res, 75, &intra_payload_16x16([cap, cap, 0, 0])).unwrap_err(),
        DecodeError::Bitstream
    );
    // At the cap the stream is legal: it decodes, saturating to white and
    // black, and walks back into range.
    let frame = Decoder::decode_iframe(res, 75, &intra_payload_16x16([cap, -cap, -cap, cap]))
        .expect("levels at the cap are accepted");
    assert_eq!(frame.y().sample(0, 0), 255);
    assert_eq!(frame.y().sample(8, 0), 128);
    assert_eq!(frame.y().sample(0, 8), 0);
    assert_eq!(frame.y().sample(8, 8), 128);
}

#[test]
fn hostile_inter_payloads_are_rejected_not_truncated() {
    use sieve_video::bitio::BitWriter;
    let res = Resolution::new(16, 16);
    let with_reference = || {
        let mut dec = Decoder::new(res, 75);
        let mut enc = Encoder::new(res, EncoderConfig::new(10, 0));
        dec.decode_frame(&enc.encode_frame(&Frame::grey(res)))
            .expect("reference I-frame");
        dec
    };
    let p_frame = |data: Vec<u8>| EncodedFrame {
        frame_type: FrameType::P,
        data: data.into(),
    };
    // A motion-vector component that does not fit an i16 must not be cast
    // down to one that does.
    for (dx, dy) in [(40_000, 0), (0, -40_000), (1 << 33, 1)] {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_se(dx);
        w.write_se(dy);
        for _ in 0..6 {
            w.write_bit(false);
        }
        assert_eq!(
            with_reference()
                .decode_frame(&p_frame(w.finish()))
                .unwrap_err(),
            DecodeError::Bitstream,
            "mv ({dx}, {dy})"
        );
    }
    // The largest vectors an i16 holds are legal: every read clamps to the
    // reference's edge.
    let mut w = BitWriter::new();
    w.write_bit(true);
    w.write_se(i16::MAX as i64);
    w.write_se(i16::MIN as i64);
    for _ in 0..6 {
        w.write_bit(false);
    }
    with_reference()
        .decode_frame(&p_frame(w.finish()))
        .expect("extreme in-range vector decodes");
    // A residual level of i32::MAX would overflow `pred + resid`.
    let mut w = BitWriter::new();
    w.write_bit(true);
    w.write_se(0);
    w.write_se(0);
    w.write_bit(true);
    w.write_ue(0);
    w.write_se(i32::MAX as i64);
    w.write_ue(64);
    let mut dec = with_reference();
    assert_eq!(
        dec.decode_frame(&p_frame(w.finish())).unwrap_err(),
        DecodeError::Bitstream
    );
    // A rejected frame leaves the decoder usable.
    let mut w = BitWriter::new();
    w.write_bit(false);
    dec.decode_frame(&p_frame(w.finish()))
        .expect("decoder state survives a rejected frame");
}
