//! Entropy coding of quantized coefficient blocks.
//!
//! Coefficients are zigzag-scanned and coded as (zero-run, level) pairs with
//! Exp-Golomb codes plus an explicit end-of-block marker — structurally the
//! CAVLC-lite scheme of early H.264 profiles. Decoding a block therefore
//! costs real per-coefficient work, which is exactly the cost the SiEVE
//! I-frame seeker avoids for P-frames.

use crate::bitio::{se_from_ue, ue_in_window, BitReader, BitWriter, ReadBitsError, WINDOW_BITS};
use crate::dct::BLOCK_LEN;

/// Zigzag scan order for an 8x8 block (JPEG / MPEG order).
pub const ZIGZAG: [usize; BLOCK_LEN] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// Writes one quantized 8x8 block.
///
/// Layout: `[ (run: ue, level: se)* , run = BLOCK_LEN (EOB) ]` over the
/// zigzag-scanned coefficients. The DC coefficient participates like any
/// other coefficient; callers that delta-code DC do so before calling this.
pub fn encode_block(levels: &[i32; BLOCK_LEN], w: &mut BitWriter) {
    let mut run = 0u64;
    for &zz in ZIGZAG.iter() {
        let v = levels[zz];
        if v == 0 {
            run += 1;
        } else {
            w.write_ue(run);
            w.write_se(v as i64);
            run = 0;
        }
    }
    // EOB: a run that skips past the end of the block.
    w.write_ue(BLOCK_LEN as u64);
}

/// Largest coefficient magnitude [`decode_block`] accepts. The encoder's
/// levels are bounded by the transform's gain (`8 * 255`, less after
/// quantization); the cap leaves headroom while keeping `level * step`
/// inside the kernels' exact `|v| < 2^24` domain, so nothing downstream of
/// the parse can overflow on a hostile stream.
pub const MAX_LEVEL: i32 = 1 << 15;

/// The stream bits [`decode_block`] has loaded but not yet parsed: `valid`
/// of them at the top of `bits`, zero below, starting at the reader's
/// position. One [`BitReader::window`] load serves several (run, level)
/// pairs — a pair is a few bits on real streams — and the parse chain runs
/// register to register between loads.
struct Lookahead {
    bits: u64,
    valid: u32,
}

impl Lookahead {
    /// Reads one Exp-Golomb code: from the loaded bits, else from a fresh
    /// window, else (the last 8 bytes of the stream, a code longer than a
    /// window) through the reader's own call, which is where truncated and
    /// overlong codes are diagnosed. The reader's position tracks every
    /// code, so that call sees exactly the stream a plain `read_ue` loop
    /// would.
    #[inline(always)]
    fn read_ue(&mut self, r: &mut BitReader<'_>) -> Result<u64, ReadBitsError> {
        let mut code = ue_in_window(self.bits, self.valid);
        if code.is_none() {
            (self.bits, self.valid) = match r.window() {
                Some(fresh) => (fresh, WINDOW_BITS),
                None => (0, 0),
            };
            code = ue_in_window(self.bits, self.valid);
        }
        match code {
            Some((value, len)) => {
                r.skip(len);
                self.bits <<= len;
                self.valid -= len;
                Ok(value)
            }
            None => {
                self.valid = 0;
                r.read_ue()
            }
        }
    }
}

/// Reads one quantized 8x8 block written by [`encode_block`] into `levels`,
/// overwriting every entry.
///
/// # Errors
///
/// Returns [`ReadBitsError`] if the bitstream is truncated or malformed, or
/// a level exceeds [`MAX_LEVEL`] in magnitude.
pub fn decode_block(
    r: &mut BitReader<'_>,
    levels: &mut [i32; BLOCK_LEN],
) -> Result<(), ReadBitsError> {
    levels.fill(0);
    let mut ahead = Lookahead { bits: 0, valid: 0 };
    let mut pos = 0usize;
    loop {
        let run = ahead.read_ue(r)?;
        if run >= BLOCK_LEN as u64 {
            return Ok(()); // EOB
        }
        pos += run as usize;
        if pos >= BLOCK_LEN {
            // A run that lands past the end without the EOB marker is
            // malformed input.
            return Err(ReadBitsError);
        }
        let level = se_from_ue(ahead.read_ue(r)?);
        if level.unsigned_abs() > MAX_LEVEL as u64 {
            return Err(ReadBitsError);
        }
        levels[ZIGZAG[pos]] = level as i32;
        pos += 1;
        if pos >= BLOCK_LEN {
            // Block is full; the EOB marker must follow.
            return if ahead.read_ue(r)? < BLOCK_LEN as u64 {
                Err(ReadBitsError)
            } else {
                Ok(())
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(levels: [i32; BLOCK_LEN]) {
        let mut w = BitWriter::new();
        encode_block(&levels, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        // Stale content must not survive: the decoder reuses one block.
        let mut back = [i32::MIN; BLOCK_LEN];
        decode_block(&mut r, &mut back).expect("decode");
        assert_eq!(levels, back);
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; BLOCK_LEN];
        for &z in ZIGZAG.iter() {
            assert!(!seen[z], "duplicate zigzag index {z}");
            seen[z] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn roundtrip_zero_block() {
        roundtrip([0; BLOCK_LEN]);
    }

    #[test]
    fn roundtrip_dc_only() {
        let mut l = [0; BLOCK_LEN];
        l[0] = -37;
        roundtrip(l);
    }

    #[test]
    fn roundtrip_dense_block() {
        let mut l = [0; BLOCK_LEN];
        for (i, v) in l.iter_mut().enumerate() {
            *v = (i as i32 % 7) - 3;
        }
        roundtrip(l);
    }

    #[test]
    fn roundtrip_last_coefficient_only() {
        let mut l = [0; BLOCK_LEN];
        l[63] = 5;
        roundtrip(l);
    }

    #[test]
    fn roundtrip_alternating() {
        let mut l = [0; BLOCK_LEN];
        for i in (0..BLOCK_LEN).step_by(2) {
            l[i] = if i % 4 == 0 { 100 } else { -100 };
        }
        roundtrip(l);
    }

    #[test]
    fn zero_block_is_tiny() {
        let mut w = BitWriter::new();
        encode_block(&[0; BLOCK_LEN], &mut w);
        // EOB only: ue(64) is 13 bits -> 2 bytes after padding.
        assert!(w.finish().len() <= 2, "all-zero block must cost ~2 bytes");
    }

    #[test]
    fn sparse_blocks_cost_less_than_dense() {
        let mut sparse = [0; BLOCK_LEN];
        sparse[0] = 12;
        let mut dense = [0; BLOCK_LEN];
        for (i, v) in dense.iter_mut().enumerate() {
            *v = i as i32 - 32;
        }
        let mut ws = BitWriter::new();
        encode_block(&sparse, &mut ws);
        let mut wd = BitWriter::new();
        encode_block(&dense, &mut wd);
        assert!(ws.bit_len() < wd.bit_len());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = BitWriter::new();
        let mut l = [0; BLOCK_LEN];
        l[0] = 1000;
        l[63] = -1000;
        encode_block(&l, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes[..bytes.len() - 1]);
        assert!(decode_block(&mut r, &mut [0; BLOCK_LEN]).is_err());
    }
}
