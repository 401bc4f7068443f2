//! Entropy coding of quantized coefficient blocks.
//!
//! Coefficients are zigzag-scanned and coded as (zero-run, level) pairs with
//! Exp-Golomb codes plus an explicit end-of-block marker — structurally the
//! CAVLC-lite scheme of early H.264 profiles. Decoding a block therefore
//! costs real per-coefficient work, which is exactly the cost the SiEVE
//! I-frame seeker avoids for P-frames.

use crate::bitio::{
    se_from_ue, se_to_ue, ue_code, ue_in_window, BitCursor, BitReader, BitWriter, ReadBitsError,
};
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

/// Zigzag position of each raster index: the inverse of [`ZIGZAG`].
const UNZIGZAG: [u8; BLOCK_LEN] = {
    let mut table = [0u8; BLOCK_LEN];
    let mut i = 0;
    while i < BLOCK_LEN {
        table[ZIGZAG[i]] = i as u8;
        i += 1;
    }
    table
};

/// Bit `i` set: `levels[i]` is non-zero. The comparisons go to bytes the
/// compiler vectorizes; each row's 8 bytes of 0/1 then pack into 8 bits
/// with one multiply, which moves byte `k`'s bit to bit `56 + k` without
/// carries.
#[inline]
fn nonzero_mask(levels: &[i32; BLOCK_LEN]) -> u64 {
    let nonzero: [u8; BLOCK_LEN] = std::array::from_fn(|i| (levels[i] != 0) as u8);
    let (rows, _) = nonzero.as_chunks::<8>();
    rows.iter().enumerate().fold(0, |mask, (row, bytes)| {
        let bits = u64::from_le_bytes(*bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        mask | bits << (8 * row)
    })
}

/// Writes one quantized 8x8 block.
///
/// Layout: `[ (run: ue, level: se)* , run = BLOCK_LEN (EOB) ]` over the
/// zigzag-scanned coefficients. The DC coefficient participates like any
/// other coefficient; callers that delta-code DC do so before calling this.
///
/// The coded coefficients are walked through a zigzag-order bitmask, one
/// `trailing_zeros` each, and a pair whose two codes fit in 32 bits — any
/// |level| < 2^9, whatever the run — is one [`BitWriter::write_bits`].
pub fn encode_block(levels: &[i32; BLOCK_LEN], w: &mut BitWriter) {
    let mut raster = nonzero_mask(levels);
    let mut coded = 0u64;
    while raster != 0 {
        coded |= 1 << UNZIGZAG[raster.trailing_zeros() as usize];
        raster &= raster - 1;
    }
    // Zigzag position after the previous coded coefficient.
    let mut next = 0;
    while coded != 0 {
        let pos = coded.trailing_zeros();
        coded &= coded - 1;
        let level = levels[ZIGZAG[pos as usize]] as i64;
        let (run, run_len) = ue_code((pos - next) as u64);
        let (code, len) = ue_code(se_to_ue(level));
        if run_len + len <= 32 {
            w.write_bits(run << len | code, (run_len + len) as u8);
        } else {
            w.write_bits(run, run_len as u8);
            w.write_se(level);
        }
        next = pos + 1;
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

/// Window bits one [`PAIRS`] lookup decodes.
const PAIR_BITS: u32 = 12;

/// The (run, level) pairs at the top of every [`PAIR_BITS`]-bit window:
/// the first pair if both its Exp-Golomb codes fit in the index, and the
/// pair after it if that one fits behind it. Packed into a `u32`:
///
/// * bits 0..6: the bits the entry decodes (both pairs, else the first
///   alone); 0 if no whole pair fits;
/// * bits 10..16: the first run;
/// * bits 16..22: the first level, two's complement;
/// * bits 22..27: the zigzag distance from the first coefficient to the
///   second, `run + 1`; 0 if there is no second pair;
/// * bits 27..32: the second level, two's complement.
///
/// A run code leaves at most 11 bits for its level, so |level| <= 31; a
/// second pair shares the 12 bits with a first one, so its run is at most
/// 30 and |level| at most 15. Longer pairs and the EOB (a 13-bit code) take
/// the two-code path. On real streams a pair is 4 to 8 bits, so one lookup
/// decodes one or two coefficients where the two-code path decodes half of
/// one.
static PAIRS: [u32; 1 << PAIR_BITS] = pair_table();

/// The first (run, level) pair of `window`'s top `valid` bits and the bits
/// it takes, if both its codes end inside them.
const fn pair_in_window(window: u64, valid: u32) -> Option<(u64, i64, u32)> {
    let Some((run, run_len)) = ue_in_window(window, valid) else {
        return None;
    };
    match ue_in_window(window << run_len, valid - run_len) {
        Some((level, level_len)) => Some((run, se_from_ue(level), run_len + level_len)),
        None => None,
    }
}

const fn pair_table() -> [u32; 1 << PAIR_BITS] {
    let mut table = [0u32; 1 << PAIR_BITS];
    let mut index = 0;
    while index < table.len() {
        let window = (index as u64) << (64 - PAIR_BITS);
        if let Some((run, level, len)) = pair_in_window(window, PAIR_BITS) {
            let first = (run as u32) << 10 | (level as u32 & 0x3f) << 16;
            table[index] = match pair_in_window(window << len, PAIR_BITS - len) {
                Some((run2, level2, len2)) => {
                    first | (len + len2) | (run2 as u32 + 1) << 22 | (level2 as u32 & 0x1f) << 27
                }
                None => first | len,
            };
        }
        index += 1;
    }
    table
}

/// Parses one block written by [`encode_block`] from `c`, handing each
/// coded coefficient to `put` as `(raster index, level)`. Indices ascend in
/// zigzag order and none repeats, except that a lookup that decodes one
/// pair may first hand over a stand-in for its index, then the level. The
/// caller clears the coefficients no call reaches.
///
/// # Errors
///
/// Returns [`ReadBitsError`] if the bitstream is truncated or malformed, or
/// a level exceeds [`MAX_LEVEL`] in magnitude.
#[inline]
pub(crate) fn decode_coefficients(
    c: &mut BitCursor<'_>,
    mut put: impl FnMut(usize, i32),
) -> Result<(), ReadBitsError> {
    let mut pos = 0usize;
    loop {
        c.top_up();
        let entry = PAIRS[c.peek(PAIR_BITS)];
        // A 64-bit shift takes its count modulo 64, so with bits 6..10
        // clear this mask is free on the way to `consume`'s shift.
        let len = entry & 0x3f;
        let first = pos + (entry >> 10 & 0x3f) as usize;
        let second = first + (entry >> 22 & 0x1f) as usize;
        // `len - 1 < valid`: the entry holds a pair (len > 0) and all of
        // it is inside the window. A run past the block's end is an error,
        // diagnosed by the two-code path after the run code only.
        if len.wrapping_sub(1) < c.valid() && second < BLOCK_LEN {
            c.consume(len);
            // Second coefficient first: without a second pair `second` is
            // `first`, and the first level overwrites the stand-in.
            put(ZIGZAG[second], entry as i32 >> 27);
            put(ZIGZAG[first], (entry as i32) << 10 >> 26);
            pos = second;
        } else {
            let run = c.read_ue()?;
            if run >= BLOCK_LEN as u64 {
                return Ok(()); // EOB
            }
            pos += run as usize;
            if pos >= BLOCK_LEN {
                // A run that lands past the end without the EOB marker is
                // malformed input.
                return Err(ReadBitsError);
            }
            let level = c.read_se()?;
            if level.unsigned_abs() > MAX_LEVEL as u64 {
                return Err(ReadBitsError);
            }
            put(ZIGZAG[pos], level as i32);
        }
        pos += 1;
        if pos >= BLOCK_LEN {
            // Block is full; the EOB marker must follow.
            return if c.read_ue()? < BLOCK_LEN as u64 {
                Err(ReadBitsError)
            } else {
                Ok(())
            };
        }
    }
}

/// Reads one quantized 8x8 block written by [`encode_block`] into `levels`,
/// overwriting every entry, and leaves `r` just past it.
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
    let mut c = BitCursor::from_reader(r);
    let out = decode_coefficients(&mut c, |zz, level| levels[zz] = level);
    c.sync(r);
    out
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

    /// The next (run, level) pair through the reader's own two-code reads,
    /// if both codes end within the first `PAIR_BITS` bits.
    fn pair_by_codes(r: &mut BitReader<'_>) -> Option<(u32, i32)> {
        let run = r.read_ue().ok()?;
        let level = r.read_se().ok()?;
        (r.bits_read() <= PAIR_BITS as usize).then_some((run as u32, level as i32))
    }

    /// Every one of the 4096 indices against the two-code decode of the
    /// same bits: the pairs, their lengths and the clear bits 6..10.
    #[test]
    fn pair_table_matches_the_two_code_decode_at_every_index() {
        let mut pairs = [0usize; 3];
        for (index, &entry) in PAIRS.iter().enumerate() {
            // The index's 12 bits, zero padding behind them.
            let bytes = [(index >> 4) as u8, (index << 4) as u8];
            let mut r = BitReader::new(&bytes);
            let want = pair_by_codes(&mut r).map(|first| {
                let len = r.bits_read() as u32;
                match pair_by_codes(&mut r) {
                    Some(second) => (first, Some(second), r.bits_read() as u32),
                    None => (first, None, len),
                }
            });
            let got = (entry & 0x3f != 0).then(|| {
                let first = (entry >> 10 & 0x3f, (entry as i32) << 10 >> 26);
                let gap = entry >> 22 & 0x1f;
                let second = gap.checked_sub(1).map(|run| (run, entry as i32 >> 27));
                (first, second, entry & 0x3f)
            });
            assert_eq!(got, want, "index {index:#05x}, entry {entry:#010x}");
            assert_eq!(entry & 0x3c0, 0, "index {index:#05x}: bits 6..10 set");
            if got.is_none() {
                assert_eq!(entry, 0, "index {index:#05x}: fields without a pair");
            }
            pairs[got.map_or(0, |(_, second, _)| 1 + second.is_some() as usize)] += 1;
        }
        // Every kind of entry occurs: none, one pair, two pairs.
        assert!(pairs.iter().all(|&n| n > 0), "{pairs:?}");
    }
}
