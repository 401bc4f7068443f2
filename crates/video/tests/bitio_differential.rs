//! Differential test of the window [`BitReader`] against the byte-chunked
//! reader it replaced.
//!
//! [`OracleReader`] is that reader, verbatim: `read_bits` consuming the
//! partial head byte, whole bytes and the tail in a loop, `read_ue`
//! scanning for the terminating 1 a byte at a time, `read_bit` as
//! `read_bits(1)`. The window reader must be indistinguishable from it:
//! over arbitrary bytes and arbitrary operation sequences, and at every
//! truncation point of valid streams, each operation returns the same `Ok`
//! value or fails at the same operation, and leaves the same bit position
//! behind — including after a failure, so a truncation or an overlong code
//! is reported exactly where it used to be.
//!
//! The last property holds `entropy::decode_block` — which cuts several
//! (run, level) pairs from one window load — to the plain loop over
//! `read_ue` / `read_se` it replaced.
//!
//! The writing side is held the same way. [`OracleWriter`] is the writer
//! the 32-bit-flushing [`BitWriter`] replaced, verbatim: at most 7 pending
//! bits, whole bytes pushed one at a time. [`encode_block_plain`] is the
//! 64-step zigzag loop the bitmask walk in `entropy::encode_block`
//! replaced, writing through it. Over arbitrary operation sequences
//! `bit_len` must agree after every operation and `finish` must return the
//! same bytes; over arbitrary level blocks the coded bytes must agree.

use proptest::prelude::*;
use sieve_video::bitio::{BitReader, BitWriter, ReadBitsError};
use sieve_video::entropy::{self, MAX_LEVEL, ZIGZAG};

/// The byte-chunked reader, kept as the reference.
struct OracleReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> OracleReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn bits_read(&self) -> usize {
        self.pos
    }

    fn read_bits(&mut self, count: u8) -> Result<u64, ReadBitsError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if self.pos + count as usize > self.data.len() * 8 {
            return Err(ReadBitsError);
        }
        let mut out = 0u64;
        let mut remaining = count as usize;
        while remaining > 0 {
            let byte = self.data[self.pos / 8];
            let off = self.pos % 8;
            let avail = 8 - off;
            let take = avail.min(remaining);
            let bits = (byte >> (avail - take)) & (((1u16 << take) - 1) as u8);
            out = (out << take) | bits as u64;
            self.pos += take;
            remaining -= take;
        }
        Ok(out)
    }

    fn read_bit(&mut self) -> Result<bool, ReadBitsError> {
        Ok(self.read_bits(1)? == 1)
    }

    fn read_ue(&mut self) -> Result<u64, ReadBitsError> {
        let total = self.data.len() * 8;
        let mut zeros = 0u64;
        loop {
            if self.pos >= total || zeros > 63 {
                return Err(ReadBitsError);
            }
            let off = self.pos % 8;
            let avail = (8 - off) as u32;
            let window = self.data[self.pos / 8] << off;
            let lz = window.leading_zeros().min(avail);
            zeros += lz as u64;
            self.pos += lz as usize;
            if lz < avail {
                break;
            }
        }
        if zeros > 63 {
            return Err(ReadBitsError);
        }
        self.pos += 1;
        let zeros = zeros as u8;
        let rest = if zeros == 0 {
            0
        } else {
            self.read_bits(zeros)?
        };
        Ok((1u64 << zeros) + rest - 1)
    }

    fn read_se(&mut self) -> Result<i64, ReadBitsError> {
        let v = self.read_ue()?;
        if v % 2 == 1 {
            Ok(v.div_ceil(2) as i64)
        } else {
            Ok(-((v / 2) as i64))
        }
    }
}

/// The byte-at-a-time writer, kept as the reference.
#[derive(Default)]
struct OracleWriter {
    buf: Vec<u8>,
    // At most 7 pending bits, right-aligned in `acc`.
    acc: u64,
    nbits: u8,
}

impl OracleWriter {
    fn write_bits(&mut self, value: u64, count: u8) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count > 32 {
            self.write_bits(value >> 32, count - 32);
            self.write_bits(value & 0xFFFF_FFFF, 32);
            return;
        }
        if count == 0 {
            return;
        }
        // count <= 32 and nbits <= 7, so everything fits in the u64
        // accumulator; drain whole bytes, keep the tail for the next call.
        let mut acc = (self.acc << count) | (value & ((1u64 << count) - 1));
        let mut n = self.nbits + count;
        while n >= 8 {
            n -= 8;
            self.buf.push((acc >> n) as u8);
        }
        acc &= (1u64 << n) - 1;
        self.acc = acc;
        self.nbits = n;
    }

    fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    fn write_ue(&mut self, value: u64) {
        let v = value + 1;
        let nbits = 64 - v.leading_zeros() as u8;
        if nbits <= 32 {
            // One call writes the `nbits - 1` leading zeros and the value:
            // the zeros are the high bits of the widened field.
            self.write_bits(v, 2 * nbits - 1);
        } else {
            self.write_bits(0, nbits - 1);
            self.write_bits(v, nbits);
        }
    }

    fn write_se(&mut self, value: i64) {
        let mapped = if value > 0 {
            (value as u64) * 2 - 1
        } else {
            (-value as u64) * 2
        };
        self.write_ue(mapped);
    }

    fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push((self.acc as u8) << (8 - self.nbits));
        }
        self.buf
    }
}

/// `entropy::encode_block` as it was written before the bitmask walk: one
/// step per zigzag position, one `write_ue` and one `write_se` per pair.
fn encode_block_plain(levels: &[i32; 64], w: &mut OracleWriter) {
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
    w.write_ue(64);
}

/// `encode_block` through both writers, from `offset` bits into the
/// stream: the same bytes.
fn assert_block_codes_identically(levels: &[i32; 64], offset: u8) -> Result<(), String> {
    let mut new = BitWriter::new();
    let mut old = OracleWriter::default();
    new.write_bits(0x5a5a_5a5a, offset);
    old.write_bits(0x5a5a_5a5a, offset);
    entropy::encode_block(levels, &mut new);
    encode_block_plain(levels, &mut old);
    if new.bit_len() != old.bit_len() {
        return Err(format!(
            "bit_len {} against {}",
            new.bit_len(),
            old.bit_len()
        ));
    }
    let (got, want) = (new.finish(), old.finish());
    if got != want {
        return Err(format!("{levels:?} from bit {offset}: bytes differ"));
    }
    Ok(())
}

/// One reader operation: `kind % 4` picks it, `arg % 65` is `read_bits`'
/// count.
type Op = (u8, u8);

/// Applies `ops` to both readers over `data`, comparing each result (the
/// `Ok` value widened to `i128`, or the error) and the position after it.
fn assert_indistinguishable(data: &[u8], ops: &[Op]) -> Result<(), String> {
    let mut new = BitReader::new(data);
    let mut old = OracleReader::new(data);
    for (i, &(kind, arg)) in ops.iter().enumerate() {
        let (got, want, what) = match kind % 4 {
            0 => (
                new.read_bit().map(i128::from),
                old.read_bit().map(i128::from),
                "read_bit".to_string(),
            ),
            1 => {
                let n = arg % 65;
                (
                    new.read_bits(n).map(i128::from),
                    old.read_bits(n).map(i128::from),
                    format!("read_bits({n})"),
                )
            }
            2 => (
                new.read_ue().map(i128::from),
                old.read_ue().map(i128::from),
                "read_ue".to_string(),
            ),
            _ => (
                new.read_se().map(i128::from),
                old.read_se().map(i128::from),
                "read_se".to_string(),
            ),
        };
        if got != want || new.bits_read() != old.bits_read() {
            return Err(format!(
                "op {i} {what} over {} bytes: got {got:?} at bit {}, oracle {want:?} at bit {}",
                data.len(),
                new.bits_read(),
                old.bits_read()
            ));
        }
    }
    Ok(())
}

/// Writes what `ops` would read — the values drawn from `values` — so the
/// stream is valid for exactly that operation sequence. Magnitudes span a
/// one-bit code to one longer than the reader's window.
fn valid_stream(ops: &[Op], values: &[u64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    for (&(kind, arg), &raw) in ops.iter().zip(values.iter().cycle()) {
        // Keep `shift` low bits: codes of every length class, short ones
        // most often, like a real stream.
        let shift = [2, 3, 3, 5, 8, 12, 20, 27, 28, 29, 33, 40][raw as usize % 12];
        let v = raw >> 8 & ((1u64 << shift) - 1);
        match kind % 4 {
            0 => w.write_bit(v & 1 == 1),
            1 => {
                let n = arg % 65;
                w.write_bits(
                    if n == 64 {
                        raw
                    } else {
                        raw & ((1u64 << n) - 1)
                    },
                    n,
                );
            }
            2 => w.write_ue(v),
            _ => w.write_se(if raw & 0x80 == 0 {
                v as i64
            } else {
                -(v as i64)
            }),
        }
    }
    w.finish()
}

/// `entropy::decode_block` as it was written before the fused parse: one
/// reader call per code (plus the level cap).
fn decode_block_plain(r: &mut OracleReader<'_>) -> Result<[i32; 64], ReadBitsError> {
    let mut levels = [0i32; 64];
    let mut pos = 0usize;
    loop {
        let run = r.read_ue()? as usize;
        if run >= 64 {
            return Ok(levels);
        }
        pos += run;
        if pos >= 64 {
            return Err(ReadBitsError);
        }
        let level = r.read_se()?;
        if level.unsigned_abs() > MAX_LEVEL as u64 {
            return Err(ReadBitsError);
        }
        levels[ZIGZAG[pos]] = level as i32;
        pos += 1;
        if pos >= 64 {
            return if (r.read_ue()? as usize) < 64 {
                Err(ReadBitsError)
            } else {
                Ok(levels)
            };
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Blocks back to back over arbitrary bytes (dense bytes are long
    /// blocks of small levels, sparse ones short blocks of long codes),
    /// from an arbitrary bit offset, until the first error: same levels,
    /// same error, same position throughout.
    #[test]
    fn fused_block_parse_matches_the_plain_loop(
        raw in proptest::collection::vec((0u8..=255, 0u8..=255), 0..96),
        sparse in 0u8..2,
        offset in 0u8..8,
    ) {
        let data: Vec<u8> = raw.iter().map(|&(a, b)| if sparse == 1 { a & b } else { a | b }).collect();
        let mut new = BitReader::new(&data);
        let mut old = OracleReader::new(&data);
        prop_assert_eq!(new.read_bits(offset).ok(), old.read_bits(offset).ok());
        loop {
            let mut levels = [i32::MIN; 64];
            let got = entropy::decode_block(&mut new, &mut levels).map(|()| levels);
            let want = decode_block_plain(&mut old);
            prop_assert_eq!(got, want);
            prop_assert_eq!(new.bits_read(), old.bits_read());
            if want.is_err() {
                break;
            }
        }
    }

    /// Arbitrary bytes: mostly garbage codes, of every length the stream
    /// density allows (the sparser the bytes, the longer the zero runs, up
    /// to the 64-zero overlong error), cut off by the end of the slice
    /// wherever it falls.
    #[test]
    fn arbitrary_bytes_and_ops_read_identically(
        raw in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..48),
        sparsity in 0u8..4,
        ops in proptest::collection::vec((0u8..4, 0u8..=255), 1..48),
    ) {
        let data: Vec<u8> = raw
            .iter()
            .map(|&(a, b, c)| match sparsity {
                0 => a,
                1 => a & b,
                2 => a & b & c,
                _ => a & b & c & (a >> 3),
            })
            .collect();
        if let Err(e) = assert_indistinguishable(&data, &ops) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Valid streams cut at every byte: the reader must fail at the same
    /// operation as the oracle wherever the stream ends — inside a prefix
    /// of zeros, inside a suffix, between fields, in the window path or in
    /// the last 8 bytes.
    #[test]
    fn every_truncation_of_a_valid_stream_reads_identically(
        ops in proptest::collection::vec((0u8..4, 0u8..=255), 1..40),
        values in proptest::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let stream = valid_stream(&ops, &values);
        for cut in 0..=stream.len() {
            if let Err(e) = assert_indistinguishable(&stream[..cut], &ops) {
                prop_assert!(false, "cut {}: {}", cut, e);
            }
        }
    }
}

/// The boundary the fast path is defined by: a code of exactly 57 bits
/// (28 zeros) is the longest one window holds; 59 bits (29 zeros) is the
/// first that takes the byte-wise scan. Both at every bit offset, with and
/// without 8 readable bytes behind them.
#[test]
fn codes_at_the_window_boundary_read_identically() {
    for zeros in [27u32, 28, 29, 31, 32, 56, 57, 62, 63] {
        for offset in 0..8u8 {
            for tail in [0usize, 1, 7, 8, 9] {
                let mut w = BitWriter::new();
                w.write_bits(0x2a, offset);
                let value = if zeros == 63 {
                    u64::MAX - 1
                } else {
                    (1u64 << zeros) - 1 + (0x5a5a_5a5a_5a5a_5a5a & ((1u64 << zeros) - 1))
                };
                w.write_ue(value);
                w.write_ue(3);
                let mut data = w.finish();
                data.extend(std::iter::repeat_n(0xa5, tail));
                let ops = [(1, offset), (2, 0), (2, 0), (3, 0), (0, 0)];
                for cut in 0..=data.len() {
                    assert_indistinguishable(&data[..cut], &ops)
                        .unwrap_or_else(|e| panic!("zeros {zeros} offset {offset} cut {cut}: {e}"));
                }
                if tail >= 8 {
                    let mut r = BitReader::new(&data);
                    r.read_bits(offset).expect("padding");
                    assert_eq!(r.read_ue(), Ok(value), "zeros {zeros} offset {offset}");
                    assert_eq!(r.read_ue(), Ok(3));
                }
            }
        }
    }
    // 64 zeros is overlong for both, wherever the stream ends.
    let zeros = [0u8; 24];
    assert_indistinguishable(&zeros, &[(2, 0), (2, 0), (3, 0)]).expect("all-zero stream");
}

/// A writer value: `raw`'s bits 8.. kept to one of 15 widths, so its
/// Exp-Golomb code is anything from 1 to 111 bits long.
fn sized(raw: u64) -> u64 {
    let shift = [0, 1, 2, 3, 5, 8, 12, 20, 27, 28, 31, 32, 33, 40, 55][raw as usize % 15];
    raw >> 8 & ((1u64 << shift) - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16384))]

    /// Arbitrary writer operations — `write_bits` of 0..=64 bits, single
    /// bits, Exp-Golomb codes from 1 to 111 bits long — through both
    /// writers: the same `bit_len` after every operation and the same
    /// bytes from `finish`.
    #[test]
    fn writer_ops_write_identically(
        ops in proptest::collection::vec((0u8..4, 0u8..=255, 0u64..u64::MAX), 0..80),
    ) {
        let mut new = BitWriter::new();
        let mut old = OracleWriter::default();
        for (i, &(kind, arg, raw)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    let n = arg % 65;
                    new.write_bits(raw, n);
                    old.write_bits(raw, n);
                }
                1 => {
                    new.write_bit(raw & 1 == 1);
                    old.write_bit(raw & 1 == 1);
                }
                2 => {
                    new.write_ue(sized(raw));
                    old.write_ue(sized(raw));
                }
                _ => {
                    let v = if arg & 1 == 0 { sized(raw) as i64 } else { -(sized(raw) as i64) };
                    new.write_se(v);
                    old.write_se(v);
                }
            }
            prop_assert_eq!(new.bit_len(), old.bit_len(), "after op {} of kind {}", i, kind);
        }
        prop_assert_eq!(new.finish(), old.finish());
    }

    /// Arbitrary level blocks, dense and sparse, with magnitudes up to
    /// [`MAX_LEVEL`] and past it, from every bit offset: the same bytes.
    #[test]
    fn block_codes_match_the_plain_loop(
        raw in proptest::collection::vec((0u8..=255, -(MAX_LEVEL + 9)..=MAX_LEVEL + 9), 64),
        density in 0u8..=255,
        small in 0u8..2,
        offset in 0u8..32,
    ) {
        let mut levels = [0i32; 64];
        for (l, &(keep, v)) in levels.iter_mut().zip(&raw) {
            if keep <= density {
                *l = if small == 1 { v % 40 } else { v };
            }
        }
        if let Err(e) = assert_block_codes_identically(&levels, offset) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The blocks at the edges of the pair writer: nothing coded, everything
/// coded, every run up to the longest, the largest levels, and the
/// extremes of `i32` that only a caller outside the codec can hand over.
#[test]
fn edge_blocks_code_identically() {
    let mut blocks: Vec<[i32; 64]> = vec![
        [0; 64],
        [1; 64],
        [-1; 64],
        [MAX_LEVEL; 64],
        [-MAX_LEVEL; 64],
    ];
    let mut last = [0; 64];
    last[ZIGZAG[63]] = -MAX_LEVEL;
    blocks.push(last);
    let mut first_and_last = last;
    first_and_last[0] = 7;
    blocks.push(first_and_last);
    for big in [MAX_LEVEL - 1, MAX_LEVEL + 1, 1 << 30, i32::MAX, i32::MIN] {
        let mut b = [0; 64];
        b[ZIGZAG[5]] = big;
        b[ZIGZAG[63]] = big.saturating_neg();
        blocks.push(b);
    }
    // Every run, each with levels either side of where a pair stops
    // fitting one 32-bit write.
    for (i, slot) in ZIGZAG.iter().enumerate() {
        for level in [1, 255, 256, 511, 512, 1023, 1024, MAX_LEVEL] {
            let mut b = [0; 64];
            b[*slot] = if i % 2 == 0 { level } else { -level };
            blocks.push(b);
        }
    }
    for levels in &blocks {
        for offset in 0..32 {
            assert_block_codes_identically(levels, offset).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
