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
