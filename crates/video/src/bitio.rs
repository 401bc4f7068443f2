//! Bit-level reader and writer used by the entropy coder.
//!
//! Bits are packed MSB-first into bytes, the convention used by H.26x
//! bitstreams. The writer produces a `Vec<u8>`; the reader consumes a byte
//! slice. Exp-Golomb helpers live here because both the encoder and decoder
//! need them for header fields, motion vectors, and coefficient levels.

/// Error returned when a [`BitReader`] runs out of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadBitsError;

impl std::fmt::Display for ReadBitsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitstream exhausted")
    }
}

impl std::error::Error for ReadBitsError {}

/// MSB-first bit writer.
///
/// ```
/// use sieve_video::bitio::{BitReader, BitWriter};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_ue(17);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_ue().unwrap(), 17);
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    // At most 7 pending bits, right-aligned in `acc`.
    acc: u64,
    nbits: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer that reuses `buf`'s allocation (the buffer is
    /// cleared first). Pairs with [`BitWriter::finish`] so the encoder can
    /// recycle one payload `Vec` across frames.
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self {
            buf,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_bits(&mut self, value: u64, count: u8) {
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

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Writes an unsigned Exp-Golomb code (as in H.264 `ue(v)`).
    pub fn write_ue(&mut self, value: u64) {
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

    /// Writes a signed Exp-Golomb code (as in H.264 `se(v)`).
    pub fn write_se(&mut self, value: i64) {
        let mapped = if value > 0 {
            (value as u64) * 2 - 1
        } else {
            (-value as u64) * 2
        };
        self.write_ue(mapped);
    }

    /// Number of complete bytes plus any partial byte currently buffered.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Pads with zero bits to a byte boundary and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push((self.acc as u8) << (8 - self.nbits));
        }
        self.buf
    }
}

/// Stream bits a [`BitReader`] window always holds: the load is 8 bytes and
/// the read position sits at most 7 bits into the first of them.
pub(crate) const WINDOW_BITS: u32 = 57;

/// Decodes the Exp-Golomb code at the top of `window`, of which only the
/// top `valid` bits are stream bits (the rest must be zero). Returns the
/// value and the code's length in bits, or `None` if the code does not end
/// inside the valid bits — the caller then takes the byte-wise path, which
/// is also the only place truncation and overlong codes are diagnosed.
#[inline]
pub(crate) fn ue_in_window(window: u64, valid: u32) -> Option<(u64, u32)> {
    // `zeros` leading zeros, the terminating 1, then `zeros` suffix bits.
    // The sentinel bit spares the zero case of `leading_zeros`; a window
    // that needs it reads as a 127-bit code and fails the length test.
    let len = 2 * (window | 1).leading_zeros() + 1;
    (len <= valid).then(|| ((window >> (64 - len)) - 1, len))
}

/// Maps an unsigned Exp-Golomb value to its signed (`se(v)`) meaning.
#[inline]
pub(crate) fn se_from_ue(v: u64) -> i64 {
    if v % 2 == 1 {
        v.div_ceil(2) as i64
    } else {
        -((v / 2) as i64)
    }
}

/// MSB-first bit reader over a byte slice.
///
/// Every multi-bit read is served from one 8-byte big-endian load at the
/// current byte, shifted left by the bit offset: at least 57
/// (`WINDOW_BITS`) real stream bits, MSB-aligned, zero below (a single
/// bit is one checked byte load and needs no fallback). A field that fits the window can
/// neither be truncated (all 8 bytes exist) nor overlong, so the fast path
/// has no error exits; anything else — the last 8 bytes of the stream, a
/// field longer than the window — goes through the byte-wise scan, which
/// checks every step.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Number of bits consumed so far.
    pub fn bits_read(&self) -> usize {
        self.pos
    }

    /// The next [`WINDOW_BITS`] (or more) stream bits, MSB-aligned and
    /// zero-filled below; `None` within 8 bytes of the end of the stream.
    #[inline]
    pub(crate) fn window(&self) -> Option<u64> {
        let byte = self.pos / 8;
        let bytes: [u8; 8] = self.data.get(byte..byte + 8)?.try_into().ok()?;
        Some(u64::from_be_bytes(bytes) << (self.pos % 8))
    }

    /// Consumes `bits` bits the caller decoded from [`BitReader::window`].
    #[inline]
    pub(crate) fn skip(&mut self, bits: u32) {
        self.pos += bits as usize;
    }

    /// Reads `count` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] if fewer than `count` bits remain.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u64, ReadBitsError> {
        if (1..=WINDOW_BITS).contains(&(count as u32)) {
            if let Some(window) = self.window() {
                self.pos += count as usize;
                return Ok(window >> (64 - count as u32));
            }
        }
        self.read_bits_bytewise(count)
    }

    /// [`BitReader::read_bits`] in byte-sized chunks: the partial head byte,
    /// then whole bytes, then whatever remains.
    fn read_bits_bytewise(&mut self, count: u8) -> Result<u64, ReadBitsError> {
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

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, ReadBitsError> {
        let byte = *self.data.get(self.pos / 8).ok_or(ReadBitsError)?;
        let bit = byte & (0x80 >> (self.pos % 8)) != 0;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads an unsigned Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] on truncated input.
    #[inline]
    pub fn read_ue(&mut self) -> Result<u64, ReadBitsError> {
        if let Some((value, len)) = self.window().and_then(|w| ue_in_window(w, WINDOW_BITS)) {
            self.pos += len as usize;
            return Ok(value);
        }
        self.read_ue_bytewise()
    }

    /// [`BitReader::read_ue`] scanning for the terminating 1 bit a byte at
    /// a time: shift out the consumed bits of the current byte and count
    /// leading zeros in what remains.
    fn read_ue_bytewise(&mut self) -> Result<u64, ReadBitsError> {
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
        self.pos += 1; // the 1 bit itself
        let zeros = zeros as u8;
        let rest = if zeros == 0 {
            0
        } else {
            self.read_bits_bytewise(zeros)?
        };
        // (1 << zeros) + rest - 1 never underflows: the leading 1 bit
        // guarantees the sum is at least 1.
        Ok((1u64 << zeros) + rest - 1)
    }

    /// Reads a signed Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] on truncated input.
    #[inline]
    pub fn read_se(&mut self) -> Result<i64, ReadBitsError> {
        self.read_ue().map(se_from_ue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1101, 4);
        w.write_bit(true);
        w.write_bits(0xABCD, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1101);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
    }

    #[test]
    fn ue_known_values() {
        // Classic Exp-Golomb table: 0 -> "1", 1 -> "010", 2 -> "011".
        let mut w = BitWriter::new();
        w.write_ue(0);
        w.write_ue(1);
        w.write_ue(2);
        let bytes = w.finish();
        // 1 010 011 padded -> 1010_0110
        assert_eq!(bytes, vec![0b1010_0110]);
    }

    #[test]
    fn ue_roundtrip_many() {
        let mut w = BitWriter::new();
        let values: Vec<u64> = (0..200).chain([1 << 20, (1 << 33) + 7]).collect();
        for &v in &values {
            w.write_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_ue().unwrap(), v);
        }
    }

    #[test]
    fn se_roundtrip() {
        let mut w = BitWriter::new();
        let values: Vec<i64> = (-40..=40).chain([-100_000, 100_000]).collect();
        for &v in &values {
            w.write_se(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_se().unwrap(), v);
        }
    }

    #[test]
    fn reader_errors_at_end() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0, 8);
        assert_eq!(w.bit_len(), 11);
        assert_eq!(w.finish().len(), 2);
    }
}
