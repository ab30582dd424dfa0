//! LSB-first bit stream reader/writer used by the deflate-like codec.
//!
//! The reader keeps up to 64 bits buffered and refills with a single
//! 8-byte little-endian word load whenever at least 8 input bytes remain
//! (the byte-at-a-time loop survives only as the stream-tail cold path).
//! On top of the buffered word it exposes a `peek_bits`/`consume` pair so
//! table-driven decoders can look at the next N bits *without* committing
//! to a symbol length, which is what makes the one-lookup Huffman fast
//! path in [`crate::huffman::Decoder`] possible.

use crate::GcError;

/// LSB-first bit writer (DEFLATE bit order).
#[derive(Default)]
pub struct BitWriter {
    out: Vec<u8>,
    bitbuf: u64,
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `n` bits of `bits` (n <= 32).
    #[inline]
    pub fn write_bits(&mut self, bits: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || bits < (1u32 << n));
        self.bitbuf |= (bits as u64) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.bitbuf & 0xFF) as u8);
            self.bitbuf >>= 8;
            self.nbits -= 8;
        }
    }

    /// Flush any partial byte (zero-padded) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.bitbuf & 0xFF) as u8);
        }
        self.out
    }

    /// Bytes written so far (excluding the partial byte).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    pub fn is_empty(&self) -> bool {
        self.out.is_empty() && self.nbits == 0
    }
}

/// LSB-first bit reader.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bitbuf: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        if self.nbits <= 56 {
            if let Some(word) = self.bytes.get(self.pos..self.pos + 8) {
                // Fast path: one 64-bit load; accept as many whole bytes as
                // fit above the bits already buffered. `take * 8` never
                // exceeds `64 - nbits`, so the shift drops nothing we keep.
                let w = u64::from_le_bytes(word.try_into().unwrap());
                let take = ((64 - self.nbits) / 8) as usize;
                self.bitbuf |= w << self.nbits;
                self.pos += take;
                self.nbits += take as u32 * 8;
                return;
            }
        }
        self.refill_tail();
    }

    /// Byte-at-a-time refill for the last < 8 bytes of the stream.
    #[cold]
    fn refill_tail(&mut self) {
        while self.nbits <= 56 && self.pos < self.bytes.len() {
            self.bitbuf |= (self.bytes[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n` bits (n <= 32). Errors on exhausted input.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32, GcError> {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(GcError::Corrupt("bit stream exhausted"));
            }
        }
        let mask = if n == 32 { u64::MAX } else { (1u64 << n) - 1 };
        let v = (self.bitbuf & mask) as u32;
        self.bitbuf >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, GcError> {
        self.read_bits(1)
    }

    /// Look at the next `n` bits (n <= 32) without consuming them. Near the
    /// end of the stream fewer bits may remain; missing high bits read as
    /// zero (callers pair this with [`Self::consume`], which still enforces
    /// availability when a symbol length is committed).
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
        }
        let mask = if n == 32 { u64::MAX } else { (1u64 << n) - 1 };
        (self.bitbuf & mask) as u32
    }

    /// Consume `n` bits previously seen via [`Self::peek_bits`].
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), GcError> {
        if self.nbits < n {
            return Err(GcError::Corrupt("bit stream exhausted"));
        }
        self.bitbuf >>= n;
        self.nbits -= n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let vals = [
            (1u32, 1u32),
            (0, 1),
            (5, 3),
            (255, 8),
            (1023, 10),
            (0xFFFF_FFFF, 32),
            (7, 5),
        ];
        for &(v, n) in &vals {
            w.write_bits(v, n);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &(v, n) in &vals {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    #[test]
    fn exhausted_reader_errors() {
        let buf = [0xABu8];
        let mut r = BitReader::new(&buf);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn lsb_first_order() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b0, 1);
        w.write_bits(0b11, 2);
        let buf = w.finish();
        assert_eq!(buf, vec![0b0000_1101]);
    }
}
