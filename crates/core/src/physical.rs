//! Physical encoding primitives (§3.2): bit packing of small non-negative
//! integers and the raw `f64` value array used by value indexing.
//!
//! Bit packing stores each integer of an array in
//! `ceil((floor(log2 max) + 1) / 8)` bytes (1, 2, 3 or 4), with a header
//! carrying the element count and the byte width, exactly as described in
//! the paper. Readers access elements in place (§4.1.1): a 3-byte integer is
//! widened into a `u32` with the leading byte masked to zero.

use crate::error::{corrupt, TocError};

/// Byte width needed to bit-pack integers up to `max` (paper's formula;
/// an empty array / `max == 0` packs with width 1).
#[inline]
pub fn width_for(max: u32) -> u8 {
    match max {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFF_FFFF => 3,
        _ => 4,
    }
}

/// Append a little-endian `u32`.
#[inline]
pub fn write_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Write a bit-packed integer array: `u32` count, `u8` width, payload.
pub fn write_packed_ints(buf: &mut Vec<u8>, vals: &[u32]) {
    let max = vals.iter().copied().max().unwrap_or(0);
    let w = width_for(max);
    write_u32(
        buf,
        u32::try_from(vals.len()).expect("array too large for u32 count"),
    );
    buf.push(w);
    buf.reserve(vals.len() * w as usize);
    match w {
        1 => {
            for &v in vals {
                buf.push(v as u8);
            }
        }
        2 => {
            for &v in vals {
                buf.extend_from_slice(&(v as u16).to_le_bytes());
            }
        }
        3 => {
            for &v in vals {
                buf.extend_from_slice(&v.to_le_bytes()[..3]);
            }
        }
        _ => {
            for &v in vals {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Write an integer array with LEB128 varints: `u32` count, `u8` marker 0,
/// `u32` payload byte length, payload. This is the optional Varint physical
/// codec the paper lists as future work (§3.2).
pub fn write_varint_ints(buf: &mut Vec<u8>, vals: &[u32]) {
    write_u32(
        buf,
        u32::try_from(vals.len()).expect("array too large for u32 count"),
    );
    buf.push(0); // width marker 0 = varint
    let len_pos = buf.len();
    write_u32(buf, 0); // payload length back-patched below
    for &v in vals {
        let mut x = v;
        loop {
            let byte = (x & 0x7F) as u8;
            x >>= 7;
            if x == 0 {
                buf.push(byte);
                break;
            }
            buf.push(byte | 0x80);
        }
    }
    let payload = (buf.len() - len_pos - 4) as u32;
    buf[len_pos..len_pos + 4].copy_from_slice(&payload.to_le_bytes());
}

/// Write the unique-value array: `u32` count then `count` little-endian f64s.
pub fn write_f64s(buf: &mut Vec<u8>, vals: &[f64]) {
    write_u32(buf, u32::try_from(vals.len()).expect("too many values"));
    for &v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Sequential reader over a physical buffer with bounds-checked primitives.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub fn read_u8(&mut self) -> Result<u8, TocError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| corrupt("unexpected end of buffer"))?;
        self.pos += 1;
        Ok(b)
    }

    pub fn read_u16(&mut self) -> Result<u16, TocError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes(s.try_into().unwrap()))
    }

    pub fn read_u32(&mut self) -> Result<u32, TocError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TocError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a packed or varint integer array written by
    /// [`write_packed_ints`] / [`write_varint_ints`].
    pub fn read_ints(&mut self) -> Result<IntSlice<'a>, TocError> {
        let count = self.read_u32()? as usize;
        let width = self.read_u8()?;
        match width {
            1..=4 => {
                let payload = self.take(count * width as usize)?;
                Ok(match width {
                    1 => IntSlice::W1(payload),
                    2 => IntSlice::W2(payload),
                    3 => IntSlice::W3(payload),
                    _ => IntSlice::W4(payload),
                })
            }
            0 => {
                let payload_len = self.read_u32()? as usize;
                let payload = self.take(payload_len)?;
                // A varint is at least one byte: a count the payload
                // cannot back is rejected before it is allocated for.
                if count > payload_len {
                    return Err(corrupt("varint count exceeds payload"));
                }
                let mut out = Vec::with_capacity(count);
                let mut pos = 0usize;
                for _ in 0..count {
                    let mut x: u32 = 0;
                    let mut shift = 0u32;
                    loop {
                        let byte = *payload
                            .get(pos)
                            .ok_or_else(|| corrupt("truncated varint"))?;
                        pos += 1;
                        if shift >= 32 {
                            return Err(corrupt("varint overflows u32"));
                        }
                        x |= ((byte & 0x7F) as u32) << shift;
                        if byte & 0x80 == 0 {
                            break;
                        }
                        shift += 7;
                    }
                    out.push(x);
                }
                if pos != payload.len() {
                    return Err(corrupt("trailing bytes in varint payload"));
                }
                Ok(IntSlice::Owned(out))
            }
            w => Err(corrupt(format!("invalid int width {w}"))),
        }
    }

    /// Read an f64 array written by [`write_f64s`].
    pub fn read_f64s(&mut self) -> Result<F64Slice<'a>, TocError> {
        let count = self.read_u32()? as usize;
        let payload = self.take(count * 8)?;
        Ok(F64Slice { bytes: payload })
    }
}

/// A read-only view over a (possibly bit-packed) integer array.
#[derive(Clone, Debug)]
pub enum IntSlice<'a> {
    W1(&'a [u8]),
    W2(&'a [u8]),
    W3(&'a [u8]),
    W4(&'a [u8]),
    /// Decoded varint payload (the varint codec has no random access).
    Owned(Vec<u32>),
}

impl IntSlice<'_> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            IntSlice::W1(b) => b.len(),
            IntSlice::W2(b) => b.len() / 2,
            IntSlice::W3(b) => b.len() / 3,
            IntSlice::W4(b) => b.len() / 4,
            IntSlice::Owned(v) => v.len(),
        }
    }

    /// True if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element access (§4.1.1: seek to the element, widen to u32).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            IntSlice::W1(b) => b[i] as u32,
            IntSlice::W2(b) => u16::from_le_bytes([b[2 * i], b[2 * i + 1]]) as u32,
            IntSlice::W3(b) => u32::from_le_bytes([b[3 * i], b[3 * i + 1], b[3 * i + 2], 0]),
            IntSlice::W4(b) => {
                u32::from_le_bytes([b[4 * i], b[4 * i + 1], b[4 * i + 2], b[4 * i + 3]])
            }
            IntSlice::Owned(v) => v[i],
        }
    }

    /// Iterate all elements in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Visit elements `start..end` with one width dispatch for the whole
    /// range (the hot-loop accessor used by the compressed kernels —
    /// per-element `get` would pay the enum match on every code).
    #[inline]
    pub fn for_each_range(&self, start: usize, end: usize, mut f: impl FnMut(u32)) {
        match self {
            IntSlice::W1(b) => {
                for &x in &b[start..end] {
                    f(x as u32);
                }
            }
            IntSlice::W2(b) => {
                for ch in b[2 * start..2 * end].chunks_exact(2) {
                    f(u16::from_le_bytes([ch[0], ch[1]]) as u32);
                }
            }
            IntSlice::W3(b) => {
                for ch in b[3 * start..3 * end].chunks_exact(3) {
                    f(u32::from_le_bytes([ch[0], ch[1], ch[2], 0]));
                }
            }
            IntSlice::W4(b) => {
                for ch in b[4 * start..4 * end].chunks_exact(4) {
                    f(u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]));
                }
            }
            IntSlice::Owned(v) => {
                for &x in &v[start..end] {
                    f(x);
                }
            }
        }
    }

    /// Append elements `start..end` to `out` (bulk decode for row scans).
    #[inline]
    pub fn extend_into(&self, start: usize, end: usize, out: &mut Vec<u32>) {
        out.reserve(end - start);
        self.for_each_range(start, end, |x| out.push(x));
    }
}

/// A read-only view over a little-endian `f64` array.
#[derive(Clone, Debug)]
pub struct F64Slice<'a> {
    bytes: &'a [u8],
}

impl F64Slice<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.bytes[8 * i..8 * i + 8].try_into().unwrap())
    }

    /// Decode the whole array (used by `scale`, which rewrites it).
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_formula_matches_paper() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(4), 1);
        assert_eq!(width_for(255), 1);
        assert_eq!(width_for(256), 2);
        assert_eq!(width_for(65535), 2);
        assert_eq!(width_for(65536), 3);
        assert_eq!(width_for(0xFF_FFFF), 3);
        assert_eq!(width_for(0x100_0000), 4);
        assert_eq!(width_for(u32::MAX), 4);
    }

    fn roundtrip_packed(vals: &[u32]) {
        let mut buf = Vec::new();
        write_packed_ints(&mut buf, vals);
        let mut cur = Cursor::new(&buf);
        let s = cur.read_ints().unwrap();
        assert_eq!(s.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(s.get(i), v, "index {i}");
        }
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn packed_roundtrips_all_widths() {
        roundtrip_packed(&[]);
        roundtrip_packed(&[0, 1, 2, 255]);
        roundtrip_packed(&[256, 65535, 7]);
        roundtrip_packed(&[65536, 123, 0xFF_FFFF]);
        roundtrip_packed(&[0x100_0000, u32::MAX, 5]);
    }

    #[test]
    fn packed_width_is_minimal() {
        let mut buf = Vec::new();
        write_packed_ints(&mut buf, &[1, 2, 3, 4]);
        // 4 count + 1 width + 4 payload
        assert_eq!(buf.len(), 9);
    }

    fn roundtrip_varint(vals: &[u32]) {
        let mut buf = Vec::new();
        write_varint_ints(&mut buf, vals);
        let mut cur = Cursor::new(&buf);
        let s = cur.read_ints().unwrap();
        assert_eq!(s.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(s.get(i), v);
        }
    }

    #[test]
    fn varint_roundtrips() {
        roundtrip_varint(&[]);
        roundtrip_varint(&[0, 1, 127, 128, 16383, 16384, u32::MAX]);
    }

    #[test]
    fn varint_is_smaller_for_tiny_values() {
        let vals: Vec<u32> = (0..100).map(|i| i % 100).collect();
        let mut p = Vec::new();
        write_packed_ints(&mut p, &vals);
        let mut v = Vec::new();
        write_varint_ints(&mut v, &vals);
        // Same here (both 1 byte/elem), but varint must not explode.
        assert!(v.len() <= p.len() + 8);
    }

    #[test]
    fn f64s_roundtrip_bit_exact() {
        let vals = [1.5, -0.0, f64::NAN, f64::INFINITY, 3.14e-300];
        let mut buf = Vec::new();
        write_f64s(&mut buf, &vals);
        let mut cur = Cursor::new(&buf);
        let s = cur.read_f64s().unwrap();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(s.get(i).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let mut buf = Vec::new();
        write_packed_ints(&mut buf, &[1, 2, 3]);
        buf.truncate(buf.len() - 1);
        let mut cur = Cursor::new(&buf);
        assert!(cur.read_ints().is_err());
    }

    #[test]
    fn invalid_width_is_an_error() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 1);
        buf.push(9); // bogus width
        buf.push(0);
        assert!(Cursor::new(&buf).read_ints().is_err());
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let mut buf = Vec::new();
        write_varint_ints(&mut buf, &[u32::MAX]);
        // chop payload but keep declared lengths inconsistent
        let declared = buf.len();
        buf.truncate(declared - 2);
        assert!(Cursor::new(&buf).read_ints().is_err());
    }
}
