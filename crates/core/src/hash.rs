//! A small FxHash-style hasher for the prefix-tree child lookup.
//!
//! The encoder performs one hash-map probe per column index:value pair
//! (§3.1.2 is `O(|B|)` only if each probe is O(1) and cheap). The std
//! `SipHash` is a poor fit for short fixed-size keys, so we ship the
//! well-known Fx multiply-rotate hash (as used by rustc) in ~30 lines
//! instead of pulling an external crate.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; not HashDoS-resistant, which is acceptable for
/// compression dictionaries built from trusted in-process data.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Map key for an `f64` bit pattern under the Fx multiply hash. The low
/// bits of that hash — the ones a `HashMap` picks its bucket from — see
/// only the low bits of the key, and round doubles (small integers,
/// quarters) are all zero there: keyed raw, a column of distinct integers
/// would pile into one bucket. Folding the well-mixed high half of a
/// product down first spreads them. Each step is invertible, so distinct
/// bit patterns stay distinct keys and every count taken over the map is
/// the count over the raw bits.
#[inline]
pub fn value_key(bits: u64) -> u64 {
    let k = (bits ^ (bits >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    k ^ (k >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32, u64), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 2, (i as u64) << 32), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m[&(i, i * 2, (i as u64) << 32)], i);
        }
        assert_eq!(m.get(&(1, 1, 1)), None);
    }

    #[test]
    fn hasher_distinguishes_field_order() {
        fn h(a: u32, b: u32) -> u64 {
            let mut hs = FxHasher::default();
            hs.write_u32(a);
            hs.write_u32(b);
            hs.finish()
        }
        assert_ne!(h(1, 2), h(2, 1));
    }

    #[test]
    fn write_bytes_handles_remainder() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Different lengths that zero-pad to the same word may collide, but
        // the hasher must at least be deterministic.
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        assert_eq!(a.finish(), c.finish());
        let _ = b.finish();
    }
}
