//! A Snappy-class byte compressor: greedy LZ with a single-probe hash table,
//! byte-aligned output, built for speed over ratio.
//!
//! Format (after an 8-byte original-length header), a sequence of ops:
//!
//! * `0xxxxxxx` — literal run: copy the next `x + 1` bytes (1..=128).
//! * `1xxxxxxx o1 o2` — match: copy `x + MIN_MATCH` bytes (4..=131) from
//!   `offset = u16le(o1, o2)` bytes back (1..=65535).

use crate::lz::{copy_match, match_len};
use crate::GcError;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 131; // (0x7F) + MIN_MATCH
const MAX_OFFSET: usize = u16::MAX as usize;
const HASH_BITS: u32 = 14;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// A lower bound on `compress(x).len()` for any `x` of `len` bytes. After
/// the 8-byte header the first byte can only be a literal (2 bytes: there
/// is nothing behind it to match), and every op costs at least 3 bytes
/// per 131 bytes of input (a maximal match; a literal run costs more than
/// a byte a byte). A run of `1 + 131 m` equal bytes meets it.
pub fn min_compressed_len(len: usize) -> usize {
    match len.checked_sub(1) {
        None => 8,
        Some(rest) => 8 + 2 + (3 * rest).div_ceil(MAX_MATCH),
    }
}

/// Compress `input`.
///
/// Panics if `input` is 4 GiB or longer (table entries are `u32`).
pub fn compress(input: &[u8]) -> Vec<u8> {
    assert!(
        input.len() < u32::MAX as usize,
        "fastlz input must be shorter than 4 GiB"
    );
    let mut out = Vec::with_capacity(16 + input.len() / 2);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());

    let mut table = vec![0u32; 1 << HASH_BITS]; // position + 1; 0 = empty
    let mut i = 0usize;
    let mut lit_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, input: &[u8], from: usize, to: usize| {
        let mut s = from;
        while s < to {
            let run = (to - s).min(128);
            out.push((run - 1) as u8);
            out.extend_from_slice(&input[s..s + run]);
            s += run;
        }
    };

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let cand = table[h] as usize;
        table[h] = i as u32 + 1;
        if cand > 0 {
            let cand = cand - 1;
            let offset = i - cand;
            if (1..=MAX_OFFSET).contains(&offset) && input[cand..cand + 4] == input[i..i + 4] {
                let max = (input.len() - i).min(MAX_MATCH);
                let len = 4 + match_len(input, cand + 4, i + 4, max - 4);
                flush_literals(&mut out, input, lit_start, i);
                out.push(0x80 | (len - MIN_MATCH) as u8);
                out.extend_from_slice(&(offset as u16).to_le_bytes());
                i += len;
                lit_start = i;
                continue;
            }
        }
        i += 1;
    }
    flush_literals(&mut out, input, lit_start, input.len());
    out
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, GcError> {
    let mut out = Vec::new();
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// [`decompress`] into a caller-owned buffer (cleared, then refilled),
/// reusing its allocation across calls.
pub fn decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), GcError> {
    out.clear();
    if input.len() < 8 {
        return Err(GcError::Corrupt("missing fastlz header"));
    }
    let expected = u64::from_le_bytes(input[..8].try_into().unwrap()) as usize;
    let body = &input[8..];
    // Cap the pre-allocation: `expected` comes from an untrusted header.
    out.reserve(expected.min(16 << 20));
    let mut p = 0usize;
    while p < body.len() {
        let tag = body[p];
        p += 1;
        if tag & 0x80 == 0 {
            let run = tag as usize + 1;
            if p + run > body.len() {
                return Err(GcError::Corrupt("literal run past end"));
            }
            out.extend_from_slice(&body[p..p + run]);
            p += run;
        } else {
            let len = (tag & 0x7F) as usize + MIN_MATCH;
            if p + 2 > body.len() {
                return Err(GcError::Corrupt("truncated match offset"));
            }
            let offset = u16::from_le_bytes([body[p], body[p + 1]]) as usize;
            p += 2;
            if offset == 0 || offset > out.len() {
                return Err(GcError::Corrupt("match offset out of range"));
            }
            copy_match(out, offset, len);
        }
    }
    if out.len() != expected {
        return Err(GcError::Corrupt("fastlz output length mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `compress` as it was before its match loop compared words and its
    /// table held `u32`s, verbatim.
    fn compress_reference(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + input.len() / 2);
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());

        let mut table = vec![0usize; 1 << HASH_BITS]; // position + 1; 0 = empty
        let mut i = 0usize;
        let mut lit_start = 0usize;

        let flush_literals = |out: &mut Vec<u8>, input: &[u8], from: usize, to: usize| {
            let mut s = from;
            while s < to {
                let run = (to - s).min(128);
                out.push((run - 1) as u8);
                out.extend_from_slice(&input[s..s + run]);
                s += run;
            }
        };

        while i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let cand = table[h];
            table[h] = i + 1;
            if cand > 0 {
                let cand = cand - 1;
                let offset = i - cand;
                if (1..=MAX_OFFSET).contains(&offset) && input[cand..cand + 4] == input[i..i + 4] {
                    // Extend the match.
                    let mut len = 4;
                    let max = (input.len() - i).min(MAX_MATCH);
                    while len < max && input[cand + len] == input[i + len] {
                        len += 1;
                    }
                    flush_literals(&mut out, input, lit_start, i);
                    out.push(0x80 | (len - MIN_MATCH) as u8);
                    out.extend_from_slice(&(offset as u16).to_le_bytes());
                    i += len;
                    lit_start = i;
                    continue;
                }
            }
            i += 1;
        }
        flush_literals(&mut out, input, lit_start, input.len());
        out
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn byte_identity_with_the_bytewise_match_loop() {
        for (name, input) in crate::testdata::byte_identity_inputs() {
            assert!(compress(&input) == compress_reference(&input), "{name}");
        }
    }

    #[test]
    fn a_long_zero_run_meets_the_size_floor() {
        // One literal, then maximal matches: 3 bytes per 131 of input.
        for matches in [1, 2, 500] {
            let len = 1 + MAX_MATCH * matches;
            let c = compress(&vec![0u8; len]);
            assert_eq!(c.len(), min_compressed_len(len), "{len} zeros");
        }
        assert_eq!(compress(b"").len(), min_compressed_len(0));
        assert_eq!(compress(b"x").len(), min_compressed_len(1));
    }

    proptest::proptest! {
        /// Random bytes (`reps == 1`) through to short-period runs.
        #[test]
        fn prop_no_output_is_under_the_size_floor(
            motif in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..300),
            reps in 1usize..60,
        ) {
            let len = motif.len() * reps;
            let data: Vec<u8> = motif.iter().cycle().take(len).copied().collect();
            let floor = min_compressed_len(len);
            proptest::prop_assert!(compress(&data).len() >= floor);
            proptest::prop_assert!(floor >= 8 + (3 * len).div_ceil(131));
        }
    }

    #[test]
    fn empty_and_small() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn overlapping_copy_rle() {
        roundtrip(&vec![7u8; 5000]);
        roundtrip(b"abcabcabcabcabcabcabcabcabc");
    }

    #[test]
    fn long_literal_runs() {
        let data: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(2654435761)) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn repetitive_data_compresses() {
        let row: Vec<u8> = (0..200).map(|i| (i % 17) as u8).collect();
        let data: Vec<u8> = row.iter().cycle().take(100_000).copied().collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 5, "{} vs {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn doubles_with_few_distinct_values() {
        // Mimics a DEN-encoded mini-batch with a small value pool.
        let vals = [1.5f64, 0.0, 2.25, 0.0, 0.0, 1.5];
        let mut data = Vec::new();
        for i in 0..20_000 {
            data.extend_from_slice(&vals[i % vals.len()].to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_error() {
        assert!(decompress(&[]).is_err());
        let mut c = compress(b"hello world hello world hello world");
        c.truncate(c.len() - 1);
        assert!(decompress(&c).is_err());
        // Bogus offset.
        let bad = [&8u64.to_le_bytes()[..], &[0x80, 0xFF, 0xFF]].concat();
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn random_bytes_roundtrip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4242);
        for len in [1, 100, 1024, 66_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip(&data);
        }
    }
}
