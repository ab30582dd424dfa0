//! A Gzip-class compressor: LZ77 with hash chains + dynamic canonical
//! Huffman coding of literal/length and distance symbols, following the
//! DEFLATE symbol alphabets (RFC 1951) with a simplified container.
//!
//! Container layout:
//!
//! ```text
//! u64   original length
//! 143 B nibble-packed literal/length code lengths (286 symbols)
//! 15 B  nibble-packed distance code lengths (30 symbols)
//! ...   LSB-first bit stream of Huffman symbols + extra bits, ending at EOB
//! ```
//!
//! Ratio and speed sit in the Gzip class: much better ratio than
//! [`crate::fastlz`], much slower; decompression must reproduce every byte
//! before any computation can use the data — the property the paper's GC
//! comparison exercises.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{build_lengths, Decoder, Encoder};
use crate::lz::{copy_match, match_len};
use crate::GcError;

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const MAX_DIST: usize = 32 * 1024;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;
const NUM_LITLEN: usize = 286; // 0..=255 literals, 256 EOB, 257..=285 lengths
const NUM_DIST: usize = 30;
const EOB: usize = 256;

// RFC 1951 length code tables (code 257 + i).
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
// RFC 1951 distance code tables.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Map a match length (3..=258) to (symbol, extra bits, extra value).
#[inline]
fn length_symbol(len: usize) -> (usize, u8, u32) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    // Linear scan from the top is fine: 29 entries.
    let mut i = LEN_BASE.len() - 1;
    while LEN_BASE[i] as usize > len {
        i -= 1;
    }
    (257 + i, LEN_EXTRA[i], (len - LEN_BASE[i] as usize) as u32)
}

/// Map a distance (1..=32768) to (symbol, extra bits, extra value).
#[inline]
fn dist_symbol(dist: usize) -> (usize, u8, u32) {
    debug_assert!((1..=MAX_DIST).contains(&dist));
    let mut i = DIST_BASE.len() - 1;
    while DIST_BASE[i] as usize > dist {
        i -= 1;
    }
    (i, DIST_EXTRA[i], (dist - DIST_BASE[i] as usize) as u32)
}

#[derive(Debug, PartialEq)]
enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

#[inline]
fn hash3(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], 0]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Empty slot of the head table.
const NONE: u32 = u32::MAX;

/// Greedy LZ77 parse with hash chains.
fn lz77_parse(input: &[u8]) -> Vec<Token> {
    assert!(
        input.len() < NONE as usize,
        "deflate input must be shorter than 4 GiB"
    );
    let mut tokens = Vec::with_capacity(input.len() / 4 + 16);
    let mut head = vec![NONE; 1 << HASH_BITS];
    // `prev[p]` is written when `p` enters a chain and read only through
    // one, so it needs no empty marker.
    let mut prev = vec![0u32; input.len()];
    let mut i = 0usize;
    while i < input.len() {
        if i + MIN_MATCH <= input.len() {
            let h = hash3(&input[i..]);
            let mut cand = head[h];
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut chain = 0usize;
            let max_len = (input.len() - i).min(MAX_MATCH);
            while cand != NONE && chain < MAX_CHAIN {
                let c = cand as usize;
                let dist = i - c;
                if dist > MAX_DIST {
                    break;
                }
                // Quick reject on the byte after the current best.
                if best_len == 0 || input[c + best_len] == input[i + best_len] {
                    let l = match_len(input, c, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == max_len {
                            break;
                        }
                    }
                }
                cand = prev[c];
                chain += 1;
            }
            // Insert the current position into the chain.
            prev[i] = head[h];
            head[h] = i as u32;
            if best_len >= MIN_MATCH {
                tokens.push(Token::Match {
                    len: best_len as u16,
                    dist: best_dist as u16,
                });
                // Insert the skipped positions so later matches can find
                // them (cap the work for long matches).
                let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
                for k in i + 1..end {
                    let hk = hash3(&input[k..]);
                    prev[k] = head[hk];
                    head[hk] = k as u32;
                }
                i += best_len;
                continue;
            }
        }
        tokens.push(Token::Literal(input[i]));
        i += 1;
    }
    tokens
}

fn pack_nibbles(lengths: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(lengths.len().div_ceil(2));
    for pair in lengths.chunks(2) {
        let lo = pair[0] & 0x0F;
        let hi = if pair.len() > 1 { pair[1] & 0x0F } else { 0 };
        out.push(lo | (hi << 4));
    }
    out
}

fn unpack_nibbles(bytes: &[u8], n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let b = bytes[i / 2];
        out.push(if i % 2 == 0 { b & 0x0F } else { b >> 4 });
    }
    out
}

/// Compress `input`.
///
/// Panics if `input` is 4 GiB or longer (chain entries are `u32`).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let tokens = lz77_parse(input);

    // Symbol statistics.
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[length_symbol(len as usize).0] += 1;
                dist_freq[dist_symbol(dist as usize).0] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;

    let lit_lengths = build_lengths(&lit_freq, 15);
    let dist_lengths = build_lengths(&dist_freq, 15);
    let lit_enc = Encoder::from_lengths(&lit_lengths);
    let dist_enc = Encoder::from_lengths(&dist_lengths);

    let mut out = Vec::with_capacity(64 + input.len() / 3);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    out.extend_from_slice(&pack_nibbles(&lit_lengths));
    out.extend_from_slice(&pack_nibbles(&dist_lengths));

    let mut w = BitWriter::new();
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_enc.write(&mut w, b as usize),
            Token::Match { len, dist } => {
                let (sym, extra, val) = length_symbol(len as usize);
                lit_enc.write(&mut w, sym);
                if extra > 0 {
                    w.write_bits(val, extra as u32);
                }
                let (dsym, dextra, dval) = dist_symbol(dist as usize);
                dist_enc.write(&mut w, dsym);
                if dextra > 0 {
                    w.write_bits(dval, dextra as u32);
                }
            }
        }
    }
    lit_enc.write(&mut w, EOB);
    out.extend_from_slice(&w.finish());
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
    decompress_into_impl::<true>(input, out)
}

/// The pre-table scalar reference decoder: bitwise Huffman walk plus
/// byte-at-a-time match copies. Kept (sharing all container parsing with the
/// fast path) so the codec-speed gate can measure the table-driven kernels
/// against the original scalar ones inside a single binary.
#[doc(hidden)]
pub fn decompress_into_scalar(input: &[u8], out: &mut Vec<u8>) -> Result<(), GcError> {
    decompress_into_impl::<false>(input, out)
}

fn decompress_into_impl<const FAST: bool>(input: &[u8], out: &mut Vec<u8>) -> Result<(), GcError> {
    out.clear();
    const HEADER: usize = 8 + NUM_LITLEN.div_ceil(2) + NUM_DIST.div_ceil(2);
    if input.len() < HEADER {
        return Err(GcError::Corrupt("truncated deflate header"));
    }
    let expected = u64::from_le_bytes(input[..8].try_into().unwrap()) as usize;
    let lit_lengths = unpack_nibbles(&input[8..], NUM_LITLEN);
    let dist_lengths = unpack_nibbles(&input[8 + NUM_LITLEN.div_ceil(2)..], NUM_DIST);
    let lit_dec = Decoder::from_lengths(&lit_lengths)?;
    let dist_dec = Decoder::from_lengths(&dist_lengths)?;

    // `expected` comes from an untrusted header, so sanity-check it before
    // allocating: every symbol costs at least one stream bit and emits at
    // most MAX_MATCH bytes, so the declared size cannot exceed
    // body_bits * 258 for any well-formed stream. Within that bound,
    // reserve the exact decoded size up front (capped so a hostile header
    // attached to a large body cannot force a multi-GB allocation before
    // the first decode error) — the hot loop then never reallocates.
    let body_bits = ((input.len() - HEADER) as u64).saturating_mul(8);
    if expected as u64 > body_bits.saturating_mul(MAX_MATCH as u64) {
        return Err(GcError::Corrupt(
            "deflate declared length implausible for stream size",
        ));
    }
    out.reserve(expected.min(64 << 20));
    let mut r = BitReader::new(&input[HEADER..]);
    loop {
        let sym = if FAST {
            lit_dec.read(&mut r)? as usize
        } else {
            lit_dec.read_bitwise(&mut r)? as usize
        };
        if sym < 256 {
            if out.len() == expected {
                return Err(GcError::LengthMismatch {
                    expected: expected as u64,
                    got: out.len() as u64 + 1,
                });
            }
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let i = sym - 257;
            if i >= LEN_BASE.len() {
                return Err(GcError::Corrupt("invalid length symbol"));
            }
            let len = LEN_BASE[i] as usize + r.read_bits(LEN_EXTRA[i] as u32)? as usize;
            let dsym = if FAST {
                dist_dec.read(&mut r)? as usize
            } else {
                dist_dec.read_bitwise(&mut r)? as usize
            };
            if dsym >= DIST_BASE.len() {
                return Err(GcError::Corrupt("invalid distance symbol"));
            }
            let dist = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
            if dist == 0 || dist > out.len() {
                return Err(GcError::Corrupt("distance out of range"));
            }
            // Fail fast before copying: `out.len() <= expected` is a loop
            // invariant, so the subtraction cannot underflow.
            if len > expected - out.len() {
                return Err(GcError::LengthMismatch {
                    expected: expected as u64,
                    got: (out.len() + len) as u64,
                });
            }
            if FAST {
                copy_match(out, dist, len);
            } else {
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if out.len() != expected {
        return Err(GcError::LengthMismatch {
            expected: expected as u64,
            got: out.len() as u64,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `lz77_parse` as it was before it compared words over `u32` tables,
    /// verbatim.
    fn lz77_parse_reference(input: &[u8]) -> Vec<Token> {
        let mut tokens = Vec::with_capacity(input.len() / 4 + 16);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; input.len()];
        let mut i = 0usize;
        while i < input.len() {
            if i + MIN_MATCH <= input.len() {
                let h = hash3(&input[i..]);
                let mut cand = head[h];
                let mut best_len = 0usize;
                let mut best_dist = 0usize;
                let mut chain = 0usize;
                let max_len = (input.len() - i).min(MAX_MATCH);
                while cand != usize::MAX && chain < MAX_CHAIN {
                    let dist = i - cand;
                    if dist > MAX_DIST {
                        break;
                    }
                    // Quick reject on the byte after the current best.
                    if best_len == 0 || input[cand + best_len] == input[i + best_len] {
                        let mut l = 0usize;
                        while l < max_len && input[cand + l] == input[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = dist;
                            if l == max_len {
                                break;
                            }
                        }
                    }
                    cand = prev[cand];
                    chain += 1;
                }
                // Insert the current position into the chain.
                prev[i] = head[h];
                head[h] = i;
                if best_len >= MIN_MATCH {
                    tokens.push(Token::Match {
                        len: best_len as u16,
                        dist: best_dist as u16,
                    });
                    // Insert the skipped positions so later matches can find
                    // them (cap the work for long matches).
                    let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
                    for k in i + 1..end {
                        let hk = hash3(&input[k..]);
                        prev[k] = head[hk];
                        head[hk] = k;
                    }
                    i += best_len;
                    continue;
                }
            }
            tokens.push(Token::Literal(input[i]));
            i += 1;
        }
        tokens
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn byte_identity_with_the_bytewise_match_loop() {
        for (name, input) in crate::testdata::byte_identity_inputs() {
            assert!(lz77_parse(&input) == lz77_parse_reference(&input), "{name}");
        }
    }

    #[test]
    fn length_symbol_table_edges() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(10), (264, 0, 0));
        assert_eq!(length_symbol(11), (265, 1, 0));
        assert_eq!(length_symbol(12), (265, 1, 1));
        assert_eq!(length_symbol(258), (285, 0, 0));
        assert_eq!(length_symbol(257), (284, 5, 30));
    }

    #[test]
    fn dist_symbol_table_edges() {
        assert_eq!(dist_symbol(1), (0, 0, 0));
        assert_eq!(dist_symbol(4), (3, 0, 0));
        assert_eq!(dist_symbol(5), (4, 1, 0));
        assert_eq!(dist_symbol(24577), (29, 13, 0));
        assert_eq!(dist_symbol(32768), (29, 13, 8191));
    }

    #[test]
    fn empty_and_small() {
        roundtrip(b"");
        roundtrip(b"z");
        roundtrip(b"abcabcabc");
    }

    #[test]
    fn rle_heavy_input() {
        roundtrip(&vec![0u8; 100_000]);
        let mut v = Vec::new();
        for i in 0..1000 {
            v.extend_from_slice(&[(i % 7) as u8; 97]);
        }
        roundtrip(&v);
    }

    #[test]
    fn compresses_repetitive_doubles_well() {
        // DEN bytes of a redundant mini-batch: expect a strong ratio.
        let vals = [1.5f64, 0.0, 0.0, 2.25, 0.0, 1.5, 0.0, 0.0];
        let mut data = Vec::new();
        for i in 0..30_000 {
            data.extend_from_slice(&vals[i % vals.len()].to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "{} vs {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn beats_fastlz_on_ratio() {
        let row: Vec<u8> = (0..251).map(|i| (i % 23) as u8).collect();
        let data: Vec<u8> = row.iter().cycle().take(120_000).copied().collect();
        let d = compress(&data);
        let f = crate::fastlz::compress(&data);
        assert!(
            d.len() < f.len(),
            "deflate {} vs fastlz {}",
            d.len(),
            f.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn random_bytes_roundtrip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for len in [1usize, 255, 4096, 70_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn long_range_matches() {
        // A motif that repeats at distance ~20000 (needs big offsets).
        let motif: Vec<u8> = (0..19_777u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut data = motif.clone();
        data.extend_from_slice(&motif);
        data.extend_from_slice(&motif);
        let c = compress(&data);
        assert!(c.len() < data.len() / 2);
        roundtrip(&data);
    }

    #[test]
    fn fast_and_scalar_decoders_agree() {
        let mut data: Vec<u8> = (0..9973u32).map(|i| (i * 131 % 251) as u8).collect();
        data.extend_from_slice(&vec![42u8; 4096]); // overlapping-match path
        let more = data.clone();
        data.extend_from_slice(&more); // long-range disjoint matches
        let c = compress(&data);
        let mut fast = Vec::new();
        let mut scalar = Vec::new();
        decompress_into(&c, &mut fast).unwrap();
        decompress_into_scalar(&c, &mut scalar).unwrap();
        assert_eq!(fast, data);
        assert_eq!(fast, scalar);
    }

    #[test]
    fn declared_length_mismatch_is_structured() {
        let c = compress(b"hello hello hello hello");
        let mut bad = c.clone();
        bad[0] ^= 1; // declared decoded size off by one
        match decompress(&bad) {
            Err(GcError::LengthMismatch { .. }) => {}
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn implausible_declared_length_rejected_before_allocating() {
        let mut c = compress(b"tiny");
        c[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decompress(&c), Err(GcError::Corrupt(_))));
    }

    #[test]
    fn corrupt_streams_error() {
        assert!(decompress(&[]).is_err());
        let c = compress(b"some reasonably long input string, repeated, repeated");
        for cut in [9, 20, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err() || decompress(&c[..cut]).is_ok());
        }
        // Flipping header bytes must never panic.
        for i in 0..c.len().min(60) {
            let mut b = c.clone();
            b[i] ^= 0x5A;
            let _ = decompress(&b);
        }
    }
}
