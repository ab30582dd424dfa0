#![forbid(unsafe_code)]
//! # toc-gc — general-purpose byte compressors
//!
//! The paper compares TOC against two general compression schemes (GC):
//! Snappy and Gzip. Neither library is available offline, so this crate
//! implements the same algorithmic classes from scratch:
//!
//! * [`fastlz`] — greedy single-probe LZ (Snappy class: very fast, modest
//!   ratio).
//! * [`deflate`] — LZ77 with hash chains + dynamic canonical Huffman coding
//!   over the RFC 1951 alphabets (Gzip class: strong ratio, slower).
//! * [`ans`] — tabled range-ANS entropy coder (pcodec class): per-chunk
//!   adaptive frequency tables, reverse-order encode, two interleaved
//!   decode states driving a branchless slot-table inner loop.
//!
//! All three share the defining GC property the paper measures: the payload
//! must be **fully decompressed before any matrix operation** can run.

pub mod ans;
pub mod bitio;
pub mod deflate;
pub mod fastlz;
pub mod huffman;

/// Error type for the decompressors. Corrupt input yields an error, never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcError {
    /// Malformed or truncated compressed stream.
    Corrupt(&'static str),
    /// The decoded payload does not match the length the header declared.
    LengthMismatch { expected: u64, got: u64 },
}

impl std::fmt::Display for GcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcError::Corrupt(msg) => write!(f, "corrupt compressed stream: {msg}"),
            GcError::LengthMismatch { expected, got } => write!(
                f,
                "decoded length mismatch: header declared {expected} bytes, stream produced {got}"
            ),
        }
    }
}

impl std::error::Error for GcError {}

/// A byte-oriented compression codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Snappy-class fast LZ.
    FastLz,
    /// Gzip-class LZ77 + Huffman.
    Deflate,
    /// Tabled range-ANS entropy coder (per-chunk adaptive, interleaved
    /// decode states).
    Ans,
}

impl Codec {
    /// Human-readable name (matches the labels used in the experiment
    /// harness; `Snappy*`/`Gzip*` mark the from-scratch substitutes).
    pub fn name(self) -> &'static str {
        match self {
            Codec::FastLz => "Snappy*",
            Codec::Deflate => "Gzip*",
            Codec::Ans => "ANS",
        }
    }

    /// Compress `input`.
    pub fn compress(self, input: &[u8]) -> Vec<u8> {
        match self {
            Codec::FastLz => fastlz::compress(input),
            Codec::Deflate => deflate::compress(input),
            Codec::Ans => ans::compress(input),
        }
    }

    /// Decompress `input`.
    pub fn decompress(self, input: &[u8]) -> Result<Vec<u8>, GcError> {
        match self {
            Codec::FastLz => fastlz::decompress(input),
            Codec::Deflate => deflate::decompress(input),
            Codec::Ans => ans::decompress(input),
        }
    }

    /// Decompress `input` into a caller-owned buffer (cleared, then
    /// refilled), reusing its allocation across calls. This is the staging
    /// entry point of the workspace execution API: repeated decompression
    /// of same-sized mini-batches allocates nothing in steady state.
    pub fn decompress_into(self, input: &[u8], out: &mut Vec<u8>) -> Result<(), GcError> {
        match self {
            Codec::FastLz => fastlz::decompress_into(input, out),
            Codec::Deflate => deflate::decompress_into(input, out),
            Codec::Ans => ans::decompress_into(input, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_dispatch_roundtrips() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 97) as u8).collect();
        for codec in [Codec::FastLz, Codec::Deflate, Codec::Ans] {
            let c = codec.compress(&data);
            assert_eq!(codec.decompress(&c).unwrap(), data, "{}", codec.name());
            assert!(c.len() < data.len(), "{} did not compress", codec.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(Codec::FastLz.name(), Codec::Deflate.name());
    }
}
