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
mod lz;

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

/// Inputs on which the LZ compressors are held, byte for byte, to the
/// byte-at-a-time match loops they replaced (kept verbatim beside each).
#[cfg(test)]
pub(crate) mod testdata {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use toc_data::synth::{generate_preset, DatasetPreset};

    /// The DEN bytes of a 250-row chunk of every preset, then the shapes
    /// that stress a word-wise match loop: runs, matches further apart
    /// than either window, no matches at all, and inputs whose length
    /// leaves every tail of fewer than eight bytes.
    pub(crate) fn byte_identity_inputs() -> Vec<(String, Vec<u8>)> {
        let mut inputs = Vec::new();
        for preset in DatasetPreset::ALL {
            let x = generate_preset(preset, 250, 42).x;
            let den = x.data().iter().flat_map(|v| v.to_le_bytes()).collect();
            inputs.push((format!("{} DEN chunk", preset.name()), den));
        }
        inputs.push(("zero run".into(), vec![0u8; 100_000]));
        let rle = (0..1000).flat_map(|i| [(i % 7) as u8; 97]).collect();
        inputs.push(("short runs".into(), rle));
        let mut rng = StdRng::seed_from_u64(24);
        let random: Vec<u8> = (0..70_000).map(|_| rng.gen()).collect();
        // 40 000 bytes apart: past deflate's 32 KiB window, inside
        // fastlz's 64 KiB; 70 000 apart: past both.
        for gap in [40_000, 70_000] {
            let mut far = random[..gap].to_vec();
            far.extend_from_slice(&random[..5_000]);
            inputs.push((format!("repeat {gap} bytes apart"), far));
        }
        inputs.push(("random".into(), random));
        let motif: Vec<u8> = (0..41u32).map(|i| (i * 31 % 11) as u8).collect();
        for len in (0..24).chain(250..275) {
            let tail = motif.iter().cycle().take(len).copied().collect();
            inputs.push((format!("{len}-byte motif"), tail));
        }
        inputs
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
