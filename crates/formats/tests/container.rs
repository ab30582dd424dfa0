//! Container-level wire tests: golden fixtures for both `.tocz`
//! versions, zone-map pruning correctness, and the exhaustive mutation
//! sweep over the v2 postscript + footer region.
//!
//! Regenerate the fixtures after an intentional wire change with:
//!
//! ```text
//! TOC_BLESS=1 cargo test -p toc-formats --test container
//! ```

use proptest::prelude::*;
use std::path::PathBuf;
use toc_formats::container::{parse_v2_footer, Container, HEADER_LEN, MAGIC, POSTSCRIPT_LEN};
use toc_formats::{EncodeOptions, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

mod common;
use common::pool_matrix;

/// Decode an accepted mutant only when its self-described shape is still
/// plausibly sized — a flipped bit in a payload length field can
/// legitimately parse yet describe a terabyte-scale matrix, and blindly
/// materializing that would OOM the sweep (the parse/decode APIs are the
/// thing under test, not the allocator).
fn exercise_accepted_mutant(c: &Container) {
    let sane = c
        .batches
        .iter()
        .all(|b| b.rows() <= 4096 && b.cols() <= 4096);
    if sane {
        let _ = c.decode();
    }
    let _ = c.payload_bytes();
}

/// Frame `c`'s batches as a legacy v1 container. The library only
/// *reads* v1; this is the whole format (see the `container` module
/// docs), kept test-side to bless the golden fixture and to feed the v1
/// reader's hardening sweeps.
fn frame_v1(c: &Container) -> Vec<u8> {
    let mut out = MAGIC.to_le_bytes().to_vec();
    out.push(1);
    out.extend_from_slice(&(c.batches.len() as u32).to_le_bytes());
    for b in &c.batches {
        let bytes = b.to_bytes();
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The container fixture matrix. Frozen — the committed fixtures encode
/// exactly this; don't change the parameters.
fn fixture_matrix() -> DenseMatrix {
    pool_matrix(57, 6, 0.4, 1234)
}

fn fixture_container() -> Container {
    Container::encode_with(
        &fixture_matrix(),
        Scheme::Toc,
        16,
        &EncodeOptions::default(),
    )
}

/// Both versions of the committed fixture must keep parsing and keep
/// decoding to the original matrix, and their parsed batches must keep
/// re-framing byte-identically — old archives can never silently break.
#[test]
fn golden_container_fixtures_stay_readable() {
    let bless = std::env::var_os("TOC_BLESS").is_some();
    let dir = golden_dir();
    let a = fixture_matrix();
    for (name, v1) in [("container_v2.tocz", false), ("container_v1.tocz", true)] {
        let path = dir.join(name);
        if bless {
            let c = fixture_container();
            let bytes = if v1 {
                frame_v1(&c)
            } else {
                c.to_bytes().unwrap()
            };
            std::fs::write(&path, bytes).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(missing fixture? regenerate with TOC_BLESS=1)",
                path.display()
            )
        });
        let c = Container::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{name}: old container no longer parses: {e}"));
        assert_eq!(c.decode().unwrap(), a, "{name}: decoded payload drifted");
        let again = if v1 {
            frame_v1(&c)
        } else {
            c.to_bytes().unwrap()
        };
        assert_eq!(
            again, bytes,
            "{name}: reserialization is not byte-identical"
        );
        if v1 {
            assert!(c.zones().is_none(), "v1 carries no zone maps");
        } else {
            assert_eq!(c.zones().unwrap().len(), c.batches.len());
        }
    }
}

/// The committed v1 fixture round-trips through the file API
/// (`Container::read`), the acceptance-criteria phrasing of back-compat.
#[test]
fn v1_fixture_roundtrips_through_read() {
    let c = Container::read(&golden_dir().join("container_v1.tocz"))
        .expect("v1 fixture (regenerate with TOC_BLESS=1)");
    assert_eq!(c.decode().unwrap(), fixture_matrix());
    // And upgrading it to v2 yields a parseable seekable container.
    let v2 = c.to_bytes().unwrap();
    let up = Container::from_bytes(&v2).unwrap();
    assert_eq!(up.decode().unwrap(), fixture_matrix());
    let (footer, _) = parse_v2_footer(&v2).unwrap();
    assert_eq!(footer.num_segments(), c.batches.len());
}

/// Every single-byte mutation of the postscript or the footer must be a
/// structured `Err`, never a panic and never a silent wrong parse. The
/// footer is covered by the postscript's FNV checksum; the postscript is
/// covered by magic/version checks and exact file-length arithmetic.
/// Exhaustive: every byte position in both regions, all 255 wrong values.
#[test]
fn postscript_and_footer_mutations_always_error() {
    let m = pool_matrix(40, 5, 0.5, 9);
    let c = Container::encode_with(&m, Scheme::Den, 8, &EncodeOptions::default());
    let good = c.to_bytes().unwrap();
    let (_, ps) = parse_v2_footer(&good).unwrap();
    let footer_region = ps.footer_offset as usize..good.len();
    for pos in footer_region {
        for delta in 1..=255u8 {
            let mut bytes = good.clone();
            bytes[pos] = bytes[pos].wrapping_add(delta);
            assert!(
                Container::from_bytes(&bytes).is_err(),
                "byte {pos} (+{delta}) in footer/postscript was accepted"
            );
        }
    }
}

/// Flips anywhere in the file — header, segment payloads, everything —
/// must never panic (payload flips may legitimately parse: a flipped
/// value byte inside a dense segment is different data, not a framing
/// error).
#[test]
fn whole_file_single_byte_flips_never_panic() {
    let m = pool_matrix(30, 4, 0.5, 21);
    for v1 in [false, true] {
        let c = Container::encode_with(&m, Scheme::Toc, 7, &EncodeOptions::default());
        let good = if v1 {
            frame_v1(&c)
        } else {
            c.to_bytes().unwrap()
        };
        for pos in 0..good.len() {
            for bit in 0..8 {
                let mut bytes = good.clone();
                bytes[pos] ^= 1 << bit;
                if let Ok(c) = Container::from_bytes(&bytes) {
                    exercise_accepted_mutant(&c);
                }
            }
        }
    }
}

/// Truncations at every length must error cleanly too, in both versions.
#[test]
fn truncations_always_error() {
    let m = pool_matrix(25, 4, 0.5, 3);
    let c = Container::encode_with(&m, Scheme::Den, 9, &EncodeOptions::default());
    for good in [c.to_bytes().unwrap(), frame_v1(&c)] {
        for len in 0..good.len() {
            assert!(
                Container::from_bytes(&good[..len]).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
    }
}

/// The v1 reader decodes every scheme's batches and reports no zone maps
/// (v1 has no footer to restore them from).
#[test]
fn v1_reader_roundtrips_all_schemes() {
    let m = pool_matrix(130, 12, 0.4, 5);
    for scheme in [Scheme::Toc, Scheme::Den, Scheme::Gzip, Scheme::Cla] {
        let c = Container::encode_with(&m, scheme, 50, &EncodeOptions::default());
        let v1 = Container::from_bytes(&frame_v1(&c)).unwrap();
        assert_eq!(v1.batches.len(), 3);
        assert_eq!(v1.decode().unwrap(), m, "{} v1", scheme.name());
        assert!(v1.zones().is_none());
        let mut flipped = frame_v1(&c);
        flipped[0] ^= 1;
        assert!(Container::from_bytes(&flipped).is_err(), "bad magic");
    }
}

/// The v2 postscript sits at EOF with the layout the README documents.
#[test]
fn postscript_layout_is_pinned() {
    let c = fixture_container();
    let bytes = c.to_bytes().unwrap();
    assert_eq!(POSTSCRIPT_LEN, 29);
    let tail = &bytes[bytes.len() - POSTSCRIPT_LEN..];
    // ... magic trails the file, version byte right before it.
    assert_eq!(&tail[25..29], &0x544F_435Au32.to_le_bytes());
    assert_eq!(tail[24], 2);
    let footer_offset = u64::from_le_bytes(tail[0..8].try_into().unwrap());
    let footer_len = u64::from_le_bytes(tail[8..16].try_into().unwrap());
    assert_eq!(
        footer_offset + footer_len,
        (bytes.len() - POSTSCRIPT_LEN) as u64
    );
    assert!(footer_offset >= HEADER_LEN as u64);
    // The leading header is shared with v1: magic + version.
    assert_eq!(&bytes[0..4], &0x544F_435Au32.to_le_bytes());
    assert_eq!(bytes[4], 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pruned decode == full decode on the projected range, for random
    /// matrices, segment sizes, and ranges, across representative schemes.
    #[test]
    fn prop_projected_decode_matches_full(
        seed in 0u64..10_000,
        rows in 1usize..120,
        cols in 1usize..9,
        seg in 1usize..40,
        scheme_idx in 0usize..4,
        range in (0usize..200, 0usize..200),
    ) {
        let scheme = [Scheme::Toc, Scheme::Den, Scheme::Csr, Scheme::Cla][scheme_idx];
        let m = pool_matrix(rows, cols, 0.4, seed);
        let c = Container::encode_with(&m, scheme, seg, &EncodeOptions::default());
        let (mut r0, mut r1) = (range.0 % (rows + 1), range.1 % (rows + 1));
        if r0 > r1 {
            std::mem::swap(&mut r0, &mut r1);
        }
        let part = c.decode_rows(r0, r1).unwrap();
        prop_assert_eq!(part.rows(), r1 - r0);
        for r in r0..r1 {
            prop_assert_eq!(part.row(r - r0), m.row(r));
        }
        // And the same through the serialized v2 wire image.
        let back = Container::from_bytes(&c.to_bytes().unwrap()).unwrap();
        let part2 = back.decode_rows(r0, r1).unwrap();
        prop_assert_eq!(part.data(), part2.data());
    }

    /// Footer row-range pruning is sound and tight: the reported segments
    /// are exactly those whose row range intersects the query.
    #[test]
    fn prop_row_pruning_is_exact(
        seed in 0u64..10_000,
        rows in 1usize..120,
        seg in 1usize..40,
        range in (0usize..200, 0usize..200),
    ) {
        let m = pool_matrix(rows, 4, 0.5, seed);
        let c = Container::encode_with(&m, Scheme::Den, seg, &EncodeOptions::default());
        let bytes = c.to_bytes().unwrap();
        let (footer, _) = parse_v2_footer(&bytes).unwrap();
        let (mut r0, mut r1) = (range.0 % (rows + 1), range.1 % (rows + 1));
        if r0 > r1 {
            std::mem::swap(&mut r0, &mut r1);
        }
        let picked = footer.segments_overlapping_rows(r0 as u64, r1 as u64);
        let leaves = footer.leaves();
        for (i, leaf) in leaves.iter().enumerate() {
            let overlaps = (leaf.row_end as usize) > r0 && (leaf.row_start as usize) < r1;
            prop_assert_eq!(picked.contains(&i), overlaps, "segment {}", i);
        }
    }

    /// Zone-map value pruning is sound: a segment whose zone excludes the
    /// query range really contains no value in it.
    #[test]
    fn prop_zone_pruning_is_sound(
        seed in 0u64..10_000,
        rows in 1usize..100,
        seg in 1usize..30,
        lo in -3.0f64..4.0,
        width in 0.0f64..3.0,
    ) {
        let hi = lo + width;
        let m = pool_matrix(rows, 5, 0.5, seed);
        let c = Container::encode_with(&m, Scheme::Den, seg, &EncodeOptions::default());
        let bytes = c.to_bytes().unwrap();
        let (footer, _) = parse_v2_footer(&bytes).unwrap();
        let kept = footer.segments_with_values_in(lo, hi);
        for (i, leaf) in footer.leaves().iter().enumerate() {
            if kept.contains(&i) {
                continue;
            }
            for r in leaf.row_start as usize..leaf.row_end as usize {
                for &v in m.row(r) {
                    prop_assert!(
                        !(lo..=hi).contains(&v),
                        "pruned segment {} holds {} in [{}, {}]",
                        i, v, lo, hi
                    );
                }
            }
        }
    }

    /// Random byte flips across the whole v2 image never panic (sampled —
    /// the exhaustive sweeps above cover the framing regions).
    #[test]
    fn prop_v2_mutants_never_panic(
        seed in 0u64..2_000,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 1..5),
    ) {
        let m = pool_matrix(17, 5, 0.5, seed);
        let c = Container::encode_with(&m, Scheme::Toc, 6, &EncodeOptions::default());
        let mut bytes = c.to_bytes().unwrap();
        for (pos, bit) in flips {
            let n = bytes.len();
            bytes[pos % n] ^= 1 << bit;
        }
        if let Ok(c) = Container::from_bytes(&bytes) {
            exercise_accepted_mutant(&c);
        }
    }
}

/// A container whose batches disagree on width must refuse to serialize:
/// the single footer `cols` would otherwise lie about every batch after
/// the first.
#[test]
fn mixed_width_batches_refuse_to_serialize() {
    let a = pool_matrix(12, 4, 0.5, 7);
    let mut c = Container::encode_with(&a, Scheme::Den, 6, &EncodeOptions::default());
    let narrow = pool_matrix(6, 3, 0.5, 8);
    c.batches
        .push(Scheme::Den.encode_with(&narrow, &EncodeOptions::default()));

    let expected = toc_formats::FormatError::MixedCols {
        batch: 2,
        got: 3,
        expected: 4,
    };
    assert_eq!(c.to_bytes().unwrap_err(), expected);

    // Uniform containers keep round-tripping.
    c.batches.pop();
    let bytes = c.to_bytes().unwrap();
    let back = Container::from_bytes(&bytes).unwrap();
    assert_eq!(back.decode().unwrap(), a);
}

/// A parsed TOC batch carries the decode tree its validation built, for
/// the one visit that follows a spilled read; a container keeps what it
/// parses, so it must shed them — or a whole-file read holds several times
/// its encoded size. Both wire versions, every TOC-backed scheme.
#[test]
fn a_parsed_container_holds_no_decode_trees() {
    use toc_formats::AnyBatch;
    let a = pool_matrix(57, 6, 0.4, 1234);
    for scheme in [Scheme::Toc, Scheme::TocVarint, Scheme::TocSparseLogical] {
        let c = Container::encode_with(&a, scheme, 10, &EncodeOptions::default());
        let segment = c.batches[0].to_bytes();
        let toc_of = |b: &AnyBatch| match b {
            AnyBatch::Toc(b) => b.toc().clone(),
            AnyBatch::TocSparseLogical(b) => b.toc().clone(),
            other => panic!("{}: parsed into {other:?}", scheme.name()),
        };
        // What the container sheds is there to shed.
        let parsed = toc_of(&Scheme::from_bytes(&segment).unwrap());
        assert!(parsed.carried_tree().is_some(), "{}", scheme.name());
        for bytes in [c.to_bytes().unwrap(), frame_v1(&c)] {
            let back = Container::from_bytes(&bytes).unwrap();
            assert_eq!(back.batches.len(), 6);
            for b in &back.batches {
                assert!(toc_of(b).carried_tree().is_none(), "{}", scheme.name());
            }
            assert_eq!(back.decode().unwrap(), a);
        }
    }
}
