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
use toc_formats::container::{
    fnv1a64, Container, LayoutNode, Postscript, SeekableContainer, HEADER_LEN, MAGIC,
    POSTSCRIPT_LEN,
};
use toc_formats::{EncodeOptions, FormatError, MatrixBatch, Scheme};
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
    frame_v1_records(&c.batches.iter().map(|b| b.to_bytes()).collect::<Vec<_>>())
}

/// [`frame_v1`] over serialized batches, whatever their tags.
fn frame_v1_records(records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = MAGIC.to_le_bytes().to_vec();
    out.push(1);
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for bytes in records {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

/// What a writer of the retired tag 10 (TOC under the varint physical
/// codec) left behind: a v1 file whose one record is the golden varint
/// batch, and a v2 file whose segments and footer leaves name tag 10 —
/// bit-packed bodies and the footer checksum resealed, so the tag is all
/// that is wrong with it.
fn retired_tag_images() -> [(&'static str, Vec<u8>); 2] {
    let record = std::fs::read(golden_dir().join("toc_varint.bin")).unwrap();
    let v1 = frame_v1_records(&[record]);

    let m = pool_matrix(24, 4, 0.5, 17);
    let c = Container::encode_with(&m, Scheme::Toc, 8, &EncodeOptions::default());
    let mut v2 = c.to_bytes().unwrap();
    let (ps, mut footer) = {
        let sc = SeekableContainer::from_slice(&v2).unwrap();
        (*sc.postscript().unwrap(), sc.footer().clone())
    };
    fn retag(node: &mut LayoutNode, file: &mut [u8]) {
        if node.is_leaf() {
            node.scheme = Some(10);
            file[node.begin as usize] = 10;
        }
        for child in &mut node.children {
            retag(child, file);
        }
    }
    retag(&mut footer.root, &mut v2);
    let fbytes = footer.to_bytes();
    assert_eq!(fbytes.len() as u64, ps.footer_len);
    let at = ps.footer_offset as usize;
    v2[at..at + fbytes.len()].copy_from_slice(&fbytes);
    // The postscript's third field, after the footer's offset and length.
    let sum = v2.len() - POSTSCRIPT_LEN + 16;
    v2[sum..sum + 8].copy_from_slice(&fnv1a64(&fbytes).to_le_bytes());
    [("v1 tag-10 record", v1), ("v2 tag-10 leaves", v2)]
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
    let footer = SeekableContainer::from_slice(&v2).unwrap().footer().clone();
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
    let ps = *SeekableContainer::from_slice(&good)
        .unwrap()
        .postscript()
        .unwrap();
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

/// A temp file removed on drop.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The file source gets the byte sweeps. For a small v2 container of every
/// scheme and the v1 golden, every truncation and every single-bit flip of
/// the framing (v2: header, postscript and footer; v1: the whole file —
/// its framing is spread through it), written to a file, must open and
/// decode through `SeekableContainer::open` exactly as
/// `Container::from_bytes` parses it from memory: the same `Ok` / `Err`,
/// the same values when accepted, never a panic.
#[test]
fn file_source_matches_from_bytes_on_every_truncation_and_framing_flip() {
    let tmp = TempFile(
        std::env::temp_dir().join(format!("toc-container-sweep-{}.tocz", std::process::id())),
    );
    let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let check = |bytes: &[u8], what: &dyn Fn() -> String| {
        std::fs::write(&tmp.0, bytes).unwrap();
        let file = SeekableContainer::open(&tmp.0).and_then(|sc| {
            (0..sc.num_segments())
                .map(|i| sc.segment(i))
                .collect::<Result<Vec<_>, _>>()
        });
        match (file, Container::from_bytes(bytes)) {
            (Ok(file), Ok(slice)) => {
                assert_eq!(file.len(), slice.batches.len(), "{}", what());
                for (f, s) in file.iter().zip(&slice.batches) {
                    assert_eq!((f.rows(), f.cols()), (s.rows(), s.cols()), "{}", what());
                    if f.rows() <= 4096 && f.cols() <= 4096 {
                        assert_eq!(bits(&f.decode()), bits(&s.decode()), "{}", what());
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (file, slice) => panic!(
                "{}: file {:?} but slice {:?}",
                what(),
                file.err(),
                slice.err()
            ),
        }
    };
    let m = pool_matrix(24, 4, 0.5, 17);
    let golden = std::fs::read(golden_dir().join("container_v1.tocz")).unwrap();
    let mut images = vec![("v1 golden", golden)];
    for scheme in Scheme::ALL {
        let c = Container::encode_with(&m, scheme, 8, &EncodeOptions::default());
        images.push((scheme.name(), c.to_bytes().unwrap()));
    }
    images.extend(retired_tag_images());
    for (name, good) in &images {
        // The version byte, not an open: the retired-tag images do not open.
        let framing: Vec<usize> = if good[HEADER_LEN - 1] == 2 {
            let ps = Postscript::parse(&good[good.len() - POSTSCRIPT_LEN..]).unwrap();
            (0..HEADER_LEN)
                .chain(ps.footer_offset as usize..good.len())
                .collect()
        } else {
            (0..good.len()).collect()
        };
        for len in 0..good.len() {
            check(&good[..len], &|| format!("{name} truncated to {len}"));
        }
        for pos in framing {
            for bit in 0..8 {
                let mut bytes = good.clone();
                bytes[pos] ^= 1 << bit;
                check(&bytes, &|| format!("{name} byte {pos} bit {bit}"));
            }
        }
    }
}

/// Files naming the retired tag 10 are refused whole, as typed errors:
/// the v1 file by its record's parse, the v2 file at open — from a slice
/// or a file — by the footer's scheme-tag check, before any segment is
/// read.
#[test]
fn files_naming_the_retired_tag_are_refused() {
    let [(_, v1), (_, v2)] = retired_tag_images();
    assert_eq!(
        Container::from_bytes(&v1).err().unwrap(),
        FormatError::WrongScheme {
            expected: "any",
            got: 10
        }
    );
    let tmp = TempFile(
        std::env::temp_dir().join(format!("toc-container-retired-{}.tocz", std::process::id())),
    );
    std::fs::write(&tmp.0, &v2).unwrap();
    let unknown_tag = |e: FormatError| {
        assert!(
            matches!(&e, FormatError::Corrupt(m) if m.contains("unknown scheme tag 10")),
            "v2: {e}"
        )
    };
    unknown_tag(SeekableContainer::open(&tmp.0).err().unwrap());
    unknown_tag(SeekableContainer::from_slice(&v2).err().unwrap());
    unknown_tag(Container::from_bytes(&v2).err().unwrap());
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
        let bytes = c.to_bytes().unwrap();
        let reader = SeekableContainer::from_slice(&bytes).unwrap();
        let part = reader.decode_rows(r0, r1).unwrap();
        prop_assert_eq!(part.rows(), r1 - r0);
        for r in r0..r1 {
            prop_assert_eq!(part.row(r - r0), m.row(r));
        }
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
        let footer = SeekableContainer::from_slice(&bytes).unwrap().footer().clone();
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
        let footer = SeekableContainer::from_slice(&bytes).unwrap().footer().clone();
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
    for scheme in [Scheme::Toc, Scheme::TocSparseLogical] {
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
