//! Cross-format oracle tests: every scheme must (a) roundtrip losslessly,
//! (b) agree with the dense reference on all five matrix operations, and
//! (c) survive serialization.

use proptest::prelude::*;
use toc_formats::{AnyBatch, MatrixBatch, Scheme};
use toc_linalg::dense::max_abs_diff_vec;
use toc_linalg::DenseMatrix;

mod common;
use common::pool_matrix;

#[test]
fn every_scheme_roundtrips_and_matches_oracle() {
    for (rows, cols, density) in [(30, 20, 0.3), (12, 8, 1.0), (25, 40, 0.05), (10, 3, 0.0)] {
        let a = pool_matrix(rows, cols, density, 42);
        let v: Vec<f64> = (0..cols).map(|i| (i % 5) as f64 - 2.0).collect();
        let w: Vec<f64> = (0..rows).map(|i| (i % 3) as f64 * 0.5).collect();
        let mr = pool_matrix(cols, 6, 0.8, 7);
        let ml = pool_matrix(5, rows, 0.8, 9);
        let want_mv = a.matvec(&v);
        let want_vm = a.vecmat(&w);
        let want_mm = a.matmat(&mr);
        let want_mml = a.matmat_left(&ml);
        for scheme in Scheme::ALL {
            let b = scheme.encode(&a);
            assert_eq!(b.rows(), rows, "{}", scheme.name());
            assert_eq!(b.cols(), cols, "{}", scheme.name());
            assert_eq!(b.decode(), a, "{} decode", scheme.name());
            assert!(
                max_abs_diff_vec(&b.matvec(&v), &want_mv) < 1e-9,
                "{} matvec",
                scheme.name()
            );
            assert!(
                max_abs_diff_vec(&b.vecmat(&w), &want_vm) < 1e-9,
                "{} vecmat",
                scheme.name()
            );
            assert!(
                b.matmat(&mr).max_abs_diff(&want_mm) < 1e-9,
                "{} matmat",
                scheme.name()
            );
            assert!(
                b.matmat_left(&ml).max_abs_diff(&want_mml) < 1e-9,
                "{} matmat_left",
                scheme.name()
            );
        }
    }
}

#[test]
fn every_scheme_serializes() {
    let a = pool_matrix(20, 15, 0.4, 5);
    for scheme in Scheme::ALL {
        let b = scheme.encode(&a);
        let bytes = b.to_bytes();
        let restored = Scheme::from_bytes(&bytes).unwrap_or_else(|e| {
            panic!("{}: {e}", scheme.name());
        });
        assert_eq!(restored.decode(), a, "{}", scheme.name());
    }
}

#[test]
fn scale_is_consistent_everywhere() {
    let a = pool_matrix(15, 10, 0.5, 11);
    let mut want = a.clone();
    want.scale(-1.75);
    for scheme in Scheme::ALL {
        let mut b = scheme.encode(&a);
        b.scale(-1.75);
        assert!(b.decode().max_abs_diff(&want) < 1e-12, "{}", scheme.name());
    }
}

#[test]
fn compression_ratio_ordering_on_redundant_batches() {
    // A moderately sparse batch with heavy cross-row repetition, the TOC
    // sweet spot: TOC must beat CSR/CVI/DVI and be competitive with GC.
    let motifs: Vec<Vec<f64>> = (0..6)
        .map(|k| {
            (0..80)
                .map(|c| {
                    if (c + k) % 4 == 0 {
                        ((c % 3) as f64) + 1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let rows: Vec<Vec<f64>> = (0..250).map(|r| motifs[r % 6].clone()).collect();
    let a = DenseMatrix::from_rows(rows);
    let size = |s: Scheme| s.encode(&a).size_bytes() as f64;
    let den = size(Scheme::Den);
    let ratio = |s: Scheme| den / size(s);
    assert!(
        ratio(Scheme::Toc) > ratio(Scheme::Csr),
        "TOC must beat CSR here"
    );
    assert!(
        ratio(Scheme::Toc) > ratio(Scheme::Cvi),
        "TOC must beat CVI here"
    );
    assert!(
        ratio(Scheme::Toc) > ratio(Scheme::Dvi),
        "TOC must beat DVI here"
    );
    assert!(
        ratio(Scheme::Toc) > 10.0,
        "TOC ratio {}",
        ratio(Scheme::Toc)
    );
}

#[test]
fn mismatched_tag_is_an_error() {
    assert!(Scheme::from_bytes(&[]).is_err());
    assert!(Scheme::from_bytes(&[99, 0, 0]).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_all_schemes_roundtrip(
        rows in 1usize..20,
        cols in 1usize..16,
        density in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let a = pool_matrix(rows, cols, density, seed);
        for scheme in Scheme::ALL {
            let b = scheme.encode(&a);
            prop_assert_eq!(b.decode(), a.clone(), "{}", scheme.name());
            prop_assert_eq!(b.size_bytes() > 0, true);
        }
    }

    #[test]
    fn prop_from_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        if let Ok(b) = Scheme::from_bytes(&bytes) {
            let _ = b.rows();
            let _ = b.size_bytes();
        }
    }

    /// Structured mutations of *valid* containers: random byte flips at
    /// random positions (random bytes from 0..200 almost never get past
    /// the tag byte; this starts from well-formed containers so the
    /// deeper parse paths get fuzzed too).
    #[test]
    fn prop_mutated_valid_containers_never_panic(
        scheme_idx in 0usize..Scheme::ALL.len(),
        seed in 0u64..500,
        flips in prop::collection::vec((0usize..4096, 0u8..8), 1..4),
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let a = pool_matrix(11, 7, 0.5, seed);
        let mut bytes = scheme.encode(&a).to_bytes();
        for (pos, bit) in flips {
            let n = bytes.len();
            bytes[pos % n] ^= 1 << bit;
        }
        if let Ok(b) = Scheme::from_bytes(&bytes) {
            // Accepted mutants must still be safe to use.
            exercise_accepted_mutant(&b);
        }
    }
}

/// Use an accepted mutant the way a reader would, without tripping the
/// one *by-design* hazard: some formats self-describe a dimension (width
/// for the sparse encodings; either dimension when the matrix has zero
/// area), so a flipped high bit can yield a legitimate, astronomically
/// large claimed shape whose kernel *outputs* would allocate that many
/// doubles. That is an inherent property of the shape, not a parser bug —
/// so kernels and dense decode are only exercised at sane dimensions.
fn exercise_accepted_mutant(b: &AnyBatch) {
    let _ = b.size_bytes();
    let _ = b.to_bytes();
    let sane = |n: usize| n <= 1 << 20;
    if sane(b.cols()) && sane(b.rows()) {
        let _ = b.matvec(&vec![1.0; b.cols()]);
    }
    if b.rows().checked_mul(b.cols()).is_some_and(|n| n <= 1 << 22) {
        let _ = b.decode();
    }
}

/// Every strict truncation of a valid container must be rejected with an
/// error (never accepted, never a panic): all wire formats carry explicit
/// section lengths and a trailing-bytes check, so missing bytes are
/// always detectable.
#[test]
fn truncated_containers_always_error() {
    let a = pool_matrix(13, 8, 0.5, 77);
    for scheme in Scheme::ALL {
        let good = scheme.encode(&a).to_bytes();
        for len in 0..good.len() {
            assert!(
                Scheme::from_bytes(&good[..len]).is_err(),
                "{}: truncation to {len}/{} bytes accepted",
                scheme.name(),
                good.len()
            );
        }
    }
}

/// Single-byte flips of the *detectable* header fields must be rejected:
/// those fields are cross-checked against the payload during parsing
/// (a bit-packed codec, section-length arithmetic, offset-table
/// shapes). Fields a format genuinely cannot cross-check are excluded
/// with a reason:
///
/// * sparse formats (CSR/CVI/CLA/TOC*) self-describe their column count —
///   a larger `cols` is a valid wider matrix, not corruption;
/// * `TOC_SPARSE_AND_LOGICAL`'s leading `logical_size` is reporting
///   metadata, constrained by nothing;
/// * the GC formats' `rows`/`cols` *are* checked (against the
///   decompressed payload length), so they are included.
///
/// Flips outside these ranges only need to never panic (tests below).
#[test]
#[allow(clippy::single_range_in_vec_init)] // the vecs hold byte *ranges*, not range contents
fn header_field_flips_always_error() {
    let a = pool_matrix(13, 8, 0.5, 77);
    for scheme in Scheme::ALL {
        let good = scheme.encode(&a).to_bytes();
        let ranges: Vec<std::ops::Range<usize>> = match scheme {
            // tag, rows, cols — cols is cross-checked (DEN: payload
            // length; DVI: rows*cols == index count; GC: decompressed
            // payload length; CLA: groups must partition the columns).
            Scheme::Den
            | Scheme::Dvi
            | Scheme::Snappy
            | Scheme::Gzip
            | Scheme::GcAns
            | Scheme::Cla => {
                vec![0..9]
            }
            // tag, rows only (cols is self-describing).
            Scheme::Csr | Scheme::Cvi | Scheme::TocSparse => vec![0..5],
            // tag, TOC magic, version, codec (must be bit packing),
            // padding (must be zero), rows.
            Scheme::Toc => vec![0..13],
            // tag; then skip logical_size (1..5); magic, version, codec,
            // pad + rows (5..17).
            Scheme::TocSparseLogical => vec![0..1, 5..17],
        };
        for range in ranges {
            for pos in range {
                for bit in 0..8 {
                    let mut b = good.clone();
                    b[pos] ^= 1 << bit;
                    assert!(
                        Scheme::from_bytes(&b).is_err(),
                        "{}: flipping bit {bit} of header byte {pos} was accepted",
                        scheme.name()
                    );
                }
            }
        }
    }
}

#[test]
fn single_byte_flips_never_panic_exhaustively() {
    // Deterministic exhaustive sweep (the proptest samples randomly):
    // every byte, two bit positions, every scheme.
    let a = pool_matrix(9, 6, 0.6, 5);
    for scheme in Scheme::ALL {
        let good = scheme.encode(&a).to_bytes();
        for pos in 0..good.len() {
            for mask in [0x01u8, 0x80u8] {
                let mut b = good.clone();
                b[pos] ^= mask;
                if let Ok(batch) = Scheme::from_bytes(&b) {
                    exercise_accepted_mutant(&batch);
                }
            }
        }
    }
}

#[test]
fn anybatch_is_object_safe_through_trait() {
    let a = pool_matrix(8, 6, 0.5, 1);
    let batches: Vec<AnyBatch> = Scheme::ALL.iter().map(|s| s.encode(&a)).collect();
    let total: usize = batches.iter().map(|b| b.size_bytes()).sum();
    assert!(total > 0);
}
