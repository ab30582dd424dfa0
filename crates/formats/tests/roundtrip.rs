//! Serialization round-trip tests over every scheme (paper set, ablations
//! and the varint extension), and equivalence tests asserting the
//! allocating and `*_into`/`*_into_ws` kernel API families produce
//! bit-identical results.

use proptest::prelude::*;
use toc_formats::{AnyBatch, ExecScratch, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

const ALL_SCHEMES: [Scheme; 11] = [
    Scheme::Den,
    Scheme::Csr,
    Scheme::Cvi,
    Scheme::Dvi,
    Scheme::Cla,
    Scheme::Snappy,
    Scheme::Gzip,
    Scheme::Toc,
    Scheme::TocSparse,
    Scheme::TocSparseLogical,
    Scheme::TocVarint,
];

fn pool_matrix(rows: usize, cols: usize, density: f64, seed: u64) -> DenseMatrix {
    let pool = [0.5, 1.5, -2.0, 3.25, 0.25];
    let mut m = DenseMatrix::zeros(rows, cols);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for r in 0..rows {
        for c in 0..cols {
            if (next() % 1000) as f64 / 1000.0 < density {
                m.set(r, c, pool[(next() % 5) as usize]);
            }
        }
    }
    m
}

/// `to_bytes -> Scheme::from_bytes -> to_bytes` must be byte-identical for
/// every scheme — in particular TOC_VARINT (tag 10) must keep its scheme
/// identity instead of collapsing into plain TOC (tag 7).
#[test]
fn serialization_roundtrip_is_byte_identical_for_every_scheme() {
    for (rows, cols, density) in [(40, 25, 0.35), (10, 8, 1.0), (20, 30, 0.0)] {
        let a = pool_matrix(rows, cols, density, 99);
        for scheme in ALL_SCHEMES {
            let b = scheme.encode(&a);
            let bytes = b.to_bytes();
            assert_eq!(bytes[0], scheme.tag(), "{} first byte", scheme.name());
            let restored =
                Scheme::from_bytes(&bytes).unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert_eq!(restored.decode(), a, "{} decode", scheme.name());
            assert_eq!(
                restored.to_bytes(),
                bytes,
                "{} re-serialization",
                scheme.name()
            );
        }
    }
}

#[test]
fn varint_tag_mismatch_is_rejected() {
    let a = pool_matrix(12, 9, 0.5, 3);
    // A varint body under the bit-pack tag (and vice versa) must error, not
    // silently reinterpret.
    let mut varint_bytes = Scheme::TocVarint.encode(&a).to_bytes();
    assert_eq!(varint_bytes[0], Scheme::TocVarint.tag());
    varint_bytes[0] = Scheme::Toc.tag();
    assert!(Scheme::from_bytes(&varint_bytes).is_err());

    let mut toc_bytes = Scheme::Toc.encode(&a).to_bytes();
    assert_eq!(toc_bytes[0], Scheme::Toc.tag());
    toc_bytes[0] = Scheme::TocVarint.tag();
    assert!(Scheme::from_bytes(&toc_bytes).is_err());
}

/// Exercise the whole `*_into_ws` family against the allocating family on one
/// batch, asserting bit-identical outputs. Buffers are deliberately dirty
/// (pre-filled with garbage of the wrong size) to prove the kernels reset
/// them.
fn assert_into_family_matches(b: &AnyBatch, a: &DenseMatrix, name: &str) {
    let rows = a.rows();
    let cols = a.cols();
    let v: Vec<f64> = (0..cols).map(|i| ((i % 7) as f64) - 3.0).collect();
    let w: Vec<f64> = (0..rows).map(|i| ((i % 5) as f64) * 0.5 - 1.0).collect();
    let mr = pool_matrix(cols, 6, 0.8, 7);
    let ml = pool_matrix(5, rows, 0.8, 9);

    let mut out_v = vec![f64::NAN; 3];
    let mut out_m = DenseMatrix::zeros(1, 1);
    let mut ws = ExecScratch::default();

    b.matvec_into_ws(&v, &mut out_v, &mut ws);
    assert_eq!(out_v, b.matvec(&v), "{name} matvec_into_ws");

    b.vecmat_into_ws(&w, &mut out_v, &mut ws);
    assert_eq!(out_v, b.vecmat(&w), "{name} vecmat_into_ws");

    b.matmat_into_ws(&mr, &mut out_m, &mut ws);
    assert_eq!(out_m, b.matmat(&mr), "{name} matmat_into_ws");

    b.matmat_left_into_ws(&ml, &mut out_m, &mut ws);
    assert_eq!(out_m, b.matmat_left(&ml), "{name} matmat_left_into_ws");

    b.decode_into_ws(&mut out_m, &mut ws);
    assert_eq!(out_m, *a, "{name} decode_into_ws");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn into_and_allocating_apis_are_bit_identical(
        rows in 1usize..24,
        cols in 1usize..18,
        density in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let a = pool_matrix(rows, cols, density, seed);
        for scheme in ALL_SCHEMES {
            let b = scheme.encode(&a);
            assert_into_family_matches(&b, &a, scheme.name());
        }
    }

    #[test]
    fn workspace_reuse_across_mixed_shapes_and_schemes(
        seed in 0u64..500,
    ) {
        // One scratch serving many batches of different shapes/schemes must
        // never leak state between calls.
        let mut ws = ExecScratch::default();
        let mut out = Vec::new();
        for (i, &(rows, cols)) in [(5usize, 17usize), (30, 4), (12, 12), (1, 9)].iter().enumerate() {
            let a = pool_matrix(rows, cols, 0.6, seed ^ (i as u64) << 7);
            let v: Vec<f64> = (0..cols).map(|c| (c % 3) as f64 - 1.0).collect();
            for scheme in [Scheme::Toc, Scheme::Gzip, Scheme::Cla, Scheme::TocVarint] {
                let b = scheme.encode(&a);
                b.matvec_into_ws(&v, &mut out, &mut ws);
                prop_assert_eq!(&out, &b.matvec(&v), "{} {}x{}", scheme.name(), rows, cols);
            }
        }
    }
}
