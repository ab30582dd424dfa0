//! Property tests for the CLA sample-based co-coding planner: arbitrary
//! batches × sample sizes must (a) decode byte-identically to the input,
//! (b) never materialize a co-coded dictionary beyond `MAX_DICT_ENTRIES`,
//! and (c) degenerate to an exact (sample-independent) plan when the
//! sample covers every row.

use proptest::prelude::*;
use toc_formats::cla::{planner, ClaBatch, ClaOptions, Group, MAX_DICT_ENTRIES};
use toc_formats::MatrixBatch;
use toc_linalg::DenseMatrix;

/// Deterministic batch with tunable redundancy: `pool` distinct values,
/// `density` non-zero fraction, plus duplicated columns every `dup`
/// columns (so plans actually have merges to find).
fn gen_matrix(
    rows: usize,
    cols: usize,
    density: f64,
    pool: usize,
    dup: usize,
    seed: u64,
) -> DenseMatrix {
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
            if dup > 1 && c % dup != 0 && c > 0 {
                let v = m.get(r, c - 1);
                m.set(r, c, if v == 0.0 { 0.0 } else { v + c as f64 });
                continue;
            }
            if (next() % 1000) as f64 / 1000.0 < density {
                m.set(r, c, ((next() % pool as u64) as f64 + 1.0) * 0.25);
            }
        }
    }
    m
}

fn sample_opts(sample_rows: usize) -> ClaOptions {
    ClaOptions { sample_rows }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planned encoding is lossless to the bit, for any sample size —
    /// including samples far smaller than the batch (estimates wrong) and
    /// far bigger (degenerate exact plan).
    #[test]
    fn prop_planned_encoding_decodes_byte_identically(
        rows in 0usize..80,
        cols in 1usize..24,
        density in 0.0f64..1.0,
        pool in 1usize..8,
        dup in 1usize..4,
        sample in 1usize..160,
        seed in 0u64..1000,
    ) {
        let a = gen_matrix(rows, cols, density, pool, dup, seed);
        let b = ClaBatch::encode_with(&a, &sample_opts(sample));
        let decoded = b.decode();
        prop_assert_eq!(decoded.rows(), a.rows());
        prop_assert_eq!(decoded.cols(), a.cols());
        // Bit-level equality, not just `==` (which would conflate 0.0
        // and -0.0 or miss NaN payloads).
        let same_bits = decoded
            .data()
            .iter()
            .zip(a.data())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        prop_assert!(same_bits, "decode not byte-identical");
        // And the wire roundtrip preserves the plan.
        let restored = wire_roundtrip(&b);
        prop_assert_eq!(restored.decode(), decoded);
    }

    /// Materialized co-coded groups never exceed the dictionary cap, no
    /// matter how wrong the sample estimates were.
    #[test]
    fn prop_multi_column_groups_respect_dict_cap(
        rows in 0usize..120,
        cols in 1usize..20,
        density in 0.0f64..1.0,
        pool in 1usize..32,
        sample in 1usize..64,
        seed in 0u64..1000,
    ) {
        let a = gen_matrix(rows, cols, density, pool, 2, seed);
        let b = ClaBatch::encode_with(&a, &sample_opts(sample));
        let mut covered = vec![false; cols];
        for g in b.groups() {
            match g {
                Group::Ddc { cols: gcols, dict, rowidx } => {
                    let width = gcols.len();
                    prop_assert!(width >= 1);
                    if width > 1 {
                        prop_assert!(
                            dict.len() / width <= MAX_DICT_ENTRIES,
                            "{} entries in a {}-column group",
                            dict.len() / width,
                            width
                        );
                    }
                    prop_assert_eq!(rowidx.len(), rows);
                    for &c in gcols {
                        prop_assert!(!covered[c as usize], "column {} in two groups", c);
                        covered[c as usize] = true;
                    }
                }
                Group::Uc { col, values } => {
                    prop_assert_eq!(values.len(), rows);
                    prop_assert!(!covered[*col as usize]);
                    covered[*col as usize] = true;
                }
            }
        }
        prop_assert!(covered.into_iter().all(|c| c), "some column unencoded");
    }

    /// `sample_rows >= nrows` is an exact plan: the layout no longer
    /// depends on the sample size.
    #[test]
    fn prop_full_sample_degenerates_to_exact_plan(
        rows in 1usize..60,
        cols in 1usize..16,
        density in 0.0f64..1.0,
        pool in 1usize..6,
        seed in 0u64..1000,
        extra in 0usize..100,
    ) {
        let a = gen_matrix(rows, cols, density, pool, 2, seed);
        let exact = planner::plan(&a, &sample_opts(rows));
        let over = planner::plan(&a, &sample_opts(rows + extra));
        prop_assert!(exact.exact && over.exact);
        prop_assert_eq!(&exact, &over);
        prop_assert_eq!(exact.sample_rows, rows);
        // And the two encodings are byte-identical on the wire.
        let b1 = ClaBatch::encode_with(&a, &sample_opts(rows));
        let b2 = ClaBatch::encode_with(&a, &sample_opts(rows + extra));
        prop_assert_eq!(b1.to_bytes(), b2.to_bytes());
    }
}

/// Serialize + reparse helper.
fn wire_roundtrip(b: &ClaBatch) -> ClaBatch {
    ClaBatch::from_body(&b.to_bytes()[1..]).expect("roundtrip")
}
