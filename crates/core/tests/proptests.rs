//! Property-based tests for the TOC pipeline: lossless roundtrips and
//! kernel-vs-oracle equality on arbitrary matrices across sparsity regimes.

use proptest::prelude::*;
use toc_core::{DecodeTree, KernelScratch, LivePlan, PhysicalCodec, TocBatch};
use toc_linalg::dense::max_abs_diff_vec;
use toc_linalg::DenseMatrix;

/// Strategy: a matrix whose cells are drawn from a small value pool (TOC's
/// target regime) with the given density.
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_rows, 1..=max_cols, 0.0f64..=1.0).prop_flat_map(|(rows, cols, density)| {
        let pool = prop::collection::vec(-100.0f64..100.0, 1..6);
        (
            Just(rows),
            Just(cols),
            pool,
            prop::collection::vec(0.0f64..1.0, rows * cols),
            prop::collection::vec(0usize..5, rows * cols),
            Just(density),
        )
            .prop_map(|(rows, cols, pool, coins, picks, density)| {
                let data = coins
                    .iter()
                    .zip(&picks)
                    .map(|(&coin, &pick)| {
                        if coin < density {
                            pool[pick % pool.len()]
                        } else {
                            0.0
                        }
                    })
                    .collect();
                DenseMatrix::from_vec(rows, cols, data)
            })
    })
}

/// Matrices with fully arbitrary (possibly non-finite-free) doubles.
fn wild_matrix_strategy() -> impl Strategy<Value = DenseMatrix> {
    (1usize..20, 1usize..20).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(
            prop_oneof![
                Just(0.0f64),
                -1e300f64..1e300,
                Just(-0.0f64),
                Just(f64::MIN_POSITIVE),
            ],
            rows * cols,
        )
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data))
    })
}

/// What a damaged buffer may do: fail to parse, or parse into a batch on
/// which `decode` and all five kernels return. The parse keeps the tree the
/// kernels run on, so a check the replay skipped would surface here as an
/// index out of bounds.
fn parse_and_run(bytes: Vec<u8>) {
    let Ok(toc) = TocBatch::from_bytes(bytes) else {
        return;
    };
    // Nothing in the buffer backs the header's column count: a damaged one
    // can claim a shape no machine holds a dense result for. Such a batch
    // is parsed above and not run.
    if toc.rows().saturating_mul(toc.cols()) > 1 << 20 {
        return;
    }
    let _ = toc.decode();
    let mut ws = KernelScratch::default();
    let (mut out_v, mut out_m) = (Vec::new(), DenseMatrix::default());
    toc.matvec_into(&vec![1.5; toc.cols()], &mut out_v, &mut ws)
        .unwrap();
    toc.vecmat_into(&vec![-0.5; toc.rows()], &mut out_v, &mut ws)
        .unwrap();
    let m = DenseMatrix::from_vec(toc.cols(), 3, vec![0.25; toc.cols() * 3]);
    toc.matmat_into(&m, &mut out_m, &mut ws).unwrap();
    let m = DenseMatrix::from_vec(3, toc.rows(), vec![2.0; toc.rows() * 3]);
    toc.matmat_left_into(&m, &mut out_m, &mut ws).unwrap();
    toc.decode_into(&mut out_m, &mut ws);
}

/// Small batches with every structure the replay walks: repeated motifs
/// (deep nodes, the LZW self-reference), empty rows between full ones, and
/// more than 255 nodes so that `D` is packed two bytes wide.
fn sweep_batches() -> Vec<Vec<u8>> {
    let motif = |r: usize, c: usize| match (r % 5, c % 4) {
        (4, _) => 0.0,
        (k, j) if (k + j) % 3 == 0 => 0.0,
        (k, j) => (k * 4 + j) as f64 * 0.5,
    };
    let small = DenseMatrix::from_vec(9, 7, (0..63).map(|i| motif(i / 7, i % 7)).collect());
    let wide = DenseMatrix::from_vec(
        40,
        23,
        (0..40 * 23)
            .map(|i| motif(i / 23 + (i * 7) % 3, i % 23 + i / 97))
            .collect(),
    );
    let mut out = Vec::new();
    for a in [&small, &wide] {
        for codec in [PhysicalCodec::BitPack, PhysicalCodec::Varint] {
            let toc = TocBatch::encode_with(a, codec);
            assert_eq!(toc.decode(), *a);
            out.push(toc.to_bytes());
        }
    }
    assert!(TocBatch::encode(&wide).stats().n_nodes > 256);
    out
}

#[test]
fn truncated_and_bit_flipped_batches_error_or_run() {
    for good in sweep_batches() {
        for len in 0..good.len() {
            assert!(TocBatch::from_bytes(good[..len].to_vec()).is_err(), "{len}");
        }
        for i in 0..good.len() {
            for mask in [0x01, 0x10, 0x80, 0xFF] {
                let mut b = good.clone();
                b[i] ^= mask;
                parse_and_run(b);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multi_byte_mutations_error_or_run(
        which in 0usize..4,
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let mut bytes = sweep_batches().swap_remove(which);
        for (at, to) in edits {
            let at = at % bytes.len();
            bytes[at] = to;
        }
        parse_and_run(bytes);
    }

    #[test]
    fn roundtrip_is_lossless(a in matrix_strategy(40, 30)) {
        let toc = TocBatch::encode(&a);
        prop_assert_eq!(toc.decode(), a);
    }

    #[test]
    fn roundtrip_is_lossless_wild_values(a in wild_matrix_strategy()) {
        let toc = TocBatch::encode(&a);
        let back = toc.decode();
        // Bit-exact comparison, except that sparse encoding canonicalizes
        // -0.0 to +0.0 (zeros are elided and re-materialized as +0.0).
        for (x, y) in a.data().iter().zip(back.data()) {
            if *x == 0.0 {
                prop_assert_eq!(*y, 0.0);
            } else {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn varint_codec_is_also_lossless(a in matrix_strategy(30, 20)) {
        let toc = TocBatch::encode_with(&a, PhysicalCodec::Varint);
        prop_assert_eq!(toc.decode(), a);
    }

    #[test]
    fn serialization_roundtrip(a in matrix_strategy(25, 20)) {
        let toc = TocBatch::encode(&a);
        let restored = TocBatch::from_bytes(toc.to_bytes()).unwrap();
        prop_assert_eq!(restored.decode(), a);
    }

    #[test]
    fn matvec_matches_oracle(a in matrix_strategy(30, 25), seed in 0u64..1000) {
        let v: Vec<f64> = (0..a.cols()).map(|i| ((i as u64 * 2654435761 + seed) % 17) as f64 - 8.0).collect();
        let toc = TocBatch::encode(&a);
        let got = toc.matvec(&v).unwrap();
        let want = a.matvec(&v);
        prop_assert!(max_abs_diff_vec(&got, &want) < 1e-6 * (1.0 + a.cols() as f64));
    }

    #[test]
    fn vecmat_matches_oracle(a in matrix_strategy(30, 25), seed in 0u64..1000) {
        let v: Vec<f64> = (0..a.rows())
            .map(|i| ((i as u64).wrapping_mul(11400714819323198485).wrapping_add(seed) % 13) as f64 - 6.0)
            .collect();
        let toc = TocBatch::encode(&a);
        let got = toc.vecmat(&v).unwrap();
        let want = a.vecmat(&v);
        prop_assert!(max_abs_diff_vec(&got, &want) < 1e-6 * (1.0 + a.rows() as f64));
    }

    #[test]
    fn matmat_matches_oracle(a in matrix_strategy(20, 15), p in 1usize..8) {
        let m = DenseMatrix::from_vec(
            a.cols(), p,
            (0..a.cols() * p).map(|i| ((i * 7919) % 23) as f64 * 0.25 - 2.5).collect(),
        );
        let toc = TocBatch::encode(&a);
        let got = toc.matmat(&m).unwrap();
        prop_assert!(got.max_abs_diff(&a.matmat(&m)) < 1e-6);
    }

    #[test]
    fn matmat_left_matches_oracle(a in matrix_strategy(20, 15), p in 1usize..8) {
        let m = DenseMatrix::from_vec(
            p, a.rows(),
            (0..a.rows() * p).map(|i| ((i * 104729) % 19) as f64 * 0.5 - 4.0).collect(),
        );
        let toc = TocBatch::encode(&a);
        let got = toc.matmat_left(&m).unwrap();
        prop_assert!(got.max_abs_diff(&a.matmat_left(&m)) < 1e-6);
    }

    #[test]
    fn live_plan_is_the_referenced_part_of_the_tree(a in matrix_strategy(30, 25), varint in any::<bool>()) {
        let codec = if varint { PhysicalCodec::Varint } else { PhysicalCodec::BitPack };
        let toc = TocBatch::encode_with(&a, codec);
        let view = toc.view();
        let tree = DecodeTree::build(&view).unwrap();
        let plan = LivePlan::build(&view, &tree);
        let live = plan.live() as u32;

        // Live ∪ dead == C': slots are handed out in creation order
        // without gaps, and a live node keeps its key and its parent.
        let mut next = 0u32;
        for node in 0..tree.len() as u32 {
            if let Some(slot) = plan.slot_of(node) {
                prop_assert_eq!(slot, next);
                next += 1;
                let s = slot as usize;
                prop_assert_eq!(plan.key_col[s], tree.key_col[node as usize]);
                prop_assert_eq!(plan.key_val[s].to_bits(), tree.key_val[node as usize].to_bits());
                prop_assert_eq!(Some(plan.parent[s]), plan.slot_of(tree.parent[node as usize]));
            }
        }
        prop_assert_eq!(next, live);
        prop_assert_eq!(plan.slot_of(0), Some(0));
        for s in 1..plan.live() {
            prop_assert!(plan.parent[s] < s as u32, "slot {} has parent {}", s, plan.parent[s]);
        }

        // Every remapped code is a live, non-root slot, and is the slot
        // of the code D holds at that position.
        prop_assert_eq!(plan.codes.len(), view.codes_len());
        for (k, &c) in plan.codes.iter().enumerate() {
            prop_assert!(c >= 1 && c < live);
            prop_assert_eq!(Some(c), plan.slot_of(view.code(k)));
        }

        // A node is dead exactly when no code reaches it: every live
        // leaf-ward end is named by D.
        let mut reached = vec![false; plan.live()];
        reached[0] = true;
        for &c in &plan.codes {
            let mut s = c as usize;
            while !reached[s] {
                reached[s] = true;
                s = plan.parent[s] as usize;
            }
        }
        prop_assert!(reached.iter().all(|&r| r));

        // Decoding every row through the plan == decode_sparse.
        let sparse = toc.decode_sparse();
        prop_assert_eq!((plan.rows, plan.cols), (a.rows(), a.cols()));
        for r in 0..plan.rows {
            let mut pairs = Vec::new();
            for &c in plan.row_codes(r) {
                let at = pairs.len();
                let mut s = c as usize;
                while s != 0 {
                    pairs.insert(at, (plan.key_col[s], plan.key_val[s].to_bits()));
                    s = plan.parent[s] as usize;
                }
            }
            let want: Vec<(u32, u64)> = sparse.row(r).iter().map(|p| (p.col, p.val.to_bits())).collect();
            prop_assert_eq!(pairs, want, "row {}", r);
        }
    }

    #[test]
    fn scale_commutes_with_decode(a in matrix_strategy(20, 15), c in -10.0f64..10.0) {
        let mut toc = TocBatch::encode(&a);
        toc.scale(c);
        let mut want = a.clone();
        want.scale(c);
        prop_assert!(toc.decode().max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = TocBatch::from_bytes(bytes);
    }

    #[test]
    fn compressed_size_never_catastrophically_larger(a in matrix_strategy(30, 20)) {
        // TOC may be larger than DEN on tiny or adversarial inputs, but
        // must stay within a small constant factor of the sparse pair count.
        let toc = TocBatch::encode(&a);
        let bound = 64 + 16 * a.nnz() + 5 * a.rows() + a.rows() * a.cols();
        prop_assert!(toc.size_bytes() <= bound, "{} > {}", toc.size_bytes(), bound);
    }
}
