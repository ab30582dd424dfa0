//! Property-based tests for the TOC pipeline: lossless roundtrips and
//! kernel-vs-oracle equality on arbitrary matrices across sparsity regimes.

use proptest::prelude::*;
use toc_core::{DecodeTree, KernelScratch, LivePlan, PhysicalCodec, TocBatch, TocView};
use toc_linalg::dense::max_abs_diff_vec;
use toc_linalg::sparse::{ColVal, SparseRows};
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

/// Sparse tables whose columns are multiples of a stride of 1, 300, 70 000
/// or 20 000 000: `I`'s column indexes then pack 1, 2, 3 or 4 bytes wide.
/// Rows take a random subset of eight such columns, values from a small
/// pool, so the dictionary grows deep motifs as well.
fn sparse_strategy() -> impl Strategy<Value = SparseRows> {
    (
        prop_oneof![Just(1u32), Just(300), Just(70_000), Just(20_000_000)],
        prop::collection::vec(prop::collection::vec((any::<bool>(), 0usize..3), 8), 0..40),
    )
        .prop_map(|(stride, rows)| {
            const POOL: [f64; 3] = [1.5, -2.0, 0.25];
            let mut pairs = Vec::new();
            let mut offsets = vec![0];
            for row in &rows {
                for (j, &(on, v)) in row.iter().enumerate() {
                    if on {
                        pairs.push(ColVal {
                            col: stride * j as u32,
                            val: POOL[v],
                        });
                    }
                }
                offsets.push(pairs.len());
            }
            SparseRows::from_parts(rows.len(), 8 * stride as usize, pairs, offsets)
        })
}

/// Algorithm 2 as the paper writes it: every node of `C'` gets a copy of
/// its key pair, read out of the first layer through `F` (the first-layer
/// node its sequence starts with). The replay [`DecodeTree`] keeps only
/// that first-layer node; the two must name the same pairs.
struct PaperTree {
    key_col: Vec<u32>,
    key_val: Vec<f64>,
    parent: Vec<u32>,
}

fn paper_replay(view: &TocView<'_>) -> PaperTree {
    let mut t = PaperTree {
        key_col: vec![0],
        key_val: vec![0.0],
        parent: vec![0],
    };
    let mut first = vec![0u32];
    for i in 0..view.first_layer_len() {
        let pair = view.first_layer(i);
        t.key_col.push(pair.col);
        t.key_val.push(pair.val);
        t.parent.push(0);
        first.push(i as u32 + 1);
    }
    for r in 0..view.rows {
        let (s, e) = view.row_range(r);
        for j in s + 1..e {
            let (a, b) = (view.code(j - 1) as usize, view.code(j) as usize);
            t.parent.push(a as u32);
            first.push(first[a]);
            let f = first[b] as usize;
            t.key_col.push(t.key_col[f]);
            t.key_val.push(t.key_val[f]);
        }
    }
    t
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
/// which `decode` and all six kernels return. The parse keeps the tree the
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
    let d = DenseMatrix::from_vec(toc.rows(), 3, vec![-1.0; toc.rows() * 3]);
    toc.matmat_t_into(&d, &mut out_m, &mut ws).unwrap();
    toc.decode_into(&mut out_m, &mut ws);
}

/// `rows × p` doubles from `seed`; with `special`, about a third of them
/// are `0.0`, `-0.0`, `±inf` or NaN.
fn operand(rows: usize, p: usize, seed: u64, special: bool) -> DenseMatrix {
    const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut x = seed | 1;
    let data = (0..rows * p)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 9 {
                0..=2 if special => SPECIAL[(x >> 8) as usize % 5],
                _ => ((x >> 11) % 1000) as f64 / 250.0 - 2.0,
            }
        })
        .collect();
    DenseMatrix::from_vec(rows, p, data)
}

/// Same shape and the same bits, element by element; a NaN only has to be
/// a NaN.
fn same_bits(got: &DenseMatrix, want: &DenseMatrix) -> bool {
    (got.rows(), got.cols()) == (want.rows(), want.cols())
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
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
    fn matmat_t_matches_oracle(
        a in prop_oneof![
            9 => matrix_strategy(20, 15),
            1 => (1usize..15).prop_map(|cols| DenseMatrix::zeros(0, cols)),
        ],
        p in 1usize..20,
        seed in any::<u64>(),
        special in any::<bool>(),
        infinite_batch in any::<bool>(),
        varint in any::<bool>(),
    ) {
        // `Aᵀ·D` is `M·A` with `M = Dᵀ`, transposed, bit for bit: across
        // tail blocks (`p` not a multiple of 8), empty tuples, a batch with
        // no rows, non-finite operands and, with `scale(inf)`, non-finite
        // keys.
        let codec = if varint { PhysicalCodec::Varint } else { PhysicalCodec::BitPack };
        let mut toc = TocBatch::encode_with(&a, codec);
        if infinite_batch {
            toc.scale(f64::INFINITY);
        }
        let d = operand(a.rows(), p, seed, special);
        let want = toc.matmat_left(&d.transpose()).unwrap().transpose();
        let mut ws = KernelScratch::default();
        let mut out = DenseMatrix::default();
        toc.matmat_t_into(&d, &mut out, &mut ws).unwrap();
        prop_assert!(same_bits(&out, &want));
        // Again through the same scratch, after an `A·M` that wrote its
        // own accumulator: what the first call left behind must not show.
        let m = operand(a.cols(), p, !seed, special);
        toc.matmat_into(&m, &mut out, &mut ws).unwrap();
        toc.matmat_t_into(&d, &mut out, &mut ws).unwrap();
        prop_assert!(same_bits(&out, &want));
    }

    #[test]
    fn live_plan_is_the_referenced_part_of_the_tree(a in matrix_strategy(30, 25), varint in any::<bool>()) {
        let codec = if varint { PhysicalCodec::Varint } else { PhysicalCodec::BitPack };
        let toc = TocBatch::encode_with(&a, codec);
        let view = toc.view();
        let tree = DecodeTree::build(&view).unwrap();
        let plan = LivePlan::build(&tree);
        let live = plan.live() as u32;

        // Live ∪ dead == C': slots are handed out in creation order
        // without gaps, and a live node keeps its key and its parent.
        let mut next = 0u32;
        for node in 0..tree.len() as u32 {
            if let Some(slot) = plan.slot_of(node) {
                prop_assert_eq!(slot, next);
                next += 1;
                let s = slot as usize;
                let (key_col, key_val) = tree.key_of(node);
                prop_assert_eq!(plan.key_col[s], key_col);
                prop_assert_eq!(plan.key_val[s].to_bits(), key_val.to_bits());
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
    fn the_replay_is_algorithm_2_keyed_into_the_first_layer(
        sparse in sparse_strategy(),
        varint in any::<bool>(),
    ) {
        let codec = if varint { PhysicalCodec::Varint } else { PhysicalCodec::BitPack };
        let toc = TocBatch::from_sparse(&sparse, codec);
        let view = toc.view();
        let want = paper_replay(&view);
        let mut parsed = TocBatch::from_bytes(toc.to_bytes()).unwrap();
        let carried = parsed.carried_tree().expect("from_bytes keeps its tree");
        let built = DecodeTree::build_trusted(&view);
        for tree in [carried, &built] {
            prop_assert_eq!(&tree.parent, &want.parent);
            for node in 0..tree.len() {
                let (col, val) = tree.key_of(node as u32);
                prop_assert_eq!(col, want.key_col[node]);
                prop_assert_eq!(val.to_bits(), want.key_val[node].to_bits());
            }
            // `D` and the offsets, unpacked, are the view's.
            prop_assert_eq!((tree.rows, tree.cols), (view.rows, view.cols));
            prop_assert_eq!(tree.codes.len(), view.codes_len());
            for (k, &c) in tree.codes.iter().enumerate() {
                prop_assert_eq!(c, view.code(k));
            }
            for r in 0..view.rows {
                let (s, e) = view.row_range(r);
                prop_assert_eq!((tree.offsets[r] as usize, tree.offsets[r + 1] as usize), (s, e));
            }
        }
        prop_assert_eq!(parsed.decode_sparse(), sparse);
        parsed.shed_tree();
        prop_assert!(parsed.carried_tree().is_none());
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
