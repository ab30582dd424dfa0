//! The TOC matrix kernels against the kernels they replaced, and the
//! scratch that lets a batch's kernels share one `C'`.
//!
//! * `A·M` / `M·A` run on the batch's live plan in 8-column blocks; the
//!   unblocked loops over all of `C'` they replaced are restated here
//!   over the public view and tree, and the results must agree **bit for
//!   bit** on every dataset preset, both physical codecs, every
//!   block-tail shape of `M`, and operands holding exact zeros, `-0.0`,
//!   infinities and NaNs.
//! * One `ExecScratch` keeps the tree of the encoded batch it prepared
//!   last, keyed by the batch's bytes: whatever is done to a batch between
//!   two kernels, the second must never run on the first's tree.
//! * A batch parsed by `from_bytes` carries the tree its validation built:
//!   the scratch builds none for it, its kernels are bit-equal to the
//!   encoded batch's, and nothing — a `scale`, an encoded twin in the same
//!   scratch — makes a kernel run on a tree that is not the batch's own.
//! * The last test is the CI gate on the mechanism: per preset, how much
//!   of `C'` the live plan drops. Counts, not timings.

mod common;

use common::pool_matrix;
use toc_core::{DecodeTree, LivePlan, TocBatch, TocView};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{AnyBatch, ExecScratch, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

/// Algorithm 7 over all of `C'` with an `H` of `len(C') × p`, as
/// `toc_core::ops::matmat_into` was written before the live plan.
fn parent_matmat(view: &TocView<'_>, tree: &DecodeTree, m: &DenseMatrix) -> DenseMatrix {
    let p = m.cols();
    let n = tree.len();
    let mut h = vec![0.0; n * p];
    for i in 1..n {
        let key_val = tree.key_val[i];
        let mrow = m.row(tree.key_col[i] as usize);
        let parent = tree.parent[i] as usize;
        let (head, tail) = h.split_at_mut(i * p);
        let hp = &head[parent * p..parent * p + p];
        for ((o, &mp), &pp) in tail[..p].iter_mut().zip(mrow).zip(hp) {
            *o = key_val * mp + pp;
        }
    }
    let mut out = DenseMatrix::zeros(view.rows, p);
    for r in 0..view.rows {
        let (s, e) = view.row_range(r);
        let orow = out.row_mut(r);
        view.for_each_code_in(s, e, |c| {
            let hrow = &h[c as usize * p..c as usize * p + p];
            for (o, &x) in orow.iter_mut().zip(hrow) {
                *o += x;
            }
        });
    }
    out
}

/// Algorithm 8 over all of `C'`, element by element behind the
/// `w != 0.0` branch, as `toc_core::ops::matmat_left_into` was written
/// before the live plan.
fn parent_matmat_left(view: &TocView<'_>, tree: &DecodeTree, m: &DenseMatrix) -> DenseMatrix {
    let p = m.rows();
    let n = tree.len();
    let mut h = vec![0.0; n * p];
    for r in 0..view.rows {
        let (s, e) = view.row_range(r);
        view.for_each_code_in(s, e, |code| {
            let stripe = &mut h[code as usize * p..code as usize * p + p];
            for (q, sv) in stripe.iter_mut().enumerate() {
                *sv += m.get(q, r);
            }
        });
    }
    let mut out = DenseMatrix::zeros(p, view.cols);
    for i in (1..n).rev() {
        let col = tree.key_col[i] as usize;
        let key_val = tree.key_val[i];
        let parent = tree.parent[i] as usize;
        let (head, tail) = h.split_at_mut(i * p);
        let hp = &mut head[parent * p..parent * p + p];
        for q in 0..p {
            let w = tail[q];
            if w != 0.0 {
                out.set(q, col, out.get(q, col) + key_val * w);
                hp[q] += w;
            }
        }
    }
    out
}

/// Same shape and, element by element, the same bits — except that a NaN
/// only has to be a NaN.
fn assert_same_bits(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits(),
            "{what}: element {i}: {g:?} vs {w:?}"
        );
    }
}

/// A dense operand from an xorshift stream; with `special`, three cells in
/// ten hold one of the values the zero-weight select has to get right.
fn operand(rows: usize, cols: usize, seed: u64, special: bool) -> DenseMatrix {
    const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let data = (0..rows * cols)
        .map(|_| {
            let x = (next() % 2001) as f64 / 1000.0 - 1.0;
            if special && next() % 10 < 3 {
                SPECIAL[(next() % 5) as usize]
            } else {
                x
            }
        })
        .collect();
    DenseMatrix::from_vec(rows, cols, data)
}

fn toc_of(batch: &AnyBatch) -> &TocBatch {
    match batch {
        AnyBatch::Toc(b) => b.toc(),
        _ => panic!("not a TOC batch"),
    }
}

/// Every block-tail shape: no block, below, at and above one and several.
const WIDTHS: [usize; 9] = [0, 1, 3, 7, 8, 9, 20, 32, 33];

#[test]
fn matrix_kernels_match_the_kernels_they_replaced_on_every_preset() {
    // One scratch and one output across the whole grid.
    let mut ws = ExecScratch::default();
    let mut out = DenseMatrix::default();
    for preset in DatasetPreset::ALL {
        let x = generate_preset(preset, 250, 42).x;
        for scheme in [Scheme::Toc, Scheme::TocVarint] {
            let batch = scheme.encode(&x);
            let view = toc_of(&batch).view();
            let tree = DecodeTree::build_trusted(&view);
            for (k, p) in WIDTHS.into_iter().enumerate() {
                // Plain and special operands alternate down the list.
                let special = k % 2 == 1;
                let what = format!("{} {} p={p}", preset.name(), scheme.name());
                let m = operand(x.cols(), p, 7 + k as u64, special);
                batch.matmat_into_ws(&m, &mut out, &mut ws);
                assert_same_bits(&out, &parent_matmat(&view, &tree, &m), &what);
                let m = operand(p, x.rows(), 70 + k as u64, special);
                batch.matmat_left_into_ws(&m, &mut out, &mut ws);
                assert_same_bits(&out, &parent_matmat_left(&view, &tree, &m), &what);
            }
        }
    }
}

/// The four kernels on `batch` through `ws`, outputs concatenated.
fn run_all(batch: &AnyBatch, ws: &mut ExecScratch) -> Vec<f64> {
    let v = operand(batch.cols(), 1, 1, false);
    let w = operand(1, batch.rows(), 2, false);
    let mr = operand(batch.cols(), 11, 3, false);
    let ml = operand(11, batch.rows(), 4, false);
    let (mut out_v, mut out_m) = (Vec::new(), DenseMatrix::default());
    let mut all = Vec::new();
    batch.matvec_into_ws(v.data(), &mut out_v, ws);
    all.extend_from_slice(&out_v);
    batch.vecmat_into_ws(w.data(), &mut out_v, ws);
    all.extend_from_slice(&out_v);
    batch.matmat_into_ws(&mr, &mut out_m, ws);
    all.extend_from_slice(out_m.data());
    batch.matmat_left_into_ws(&ml, &mut out_m, ws);
    all.extend_from_slice(out_m.data());
    all
}

fn fresh(batch: &AnyBatch) -> Vec<f64> {
    run_all(batch, &mut ExecScratch::default())
}

#[test]
fn four_kernels_on_one_batch_build_one_tree_and_one_plan() {
    let a = Scheme::Toc.encode(&pool_matrix(40, 17, 0.4, 5));
    let mut ws = ExecScratch::default();
    let first = run_all(&a, &mut ws);
    assert_eq!((ws.toc.builds(), ws.toc.plans()), (1, 1));
    // A second visit without another batch in between still hits the key.
    assert_eq!(run_all(&a, &mut ws), first);
    assert_eq!((ws.toc.builds(), ws.toc.plans()), (1, 1));
    // So does an equal batch at another address.
    assert_eq!(run_all(&a.clone(), &mut ws), first);
    assert_eq!((ws.toc.builds(), ws.toc.plans()), (1, 1));
    assert_eq!(first, fresh(&a));
}

#[test]
fn scaling_a_batch_in_place_is_seen_by_the_next_kernel() {
    // Same buffer, same address, same length — only the values change, so
    // a key made of any of those would serve the unscaled tree.
    let mut a = Scheme::Toc.encode(&pool_matrix(40, 17, 0.4, 5));
    let mut ws = ExecScratch::default();
    let before = run_all(&a, &mut ws);
    let (ptr, len) = (toc_of(&a).as_bytes().as_ptr(), a.size_bytes());
    a.scale(-2.5);
    assert_eq!((toc_of(&a).as_bytes().as_ptr(), a.size_bytes()), (ptr, len));
    let after = run_all(&a, &mut ws);
    assert_ne!(after, before);
    assert_eq!(after, fresh(&a));
    assert_eq!((ws.toc.builds(), ws.toc.plans()), (2, 2));
}

#[test]
fn a_batch_differing_in_one_value_is_not_taken_for_the_prepared_one() {
    let x = pool_matrix(40, 17, 0.4, 5);
    let mut y = x.clone();
    for v in y.data_mut() {
        if *v == 3.25 {
            *v = 4.25;
        }
    }
    let (a, b) = (Scheme::Toc.encode(&x), Scheme::Toc.encode(&y));
    // One entry of the value array: same length, at most 8 bytes apart.
    let (ab, bb) = (toc_of(&a).as_bytes(), toc_of(&b).as_bytes());
    assert_eq!(ab.len(), bb.len());
    let differing = ab.iter().zip(bb).filter(|(p, q)| p != q).count();
    assert!((1..=8).contains(&differing), "{differing} bytes differ");

    let mut ws = ExecScratch::default();
    for batch in [&a, &b, &a] {
        assert_eq!(run_all(batch, &mut ws), fresh(batch));
    }
    assert_eq!(ws.toc.builds(), 3);
    assert_ne!(fresh(&a), fresh(&b));
}

#[test]
fn bitpack_and_varint_encodings_of_one_matrix_each_get_their_own_tree() {
    let x = pool_matrix(40, 17, 0.4, 5);
    let (a, b) = (Scheme::Toc.encode(&x), Scheme::TocVarint.encode(&x));
    let mut ws = ExecScratch::default();
    let from_bitpack = run_all(&a, &mut ws);
    let from_varint = run_all(&b, &mut ws);
    // The same C', rebuilt: the bytes under it differ.
    assert_eq!(from_bitpack, from_varint);
    assert_eq!(ws.toc.builds(), 2);
    // The logical-only ablation wraps the very bytes of `a`.
    let c = Scheme::TocSparseLogical.encode(&x);
    assert_eq!(run_all(&a, &mut ws), from_bitpack);
    assert_eq!(run_all(&c, &mut ws), from_bitpack);
    assert_eq!(ws.toc.builds(), 3);
}

/// `batch` as a spilled read hands it over: parsed from its own bytes.
fn parsed(batch: &AnyBatch) -> AnyBatch {
    Scheme::from_bytes(&batch.to_bytes()).expect("a batch's own bytes parse")
}

/// [`run_all`] plus the fifth kernel.
fn run_five(batch: &AnyBatch, ws: &mut ExecScratch) -> Vec<u64> {
    let mut all = run_all(batch, ws);
    let mut dense = DenseMatrix::default();
    batch.decode_into_ws(&mut dense, ws);
    all.extend_from_slice(dense.data());
    all.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_parsed_batch_runs_on_the_tree_its_parse_built_on_every_preset() {
    for preset in DatasetPreset::ALL {
        let x = generate_preset(preset, 250, 42).x;
        for scheme in [Scheme::Toc, Scheme::TocVarint] {
            let what = format!("{} {}", preset.name(), scheme.name());
            let b = scheme.encode(&x);
            let p = parsed(&b);
            assert!(toc_of(&b).carried_tree().is_none(), "{what}");
            let carried = toc_of(&p)
                .carried_tree()
                .expect("from_bytes keeps its tree");
            let built = DecodeTree::build_trusted(&toc_of(&b).view());
            assert_eq!(carried.key_col, built.key_col, "{what}");
            assert_eq!(carried.parent, built.parent, "{what}");
            let bits = |t: &DecodeTree| t.key_val.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(carried), bits(&built), "{what}");

            let (mut ws_b, mut ws_p) = (ExecScratch::default(), ExecScratch::default());
            assert_eq!(run_five(&p, &mut ws_p), run_five(&b, &mut ws_b), "{what}");
            assert_eq!((ws_b.toc.builds(), ws_b.toc.plans()), (1, 1), "{what}");
            assert_eq!((ws_p.toc.builds(), ws_p.toc.plans()), (0, 1), "{what}");
        }
    }
}

#[test]
fn the_matrix_kernels_of_one_parsed_batch_share_one_plan() {
    let a = parsed(&Scheme::Toc.encode(&pool_matrix(40, 17, 0.4, 5)));
    let other = parsed(&Scheme::Toc.encode(&pool_matrix(40, 17, 0.4, 6)));
    let mr = operand(17, 11, 3, false);
    let ml = operand(11, 40, 4, false);
    let (mut ws, mut out) = (ExecScratch::default(), DenseMatrix::default());
    a.matmat_into_ws(&mr, &mut out, &mut ws);
    a.matmat_left_into_ws(&ml, &mut out, &mut ws);
    assert_eq!((ws.toc.builds(), ws.toc.plans()), (0, 1));
    // Another parse of the same bytes is another batch: the scratch cannot
    // know the two are equal without comparing them.
    for (batch, plans) in [(&other, 2), (&a, 3), (&a.clone(), 3), (&parsed(&a), 4)] {
        batch.matmat_into_ws(&mr, &mut out, &mut ws);
        batch.matmat_left_into_ws(&ml, &mut out, &mut ws);
        assert_eq!((ws.toc.builds(), ws.toc.plans()), (0, plans));
    }
}

#[test]
fn scaling_a_parsed_batch_is_seen_by_the_next_kernel() {
    // The content key cannot catch this once a carried tree bypasses it:
    // the tree holds the values, so it has to go with them.
    let encoded = Scheme::Toc.encode(&pool_matrix(40, 17, 0.4, 5));
    for scheme in [Scheme::Toc, Scheme::TocSparseLogical] {
        let mut a = parsed(&scheme.encode(&pool_matrix(40, 17, 0.4, 5)));
        let mut ws = ExecScratch::default();
        let before = run_all(&a, &mut ws);
        assert_eq!(before, fresh(&encoded));
        a.scale(-2.5);
        let after = run_all(&a, &mut ws);
        assert_ne!(after, before);
        let mut scaled = encoded.clone();
        scaled.scale(-2.5);
        assert_eq!(after, fresh(&scaled));
        // A clone taken before the scale keeps the unscaled tree.
        let kept = parsed(&encoded);
        let mut twin = kept.clone();
        twin.scale(3.0);
        assert_eq!(run_all(&kept, &mut ws), before);
        assert_ne!(run_all(&twin, &mut ws), before);
    }
}

#[test]
fn equality_of_batches_is_equality_of_bytes() {
    let a = Scheme::Toc.encode(&pool_matrix(40, 17, 0.4, 5));
    let p = parsed(&a);
    assert!(toc_of(&p).carried_tree().is_some());
    assert_eq!(toc_of(&p), toc_of(&a));
    assert_eq!(toc_of(&p.clone()), toc_of(&a));
    let mut scaled = p.clone();
    scaled.scale(2.0);
    assert_ne!(toc_of(&scaled), toc_of(&a));
}

#[test]
fn a_parsed_batch_and_its_encoded_twin_never_run_on_each_others_tree() {
    // Identical bytes, one scratch, alternating: each kernel must run on
    // its batch's own tree. Scaling each side in turn makes a swap visible.
    let x = pool_matrix(40, 17, 0.4, 5);
    let mut enc = Scheme::Toc.encode(&x);
    let mut par = parsed(&enc);
    let mut ws = ExecScratch::default();
    let base = fresh(&enc);
    for batch in [&par, &enc, &par, &enc] {
        assert_eq!(run_all(batch, &mut ws), base);
    }
    // The encoded twin was built for once and planned for twice (the
    // parsed batch's plan took the slot in between); the parsed one never.
    assert_eq!((ws.toc.builds(), ws.toc.plans()), (1, 4));

    enc.scale(-2.0);
    let scaled = fresh(&enc);
    assert_ne!(scaled, base);
    for (batch, want) in [(&par, &base), (&enc, &scaled), (&par, &base)] {
        assert_eq!(&run_all(batch, &mut ws), want);
    }
    par.scale(-2.0);
    for batch in [&par, &enc, &par] {
        assert_eq!(run_all(batch, &mut ws), scaled);
    }
}

/// The mechanism gate: how much of `C'` does the live plan drop? Per
/// preset, one 250-row batch at seed 42; the floors are what the plan
/// reached when it was introduced.
#[test]
fn dead_share_floor() {
    let floors = [
        (DatasetPreset::CensusLike, 0.10),
        (DatasetPreset::ImagenetLike, 0.30),
        (DatasetPreset::MnistLike, 0.40),
        (DatasetPreset::Kdd99Like, 0.10),
        (DatasetPreset::Rcv1Like, 0.40),
        (DatasetPreset::DeepLike, 0.45),
    ];
    for (preset, floor) in floors {
        let toc = TocBatch::encode(&generate_preset(preset, 250, 42).x);
        let view = toc.view();
        let tree = DecodeTree::build_trusted(&view);
        let plan = LivePlan::build(&view, &tree);
        let (live, total) = (plan.live(), tree.len());
        let dead = 1.0 - live as f64 / total as f64;
        println!(
            "toc_kernels: {:<9} live {live:>6} / {total:>6} C' nodes, {:>4.1}% dead (floor {:.0}%), |D| {}",
            preset.name(),
            100.0 * dead,
            100.0 * floor,
            view.codes_len()
        );
        assert!(
            dead >= floor,
            "{}: {live} of {total} nodes live, dead share {dead:.3} under the floor {floor}",
            preset.name()
        );
    }
}
