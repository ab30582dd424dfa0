//! The TOC matrix kernels against the kernels they replaced, and the
//! scratch that lets a batch's kernels share one `C'`.
//!
//! * `A·M` / `M·A` run on the batch's live plan in 8-column blocks; the
//!   unblocked loops over all of `C'` they replaced are restated here
//!   over the public view and tree, and the results must agree **bit for
//!   bit** on every dataset preset, both physical codecs, every
//!   block-tail shape of `M`, and operands holding exact zeros, `-0.0`,
//!   infinities and NaNs. No scheme tag carries the varint codec (tag 10
//!   is retired), so a case that covers both codecs runs its varint batch
//!   on `toc_core` directly, through the `KernelScratch` a TOC-family
//!   batch forwards its kernels to.
//! * One `ExecScratch` keeps the tree of the encoded batch it prepared
//!   last, keyed by the batch's serial number: whatever is done to a batch
//!   between two kernels, the second must never run on the first's tree.
//! * A batch parsed by `from_bytes` carries the tree its validation built:
//!   the scratch builds none for it, its kernels are bit-equal to the
//!   encoded batch's, and nothing — a `scale`, an encoded twin in the same
//!   scratch — makes a kernel run on a tree that is not the batch's own.
//! * `Aᵀ·D` (the neural net's first-layer gradient) is `M·A` with
//!   `M = Dᵀ`, transposed, bit for bit, on the same grid.
//! * A batch that holds its live plan fills it once, through whichever
//!   scratch (or thread) gets there first, runs every later matrix kernel
//!   on it bit-equal to a batch that does not hold, and refills it after a
//!   `scale`. `M·A` and `Aᵀ·D` keep their accumulator `G` zero between
//!   calls instead of clearing it, and `A·M` borrows it as its `H`: a
//!   large and a small batch alternating through one scratch must not see
//!   each other's weight, nor `A·M`'s sums. A scratch grown by
//!   `reserve_scratch` on one thread serves the kernels on another as a
//!   fresh one would.
//! * The last test is the CI gate on the mechanism: per preset, how much
//!   of `C'` the live plan drops. Counts, not timings.

mod common;

use common::pool_matrix;
use toc_core::{DecodeTree, KernelScratch, LivePlan, PhysicalCodec, TocBatch, TocView};
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
        let (key_col, key_val) = tree.key_of(i as u32);
        let mrow = m.row(key_col as usize);
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
        let (col, key_val) = tree.key_of(i as u32);
        let col = col as usize;
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

/// `Aᵀ·D` as the kernel it replaced gave it: `M·A` of `Dᵀ`, transposed.
fn parent_matmat_t(view: &TocView<'_>, tree: &DecodeTree, d: &DenseMatrix) -> DenseMatrix {
    parent_matmat_left(view, tree, &d.transpose()).transpose()
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
    // One scratch and one output across the whole grid, both codecs, on
    // `toc_core` (what a TOC batch forwards to): `A·M`, `M·A`, `Aᵀ·D`.
    let mut ws = KernelScratch::default();
    let mut out = DenseMatrix::default();
    for preset in DatasetPreset::ALL {
        let x = generate_preset(preset, 250, 42).x;
        for codec in [PhysicalCodec::BitPack, PhysicalCodec::Varint] {
            let toc = TocBatch::encode_with(&x, codec);
            let view = toc.view();
            let tree = DecodeTree::build_trusted(&view);
            for (k, p) in WIDTHS.into_iter().enumerate() {
                // Plain and special operands alternate down the list.
                let special = k % 2 == 1;
                let what = format!("{} {codec:?} p={p}", preset.name());
                let m = operand(x.cols(), p, 7 + k as u64, special);
                toc.matmat_into(&m, &mut out, &mut ws).unwrap();
                assert_same_bits(&out, &parent_matmat(&view, &tree, &m), &what);
                let m = operand(p, x.rows(), 70 + k as u64, special);
                toc.matmat_left_into(&m, &mut out, &mut ws).unwrap();
                assert_same_bits(&out, &parent_matmat_left(&view, &tree, &m), &what);
                let d = operand(x.rows(), p, 700 + k as u64, !special);
                toc.matmat_t_into(&d, &mut out, &mut ws).unwrap();
                assert_same_bits(&out, &parent_matmat_t(&view, &tree, &d), &what);
            }
        }
    }
}

#[test]
fn matmat_t_matches_the_transposed_kernel_it_replaced_on_every_preset() {
    // One scratch and one output across the whole grid, `A·M` in between.
    let mut ws = ExecScratch::default();
    let mut out = DenseMatrix::default();
    for preset in DatasetPreset::ALL {
        let x = generate_preset(preset, 250, 42).x;
        for scheme in [Scheme::Toc, Scheme::TocSparseLogical] {
            let batch = scheme.encode(&x);
            let view = batch.toc().expect("a TOC-family batch").view();
            let tree = DecodeTree::build_trusted(&view);
            for (k, p) in WIDTHS.into_iter().enumerate() {
                let what = format!("{} {} p={p}", preset.name(), scheme.name());
                let d = operand(x.rows(), p, 700 + k as u64, k % 2 == 0);
                batch.matmat_t_into_ws(&d, &mut out, &mut ws);
                assert_same_bits(&out, &parent_matmat_t(&view, &tree, &d), &what);
                let m = operand(x.cols(), p, 800 + k as u64, false);
                batch.matmat_into_ws(&m, &mut out, &mut ws);
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

/// [`run_all`] on a `toc_core` batch through its scratch.
fn run_all_toc(toc: &TocBatch, ws: &mut KernelScratch) -> Vec<f64> {
    let v = operand(toc.cols(), 1, 1, false);
    let w = operand(1, toc.rows(), 2, false);
    let mr = operand(toc.cols(), 11, 3, false);
    let ml = operand(11, toc.rows(), 4, false);
    let (mut out_v, mut out_m) = (Vec::new(), DenseMatrix::default());
    let mut all = Vec::new();
    toc.matvec_into(v.data(), &mut out_v, ws).unwrap();
    all.extend_from_slice(&out_v);
    toc.vecmat_into(w.data(), &mut out_v, ws).unwrap();
    all.extend_from_slice(&out_v);
    toc.matmat_into(&mr, &mut out_m, ws).unwrap();
    all.extend_from_slice(out_m.data());
    toc.matmat_left_into(&ml, &mut out_m, ws).unwrap();
    all.extend_from_slice(out_m.data());
    all
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
    let a = Scheme::Toc.encode(&x);
    let b = TocBatch::encode_with(&x, PhysicalCodec::Varint);
    let mut ws = ExecScratch::default();
    let from_bitpack = run_all(&a, &mut ws);
    let from_varint = run_all_toc(&b, &mut ws.toc);
    // The same C', rebuilt: the bytes under it differ.
    assert_eq!(from_bitpack, from_varint);
    assert_eq!(ws.toc.builds(), 2);
    // The logical-only ablation wraps the very bytes of `a`, but it is its
    // own batch: the scratch keys by identity, not by the bytes, so it
    // builds for `c` what it built for `a`.
    let c = Scheme::TocSparseLogical.encode(&x);
    assert_eq!(run_all(&a, &mut ws), from_bitpack);
    assert_eq!(run_all(&c, &mut ws), from_bitpack);
    assert_eq!(ws.toc.builds(), 4);
}

/// `batch` as a spilled read hands it over: parsed from its own bytes.
fn parsed(batch: &AnyBatch) -> AnyBatch {
    Scheme::from_bytes(&batch.to_bytes()).expect("a batch's own bytes parse")
}

/// [`run_all_toc`] plus the fifth kernel.
fn run_five(toc: &TocBatch, ws: &mut KernelScratch) -> Vec<u64> {
    let mut all = run_all_toc(toc, ws);
    let mut dense = DenseMatrix::default();
    toc.decode_into(&mut dense, ws);
    all.extend_from_slice(dense.data());
    all.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_parsed_batch_runs_on_the_tree_its_parse_built_on_every_preset() {
    for preset in DatasetPreset::ALL {
        let x = generate_preset(preset, 250, 42).x;
        // Bit-packed through the scheme's parse and kernels; varint on
        // `toc_core`.
        let toc = Scheme::Toc.encode(&x);
        let toc_parsed = parsed(&toc);
        let varint = TocBatch::encode_with(&x, PhysicalCodec::Varint);
        let varint_parsed = TocBatch::from_bytes(varint.to_bytes()).unwrap();
        for (b, p) in [
            (toc_of(&toc), toc_of(&toc_parsed)),
            (&varint, &varint_parsed),
        ] {
            let what = format!("{} {:?}", preset.name(), b.codec());
            assert!(b.carried_tree().is_none(), "{what}");
            let carried = p.carried_tree().expect("from_bytes keeps its tree");
            let built = DecodeTree::build_trusted(&b.view());
            assert_eq!(carried.parent, built.parent, "{what}");
            assert_eq!(carried.key, built.key, "{what}");
            assert_eq!(carried.first_col, built.first_col, "{what}");
            let bits = |t: &DecodeTree| t.first_val.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(carried), bits(&built), "{what}");
            assert_eq!(carried.codes, built.codes, "{what}");
            assert_eq!(carried.offsets, built.offsets, "{what}");
            assert_eq!(carried.code_row, built.code_row, "{what}");

            let (mut ws_b, mut ws_p) = (KernelScratch::default(), KernelScratch::default());
            assert_eq!(run_five(p, &mut ws_p), run_five(b, &mut ws_b), "{what}");
            assert_eq!((ws_b.builds(), ws_b.plans()), (1, 1), "{what}");
            assert_eq!((ws_p.builds(), ws_p.plans()), (0, 1), "{what}");
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
    // No scratch key is consulted for a carried tree: the tree holds the
    // values, so it has to go with them.
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

/// `batch` with its live plan held.
fn holding(batch: &AnyBatch) -> AnyBatch {
    let mut held = batch.clone();
    held.toc_mut().expect("a TOC-family batch").hold_plan();
    held
}

/// The two matrix kernels on `batch` through `ws`, outputs concatenated
/// as bits.
fn run_matrix(batch: &AnyBatch, ws: &mut ExecScratch) -> Vec<u64> {
    let mr = operand(batch.cols(), 11, 3, true);
    let ml = operand(11, batch.rows(), 4, true);
    let mut out = DenseMatrix::default();
    batch.matmat_into_ws(&mr, &mut out, ws);
    let mut all: Vec<u64> = out.data().iter().map(|x| x.to_bits()).collect();
    batch.matmat_left_into_ws(&ml, &mut out, ws);
    all.extend(out.data().iter().map(|x| x.to_bits()));
    all
}

#[test]
fn a_held_plan_matches_the_kernels_it_replaced_on_every_preset() {
    let mut out = DenseMatrix::default();
    for preset in DatasetPreset::ALL {
        let x = generate_preset(preset, 250, 42).x;
        // Each TOC-family scheme's batch held through the scheme, and TOC
        // under the varint codec held on `toc_core`; the kernels run on
        // the `toc_core` batch, which is what a scheme forwards them to.
        let schemes = [Scheme::Toc, Scheme::TocSparseLogical].map(|s| holding(&s.encode(&x)));
        let mut varint = TocBatch::encode_with(&x, PhysicalCodec::Varint);
        varint.hold_plan();
        for (name, toc) in [
            ("TOC", schemes[0].toc().unwrap()),
            ("TOC_SPARSE_AND_LOGICAL", schemes[1].toc().unwrap()),
            ("TOC varint", &varint),
        ] {
            let (view, tree) = (toc.view(), DecodeTree::build_trusted(&toc.view()));
            for (k, p) in [1, 8, 33].into_iter().enumerate() {
                // A scratch per call: only the first can have filled the slot.
                let what = format!("{} {name} p={p}", preset.name());
                let m = operand(x.cols(), p, 7 + k as u64, true);
                toc.matmat_into(&m, &mut out, &mut KernelScratch::default())
                    .unwrap();
                assert_same_bits(&out, &parent_matmat(&view, &tree, &m), &what);
                let m = operand(p, x.rows(), 70 + k as u64, true);
                toc.matmat_left_into(&m, &mut out, &mut KernelScratch::default())
                    .unwrap();
                assert_same_bits(&out, &parent_matmat_left(&view, &tree, &m), &what);
            }
            let (held, bound) = (toc.held_plan_bytes(), toc.plan_bound_bytes());
            assert!(
                0 < held && held <= bound,
                "{} {name}: {held} of {bound}",
                preset.name(),
            );
        }
    }
}

#[test]
fn a_held_plan_is_filled_once_and_serves_every_scratch() {
    let x = pool_matrix(40, 17, 0.4, 5);
    for scheme in [Scheme::Toc, Scheme::TocSparseLogical] {
        let what = scheme.name();
        let plain = scheme.encode(&x);
        let held = holding(&plain);
        assert_eq!(held.toc().unwrap().held_plan_bytes(), 0, "{what}");
        let mut first = ExecScratch::default();
        assert_eq!(run_all(&held, &mut first), fresh(&plain), "{what}");
        assert_eq!((first.toc.builds(), first.toc.plans()), (1, 1), "{what}");
        assert!(held.toc().unwrap().held_plan_bytes() > 0, "{what}");
        // Another scratch — the next epoch's, another thread's — derives
        // nothing for the matrix kernels; the vector kernels still build.
        let mut later = ExecScratch::default();
        assert_eq!(
            run_matrix(&held, &mut later),
            run_matrix(&plain, &mut first)
        );
        assert_eq!((later.toc.builds(), later.toc.plans()), (0, 0), "{what}");
        assert_eq!(run_all(&held, &mut later), fresh(&plain), "{what}");
        assert_eq!((later.toc.builds(), later.toc.plans()), (1, 0), "{what}");
        // A parsed batch that holds fills from the tree it carries.
        let parsed = holding(&parsed(&plain));
        let mut ws = ExecScratch::default();
        assert_eq!(run_all(&parsed, &mut ws), fresh(&plain), "{what}");
        assert_eq!((ws.toc.builds(), ws.toc.plans()), (0, 1), "{what}");
    }
    // The same counts for TOC under the varint codec, on `toc_core`.
    let plain = TocBatch::encode_with(&x, PhysicalCodec::Varint);
    let want = run_all_toc(&plain, &mut KernelScratch::default());
    let hold = |toc: &TocBatch| {
        let mut held = toc.clone();
        held.hold_plan();
        held
    };
    let held = hold(&plain);
    let mut first = KernelScratch::default();
    assert_eq!(run_all_toc(&held, &mut first), want);
    assert_eq!((first.builds(), first.plans()), (1, 1));
    assert!(held.held_plan_bytes() > 0);
    let (mut later, mut out) = (KernelScratch::default(), DenseMatrix::default());
    held.matmat_into(&operand(17, 11, 3, true), &mut out, &mut later)
        .unwrap();
    held.matmat_left_into(&operand(11, 40, 4, true), &mut out, &mut later)
        .unwrap();
    assert_eq!((later.builds(), later.plans()), (0, 0));
    assert_eq!(run_all_toc(&held, &mut later), want);
    assert_eq!((later.builds(), later.plans()), (1, 0));
    let parsed = hold(&TocBatch::from_bytes(plain.to_bytes()).unwrap());
    let mut ws = KernelScratch::default();
    assert_eq!(run_all_toc(&parsed, &mut ws), want);
    assert_eq!((ws.builds(), ws.plans()), (0, 1));
}

#[test]
fn scaling_a_held_batch_is_seen_by_the_next_matrix_kernel() {
    let x = pool_matrix(40, 17, 0.4, 5);
    let mut held = holding(&Scheme::Toc.encode(&x));
    let mut ws = ExecScratch::default();
    let before = run_matrix(&held, &mut ws);
    held.scale(-2.5);
    assert_eq!(held.toc().unwrap().held_plan_bytes(), 0);
    let after = run_matrix(&held, &mut ws);
    assert_ne!(after, before);
    let mut scaled = Scheme::Toc.encode(&x);
    scaled.scale(-2.5);
    assert_eq!(after, run_matrix(&scaled, &mut ExecScratch::default()));
    // Refilled, once: the slot stays on through a rewrite.
    assert_eq!(ws.toc.plans(), 2);
    assert!(held.toc().unwrap().held_plan_bytes() > 0);
    // A clone taken before a scale keeps the plan of the old values.
    let kept = held.clone();
    held.scale(3.0);
    assert_eq!(run_matrix(&kept, &mut ws), after);
    assert_ne!(run_matrix(&held, &mut ws), after);
}

#[test]
fn held_plans_of_a_large_and_a_small_batch_share_one_zero_kept_g() {
    // `G` is sized by the large batch (mnist-like, ~16 k live slots) and
    // used by the small one (census-like, ~1.5 k) in between: a slot either
    // call left non-zero would add into the next result. `A·M` between the
    // calls writes the same accumulator as its `H`, which the next left
    // kernel must zero first.
    let batches: Vec<(AnyBatch, DenseMatrix)> =
        [DatasetPreset::MnistLike, DatasetPreset::CensusLike]
            .into_iter()
            .map(|preset| {
                let x = generate_preset(preset, 250, 42).x;
                (holding(&Scheme::Toc.encode(&x)), x)
            })
            .collect();
    let mut ws = ExecScratch::default();
    let mut out = DenseMatrix::default();
    for round in 0..3u64 {
        for (k, (batch, x)) in batches.iter().enumerate() {
            let toc = batch.toc().expect("a TOC-family batch");
            let (view, tree) = (toc.view(), DecodeTree::build_trusted(&toc.view()));
            let what = format!("round {round} batch {k}");
            let d = operand(x.rows(), 20, 10 * round + k as u64, round == 1);
            batch.matmat_t_into_ws(&d, &mut out, &mut ws);
            assert_same_bits(&out, &parent_matmat_t(&view, &tree, &d), &what);
            let m = operand(x.cols(), 20, 100 + round, false);
            batch.matmat_into_ws(&m, &mut out, &mut ws);
            assert_same_bits(&out, &parent_matmat(&view, &tree, &m), &what);
            let m = operand(20, x.rows(), 200 + round, round == 2);
            batch.matmat_left_into_ws(&m, &mut out, &mut ws);
            assert_same_bits(&out, &parent_matmat_left(&view, &tree, &m), &what);
        }
    }
    // Each batch filled its held plan once; the scratch derived nothing.
    assert_eq!((ws.toc.builds(), ws.toc.plans()), (2, 2));
}

#[test]
fn one_accumulator_serves_a_m_and_both_left_kernels_as_the_live_count_moves() {
    // `A·M` leaves its `H` in the accumulator that `M·A` and `Aᵀ·D` take as
    // their `G`, and a left kernel zeroes only the prefix `A·M` wrote
    // last. Through one scratch, over batches whose live counts shrink and
    // grow (mnist-like ~16 k slots, census-like ~1.5 k, kdd99-like fewer),
    // encoded, parsed and holding their plans, `A·M` → `M·A` → `Aᵀ·D` must
    // each give a fresh scratch's result, bit for bit.
    use DatasetPreset::{CensusLike, ImagenetLike, Kdd99Like, MnistLike};
    let mut ws = ExecScratch::default();
    let mut out = DenseMatrix::default();
    let mut want = DenseMatrix::default();
    let presets = [MnistLike, CensusLike, ImagenetLike, Kdd99Like, MnistLike];
    for (round, preset) in (0u64..).zip(presets) {
        let x = generate_preset(preset, 250, 42 + round).x;
        let encoded = Scheme::Toc.encode(&x);
        for (k, batch) in (0u64..).zip([parsed(&encoded), holding(&encoded), encoded]) {
            let what = format!("round {round} {} form {k}", preset.name());
            let seed = 10 * round + k;
            let m = operand(x.cols(), 20, seed, round % 2 == 0);
            batch.matmat_into_ws(&m, &mut out, &mut ws);
            batch.matmat_into_ws(&m, &mut want, &mut ExecScratch::default());
            assert_same_bits(&out, &want, &format!("{what} A·M"));
            let m = operand(20, x.rows(), 100 + seed, round % 2 == 1);
            batch.matmat_left_into_ws(&m, &mut out, &mut ws);
            batch.matmat_left_into_ws(&m, &mut want, &mut ExecScratch::default());
            assert_same_bits(&out, &want, &format!("{what} M·A"));
            let d = operand(x.rows(), 13, 200 + seed, true);
            batch.matmat_t_into_ws(&d, &mut out, &mut ws);
            batch.matmat_t_into_ws(&d, &mut want, &mut ExecScratch::default());
            assert_same_bits(&out, &want, &format!("{what} Aᵀ·D"));
        }
    }
}

#[test]
fn a_reserved_scratch_runs_on_another_thread_as_a_fresh_one() {
    // `reserve_scratch` grows a scratch on one thread for the kernels
    // another runs: it derives nothing but a held plan the batch has not
    // filled yet, and the kernels run through it as through a fresh one.
    for preset in DatasetPreset::ALL {
        let x = generate_preset(preset, 250, 42).x;
        let encoded = Scheme::Toc.encode(&x);
        for (k, batch) in [encoded.clone(), parsed(&encoded), holding(&encoded)]
            .iter()
            .enumerate()
        {
            let what = format!("{} form {k}", preset.name());
            let mut ws = ExecScratch::default();
            batch.reserve_scratch(16, &mut ws);
            let held = batch.toc().unwrap().held_plan_bytes();
            assert_eq!(held > 0, k == 2, "{what}: only a held plan is filled");
            assert_eq!(ws.toc.builds(), u64::from(k == 2), "{what}");
            let run = |ws: &mut ExecScratch| {
                let mut out = DenseMatrix::default();
                batch.matmat_into_ws(&operand(x.cols(), 16, 1, false), &mut out, ws);
                let mut bits: Vec<u64> = out.data().iter().map(|v| v.to_bits()).collect();
                batch.matmat_t_into_ws(&operand(x.rows(), 16, 2, true), &mut out, ws);
                bits.extend(out.data().iter().map(|v| v.to_bits()));
                bits
            };
            let got = std::thread::scope(|s| s.spawn(|| run(&mut ws)).join().unwrap());
            assert!(got == run(&mut ExecScratch::default()), "{what}");
        }
    }
}

#[test]
fn two_threads_on_one_held_batch_get_equal_outputs_and_one_fill() {
    let x = generate_preset(DatasetPreset::MnistLike, 250, 42).x;
    let held = holding(&Scheme::Toc.encode(&x));
    let start = std::sync::Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let run = || {
            let mut ws = ExecScratch::default();
            start.wait();
            let out = run_matrix(&held, &mut ws);
            (out, ws.toc.plans())
        };
        let (a, b) = (s.spawn(run), s.spawn(run));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a.0, b.0);
    assert_eq!(a.1 + b.1, 1, "fills: {} + {}", a.1, b.1);
    assert_eq!(
        a.0,
        run_matrix(&Scheme::Toc.encode(&x), &mut ExecScratch::default())
    );
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
        let plan = LivePlan::build(&tree);
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
