//! Compressed matrix-operation execution (§4): kernels that run directly on
//! the TOC output without decompressing the mini-batch.
//!
//! The vector kernels (`A·v`, `v·A`) scan the encoded table `D` and the
//! decoding tree `C'` once each, so they run in `O(|C'| + |D|)` instead of
//! `O(nnz)` — the computational redundancy removed by compression is also
//! removed from the compute.
//!
//! The matrix kernels (`A·M`, `M·A`, `M` dense with `p` columns resp.
//! rows) run on the batch's [`LivePlan`] instead: `C'` without the *dead*
//! nodes — dictionary entries that no code in `D` names directly or
//! through a descendant — and `D` unpacked to plain integers. Pruning is
//! exact (a dead node's `H` row is never read by `A·M` and never receives
//! weight in `M·A`; see [`LivePlan`]). They sweep `M` in blocks of
//! [`BLOCK`] columns, so `H` is `live × BLOCK` doubles, one cache line
//! per node, instead of `len(C') × p`: runtime is
//! `O(|live C'| + |D|) × ⌈p / BLOCK⌉` passes over an `H` that stays in
//! cache (plus `O(rows + cols)` per block to stage the block of `M` and
//! of the result), where the unblocked form was bound by memory traffic
//! on a multi-megabyte `H`. A tail block narrower than [`BLOCK`] is
//! padded with zero columns and computed at full width. Within a lane the
//! floating-point operations and their order are those of Algorithms 7–8
//! as written, so results do not depend on the blocking.
//!
//! The vector kernels stay on `C'` as built: their one pass does not
//! repay the plan's (on census-like, where 84 % of the nodes are live,
//! deriving it costs as much as the two kernels together).
//!
//! Who builds `C'` when: the functions here take it as an argument. For a
//! batch that was parsed ([`crate::TocBatch::from_bytes`]: a spilled read,
//! a container segment) it is the tree the parse's validation replayed,
//! carried by the batch — one replay per visit. For a batch made by
//! `encode`, which is every resident batch, the caller's
//! [`crate::KernelScratch`] builds it, once per batch it meets.

use crate::batch::TocView;
use crate::tree::{DecodeTree, LivePlan};
use toc_linalg::dense::reset_vec;
use toc_linalg::sparse::{ColVal, SparseRows};
use toc_linalg::DenseMatrix;

/// Algorithm 4, `A · v`, with a caller-owned `H` accumulator and output
/// buffer.
///
/// Dynamic programming over the tree: `H[i] = key_i · v + H[parent(i)]`
/// evaluates `F(i) = seq(i) · v` for every node in one forward scan (node
/// indexes are topologically ordered because children are created after
/// their parents). The result row `r` is then the sum of `H` over the row's
/// codes.
pub fn matvec_into(
    view: &TocView<'_>,
    tree: &DecodeTree,
    v: &[f64],
    h: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    debug_assert_eq!(v.len(), view.cols);
    let n = tree.len();
    reset_vec(h, n);
    for i in 1..n {
        h[i] = tree.key_val[i] * v[tree.key_col[i] as usize] + h[tree.parent[i] as usize];
    }
    reset_vec(out, view.rows);
    for (r, o) in out.iter_mut().enumerate() {
        let (s, e) = view.row_range(r);
        let mut acc = 0.0;
        view.for_each_code_in(s, e, |c| acc += h[c as usize]);
        *o = acc;
    }
}

/// Algorithm 5, `v · A`, with a caller-owned `G` accumulator and output
/// buffer.
///
/// First scan `D` to accumulate `G(i) = Σ v[r]` over all occurrences of
/// code `i`; then scan `C'` **backwards**, pushing each node's weight onto
/// its parent so that every node's weight ends up multiplied into exactly
/// the pairs of its sequence.
pub fn vecmat_into(
    view: &TocView<'_>,
    tree: &DecodeTree,
    v: &[f64],
    h: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    debug_assert_eq!(v.len(), view.rows);
    let n = tree.len();
    reset_vec(h, n);
    for (r, &w) in v.iter().enumerate() {
        let (s, e) = view.row_range(r);
        view.for_each_code_in(s, e, |c| h[c as usize] += w);
    }
    reset_vec(out, view.cols);
    for i in (1..n).rev() {
        let w = h[i];
        if w != 0.0 {
            out[tree.key_col[i] as usize] += tree.key_val[i] * w;
            h[tree.parent[i] as usize] += w;
        }
    }
}

/// Columns of the dense operand the matrix kernels sweep at a time. Eight
/// doubles are one cache line, so a node's `H` row is one line. A
/// constant, not a knob: of 4, 8, 16 and 32 at `p = 32` on 250-row
/// batches, 8 was fastest for both kernels on mnist-like (16 k live
/// nodes: `A·M` / `M·A` in 360 / 585 µs against 424–517 / 751–887 at 16
/// and 437–529 / 711–829 at 4) and second to 16 by 6 µs on census-like
/// (1.5 k live nodes: 29 / 47 µs against 24 / 44).
pub const BLOCK: usize = 8;

/// One node's (or one operand row's) [`BLOCK`] lanes, on a cache line of
/// its own. The kernels copy a row out, compute on the copy and store it
/// back whole: through two references the compiler cannot rule out that
/// the rows overlap, and the lane loops stay scalar.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Lanes([f64; BLOCK]);

const ZERO_LANES: Lanes = Lanes([0.0; BLOCK]);

/// Reusable buffers of [`matmat_into`] / [`matmat_left_into`]; they grow
/// to the high-water mark of the shapes seen.
#[derive(Clone, Debug, Default)]
pub struct BlockScratch {
    /// `H`: one row of lanes per live slot.
    h: Vec<Lanes>,
    /// `A·M`: the current block of `M`, one row of lanes per row of `M`.
    m_block: Vec<Lanes>,
    /// `M·A`: the current block of `Mᵀ`, one row of lanes per tuple.
    m_t: Vec<Lanes>,
    /// `M·A`: the current block of the transposed result, one row of
    /// lanes per matrix column.
    out_t: Vec<Lanes>,
}

/// Algorithm 7 (Appendix B.1), `A · M` with uncompressed `M` (`cols × p`),
/// into a caller-owned matrix.
///
/// Per block of `M`'s columns, `H[i] = H[parent(i)] + key_i · M[col_i]`
/// holds `seq(i) · M` for every live slot after one forward scan (every
/// row is assigned, none needs clearing first), and result row `r` is the
/// sum of `H` over the row's codes.
pub fn matmat_into(plan: &LivePlan, m: &DenseMatrix, ws: &mut BlockScratch, out: &mut DenseMatrix) {
    debug_assert_eq!(m.rows(), plan.cols);
    let p = m.cols();
    out.reset(plan.rows, p);
    let h = &mut ws.h;
    h.resize(plan.live(), ZERO_LANES);
    h[0] = ZERO_LANES;
    for j0 in (0..p).step_by(BLOCK) {
        let w = BLOCK.min(p - j0);
        // Columns `j0..j0 + w` of `M`, lanes past `w` zero. Both arms copy
        // the same doubles; a full block's count is known when compiling.
        let m_rows = m.data().chunks_exact(p);
        ws.m_block.clear();
        if w == BLOCK {
            ws.m_block.extend(
                m_rows.map(|row| Lanes(row[j0..j0 + BLOCK].try_into().expect("a full block"))),
            );
        } else {
            ws.m_block.extend(m_rows.map(|row| {
                let mut lanes = ZERO_LANES;
                lanes.0[..w].copy_from_slice(&row[j0..j0 + w]);
                lanes
            }));
        }
        let keys = plan.key_col.iter().zip(&plan.key_val).zip(&plan.parent);
        for (i, ((&col, &key_val), &parent)) in keys.enumerate().skip(1) {
            let mrow = ws.m_block[col as usize].0;
            let mut hi = h[parent as usize].0;
            for (hl, ml) in hi.iter_mut().zip(&mrow) {
                *hl += key_val * ml;
            }
            h[i].0 = hi;
        }
        for r in 0..plan.rows {
            let mut acc = [0.0; BLOCK];
            for &c in plan.row_codes(r) {
                for (al, hl) in acc.iter_mut().zip(&h[c as usize].0) {
                    *al += hl;
                }
            }
            out.row_mut(r)[j0..j0 + w].copy_from_slice(&acc[..w]);
        }
    }
}

/// Algorithm 8 (Appendix B.2), `M · A` with uncompressed `M` (`p × rows`),
/// into a caller-owned matrix.
///
/// Per block of `M`'s rows: scan `D` to accumulate `G(i) = Σ M[.., r]`
/// over all occurrences of code `i`, then scan the live slots
/// **backwards**, multiplying each slot's weight into its key's column of
/// the result and pushing it onto its parent. The block of `M` and the
/// block of the result are staged transposed, so that every inner loop
/// runs along a node's lanes.
///
/// The algorithm skips a slot whose weight is zero; per lane that is a
/// select on the product (a zero weight must not multiply a non-finite
/// key into a NaN) and nothing else: the sums start at `+0.0`, and
/// `x + y` is `-0.0` only when both are, so neither a result lane nor a
/// parent's weight is ever `-0.0`, and adding the selected `+0.0`, or a
/// weight of `±0.0`, leaves it exactly as the skipped step would.
pub fn matmat_left_into(
    plan: &LivePlan,
    m: &DenseMatrix,
    ws: &mut BlockScratch,
    out: &mut DenseMatrix,
) {
    debug_assert_eq!(m.cols(), plan.rows);
    let p = m.rows();
    out.reset(p, plan.cols);
    let (h, m_t, out_t) = (&mut ws.h, &mut ws.m_t, &mut ws.out_t);
    for q0 in (0..p).step_by(BLOCK) {
        let w = BLOCK.min(p - q0);
        m_t.clear();
        m_t.resize(plan.rows, ZERO_LANES);
        for l in 0..w {
            for (lanes, &x) in m_t.iter_mut().zip(m.row(q0 + l)) {
                lanes.0[l] = x;
            }
        }
        h.clear();
        h.resize(plan.live(), ZERO_LANES);
        for (r, mrow) in m_t.iter().enumerate() {
            for &c in plan.row_codes(r) {
                let mut hc = h[c as usize].0;
                for (hl, ml) in hc.iter_mut().zip(&mrow.0) {
                    *hl += ml;
                }
                h[c as usize].0 = hc;
            }
        }
        out_t.clear();
        out_t.resize(plan.cols, ZERO_LANES);
        let keys = plan.key_col.iter().zip(&plan.key_val).zip(&plan.parent);
        for (i, ((&col, &key_val), &parent)) in keys.enumerate().skip(1).rev() {
            let hi = h[i].0;
            let mut hp = h[parent as usize].0;
            let mut o = out_t[col as usize].0;
            for ((ol, pl), &weight) in o.iter_mut().zip(&mut hp).zip(&hi) {
                *ol += if weight != 0.0 { key_val * weight } else { 0.0 };
                *pl += weight;
            }
            h[parent as usize].0 = hp;
            out_t[col as usize].0 = o;
        }
        for l in 0..w {
            for (o, lanes) in out.row_mut(q0 + l).iter_mut().zip(out_t.iter()) {
                *o = lanes.0[l];
            }
        }
    }
}

/// Decode directly into a caller-owned dense matrix: the zero-allocation
/// counterpart of `decode_sparse().decode()`. `stack` and `row_codes` are
/// reusable scratch buffers.
pub fn decode_into(
    view: &TocView<'_>,
    tree: &DecodeTree,
    stack: &mut Vec<(u32, f64)>,
    row_codes: &mut Vec<u32>,
    out: &mut DenseMatrix,
) {
    out.reset(view.rows, view.cols);
    for r in 0..view.rows {
        let (s, e) = view.row_range(r);
        row_codes.clear();
        view.codes_into(s, e, row_codes);
        for &code in row_codes.iter() {
            stack.clear();
            let mut cur = code;
            while cur != 0 {
                stack.push((tree.key_col[cur as usize], tree.key_val[cur as usize]));
                cur = tree.parent[cur as usize];
            }
            for &(col, val) in stack.iter().rev() {
                out.set(r, col as usize, val);
            }
        }
    }
}

/// Full decode to sparse rows (the core of Algorithm 6): backtrack every
/// code through `C'` with a reusable scratch stack; total work is linear in
/// the number of decoded pairs.
pub fn decode_sparse(view: &TocView<'_>) -> SparseRows {
    let tree = DecodeTree::build_trusted(view);
    let mut pairs: Vec<ColVal> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(view.rows + 1);
    offsets.push(0);
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    let mut row_codes: Vec<u32> = Vec::new();
    for r in 0..view.rows {
        let (s, e) = view.row_range(r);
        row_codes.clear();
        view.codes_into(s, e, &mut row_codes);
        for &code in &row_codes {
            scratch.clear();
            let mut cur = code;
            while cur != 0 {
                scratch.push((tree.key_col[cur as usize], tree.key_val[cur as usize]));
                cur = tree.parent[cur as usize];
            }
            for &(col, val) in scratch.iter().rev() {
                pairs.push(ColVal { col, val });
            }
        }
        offsets.push(pairs.len());
    }
    SparseRows::from_parts(view.rows, view.cols, pairs, offsets)
}

/// Partial decode: materialize only the selected rows (in the given
/// order) as sparse rows, without touching the rest of the batch. Useful
/// for sampling-style access patterns (e.g. shuffle-always MGD, §2.1.3):
/// cost is one `C'` build plus work linear in the *selected* pairs.
pub fn gather_rows(view: &TocView<'_>, rows: &[usize]) -> SparseRows {
    let tree = DecodeTree::build_trusted(view);
    let mut pairs: Vec<ColVal> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(rows.len() + 1);
    offsets.push(0);
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    let mut row_codes: Vec<u32> = Vec::new();
    for &r in rows {
        assert!(r < view.rows, "row {r} out of range");
        let (s, e) = view.row_range(r);
        row_codes.clear();
        view.codes_into(s, e, &mut row_codes);
        for &code in &row_codes {
            scratch.clear();
            let mut cur = code;
            while cur != 0 {
                scratch.push((tree.key_col[cur as usize], tree.key_val[cur as usize]));
                cur = tree.parent[cur as usize];
            }
            for &(col, val) in scratch.iter().rev() {
                pairs.push(ColVal { col, val });
            }
        }
        offsets.push(pairs.len());
    }
    SparseRows::from_parts(rows.len(), view.cols, pairs, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{KernelScratch, PhysicalCodec, TocBatch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use toc_linalg::dense::max_abs_diff_vec;

    /// Algorithm 7 over all of `C'` with an `H` of `len(C') × p`: the
    /// kernel [`matmat_into`] replaced, kept as the oracle it must match
    /// bit for bit.
    fn oracle_matmat(view: &TocView<'_>, tree: &DecodeTree, m: &DenseMatrix) -> DenseMatrix {
        let p = m.cols();
        let n = tree.len();
        let mut h = vec![0.0; n * p];
        for i in 1..n {
            let key_val = tree.key_val[i];
            let mrow = m.row(tree.key_col[i] as usize);
            let parent = tree.parent[i] as usize;
            let (head, tail) = h.split_at_mut(i * p);
            let hp = &head[parent * p..parent * p + p];
            let hi = &mut tail[..p];
            for ((o, &mp), &pp) in hi.iter_mut().zip(mrow).zip(hp) {
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

    /// Algorithm 8 over all of `C'`, one strided element at a time behind
    /// the `w != 0.0` branch: the oracle of [`matmat_left_into`].
    fn oracle_matmat_left(view: &TocView<'_>, tree: &DecodeTree, m: &DenseMatrix) -> DenseMatrix {
        let p = m.rows();
        let n = tree.len();
        let mut h = vec![0.0; n * p];
        for r in 0..view.rows {
            let (s, e) = view.row_range(r);
            view.for_each_code_in(s, e, |code| {
                let code = code as usize;
                let stripe = &mut h[code * p..code * p + p];
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
            let hi = &tail[..p];
            let hp = &mut head[parent * p..parent * p + p];
            for q in 0..p {
                let w = hi[q];
                if w != 0.0 {
                    out.set(q, col, out.get(q, col) + key_val * w);
                    hp[q] += w;
                }
            }
        }
        out
    }

    /// Same shape and, element by element, the same bits — except that a
    /// NaN only has to be a NaN.
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

    /// Every block-tail shape: none, below, at and above one and several
    /// blocks.
    const WIDTHS: [usize; 9] = [0, 1, 3, 7, 8, 9, 20, 32, 33];

    /// A dense operand with the values the select has to get right mixed
    /// in: exact zeros, `-0.0`, infinities and NaNs.
    fn operand(rng: &mut StdRng, rows: usize, cols: usize, special: bool) -> DenseMatrix {
        let mut m = DenseMatrix::random(rng, rows, cols, -1.0, 1.0);
        if special {
            const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            for x in m.data_mut() {
                if rng.gen::<f64>() < 0.3 {
                    *x = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                }
            }
        }
        m
    }

    fn check_matrix_kernels_match_oracle(a: &DenseMatrix, rng: &mut StdRng) {
        // One scratch across every call: sizes shrink and grow under it.
        let mut ws = KernelScratch::default();
        let mut out = DenseMatrix::default();
        for codec in [PhysicalCodec::BitPack, PhysicalCodec::Varint] {
            let toc = TocBatch::encode_with(a, codec);
            let view = toc.view();
            let tree = DecodeTree::build_trusted(&view);
            for p in WIDTHS {
                for special in [false, true] {
                    let what = format!("{}x{} {codec:?} p={p}", a.rows(), a.cols());
                    let m = operand(rng, a.cols(), p, special);
                    toc.matmat_into(&m, &mut out, &mut ws).unwrap();
                    assert_same_bits(&out, &oracle_matmat(&view, &tree, &m), &what);
                    let m = operand(rng, p, a.rows(), special);
                    toc.matmat_left_into(&m, &mut out, &mut ws).unwrap();
                    assert_same_bits(&out, &oracle_matmat_left(&view, &tree, &m), &what);
                }
            }
        }
    }

    #[test]
    fn matrix_kernels_match_the_unblocked_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(17);
        for density in [0.05, 0.3, 0.9] {
            let a = random_redundant(&mut rng, 40, 23, density);
            check_matrix_kernels_match_oracle(&a, &mut rng);
        }
        // Zero rows, rows without codes between rows with, nothing but
        // zeros, one column.
        check_matrix_kernels_match_oracle(&DenseMatrix::zeros(0, 5), &mut rng);
        let mut gaps = random_redundant(&mut rng, 12, 9, 0.5);
        for r in [0, 3, 4, 11] {
            gaps.row_mut(r).fill(0.0);
        }
        check_matrix_kernels_match_oracle(&gaps, &mut rng);
        check_matrix_kernels_match_oracle(&DenseMatrix::zeros(10, 6), &mut rng);
        let column = DenseMatrix::from_vec(30, 1, (0..30).map(|i| (i % 3) as f64).collect());
        check_matrix_kernels_match_oracle(&column, &mut rng);
    }

    #[test]
    fn matrix_kernels_match_the_oracle_on_non_finite_batch_values() {
        // `scale(inf)` makes every key infinite (and `0 · inf` a NaN), so
        // a zero weight must skip the multiply, not add its product.
        let mut rng = StdRng::seed_from_u64(18);
        let a = random_redundant(&mut rng, 25, 14, 0.4);
        let mut toc = TocBatch::encode(&a);
        toc.scale(f64::INFINITY);
        let view = toc.view();
        let tree = DecodeTree::build_trusted(&view);
        for p in [3, 8, 20] {
            let m = operand(&mut rng, a.cols(), p, true);
            let want = oracle_matmat(&view, &tree, &m);
            assert_same_bits(&toc.matmat(&m).unwrap(), &want, "A·M");
            let m = operand(&mut rng, p, a.rows(), true);
            let want = oracle_matmat_left(&view, &tree, &m);
            assert_same_bits(&toc.matmat_left(&m).unwrap(), &want, "M·A");
        }
    }

    fn random_redundant(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> DenseMatrix {
        // A value pool plus repeated row motifs to exercise deep trees.
        let pool: Vec<f64> = (0..5).map(|i| (i as f64) * 0.75 - 1.5).collect();
        let motifs: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                (0..cols)
                    .map(|_| {
                        if rng.gen::<f64>() < density {
                            pool[rng.gen_range(0..pool.len())]
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let rows_data: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                if rng.gen::<f64>() < 0.7 {
                    motifs[rng.gen_range(0..motifs.len())].clone()
                } else {
                    (0..cols)
                        .map(|_| {
                            if rng.gen::<f64>() < density {
                                pool[rng.gen_range(0..pool.len())]
                            } else {
                                0.0
                            }
                        })
                        .collect()
                }
            })
            .collect();
        DenseMatrix::from_rows(rows_data)
    }

    fn check_all_ops(a: &DenseMatrix) {
        let toc = TocBatch::encode(a);
        let v: Vec<f64> = (0..a.cols()).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let w: Vec<f64> = (0..a.rows()).map(|i| ((i * 11 % 5) as f64) - 2.0).collect();
        assert!(max_abs_diff_vec(&toc.matvec(&v).unwrap(), &a.matvec(&v)) < 1e-9);
        assert!(max_abs_diff_vec(&toc.vecmat(&w).unwrap(), &a.vecmat(&w)) < 1e-9);
        let mut rng = StdRng::seed_from_u64(1);
        let m_right = DenseMatrix::random(&mut rng, a.cols(), 7, -1.0, 1.0);
        let m_left = DenseMatrix::random(&mut rng, 6, a.rows(), -1.0, 1.0);
        assert!(
            toc.matmat(&m_right)
                .unwrap()
                .max_abs_diff(&a.matmat(&m_right))
                < 1e-9
        );
        assert!(
            toc.matmat_left(&m_left)
                .unwrap()
                .max_abs_diff(&a.matmat_left(&m_left))
                < 1e-9
        );
        assert_eq!(toc.decode(), *a);
    }

    #[test]
    fn all_ops_match_dense_reference_across_sparsity() {
        let mut rng = StdRng::seed_from_u64(2024);
        for density in [0.05, 0.25, 0.5, 0.9] {
            let a = random_redundant(&mut rng, 50, 30, density);
            check_all_ops(&a);
        }
    }

    #[test]
    fn ops_on_fig3() {
        let a = DenseMatrix::from_rows(vec![
            vec![1.1, 2.0, 3.0, 1.4],
            vec![1.1, 2.0, 3.0, 0.0],
            vec![0.0, 1.1, 3.0, 1.4],
            vec![1.1, 2.0, 0.0, 0.0],
        ]);
        check_all_ops(&a);
        // Hand-computed A·[1,1,1,1]: rows sums.
        let toc = TocBatch::encode(&a);
        let r = toc.matvec(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(max_abs_diff_vec(&r, &[7.5, 6.1, 5.5, 3.1]) < 1e-12);
    }

    #[test]
    fn ops_on_all_zero_matrix() {
        let a = DenseMatrix::zeros(10, 6);
        check_all_ops(&a);
    }

    #[test]
    fn ops_on_single_row_and_single_col() {
        check_all_ops(&DenseMatrix::from_rows(vec![vec![1.0, 0.0, 2.0, 0.0, 2.0]]));
        check_all_ops(&DenseMatrix::from_rows(vec![
            vec![1.0],
            vec![0.0],
            vec![1.0],
            vec![2.0],
        ]));
    }

    #[test]
    fn ops_with_empty_rows_interleaved() {
        let a = DenseMatrix::from_rows(vec![
            vec![0.0, 0.0, 0.0],
            vec![1.0, 2.0, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![1.0, 2.0, 0.0],
            vec![0.0, 0.0, 0.0],
        ]);
        check_all_ops(&a);
    }

    #[test]
    fn matvec_uses_each_code_weight_once() {
        // Two identical rows share codes; v·A must weight each row by its
        // own coefficient.
        let a = DenseMatrix::from_rows(vec![vec![2.0, 0.0, 1.0], vec![2.0, 0.0, 1.0]]);
        let toc = TocBatch::encode(&a);
        let out = toc.vecmat(&[10.0, 1.0]).unwrap();
        assert_eq!(out, vec![22.0, 0.0, 11.0]);
    }

    #[test]
    fn dense_matrix_full_density_roundtrip_ops() {
        let mut rng = StdRng::seed_from_u64(5);
        // Fully dense with few distinct values (value-index heavy).
        let mut a = DenseMatrix::zeros(20, 15);
        for r in 0..20 {
            for c in 0..15 {
                a.set(r, c, ((r + c) % 3) as f64 + 0.5);
            }
        }
        check_all_ops(&a);
        let _ = rng.gen::<f64>();
    }

    #[test]
    fn gather_rows_matches_dense_gather() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_redundant(&mut rng, 30, 18, 0.35);
        let toc = TocBatch::encode(&a);
        let idx = [7usize, 0, 29, 7, 15];
        let got = gather_rows(&toc.view(), &idx).decode();
        let want = a.gather_rows(&idx);
        assert_eq!(got, want);
    }

    #[test]
    fn decode_sparse_matches_direct_sparse_encoding() {
        let mut rng = StdRng::seed_from_u64(88);
        let a = random_redundant(&mut rng, 35, 22, 0.3);
        let toc = TocBatch::encode(&a);
        assert_eq!(toc.decode_sparse(), SparseRows::encode(&a));
    }
}
