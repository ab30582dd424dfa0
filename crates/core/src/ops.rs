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
//! Algorithm 8 has two entry points over one scatter / backward-scan core
//! (`left_block`): `M · A` ([`matmat_left_into`]) and `Aᵀ · D`
//! ([`matmat_t_into`], `D = Mᵀ` row-major `rows × p`, the result
//! `cols × p`). The neural net's first-layer gradient is the second form
//! — its delta and its gradient are both row-major that way — so it reads
//! `D` and writes the result in place, where `M · A` stages its block of
//! `M` and of the result transposed. `G` shares its buffer with `A·M`'s
//! `H`: a left kernel zeroes only the prefix `A·M` wrote last, and the
//! backward scan zeroes what it reads, so `G` is zero again when a block
//! ends and no block clears it (see [`BlockScratch`]).
//!
//! The vector kernels and decode run on [`DecodeTree`] as the replay left
//! it: `C'` as `parent` and `key` per node, `key` an index into the first
//! layer `I`, next to `I`, `D` and the tuple of each code unpacked to plain
//! arrays. Their one pass does not repay the plan's (on census-like, where
//! 84 % of the nodes are live, deriving it costs as much as the two
//! kernels together).
//!
//! The vector kernels scan `D` in one flat pass through the tuple of each
//! code (`out[code_row[k]] += H[codes[k]]`, `G[codes[k]] +=
//! v[code_row[k]]`: per row or node the additions of a loop per tuple, in
//! its order), and `v·A`'s backward scan adds a selected `+0.0` where
//! Algorithm 5 skips a node of zero weight. Nothing in either branches on
//! the batch, because a branch that does is mispredicted wherever the
//! batch is new to the predictor — every visit of a training epoch: a loop
//! per tuple exits after a count that differs from tuple to tuple (6.8
//! codes on census-like), and where the zero-weight nodes sit (16 % of
//! them there) depends on the data. On 160 census-like 250-row batches
//! (Xeon, 2 vCPUs; per-batch medians, median of six runs), `A·v` + `v·A`
//! on a batch parsed just before took 26.7 µs with those branches and
//! takes 17.2 µs without. On one batch stepped over and over, which the
//! predictor learns, they took 14.3 µs and take 17.0 µs: the flat `A·v`
//! adds each code through memory where the loop per tuple kept its sum in
//! a register, which shows only where nothing mispredicts.
//!
//! Who builds `C'` and the plan when: the functions here take them as
//! arguments. For a batch that was parsed ([`crate::TocBatch::from_bytes`]:
//! a spilled read, a container segment) the tree is the one the parse's
//! validation replayed, carried by the batch with `I` and `D` unpacked —
//! one replay and one unpack per visit, and no kernel call parses the
//! buffer again. For a batch made by `encode`, which is every resident
//! batch, the caller's [`crate::KernelScratch`] builds the same structure,
//! once per batch it meets, keyed by the batch's serial. The live plan is
//! the batch's own when it holds one ([`crate::TocBatch::hold_plan`]: a
//! resident batch the store's budget has room for), derived once from the
//! tree by the first matrix kernel and kept for every later epoch; else
//! the scratch derives it, once per batch it meets.

use crate::tree::{DecodeTree, LivePlan};
use toc_linalg::dense::reset_vec;
use toc_linalg::sparse::{ColVal, SparseRows};
use toc_linalg::DenseMatrix;

/// Algorithm 4, `A · v`, with caller-owned `P` and `H` accumulators and
/// output buffer.
///
/// Dynamic programming over the tree: `H[i] = key_i · v + H[parent(i)]`
/// evaluates `F(i) = seq(i) · v` for every node in one forward scan (node
/// indexes are topologically ordered because children are created after
/// their parents). Every key is a first-layer pair, so `key_i · v` is
/// formed once per pair of `I` into `P` and read through the node's key:
/// the same product of the same operands, added to the same `H[parent(i)]`,
/// so the bits are those of the per-node form. The result row `r` is then
/// the sum of `H` over the row's codes, gathered in one flat pass over `D`
/// into a zeroed `out`: per row the same additions, in the same order,
/// from the same `+0.0` as a sum per tuple.
pub fn matvec_into(
    tree: &DecodeTree,
    v: &[f64],
    p: &mut Vec<f64>,
    h: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    debug_assert_eq!(v.len(), tree.cols);
    p.clear();
    p.push(0.0);
    let first = tree.first_col[1..].iter().zip(&tree.first_val[1..]);
    p.extend(first.map(|(&col, &val)| val * v[col as usize]));
    let n = tree.len();
    reset_vec(h, n);
    for (i, (&key, &parent)) in tree.key.iter().zip(&tree.parent).enumerate().skip(1) {
        h[i] = p[key as usize] + h[parent as usize];
    }
    reset_vec(out, tree.rows);
    for (&c, &r) in tree.codes.iter().zip(&tree.code_row) {
        out[r as usize] += h[c as usize];
    }
}

/// Algorithm 5, `v · A`, with a caller-owned `G` accumulator and output
/// buffer.
///
/// First scan `D` to accumulate `G(i) = Σ v[r]` over all occurrences of
/// code `i`; then scan `C'` **backwards**, pushing each node's weight onto
/// its parent so that every node's weight ends up multiplied into exactly
/// the pairs of its sequence.
///
/// The algorithm skips a node whose weight is zero; here that is a select
/// on the product and nothing else, for the reason `left_block` gives: `G`
/// and `out` start at `+0.0` and are never `-0.0`, so adding a weight of
/// `±0.0`, or the selected `+0.0`, leaves them as the skipped step would.
pub fn vecmat_into(tree: &DecodeTree, v: &[f64], h: &mut Vec<f64>, out: &mut Vec<f64>) {
    debug_assert_eq!(v.len(), tree.rows);
    let n = tree.len();
    reset_vec(h, n);
    for (&c, &r) in tree.codes.iter().zip(&tree.code_row) {
        h[c as usize] += v[r as usize];
    }
    reset_vec(out, tree.cols);
    let nodes = tree.key.iter().zip(&tree.parent).enumerate().skip(1);
    for (i, (&key, &parent)) in nodes.rev() {
        let w = h[i];
        let key = key as usize;
        // Formed before the select: with its bounds check inside the arm,
        // the select compiles to the branch it replaces.
        let product = tree.first_val[key] * w;
        out[tree.first_col[key] as usize] += if w != 0.0 { product } else { 0.0 };
        h[parent as usize] += w;
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

/// Reusable buffers of [`matmat_into`], [`matmat_left_into`] and
/// [`matmat_t_into`]; they grow to the high-water mark of the shapes seen.
///
/// One accumulator, `acc`, serves as `A·M`'s `H` and as the left kernels'
/// `G`, so a scratch holds one row of lanes per live slot, not two. They
/// keep it differently. `A·M` assigns every slot it reads before reading
/// it, so it needs no zeros, and it leaves garbage behind: it marks the
/// prefix it wrote as `dirty`. The left kernels accumulate, so their `G`
/// must start each block all zero: a left kernel first zeroes the dirty
/// prefix (nothing beyond it was written since it was last zero), and then
/// the backward scan zeroes each slot as it reads it, and the root after
/// the scan, so `acc` is all zero again when a block — and so a call —
/// ends. A left kernel marks its whole live prefix dirty while it runs, so
/// one that does not end (a panic caught by an unwind) leaves the next
/// call to zero what it may have written. Only growth writes zeros
/// beyond that: `acc` keeps its high-water length.
#[derive(Clone, Debug, Default)]
pub struct BlockScratch {
    /// `A·M`'s `H`, or `M·A` / `Aᵀ·D`'s `G`: one row of lanes per live
    /// slot.
    acc: Vec<Lanes>,
    /// How long a prefix of `acc` may be non-zero.
    dirty: usize,
    /// `A·M`: the current block of `M`, one row of lanes per row of `M`.
    m_block: Vec<Lanes>,
    /// `M·A`: the current block of `Mᵀ`, one row of lanes per tuple.
    m_t: Vec<Lanes>,
    /// `M·A` / `Aᵀ·D`: the current block of the result, one row of lanes
    /// per matrix column.
    out_t: Vec<Lanes>,
}

impl BlockScratch {
    /// Make `acc` at least `live` slots for `A·M`'s `H`, which leaves
    /// them non-zero.
    fn take_h(&mut self, live: usize) {
        if self.acc.len() < live {
            self.acc.resize(live, ZERO_LANES);
        }
        self.dirty = self.dirty.max(live);
    }

    /// Make `acc` at least `live` slots, all of them zero, and mark them in
    /// use until the left kernel ends.
    fn take_g(&mut self, live: usize) {
        self.acc[..self.dirty].fill(ZERO_LANES);
        debug_assert!(
            self.acc
                .iter()
                .all(|l| l.0.iter().all(|x| x.to_bits() == 0)),
            "G is not zero beyond the dirty prefix"
        );
        if self.acc.len() < live {
            self.acc.resize(live, ZERO_LANES);
        }
        self.dirty = live;
    }

    /// Grow the capacities a kernel on a batch of up to `slots` live slots,
    /// `rows` tuples and `cols` columns fills, without writing them: a
    /// kernel run afterwards (on another thread, say) allocates nothing.
    pub(crate) fn reserve(&mut self, slots: usize, rows: usize, cols: usize) {
        reserve_len(&mut self.acc, slots);
        reserve_len(&mut self.m_block, cols);
        reserve_len(&mut self.m_t, rows);
        reserve_len(&mut self.out_t, cols);
    }
}

/// Make `v`'s capacity at least `len`.
pub(crate) fn reserve_len<T>(v: &mut Vec<T>, len: usize) {
    v.reserve(len.saturating_sub(v.len()));
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
    // `h` is written before it is read, so it needs no zeros.
    ws.take_h(plan.live());
    let h = &mut ws.acc[..plan.live()];
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

/// Algorithm 8 (Appendix B.2) for one block of [`BLOCK`] lanes: the core
/// [`matmat_left_into`] and [`matmat_t_into`] share; they differ only in
/// how they stage a tuple's lanes (`lanes(r)`) and where they copy
/// `out_t` to.
///
/// Scan `D` to accumulate `G(i) = Σ lanes(r)` over all occurrences of code
/// `i`, then scan the live slots **backwards**, multiplying each slot's
/// weight into its key's column of `out_t` and pushing it onto its parent.
/// `g` comes in all zero and leaves all zero: the scan zeroes each slot
/// once it has read it (no slot is pushed onto after its turn — parents
/// precede children), and the root, which is never read, at the end.
///
/// The algorithm skips a slot whose weight is zero; per lane that is a
/// select on the product (a zero weight must not multiply a non-finite
/// key into a NaN) and nothing else: the sums start at `+0.0`, and
/// `x + y` is `-0.0` only when both are, so neither a result lane nor a
/// parent's weight is ever `-0.0`, and adding the selected `+0.0`, or a
/// weight of `±0.0`, leaves it exactly as the skipped step would.
fn left_block(
    plan: &LivePlan,
    g: &mut [Lanes],
    out_t: &mut Vec<Lanes>,
    lanes: impl Fn(usize) -> Lanes,
) {
    for r in 0..plan.rows {
        let x = lanes(r).0;
        for &c in plan.row_codes(r) {
            let mut gc = g[c as usize].0;
            for (gl, xl) in gc.iter_mut().zip(&x) {
                *gl += xl;
            }
            g[c as usize].0 = gc;
        }
    }
    out_t.clear();
    out_t.resize(plan.cols, ZERO_LANES);
    let keys = plan.key_col.iter().zip(&plan.key_val).zip(&plan.parent);
    for (i, ((&col, &key_val), &parent)) in keys.enumerate().skip(1).rev() {
        let gi = g[i].0;
        g[i] = ZERO_LANES;
        let mut gp = g[parent as usize].0;
        let mut o = out_t[col as usize].0;
        for ((ol, pl), &weight) in o.iter_mut().zip(&mut gp).zip(&gi) {
            *ol += if weight != 0.0 { key_val * weight } else { 0.0 };
            *pl += weight;
        }
        g[parent as usize].0 = gp;
        out_t[col as usize].0 = o;
    }
    g[0] = ZERO_LANES;
}

/// Algorithm 8 (Appendix B.2), `M · A` with uncompressed `M` (`p × rows`),
/// into a caller-owned matrix (`p × cols`).
///
/// Per block of `M`'s rows, one `left_block`. `M` is row-major along the
/// tuples and the result along the columns, so the block of `M` is staged
/// transposed into `m_t` and the block of the result copied out of
/// `out_t` transposed: every inner loop runs along a node's lanes.
pub fn matmat_left_into(
    plan: &LivePlan,
    m: &DenseMatrix,
    ws: &mut BlockScratch,
    out: &mut DenseMatrix,
) {
    debug_assert_eq!(m.cols(), plan.rows);
    let p = m.rows();
    out.reset(p, plan.cols);
    ws.take_g(plan.live());
    for q0 in (0..p).step_by(BLOCK) {
        let w = BLOCK.min(p - q0);
        ws.m_t.clear();
        ws.m_t.resize(plan.rows, ZERO_LANES);
        for l in 0..w {
            for (lanes, &x) in ws.m_t.iter_mut().zip(m.row(q0 + l)) {
                lanes.0[l] = x;
            }
        }
        let m_t = &ws.m_t;
        left_block(plan, &mut ws.acc, &mut ws.out_t, |r| m_t[r]);
        for l in 0..w {
            for (o, lanes) in out.row_mut(q0 + l).iter_mut().zip(&ws.out_t) {
                *o = lanes.0[l];
            }
        }
    }
    ws.dirty = 0;
}

/// `Aᵀ · D` with uncompressed `D` (`rows × p`), into a caller-owned matrix
/// (`cols × p`): Algorithm 8 with `M = Dᵀ`, returning `(Dᵀ · A)ᵀ` — the
/// neural net's first-layer weight gradient, `D` its backward delta.
///
/// Both operands are already laid out along the lanes: a tuple's lanes
/// are `D[r][q0..q0 + BLOCK]`, built as the scatter reaches the tuple, and
/// `out_t`'s lanes are copied straight into `out[c][q0..q0 + BLOCK]`, so
/// nothing is staged transposed. Per lane the operations and their order
/// are [`matmat_left_into`]'s, so the result is bit for bit the transpose
/// of `matmat_left_into(Dᵀ)`.
pub fn matmat_t_into(
    plan: &LivePlan,
    d: &DenseMatrix,
    ws: &mut BlockScratch,
    out: &mut DenseMatrix,
) {
    debug_assert_eq!(d.rows(), plan.rows);
    let p = d.cols();
    out.reset(plan.cols, p);
    ws.take_g(plan.live());
    for q0 in (0..p).step_by(BLOCK) {
        let w = BLOCK.min(p - q0);
        // Columns `q0..q0 + w` of `D`, lanes past `w` zero. Both arms copy
        // the same doubles; a full block's count is known when compiling.
        if w == BLOCK {
            left_block(plan, &mut ws.acc, &mut ws.out_t, |r| {
                Lanes(d.row(r)[q0..q0 + BLOCK].try_into().expect("a full block"))
            });
        } else {
            left_block(plan, &mut ws.acc, &mut ws.out_t, |r| {
                let mut lanes = ZERO_LANES;
                lanes.0[..w].copy_from_slice(&d.row(r)[q0..q0 + w]);
                lanes
            });
        }
        for (c, lanes) in ws.out_t.iter().enumerate() {
            out.row_mut(c)[q0..q0 + w].copy_from_slice(&lanes.0[..w]);
        }
    }
    ws.dirty = 0;
}

/// Push node `code`'s sequence onto `stack`, last pair first.
fn backtrack(tree: &DecodeTree, code: u32, stack: &mut Vec<(u32, f64)>) {
    stack.clear();
    let mut cur = code;
    while cur != 0 {
        stack.push(tree.key_of(cur));
        cur = tree.parent[cur as usize];
    }
}

/// Decode directly into a caller-owned dense matrix: the zero-allocation
/// counterpart of `decode_sparse().decode()`. `stack` is a reusable
/// scratch buffer.
pub fn decode_into(tree: &DecodeTree, stack: &mut Vec<(u32, f64)>, out: &mut DenseMatrix) {
    out.reset(tree.rows, tree.cols);
    for r in 0..tree.rows {
        for &code in tree.row_codes(r) {
            backtrack(tree, code, stack);
            for &(col, val) in stack.iter().rev() {
                out.set(r, col as usize, val);
            }
        }
    }
}

/// Full decode to sparse rows (the core of Algorithm 6): backtrack every
/// code through `C'` with a reusable scratch stack; total work is linear in
/// the number of decoded pairs.
pub fn decode_sparse(tree: &DecodeTree) -> SparseRows {
    gather(tree, 0..tree.rows)
}

/// Partial decode: materialize only the selected rows (in the given
/// order) as sparse rows, without touching the rest of the batch. Useful
/// for sampling-style access patterns (e.g. shuffle-always MGD, §2.1.3):
/// cost is work linear in the *selected* pairs.
pub fn gather_rows(tree: &DecodeTree, rows: &[usize]) -> SparseRows {
    gather(
        tree,
        rows.iter().map(|&r| {
            assert!(r < tree.rows, "row {r} out of range");
            r
        }),
    )
}

fn gather(tree: &DecodeTree, rows: impl ExactSizeIterator<Item = usize>) -> SparseRows {
    let n_rows = rows.len();
    let mut pairs: Vec<ColVal> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(n_rows + 1);
    offsets.push(0);
    let mut stack: Vec<(u32, f64)> = Vec::new();
    for r in rows {
        for &code in tree.row_codes(r) {
            backtrack(tree, code, &mut stack);
            pairs.extend(stack.iter().rev().map(|&(col, val)| ColVal { col, val }));
        }
        offsets.push(pairs.len());
    }
    SparseRows::from_parts(n_rows, tree.cols, pairs, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{KernelScratch, PhysicalCodec, TocBatch, TocView};
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
            let (key_col, key_val) = tree.key_of(i as u32);
            let mrow = m.row(key_col as usize);
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
            let (col, key_val) = tree.key_of(i as u32);
            let col = col as usize;
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

    /// Same length and, element by element, the same bits — except that a
    /// NaN only has to be a NaN: Rust leaves the sign and payload of a NaN
    /// that arithmetic makes unspecified, and which operand's NaN an add
    /// of two returns follows the operand order the compiler picked.
    fn assert_same_vec_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits(),
                "{what}: element {i}: {g:?} vs {w:?}"
            );
        }
    }

    /// [`assert_same_vec_bits`] for two matrices of the same shape.
    fn assert_same_bits(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        assert_same_vec_bits(got.data(), want.data(), what);
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
                    let want = oracle_matmat_left(&view, &tree, &m);
                    assert_same_bits(&out, &want, &what);
                    // `Aᵀ·D` with `D = Mᵀ` is the same sums, transposed.
                    toc.matmat_t_into(&m.transpose(), &mut out, &mut ws)
                        .unwrap();
                    assert_same_bits(&out, &want.transpose(), &what);
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
            let mut out = DenseMatrix::default();
            toc.matmat_t_into(&m.transpose(), &mut out, &mut KernelScratch::default())
                .unwrap();
            assert_same_bits(&out, &want.transpose(), "Aᵀ·D");
        }
    }

    /// Algorithm 4 with its row sums taken tuple by tuple: the form
    /// [`matvec_into`] replaced, kept as the oracle it must match bit for
    /// bit.
    fn oracle_matvec(tree: &DecodeTree, v: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0];
        let first = tree.first_col[1..].iter().zip(&tree.first_val[1..]);
        p.extend(first.map(|(&col, &val)| val * v[col as usize]));
        let mut h = vec![0.0; tree.len()];
        for (i, (&key, &parent)) in tree.key.iter().zip(&tree.parent).enumerate().skip(1) {
            h[i] = p[key as usize] + h[parent as usize];
        }
        let mut out = vec![0.0; tree.rows];
        for (o, w) in out.iter_mut().zip(tree.offsets.windows(2)) {
            let mut acc = 0.0;
            for &c in &tree.codes[w[0] as usize..w[1] as usize] {
                acc += h[c as usize];
            }
            *o = acc;
        }
        out
    }

    /// Algorithm 5 with its scatter taken tuple by tuple and its backward
    /// scan behind the `w != 0.0` branch: the oracle of [`vecmat_into`].
    fn oracle_vecmat(tree: &DecodeTree, v: &[f64]) -> Vec<f64> {
        let mut h = vec![0.0; tree.len()];
        for (&x, w) in v.iter().zip(tree.offsets.windows(2)) {
            for &c in &tree.codes[w[0] as usize..w[1] as usize] {
                h[c as usize] += x;
            }
        }
        let mut out = vec![0.0; tree.cols];
        let nodes = tree.key.iter().zip(&tree.parent).enumerate().skip(1);
        for (i, (&key, &parent)) in nodes.rev() {
            let w = h[i];
            if w != 0.0 {
                let key = key as usize;
                out[tree.first_col[key] as usize] += tree.first_val[key] * w;
                h[parent as usize] += w;
            }
        }
        out
    }

    /// A vector operand: random, all zeros of either sign, or random with
    /// the values a flat pass or a select could get wrong mixed in.
    fn vector(rng: &mut StdRng, len: usize, kind: usize) -> Vec<f64> {
        const SPECIAL: [f64; 7] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 8.0,
            -5e-324,
        ];
        (0..len)
            .map(|_| match kind {
                0 => rng.gen_range(-1.0..1.0),
                1 => SPECIAL[rng.gen_range(0..2usize)],
                _ if rng.gen::<f64>() < 0.3 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// `A·v` and `v·A` of `a`, encoded (built in a scratch) and parsed (the
    /// tree its validation replayed), in both codecs, against the oracles.
    fn check_vector_kernels_match_oracle(a: &DenseMatrix, scale: f64, rng: &mut StdRng) {
        // One scratch and one output across every call.
        let mut ws = KernelScratch::default();
        let mut out = Vec::new();
        for codec in [PhysicalCodec::BitPack, PhysicalCodec::Varint] {
            let mut encoded = TocBatch::encode_with(a, codec);
            encoded.scale(scale);
            let parsed = TocBatch::from_bytes(encoded.to_bytes()).unwrap();
            let tree = DecodeTree::build_trusted(&encoded.view());
            for (batch, how) in [(&encoded, "encoded"), (&parsed, "parsed")] {
                for kind in 0..4 {
                    let what =
                        format!("{}x{} {codec:?} {how} x{scale} v{kind}", a.rows(), a.cols());
                    let v = vector(rng, a.cols(), kind);
                    batch.matvec_into(&v, &mut out, &mut ws).unwrap();
                    assert_same_vec_bits(&out, &oracle_matvec(&tree, &v), &format!("A·v {what}"));
                    let v = vector(rng, a.rows(), kind);
                    batch.vecmat_into(&v, &mut out, &mut ws).unwrap();
                    assert_same_vec_bits(&out, &oracle_vecmat(&tree, &v), &format!("v·A {what}"));
                }
            }
        }
    }

    #[test]
    fn vector_kernels_match_the_nested_loop_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        for density in [0.05, 0.3, 0.9] {
            let a = random_redundant(&mut rng, 40, 23, density);
            check_vector_kernels_match_oracle(&a, 1.0, &mut rng);
        }
        // Zero rows; tuples without codes first, in the middle and last;
        // nothing but zeros; one row; one column.
        check_vector_kernels_match_oracle(&DenseMatrix::zeros(0, 5), 1.0, &mut rng);
        let mut gaps = random_redundant(&mut rng, 12, 9, 0.5);
        for r in [0, 1, 5, 6, 11] {
            gaps.row_mut(r).fill(0.0);
        }
        check_vector_kernels_match_oracle(&gaps, 1.0, &mut rng);
        check_vector_kernels_match_oracle(&DenseMatrix::zeros(10, 6), 1.0, &mut rng);
        let row = random_redundant(&mut rng, 1, 17, 0.6);
        check_vector_kernels_match_oracle(&row, 1.0, &mut rng);
        let column = DenseMatrix::from_vec(30, 1, (0..30).map(|i| (i % 3) as f64).collect());
        check_vector_kernels_match_oracle(&column, 1.0, &mut rng);
    }

    #[test]
    fn vector_kernels_match_the_oracle_on_non_finite_batch_values() {
        // Batch values NaN and ±inf, kept redundant (each stands for one
        // value of the pool), and `scale(inf)`, which makes every key
        // infinite: a zero weight must skip the multiply, not add its
        // NaN, and a NaN weight must take the step.
        let mut rng = StdRng::seed_from_u64(22);
        for empty in [vec![], vec![0, 4, 24]] {
            let mut a = random_redundant(&mut rng, 25, 14, 0.5);
            for x in a.data_mut() {
                *x = match *x {
                    -1.5 => f64::NAN,
                    -0.75 => f64::NEG_INFINITY,
                    1.5 => f64::INFINITY,
                    x => x,
                };
            }
            for r in empty {
                a.row_mut(r).fill(0.0);
            }
            for scale in [1.0, f64::INFINITY, f64::NEG_INFINITY] {
                check_vector_kernels_match_oracle(&a, scale, &mut rng);
            }
        }
    }

    #[test]
    fn a_left_kernel_that_did_not_finish_leaves_no_weight_behind() {
        // A call that unwinds half way through its scatter leaves weight
        // in `G`, its live prefix marked dirty; the next call must clear
        // it, not add to it.
        let mut rng = StdRng::seed_from_u64(19);
        let a = random_redundant(&mut rng, 30, 12, 0.5);
        let toc = TocBatch::encode(&a);
        let view = toc.view();
        let tree = DecodeTree::build_trusted(&view);
        let plan = LivePlan::build_compact(&tree);
        let d = operand(&mut rng, a.rows(), 11, false);
        let want = oracle_matmat_left(&view, &tree, &d.transpose()).transpose();
        let mut ws = BlockScratch::default();
        let mut out = DenseMatrix::default();
        matmat_t_into(&plan, &d, &mut ws, &mut out);
        assert_same_bits(&out, &want, "first call");
        assert!(ws.dirty == 0 && ws.acc.iter().all(|l| l.0 == [0.0; BLOCK]));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ws.take_g(plan.live());
            left_block(&plan, &mut ws.acc, &mut ws.out_t, |r| {
                assert!(r < plan.rows / 2, "a panic half way down D");
                Lanes([1.5; BLOCK])
            });
        }));
        assert!(unwound.is_err());
        assert_eq!(ws.dirty, plan.live());
        assert!(ws.acc.iter().any(|l| l.0 != [0.0; BLOCK]));
        matmat_t_into(&plan, &d, &mut ws, &mut out);
        assert_same_bits(&out, &want, "after an unwound call");
        matmat_left_into(&plan, &d.transpose(), &mut ws, &mut out);
        assert_same_bits(&out, &want.transpose(), "M·A after it");
    }

    #[test]
    fn a_left_kernel_after_a_m_zeroes_only_what_a_m_wrote() {
        // `A·M` leaves its `H` in the shared accumulator; the left kernels
        // after it, on a batch with more live slots and then fewer, must
        // match a fresh scratch bit for bit.
        let mut rng = StdRng::seed_from_u64(20);
        let small = random_redundant(&mut rng, 12, 9, 0.5);
        let large = random_redundant(&mut rng, 60, 21, 0.6);
        let plans: Vec<LivePlan> = [&small, &large, &small, &large]
            .iter()
            .map(|a| {
                LivePlan::build_compact(&DecodeTree::build_trusted(&TocBatch::encode(a).view()))
            })
            .collect();
        assert!(plans[0].live() < plans[1].live());
        let mut ws = BlockScratch::default();
        let (mut got, mut want) = (DenseMatrix::default(), DenseMatrix::default());
        for plan in &plans {
            let m = operand(&mut rng, plan.cols, 13, true);
            matmat_into(plan, &m, &mut ws, &mut got);
            matmat_into(plan, &m, &mut BlockScratch::default(), &mut want);
            assert_same_bits(&got, &want, "A·M");
            assert!(ws.dirty >= plan.live());
            let d = operand(&mut rng, plan.rows, 13, true);
            matmat_t_into(plan, &d, &mut ws, &mut got);
            matmat_t_into(plan, &d, &mut BlockScratch::default(), &mut want);
            assert_same_bits(&got, &want, "Aᵀ·D after A·M");
            assert_eq!(ws.dirty, 0);
            matmat_left_into(plan, &d.transpose(), &mut ws, &mut got);
            matmat_left_into(
                plan,
                &d.transpose(),
                &mut BlockScratch::default(),
                &mut want,
            );
            assert_same_bits(&got, &want, "M·A");
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
        let got = toc.gather_rows(&idx).decode();
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
