//! The decoding prefix tree `C'` (Algorithm 2, §4.1.2) and the *live plan*
//! the matrix kernels derive from it.
//!
//! `C'` is a simplified variant of the encoding tree `C`: every node keeps
//! its key (a column index:value pair) and the index of its *parent*, but no
//! child pointers. It is rebuilt from `(I, D)` by replaying the dictionary
//! growth of Algorithm 1: for every adjacent code pair `(D[i][j],
//! D[i][j+1])` a node was added whose parent is `D[i][j]` and whose key is
//! the first pair of the sequence represented by `D[i][j+1]`.
//!
//! That first pair is always a first-layer pair: Algorithm 2's `F` names,
//! for every node, the first-layer node its sequence starts with, and the
//! new node's key is `F[D[i][j+1]]`'s. So a node's key is the same
//! information as an index into `I`, and [`DecodeTree`] keeps that index
//! (`key`) instead of a copy of the pair: 4 bytes per node where the pair
//! took 12, and the kernels read `I` — 169 entries on a 250-row
//! census-like batch, beside 1 700 nodes — through it. `A·v` turns that into one product per first-layer pair
//! instead of one per node (see [`crate::ops::matvec_into`]).
//!
//! The replay adds a node for *every* adjacent pair, but `D` only ever
//! names the ones the encoder matched again later; on image-like data
//! almost half of `C'` is dictionary growth no code reaches. [`LivePlan`]
//! is `C'` without those nodes, next to `D` remapped to their slots.

use crate::batch::{TocStats, TocView};
use crate::error::{corrupt, TocError};
use crate::ops::reserve_len;

/// Parent-pointer prefix tree used by all compressed kernels, with the
/// batch's first layer `I` and encoded table `D` unpacked beside it: what
/// every kernel reads, in plain arrays.
///
/// Nodes are indexed by id; id 0 is the root and ids `1..=|I|` are the
/// first layer, in `I`'s order. For node `i >= 1`:
/// `seq(i) = seq(parent[i]) ++ (first_col[key[i]], first_val[key[i]])`.
#[derive(Clone, Debug, Default)]
pub struct DecodeTree {
    /// Matrix rows (tuples in `D`).
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Parent of each node (the root's slot holds 0).
    pub parent: Vec<u32>,
    /// The first-layer node whose pair is each node's key (the root's slot
    /// holds 0).
    pub key: Vec<u32>,
    /// Column of each first-layer node, `|I| + 1` entries indexed by node
    /// id (entry 0, the root's, holds 0).
    pub first_col: Vec<u32>,
    /// Value of each first-layer node, indexed like [`Self::first_col`]
    /// (entry 0 holds `0.0`).
    pub first_val: Vec<f64>,
    /// `D`: every tuple's codes, concatenated.
    pub codes: Vec<u32>,
    /// Tuple boundaries in `codes`: `rows + 1` entries.
    pub offsets: Vec<u32>,
    /// The tuple of each code: `code_row[k]` is the `r` with `offsets[r]
    /// <= k < offsets[r + 1]`, one entry per element of [`Self::codes`],
    /// so the vector kernels scan `D` in one flat pass.
    pub code_row: Vec<u32>,
}

/// Reusable scratch for [`DecodeTree::build_trusted_into`]: Algorithm 2's
/// `F` array, so that rebuilding `C'` for a new batch performs no heap
/// allocation in steady state.
#[derive(Clone, Debug, Default)]
pub struct TreeScratch {
    first: Vec<u32>,
}

impl TreeScratch {
    /// [`DecodeTree::reserve`] for the scratch of the build.
    pub(crate) fn reserve(&mut self, s: &TocStats) {
        reserve_len(&mut self.first, s.n_nodes + 1);
    }
}

impl DecodeTree {
    /// Number of nodes, root included (`len(C')` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// The key pair of node `n`.
    #[inline]
    pub fn key_of(&self, n: u32) -> (u32, f64) {
        let k = self.key[n as usize] as usize;
        (self.first_col[k], self.first_val[k])
    }

    /// Codes of tuple `r`.
    #[inline]
    pub fn row_codes(&self, r: usize) -> &[u32] {
        &self.codes[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Algorithm 2 (`BuildPrefixTree`): rebuild `C'` from the view's
    /// `(I, D)`. Also the integrity check for untrusted buffers, in the
    /// same walk: `I`'s column and value indexes are in range, the tuple
    /// offsets partition `D`, and every code in `D` references a node that
    /// exists at the time it is replayed.
    pub fn build(view: &TocView<'_>) -> Result<DecodeTree, TocError> {
        let mut tree = DecodeTree::default();
        let mut scratch = TreeScratch::default();
        Self::build_impl::<true>(view, &mut tree, &mut scratch)?;
        Ok(tree)
    }

    /// [`Self::build`] without validation, for buffers that were already
    /// validated once (a batch made by `encode` rebuilds `C'` for every
    /// visit, so revalidating each time would tax the hot path).
    pub fn build_trusted(view: &TocView<'_>) -> DecodeTree {
        let mut tree = DecodeTree::default();
        let mut scratch = TreeScratch::default();
        Self::build_impl::<false>(view, &mut tree, &mut scratch)
            .expect("trusted batch must replay");
        tree
    }

    /// [`Self::build_trusted`] into caller-owned buffers: the tree arrays
    /// and the scratch are cleared and refilled, reusing their allocations.
    /// This is the zero-allocation entry point of the workspace kernel API.
    pub fn build_trusted_into(
        view: &TocView<'_>,
        tree: &mut DecodeTree,
        scratch: &mut TreeScratch,
    ) {
        Self::build_impl::<false>(view, tree, scratch).expect("trusted batch must replay");
    }

    fn build_impl<const VALIDATE: bool>(
        view: &TocView<'_>,
        tree: &mut DecodeTree,
        scratch: &mut TreeScratch,
    ) -> Result<(), TocError> {
        let n_first = view.first_layer_len();
        if VALIDATE {
            if view.i_validx.len() != n_first {
                return Err(corrupt("I column/value-index length mismatch"));
            }
            if view.offsets.len() != view.rows + 1 {
                return Err(corrupt("offset table length mismatch"));
            }
        }
        let DecodeTree {
            rows,
            cols,
            parent,
            key,
            first_col,
            first_val,
            codes,
            offsets,
            code_row,
        } = tree;
        (*rows, *cols) = (view.rows, view.cols);
        // The tuple offsets and `D`, unpacked once.
        offsets.clear();
        view.offsets.extend_into(0, view.rows + 1, offsets);
        codes.clear();
        view.codes_into(0, view.codes_len(), codes);
        if VALIDATE && offsets[0] != 0 {
            return Err(corrupt("first offset must be 0"));
        }
        // One pass over the offsets: are they non-decreasing, how many
        // tuples have codes, and how many tuples after the first start at
        // each position of `D` — the replay's prefix sum of those counts
        // is `code_row`.
        code_row.clear();
        code_row.resize(codes.len(), 0);
        let (mut decreasing, mut nonempty) = (false, 0);
        for w in offsets.windows(2) {
            decreasing |= w[1] < w[0];
            nonempty += (w[1] > w[0]) as usize;
            if let Some(c) = code_row.get_mut(w[1] as usize) {
                *c += 1;
            }
        }
        if VALIDATE {
            if decreasing {
                return Err(corrupt("offsets must be non-decreasing"));
            }
            if offsets[view.rows] as usize != codes.len() {
                return Err(corrupt("last offset must equal code count"));
            }
        }
        // Root + |I| + one node per adjacent code pair. Exact: with the
        // offsets a partition of `D`, the replay below adds the rest.
        let n = 1 + n_first + codes.len() - nonempty;

        // Phase I: the first layer, entry 0 standing for the root.
        first_col.clear();
        first_col.reserve_exact(n_first + 1);
        first_col.push(0);
        view.i_cols.extend_into(0, n_first, first_col);
        if VALIDATE && first_col[1..].iter().any(|&c| c as usize >= view.cols) {
            return Err(corrupt("column index out of range"));
        }
        first_val.clear();
        first_val.reserve_exact(n_first + 1);
        first_val.push(0.0);
        let n_values = view.values.len();
        view.i_validx.for_each_range(0, n_first, |ix| {
            if (ix as usize) < n_values {
                first_val.push(view.values.get(ix as usize));
            }
        });
        if first_val.len() != n_first + 1 {
            return Err(corrupt("value index out of range"));
        }

        // Phase II: replay D. Every code `b` but a tuple's first closes a
        // pair `(a, b)` with the code before it, which adds node `next`:
        // parent `a`, `F[next] = F[a]`, then key `F[b]` — in that order,
        // since `b` may be `next` itself (the LZW self-reference pattern;
        // Algorithm 2 sets F before reading it). `F[a]` is the `F[b]` the
        // code before read, so each code reads `F` once. One flat pass over
        // `D`, without a branch on where tuples start: a tuple's first code
        // writes the three entries into the slot of the next node without
        // advancing, and the next pair overwrites them (hence one slot of
        // slack). A code starts a tuple when it is `D`'s first or some
        // tuple's offset names it, and the same pass sums those counts
        // into `code_row`. A code names a node that exists when it is
        // replayed: `1 <= b <= next` for a pair's second code, `1 <= b <
        // next` for a tuple's first, checked before it is read.
        let first = &mut scratch.first;
        parent.clear();
        parent.resize(n + 1, 0);
        key.clear();
        key.resize(n + 1, 0);
        first.clear();
        first.resize(n + 1, 0);
        for i in 1..=n_first {
            (key[i], first[i]) = (i as u32, i as u32);
        }
        let mut next = n_first + 1;
        let (mut a, mut first_a, mut row) = (0, 0, 0);
        for (k, (&b, r)) in codes.iter().zip(code_row.iter_mut()).enumerate() {
            let start = (*r != 0) | (k == 0);
            row += *r;
            *r = row;
            if VALIDATE && b.wrapping_sub(1) as usize >= next - start as usize {
                return Err(corrupt(format!(
                    "row {row}: code {b} references unknown node"
                )));
            }
            parent[next] = a;
            first[next] = first_a;
            let first_b = first[b as usize];
            key[next] = first_b;
            next += !start as usize;
            (a, first_a) = (b, first_b);
        }
        debug_assert_eq!(next, n);
        parent.truncate(n);
        key.truncate(n);
        Ok(())
    }

    /// Grow the capacity of every array a build of a batch with these
    /// statistics fills, writing nothing.
    pub(crate) fn reserve(&mut self, s: &TocStats) {
        reserve_len(&mut self.parent, s.n_nodes + 1);
        reserve_len(&mut self.key, s.n_nodes + 1);
        reserve_len(&mut self.first_col, s.first_layer_len + 1);
        reserve_len(&mut self.first_val, s.first_layer_len + 1);
        reserve_len(&mut self.codes, s.codes_len);
        reserve_len(&mut self.offsets, s.rows + 1);
        reserve_len(&mut self.code_row, s.codes_len);
    }

    /// Materialize the full sequence of node `n`, root-to-node order.
    /// Used by tests.
    pub fn sequence(&self, n: u32) -> Vec<(u32, f64)> {
        let mut rev = Vec::new();
        let mut cur = n;
        while cur != 0 {
            rev.push(self.key_of(cur));
            cur = self.parent[cur as usize];
        }
        rev.reverse();
        rev
    }

    /// Depth of node `n` (sequence length).
    pub fn depth(&self, n: u32) -> usize {
        let mut d = 0;
        let mut cur = n;
        while cur != 0 {
            d += 1;
            cur = self.parent[cur as usize];
        }
        d
    }
}

/// The live part of `C'` for one batch, with its keys read out of `I` and
/// `D` remapped to it: what `A·M` and `M·A` (and `Aᵀ·D`, its
/// transposed form) sweep.
///
/// A node is *live* if some code in `D` names it or one of its
/// descendants; every other node is dead. Dropping the dead nodes is
/// exact: `A·M` only ever reads `H` at a code and, from there, up the
/// parent chain, and `M·A` starts every node at weight zero and moves
/// weight only from a code up the parent chain, so a dead node's `H` row
/// is never read by the one and stays zero — contributes nothing — in the
/// other. Live nodes are renumbered into consecutive *slots* in creation
/// order (slot 0 is the root), which keeps `parent slot < own slot`, the
/// topological order both kernels scan by.
#[derive(Clone, Debug, Default)]
pub struct LivePlan {
    /// Matrix rows (tuples in `D`).
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Key column of each slot (slot 0, the root, holds `(0, 0.0)`).
    pub key_col: Vec<u32>,
    /// Key value of each slot.
    pub key_val: Vec<f64>,
    /// Slot of each slot's parent.
    pub parent: Vec<u32>,
    /// `D` with every code replaced by its slot, tuples concatenated.
    pub codes: Vec<u32>,
    /// Tuple boundaries in `codes`: `rows + 1` entries.
    pub offsets: Vec<u32>,
    /// Node id → slot, [`DEAD`] for a pruned node.
    slot_of: Vec<u32>,
}

/// [`LivePlan::slot_of`] marker of a node that was pruned.
const DEAD: u32 = u32::MAX;

impl LivePlan {
    /// Derive the plan of a batch from its already built `tree`.
    pub fn build(tree: &DecodeTree) -> LivePlan {
        let mut plan = LivePlan::default();
        plan.rebuild(tree);
        plan
    }

    /// [`Self::build`] into `self`, reusing its allocations. `D` and the
    /// tuple offsets are the tree's, which its replay unpacked.
    pub fn rebuild(&mut self, tree: &DecodeTree) {
        let n = tree.len();
        self.rows = tree.rows;
        self.cols = tree.cols;
        self.codes.clear();
        self.codes.extend_from_slice(&tree.codes);
        self.offsets.clear();
        self.offsets.extend_from_slice(&tree.offsets);

        // Mark (0 = live until slots are handed out): a code's node is
        // live, and liveness climbs to the root. Parents precede children,
        // so one backward scan settles it; `&=` instead of a test because
        // live and dead alternate too irregularly to predict.
        let slot_of = &mut self.slot_of;
        slot_of.clear();
        slot_of.resize(n, DEAD);
        slot_of[0] = 0;
        for &c in &self.codes {
            slot_of[c as usize] = 0;
        }
        for i in (1..n).rev() {
            slot_of[tree.parent[i] as usize] &= slot_of[i];
        }

        // Renumber in creation order; a parent's slot is final before
        // any child asks for it.
        self.key_col.clear();
        self.key_val.clear();
        self.parent.clear();
        for i in 0..n {
            if slot_of[i] != DEAD {
                slot_of[i] = self.parent.len() as u32;
                self.parent.push(slot_of[tree.parent[i] as usize]);
                let (col, val) = tree.key_of(i as u32);
                self.key_col.push(col);
                self.key_val.push(val);
            }
        }
        for c in &mut self.codes {
            *c = slot_of[*c as usize];
        }
    }

    /// Grow the capacity of every vector a rebuild for a batch with these
    /// statistics fills, writing nothing.
    pub(crate) fn reserve(&mut self, s: &TocStats) {
        for v in [&mut self.key_col, &mut self.parent, &mut self.slot_of] {
            reserve_len(v, s.n_nodes);
        }
        reserve_len(&mut self.key_val, s.n_nodes);
        reserve_len(&mut self.codes, s.codes_len);
        reserve_len(&mut self.offsets, s.rows + 1);
    }

    /// [`Self::build`] for a plan that is kept: without the node → slot
    /// map (no kernel reads it) and with every vector allocated to its
    /// length, so [`Self::heap_bytes`] is at most `16·len(C') + 4·|D| +
    /// 4·(rows + 1)`.
    pub(crate) fn build_compact(tree: &DecodeTree) -> LivePlan {
        let mut plan = Self::build(tree);
        plan.slot_of = Vec::new();
        plan.key_col.shrink_to_fit();
        plan.key_val.shrink_to_fit();
        plan.parent.shrink_to_fit();
        plan.codes.shrink_to_fit();
        plan.offsets.shrink_to_fit();
        plan
    }

    /// Heap bytes the plan's vectors hold (their capacities).
    pub(crate) fn heap_bytes(&self) -> usize {
        let u32s = self.key_col.capacity()
            + self.parent.capacity()
            + self.codes.capacity()
            + self.offsets.capacity()
            + self.slot_of.capacity();
        4 * u32s + 8 * self.key_val.capacity()
    }

    /// Number of live slots, root included.
    #[inline]
    pub fn live(&self) -> usize {
        self.parent.len()
    }

    /// The slot `C'` node `node` was renumbered to, `None` if it is dead.
    pub fn slot_of(&self, node: u32) -> Option<u32> {
        Some(self.slot_of[node as usize]).filter(|&s| s != DEAD)
    }

    /// Slots of tuple `r`'s codes.
    #[inline]
    pub fn row_codes(&self, r: usize) -> &[u32] {
        &self.codes[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TocBatch;
    use toc_linalg::DenseMatrix;

    fn fig3() -> TocBatch {
        TocBatch::encode(&DenseMatrix::from_rows(vec![
            vec![1.1, 2.0, 3.0, 1.4],
            vec![1.1, 2.0, 3.0, 0.0],
            vec![0.0, 1.1, 3.0, 1.4],
            vec![1.1, 2.0, 0.0, 0.0],
        ]))
    }

    fn fig3_tree() -> DecodeTree {
        DecodeTree::build(&fig3().view()).unwrap()
    }

    #[test]
    fn table4_parent_pointers() {
        // Table 4 of the paper (1-based columns there; 0-based here):
        // Index:      1  2  3  4  5  6  7  8  9  10
        // ParentIdx:  0  0  0  0  0  1  2  3  6  5
        let t = fig3_tree();
        assert_eq!(t.len(), 11);
        assert_eq!(&t.parent[1..], &[0, 0, 0, 0, 0, 1, 2, 3, 6, 5]);
    }

    #[test]
    fn table4_keys() {
        // Keys (paper): 1:1.1 2:2 3:3 4:1.4 2:1.1 | 2:2 3:3 4:1.4 3:3 3:3,
        // each one the first-layer node that holds the pair.
        let t = fig3_tree();
        assert_eq!(&t.key[1..], &[1, 2, 3, 4, 5, 2, 3, 4, 3, 3]);
        let keys: Vec<(u32, f64)> = (1..11).map(|i| t.key_of(i)).collect();
        assert_eq!(
            keys,
            vec![
                (0, 1.1),
                (1, 2.0),
                (2, 3.0),
                (3, 1.4),
                (1, 1.1),
                (1, 2.0),
                (2, 3.0),
                (3, 1.4),
                (2, 3.0),
                (2, 3.0),
            ]
        );
    }

    #[test]
    fn sequences_match_table2() {
        // Node 9 represents [1:1.1, 2:2, 3:3]; node 10 is [2:1.1, 3:3].
        let t = fig3_tree();
        assert_eq!(t.sequence(9), vec![(0, 1.1), (1, 2.0), (2, 3.0)]);
        assert_eq!(t.sequence(10), vec![(1, 1.1), (2, 3.0)]);
        assert_eq!(t.sequence(6), vec![(0, 1.1), (1, 2.0)]);
        assert_eq!(t.depth(9), 3);
    }

    #[test]
    fn fig3_live_plan_drops_the_three_unreferenced_entries() {
        // D = [1 2 3 4 | 6 3 | 5 8 | 6] names 1..=6 and 8; 8 keeps its
        // parent 3 alive, 6 its parent 1. Nodes 7, 9 and 10 were added by
        // the replay and never matched again.
        let toc = fig3();
        let view = toc.view();
        let tree = DecodeTree::build(&view).unwrap();
        let plan = LivePlan::build(&tree);
        assert_eq!((plan.rows, plan.cols), (4, 4));
        assert_eq!(plan.live(), 8);
        assert_eq!(plan.parent, vec![0, 0, 0, 0, 0, 0, 1, 3]);
        assert_eq!(plan.codes, vec![1, 2, 3, 4, 6, 3, 5, 7, 6]);
        assert_eq!(plan.offsets, vec![0, 4, 6, 8, 9]);
        assert_eq!(plan.row_codes(2), &[5, 7]);
        for dead in [7, 9, 10] {
            assert_eq!(plan.slot_of(dead), None);
        }
        assert_eq!(plan.slot_of(8), Some(7));
        assert_eq!((plan.key_col[7], plan.key_val[7]), (3, 1.4));

        // The kept form: the same slots, no map, nothing over length.
        let kept = LivePlan::build_compact(&tree);
        assert_eq!(
            (&kept.key_col, &kept.parent, &kept.codes, &kept.offsets),
            (&plan.key_col, &plan.parent, &plan.codes, &plan.offsets)
        );
        assert_eq!(kept.key_val, plan.key_val);
        assert_eq!(kept.heap_bytes(), 16 * 8 + 4 * 9 + 4 * 5);
    }

    #[test]
    fn code_row_names_the_tuple_of_every_code() {
        // Six tuples of codes with empty tuples in every position: one
        // alone at each place, runs at either end and in the middle, all
        // but one, and all. Each is replayed validated and, through one
        // scratch whose sizes shrink and grow, trusted.
        let full = [
            vec![1.0, 2.0, 0.0, 3.0],
            vec![1.0, 2.0, 0.0, 0.0],
            vec![0.0, 2.0, 5.0, 3.0],
            vec![1.0, 2.0, 5.0, 3.0],
            vec![4.0, 0.0, 0.0, 3.0],
            vec![1.0, 2.0, 0.0, 3.0],
        ];
        let mut empties: Vec<Vec<usize>> = (0..6).map(|r| vec![r]).collect();
        empties.extend([
            vec![0, 1],
            vec![4, 5],
            vec![2, 3],
            vec![0, 5],
            vec![0, 1, 2, 3, 5],
        ]);
        empties.extend([(0..6).collect(), vec![]]);
        let (mut trusted, mut scratch) = (DecodeTree::default(), TreeScratch::default());
        for empty in &empties {
            let mut rows = full.to_vec();
            for &r in empty {
                rows[r].fill(0.0);
            }
            let toc = TocBatch::encode(&DenseMatrix::from_rows(rows));
            let view = toc.view();
            DecodeTree::build_trusted_into(&view, &mut trusted, &mut scratch);
            for tree in [&DecodeTree::build(&view).unwrap(), &trusted] {
                assert_eq!(tree.code_row.len(), tree.codes.len(), "empty {empty:?}");
                for (k, &r) in tree.code_row.iter().enumerate() {
                    let r = r as usize;
                    let (s, e) = (tree.offsets[r] as usize, tree.offsets[r + 1] as usize);
                    assert!(s <= k && k < e, "empty {empty:?}: code {k} in row {r}");
                }
            }
        }
    }

    #[test]
    fn rebuild_matches_encoder_for_random_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..10 {
            let rows = rng.gen_range(1..40);
            let cols = rng.gen_range(1..30);
            let mut m = DenseMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    if rng.gen::<f64>() < 0.4 {
                        m.set(r, c, ((rng.gen_range(0..4) * 7) as f64) / 2.0 + 0.5);
                    }
                }
            }
            let toc = TocBatch::encode(&m);
            let view = toc.view();
            let tree = DecodeTree::build(&view).unwrap();
            // Decoding each row's codes through the tree reproduces the
            // sparse rows exactly.
            let sparse = toc_linalg::SparseRows::encode(&m);
            for r in 0..rows {
                let (s, e) = view.row_range(r);
                let mut pairs = Vec::new();
                for k in s..e {
                    pairs.extend(tree.sequence(view.code(k)));
                }
                let expect: Vec<(u32, f64)> =
                    sparse.row(r).iter().map(|p| (p.col, p.val)).collect();
                assert_eq!(pairs, expect, "row {r}");
            }
        }
    }
}
