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
//! The replay adds a node for *every* adjacent pair, but `D` only ever
//! names the ones the encoder matched again later; on image-like data
//! almost half of `C'` is dictionary growth no code reaches. [`LivePlan`]
//! is `C'` without those nodes, next to `D` unpacked to plain integers.

use crate::batch::TocView;
use crate::error::{corrupt, TocError};

/// Parent-pointer prefix tree used by all compressed kernels.
///
/// Stored as parallel arrays indexed by node id; id 0 is the root (its key
/// slot is unused and holds `(0, 0.0)`). For node `i >= 1`:
/// `seq(i) = seq(parent[i]) ++ (key_col[i], key_val[i])`.
#[derive(Clone, Debug, Default)]
pub struct DecodeTree {
    pub key_col: Vec<u32>,
    pub key_val: Vec<f64>,
    pub parent: Vec<u32>,
}

/// Reusable scratch for [`DecodeTree::build_trusted_into`]: holds the `F`
/// array and the unpacked `D` and tuple offsets so that rebuilding `C'` for
/// a new batch performs no heap allocation in steady state.
#[derive(Clone, Debug, Default)]
pub struct TreeScratch {
    first: Vec<u32>,
    codes: Vec<u32>,
    offsets: Vec<u32>,
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
        let TreeScratch {
            first,
            codes,
            offsets,
        } = scratch;
        // The tuple offsets and `D`, unpacked once.
        offsets.clear();
        view.offsets.extend_into(0, view.rows + 1, offsets);
        codes.clear();
        view.codes_into(0, view.codes_len(), codes);
        if VALIDATE {
            if offsets[0] != 0 {
                return Err(corrupt("first offset must be 0"));
            }
            if offsets.windows(2).any(|w| w[1] < w[0]) {
                return Err(corrupt("offsets must be non-decreasing"));
            }
            if offsets[view.rows] as usize != codes.len() {
                return Err(corrupt("last offset must equal code count"));
            }
        }
        // Root + |I| + one node per adjacent code pair. Exact: with the
        // offsets a partition of `D`, the replay below fills every slot
        // and cannot step past the last.
        let nonempty = offsets.windows(2).filter(|w| w[1] > w[0]).count();
        let n = 1 + n_first + codes.len() - nonempty;

        let DecodeTree {
            key_col,
            key_val,
            parent,
        } = tree;
        // Root, then Phase I: the first layer.
        key_col.clear();
        key_col.reserve_exact(n);
        key_col.push(0);
        view.i_cols.extend_into(0, n_first, key_col);
        if VALIDATE && key_col[1..].iter().any(|&c| c as usize >= view.cols) {
            return Err(corrupt("column index out of range"));
        }
        key_val.clear();
        key_val.reserve_exact(n);
        key_val.push(0.0);
        let n_values = view.values.len();
        view.i_validx.for_each_range(0, n_first, |ix| {
            if (ix as usize) < n_values {
                key_val.push(view.values.get(ix as usize));
            }
        });
        if key_val.len() != n_first + 1 {
            return Err(corrupt("value index out of range"));
        }
        key_col.resize(n, 0);
        key_val.resize(n, 0.0);
        parent.clear();
        parent.resize(n, 0);
        // F: the *node index* of the first pair of each node's sequence
        // (a first-layer node; 0 for the root). Keys of new nodes are then
        // plain array reads instead of physical-layer lookups.
        first.clear();
        first.extend(0..=n_first as u32);
        first.resize(n, 0);

        // Phase II: replay D.
        let mut next = n_first + 1;
        let unknown =
            |r: usize, c: u32| corrupt(format!("row {r}: code {c} references unknown node"));
        for (r, w) in offsets.windows(2).enumerate() {
            let Some((&head, tail)) = codes[w[0] as usize..w[1] as usize].split_first() else {
                continue;
            };
            // Each code is validated as it is encountered; the final (or
            // only) code of the row is checked after the pair loop.
            let mut a = head;
            for &b in tail {
                if VALIDATE {
                    if a == 0 || a as usize >= next {
                        return Err(unknown(r, a));
                    }
                    // `b` may reference the node being added right now (the
                    // LZW self-reference pattern); Algorithm 2 sets F before
                    // reading it, which the write order below reproduces.
                    if b == 0 || b as usize > next {
                        return Err(unknown(r, b));
                    }
                }
                parent[next] = a;
                first[next] = first[a as usize];
                let key_node = first[b as usize] as usize;
                key_col[next] = key_col[key_node];
                key_val[next] = key_val[key_node];
                next += 1;
                a = b;
            }
            if VALIDATE && (a == 0 || a as usize >= next) {
                return Err(unknown(r, a));
            }
        }
        Ok(())
    }

    /// Materialize the full sequence of node `n`, root-to-node order.
    /// Used by the sparse-unsafe decode path (Algorithm 6) and tests.
    pub fn sequence(&self, n: u32) -> Vec<(u32, f64)> {
        let mut rev = Vec::new();
        let mut cur = n;
        while cur != 0 {
            rev.push((self.key_col[cur as usize], self.key_val[cur as usize]));
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

/// The live part of `C'` for one batch, with `D` and the tuple offsets
/// unpacked into plain `u32`s: what `A·M` and `M·A` sweep.
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
    /// Derive the plan of `view` from its already built `tree`.
    pub fn build(view: &TocView<'_>, tree: &DecodeTree) -> LivePlan {
        let mut plan = LivePlan::default();
        plan.rebuild(view, tree);
        plan
    }

    /// [`Self::build`] into `self`, reusing its allocations.
    pub fn rebuild(&mut self, view: &TocView<'_>, tree: &DecodeTree) {
        let n = tree.len();
        self.rows = view.rows;
        self.cols = view.cols;
        self.codes.clear();
        view.codes_into(0, view.codes_len(), &mut self.codes);
        self.offsets.clear();
        view.offsets
            .extend_into(0, view.rows + 1, &mut self.offsets);

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
                self.key_col.push(tree.key_col[i]);
                self.key_val.push(tree.key_val[i]);
            }
        }
        for c in &mut self.codes {
            *c = slot_of[*c as usize];
        }
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
        // Keys (paper): 1:1.1 2:2 3:3 4:1.4 2:1.1 | 2:2 3:3 4:1.4 3:3 3:3
        let t = fig3_tree();
        let keys: Vec<(u32, f64)> = (1..11).map(|i| (t.key_col[i], t.key_val[i])).collect();
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
        let plan = LivePlan::build(&view, &tree);
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
