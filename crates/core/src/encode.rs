//! Logical encoding (§3.1): the LZW-inspired prefix-tree encoding algorithm
//! (Algorithm 1) that turns a sparse-encoded table `B` into the encoded
//! table `D` plus the first layer of the prefix tree `I`.
//!
//! Unlike LZW, tuple boundaries are preserved: each tuple is encoded
//! separately (the dictionary is shared across tuples) and the compression
//! unit is a whole column index:value pair, never a byte.
//!
//! # Dictionary keys
//!
//! A prefix-tree edge is "node `n` followed by pair `col:val`". Phase I
//! already gives every distinct pair a node id of its own (its
//! first-layer node), so the pair in an edge can be named by that id
//! and the whole edge fits one word: `(parent << 32) | pair_node`. Phase
//! I writes each pair's id into `pair_node`, a vector parallel to the
//! pairs, and phase II never looks at a column or a value again:
//!
//! * the first element of a match *is* `pair_node[i]` — no probe;
//! * every extension is one probe of one `u64`-keyed map, and the probe
//!   that ends a match is the same one that inserts the new node.
//!
//! The map is keyed by that word folded (`edge`): [`crate::hash`]'s Fx
//! multiply leaves in the low bits of a hash — the ones a `HashMap`
//! picks its bucket from — only the low bits of the key, which here
//! are `pair_node` alone, so unfolded every edge into one pair would
//! start in one bucket (a near-constant column after a high-cardinality
//! one: an edge per row on one probe chain, `O(rows²)`).
//!
//! `pair ↔ pair_node` is a bijection and the fold is invertible, so two
//! edges are equal under the word key exactly when they were equal
//! under `(parent, col, value bits)`: nodes are created at the same
//! moments and numbered in the same order as in Algorithm 1, and `I`,
//! `D` and the tuple offsets — hence every [`crate::TocBatch`] byte —
//! do not depend on how the key is spelled. §3.1.2's `O(|B|)` now holds
//! with the constant it assumes: one probe of an 8-byte key per pair,
//! after one per pair to intern it.

use crate::hash::FxHashMap;
use std::collections::hash_map::Entry;
use toc_linalg::sparse::{ColVal, SparseRows};
use toc_linalg::DenseMatrix;

/// Output of the logical encoding step: everything needed to run compressed
/// kernels or to apply the physical encoding. Matches the paper's `(I, D)`
/// with explicit row boundaries.
#[derive(Clone, Debug)]
pub struct LogicalEncoded {
    /// Number of matrix rows.
    pub rows: usize,
    /// Number of matrix columns.
    pub cols: usize,
    /// `I`: the unique column index:value pairs in first-occurrence order.
    /// Tree node `i + 1` has key `first_layer[i]` (node 0 is the root).
    pub first_layer: Vec<ColVal>,
    /// `D`, concatenated: prefix-tree node indexes for all tuples.
    pub codes: Vec<u32>,
    /// Tuple start indexes into `codes`; length `rows + 1`, first element 0.
    pub row_offsets: Vec<u32>,
    /// Total prefix-tree node count (root + first layer + added nodes).
    pub n_nodes: u32,
}

impl LogicalEncoded {
    /// Codes of tuple `r`.
    #[inline]
    pub fn row_codes(&self, r: usize) -> &[u32] {
        &self.codes[self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize]
    }
}

/// A prefix-tree edge as one word, `(parent node << 32) | pair node`,
/// folded so that `parent` reaches the low bits (see the module docs):
/// the high half of an odd product depends on every bit of the word
/// and is XORed down. Both steps are invertible — distinct edges stay
/// distinct keys.
#[inline]
fn edge(parent: u32, pair_node: u32) -> u64 {
    let k = (u64::from(parent) << 32 | u64::from(pair_node)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    k ^ (k >> 32)
}

/// Algorithm 1 (`PrefixTreeEncode`): encode the sparse table `B`.
///
/// Phase I seeds the tree with every distinct column index:value pair as a
/// child of the root. Phase II scans each tuple, repeatedly taking the
/// longest prefix of the remaining tuple that exists in the tree
/// (`LongestMatchFromTree`), emitting that node's index, and growing the
/// tree by one node so later tuples (and later positions of this tuple) can
/// reuse the extended sequence.
///
/// Runs in `O(|B|)` where `|B|` is the number of column index:value pairs
/// (see the module docs for the constant).
pub fn logical_encode(sparse: &SparseRows) -> LogicalEncoded {
    let mut tree = FirstLayer::new(sparse.rows());
    for r in 0..sparse.rows() {
        for p in sparse.row(r) {
            tree.push(*p);
        }
        tree.end_row();
    }
    tree.encode(sparse.cols())
}

/// [`logical_encode`] of `SparseRows::encode(dense)` without building
/// the sparse table: the dense rows are walked once, zeros (`v == 0.0`,
/// so `-0.0` too) left out as they go.
pub(crate) fn logical_encode_dense(dense: &DenseMatrix) -> LogicalEncoded {
    let mut tree = FirstLayer::new(dense.rows());
    for r in 0..dense.rows() {
        for (c, &v) in dense.row(r).iter().enumerate() {
            if v != 0.0 {
                tree.push(ColVal {
                    col: c as u32,
                    val: v,
                });
            }
        }
        tree.end_row();
    }
    tree.encode(dense.cols())
}

/// Phase I of Algorithm 1, fed one pair at a time: the first layer of
/// the tree, and for every pair of `B` the node it became.
struct FirstLayer {
    /// Values are keyed by their IEEE-754 bit pattern so the scheme
    /// stays lossless for every representable double.
    interned: FxHashMap<(u32, u64), u32>,
    first_layer: Vec<ColVal>,
    /// First-layer node of every pair, tuples concatenated.
    pair_node: Vec<u32>,
    /// End of each finished tuple in `pair_node`.
    row_ends: Vec<usize>,
}

impl FirstLayer {
    fn new(rows: usize) -> Self {
        Self {
            interned: FxHashMap::default(),
            first_layer: Vec::new(),
            pair_node: Vec::new(),
            row_ends: Vec::with_capacity(rows),
        }
    }

    /// The next pair of the current tuple, in column order.
    #[inline]
    fn push(&mut self, p: ColVal) {
        let first_layer = &mut self.first_layer;
        let node = *self
            .interned
            .entry((p.col, p.val.to_bits()))
            .or_insert_with(|| {
                first_layer.push(p);
                first_layer.len() as u32 // node indexes start at 1; 0 is the root
            });
        self.pair_node.push(node);
    }

    fn end_row(&mut self) {
        self.row_ends.push(self.pair_node.len());
    }

    /// Phase II: encode each tuple with longest matches, growing the
    /// tree, over the node ids phase I left in `pair_node`.
    fn encode(self, cols: usize) -> LogicalEncoded {
        let Self {
            interned,
            first_layer,
            pair_node,
            row_ends,
        } = self;
        drop(interned);
        let rows = row_ends.len();
        let mut next_idx = first_layer.len() as u32 + 1;
        let mut codes: Vec<u32> = Vec::new();
        let mut row_offsets: Vec<u32> = Vec::with_capacity(rows + 1);
        row_offsets.push(0);
        // Every match but a tuple's last adds one edge, so there is at
        // most one per pair. Room for half of that up front: a table
        // that repeats enough to be worth encoding stays below it and
        // probes a map half the size; one that does not (deep1b-like:
        // an edge per pair) pays a single rehash.
        let mut child: FxHashMap<u64, u32> = FxHashMap::default();
        child.reserve(pair_node.len() / 2);

        let mut start = 0usize;
        for end in row_ends {
            let t = &pair_node[start..end];
            let mut i = 0usize;
            while i < t.len() {
                // LongestMatchFromTree(t, i, C): the first element always
                // matches thanks to phase I, and is its own node id.
                let mut n = t[i];
                i += 1;
                while i < t.len() {
                    match child.entry(edge(n, t[i])) {
                        Entry::Occupied(e) => {
                            n = *e.get();
                            i += 1;
                        }
                        Entry::Vacant(e) => {
                            // Extend the tree with `seq(n) ++ t[i]`.
                            e.insert(next_idx);
                            next_idx += 1;
                            break;
                        }
                    }
                }
                codes.push(n);
            }
            row_offsets.push(codes.len() as u32);
            start = end;
        }

        LogicalEncoded {
            rows,
            cols,
            first_layer,
            codes,
            row_offsets,
            n_nodes: next_idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toc_linalg::DenseMatrix;

    /// The Figure 3 running example (columns are 0-based here, the paper is
    /// 1-based).
    fn fig3_matrix() -> DenseMatrix {
        DenseMatrix::from_rows(vec![
            vec![1.1, 2.0, 3.0, 1.4],
            vec![1.1, 2.0, 3.0, 0.0],
            vec![0.0, 1.1, 3.0, 1.4],
            vec![1.1, 2.0, 0.0, 0.0],
        ])
    }

    #[test]
    fn fig3_first_layer() {
        let enc = logical_encode(&SparseRows::encode(&fig3_matrix()));
        let expect = [
            (0u32, 1.1),
            (1, 2.0),
            (2, 3.0),
            (3, 1.4),
            (1, 1.1), // R3's 2:1.1 (paper is 1-based)
        ];
        assert_eq!(enc.first_layer.len(), expect.len());
        for (got, want) in enc.first_layer.iter().zip(expect) {
            assert_eq!((got.col, got.val), want);
        }
    }

    #[test]
    fn fig3_encoded_table() {
        // Table D in Figure 3: R1=[1,2,3,4], R2=[6,3], R3=[5,8], R4=[6].
        let enc = logical_encode(&SparseRows::encode(&fig3_matrix()));
        assert_eq!(enc.row_codes(0), &[1, 2, 3, 4]);
        assert_eq!(enc.row_codes(1), &[6, 3]);
        assert_eq!(enc.row_codes(2), &[5, 8]);
        assert_eq!(enc.row_codes(3), &[6]);
        // Tuple start indexes from Figure 3: 0 4 6 8 (9).
        assert_eq!(enc.row_offsets, vec![0, 4, 6, 8, 9]);
        // Nodes 0..=10 exist after encoding (Table 2 adds 6..=10).
        assert_eq!(enc.n_nodes, 11);
    }

    #[test]
    fn empty_matrix() {
        let m = DenseMatrix::zeros(3, 4);
        let enc = logical_encode(&SparseRows::encode(&m));
        assert!(enc.first_layer.is_empty());
        assert!(enc.codes.is_empty());
        assert_eq!(enc.row_offsets, vec![0, 0, 0, 0]);
        assert_eq!(enc.n_nodes, 1);
    }

    #[test]
    fn identical_rows_collapse_to_single_codes() {
        // After warm-up, a repeated full row is a single code.
        let rows: Vec<Vec<f64>> = (0..6).map(|_| vec![1.0, 2.0, 3.0, 4.0]).collect();
        let enc = logical_encode(&SparseRows::encode(&DenseMatrix::from_rows(rows)));
        // Row 0: [1] [2] [3] [4]; row 1: [1,2] [3,4]; row 2: [1,2,3] [4] or
        // similar; eventually a row encodes as one code.
        let last = enc.row_codes(5);
        assert_eq!(
            last.len(),
            1,
            "steady state should be a single code, got {last:?}"
        );
    }

    #[test]
    fn second_identical_row_reuses_grown_sequences() {
        // Row 0 encodes its 6 distinct pairs as first-layer nodes 1..=6 and
        // grows pair-chains 7..=11. Row 1 then matches two-pair sequences:
        // [7, 9, 11].
        let row = vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let m = DenseMatrix::from_rows(vec![row.clone(), row]);
        let enc = logical_encode(&SparseRows::encode(&m));
        assert_eq!(enc.row_codes(0), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(enc.row_codes(1), &[7, 9, 11]);
    }

    #[test]
    fn codes_only_reference_nodes_completed_before_use() {
        // Because columns strictly increase within a tuple, a node added
        // while encoding a row can never be referenced later in the same
        // row; every emitted code names a node that already exists, so
        // code < counter at the moment of emission (the decoder in
        // Algorithm 2 only needs code <= counter).
        let mut rows = Vec::new();
        for r in 0..40 {
            rows.push(
                (0..30)
                    .map(|c| {
                        if (c + r) % 4 == 0 {
                            ((c * r) % 5) as f64 + 1.0
                        } else {
                            0.0
                        }
                    })
                    .collect::<Vec<f64>>(),
            );
        }
        let enc = logical_encode(&SparseRows::encode(&DenseMatrix::from_rows(rows)));
        let mut counter = enc.first_layer.len() as u32 + 1;
        for r in 0..enc.rows {
            let codes = enc.row_codes(r);
            for (j, &c) in codes.iter().enumerate() {
                assert!(c >= 1 && c < counter, "row {r} code {j}");
                if j + 1 < codes.len() {
                    counter += 1; // a node is added after every non-final match
                }
            }
        }
        assert_eq!(counter, enc.n_nodes);
    }

    #[test]
    fn distinct_values_in_same_column_get_distinct_nodes() {
        let m = DenseMatrix::from_rows(vec![vec![1.0], vec![2.0]]);
        let enc = logical_encode(&SparseRows::encode(&m));
        assert_eq!(enc.first_layer.len(), 2);
        assert_eq!(enc.row_codes(0), &[1]);
        assert_eq!(enc.row_codes(1), &[2]);
    }

    #[test]
    fn linear_complexity_smoke() {
        // 2000 identical sparse rows should produce ~1 code per row in the
        // steady state and far fewer pairs in I than in B.
        let row: Vec<f64> = (0..50)
            .map(|c| {
                if c % 3 == 0 {
                    (c % 7) as f64 + 1.0
                } else {
                    0.0
                }
            })
            .collect();
        let rows: Vec<Vec<f64>> = (0..2000).map(|_| row.clone()).collect();
        let sparse = SparseRows::encode(&DenseMatrix::from_rows(rows));
        let enc = logical_encode(&sparse);
        assert!(enc.codes.len() < sparse.num_pairs() / 4);
    }

    /// Algorithm 1 as it was written before edges were keyed by pair
    /// id — one map from `(parent, column, value bits)` to child, the
    /// first element of every match looked up like any other: the
    /// definition the pair-id routine is held to.
    fn oracle(sparse: &SparseRows) -> LogicalEncoded {
        type ChildKey = (u32, u32, u64);
        let mut child: FxHashMap<ChildKey, u32> = FxHashMap::default();
        let mut first_layer: Vec<ColVal> = Vec::new();

        // Phase I: initialize the first layer with all unique pairs.
        for p in sparse.pairs() {
            let key: ChildKey = (0, p.col, p.val.to_bits());
            child.entry(key).or_insert_with(|| {
                first_layer.push(*p);
                first_layer.len() as u32 // node indexes start at 1; 0 is the root
            });
        }

        let mut next_idx = first_layer.len() as u32 + 1;
        let mut codes: Vec<u32> = Vec::new();
        let mut row_offsets: Vec<u32> = Vec::with_capacity(sparse.rows() + 1);
        row_offsets.push(0);

        // Phase II: encode each tuple with longest matches, growing the tree.
        for r in 0..sparse.rows() {
            let t = sparse.row(r);
            let mut i = 0usize;
            while i < t.len() {
                // LongestMatchFromTree(t, i, C): the first element always
                // matches thanks to phase I.
                let mut n = child[&(0, t[i].col, t[i].val.to_bits())];
                let mut j = i + 1;
                while j < t.len() {
                    match child.get(&(n, t[j].col, t[j].val.to_bits())) {
                        Some(&n2) => {
                            n = n2;
                            j += 1;
                        }
                        None => break,
                    }
                }
                codes.push(n);
                if j < t.len() {
                    // Extend the tree with the sequence `seq(n) ++ t[j]`.
                    child.insert((n, t[j].col, t[j].val.to_bits()), next_idx);
                    next_idx += 1;
                }
                i = j;
            }
            row_offsets.push(codes.len() as u32);
        }

        LogicalEncoded {
            rows: sparse.rows(),
            cols: sparse.cols(),
            first_layer,
            codes,
            row_offsets,
            n_nodes: next_idx,
        }
    }

    /// Field-by-field equality, values by bit pattern.
    fn assert_same(got: &LogicalEncoded, want: &LogicalEncoded, what: &str) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{what}");
        assert_eq!(got.first_layer.len(), want.first_layer.len(), "{what}: |I|");
        for (i, (g, w)) in got.first_layer.iter().zip(&want.first_layer).enumerate() {
            assert!(g.bits_eq(w), "{what}: first_layer[{i}] {g:?} != {w:?}");
        }
        assert_eq!(got.codes, want.codes, "{what}: codes");
        assert_eq!(got.row_offsets, want.row_offsets, "{what}: row_offsets");
        assert_eq!(got.n_nodes, want.n_nodes, "{what}: n_nodes");
    }

    /// Both entry points against the oracle, then the physical bytes of
    /// both codecs through the public constructors.
    fn check_against_oracle(dense: &DenseMatrix, what: &str) {
        use crate::{PhysicalCodec, TocBatch};
        let sparse = SparseRows::encode(dense);
        let want = oracle(&sparse);
        assert_same(&logical_encode(&sparse), &want, &format!("{what} (sparse)"));
        assert_same(
            &logical_encode_dense(dense),
            &want,
            &format!("{what} (dense)"),
        );
        for codec in [PhysicalCodec::BitPack, PhysicalCodec::Varint] {
            let want = TocBatch::from_logical(&want, codec);
            assert_eq!(
                TocBatch::encode_with(dense, codec).as_bytes(),
                want.as_bytes(),
                "{what}: encode_with {codec:?}"
            );
            assert_eq!(
                TocBatch::from_sparse(&sparse, codec).as_bytes(),
                want.as_bytes(),
                "{what}: from_sparse {codec:?}"
            );
        }
    }

    #[test]
    fn pair_id_keys_change_no_byte_on_any_preset() {
        use toc_data::synth::{generate_preset, DatasetPreset};
        for preset in DatasetPreset::ALL {
            let ds = generate_preset(preset, 250, 42);
            for chunk_rows in [1usize, 100, 250] {
                for (i, (chunk, _)) in ds.minibatches(chunk_rows).iter().enumerate().take(3) {
                    let what = format!("{} chunk {i} of {chunk_rows} rows", preset.name());
                    check_against_oracle(chunk, &what);
                }
            }
        }
    }

    #[test]
    fn pair_id_keys_change_no_byte_on_edge_shapes_and_values() {
        let nan_payload = f64::from_bits(0x7ff8_0000_0000_1234);
        let other_nan = f64::from_bits(0xfff0_0000_dead_beef);
        let distinct: Vec<Vec<f64>> = (0..40)
            .map(|r| (0..30).map(|c| 0.001 + (r * 30 + c) as f64).collect())
            .collect();
        let cases: Vec<(&str, DenseMatrix)> = vec![
            ("zero rows", DenseMatrix::zeros(0, 5)),
            ("all zero", DenseMatrix::zeros(7, 9)),
            (
                "single column",
                DenseMatrix::from_rows((0..50).map(|r| vec![(r % 3) as f64]).collect()),
            ),
            ("all distinct", DenseMatrix::from_rows(distinct)),
            (
                "identical rows",
                DenseMatrix::from_rows((0..60).map(|_| vec![1.0, 0.0, 2.5, 2.5, -1.0]).collect()),
            ),
            (
                // -0.0 is a zero and is elided; NaNs and infinities are
                // values like any other, told apart by their bits.
                "signed zeros, NaN payloads, infinities",
                DenseMatrix::from_rows(vec![
                    vec![-0.0, f64::NAN, f64::INFINITY, 1.0],
                    vec![0.0, nan_payload, f64::NEG_INFINITY, 1.0],
                    vec![-0.0, f64::NAN, f64::INFINITY, 1.0],
                    vec![1.0, other_nan, f64::INFINITY, -0.0],
                    vec![-0.0, nan_payload, f64::NEG_INFINITY, 1.0],
                ]),
            ),
        ];
        for (what, dense) in &cases {
            check_against_oracle(dense, what);
        }
        // The elided -0.0 really is gone, and the NaNs stayed apart.
        let enc = logical_encode_dense(&cases[5].1);
        assert!(enc
            .first_layer
            .iter()
            .all(|p| p.val.to_bits() != (-0.0f64).to_bits()));
        let nans = enc.first_layer.iter().filter(|p| p.val.is_nan()).count();
        assert_eq!(nans, 3);
    }

    #[test]
    fn edges_into_one_pair_do_not_share_a_bucket() {
        // A `HashMap` picks the bucket from the low bits of the hash. A
        // constant column after an id column makes one edge per row,
        // all into the same pair: their low bits must differ, or the
        // map collapses into one probe chain (20 000 balls into 4 096 bins
        // leave ≈ 30 empty; unfolded, all land in one).
        use std::hash::BuildHasher;
        let child: FxHashMap<u64, u32> = FxHashMap::default();
        let buckets: std::collections::HashSet<u64> = (1..=20_000u32)
            .map(|parent| child.hasher().hash_one(edge(parent, 20_001)) & 0xfff)
            .collect();
        assert!(buckets.len() > 4000, "{} of 4096 buckets", buckets.len());
        // The same the other way round: one parent, many pairs.
        let buckets: std::collections::HashSet<u64> = (1..=20_000u32)
            .map(|pair| child.hasher().hash_one(edge(20_001, pair)) & 0xfff)
            .collect();
        assert!(buckets.len() > 4000, "{} of 4096 buckets", buckets.len());
    }

    #[test]
    fn id_then_constant_column_at_20_000_rows() {
        // The table behind the case above, through both front ends.
        // The ids are not round (round doubles are a known pile-up in
        // phase I's map, at the parent too — ROADMAP item 11, round
        // doubles under raw Fx).
        let rows = 20_000usize;
        let data = (0..rows)
            .flat_map(|r| [((r + 1) as f64).sqrt(), 7.0])
            .collect();
        let dense = DenseMatrix::from_vec(rows, 2, data);
        let sparse = SparseRows::encode(&dense);
        let want = oracle(&sparse);
        assert_same(&logical_encode(&sparse), &want, "id, constant (sparse)");
        assert_same(&logical_encode_dense(&dense), &want, "id, constant (dense)");
        // Every row is two codes, [id] [7], and adds the edge id -> 7.
        assert_eq!(want.n_nodes as usize, 1 + (rows + 1) + rows);
    }

    use proptest::prelude::*;

    /// A sparse table straight from its parts: random widths, a small
    /// value pool (so sequences repeat) salted with NaNs and infinities.
    fn sparse_strategy() -> impl Strategy<Value = SparseRows> {
        (0usize..30, 1usize..40, 0.0f64..=1.0).prop_flat_map(|(rows, cols, density)| {
            let value = prop_oneof![
                8 => (1u32..6).prop_map(f64::from),
                1 => Just(f64::NAN),
                1 => Just(f64::NEG_INFINITY),
                1 => -1e300f64..1e300,
            ];
            (
                prop::collection::vec(0.0f64..1.0, rows * cols),
                prop::collection::vec(value, rows * cols),
            )
                .prop_map(move |(coins, values)| {
                    let mut pairs = Vec::new();
                    let mut offsets = vec![0usize];
                    for r in 0..rows {
                        for c in 0..cols {
                            if coins[r * cols + c] < density {
                                pairs.push(ColVal {
                                    col: c as u32,
                                    val: values[r * cols + c],
                                });
                            }
                        }
                        offsets.push(pairs.len());
                    }
                    SparseRows::from_parts(rows, cols, pairs, offsets)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn logical_encode_equals_the_oracle(sparse in sparse_strategy()) {
            assert_same(&logical_encode(&sparse), &oracle(&sparse), "random sparse table");
        }
    }
}
