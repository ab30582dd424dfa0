//! Sample-based co-coding planner (the CLA paper's §4 "compression
//! planning", simplified): decide *which columns to co-code together*
//! before paying for a full encoding pass.
//!
//! Two phases:
//!
//! 1. **Estimate.** Draw a deterministic row sample and, per column,
//!    estimate the full-matrix distinct-value count from the sample
//!    (Good–Turing style: the singleton frequency `f1` scales to the
//!    unsampled rows). Pairwise co-occurrence cardinalities are estimated
//!    the same way from the joint sample codes of two groups.
//! 2. **Plan.** Greedy-merge: every column starts as its own group; the
//!    pair of groups whose merge gives the best estimated size reduction
//!    is merged, until no merge helps. Merges respect
//!    [`MAX_GROUP_COLS`] and [`MAX_DICT_ENTRIES`].
//!
//! The planner never looks at more than `sample_rows` rows, so planning a
//! wide batch costs `O(sample_rows · cols)` plus the pairwise estimates
//! that survive the cheap lower-bound prune. Materialization
//! ([`super::ClaBatch::encode_with`]) then builds the dictionaries in one
//! full pass over the planned groups.
//!
//! When is greedy left-to-right still the better choice? On narrow
//! matrices whose correlated columns are adjacent (the common CSV layout),
//! greedy finds the same groups without the `O(cols²)` pairwise scan, and
//! its merge test is exact rather than estimated. The conformance
//! suite's `planner_ratio_snapshot_for_logs` prints both planners' ratios,
//! and toc-data's
//! `sampled_cla_planner_beats_greedy_on_correlated_wide_matrix` asserts
//! the ordering on the wide correlated matrix.

use toc_core::hash::{value_key, FxHashMap};
use toc_linalg::DenseMatrix;

/// Max dictionary entries per *co-coded* (multi-column) group. Planned
/// merges are rejected when the estimated joint cardinality exceeds this;
/// materialization falls back to singleton groups if the estimate was
/// wrong. Mirrors CLA's sample-based cutoffs and keeps per-op precompute
/// tables small.
pub const MAX_DICT_ENTRIES: usize = 256;
/// Max columns co-coded into one group.
pub const MAX_GROUP_COLS: usize = 16;

/// Which grouping algorithm [`super::ClaBatch::encode_with`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClaPlanner {
    /// Historical behavior: extend the current group with the next column
    /// left-to-right while the merged dictionary stays under
    /// [`MAX_DICT_ENTRIES`] — even when the merge *grows* the encoding.
    Greedy,
    /// Sample-based greedy-merge planning (this module).
    #[default]
    SampleMerge,
}

impl ClaPlanner {
    pub fn name(self) -> &'static str {
        match self {
            ClaPlanner::Greedy => "greedy",
            ClaPlanner::SampleMerge => "sample",
        }
    }
}

impl std::str::FromStr for ClaPlanner {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "greedy" => Ok(ClaPlanner::Greedy),
            "sample" | "sample-merge" | "samplemerge" => Ok(ClaPlanner::SampleMerge),
            other => Err(format!("unknown CLA planner {other:?} (greedy|sample)")),
        }
    }
}

/// CLA encoding options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClaOptions {
    /// Grouping algorithm.
    pub planner: ClaPlanner,
    /// Rows the sample-based planner inspects during planning. Values
    /// `>= nrows` degenerate to an exact plan (estimates become exact
    /// counts over the whole batch).
    pub sample_rows: usize,
}

impl Default for ClaOptions {
    fn default() -> Self {
        Self {
            planner: ClaPlanner::SampleMerge,
            sample_rows: 256,
        }
    }
}

impl ClaOptions {
    /// The historical greedy left-to-right encoder.
    pub fn greedy() -> Self {
        Self {
            planner: ClaPlanner::Greedy,
            sample_rows: 0,
        }
    }
}

/// A planned column-group layout plus its estimated encoded size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClaPlan {
    /// Column indexes per group, ascending within and across groups.
    pub groups: Vec<Vec<u32>>,
    /// Estimated [`crate::MatrixBatch::size_bytes`] of the encoding this
    /// plan produces (the quantity the merge loop minimizes).
    pub est_bytes: usize,
    /// Rows actually sampled.
    pub sample_rows: usize,
    /// True when the sample covered every row, making all estimates exact.
    pub exact: bool,
}

/// Estimated `size_bytes` of a DDC group: tag/len overhead, column list,
/// flattened dictionary, and one row index per row at the packed width.
pub(super) fn ddc_size(width: usize, entries: usize, rows: usize) -> usize {
    8 + 4 * width + 8 * entries * width + rows * super::idx_width(entries)
}

/// `size_bytes` of an uncompressed-column group.
pub(super) fn uc_size(rows: usize) -> usize {
    8 + 8 * rows
}

/// Best encodable size for a group: multi-column groups must be DDC;
/// singletons may fall back to UC.
fn group_size(width: usize, entries: usize, rows: usize) -> usize {
    let ddc = ddc_size(width, entries, rows);
    if width == 1 {
        ddc.min(uc_size(rows))
    } else {
        ddc
    }
}

/// Scale a sample distinct count `d_s` with `f1` singletons up to the full
/// batch (Good–Turing: singletons witness the unseen mass).
fn estimate_distinct(d_s: usize, f1: usize, sample: usize, rows: usize) -> usize {
    if sample >= rows {
        return d_s; // exact
    }
    if d_s >= sample {
        return rows; // every sampled value distinct: assume incompressible
    }
    let est = d_s as f64 + f1 as f64 * (rows - sample) as f64 / sample.max(1) as f64;
    (est.ceil() as usize).clamp(d_s, rows)
}

/// Estimate the number of distinct values in a whole matrix by sampling
/// up to `sample_rows` evenly spaced rows and scaling the sample's
/// distinct/singleton counts with `estimate_distinct` (the same
/// Good–Turing rule the CLA planner uses per column group). This is the
/// `distinct` statistic recorded in container zone maps.
pub fn estimate_matrix_distinct(m: &DenseMatrix, sample_rows: usize) -> usize {
    if m.rows() == 0 || m.cols() == 0 {
        return 0;
    }
    let take = sample_rows.clamp(1, m.rows());
    let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
    for i in 0..take {
        // Evenly spaced sample; take == rows degenerates to every row.
        let r = i * m.rows() / take;
        for &v in m.row(r) {
            *counts.entry(value_key(v.to_bits())).or_insert(0) += 1;
        }
    }
    let d_s = counts.len();
    let f1 = counts.values().filter(|&&c| c == 1).count();
    estimate_distinct(d_s, f1, take * m.cols(), m.rows() * m.cols())
}

/// Bound on the number of groups considered together in one pairwise
/// merge window. The best-first merge is `O(window²)` joint estimates, so
/// very wide matrices (rcv1-style thousands of columns) are planned in
/// contiguous column windows instead of one global scan; correlation that
/// spans windows is missed — the price of keeping planning linear-ish in
/// width. Identical-signature columns are pre-merged *globally* first, so
/// the common wide-matrix redundancy (duplicated / all-zero columns) is
/// still found across window boundaries.
const PLAN_WINDOW_GROUPS: usize = 192;

/// Per-group state during the merge loop: the group's columns, its sample
/// codes (one dictionary id per sampled row), and cardinality estimates.
struct GroupState {
    cols: Vec<u32>,
    codes: Vec<u32>,
    /// Sample statistics: distinct count and singleton count.
    d_s: usize,
    f1: usize,
    /// Estimated full-batch distinct count.
    d_est: usize,
    /// Estimated encoded size under [`group_size`].
    size: usize,
}

/// Reusable scratch for joint-cardinality estimates. Pruning guarantees
/// both sides have `d_s <= MAX_DICT_ENTRIES`, so the joint id space is at
/// most `MAX_DICT_ENTRIES²` and a generation-stamped dense table beats a
/// hash map by an order of magnitude on the hot planning path.
#[derive(Default)]
struct JoinScratch {
    stamp: Vec<u32>,
    id: Vec<u32>,
    counts: Vec<u32>,
    gen: u32,
}

impl JoinScratch {
    /// Distinct/singleton counts of the pairwise join of two code
    /// vectors with `a_ds`/`b_ds` distinct codes. Each row's joint id
    /// (numbered in first-seen order, like the per-column codes) goes to
    /// `emit`: the merge step collects them as the merged group's codes,
    /// the estimates pass a no-op.
    fn join(
        &mut self,
        (a, a_ds): (&[u32], usize),
        (b, b_ds): (&[u32], usize),
        mut emit: impl FnMut(u32),
    ) -> (usize, usize) {
        let space = a_ds * b_ds;
        if self.stamp.len() < space {
            self.stamp.resize(space, 0);
            self.id.resize(space, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
        self.counts.clear();
        for (&x, &y) in a.iter().zip(b) {
            let k = x as usize * b_ds + y as usize;
            if self.stamp[k] != self.gen {
                self.stamp[k] = self.gen;
                self.id[k] = self.counts.len() as u32;
                self.counts.push(0);
            }
            self.counts[self.id[k] as usize] += 1;
            emit(self.id[k]);
        }
        let d = self.counts.len();
        let f1 = self.counts.iter().filter(|&&c| c == 1).count();
        (d, f1)
    }
}

/// Evaluate one candidate merge: `Some((gain, joint_est))` when merging
/// strictly reduces the estimated size under the caps, `None` otherwise.
fn compute_pair(
    gi: &GroupState,
    gj: &GroupState,
    rows: usize,
    sample_len: usize,
    js: &mut JoinScratch,
) -> Option<(isize, usize)> {
    let width = gi.cols.len() + gj.cols.len();
    if width > MAX_GROUP_COLS {
        return None;
    }
    // The joint cardinality is at least max(d_i, d_j): prune pairs whose
    // *best possible* merge already loses, before paying for the join.
    let d_lower = gi.d_est.max(gj.d_est);
    if d_lower > MAX_DICT_ENTRIES
        || (gi.size + gj.size) as isize - ddc_size(width, d_lower, rows) as isize <= 0
    {
        return None;
    }
    let (joint_ds, joint_f1) = if gi.d_s == 1 {
        (gj.d_s, gj.f1) // constant group: the join is the other side
    } else if gj.d_s == 1 {
        (gi.d_s, gi.f1)
    } else {
        js.join((&gi.codes, gi.d_s), (&gj.codes, gj.d_s), |_| {})
    };
    let joint_est = estimate_distinct(joint_ds, joint_f1, sample_len, rows).max(d_lower);
    if joint_est > MAX_DICT_ENTRIES {
        return None;
    }
    let gain = (gi.size + gj.size) as isize - ddc_size(width, joint_est, rows) as isize;
    (gain > 0).then_some((gain, joint_est))
}

/// Global fast path before the pairwise scan: columns with *identical*
/// sample signatures (same code vector — duplicated, linearly-renamed, or
/// all-zero columns) co-code trivially: the joint sample cardinality is
/// the shared `d_s`, so merging up to [`MAX_GROUP_COLS`] of them is the
/// merge the pairwise loop would make anyway, found in `O(cols · sample)`
/// and across window boundaries.
fn bucket_identical(states: Vec<GroupState>, rows: usize) -> Vec<GroupState> {
    // Fingerprint the code vectors instead of cloning them as map keys
    // (a wide batch would otherwise clone+hash cols × sample u32s);
    // collisions fall back to an exact comparison against each bucket
    // representative.
    fn fingerprint(codes: &[u32]) -> u64 {
        codes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
            (h ^ c as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
    let mut index: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    let mut buckets: Vec<Vec<GroupState>> = Vec::new();
    for s in states {
        let candidates = index.entry(fingerprint(&s.codes)).or_default();
        match candidates.iter().find(|&&b| buckets[b][0].codes == s.codes) {
            Some(&b) => buckets[b].push(s),
            None => {
                candidates.push(buckets.len());
                buckets.push(vec![s]);
            }
        }
    }
    let mut out = Vec::new();
    for mut bucket in buckets {
        while !bucket.is_empty() {
            let take_n = bucket.len().min(MAX_GROUP_COLS);
            let chunk: Vec<GroupState> = bucket.drain(..take_n).collect();
            let (d_s, f1, d_est) = (chunk[0].d_s, chunk[0].f1, chunk[0].d_est);
            let width = chunk.len();
            let merged_size = ddc_size(width, d_est, rows);
            if width == 1
                || d_est > MAX_DICT_ENTRIES
                || merged_size >= chunk.iter().map(|g| g.size).sum()
            {
                out.extend(chunk);
                continue;
            }
            let mut cols: Vec<u32> = chunk.iter().flat_map(|g| g.cols.iter().copied()).collect();
            cols.sort_unstable();
            let codes = chunk.into_iter().next().expect("nonempty chunk").codes;
            out.push(GroupState {
                cols,
                codes,
                d_s,
                f1,
                d_est,
                size: merged_size,
            });
        }
    }
    out
}

/// Best-first greedy merge within one window: repeatedly merge the pair
/// with the largest estimated size reduction (ties to the smaller `i`,
/// then the smaller `j`) until no merge helps. Pair gains live in a dense
/// matrix and each row caches its best live pair, so a merge — which
/// invalidates only the merged row/column — costs one `O(n)` re-estimate
/// sweep, an `O(n)` argmax over the row caches, and a re-scan of just the
/// rows whose cached best the merge could have changed.
fn merge_window(
    mut states: Vec<GroupState>,
    rows: usize,
    sample_len: usize,
    js: &mut JoinScratch,
) -> Vec<GroupState> {
    let n = states.len();
    if n <= 1 {
        return states;
    }
    let mut alive = vec![true; n];
    let mut pair: Vec<Option<(isize, usize)>> = vec![None; n * n];
    for i in 0..n {
        for j in i + 1..n {
            pair[i * n + j] = compute_pair(&states[i], &states[j], rows, sample_len, js);
        }
    }
    // `(gain, j)` of row i's best live pair: largest gain, smallest j.
    let best_in_row = |pair: &[Option<(isize, usize)>], alive: &[bool], i: usize| {
        let mut best: Option<(isize, usize)> = None;
        for j in (i + 1..n).filter(|&j| alive[j]) {
            if let Some((g, _)) = pair[i * n + j] {
                if best.is_none_or(|b| g > b.0) {
                    best = Some((g, j));
                }
            }
        }
        best
    };
    let mut row_best: Vec<Option<(isize, usize)>> =
        (0..n).map(|i| best_in_row(&pair, &alive, i)).collect();
    loop {
        let mut best: Option<(isize, usize, usize)> = None; // gain, i, j
        for i in (0..n).filter(|&i| alive[i]) {
            if let Some((g, j)) = row_best[i] {
                if best.is_none_or(|b| g > b.0) {
                    best = Some((g, i, j));
                }
            }
        }
        let Some((_, i, j)) = best else {
            break;
        };
        let (_, joint_est) = pair[i * n + j].expect("a cached best is a live pair");
        let mut codes = Vec::with_capacity(sample_len);
        let (d_s, f1) = js.join(
            (&states[i].codes, states[i].d_s),
            (&states[j].codes, states[j].d_s),
            |id| codes.push(id),
        );
        let mut cols: Vec<u32> = states[i]
            .cols
            .iter()
            .chain(&states[j].cols)
            .copied()
            .collect();
        cols.sort_unstable();
        let width = cols.len();
        states[i] = GroupState {
            cols,
            codes,
            d_s,
            f1,
            d_est: joint_est,
            size: ddc_size(width, joint_est, rows),
        };
        alive[j] = false;
        for k in (0..n).filter(|&k| alive[k] && k != i) {
            let (a, b) = (i.min(k), i.max(k));
            pair[a * n + b] = compute_pair(&states[a], &states[b], rows, sample_len, js);
        }
        // A row's cache survives the merge unless it pointed at a merged
        // group or the one pair re-estimated in that row, `(k, i)`, now
        // matches or beats it.
        for k in (0..n).filter(|&k| alive[k]) {
            let overtaken = || {
                let new = if k < i { pair[k * n + i] } else { None };
                new.is_some_and(|(g, _)| row_best[k].is_none_or(|(bg, _)| g >= bg))
            };
            if k == i || row_best[k].is_some_and(|(_, c)| c == i || c == j) || overtaken() {
                row_best[k] = best_in_row(&pair, &alive, k);
            }
        }
    }
    states
        .into_iter()
        .zip(alive)
        .filter_map(|(s, a)| a.then_some(s))
        .collect()
}

/// Phase 1 + 2: sample, estimate, greedy-merge. Returns the planned group
/// layout without touching the dictionaries.
pub fn plan(dense: &DenseMatrix, opts: &ClaOptions) -> ClaPlan {
    plan_within(dense, opts, usize::MAX).expect("no plan exceeds an unbounded budget")
}

/// [`plan`] for a caller that only wants the plan if its
/// [`ClaPlan::est_bytes`] can be at most `budget` (scheme selection,
/// where `budget` is what CLA must undercut to be picked).
///
/// Contract: `Some(p)` is always exactly `plan(dense, opts)` — whose
/// `est_bytes` may still exceed `budget`, the caller compares — and
/// `None` is returned only when `plan(..).est_bytes > budget` is proven,
/// so the bound can skip work but never change what a caller decides.
///
/// The proof is a lower bound available from phase 1 alone, before the
/// `O(cols²)` merge phase. Every merge keeps a group's estimated
/// cardinality at or above each member column's `d_est`, groups hold at
/// most [`MAX_GROUP_COLS`] columns, and a column whose
/// `d_est > MAX_DICT_ENTRIES` can never merge. So whatever the merge
/// phase does, the plan costs at least: the 16-byte header; the exact
/// singleton size of every unmergeable column; for the `m` mergeable
/// columns, `⌈m/16⌉` groups' fixed cost (`8 + rows`: group header plus
/// one-byte row indexes); and per mergeable column the cheaper of its
/// dictionary share (`4 + 8·d_est`) and the UC payload beyond that fixed
/// cost (`7·rows`). The bound only grows as columns are added, so phase 1
/// itself stops at the first column that pushes it past `budget`.
pub fn plan_within(dense: &DenseMatrix, opts: &ClaOptions, budget: usize) -> Option<ClaPlan> {
    let rows = dense.rows();
    let cols = dense.cols();
    let sample_n = opts.sample_rows.min(rows);
    let exact = sample_n == rows;
    // Deterministic evenly-spaced sample: reproducible plans, no RNG
    // plumbing, and full coverage in the degenerate `sample >= rows` case.
    let sample: Vec<usize> = if exact {
        (0..rows).collect()
    } else {
        (0..sample_n).map(|i| i * rows / sample_n).collect()
    };

    let mut states: Vec<GroupState> = Vec::with_capacity(cols);
    let mut map: FxHashMap<u64, u32> = FxHashMap::default();
    let mut counts: Vec<u32> = Vec::new();
    // Lower bound on `est_bytes` over the columns seen so far.
    let (mut floor, mut mergeable) = (16usize, 0usize);
    for c in 0..cols {
        map.clear();
        counts.clear();
        let mut codes = Vec::with_capacity(sample.len());
        for &r in &sample {
            let next = counts.len() as u32;
            let id = *map
                .entry(value_key(dense.get(r, c).to_bits()))
                .or_insert_with(|| {
                    counts.push(0);
                    next
                });
            counts[id as usize] += 1;
            codes.push(id);
        }
        let d_s = counts.len();
        let f1 = counts.iter().filter(|&&n| n == 1).count();
        let d_est = estimate_distinct(d_s, f1, sample.len(), rows);
        let size = group_size(1, d_est, rows);
        if d_est > MAX_DICT_ENTRIES {
            floor += size;
        } else {
            mergeable += 1;
            floor += (4 + 8 * d_est).min(7 * rows);
        }
        if floor + mergeable.div_ceil(MAX_GROUP_COLS) * (8 + rows) > budget {
            return None;
        }
        states.push(GroupState {
            cols: vec![c as u32],
            codes,
            d_s,
            f1,
            d_est,
            size,
        });
    }

    // Phase 2a: global identical-signature pre-merge (cheap, cross-window).
    let mut rest = bucket_identical(states, rows);
    rest.sort_by_key(|g| g.cols[0]);

    // Phase 2b: best-first pairwise merge, windowed for bounded cost.
    let mut js = JoinScratch::default();
    let mut groups: Vec<GroupState> = Vec::new();
    while !rest.is_empty() {
        let take_n = rest.len().min(PLAN_WINDOW_GROUPS);
        let window: Vec<GroupState> = rest.drain(..take_n).collect();
        groups.extend(merge_window(window, rows, sample.len(), &mut js));
    }

    groups.sort_by_key(|g| g.cols[0]);
    let est_bytes = 16 + groups.iter().map(|g| g.size).sum::<usize>();
    Some(ClaPlan {
        groups: groups.into_iter().map(|g| g.cols).collect(),
        est_bytes,
        sample_rows: sample_n,
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated(rows: usize) -> DenseMatrix {
        // Columns 0..4 independent with 4 distinct values; columns 4..8
        // copies of their partner 4 columns earlier.
        let mut m = DenseMatrix::zeros(rows, 8);
        for r in 0..rows {
            for c in 0..4 {
                let v = (((r * 31 + c * 17) % 97) % 4) as f64;
                m.set(r, c, v);
                m.set(r, c + 4, v + 10.0 * (c as f64 + 1.0));
            }
        }
        m
    }

    #[test]
    fn pairs_correlated_columns() {
        let m = correlated(400);
        let p = plan(&m, &ClaOptions::default());
        // Every planned group must keep each column with its perfectly
        // correlated partner (joint distinct = 4, merge always wins).
        for g in &p.groups {
            for &c in g {
                let partner = if c < 4 { c + 4 } else { c - 4 };
                assert!(
                    g.contains(&partner),
                    "{:?} splits pair {c}/{partner}",
                    p.groups
                );
            }
        }
        assert!(p.est_bytes < m.den_size_bytes());
    }

    #[test]
    fn full_sample_is_exact() {
        let m = correlated(50);
        let a = plan(
            &m,
            &ClaOptions {
                planner: ClaPlanner::SampleMerge,
                sample_rows: 50,
            },
        );
        let b = plan(
            &m,
            &ClaOptions {
                planner: ClaPlanner::SampleMerge,
                sample_rows: 5000,
            },
        );
        assert!(a.exact && b.exact);
        assert_eq!(a, b);
    }

    #[test]
    fn estimator_sane() {
        assert_eq!(estimate_distinct(5, 0, 100, 100), 5);
        assert_eq!(estimate_distinct(64, 64, 64, 1000), 1000); // all singletons
        let est = estimate_distinct(10, 2, 100, 1000);
        assert!((10..=28).contains(&est), "{est}");
        assert_eq!(estimate_distinct(3, 0, 50, 1000), 3);
    }

    /// The planner as first written — SipHash maps in phase 1 and in the
    /// merged-codes join, a full `n×n` argmax every merge round — kept as
    /// the oracle for the cheaper data structures that replaced them: the
    /// plans must be identical, not merely as good.
    mod reference {
        use super::super::*;
        use std::collections::HashMap;

        /// Relabel keys as first-seen ids: `(codes, distinct, singletons)`.
        fn recode(keys: impl Iterator<Item = u64>) -> (Vec<u32>, usize, usize) {
            let mut map: HashMap<u64, u32> = HashMap::new();
            let mut counts: Vec<u32> = Vec::new();
            let codes: Vec<u32> = keys
                .map(|key| {
                    let next = counts.len() as u32;
                    let id = *map.entry(key).or_insert_with(|| {
                        counts.push(0);
                        next
                    });
                    counts[id as usize] += 1;
                    id
                })
                .collect();
            let f1 = counts.iter().filter(|&&c| c == 1).count();
            (codes, counts.len(), f1)
        }

        /// Phase 1: one singleton group per column.
        pub fn states(dense: &DenseMatrix, sample_n: usize) -> Vec<GroupState> {
            let rows = dense.rows();
            let sample: Vec<usize> = (0..sample_n).map(|i| i * rows / sample_n).collect();
            (0..dense.cols())
                .map(|c| {
                    let (codes, d_s, f1) =
                        recode(sample.iter().map(|&r| dense.get(r, c).to_bits()));
                    let d_est = estimate_distinct(d_s, f1, sample_n, rows);
                    GroupState {
                        cols: vec![c as u32],
                        codes,
                        d_s,
                        f1,
                        d_est,
                        size: group_size(1, d_est, rows),
                    }
                })
                .collect()
        }

        /// Best-first merge of one window, every pair re-evaluated and
        /// compared in row-major order each round.
        pub fn merge(mut states: Vec<GroupState>, rows: usize, sample_n: usize) -> Vec<GroupState> {
            let mut js = JoinScratch::default();
            let n = states.len();
            let mut alive = vec![true; n];
            loop {
                let mut best: Option<(isize, usize, usize, usize)> = None;
                for i in (0..n).filter(|&i| alive[i]) {
                    for j in (i + 1..n).filter(|&j| alive[j]) {
                        let pair = compute_pair(&states[i], &states[j], rows, sample_n, &mut js);
                        if let Some((g, je)) = pair {
                            if best.is_none_or(|b| g > b.0) {
                                best = Some((g, i, j, je));
                            }
                        }
                    }
                }
                let Some((_, i, j, joint_est)) = best else {
                    break;
                };
                let (a, b) = (&states[i].codes, &states[j].codes);
                let (codes, d_s, f1) =
                    recode(a.iter().zip(b).map(|(&x, &y)| (x as u64) << 32 | y as u64));
                let mut cols = [states[i].cols.as_slice(), &states[j].cols].concat();
                cols.sort_unstable();
                let size = ddc_size(cols.len(), joint_est, rows);
                states[i] = GroupState {
                    cols,
                    codes,
                    d_s,
                    f1,
                    d_est: joint_est,
                    size,
                };
                alive[j] = false;
            }
            states
                .into_iter()
                .zip(alive)
                .filter_map(|(s, a)| a.then_some(s))
                .collect()
        }

        pub fn plan(dense: &DenseMatrix, opts: &ClaOptions) -> ClaPlan {
            let rows = dense.rows();
            let sample_n = opts.sample_rows.min(rows);
            let mut rest = bucket_identical(states(dense, sample_n), rows);
            rest.sort_by_key(|g| g.cols[0]);
            let mut groups: Vec<GroupState> = Vec::new();
            while !rest.is_empty() {
                let take_n = rest.len().min(PLAN_WINDOW_GROUPS);
                groups.extend(merge(rest.drain(..take_n).collect(), rows, sample_n));
            }
            groups.sort_by_key(|g| g.cols[0]);
            ClaPlan {
                est_bytes: 16 + groups.iter().map(|g| g.size).sum::<usize>(),
                groups: groups.into_iter().map(|g| g.cols).collect(),
                sample_rows: sample_n,
                exact: sample_n == rows,
            }
        }
    }

    /// Columns drawn from a few shared "sources" through per-column
    /// value maps of different coarseness, noise columns, and columns
    /// that are a function of two columns to their right *jointly* (their
    /// sum mod 4) but of neither alone — so merging those two makes a
    /// pair in an earlier row suddenly worth more than that row's cached
    /// best, the case a stale row cache would get wrong.
    fn entangled(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sources: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..rows).map(|_| next() % 24).collect())
            .collect();
        let mut small: Vec<Vec<u64>> = vec![Vec::new(); cols];
        for c in (0..cols).rev() {
            let (src, coarse, flip) = (next() as usize % 4, next() % 5 + 1, next() % 9);
            let joint = c + 2 < cols && next() % 3 == 0;
            small[c] = (0..rows)
                .map(|r| {
                    if joint {
                        (small[c + 1][r] + small[c + 2][r]) % 4
                    } else {
                        let noise = if next() % 10 < flip { next() % 3 } else { 0 };
                        sources[src][r] / coarse + noise
                    }
                })
                .collect();
        }
        let mut m = DenseMatrix::zeros(rows, cols);
        for (c, col) in small.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                m.set(r, c, (v * (c as u64 + 1)) as f64);
            }
        }
        m
    }

    #[test]
    fn plans_match_the_reference_planner() {
        // The last shape spans two planner windows; the reference
        // re-estimates every pair every round, so it gets one seed.
        let shapes = [(40, 9, 8), (120, 30, 8), (300, 70, 8), (60, 200, 1)];
        for (rows, cols, seeds) in shapes {
            for seed in 0..seeds {
                let m = entangled(rows, cols, seed);
                for sample_rows in [32, 256] {
                    let opts = ClaOptions {
                        sample_rows,
                        ..ClaOptions::default()
                    };
                    assert_eq!(
                        plan(&m, &opts),
                        reference::plan(&m, &opts),
                        "seed {seed}, {rows}x{cols}, sample {sample_rows}"
                    );
                }
            }
        }
    }

    /// Without the identical-signature pre-merge, duplicated and coarsened
    /// columns make most pair gains tie exactly; the row caches must then
    /// break every tie the way the row-major full scan does.
    #[test]
    fn merge_ties_break_like_the_full_scan() {
        for seed in 0..60u64 {
            let (rows, cols) = (24 + seed as usize % 40, 5 + seed as usize % 9);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let (a, b): (Vec<u64>, Vec<u64>) = (0..rows).map(|_| (next() % 2, next() % 3)).unzip();
            let mut m = DenseMatrix::zeros(rows, cols);
            for c in 0..cols {
                let kind = next() % 5;
                for r in 0..rows {
                    let v = match kind {
                        0 => a[r],
                        1 => b[r],
                        2 => a[r] * 3 + b[r],
                        3 => (a[r] + b[r]) % 2,
                        _ => b[r] / 2,
                    };
                    m.set(r, c, v as f64);
                }
            }
            let merged = |groups: Vec<GroupState>| -> Vec<Vec<u32>> {
                groups.into_iter().map(|g| g.cols).collect()
            };
            let mut js = JoinScratch::default();
            assert_eq!(
                merged(merge_window(
                    reference::states(&m, rows),
                    rows,
                    rows,
                    &mut js
                )),
                merged(reference::merge(reference::states(&m, rows), rows, rows)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn zero_rows_and_constant_columns() {
        let p = plan(&DenseMatrix::zeros(0, 5), &ClaOptions::default());
        assert_eq!(p.groups.iter().map(Vec::len).sum::<usize>(), 5);
        let p = plan(&DenseMatrix::zeros(40, 40), &ClaOptions::default());
        // All-zero columns merge up to the group-width cap.
        assert!(p.groups.iter().all(|g| g.len() <= MAX_GROUP_COLS));
        assert!(p.groups.len() <= 4, "{:?}", p.groups.len());
    }
}
