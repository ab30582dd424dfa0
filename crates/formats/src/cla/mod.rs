//! CLA (§5 method 5): a simplified re-implementation of Compressed Linear
//! Algebra [Elgohary et al., VLDB 2016].
//!
//! CLA partitions the matrix into column groups, co-codes each group with a
//! dictionary of distinct value-tuples (DDC — dense dictionary coding), and
//! executes linear algebra directly on the compressed groups by
//! precomputing per-dictionary-entry partial results. Columns that do not
//! compress fall back to an uncompressed-column (UC) group.
//!
//! The two properties the paper contrasts with TOC are preserved:
//! compressed execution without decompression, and an **explicit
//! dictionary**, whose fixed cost is poorly amortized on small mini-batches
//! (the reason CLA ratios trail TOC there — see Figure 5).
//!
//! ## Choosing column groups
//!
//! Which columns get co-coded is decided by the [`planner`] module's
//! sample-based two-phase plan, CLA's own compression planning: estimate
//! per-column distinct counts and pairwise co-occurrence cardinalities
//! from a sample of [`ClaOptions::sample_rows`] rows, greedy-merge the
//! pair of groups with the best estimated size reduction until no merge
//! helps, then materialize the dictionaries in one full pass. It finds
//! non-adjacent correlated columns and refuses merges that would grow the
//! encoding.
//!
//! The wire format is self-describing (each group lists its columns), so
//! any partition of the columns decodes — including the adjacent
//! left-to-right groups that earlier greedy-encoded files hold.

use crate::wire::{put_f64s, put_u32, put_u32s, Rd};
use crate::{ExecScratch, FormatError, MatrixBatch, Scheme};
use std::collections::HashMap;
use toc_linalg::DenseMatrix;

pub mod planner;
pub use planner::{ClaOptions, ClaPlan, MAX_DICT_ENTRIES, MAX_GROUP_COLS};

/// Max dictionary entries per co-coded group (keeps row indexes 1 byte and
/// per-op precompute tables small, mirroring CLA's sample-based cutoffs).
const DICT_CAP: usize = MAX_DICT_ENTRIES;

fn idx_width(n: usize) -> usize {
    match n.saturating_sub(1) {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        _ => 4,
    }
}

/// One column group.
#[derive(Clone, Debug, PartialEq)]
pub enum Group {
    /// Dense dictionary coding over `cols.len()` co-coded columns:
    /// `dict` is `n_entries × cols.len()` row-major; `rowidx[r]` picks the
    /// tuple for matrix row `r`.
    Ddc {
        cols: Vec<u32>,
        dict: Vec<f64>,
        rowidx: Vec<u32>,
    },
    /// Uncompressed column fallback.
    Uc { col: u32, values: Vec<f64> },
}

/// A CLA-encoded mini-batch.
#[derive(Clone, Debug, PartialEq)]
pub struct ClaBatch {
    rows: usize,
    cols: usize,
    groups: Vec<Group>,
}

impl ClaBatch {
    /// Encode with the default planner options.
    pub fn encode(dense: &DenseMatrix) -> Self {
        Self::encode_with(dense, &ClaOptions::default())
    }

    /// Encode with explicit planner options.
    pub fn encode_with(dense: &DenseMatrix, opts: &ClaOptions) -> Self {
        Self::materialize(dense, &planner::plan(dense, opts))
    }

    /// Materialize a planned group layout: one full pass per group builds
    /// the dictionary and row indexes. Groups whose *actual* cardinality
    /// exceeds the planner's estimate beyond [`MAX_DICT_ENTRIES`] fall
    /// back to singleton groups (and incompressible singletons to UC), so
    /// a bad sample can cost ratio but never correctness.
    pub(crate) fn materialize(dense: &DenseMatrix, plan: &ClaPlan) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut groups: Vec<Group> = Vec::with_capacity(plan.groups.len());
        for gcols in &plan.groups {
            if let [c] = gcols.as_slice() {
                groups.push(Self::build_singleton(dense, *c));
                continue;
            }
            match Self::build_ddc(dense, gcols, Some(DICT_CAP)) {
                Some(g) => groups.push(g),
                None => {
                    // Estimate was wrong: encode each column separately.
                    for &c in gcols {
                        groups.push(Self::build_singleton(dense, c));
                    }
                }
            }
        }
        Self { rows, cols, groups }
    }

    /// Build one DDC group over `gcols`, aborting (`None`) if the
    /// dictionary exceeds `cap` for a multi-column group.
    fn build_ddc(dense: &DenseMatrix, gcols: &[u32], cap: Option<usize>) -> Option<Group> {
        let rows = dense.rows();
        let mut map: HashMap<(u32, u64), u32> = HashMap::new();
        let mut dict: Vec<f64> = Vec::new();
        let mut rowidx: Vec<u32> = vec![0; rows];
        for (k, &c) in gcols.iter().enumerate() {
            map.clear();
            let mut pairs: Vec<(u32, f64)> = Vec::new();
            for (r, ri) in rowidx.iter_mut().enumerate() {
                let v = dense.get(r, c as usize);
                let key = (*ri, v.to_bits());
                let next = pairs.len() as u32;
                let id = *map.entry(key).or_insert_with(|| {
                    pairs.push((key.0, v));
                    next
                });
                *ri = id;
            }
            if let Some(cap) = cap {
                if gcols.len() > 1 && pairs.len() > cap {
                    return None;
                }
            }
            let mut new_dict = Vec::with_capacity(pairs.len() * (k + 1));
            for &(old_id, v) in &pairs {
                new_dict.extend_from_slice(&dict[old_id as usize * k..(old_id as usize + 1) * k]);
                new_dict.push(v);
            }
            dict = new_dict;
        }
        Some(Group::Ddc {
            cols: gcols.to_vec(),
            dict,
            rowidx,
        })
    }

    /// Encode one column alone: whichever of DDC and UC is smaller under
    /// the `size_bytes` model — the same rule the planner's size
    /// estimates use ([`planner`]'s `group_size`), so `ClaPlan::est_bytes`
    /// tracks what materialization actually emits.
    fn build_singleton(dense: &DenseMatrix, c: u32) -> Group {
        let rows = dense.rows();
        let Some(Group::Ddc { cols, dict, rowidx }) = Self::build_ddc(dense, &[c], None) else {
            unreachable!("uncapped build_ddc always succeeds");
        };
        if planner::uc_size(rows) < planner::ddc_size(1, dict.len(), rows) {
            Group::Uc {
                col: c,
                values: (0..rows).map(|r| dense.get(r, c as usize)).collect(),
            }
        } else {
            Group::Ddc { cols, dict, rowidx }
        }
    }

    pub fn from_body(body: &[u8]) -> Result<Self, FormatError> {
        let mut rd = Rd::new(body);
        let rows = rd.u32()? as usize;
        let cols = rd.u32()? as usize;
        let n_groups = rd.u32()? as usize;
        // Wire-length plausibility before any allocation sized by header
        // fields: every column occupies >= 4 bytes in some group's column
        // list (DDC entry or UC col field), so a header claiming more
        // columns than the body can back is corrupt — checked here so a
        // flipped high bit cannot drive `vec![...; cols]` into a
        // gigabyte allocation / abort.
        if cols > body.len() / 4 {
            return Err(FormatError::Corrupt("implausible CLA column count".into()));
        }
        // With `cols > 0` the coverage check below forces at least one
        // group, whose rowidx/values array (4+ bytes per row) bounds
        // `rows` against the body. A zero-column body is header-only for
        // any claimed row count, so cap it — otherwise a crafted 12-byte
        // body could claim 2^32 rows and drive the first kernel call
        // into a giant output allocation.
        if cols == 0 && rows > crate::MAX_DEGENERATE_DIM {
            return Err(FormatError::Corrupt("implausible CLA row count".into()));
        }
        if n_groups > cols {
            return Err(FormatError::Corrupt("too many CLA groups".into()));
        }
        let mut groups = Vec::with_capacity(n_groups);
        // The encoder always emits exactly one group membership per
        // column; enforce that the groups form a disjoint, complete
        // partition so a corrupted column list (e.g. a bit flip turning
        // [4,5] into [4,4]) errors instead of silently decoding to wrong
        // data (kernels would double-count the duplicate).
        let mut covered = vec![false; cols];
        let mut cover = |c: u32| -> Result<(), FormatError> {
            match covered.get_mut(c as usize) {
                Some(seen @ false) => {
                    *seen = true;
                    Ok(())
                }
                _ => Err(FormatError::Corrupt(
                    "CLA group column out of range or duplicated".into(),
                )),
            }
        };
        for _ in 0..n_groups {
            match rd.u8()? {
                0 => {
                    let gcols = rd.u32s()?;
                    let dict = rd.f64s()?;
                    let rowidx = rd.u32s()?;
                    let width = gcols.len().max(1);
                    let n_entries = dict.len() / width;
                    if gcols.is_empty()
                        || dict.len() % width != 0
                        || rowidx.len() != rows
                        || rowidx.iter().any(|&i| i as usize >= n_entries)
                    {
                        return Err(FormatError::Corrupt("bad DDC group".into()));
                    }
                    for &g in &gcols {
                        cover(g)?;
                    }
                    groups.push(Group::Ddc {
                        cols: gcols,
                        dict,
                        rowidx,
                    });
                }
                1 => {
                    let col = rd.u32()?;
                    let values = rd.f64s()?;
                    if values.len() != rows {
                        return Err(FormatError::Corrupt("bad UC group".into()));
                    }
                    cover(col)?;
                    groups.push(Group::Uc { col, values });
                }
                t => return Err(FormatError::Corrupt(format!("bad group tag {t}"))),
            }
        }
        rd.done()?;
        if covered.iter().any(|&seen| !seen) {
            return Err(FormatError::Corrupt(
                "CLA groups do not cover all columns".into(),
            ));
        }
        Ok(Self { rows, cols, groups })
    }

    /// Number of column groups (exposed for tests/inspection).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The encoded column groups (exposed for tests/inspection).
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }
}

/// `buf` as `n` zeros: the one table or accumulator a kernel builds per
/// DDC group, reused across groups and calls.
fn zeroed(buf: &mut Vec<f64>, n: usize) -> &mut [f64] {
    buf.clear();
    buf.resize(n, 0.0);
    buf
}

impl MatrixBatch for ClaBatch {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn size_bytes(&self) -> usize {
        let mut total = 16;
        for g in &self.groups {
            total += match g {
                Group::Ddc { cols, dict, rowidx } => {
                    8 + 4 * cols.len()
                        + 8 * dict.len()
                        + rowidx.len() * idx_width(dict.len() / cols.len().max(1))
                }
                Group::Uc { values, .. } => 8 + 8 * values.len(),
            };
        }
        total
    }
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        toc_linalg::dense::reset_vec(out, self.rows);
        for g in &self.groups {
            match g {
                Group::Ddc { cols, dict, rowidx } => {
                    let width = cols.len();
                    let n = dict.len() / width;
                    // Precompute per-dictionary-entry dot products.
                    let table = zeroed(&mut ws.cla, n);
                    for (i, t) in table.iter_mut().enumerate() {
                        let tuple = &dict[i * width..(i + 1) * width];
                        let mut acc = 0.0;
                        for (j, &val) in tuple.iter().enumerate() {
                            acc += val * v[cols[j] as usize];
                        }
                        *t = acc;
                    }
                    for (o, &i) in out.iter_mut().zip(rowidx) {
                        *o += table[i as usize];
                    }
                }
                Group::Uc { col, values } => {
                    let x = v[*col as usize];
                    if x != 0.0 {
                        for (o, &val) in out.iter_mut().zip(values) {
                            *o += val * x;
                        }
                    }
                }
            }
        }
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        toc_linalg::dense::reset_vec(out, self.cols);
        for g in &self.groups {
            match g {
                Group::Ddc { cols, dict, rowidx } => {
                    let width = cols.len();
                    let n = dict.len() / width;
                    let acc = zeroed(&mut ws.cla, n);
                    for (&i, &w) in rowidx.iter().zip(v) {
                        acc[i as usize] += w;
                    }
                    for (i, &a) in acc.iter().enumerate() {
                        if a != 0.0 {
                            let tuple = &dict[i * width..(i + 1) * width];
                            for (j, &val) in tuple.iter().enumerate() {
                                out[cols[j] as usize] += val * a;
                            }
                        }
                    }
                }
                Group::Uc { col, values } => {
                    let mut acc = 0.0;
                    for (&val, &w) in values.iter().zip(v) {
                        acc += val * w;
                    }
                    out[*col as usize] += acc;
                }
            }
        }
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        let p = m.cols();
        out.reset(self.rows, p);
        for g in &self.groups {
            match g {
                Group::Ddc { cols, dict, rowidx } => {
                    let width = cols.len();
                    let n = dict.len() / width;
                    let table = zeroed(&mut ws.cla, n * p);
                    for i in 0..n {
                        let tuple = &dict[i * width..(i + 1) * width];
                        let trow = &mut table[i * p..(i + 1) * p];
                        for (j, &val) in tuple.iter().enumerate() {
                            if val == 0.0 {
                                continue;
                            }
                            let mrow = m.row(cols[j] as usize);
                            for (t, &b) in trow.iter_mut().zip(mrow) {
                                *t += val * b;
                            }
                        }
                    }
                    for (r, &i) in rowidx.iter().enumerate() {
                        let trow = &table[i as usize * p..(i as usize + 1) * p];
                        let orow = out.row_mut(r);
                        for (o, &t) in orow.iter_mut().zip(trow) {
                            *o += t;
                        }
                    }
                }
                Group::Uc { col, values } => {
                    let mrow = m.row(*col as usize);
                    for (r, &val) in values.iter().enumerate() {
                        if val == 0.0 {
                            continue;
                        }
                        let orow = out.row_mut(r);
                        for (o, &b) in orow.iter_mut().zip(mrow) {
                            *o += val * b;
                        }
                    }
                }
            }
        }
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        let p = m.rows();
        out.reset(p, self.cols);
        for g in &self.groups {
            match g {
                Group::Ddc { cols, dict, rowidx } => {
                    let width = cols.len();
                    let n = dict.len() / width;
                    // acc[i][q] = sum over rows with entry i of M[q][r].
                    let acc = zeroed(&mut ws.cla, n * p);
                    for (r, &i) in rowidx.iter().enumerate() {
                        let arow = &mut acc[i as usize * p..(i as usize + 1) * p];
                        for (q, a) in arow.iter_mut().enumerate() {
                            *a += m.get(q, r);
                        }
                    }
                    for i in 0..n {
                        let tuple = &dict[i * width..(i + 1) * width];
                        let arow = &acc[i * p..(i + 1) * p];
                        for (j, &val) in tuple.iter().enumerate() {
                            if val == 0.0 {
                                continue;
                            }
                            let col = cols[j] as usize;
                            for (q, &a) in arow.iter().enumerate() {
                                out.set(q, col, out.get(q, col) + val * a);
                            }
                        }
                    }
                }
                Group::Uc { col, values } => {
                    for q in 0..p {
                        let mut accv = 0.0;
                        let mrow = m.row(q);
                        for (&val, &w) in values.iter().zip(mrow) {
                            accv += val * w;
                        }
                        out.set(q, *col as usize, out.get(q, *col as usize) + accv);
                    }
                }
            }
        }
    }
    fn reserve_scratch(&self, p: usize, ws: &mut ExecScratch) {
        ws.t_in.reserve(p, self.rows);
        ws.t_out.reserve(p, self.cols);
        // The largest per-group table or accumulator any kernel builds.
        let entries = self.groups.iter().map(|g| match g {
            Group::Ddc { cols, dict, .. } => dict.len() / cols.len(),
            Group::Uc { .. } => 0,
        });
        let need = entries.max().unwrap_or(0) * p.max(1);
        ws.cla.reserve(need.saturating_sub(ws.cla.len()));
    }
    fn scale(&mut self, c: f64) {
        for g in &mut self.groups {
            match g {
                Group::Ddc { dict, .. } => {
                    for v in dict {
                        *v *= c;
                    }
                }
                Group::Uc { values, .. } => {
                    for v in values {
                        *v *= c;
                    }
                }
            }
        }
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, _: &mut ExecScratch) {
        out.reset(self.rows, self.cols);
        for g in &self.groups {
            match g {
                Group::Ddc { cols, dict, rowidx } => {
                    let width = cols.len();
                    for (r, &i) in rowidx.iter().enumerate() {
                        let tuple = &dict[i as usize * width..(i as usize + 1) * width];
                        for (j, &val) in tuple.iter().enumerate() {
                            out.set(r, cols[j] as usize, val);
                        }
                    }
                }
                Group::Uc { col, values } => {
                    for (r, &val) in values.iter().enumerate() {
                        out.set(r, *col as usize, val);
                    }
                }
            }
        }
    }
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![Scheme::Cla.tag()];
        put_u32(&mut out, self.rows as u32);
        put_u32(&mut out, self.cols as u32);
        put_u32(&mut out, self.groups.len() as u32);
        for g in &self.groups {
            match g {
                Group::Ddc { cols, dict, rowidx } => {
                    out.push(0);
                    put_u32s(&mut out, cols);
                    put_f64s(&mut out, dict);
                    put_u32s(&mut out, rowidx);
                }
                Group::Uc { col, values } => {
                    out.push(1);
                    put_u32(&mut out, *col);
                    put_f64s(&mut out, values);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn redundant_matrix(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, (((r % 5) * (c % 3)) % 4) as f64 * 0.5);
            }
        }
        m
    }

    #[test]
    fn roundtrip() {
        let a = redundant_matrix(40, 20);
        let b = ClaBatch::encode(&a);
        assert_eq!(b.decode(), a);
        let restored = ClaBatch::from_body(&b.to_bytes()[1..]).unwrap();
        assert_eq!(restored, b);
    }

    #[test]
    fn co_coding_happens_on_redundant_columns() {
        let a = redundant_matrix(100, 30);
        let b = ClaBatch::encode(&a);
        assert!(b.num_groups() < 30, "groups: {}", b.num_groups());
        assert!(b.size_bytes() < a.den_size_bytes());
    }

    #[test]
    fn uc_fallback_on_random_column() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows = 600;
        let mut m = DenseMatrix::zeros(rows, 2);
        for r in 0..rows {
            m.set(r, 0, rng.gen::<f64>()); // unique values -> UC
            m.set(r, 1, (r % 3) as f64); // 3 distinct -> DDC
        }
        let b = ClaBatch::encode(&m);
        assert!(b.groups.iter().any(|g| matches!(g, Group::Uc { .. })));
        assert_eq!(b.decode(), m);
    }

    #[test]
    fn kernels_match_dense() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = redundant_matrix(35, 18);
        let v: Vec<f64> = (0..18).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let w: Vec<f64> = (0..35).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b = ClaBatch::encode(&a);
        let tol = 1e-9;
        assert!(toc_linalg::dense::max_abs_diff_vec(&b.matvec(&v), &a.matvec(&v)) < tol);
        assert!(toc_linalg::dense::max_abs_diff_vec(&b.vecmat(&w), &a.vecmat(&w)) < tol);
        let m = DenseMatrix::random(&mut rng, 18, 5, -1.0, 1.0);
        assert!(b.matmat(&m).max_abs_diff(&a.matmat(&m)) < tol);
        let ml = DenseMatrix::random(&mut rng, 4, 35, -1.0, 1.0);
        assert!(b.matmat_left(&ml).max_abs_diff(&a.matmat_left(&ml)) < tol);
    }

    #[test]
    fn scale_matches_dense() {
        let a = redundant_matrix(20, 10);
        let mut b = ClaBatch::encode(&a);
        b.scale(0.25);
        let mut want = a;
        want.scale(0.25);
        assert_eq!(b.decode(), want);
    }

    #[test]
    fn single_column_matrix() {
        let a = DenseMatrix::from_rows(vec![vec![1.0], vec![2.0], vec![1.0]]);
        let b = ClaBatch::encode(&a);
        assert_eq!(b.decode(), a);
        assert_eq!(b.matvec(&[2.0]), a.matvec(&[2.0]));
    }

    #[test]
    fn corrupt_body_errors() {
        let b = ClaBatch::encode(&redundant_matrix(10, 5)).to_bytes();
        assert!(ClaBatch::from_body(&b[1..b.len() - 2]).is_err());
        assert!(ClaBatch::from_body(&[0, 0, 0]).is_err());
    }

    /// A batch of the given column groups, whatever the planner would pick.
    fn with_groups(m: &DenseMatrix, groups: Vec<Vec<u32>>) -> ClaBatch {
        let plan = ClaPlan {
            groups,
            est_bytes: 0,
            sample_rows: 0,
            exact: false,
        };
        ClaBatch::materialize(m, &plan)
    }

    #[test]
    fn non_partition_group_layouts_are_rejected() {
        // All 5 redundant columns in one DDC group — the adjacent
        // multi-column layout that greedy-encoded files hold — so the wire
        // layout is: tag, rows, cols, n_groups, group tag, col list (len
        // at 14..18, first col at 18..22, second at 22..26).
        let b = with_groups(&redundant_matrix(10, 5), vec![vec![0, 1, 2, 3, 4]]);
        assert_eq!(b.num_groups(), 1);
        let good = b.to_bytes();
        assert_eq!(ClaBatch::from_body(&good[1..]).unwrap(), b);
        // Duplicate column: [0,1,2,3,4] -> [0,0,2,3,4].
        let mut dup = good.clone();
        dup[22..26].copy_from_slice(&0u32.to_le_bytes());
        assert!(ClaBatch::from_body(&dup[1..]).is_err());
        // Inflated column count: group no longer covers every column.
        let mut wide = good.clone();
        wide[5..9].copy_from_slice(&6u32.to_le_bytes());
        assert!(ClaBatch::from_body(&wide[1..]).is_err());
    }

    #[test]
    fn implausible_header_counts_error_without_allocating() {
        // High-bit corruption of cols/n_groups must be rejected by the
        // wire-length bound before any header-sized allocation happens
        // (a ~2^31 count would otherwise abort the process).
        let good = ClaBatch::encode(&redundant_matrix(10, 5)).to_bytes();
        let mut huge_cols = good.clone();
        huge_cols[8] |= 0x80;
        assert!(ClaBatch::from_body(&huge_cols[1..]).is_err());
        let mut huge_both = good.clone();
        huge_both[8] |= 0x80; // cols high bit
        huge_both[12] |= 0x80; // n_groups high bit (still <= cols)
        assert!(ClaBatch::from_body(&huge_both[1..]).is_err());
        // Zero-column body claiming 2^32-1 rows: the rows field has no
        // byte backing (no groups), so the degenerate-dimension cap must
        // reject it before a kernel allocates a rows-sized output.
        let mut crafted = Vec::new();
        crate::wire::put_u32(&mut crafted, u32::MAX); // rows
        crate::wire::put_u32(&mut crafted, 0); // cols
        crate::wire::put_u32(&mut crafted, 0); // n_groups
        assert!(ClaBatch::from_body(&crafted).is_err());
        // But an honestly degenerate zero-column batch still round-trips.
        let empty = ClaBatch::encode(&DenseMatrix::zeros(5, 0));
        assert_eq!(ClaBatch::from_body(&empty.to_bytes()[1..]).unwrap(), empty);
    }

    #[test]
    fn sampled_planner_skips_harmful_merges() {
        // Two independent 16-value columns: their joint dictionary (256
        // entries) fits the cap, but co-coding them inflates the
        // encoding, so the planner keeps them apart.
        let rows = 800;
        let mut m = DenseMatrix::zeros(rows, 2);
        for r in 0..rows {
            m.set(r, 0, ((r * 7 + 3) % 16) as f64);
            m.set(r, 1, ((r * 13 + 5) % 17 % 16) as f64 + 100.0);
        }
        let joint = with_groups(&m, vec![vec![0, 1]]);
        let sampled = ClaBatch::encode_with(&m, &ClaOptions::default());
        assert_eq!(joint.num_groups(), 1);
        assert_eq!(sampled.num_groups(), 2);
        assert!(sampled.size_bytes() < joint.size_bytes());
        assert_eq!(sampled.decode(), m);
        assert_eq!(joint.decode(), m);
    }

    #[test]
    fn sampled_planner_finds_non_adjacent_pairs() {
        // col2 duplicates col0; the planner pairs them across the
        // independent col1.
        let rows = 300;
        let mut m = DenseMatrix::zeros(rows, 3);
        for r in 0..rows {
            let v = ((r * 11) % 5) as f64;
            m.set(r, 0, v);
            m.set(r, 1, ((r * 17 + 1) % 7) as f64 + 50.0);
            m.set(r, 2, v + 9.0);
        }
        let b = ClaBatch::encode_with(&m, &ClaOptions::default());
        let pair = b
            .groups()
            .iter()
            .any(|g| matches!(g, Group::Ddc { cols, .. } if cols.as_slice() == [0, 2]));
        assert!(pair, "groups: {:?}", b.num_groups());
        assert_eq!(b.decode(), m);
    }

    #[test]
    fn planned_multi_column_groups_respect_dict_cap() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut m = DenseMatrix::zeros(500, 12);
        for r in 0..500 {
            for c in 0..12 {
                m.set(r, c, (rng.gen_range(0..30usize) * (c + 1)) as f64);
            }
        }
        let b = ClaBatch::encode_with(&m, &ClaOptions::default());
        for g in b.groups() {
            if let Group::Ddc { cols, dict, .. } = g {
                if cols.len() > 1 {
                    assert!(dict.len() / cols.len() <= MAX_DICT_ENTRIES);
                }
            }
        }
        assert_eq!(b.decode(), m);
    }
}
