//! One row-major pass over a list of a chunk's rows, keyed by
//! (column, value): what scheme selection and CLA's planner both read.
//!
//! Every statistic they need is a function of these counts. Selection
//! folds the entries into per-value counts for the closed-form sizes of
//! CSR, CVI, DVI and ANS ([`crate::Scheme::estimate_encoded_size`]);
//! CLA's planner takes each column's sample codes, distinct count and
//! singleton count from them ([`crate::cla::planner::plan_within`]). So
//! a chunk's cells are counted once however many of the two ask.

use toc_core::hash::{value_key, FxHashMap};
use toc_linalg::DenseMatrix;

/// One distinct (column, value) of the rows a [`ColumnValues`] counted.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    /// The column.
    pub col: u32,
    /// The value's bit pattern (values are told apart by bits: `0.0` and
    /// `-0.0` are two entries, and so are two NaN payloads).
    pub bits: u64,
    /// The value's code in its column.
    pub code: u32,
    /// Listed rows holding this value in this column.
    pub count: u32,
}

/// The (column, value) counts of a list of rows, with each listed row's
/// per-column code.
///
/// A column's codes number its distinct values in order of first
/// appearance down the list, from 0. CLA's planner finds columns that
/// split the rows alike by comparing their codes, which holds only under
/// this one numbering.
pub(crate) struct ColumnValues {
    cols: usize,
    /// Rows in the list.
    rows: usize,
    /// Every distinct (column, value): each column's first [`INLINE`]
    /// values by column, then the rest in order of first appearance.
    entries: Vec<Entry>,
    /// `codes[i * cols + c]`: column `c`'s code of the `i`-th listed row.
    codes: Vec<u32>,
    /// Per column: its distinct values, which is also its next code.
    distinct: Vec<u32>,
}

/// Values a column keeps inline, found by comparing bit patterns, before
/// the rest go to a hash index. A census-like chunk's columns hold 2–4
/// values each, so its cells never hash.
const INLINE: usize = 4;

/// One column's first [`INLINE`] values (slot = code) and their counts.
#[derive(Clone, Copy, Default)]
struct Inline {
    bits: [u64; INLINE],
    counts: [u32; INLINE],
    /// The column's distinct values so far, inline or not.
    distinct: u32,
}

impl ColumnValues {
    /// Count the listed `rows` of `dense`, in list order.
    pub fn count(dense: &DenseMatrix, rows: impl ExactSizeIterator<Item = usize>) -> Self {
        let cols = dense.cols();
        let n = rows.len();
        let mut columns = vec![Inline::default(); cols];
        // The other values: (column, value key) → index into `spilled`.
        let mut index: FxHashMap<(u32, u64), u32> = FxHashMap::default();
        let mut spilled: Vec<Entry> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(n * cols);
        for r in rows {
            for (c, (v, col)) in dense.row(r).iter().zip(columns.iter_mut()).enumerate() {
                let bits = v.to_bits();
                let seen = col.distinct;
                let mut hit = 0u32;
                for k in 0..INLINE {
                    hit |= ((col.bits[k] == bits) as u32) << k;
                }
                hit &= (1 << seen.min(INLINE as u32)) - 1;
                let code = if hit != 0 {
                    let k = hit.trailing_zeros();
                    col.counts[k as usize] += 1;
                    k
                } else if (seen as usize) < INLINE {
                    col.bits[seen as usize] = bits;
                    col.counts[seen as usize] = 1;
                    col.distinct += 1;
                    seen
                } else {
                    let e = *index.entry((c as u32, value_key(bits))).or_insert_with(|| {
                        spilled.push(Entry {
                            col: c as u32,
                            bits,
                            code: seen,
                            count: 0,
                        });
                        col.distinct += 1;
                        (spilled.len() - 1) as u32
                    }) as usize;
                    spilled[e].count += 1;
                    spilled[e].code
                };
                codes.push(code);
            }
        }
        let mut entries = Vec::with_capacity(cols * INLINE + spilled.len());
        for (c, col) in columns.iter().enumerate() {
            for k in 0..(col.distinct as usize).min(INLINE) {
                entries.push(Entry {
                    col: c as u32,
                    bits: col.bits[k],
                    code: k as u32,
                    count: col.counts[k],
                });
            }
        }
        entries.extend(spilled);
        Self {
            cols,
            rows: n,
            entries,
            codes,
            distinct: columns.iter().map(|col| col.distinct).collect(),
        }
    }

    /// Rows in the list that was counted.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the counted matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Every distinct (column, value).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Distinct values of column `c` among the listed rows.
    pub fn distinct(&self, c: usize) -> usize {
        self.distinct[c] as usize
    }

    /// Per column: how many of its values occur in exactly one listed row.
    pub fn singletons(&self) -> Vec<usize> {
        let mut f1 = vec![0usize; self.cols];
        for e in self.entries.iter().filter(|e| e.count == 1) {
            f1[e.col as usize] += 1;
        }
        f1
    }

    /// Column `c`'s code of every listed row, in list order.
    pub fn column_codes(&self, c: usize) -> Vec<u32> {
        self.codes
            .iter()
            .skip(c)
            .step_by(self.cols.max(1))
            .copied()
            .collect()
    }
}
