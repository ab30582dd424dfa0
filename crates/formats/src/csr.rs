//! CSR (§5 method 2): compressed sparse row. Per row, only non-zero values
//! and their column indexes are stored. Size model: `u32` row pointers,
//! `u32` column indexes, `f64` values.

use crate::wire::{put_u32, put_u32s, Rd};
use crate::{ExecScratch, FormatError, MatrixBatch, Scheme};
use toc_linalg::sparse::{ColVal, SparseRows};
use toc_linalg::DenseMatrix;

/// A CSR-encoded mini-batch.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrBatch {
    s: SparseRows,
}

impl CsrBatch {
    pub fn encode(dense: &DenseMatrix) -> Self {
        Self {
            s: SparseRows::encode(dense),
        }
    }

    pub fn from_sparse(s: SparseRows) -> Self {
        Self { s }
    }

    /// Footprint of a CSR encoding of `s` (shared with the TOC_SPARSE
    /// ablation, which is the same layout).
    pub fn csr_size_bytes(s: &SparseRows) -> usize {
        Self::size_of(s.rows(), s.num_pairs())
    }

    /// Footprint of a CSR encoding of `rows` rows holding `nnz` non-zero
    /// cells.
    pub(crate) fn size_of(rows: usize, nnz: usize) -> usize {
        // rows, cols header + row pointers + (col idx + value) per nnz.
        16 + 4 * (rows + 1) + 12 * nnz
    }

    pub fn from_body(body: &[u8]) -> Result<Self, FormatError> {
        let mut rd = Rd::new(body);
        let rows = rd.u32()? as usize;
        let cols = rd.u32()? as usize;
        let offsets32 = rd.u32s()?;
        let cols_arr = rd.u32s()?;
        let vals = rd.f64s()?;
        rd.done()?;
        if offsets32.len() != rows + 1 || cols_arr.len() != vals.len() {
            return Err(FormatError::Corrupt("CSR section mismatch".into()));
        }
        let mut prev = 0u32;
        for &o in &offsets32 {
            if o < prev || o as usize > vals.len() {
                return Err(FormatError::Corrupt("CSR offsets not monotone".into()));
            }
            prev = o;
        }
        if *offsets32.last().unwrap() as usize != vals.len() {
            return Err(FormatError::Corrupt("CSR final offset mismatch".into()));
        }
        let pairs: Vec<ColVal> = cols_arr
            .iter()
            .zip(&vals)
            .map(|(&col, &val)| {
                if col as usize >= cols {
                    return Err(FormatError::Corrupt("CSR column out of range".into()));
                }
                Ok(ColVal { col, val })
            })
            .collect::<Result<_, _>>()?;
        let offsets = offsets32.iter().map(|&o| o as usize).collect();
        Ok(Self {
            s: SparseRows::from_parts(rows, cols, pairs, offsets),
        })
    }

    /// Borrow the sparse rows.
    pub fn sparse(&self) -> &SparseRows {
        &self.s
    }
}

impl MatrixBatch for CsrBatch {
    fn rows(&self) -> usize {
        self.s.rows()
    }
    fn cols(&self) -> usize {
        self.s.cols()
    }
    fn size_bytes(&self) -> usize {
        Self::csr_size_bytes(&self.s)
    }
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, _: &mut ExecScratch) {
        self.s.matvec_into(v, out)
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, _: &mut ExecScratch) {
        self.s.vecmat_into(v, out)
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, _: &mut ExecScratch) {
        self.s.matmat_into(m, out)
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, _: &mut ExecScratch) {
        self.s.matmat_left_into(m, out)
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, _: &mut ExecScratch) {
        self.s.decode_into(out)
    }
    fn decode_rows_into(&self, r0: usize, r1: usize, out: &mut DenseMatrix) {
        assert!(r0 <= r1 && r1 <= self.s.rows(), "row range out of bounds");
        out.reset(r1 - r0, self.s.cols());
        let offsets = self.s.offsets();
        let pairs = self.s.pairs();
        for r in r0..r1 {
            let row = out.row_mut(r - r0);
            for p in &pairs[offsets[r]..offsets[r + 1]] {
                row[p.col as usize] = p.val;
            }
        }
    }
    fn scale(&mut self, c: f64) {
        // CSR stores raw values; scaling touches every non-zero.
        let rows = self.s.rows();
        let cols = self.s.cols();
        let offsets = self.s.offsets().to_vec();
        let pairs: Vec<ColVal> = self
            .s
            .pairs()
            .iter()
            .map(|p| ColVal {
                col: p.col,
                val: p.val * c,
            })
            .collect();
        self.s = SparseRows::from_parts(rows, cols, pairs, offsets);
    }
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.size_bytes());
        out.push(Scheme::Csr.tag());
        put_u32(&mut out, self.rows() as u32);
        put_u32(&mut out, self.cols() as u32);
        let offsets: Vec<u32> = self.s.offsets().iter().map(|&o| o as u32).collect();
        put_u32s(&mut out, &offsets);
        let cols_arr: Vec<u32> = self.s.pairs().iter().map(|p| p.col).collect();
        put_u32s(&mut out, &cols_arr);
        put_u32(&mut out, self.s.num_pairs() as u32);
        for p in self.s.pairs() {
            out.extend_from_slice(&p.val.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(vec![
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0],
        ])
    }

    #[test]
    fn roundtrip() {
        let a = sample();
        let b = CsrBatch::encode(&a);
        let bytes = b.to_bytes();
        let restored = CsrBatch::from_body(&bytes[1..]).unwrap();
        assert_eq!(restored.decode(), a);
    }

    #[test]
    fn size_model() {
        let b = CsrBatch::encode(&sample());
        assert_eq!(b.size_bytes(), 16 + 4 * 4 + 12 * 3);
    }

    #[test]
    fn kernels_match_dense() {
        let a = sample();
        let b = CsrBatch::encode(&a);
        assert_eq!(b.matvec(&[1.0, 2.0, 3.0]), a.matvec(&[1.0, 2.0, 3.0]));
        assert_eq!(b.vecmat(&[1.0, 2.0, 3.0]), a.vecmat(&[1.0, 2.0, 3.0]));
        let m = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![0.5, 0.0], vec![1.0, 1.0]]);
        assert_eq!(b.matmat(&m), a.matmat(&m));
        let ml = DenseMatrix::from_rows(vec![vec![1.0, 0.0, 2.0], vec![0.0, 1.0, 1.0]]);
        assert_eq!(b.matmat_left(&ml), a.matmat_left(&ml));
    }

    #[test]
    fn scale_touches_values() {
        let a = sample();
        let mut b = CsrBatch::encode(&a);
        b.scale(-2.0);
        let mut want = a;
        want.scale(-2.0);
        assert_eq!(b.decode(), want);
    }

    #[test]
    fn corrupt_body_errors() {
        let b = CsrBatch::encode(&sample()).to_bytes();
        for len in 0..b.len().min(30) {
            assert!(CsrBatch::from_body(&b[1..len.max(1)]).is_err() || len + 1 >= b.len());
        }
    }
}
