//! DEN (§5 method 1): the standard dense binary format. Row-major IEEE-754
//! doubles; the baseline every compression ratio is measured against.

use crate::wire::{put_u32, Rd};
use crate::{ExecScratch, FormatError, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

/// An uncompressed dense mini-batch.
#[derive(Clone, Debug, PartialEq)]
pub struct DenBatch {
    m: DenseMatrix,
}

impl DenBatch {
    pub fn encode(dense: &DenseMatrix) -> Self {
        Self { m: dense.clone() }
    }

    pub fn from_body(body: &[u8]) -> Result<Self, FormatError> {
        let mut rd = Rd::new(body);
        let rows = rd.u32()? as usize;
        let cols = rd.u32()? as usize;
        if rows.checked_mul(cols).is_none() || rows * cols > body.len() / 8 + 1 {
            return Err(FormatError::Corrupt("implausible DEN shape".into()));
        }
        let raw = rd.take(rows * cols * 8)?;
        rd.done()?;
        let data = raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Self {
            m: DenseMatrix::from_vec(rows, cols, data),
        })
    }

    /// Borrow the underlying dense matrix.
    pub fn dense(&self) -> &DenseMatrix {
        &self.m
    }
}

impl MatrixBatch for DenBatch {
    fn rows(&self) -> usize {
        self.m.rows()
    }
    fn cols(&self) -> usize {
        self.m.cols()
    }
    fn size_bytes(&self) -> usize {
        self.m.den_size_bytes()
    }
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, _: &mut ExecScratch) {
        self.m.matvec_into(v, out)
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, _: &mut ExecScratch) {
        self.m.vecmat_into(v, out)
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, _: &mut ExecScratch) {
        self.m.matmat_into(m, out)
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, _: &mut ExecScratch) {
        self.m.matmat_left_into(m, out)
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, _: &mut ExecScratch) {
        out.reset(self.m.rows(), self.m.cols());
        out.data_mut().copy_from_slice(self.m.data());
    }
    fn decode_rows_into(&self, r0: usize, r1: usize, out: &mut DenseMatrix) {
        assert!(r0 <= r1 && r1 <= self.m.rows(), "row range out of bounds");
        out.reset(r1 - r0, self.m.cols());
        let cols = self.m.cols();
        out.data_mut()
            .copy_from_slice(&self.m.data()[r0 * cols..r1 * cols]);
    }
    fn scale(&mut self, c: f64) {
        self.m.scale(c);
    }
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.m.data().len() * 8);
        out.push(Scheme::Den.tag());
        put_u32(&mut out, self.m.rows() as u32);
        put_u32(&mut out, self.m.cols() as u32);
        for v in self.m.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 0.0], vec![-2.5, 3.0]]);
        let b = DenBatch::encode(&a);
        let bytes = b.to_bytes();
        assert_eq!(bytes[0], Scheme::Den.tag());
        let restored = DenBatch::from_body(&bytes[1..]).unwrap();
        assert_eq!(restored.decode(), a);
        assert_eq!(b.size_bytes(), a.den_size_bytes());
    }

    #[test]
    fn corrupt_body_errors() {
        assert!(DenBatch::from_body(&[1, 2]).is_err());
        assert!(DenBatch::from_body(&[255, 255, 255, 255, 255, 255, 255, 255]).is_err());
    }
}
