//! TOC as a [`MatrixBatch`] format, plus the ablation variants of
//! Figures 6 and 10:
//!
//! * [`TocFormat`] — the full pipeline (sparse + logical + physical).
//! * [`TocSparse`] — sparse encoding only (`TOC_SPARSE`); layout and size
//!   equal CSR, kernels are the sparse-row kernels.
//! * [`TocSparseLogical`] — sparse + logical encoding without physical
//!   encoding (`TOC_SPARSE_AND_LOGICAL`); kernels are the TOC compressed
//!   kernels, but the footprint is the unpacked logical layout
//!   (12 B per first-layer pair, 4 B per code/offset).

use crate::csr::CsrBatch;
use crate::wire::{put_u32, Rd};
use crate::{ExecScratch, FormatError, MatrixBatch, Scheme};
use toc_core::{PhysicalCodec, TocBatch};
use toc_linalg::sparse::SparseRows;
use toc_linalg::DenseMatrix;

/// Full TOC (the paper's `TOC_FULL`).
#[derive(Clone, Debug, PartialEq)]
pub struct TocFormat {
    inner: TocBatch,
}

impl TocFormat {
    pub fn encode(dense: &DenseMatrix) -> Self {
        Self {
            inner: TocBatch::encode(dense),
        }
    }

    pub fn from_body(body: &[u8]) -> Result<Self, FormatError> {
        Ok(Self {
            inner: parse_bitpacked(body)?,
        })
    }

    /// Borrow the underlying compressed batch.
    pub fn toc(&self) -> &TocBatch {
        &self.inner
    }

    pub(crate) fn toc_mut(&mut self) -> &mut TocBatch {
        &mut self.inner
    }
}

impl MatrixBatch for TocFormat {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        self.inner
            .matvec_into(v, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        self.inner
            .vecmat_into(v, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.inner
            .matmat_into(m, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.inner
            .matmat_left_into(m, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn matmat_t_into_ws(&self, d: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.inner
            .matmat_t_into(d, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn reserve_scratch(&self, _: usize, ws: &mut ExecScratch) {
        ws.toc.reserve(&self.inner)
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.inner.decode_into(out, &mut ws.toc)
    }
    fn scale(&mut self, c: f64) {
        self.inner.scale(c);
    }
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![Scheme::Toc.tag()];
        out.extend_from_slice(self.inner.as_bytes());
        out
    }
}

/// Parse a TOC body. Every TOC-family scheme writes it bit-packed, so a
/// body in another physical codec is corrupt: one tag never names two
/// physical forms.
fn parse_bitpacked(body: &[u8]) -> Result<TocBatch, FormatError> {
    let toc = TocBatch::from_bytes(body.to_vec())?;
    if toc.codec() != PhysicalCodec::BitPack {
        return Err(FormatError::Corrupt("a TOC body must be bit-packed".into()));
    }
    Ok(toc)
}

/// Ablation: sparse encoding only (`TOC_SPARSE`).
#[derive(Clone, Debug, PartialEq)]
pub struct TocSparse {
    s: SparseRows,
}

impl TocSparse {
    pub fn encode(dense: &DenseMatrix) -> Self {
        Self {
            s: SparseRows::encode(dense),
        }
    }

    pub fn from_body(body: &[u8]) -> Result<Self, FormatError> {
        // Same wire layout as CSR.
        let csr = CsrBatch::from_body(body)?;
        Ok(Self {
            s: csr.sparse().clone(),
        })
    }
}

impl MatrixBatch for TocSparse {
    fn rows(&self) -> usize {
        self.s.rows()
    }
    fn cols(&self) -> usize {
        self.s.cols()
    }
    fn size_bytes(&self) -> usize {
        CsrBatch::csr_size_bytes(&self.s)
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
        let mut csr = CsrBatch::from_sparse(self.s.clone());
        csr.scale(c);
        self.s = csr.sparse().clone();
    }
    fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = CsrBatch::from_sparse(self.s.clone()).to_bytes();
        bytes[0] = Scheme::TocSparse.tag();
        bytes
    }
}

/// Ablation: sparse + logical encoding, no physical encoding
/// (`TOC_SPARSE_AND_LOGICAL`).
#[derive(Clone, Debug, PartialEq)]
pub struct TocSparseLogical {
    /// Ops run through the full pipeline (physical access is free relative
    /// to the kernels); only the *footprint* models the unpacked layout.
    inner: TocBatch,
    logical_size: usize,
}

impl TocSparseLogical {
    pub fn encode(dense: &DenseMatrix) -> Self {
        let sparse = SparseRows::encode(dense);
        let logical = toc_core::logical_encode(&sparse);
        // Unpacked logical layout: 12 B per I pair (u32 col + f64 value),
        // 4 B per code, 4 B per tuple offset.
        let logical_size = 16
            + 12 * logical.first_layer.len()
            + 4 * logical.codes.len()
            + 4 * logical.row_offsets.len();
        let inner = TocBatch::from_logical(&logical, PhysicalCodec::BitPack);
        Self {
            inner,
            logical_size,
        }
    }

    pub fn from_body(body: &[u8]) -> Result<Self, FormatError> {
        let mut rd = Rd::new(body);
        let logical_size = rd.u32()? as usize;
        let inner = parse_bitpacked(rd.rest())?;
        Ok(Self {
            inner,
            logical_size,
        })
    }

    /// Borrow the underlying compressed batch.
    pub fn toc(&self) -> &TocBatch {
        &self.inner
    }

    pub(crate) fn toc_mut(&mut self) -> &mut TocBatch {
        &mut self.inner
    }
}

impl MatrixBatch for TocSparseLogical {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn size_bytes(&self) -> usize {
        self.logical_size
    }
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        self.inner
            .matvec_into(v, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        self.inner
            .vecmat_into(v, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.inner
            .matmat_into(m, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.inner
            .matmat_left_into(m, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn matmat_t_into_ws(&self, d: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.inner
            .matmat_t_into(d, out, &mut ws.toc)
            .expect("dimension-checked by caller")
    }
    fn reserve_scratch(&self, _: usize, ws: &mut ExecScratch) {
        ws.toc.reserve(&self.inner)
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.inner.decode_into(out, &mut ws.toc)
    }
    fn scale(&mut self, c: f64) {
        self.inner.scale(c);
    }
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![Scheme::TocSparseLogical.tag()];
        put_u32(&mut out, self.logical_size as u32);
        out.extend_from_slice(self.inner.as_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|r| {
                (0..30)
                    .map(|c| {
                        if (c + r % 4) % 3 == 0 {
                            ((c % 5) as f64) + 0.5
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        DenseMatrix::from_rows(rows)
    }

    #[test]
    fn full_roundtrip() {
        let a = sample();
        let b = TocFormat::encode(&a);
        assert_eq!(b.decode(), a);
        let restored = TocFormat::from_body(&b.to_bytes()[1..]).unwrap();
        assert_eq!(restored.decode(), a);
    }

    #[test]
    fn ablation_ordering_of_sizes() {
        // Fig. 6: FULL <= SPARSE_AND_LOGICAL <= SPARSE on redundant data.
        let a = sample();
        let sparse = TocSparse::encode(&a).size_bytes();
        let logical = TocSparseLogical::encode(&a).size_bytes();
        let full = TocFormat::encode(&a).size_bytes();
        assert!(full <= logical, "full {full} vs logical {logical}");
        assert!(logical <= sparse, "logical {logical} vs sparse {sparse}");
    }

    #[test]
    fn ablations_roundtrip() {
        let a = sample();
        let s = TocSparse::encode(&a);
        assert_eq!(s.decode(), a);
        let s2 = TocSparse::from_body(&s.to_bytes()[1..]).unwrap();
        assert_eq!(s2.decode(), a);
        let l = TocSparseLogical::encode(&a);
        assert_eq!(l.decode(), a);
        let l2 = TocSparseLogical::from_body(&l.to_bytes()[1..]).unwrap();
        assert_eq!(l2.decode(), a);
    }

    #[test]
    fn kernels_agree_across_variants() {
        let a = sample();
        let v: Vec<f64> = (0..30).map(|i| (i % 7) as f64 * 0.25).collect();
        let want = a.matvec(&v);
        for b in [
            Box::new(TocFormat::encode(&a)) as Box<dyn MatrixBatch>,
            Box::new(TocSparse::encode(&a)),
            Box::new(TocSparseLogical::encode(&a)),
        ] {
            let got = b.matvec(&v);
            assert!(toc_linalg::dense::max_abs_diff_vec(&got, &want) < 1e-9);
        }
    }
}
