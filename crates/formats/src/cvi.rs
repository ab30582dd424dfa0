//! CVI and DVI (§5 methods 3–4): value indexing [Kourtis et al. 2008]
//! layered over CSR and DEN respectively.
//!
//! Both replace raw `f64` cells by small indexes into a dictionary of
//! distinct values, which makes the sparse-safe `A .* c` nearly free (only
//! the dictionary is rewritten) and shrinks storage when a batch has few
//! distinct values.

use crate::wire::{put_f64s, put_u32, put_u32s, Rd};
use crate::{ExecScratch, FormatError, MatrixBatch, Scheme};
use toc_core::hash::{value_key, FxHashMap};
use toc_linalg::DenseMatrix;

/// Bytes per index for a dictionary of `n` entries (same bit-packing width
/// rule as the TOC physical layer).
fn idx_width(n: usize) -> usize {
    match n.saturating_sub(1) {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFF_FFFF => 3,
        _ => 4,
    }
}

/// [`MatrixBatch::size_bytes`] of a CVI batch of `rows` rows holding `nnz`
/// non-zero cells over `dict_len` distinct non-zero values.
pub(crate) fn cvi_size_bytes(rows: usize, nnz: usize, dict_len: usize) -> usize {
    16 + 4 * (rows + 1) + nnz * (4 + idx_width(dict_len)) + 8 * dict_len + 5
}

/// [`MatrixBatch::size_bytes`] of a DVI batch of `cells` cells over
/// `dict_len` distinct values (zeros included).
pub(crate) fn dvi_size_bytes(cells: usize, dict_len: usize) -> usize {
    16 + cells * idx_width(dict_len) + 8 * dict_len + 5
}

/// Scratch-lane width for chunked index unpacking: small enough to stay in
/// L1 as a stack array, large enough that the widening loop amortizes the
/// per-chunk width dispatch and autovectorizes.
const IDX_CHUNK: usize = 256;

/// Value indexes narrowed to the dictionary's width class (the wire format
/// keeps full `u32`s; narrowing happens on encode/deserialize). Kernels
/// never branch per element on the width: they unpack a whole chunk into a
/// `u32` scratch lane through one match, then gather-apply off the lane.
#[derive(Clone, Debug, PartialEq)]
enum IdxStore {
    W1(Vec<u8>),
    W2(Vec<u16>),
    W4(Vec<u32>),
}

impl IdxStore {
    fn from_u32s(idx: Vec<u32>, dict_len: usize) -> Self {
        match idx_width(dict_len) {
            1 => IdxStore::W1(idx.into_iter().map(|i| i as u8).collect()),
            2 => IdxStore::W2(idx.into_iter().map(|i| i as u16).collect()),
            _ => IdxStore::W4(idx),
        }
    }

    fn len(&self) -> usize {
        match self {
            IdxStore::W1(v) => v.len(),
            IdxStore::W2(v) => v.len(),
            IdxStore::W4(v) => v.len(),
        }
    }

    /// Scalar access (cold paths and the scalar reference kernels).
    #[inline]
    fn get(&self, k: usize) -> usize {
        match self {
            IdxStore::W1(v) => v[k] as usize,
            IdxStore::W2(v) => v[k] as usize,
            IdxStore::W4(v) => v[k] as usize,
        }
    }

    /// Widen `self[start .. start + lane.len()]` into `lane`: one width
    /// dispatch per chunk, then a flat cast loop LLVM autovectorizes.
    #[inline]
    fn unpack_into(&self, start: usize, lane: &mut [u32]) {
        let n = lane.len();
        match self {
            IdxStore::W1(v) => {
                for (o, &i) in lane.iter_mut().zip(&v[start..start + n]) {
                    *o = i as u32;
                }
            }
            IdxStore::W2(v) => {
                for (o, &i) in lane.iter_mut().zip(&v[start..start + n]) {
                    *o = i as u32;
                }
            }
            IdxStore::W4(v) => lane.copy_from_slice(&v[start..start + n]),
        }
    }

    /// Gather `dict[self[start + i]]` straight into `out`: for pure-gather
    /// loops (full DVI decode) the `u32` lane round-trip is pure overhead,
    /// so this dispatches the width once per call and runs one flat
    /// load-translate-store loop per width class.
    #[inline]
    fn gather_into(&self, dict: &[f64], start: usize, out: &mut [f64]) {
        let n = out.len();
        match self {
            IdxStore::W1(v) => {
                for (o, &i) in out.iter_mut().zip(&v[start..start + n]) {
                    *o = dict[i as usize];
                }
            }
            IdxStore::W2(v) => {
                for (o, &i) in out.iter_mut().zip(&v[start..start + n]) {
                    *o = dict[i as usize];
                }
            }
            IdxStore::W4(v) => {
                for (o, &i) in out.iter_mut().zip(&v[start..start + n]) {
                    *o = dict[i as usize];
                }
            }
        }
    }

    /// Widen everything back to the wire representation.
    fn to_u32s(&self) -> Vec<u32> {
        match self {
            IdxStore::W1(v) => v.iter().map(|&i| i as u32).collect(),
            IdxStore::W2(v) => v.iter().map(|&i| i as u32).collect(),
            IdxStore::W4(v) => v.clone(),
        }
    }
}

fn build_dict(values: impl Iterator<Item = f64>) -> (Vec<f64>, Vec<u32>) {
    let mut map: FxHashMap<u64, u32> = FxHashMap::default();
    let mut dict = Vec::new();
    let mut idx = Vec::new();
    for v in values {
        let id = *map.entry(value_key(v.to_bits())).or_insert_with(|| {
            dict.push(v);
            dict.len() as u32 - 1
        });
        idx.push(id);
    }
    (dict, idx)
}

/// CVI: CSR structure with value-indexed cells (a.k.a. CSR-VI).
#[derive(Clone, Debug, PartialEq)]
pub struct CviBatch {
    rows: usize,
    cols: usize,
    offsets: Vec<u32>,
    col_idx: Vec<u32>,
    validx: IdxStore,
    dict: Vec<f64>,
}

impl CviBatch {
    pub fn encode(dense: &DenseMatrix) -> Self {
        let s = toc_linalg::SparseRows::encode(dense);
        let (dict, validx) = build_dict(s.pairs().iter().map(|p| p.val));
        let validx = IdxStore::from_u32s(validx, dict.len());
        Self {
            rows: s.rows(),
            cols: s.cols(),
            offsets: s.offsets().iter().map(|&o| o as u32).collect(),
            col_idx: s.pairs().iter().map(|p| p.col).collect(),
            validx,
            dict,
        }
    }

    pub fn from_body(body: &[u8]) -> Result<Self, FormatError> {
        let mut rd = Rd::new(body);
        let rows = rd.u32()? as usize;
        let cols = rd.u32()? as usize;
        let offsets = rd.u32s()?;
        let col_idx = rd.u32s()?;
        let validx = rd.u32s()?;
        let dict = rd.f64s()?;
        rd.done()?;
        if offsets.len() != rows + 1
            || col_idx.len() != validx.len()
            || offsets.last().copied().unwrap_or(1) as usize != validx.len()
        {
            return Err(FormatError::Corrupt("CVI section mismatch".into()));
        }
        if validx.iter().any(|&i| i as usize >= dict.len().max(1))
            || col_idx.iter().any(|&c| c as usize >= cols)
            || offsets.windows(2).any(|w| w[1] < w[0])
        {
            return Err(FormatError::Corrupt("CVI index out of range".into()));
        }
        let validx = IdxStore::from_u32s(validx, dict.len());
        Ok(Self {
            rows,
            cols,
            offsets,
            col_idx,
            validx,
            dict,
        })
    }

    #[inline]
    fn row_range(&self, r: usize) -> (usize, usize) {
        (self.offsets[r] as usize, self.offsets[r + 1] as usize)
    }

    /// Pre-chunking scalar reference kernels (per-element index fetch, one
    /// FP dependency chain). Kept so the codec-speed gate can measure the
    /// chunked lane kernels against the original ones inside one binary.
    #[doc(hidden)]
    pub fn decode_into_scalar(&self, out: &mut DenseMatrix) {
        out.reset(self.rows, self.cols);
        for r in 0..self.rows {
            let (s, e) = self.row_range(r);
            for k in s..e {
                out.set(r, self.col_idx[k] as usize, self.dict[self.validx.get(k)]);
            }
        }
    }

    #[doc(hidden)]
    pub fn matvec_into_scalar(&self, v: &[f64], out: &mut Vec<f64>) {
        toc_linalg::dense::reset_vec(out, self.rows);
        for (r, o) in out.iter_mut().enumerate() {
            let (s, e) = self.row_range(r);
            let mut acc = 0.0;
            for k in s..e {
                acc += self.dict[self.validx.get(k)] * v[self.col_idx[k] as usize];
            }
            *o = acc;
        }
    }
}

impl MatrixBatch for CviBatch {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn size_bytes(&self) -> usize {
        cvi_size_bytes(self.rows, self.col_idx.len(), self.dict.len())
    }
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, _: &mut ExecScratch) {
        toc_linalg::dense::reset_vec(out, self.rows);
        let mut lane = [0u32; IDX_CHUNK];
        for (r, o) in out.iter_mut().enumerate() {
            let (s, e) = self.row_range(r);
            // Four independent accumulators break the FP add dependency
            // chain (LLVM won't reorder float adds itself).
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
            let mut k = s;
            while k < e {
                let n = (e - k).min(IDX_CHUNK);
                self.validx.unpack_into(k, &mut lane[..n]);
                let cols = &self.col_idx[k..k + n];
                let mut i = 0usize;
                while i + 4 <= n {
                    a0 += self.dict[lane[i] as usize] * v[cols[i] as usize];
                    a1 += self.dict[lane[i + 1] as usize] * v[cols[i + 1] as usize];
                    a2 += self.dict[lane[i + 2] as usize] * v[cols[i + 2] as usize];
                    a3 += self.dict[lane[i + 3] as usize] * v[cols[i + 3] as usize];
                    i += 4;
                }
                while i < n {
                    a0 += self.dict[lane[i] as usize] * v[cols[i] as usize];
                    i += 1;
                }
                k += n;
            }
            *o = (a0 + a1) + (a2 + a3);
        }
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, _: &mut ExecScratch) {
        toc_linalg::dense::reset_vec(out, self.cols);
        let mut lane = [0u32; IDX_CHUNK];
        for (r, &w) in v.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let (s, e) = self.row_range(r);
            let mut k = s;
            while k < e {
                let n = (e - k).min(IDX_CHUNK);
                self.validx.unpack_into(k, &mut lane[..n]);
                let cols = &self.col_idx[k..k + n];
                for i in 0..n {
                    out[cols[i] as usize] += w * self.dict[lane[i] as usize];
                }
                k += n;
            }
        }
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, _: &mut ExecScratch) {
        out.reset(self.rows, m.cols());
        let mut lane = [0u32; IDX_CHUNK];
        for r in 0..self.rows {
            let (s, e) = self.row_range(r);
            let orow = out.row_mut(r);
            let mut k = s;
            while k < e {
                let n = (e - k).min(IDX_CHUNK);
                self.validx.unpack_into(k, &mut lane[..n]);
                let cols = &self.col_idx[k..k + n];
                for i in 0..n {
                    let val = self.dict[lane[i] as usize];
                    let mrow = m.row(cols[i] as usize);
                    for (o, &b) in orow.iter_mut().zip(mrow) {
                        *o += val * b;
                    }
                }
                k += n;
            }
        }
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, _: &mut ExecScratch) {
        out.reset(m.rows(), self.cols);
        let mut lane = [0u32; IDX_CHUNK];
        for q in 0..m.rows() {
            let mrow = m.row(q);
            let orow = out.row_mut(q);
            for (r, &w) in mrow.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let (s, e) = self.row_range(r);
                let mut k = s;
                while k < e {
                    let n = (e - k).min(IDX_CHUNK);
                    self.validx.unpack_into(k, &mut lane[..n]);
                    let cols = &self.col_idx[k..k + n];
                    for i in 0..n {
                        orow[cols[i] as usize] += w * self.dict[lane[i] as usize];
                    }
                    k += n;
                }
            }
        }
    }
    fn scale(&mut self, c: f64) {
        for v in &mut self.dict {
            *v *= c;
        }
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, _: &mut ExecScratch) {
        out.reset(self.rows, self.cols);
        let mut lane = [0u32; IDX_CHUNK];
        for r in 0..self.rows {
            let (s, e) = self.row_range(r);
            let orow = out.row_mut(r);
            let mut k = s;
            while k < e {
                let n = (e - k).min(IDX_CHUNK);
                self.validx.unpack_into(k, &mut lane[..n]);
                let cols = &self.col_idx[k..k + n];
                for i in 0..n {
                    orow[cols[i] as usize] = self.dict[lane[i] as usize];
                }
                k += n;
            }
        }
    }
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![Scheme::Cvi.tag()];
        put_u32(&mut out, self.rows as u32);
        put_u32(&mut out, self.cols as u32);
        put_u32s(&mut out, &self.offsets);
        put_u32s(&mut out, &self.col_idx);
        put_u32s(&mut out, &self.validx.to_u32s());
        put_f64s(&mut out, &self.dict);
        out
    }
}

/// DVI: dense grid of value indexes plus a dictionary (zeros included).
#[derive(Clone, Debug, PartialEq)]
pub struct DviBatch {
    rows: usize,
    cols: usize,
    validx: IdxStore,
    dict: Vec<f64>,
}

impl DviBatch {
    pub fn encode(dense: &DenseMatrix) -> Self {
        let (dict, validx) = build_dict(dense.data().iter().copied());
        let validx = IdxStore::from_u32s(validx, dict.len());
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            validx,
            dict,
        }
    }

    /// Pre-chunking scalar reference decode (see [`CviBatch`] note).
    #[doc(hidden)]
    pub fn decode_into_scalar(&self, out: &mut DenseMatrix) {
        out.reset(self.rows, self.cols);
        for (k, o) in out.data_mut().iter_mut().enumerate() {
            *o = self.dict[self.validx.get(k)];
        }
    }

    #[doc(hidden)]
    pub fn matvec_into_scalar(&self, v: &[f64], out: &mut Vec<f64>) {
        toc_linalg::dense::reset_vec(out, self.rows);
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, &x) in v.iter().enumerate() {
                acc += self.dict[self.validx.get(r * self.cols + c)] * x;
            }
            *o = acc;
        }
    }

    pub fn from_body(body: &[u8]) -> Result<Self, FormatError> {
        let mut rd = Rd::new(body);
        let rows = rd.u32()? as usize;
        let cols = rd.u32()? as usize;
        let validx = rd.u32s()?;
        let dict = rd.f64s()?;
        rd.done()?;
        // Checked: the wire-supplied shape product can overflow on
        // corrupted headers (debug-panic otherwise).
        if rows.checked_mul(cols) != Some(validx.len())
            || validx.iter().any(|&i| i as usize >= dict.len().max(1))
        {
            return Err(FormatError::Corrupt("DVI section mismatch".into()));
        }
        let validx = IdxStore::from_u32s(validx, dict.len());
        // A zero-area matrix leaves the other dimension unconstrained by
        // the index count (the body is header-only for any claimed
        // value), so a byte-proportional bound would reject legitimate
        // degenerate batches. Cap it generously instead, so a corrupted
        // header can't claim 2^32 rows/cols and drive the first
        // kernel-output allocation into an abort.
        if (rows == 0 || cols == 0) && rows.max(cols) > crate::MAX_DEGENERATE_DIM {
            return Err(FormatError::Corrupt("implausible DVI shape".into()));
        }
        Ok(Self {
            rows,
            cols,
            validx,
            dict,
        })
    }
}

impl MatrixBatch for DviBatch {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn size_bytes(&self) -> usize {
        dvi_size_bytes(self.validx.len(), self.dict.len())
    }
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, _: &mut ExecScratch) {
        toc_linalg::dense::reset_vec(out, self.rows);
        let mut lane = [0u32; IDX_CHUNK];
        for (r, o) in out.iter_mut().enumerate() {
            let base = r * self.cols;
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
            let mut c = 0usize;
            while c < self.cols {
                let n = (self.cols - c).min(IDX_CHUNK);
                self.validx.unpack_into(base + c, &mut lane[..n]);
                let vs = &v[c..c + n];
                let mut i = 0usize;
                while i + 4 <= n {
                    a0 += self.dict[lane[i] as usize] * vs[i];
                    a1 += self.dict[lane[i + 1] as usize] * vs[i + 1];
                    a2 += self.dict[lane[i + 2] as usize] * vs[i + 2];
                    a3 += self.dict[lane[i + 3] as usize] * vs[i + 3];
                    i += 4;
                }
                while i < n {
                    a0 += self.dict[lane[i] as usize] * vs[i];
                    i += 1;
                }
                c += n;
            }
            *o = (a0 + a1) + (a2 + a3);
        }
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, _: &mut ExecScratch) {
        toc_linalg::dense::reset_vec(out, self.cols);
        let mut lane = [0u32; IDX_CHUNK];
        for (r, &w) in v.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let base = r * self.cols;
            let mut c = 0usize;
            while c < self.cols {
                let n = (self.cols - c).min(IDX_CHUNK);
                self.validx.unpack_into(base + c, &mut lane[..n]);
                for (o, &idx) in out[c..c + n].iter_mut().zip(&lane[..n]) {
                    *o += w * self.dict[idx as usize];
                }
                c += n;
            }
        }
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, _: &mut ExecScratch) {
        out.reset(self.rows, m.cols());
        let mut lane = [0u32; IDX_CHUNK];
        for r in 0..self.rows {
            let base = r * self.cols;
            let orow = out.row_mut(r);
            let mut c = 0usize;
            while c < self.cols {
                let n = (self.cols - c).min(IDX_CHUNK);
                self.validx.unpack_into(base + c, &mut lane[..n]);
                for (i, &idx) in lane[..n].iter().enumerate() {
                    let val = self.dict[idx as usize];
                    if val == 0.0 {
                        continue;
                    }
                    let mrow = m.row(c + i);
                    for (o, &b) in orow.iter_mut().zip(mrow) {
                        *o += val * b;
                    }
                }
                c += n;
            }
        }
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, _: &mut ExecScratch) {
        out.reset(m.rows(), self.cols);
        let mut lane = [0u32; IDX_CHUNK];
        for q in 0..m.rows() {
            let mrow = m.row(q);
            let orow = out.row_mut(q);
            for (r, &w) in mrow.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let base = r * self.cols;
                let mut c = 0usize;
                while c < self.cols {
                    let n = (self.cols - c).min(IDX_CHUNK);
                    self.validx.unpack_into(base + c, &mut lane[..n]);
                    for (o, &idx) in orow[c..c + n].iter_mut().zip(&lane[..n]) {
                        *o += w * self.dict[idx as usize];
                    }
                    c += n;
                }
            }
        }
    }
    fn scale(&mut self, c: f64) {
        for v in &mut self.dict {
            *v *= c;
        }
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, _: &mut ExecScratch) {
        out.reset(self.rows, self.cols);
        self.validx.gather_into(&self.dict, 0, out.data_mut());
    }
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![Scheme::Dvi.tag()];
        put_u32(&mut out, self.rows as u32);
        put_u32(&mut out, self.cols as u32);
        put_u32s(&mut out, &self.validx.to_u32s());
        put_f64s(&mut out, &self.dict);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(vec![
            vec![1.5, 0.0, 2.5, 1.5],
            vec![0.0, 1.5, 0.0, 0.0],
            vec![2.5, 0.0, 1.5, 2.5],
        ])
    }

    #[test]
    fn idx_width_boundaries() {
        assert_eq!(idx_width(0), 1);
        assert_eq!(idx_width(1), 1);
        assert_eq!(idx_width(256), 1);
        assert_eq!(idx_width(257), 2);
        assert_eq!(idx_width(65536), 2);
        assert_eq!(idx_width(65537), 3);
    }

    #[test]
    fn cvi_roundtrip_and_kernels() {
        let a = sample();
        let b = CviBatch::encode(&a);
        assert_eq!(b.decode(), a);
        let restored = CviBatch::from_body(&b.to_bytes()[1..]).unwrap();
        assert_eq!(restored, b);
        let v = [1.0, -1.0, 0.5, 2.0];
        assert_eq!(b.matvec(&v), a.matvec(&v));
        let w = [0.5, 1.0, -2.0];
        assert_eq!(b.vecmat(&w), a.vecmat(&w));
    }

    #[test]
    fn dvi_roundtrip_and_kernels() {
        let a = sample();
        let b = DviBatch::encode(&a);
        assert_eq!(b.decode(), a);
        let restored = DviBatch::from_body(&b.to_bytes()[1..]).unwrap();
        assert_eq!(restored, b);
        let v = [1.0, -1.0, 0.5, 2.0];
        assert_eq!(b.matvec(&v), a.matvec(&v));
        let w = [0.5, 1.0, -2.0];
        assert_eq!(b.vecmat(&w), a.vecmat(&w));
        let m = DenseMatrix::from_rows(vec![
            vec![1.0, 0.0],
            vec![2.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ]);
        assert_eq!(b.matmat(&m), a.matmat(&m));
        let ml = DenseMatrix::from_rows(vec![vec![1.0, 0.0, 1.0], vec![0.0, 2.0, 0.0]]);
        assert_eq!(b.matmat_left(&ml), a.matmat_left(&ml));
    }

    #[test]
    fn scale_only_touches_dict() {
        let a = sample();
        let mut cvi = CviBatch::encode(&a);
        let mut dvi = DviBatch::encode(&a);
        cvi.scale(3.0);
        dvi.scale(3.0);
        let mut want = a;
        want.scale(3.0);
        assert_eq!(cvi.decode(), want);
        assert_eq!(dvi.decode(), want);
    }

    #[test]
    fn dvi_smaller_than_den_with_few_values() {
        let a = sample();
        let dvi = DviBatch::encode(&a);
        assert!(dvi.size_bytes() < a.den_size_bytes());
    }

    #[test]
    fn chunked_and_scalar_kernels_agree_across_widths() {
        // 700 distinct values → W2 index store; 600 cols → several scratch
        // chunks per row. All values are dyadic rationals of small
        // magnitude, so every kernel's arithmetic is exact and the chunked
        // and scalar paths must agree bit-for-bit.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|r| {
                (0..600)
                    .map(|c| ((r * 600 + c) % 700) as f64 * 0.25)
                    .collect()
            })
            .collect();
        let a = DenseMatrix::from_rows(rows);
        let v: Vec<f64> = (0..600).map(|i| (i % 13) as f64 - 6.0).collect();
        let (cvi, dvi) = (CviBatch::encode(&a), DviBatch::encode(&a));
        assert!(matches!(cvi.validx, IdxStore::W2(_)));
        let (mut fast, mut slow) = (DenseMatrix::default(), DenseMatrix::default());
        let ws = &mut ExecScratch::default();
        cvi.decode_into_ws(&mut fast, ws);
        cvi.decode_into_scalar(&mut slow);
        assert_eq!(fast, slow);
        dvi.decode_into_ws(&mut fast, ws);
        dvi.decode_into_scalar(&mut slow);
        assert_eq!(fast, slow);
        assert_eq!(fast, a);
        let (mut fv, mut sv) = (Vec::new(), Vec::new());
        cvi.matvec_into_ws(&v, &mut fv, ws);
        cvi.matvec_into_scalar(&v, &mut sv);
        assert_eq!(fv, sv);
        dvi.matvec_into_ws(&v, &mut fv, ws);
        dvi.matvec_into_scalar(&v, &mut sv);
        assert_eq!(fv, sv);
    }

    #[test]
    fn wide_dictionary_uses_full_width_store() {
        // 72900 distinct values pushes the dictionary past 2^16 entries,
        // exercising the widest store and its serialization round-trip.
        let rows: Vec<Vec<f64>> = (0..270)
            .map(|r| (0..270).map(|c| (r * 270 + c) as f64 + 0.5).collect())
            .collect();
        let a = DenseMatrix::from_rows(rows);
        let dvi = DviBatch::encode(&a);
        assert!(matches!(dvi.validx, IdxStore::W4(_)));
        assert_eq!(dvi.decode(), a);
        let restored = DviBatch::from_body(&dvi.to_bytes()[1..]).unwrap();
        assert_eq!(restored, dvi);
    }

    #[test]
    fn corrupt_bodies_error() {
        let a = sample();
        let cb = CviBatch::encode(&a).to_bytes();
        assert!(CviBatch::from_body(&cb[1..cb.len() - 3]).is_err());
        let db = DviBatch::encode(&a).to_bytes();
        assert!(DviBatch::from_body(&db[1..db.len() - 3]).is_err());
    }
}
