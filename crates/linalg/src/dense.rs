//! Row-major dense matrix used as the uncompressed reference representation
//! (the paper's DEN format stores exactly this, row by row, as IEEE-754
//! doubles).

use rand::Rng;

/// A row-major dense matrix of `f64`.
///
/// This is the uncompressed "ground truth" representation. Every compressed
/// format in the workspace encodes from and decodes back to a `DenseMatrix`,
/// and all compressed kernels are checked against the reference kernels
/// implemented here.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for DenseMatrix {
    /// An empty `0 × 0` matrix — the natural initial state of a reusable
    /// output buffer for the `*_into` kernels.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl std::fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(12)])?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl DenseMatrix {
    /// Create a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Build from per-row vectors. All rows must have equal length.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in &rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Matrix filled with uniform random values in `[lo, hi)`.
    pub fn random<R: Rng>(rng: &mut R, rows: usize, cols: usize, lo: f64, hi: f64) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and recover its flat row-major buffer, so a
    /// staging workspace can wrap its buffer in a matrix for one encode
    /// and take the allocation back afterwards.
    #[inline]
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Fraction of non-zero entries (the paper's "sparsity" in Table 5).
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let nnz = self.data.iter().filter(|v| **v != 0.0).count();
        nnz as f64 / self.data.len() as f64
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Select a contiguous row range `[start, end)` as a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> DenseMatrix {
        assert!(start <= end && end <= self.rows);
        DenseMatrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gather the given rows (by index) into a new matrix.
    pub fn gather_rows(&self, idx: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Reshape this matrix to `rows × cols` with all elements zeroed,
    /// reusing the existing allocation when it is large enough. This is the
    /// primitive behind every caller-owned output buffer in the `*_into`
    /// kernel family.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Grow the capacity to a `rows × cols` matrix's, leaving the shape
    /// and the values as they are: a later [`Self::reset`] to that shape
    /// allocates nothing.
    pub fn reserve(&mut self, rows: usize, cols: usize) {
        self.data
            .reserve((rows * cols).saturating_sub(self.data.len()));
    }

    /// Columns `range` of `self` into `out`, reshaped to `rows ×
    /// range.len()` (no allocation once `out` has held that many values).
    pub fn columns_into(&self, range: std::ops::Range<usize>, out: &mut DenseMatrix) {
        assert!(range.end <= self.cols, "column range out of bounds");
        (out.rows, out.cols) = (self.rows, range.len());
        out.data.clear();
        for r in 0..self.rows {
            out.data.extend_from_slice(&self.row(r)[range.clone()]);
        }
    }

    /// Overwrite `self`'s columns `col0..col0 + src.cols()` with `src`.
    pub fn set_columns(&mut self, col0: usize, src: &DenseMatrix) {
        assert_eq!(self.rows, src.rows, "set_columns row mismatch");
        for r in 0..self.rows {
            self.row_mut(r)[col0..col0 + src.cols].copy_from_slice(src.row(r));
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-owned matrix (reshaped as needed).
    ///
    /// Walks 8×8 tiles: a tile's source and destination lines both stay
    /// in cache, where a row-by-row walk stores one element per line of
    /// the destination and has lost the line by the time it comes back.
    pub fn transpose_into(&self, out: &mut DenseMatrix) {
        const TILE: usize = 8;
        out.reset(self.cols, self.rows);
        for r0 in (0..self.rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(self.rows);
            for c0 in (0..self.cols).step_by(TILE) {
                let c1 = (c0 + TILE).min(self.cols);
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
    }

    /// Reference kernel: `A · v` (matrix times column vector).
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.matvec_into(v, &mut out);
        out
    }

    /// `A · v` into a caller-owned buffer (resized as needed).
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        reset_vec(out, self.rows);
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v) {
                acc += a * b;
            }
            *o = acc;
        }
    }

    /// Reference kernel: `v · A` (row vector times matrix).
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.vecmat_into(v, &mut out);
        out
    }

    /// `v · A` into a caller-owned buffer (resized as needed).
    pub fn vecmat_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows, "vecmat dimension mismatch");
        reset_vec(out, self.cols);
        for (r, &w) in v.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(self.row(r)) {
                *o += w * a;
            }
        }
    }

    /// Reference kernel: `A · M`.
    pub fn matmat(&self, m: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(0, 0);
        self.matmat_into(m, &mut out);
        out
    }

    /// `A · M` into a caller-owned matrix (reshaped as needed).
    pub fn matmat_into(&self, m: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols, m.rows, "matmat dimension mismatch");
        out.reset(self.rows, m.cols);
        for r in 0..self.rows {
            let arow = &self.data[r * self.cols..(r + 1) * self.cols];
            // i-k-j loop order keeps both inner accesses sequential.
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let mrow = m.row(k);
                let orow = out.row_mut(r);
                for (o, &b) in orow.iter_mut().zip(mrow) {
                    *o += a * b;
                }
            }
        }
    }

    /// Reference kernel: `M · A` where `self` is `A` (returns `M · A`).
    pub fn matmat_left(&self, m: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(0, 0);
        self.matmat_left_into(m, &mut out);
        out
    }

    /// `M · A` into a caller-owned matrix (reshaped as needed).
    pub fn matmat_left_into(&self, m: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(m.cols, self.rows, "matmat_left dimension mismatch");
        out.reset(m.rows, self.cols);
        for r in 0..m.rows {
            let mrow = m.row(r);
            for (k, &w) in mrow.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let arow = self.row(k);
                let orow = out.row_mut(r);
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o += w * a;
                }
            }
        }
    }

    /// `Aᵀ · M` into a caller-owned matrix (reshaped as needed), where
    /// `self` is `A`: bit for bit `A.transpose().matmat(m)`, without the
    /// transpose. Each output element sums over `k` ascending and skips a
    /// zero `A[k][i]`, as [`Self::matmat_into`] does.
    pub fn matmat_t_into(&self, m: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.rows, m.rows, "matmat_t dimension mismatch");
        out.reset(self.cols, m.cols);
        for k in 0..self.rows {
            let mrow = m.row(k);
            for (i, &a) in self.row(k).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out.row_mut(i).iter_mut().zip(mrow) {
                    *o += a * b;
                }
            }
        }
    }

    /// Element-wise scale by `c` (sparse-safe in the paper's terms).
    pub fn scale(&mut self, c: f64) {
        for v in &mut self.data {
            *v *= c;
        }
    }

    /// Element-wise add `c` (sparse-unsafe).
    pub fn add_scalar(&self, c: f64) -> DenseMatrix {
        let data = self.data.iter().map(|v| v + c).collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise sum with another matrix of identical shape.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Max absolute element difference; used by tests as a tolerance metric.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Serialized size in bytes of the DEN representation (8 bytes/element
    /// plus the 16-byte shape header). This is the denominator of every
    /// compression ratio reported in the paper.
    pub fn den_size_bytes(&self) -> usize {
        16 + 8 * self.data.len()
    }
}

/// Clear and zero-fill a caller-owned output vector to length `n`,
/// reusing its allocation (the `Vec<f64>` counterpart of
/// [`DenseMatrix::reset`]).
#[inline]
pub fn reset_vec(out: &mut Vec<f64>, n: usize) {
    out.clear();
    out.resize(n, 0.0);
}

/// Max absolute difference between two vectors (test helper).
pub fn max_abs_diff_vec(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let m = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        DenseMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = DenseMatrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![0.0, -1.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 3.0]);
    }

    #[test]
    fn vecmat_matches_manual() {
        let m = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.vecmat(&[1.0, 2.0]), vec![7.0, 10.0]);
    }

    #[test]
    fn matmat_matches_transpose_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = DenseMatrix::random(&mut rng, 5, 4, -1.0, 1.0);
        let id = {
            let mut m = DenseMatrix::zeros(4, 4);
            for i in 0..4 {
                m.set(i, i, 1.0);
            }
            m
        };
        let prod = a.matmat(&id);
        assert_eq!(prod, a);
    }

    #[test]
    fn matmat_left_agrees_with_transposed_matmat() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = DenseMatrix::random(&mut rng, 6, 5, -2.0, 2.0);
        let m = DenseMatrix::random(&mut rng, 3, 6, -2.0, 2.0);
        // (M·A)ᵀ = Aᵀ·Mᵀ
        let left = a.matmat_left(&m);
        let via_t = a.transpose().matmat(&m.transpose()).transpose();
        assert!(left.max_abs_diff(&via_t) < 1e-12);
    }

    #[test]
    fn matmat_t_is_transposed_matmat_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(4);
        for (n, h, p) in [(7, 5, 3), (1, 1, 1), (0, 4, 2), (9, 3, 0)] {
            let mut a = DenseMatrix::random(&mut rng, n, h, -2.0, 2.0);
            let m = DenseMatrix::random(&mut rng, n, p, -2.0, 2.0);
            // Zeros, a negative zero and a non-finite value: the skip has
            // to be the same skip.
            for (i, x) in a.data_mut().iter_mut().enumerate() {
                match i % 5 {
                    0 => *x = 0.0,
                    1 if i % 3 == 0 => *x = -0.0,
                    2 if i % 7 == 0 => *x = f64::INFINITY,
                    _ => {}
                }
            }
            let mut got = DenseMatrix::from_vec(1, 1, vec![9.0]);
            a.matmat_t_into(&m, &mut got);
            let want = a.transpose().matmat(&m);
            assert_eq!((got.rows(), got.cols()), (h, p));
            for (g, w) in got.data().iter().zip(want.data()) {
                assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()));
            }
        }
    }

    #[test]
    fn transpose_moves_every_element_for_any_tiling_remainder() {
        // Multiples of the tile, remainders on either side, one tile
        // short, and no rows at all.
        for (rows, cols) in [(8, 16), (3, 5), (11, 29), (32, 7), (1, 9), (0, 4), (4, 0)] {
            let a = DenseMatrix::from_vec(
                rows,
                cols,
                (0..rows * cols).map(|i| i as f64 + 0.5).collect(),
            );
            // Into a buffer that held another shape before.
            let mut t = DenseMatrix::from_vec(2, 3, vec![9.0; 6]);
            a.transpose_into(&mut t);
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), a.get(r, c), "{rows}x{cols} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn density_and_nnz() {
        let m = DenseMatrix::from_rows(vec![vec![0.0, 1.0], vec![2.0, 0.0]]);
        assert_eq!(m.nnz(), 2);
        assert!((m.density() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn slice_and_gather_rows() {
        let m = DenseMatrix::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        assert_eq!(m.slice_rows(1, 3).data(), &[2.0, 3.0]);
        assert_eq!(m.gather_rows(&[2, 0]).data(), &[3.0, 1.0]);
    }

    #[test]
    fn scale_and_add_scalar() {
        let mut m = DenseMatrix::from_rows(vec![vec![1.0, -2.0]]);
        m.scale(3.0);
        assert_eq!(m.data(), &[3.0, -6.0]);
        assert_eq!(m.add_scalar(1.0).data(), &[4.0, -5.0]);
    }

    #[test]
    fn den_size_matches_formula() {
        let m = DenseMatrix::zeros(10, 3);
        assert_eq!(m.den_size_bytes(), 16 + 8 * 30);
    }
}
