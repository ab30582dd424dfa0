//! GC formats (§5 methods 6–7): the serialized DEN bytes compressed with a
//! general-purpose byte codec (Snappy*/Gzip* from [`toc_gc`]).
//!
//! The defining property (Figure 1B): **every** matrix operation must fully
//! decompress the mini-batch first. These wrappers implement the ops as
//! decompress-then-dense so the decompression overhead the paper measures is
//! incurred on each call, exactly as in their experiment harness.

use crate::wire::{put_u32, Rd};
use crate::{ExecScratch, FormatError, MatrixBatch, Scheme};
use toc_gc::Codec;
use toc_linalg::DenseMatrix;

/// A mini-batch stored as general-compressed DEN bytes.
#[derive(Clone, Debug)]
pub struct GcBatch {
    codec: Codec,
    rows: usize,
    cols: usize,
    payload: Vec<u8>,
}

impl GcBatch {
    pub fn encode(dense: &DenseMatrix, codec: Codec) -> Self {
        Self::compress_den(dense, &Self::den_bytes(dense), codec)
    }

    /// What every GC codec compresses: the raw row-major doubles (the DEN
    /// payload without tag).
    pub(crate) fn den_bytes(dense: &DenseMatrix) -> Vec<u8> {
        let mut den = Vec::with_capacity(dense.data().len() * 8);
        for v in dense.data() {
            den.extend_from_slice(&v.to_le_bytes());
        }
        den
    }

    /// [`Self::encode`] given `den`, the [`Self::den_bytes`] of `dense`:
    /// selection serialises a chunk once for all the codecs it probes.
    pub(crate) fn compress_den(dense: &DenseMatrix, den: &[u8], codec: Codec) -> Self {
        Self {
            codec,
            rows: dense.rows(),
            cols: dense.cols(),
            payload: codec.compress(den),
        }
    }

    /// No Snappy* batch of `den_len` DEN bytes has a smaller
    /// [`MatrixBatch::size_bytes`]: see [`toc_gc::fastlz::min_compressed_len`].
    pub(crate) fn snappy_size_floor(den_len: usize) -> usize {
        16 + toc_gc::fastlz::min_compressed_len(den_len)
    }

    pub fn from_body(body: &[u8], codec: Codec) -> Result<Self, FormatError> {
        let mut rd = Rd::new(body);
        let rows = rd.u32()? as usize;
        let cols = rd.u32()? as usize;
        let payload = rd.rest().to_vec();
        let batch = Self {
            codec,
            rows,
            cols,
            payload,
        };
        // Validate eagerly so corrupt batches surface at load time.
        batch.try_decode()?;
        Ok(batch)
    }

    /// Decompress to dense, with errors surfaced (decode() panics on
    /// corruption, which cannot happen for validated/internally built
    /// batches).
    pub fn try_decode(&self) -> Result<DenseMatrix, FormatError> {
        let mut staging = Vec::new();
        let mut out = DenseMatrix::default();
        self.try_decode_staged(&mut staging, &mut out)?;
        Ok(out)
    }

    /// Decompress into caller-owned buffers: `staging` receives the raw
    /// decompressed DEN payload, `out` the decoded matrix. Both reuse
    /// their allocations across calls — the GC-decode staging path of the
    /// workspace API.
    pub fn try_decode_staged(
        &self,
        staging: &mut Vec<u8>,
        out: &mut DenseMatrix,
    ) -> Result<(), FormatError> {
        self.codec.decompress_into(&self.payload, staging)?;
        // Checked: `rows`/`cols` come from the wire, so the product can
        // overflow (debug-panic) on corrupted headers.
        let want = self
            .rows
            .checked_mul(self.cols)
            .and_then(|c| c.checked_mul(8));
        if want != Some(staging.len()) {
            return Err(FormatError::Corrupt("GC payload shape mismatch".into()));
        }
        out.reset(self.rows, self.cols);
        for (o, c) in out.data_mut().iter_mut().zip(staging.chunks_exact(8)) {
            *o = f64::from_le_bytes(c.try_into().unwrap());
        }
        Ok(())
    }

    /// [`Self::try_decode_staged`] for internally built batches (panics on
    /// corruption, which cannot happen for those).
    fn decode_staged(&self, staging: &mut Vec<u8>, out: &mut DenseMatrix) {
        self.try_decode_staged(staging, out)
            .expect("internally built GC batch must decode")
    }

    /// Which codec this batch uses.
    pub fn codec(&self) -> Codec {
        self.codec
    }
}

impl MatrixBatch for GcBatch {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn size_bytes(&self) -> usize {
        16 + self.payload.len()
    }
    // Every GC op must fully decompress first (the defining property the
    // paper measures); the decompression staging and the decoded matrix
    // live in the caller's scratch, but Gzip* and GC-ANS still build
    // their decode tables on every call, so GC's per-op decode allocates
    // in steady state (ROADMAP item 17).
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        self.decode_staged(&mut ws.gc_bytes, &mut ws.gc_dense);
        ws.gc_dense.matvec_into(v, out);
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        self.decode_staged(&mut ws.gc_bytes, &mut ws.gc_dense);
        ws.gc_dense.vecmat_into(v, out);
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.decode_staged(&mut ws.gc_bytes, &mut ws.gc_dense);
        ws.gc_dense.matmat_into(m, out);
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.decode_staged(&mut ws.gc_bytes, &mut ws.gc_dense);
        ws.gc_dense.matmat_left_into(m, out);
    }
    fn reserve_scratch(&self, p: usize, ws: &mut ExecScratch) {
        let bytes = self.rows * self.cols * 8;
        ws.gc_bytes.reserve(bytes.saturating_sub(ws.gc_bytes.len()));
        ws.gc_dense.reserve(self.rows, self.cols);
        ws.t_in.reserve(p, self.rows);
        ws.t_out.reserve(p, self.cols);
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        self.decode_staged(&mut ws.gc_bytes, out)
    }
    fn scale(&mut self, c: f64) {
        // Decompress, scale, recompress — GC has no in-place path.
        let mut d = self.decode();
        d.scale(c);
        *self = Self::encode(&d, self.codec);
    }
    fn to_bytes(&self) -> Vec<u8> {
        let tag = match self.codec {
            Codec::FastLz => Scheme::Snappy.tag(),
            Codec::Deflate => Scheme::Gzip.tag(),
            Codec::Ans => Scheme::GcAns.tag(),
        };
        let mut out = vec![tag];
        put_u32(&mut out, self.rows as u32);
        put_u32(&mut out, self.cols as u32);
        out.extend_from_slice(&self.payload);
        out
    }
}

impl PartialEq for GcBatch {
    fn eq(&self, other: &Self) -> bool {
        self.codec == other.codec
            && self.rows == other.rows
            && self.cols == other.cols
            && self.payload == other.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        let mut m = DenseMatrix::zeros(50, 40);
        for r in 0..50 {
            for c in 0..40 {
                if (r + c) % 3 == 0 {
                    m.set(r, c, ((r % 4) as f64) + 0.5);
                }
            }
        }
        m
    }

    #[test]
    fn roundtrip_both_codecs() {
        let a = sample();
        for codec in [Codec::FastLz, Codec::Deflate] {
            let b = GcBatch::encode(&a, codec);
            assert_eq!(b.decode(), a);
            let bytes = b.to_bytes();
            let restored = GcBatch::from_body(&bytes[1..], codec).unwrap();
            assert_eq!(restored, b);
        }
    }

    #[test]
    fn compresses_redundant_den_bytes() {
        let a = sample();
        for codec in [Codec::FastLz, Codec::Deflate] {
            let b = GcBatch::encode(&a, codec);
            assert!(b.size_bytes() < a.den_size_bytes() / 2, "{codec:?}");
        }
    }

    #[test]
    fn ops_match_dense_via_decompression() {
        let a = sample();
        let b = GcBatch::encode(&a, Codec::Deflate);
        let v: Vec<f64> = (0..40).map(|i| (i % 5) as f64).collect();
        assert_eq!(b.matvec(&v), a.matvec(&v));
        let w: Vec<f64> = (0..50).map(|i| (i % 7) as f64 - 3.0).collect();
        assert_eq!(b.vecmat(&w), a.vecmat(&w));
    }

    #[test]
    fn scale_roundtrips_through_recompression() {
        let a = sample();
        let mut b = GcBatch::encode(&a, Codec::FastLz);
        b.scale(2.0);
        let mut want = a;
        want.scale(2.0);
        assert_eq!(b.decode(), want);
    }

    #[test]
    fn corrupt_payload_rejected_at_load() {
        let a = sample();
        let mut bytes = GcBatch::encode(&a, Codec::Deflate).to_bytes();
        let n = bytes.len();
        bytes.truncate(n - 5);
        assert!(GcBatch::from_body(&bytes[1..], Codec::Deflate).is_err());
    }

    #[test]
    fn den_baseline_still_bigger() {
        // Sanity: DenBatch::size_bytes is the ratio denominator.
        let a = sample();
        let den = crate::den::DenBatch::encode(&a);
        let gz = GcBatch::encode(&a, Codec::Deflate);
        assert!(den.size_bytes() > gz.size_bytes());
    }
}
