#![forbid(unsafe_code)]
//! # toc-formats — every mini-batch encoding the paper compares
//!
//! A single [`MatrixBatch`] trait unifies the eight encoding schemes of the
//! paper's evaluation (§5, "Compared Methods") plus the TOC ablation
//! variants, so the MGD engine, the experiment harness and the correctness
//! oracles are format-agnostic:
//!
//! | Scheme | Module | Compressed execution? |
//! |--------|--------|----------------------|
//! | DEN — dense IEEE-754 doubles            | [`den`] | n/a (uncompressed) |
//! | CSR — compressed sparse row             | [`csr`] | yes |
//! | CVI — CSR + value indexing              | [`cvi`] | yes |
//! | DVI — DEN + value indexing              | [`cvi`] | yes |
//! | CLA — co-coded column groups (simplified [Elgohary et al. 2016]) | [`cla`] | yes |
//! | Snappy* — fast-LZ over DEN bytes        | [`gcform`] | no: full decompression first |
//! | Gzip* — deflate over DEN bytes          | [`gcform`] | no: full decompression first |
//! | ANS — tabled rANS over DEN bytes        | [`gcform`] | no: full decompression first |
//! | TOC (full / ablations / varint)         | [`tocform`] | yes |

pub mod cla;
pub mod container;
pub mod csr;
pub mod cvi;
pub mod den;
pub mod gcform;
pub mod tocform;
mod values;

pub use cla::ClaOptions;

use toc_core::hash::{value_key, FxHashMap};
use toc_linalg::DenseMatrix;
use values::ColumnValues;

/// Per-scheme encoding knobs, threaded from the CLI / store down to the
/// format encoders. `Default` preserves each scheme's standalone behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EncodeOptions {
    /// CLA co-coding planner options.
    pub cla: ClaOptions,
}

/// Error from deserializing a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Malformed bytes.
    Corrupt(String),
    /// The buffer encodes a different scheme than requested.
    WrongScheme { expected: &'static str, got: u8 },
    /// A container's batches disagree on column count. The header/footer
    /// carries a single `cols`, so a mixed-width container would serialize
    /// a wrong width for every batch after the first; the writer refuses.
    MixedCols {
        batch: usize,
        got: usize,
        expected: usize,
    },
    /// An underlying IO operation failed while streaming container
    /// bytes. Distinct from [`FormatError::Corrupt`] so a resume
    /// validator can tell a torn/truncated footer (resumable by
    /// truncating back to the checkpoint watermark) from a sink that is
    /// failing outright (not resumable until the IO fault clears).
    Io {
        /// What the writer was doing ("write segment", "flush", ...).
        op: &'static str,
        /// The OS error category.
        kind: std::io::ErrorKind,
        /// The formatted OS error.
        msg: String,
    },
    /// A row projection past the end of a container (or inverted).
    RowRange {
        start: usize,
        end: usize,
        rows: usize,
    },
}

impl FormatError {
    /// Wrap an IO failure from a container streaming operation.
    pub fn io(op: &'static str, e: std::io::Error) -> Self {
        FormatError::Io {
            op,
            kind: e.kind(),
            msg: e.to_string(),
        }
    }
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Corrupt(m) => write!(f, "corrupt batch: {m}"),
            FormatError::WrongScheme { expected, got } => {
                write!(f, "wrong scheme tag {got}, expected {expected}")
            }
            FormatError::MixedCols {
                batch,
                got,
                expected,
            } => {
                write!(
                    f,
                    "container batch {batch} has {got} cols, expected {expected}"
                )
            }
            FormatError::Io { op, msg, .. } => write!(f, "{op}: {msg}"),
            FormatError::RowRange { start, end, rows } => {
                write!(f, "row range {start}..{end} out of 0..{rows}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// For the `String` errors of the CLI boundary (and of row sinks).
impl From<FormatError> for String {
    fn from(e: FormatError) -> Self {
        e.to_string()
    }
}

impl From<toc_core::TocError> for FormatError {
    fn from(e: toc_core::TocError) -> Self {
        FormatError::Corrupt(e.to_string())
    }
}

impl From<toc_gc::GcError> for FormatError {
    fn from(e: toc_gc::GcError) -> Self {
        FormatError::Corrupt(e.to_string())
    }
}

/// Reusable format-level scratch for the workspace (`*_into_ws`) kernel
/// variants: staging buffers that some encodings need *inside* an
/// operation, owned by the caller so a steady-state training loop performs
/// no per-batch heap allocation.
///
/// * `gc_bytes` / `gc_dense` — the GC formats (Snappy*/Gzip*) must fully
///   decompress before any op; these stage the decompressed DEN payload
///   and the decoded matrix.
/// * `toc` — the TOC kernels need the batch's decode tree `C'` (the
///   matrix kernels also its live plan) and an `H`/`G` accumulator;
///   [`toc_core::KernelScratch`] owns them. A batch [`Scheme::from_bytes`]
///   parsed brings the tree its validation built; for an encoded one the
///   scratch keeps the tree of the batch it prepared last, keyed by the
///   batch's serial number (drawn at encode / parse, redrawn by `scale`).
///   Either way the kernels a step runs on one batch through one scratch
///   share one tree. A batch that holds its live plan
///   ([`toc_core::TocBatch::hold_plan`]; the store turns it on for the
///   resident TOC-family batches its budget's slack has room for) has its
///   matrix kernels run on that plan, filled once by the first of them, and
///   leaves the scratch's plan alone.
/// * `t_in` / `t_out` — the transposed operand and result of the provided
///   [`MatrixBatch::matmat_t_into_ws`] (`Aᵀ·D` as `(Dᵀ·A)ᵀ`).
/// * `cla` — the CLA kernels' per-DDC-group table (`A·v`, `A·M`) or
///   accumulator (`v·A`, `M·A`), one group at a time.
///
/// One instance serves any number of batches of any scheme and shape;
/// buffers grow to the high-water mark and are reused thereafter.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Decompressed DEN payload staging for the GC formats.
    pub gc_bytes: Vec<u8>,
    /// Decoded dense staging for ops that must decompress first.
    pub gc_dense: DenseMatrix,
    /// Decode tree and live plan of the TOC batch prepared last (a batch
    /// that holds its plan brings its own), plus accumulator scratch for
    /// the TOC kernels.
    pub toc: toc_core::KernelScratch,
    /// `Dᵀ`, staged by the provided `Aᵀ·D`.
    pub t_in: DenseMatrix,
    /// `Dᵀ·A`, staged by the provided `Aᵀ·D`.
    pub t_out: DenseMatrix,
    /// The per-group dictionary table or accumulator of the CLA kernels.
    pub cla: Vec<f64>,
}

/// A mini-batch in some (possibly compressed) encoding, supporting the core
/// matrix operations MGD needs (paper Table 1 / §4).
///
/// The trait exposes two kernel families:
///
/// 1. **Workspace kernels** (`*_into_ws`, required): write into
///    caller-owned buffers, which are cleared and refilled reusing their
///    allocations, and take an [`ExecScratch`] for the staging some
///    formats need *inside* an operation (GC decompression, the TOC
///    decode tree). These are the native implementations in every format
///    module; formats without staging needs ignore the scratch.
/// 2. **Allocating wrappers** (provided): `matvec(&self, v) -> Vec<f64>`
///    style, each one call of the workspace kernel over a throwaway
///    scratch and a fresh output.
///
/// One workspace kernel is provided: `Aᵀ·D`
/// ([`Self::matmat_t_into_ws`], the neural net's first-layer weight
/// gradient), by default `M·A` between two transposes staged in the
/// scratch. The TOC-family forms (TOC, TOC_SPARSE_AND_LOGICAL)
/// override it with Algorithm 8 run on `D` and the result as they lie,
/// bit for bit the default's result; [`AnyBatch`] dispatches it.
///
/// A batch is `Sync`: the neural net's step runs its first layer's
/// kernels on one batch from several threads at once, each thread with
/// its own [`ExecScratch`], which [`Self::reserve_scratch`] grows on the
/// thread that owns it before the others start.
pub trait MatrixBatch: Sync {
    /// Matrix rows.
    fn rows(&self) -> usize;
    /// Matrix columns.
    fn cols(&self) -> usize;
    /// In-memory/on-disk footprint of the encoding, in bytes.
    fn size_bytes(&self) -> usize;
    /// `A · v` into a caller-owned buffer.
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch);
    /// `v · A` into a caller-owned buffer.
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch);
    /// `A · M` into a caller-owned matrix.
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch);
    /// `M · A` into a caller-owned matrix.
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch);
    /// `Aᵀ · D` (`D` is `rows × p`, `out` becomes `cols × p`) into a
    /// caller-owned matrix. Provided as `(Dᵀ · A)ᵀ` through
    /// [`Self::matmat_left_into_ws`], staged in `ws.t_in` / `ws.t_out`, so
    /// it allocates nothing in steady state.
    fn matmat_t_into_ws(&self, d: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        let (mut d_t, mut out_t) = (std::mem::take(&mut ws.t_in), std::mem::take(&mut ws.t_out));
        d.transpose_into(&mut d_t);
        self.matmat_left_into_ws(&d_t, &mut out_t, ws);
        out_t.transpose_into(out);
        (ws.t_in, ws.t_out) = (d_t, out_t);
    }
    /// Grow, without writing them, the buffers of `ws` that
    /// [`Self::matmat_into_ws`] and [`Self::matmat_t_into_ws`] with a
    /// `p`-column operand fill, so that those kernels, run through `ws` on
    /// another thread afterwards, allocate nothing there. Provided for the
    /// staging of the provided `Aᵀ·D`; formats that stage more override it.
    fn reserve_scratch(&self, p: usize, ws: &mut ExecScratch) {
        ws.t_in.reserve(p, self.rows());
        ws.t_out.reserve(p, self.cols());
    }
    /// Full decode into a caller-owned matrix (sparse-unsafe operations
    /// route through this).
    fn decode_into_ws(&self, out: &mut DenseMatrix, ws: &mut ExecScratch);
    /// Decode only rows `r0..r1` into a caller-owned matrix (`out` gets
    /// `r1 - r0` rows). Row-range projection lands here so the seekable
    /// container can trim the partial segments at a query's edges; formats
    /// with cheap row access (DEN, the sparse-row family) override this,
    /// everything else decodes fully and copies the slice.
    fn decode_rows_into(&self, r0: usize, r1: usize, out: &mut DenseMatrix) {
        assert!(r0 <= r1 && r1 <= self.rows(), "row range out of bounds");
        let full = self.decode();
        out.reset(r1 - r0, self.cols());
        for r in r0..r1 {
            out.row_mut(r - r0).copy_from_slice(full.row(r));
        }
    }
    /// Sparse-safe element-wise `A .* c`, in place.
    fn scale(&mut self, c: f64);
    /// Serialize to bytes (scheme tag included).
    fn to_bytes(&self) -> Vec<u8>;

    // ---- Allocating wrappers ------------------------------------------

    /// `A · v`.
    fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.matvec_into_ws(v, &mut out, &mut ExecScratch::default());
        out
    }
    /// `v · A`.
    fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.vecmat_into_ws(v, &mut out, &mut ExecScratch::default());
        out
    }
    /// `A · M`.
    fn matmat(&self, m: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::default();
        self.matmat_into_ws(m, &mut out, &mut ExecScratch::default());
        out
    }
    /// `M · A`.
    fn matmat_left(&self, m: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::default();
        self.matmat_left_into_ws(m, &mut out, &mut ExecScratch::default());
        out
    }
    /// Full decode to dense.
    fn decode(&self) -> DenseMatrix {
        let mut out = DenseMatrix::default();
        self.decode_into_ws(&mut out, &mut ExecScratch::default());
        out
    }
}

/// The encoding schemes of the paper's evaluation, plus ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    Den,
    Csr,
    Cvi,
    Dvi,
    Cla,
    Snappy,
    Gzip,
    Toc,
    /// Ablation: sparse encoding only (Fig. 6/10 `TOC_SPARSE`).
    TocSparse,
    /// Ablation: sparse + logical encoding (Fig. 6/10
    /// `TOC_SPARSE_AND_LOGICAL`).
    TocSparseLogical,
    /// Extension: DEN bytes under the tabled rANS entropy coder
    /// ([`toc_gc::ans`]) — the modern-entropy-coding contrast to the
    /// paper's Snappy*/Gzip* GC baselines.
    GcAns,
}

impl Scheme {
    /// Every scheme tag — the paper set plus ablations and extensions.
    /// Test suites (conformance, fuzz, golden fixtures) iterate this, so
    /// a new variant added here is automatically covered everywhere.
    pub const ALL: [Scheme; 11] = [
        Scheme::Den,
        Scheme::Csr,
        Scheme::Cvi,
        Scheme::Dvi,
        Scheme::Cla,
        Scheme::Snappy,
        Scheme::Gzip,
        Scheme::Toc,
        Scheme::TocSparse,
        Scheme::TocSparseLogical,
        Scheme::GcAns,
    ];

    /// The seven compared methods of §5 plus TOC, in the paper's order.
    pub const PAPER_SET: [Scheme; 8] = [
        Scheme::Den,
        Scheme::Csr,
        Scheme::Cvi,
        Scheme::Dvi,
        Scheme::Cla,
        Scheme::Snappy,
        Scheme::Gzip,
        Scheme::Toc,
    ];

    /// The ablation set of Figures 6 and 10.
    pub const ABLATION_SET: [Scheme; 3] =
        [Scheme::TocSparse, Scheme::TocSparseLogical, Scheme::Toc];

    /// Candidates for `--scheme auto` selection: the paper set plus the
    /// ANS extension (which competes via a cheap entropy estimate — see
    /// [`Scheme::estimate_encoded_size`]).
    pub const AUTO_SET: [Scheme; 9] = [
        Scheme::Den,
        Scheme::Csr,
        Scheme::Cvi,
        Scheme::Dvi,
        Scheme::Cla,
        Scheme::Snappy,
        Scheme::Gzip,
        Scheme::Toc,
        Scheme::GcAns,
    ];

    /// Display name matching the paper's figures (`*` marks from-scratch
    /// substitutes for Snappy/Gzip).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Den => "DEN",
            Scheme::Csr => "CSR",
            Scheme::Cvi => "CVI",
            Scheme::Dvi => "DVI",
            Scheme::Cla => "CLA",
            Scheme::Snappy => "Snappy*",
            Scheme::Gzip => "Gzip*",
            Scheme::Toc => "TOC",
            Scheme::TocSparse => "TOC_SPARSE",
            Scheme::TocSparseLogical => "TOC_SPARSE_AND_LOGICAL",
            Scheme::GcAns => "ANS",
        }
    }

    /// Encode a dense mini-batch with this scheme and default options.
    pub fn encode(self, dense: &DenseMatrix) -> AnyBatch {
        self.encode_with(dense, &EncodeOptions::default())
    }

    /// Encode with explicit per-scheme options (currently only CLA has
    /// knobs; every other scheme ignores `opts`).
    pub fn encode_with(self, dense: &DenseMatrix, opts: &EncodeOptions) -> AnyBatch {
        match self {
            Scheme::Den => AnyBatch::Den(den::DenBatch::encode(dense)),
            Scheme::Csr => AnyBatch::Csr(csr::CsrBatch::encode(dense)),
            Scheme::Cvi => AnyBatch::Cvi(cvi::CviBatch::encode(dense)),
            Scheme::Dvi => AnyBatch::Dvi(cvi::DviBatch::encode(dense)),
            Scheme::Cla => AnyBatch::Cla(cla::ClaBatch::encode_with(dense, &opts.cla)),
            Scheme::Snappy => AnyBatch::Gc(gcform::GcBatch::encode(dense, toc_gc::Codec::FastLz)),
            Scheme::Gzip => AnyBatch::Gc(gcform::GcBatch::encode(dense, toc_gc::Codec::Deflate)),
            Scheme::Toc => AnyBatch::Toc(tocform::TocFormat::encode(dense)),
            Scheme::TocSparse => AnyBatch::TocSparse(tocform::TocSparse::encode(dense)),
            Scheme::TocSparseLogical => {
                AnyBatch::TocSparseLogical(tocform::TocSparseLogical::encode(dense))
            }
            Scheme::GcAns => AnyBatch::Gc(gcform::GcBatch::encode(dense, toc_gc::Codec::Ans)),
        }
    }

    /// Estimated [`MatrixBatch::size_bytes`] of encoding `dense` with this
    /// scheme — the quantity scheme selection minimizes, and so the
    /// *definition* of what [`pick_scheme`] / [`pick_and_encode`] return.
    /// DEN's size is its shape's and ANS's comes from one histogram pass
    /// over the DEN bytes; CLA reports its planner's
    /// [`cla::ClaPlan::est_bytes`] (no dictionaries are built); every
    /// other scheme — CSR, CVI and DVI included — probes by encoding.
    ///
    /// This always does the full work for its one scheme. Selection
    /// reaches the same argmin with less (see [`pick_and_encode`]: DEN is
    /// priced from the shape; one row-major pass over the chunk, keyed by
    /// (column, value), prices CSR, CVI, DVI and ANS together and, when
    /// CLA's sample is every row, is also its planner's phase 1; only
    /// Snappy\*, Gzip\* and TOC are probed); this stays public as the
    /// oracle its tests compare against.
    pub fn estimate_encoded_size(self, dense: &DenseMatrix, opts: &EncodeOptions) -> usize {
        match self {
            Scheme::Den => dense.den_size_bytes(),
            // ANS compresses to (almost exactly) the zeroth-order byte
            // entropy of the DEN payload, so the estimate is one histogram
            // pass — no encode probe, unlike the LZ-based GC schemes.
            Scheme::GcAns => {
                let mut hist = [0u64; 256];
                for v in dense.data() {
                    for b in v.to_le_bytes() {
                        hist[b as usize] += 1;
                    }
                }
                ans_size_from_hist(&hist, dense.data().len())
            }
            Scheme::Cla => cla::planner::plan(dense, &opts.cla).est_bytes,
            _ => self.encode_with(dense, opts).size_bytes(),
        }
    }

    /// The estimate of the schemes whose size is a closed form of the
    /// chunk's shape and value counts; the counts are taken on first use.
    fn size_from_stats(self, counted: &mut Counted) -> Option<usize> {
        let dense = counted.dense;
        let st = match self {
            Scheme::Den => return Some(dense.den_size_bytes()),
            Scheme::Csr | Scheme::Cvi | Scheme::Dvi | Scheme::GcAns => counted.stats(),
            _ => return None,
        };
        let (rows, cells) = (dense.rows(), dense.data().len());
        Some(match self {
            Scheme::Csr => csr::CsrBatch::size_of(rows, st.nnz),
            Scheme::Cvi => cvi::cvi_size_bytes(rows, st.nnz, st.distinct_nonzero),
            Scheme::Dvi => cvi::dvi_size_bytes(cells, st.counts.len()),
            _ => ans_size_from_hist(&st.byte_hist(), cells),
        })
    }

    /// The byte codec of the two LZ schemes, which selection probes over
    /// one serialisation of the chunk.
    fn lz_codec(self) -> Option<toc_gc::Codec> {
        match self {
            Scheme::Snappy => Some(toc_gc::Codec::FastLz),
            Scheme::Gzip => Some(toc_gc::Codec::Deflate),
            _ => None,
        }
    }

    /// When [`select`] evaluates this candidate: the two whose work a
    /// small enough leader saves go after everything else.
    fn selection_rank(self) -> u8 {
        match self {
            Scheme::Snappy => 1,
            Scheme::Cla => 2,
            _ => 0,
        }
    }

    /// Deserialize a batch previously produced by
    /// [`MatrixBatch::to_bytes`]. The scheme is identified by the tag byte.
    pub fn from_bytes(bytes: &[u8]) -> Result<AnyBatch, FormatError> {
        let (&tag, body) = bytes
            .split_first()
            .ok_or_else(|| FormatError::Corrupt("empty buffer".into()))?;
        Ok(match tag {
            0 => AnyBatch::Den(den::DenBatch::from_body(body)?),
            1 => AnyBatch::Csr(csr::CsrBatch::from_body(body)?),
            2 => AnyBatch::Cvi(cvi::CviBatch::from_body(body)?),
            3 => AnyBatch::Dvi(cvi::DviBatch::from_body(body)?),
            4 => AnyBatch::Cla(cla::ClaBatch::from_body(body)?),
            5 => AnyBatch::Gc(gcform::GcBatch::from_body(body, toc_gc::Codec::FastLz)?),
            6 => AnyBatch::Gc(gcform::GcBatch::from_body(body, toc_gc::Codec::Deflate)?),
            7 => AnyBatch::Toc(tocform::TocFormat::from_body(body)?),
            8 => AnyBatch::TocSparse(tocform::TocSparse::from_body(body)?),
            9 => AnyBatch::TocSparseLogical(tocform::TocSparseLogical::from_body(body)?),
            11 => AnyBatch::Gc(gcform::GcBatch::from_body(body, toc_gc::Codec::Ans)?),
            got => {
                return Err(FormatError::WrongScheme {
                    expected: "any",
                    got,
                })
            }
        })
    }

    /// Whether `tag` names a known scheme (a valid first byte of
    /// [`MatrixBatch::to_bytes`]). The v2 container footer validates leaf
    /// scheme tags through this before touching any segment bytes.
    pub fn is_valid_tag(tag: u8) -> bool {
        Self::ALL.iter().any(|s| s.tag() == tag)
    }

    /// Serialization tag byte (first byte of [`MatrixBatch::to_bytes`]).
    /// Tag 10, once TOC under the varint physical codec, is retired and
    /// never reused: [`Self::from_bytes`] rejects it as an unknown scheme.
    pub fn tag(self) -> u8 {
        match self {
            Scheme::Den => 0,
            Scheme::Csr => 1,
            Scheme::Cvi => 2,
            Scheme::Dvi => 3,
            Scheme::Cla => 4,
            Scheme::Snappy => 5,
            Scheme::Gzip => 6,
            Scheme::Toc => 7,
            Scheme::TocSparse => 8,
            Scheme::TocSparseLogical => 9,
            Scheme::GcAns => 11,
        }
    }
}

/// [`MatrixBatch::size_bytes`] ANS is estimated at for `cells` doubles
/// whose DEN bytes have the histogram `hist`.
fn ans_size_from_hist(hist: &[u64; 256], cells: usize) -> usize {
    // +9 for the scheme tag and rows/cols wire header.
    toc_gc::ans::estimate_from_hist(hist, cells * 8) + 9
}

/// How often each value (by bit pattern) occurs in a chunk. The sizes of
/// CSR, CVI, DVI and the ANS estimate are closed forms of these counts
/// and the shape.
struct ChunkStats {
    /// [`value_key`] of a bit pattern → (the bit pattern, its cells).
    counts: FxHashMap<u64, (u64, u64)>,
    /// Cells with `v != 0.0` — what `SparseRows::encode` keeps (NaN is
    /// kept, `-0.0` is not).
    nnz: usize,
    /// Distinct bit patterns among those cells.
    distinct_nonzero: usize,
}

impl ChunkStats {
    /// Fold the (column, value) counts of every row of a chunk into
    /// per-value counts.
    fn fold(counted: &ColumnValues) -> Self {
        let mut counts: FxHashMap<u64, (u64, u64)> = FxHashMap::default();
        for e in counted.entries() {
            counts.entry(value_key(e.bits)).or_insert((e.bits, 0)).1 += e.count as u64;
        }
        let (mut nnz, mut distinct_nonzero) = (counted.rows() * counted.cols(), counts.len());
        for zero in [0.0f64, -0.0] {
            if let Some(&(_, cells)) = counts.get(&value_key(zero.to_bits())) {
                nnz -= cells as usize;
                distinct_nonzero -= 1;
            }
        }
        Self {
            counts,
            nnz,
            distinct_nonzero,
        }
    }

    /// Histogram of the chunk's DEN bytes: each distinct value's eight
    /// bytes, weighted by its cells.
    fn byte_hist(&self) -> [u64; 256] {
        let mut hist = [0u64; 256];
        for &(bits, cells) in self.counts.values() {
            for b in bits.to_le_bytes() {
                hist[b as usize] += cells;
            }
        }
        hist
    }
}

/// What selection has counted of its chunk, each part on first use: the
/// one (column, value) pass over every row, and its fold.
struct Counted<'a> {
    dense: &'a DenseMatrix,
    every_row: Option<ColumnValues>,
    stats: Option<ChunkStats>,
}

impl<'a> Counted<'a> {
    fn new(dense: &'a DenseMatrix) -> Self {
        Self {
            dense,
            every_row: None,
            stats: None,
        }
    }

    fn every_row(&mut self) -> &ColumnValues {
        let dense = self.dense;
        self.every_row
            .get_or_insert_with(|| ColumnValues::count(dense, 0..dense.rows()))
    }

    fn stats(&mut self) -> &ChunkStats {
        if self.stats.is_none() {
            self.stats = Some(ChunkStats::fold(self.every_row()));
        }
        self.stats.as_ref().expect("just folded")
    }

    /// CLA's [`cla::planner::plan_within`]. When the planner samples every
    /// row, its sample is the pass the closed forms read, so that one
    /// pass serves both.
    fn cla_plan(&mut self, opts: &ClaOptions, budget: usize) -> Option<cla::ClaPlan> {
        let rows = self.dense.rows();
        if opts.sample_rows >= rows {
            cla::planner::plan_counted(rows, self.every_row(), budget)
        } else {
            cla::planner::plan_within(self.dense, opts, budget)
        }
    }
}

/// What selection holds for its current leader.
enum Lead {
    /// Probe-encoded: the estimate was this batch's own size.
    Batch(AnyBatch),
    /// Leading on a closed-form estimate; nothing encoded yet.
    Unencoded,
    /// CLA leading on its plan's estimate.
    Plan(cla::ClaPlan),
}

/// The one selection routine behind [`pick_scheme`] and
/// [`pick_and_encode`]: walk the candidates against a running leader and
/// keep whatever the leader's estimate already built.
///
/// DEN is priced from its shape, CSR, CVI, DVI and ANS from one row-major
/// pass over the chunk keyed by (column, value) ([`Counted`],
/// [`Scheme::size_from_stats`]), the rest by encoding. Whatever their
/// position, the two candidates a small enough leader saves work on go
/// last ([`Scheme::selection_rank`]): Snappy\*, skipped when the leader
/// is already under the least any Snappy\* batch of this chunk can
/// weigh, then planned CLA, whose planner is handed the size it must
/// undercut ([`cla::planner::plan_within`]) and skips its merge phase
/// when it provably cannot. When CLA samples every row (`sample_rows`
/// at least the chunk's rows: the ingest default), that same pass is its
/// planner's phase 1, so the chunk's cells are hashed once for both.
/// Ties are settled by candidate position, not by evaluation order, so
/// the result is the argmin as defined.
fn select(dense: &DenseMatrix, candidates: &[Scheme], opts: &EncodeOptions) -> (Scheme, Lead) {
    assert!(!candidates.is_empty(), "no candidate schemes");
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&i| candidates[i].selection_rank());
    let mut counted = Counted::new(dense);
    // The chunk's DEN bytes, serialised once for both LZ probes.
    let mut den_bytes = None;
    let mut best: Option<(usize, usize, Lead)> = None; // size, candidate index, lead
    for idx in order {
        // The largest estimate with which this candidate takes the lead:
        // a tie is enough only from an earlier position.
        let budget = match best {
            None => usize::MAX,
            Some((size, lead_idx, _)) if idx < lead_idx => size,
            Some((size, ..)) => match size.checked_sub(1) {
                Some(below) => below,
                None => continue,
            },
        };
        let scheme = candidates[idx];
        let (size, lead) = if let Some(size) = scheme.size_from_stats(&mut counted) {
            (size, Lead::Unencoded)
        } else if scheme == Scheme::Cla {
            match counted.cla_plan(&opts.cla, budget) {
                Some(plan) => (plan.est_bytes, Lead::Plan(plan)),
                None => continue,
            }
        } else if let Some(codec) = scheme.lz_codec() {
            let den = den_bytes.get_or_insert_with(|| gcform::GcBatch::den_bytes(dense));
            if scheme == Scheme::Snappy && gcform::GcBatch::snappy_size_floor(den.len()) > budget {
                continue;
            }
            let batch = AnyBatch::Gc(gcform::GcBatch::compress_den(dense, den, codec));
            (batch.size_bytes(), Lead::Batch(batch))
        } else {
            let batch = scheme.encode_with(dense, opts);
            (batch.size_bytes(), Lead::Batch(batch))
        };
        if size <= budget {
            best = Some((size, idx, lead));
        }
    }
    let (_, idx, lead) = best.expect("the first candidate evaluated always leads");
    (candidates[idx], lead)
}

/// Pick the scheme with the smallest estimated encoding of `dense` among
/// `candidates`.
///
/// Contract: the result is the argmin of
/// [`Scheme::estimate_encoded_size`] over `candidates`, ties to the
/// earlier candidate — a pure function of `(dense, candidates, opts)`.
/// Selection computes the sizes that are closed forms of the chunk's
/// value counts (DEN, CSR, CVI, DVI, ANS) instead of encoding for them,
/// and skips work a bound proves cannot change the answer (CLA's merge
/// phase when the plan cannot undercut the leader, the Snappy\* probe
/// when the leader is under that format's floor), never the answer
/// itself.
pub fn pick_scheme(dense: &DenseMatrix, candidates: &[Scheme], opts: &EncodeOptions) -> Scheme {
    select(dense, candidates, opts).0
}

/// [`pick_scheme`] plus the winner's encoding, built once: the pair is
/// `(s, s.encode_with(dense, opts))` for `s = pick_scheme(..)`, byte for
/// byte. Sizes are computed where they can be and probed where they must:
/// DEN, CSR, CVI, DVI and ANS are priced from the shape and one
/// (column, value) pass over the chunk (CLA's phase 1 too, when it
/// samples every row) and encoded only if they win; Snappy\*, Gzip\* (over one
/// serialisation of the chunk) and TOC are probe-encoded, and a probed
/// winner hands over the batch its estimate built; CLA is materialized
/// from the plan that won it the pick. At most the leader's
/// and one challenger's batch are alive at a time.
pub fn pick_and_encode(
    dense: &DenseMatrix,
    candidates: &[Scheme],
    opts: &EncodeOptions,
) -> (Scheme, AnyBatch) {
    let (scheme, lead) = select(dense, candidates, opts);
    let batch = match lead {
        Lead::Batch(batch) => batch,
        Lead::Unencoded => scheme.encode_with(dense, opts),
        Lead::Plan(plan) => AnyBatch::Cla(cla::ClaBatch::materialize(dense, &plan)),
    };
    (scheme, batch)
}

/// A batch in any scheme (enum dispatch over [`MatrixBatch`]).
#[derive(Clone, Debug)]
pub enum AnyBatch {
    Den(den::DenBatch),
    Csr(csr::CsrBatch),
    Cvi(cvi::CviBatch),
    Dvi(cvi::DviBatch),
    Cla(cla::ClaBatch),
    Gc(gcform::GcBatch),
    Toc(tocform::TocFormat),
    TocSparse(tocform::TocSparse),
    TocSparseLogical(tocform::TocSparseLogical),
}

macro_rules! dispatch {
    ($self:expr, $b:ident => $e:expr) => {
        match $self {
            AnyBatch::Den($b) => $e,
            AnyBatch::Csr($b) => $e,
            AnyBatch::Cvi($b) => $e,
            AnyBatch::Dvi($b) => $e,
            AnyBatch::Cla($b) => $e,
            AnyBatch::Gc($b) => $e,
            AnyBatch::Toc($b) => $e,
            AnyBatch::TocSparse($b) => $e,
            AnyBatch::TocSparseLogical($b) => $e,
        }
    };
}

impl AnyBatch {
    /// The [`toc_core::TocBatch`] under a TOC-family batch (TOC,
    /// TOC_SPARSE_AND_LOGICAL); `None` for every other scheme.
    pub fn toc(&self) -> Option<&toc_core::TocBatch> {
        match self {
            AnyBatch::Toc(b) => Some(b.toc()),
            AnyBatch::TocSparseLogical(b) => Some(b.toc()),
            _ => None,
        }
    }

    /// [`Self::toc`], mutably.
    pub fn toc_mut(&mut self) -> Option<&mut toc_core::TocBatch> {
        match self {
            AnyBatch::Toc(b) => Some(b.toc_mut()),
            AnyBatch::TocSparseLogical(b) => Some(b.toc_mut()),
            _ => None,
        }
    }
}

impl MatrixBatch for AnyBatch {
    fn rows(&self) -> usize {
        dispatch!(self, b => b.rows())
    }
    fn cols(&self) -> usize {
        dispatch!(self, b => b.cols())
    }
    fn size_bytes(&self) -> usize {
        dispatch!(self, b => b.size_bytes())
    }
    fn decode_rows_into(&self, r0: usize, r1: usize, out: &mut DenseMatrix) {
        dispatch!(self, b => b.decode_rows_into(r0, r1, out))
    }
    fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        dispatch!(self, b => b.matvec_into_ws(v, out, ws))
    }
    fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
        dispatch!(self, b => b.vecmat_into_ws(v, out, ws))
    }
    fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        dispatch!(self, b => b.matmat_into_ws(m, out, ws))
    }
    fn matmat_left_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        dispatch!(self, b => b.matmat_left_into_ws(m, out, ws))
    }
    fn matmat_t_into_ws(&self, d: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        dispatch!(self, b => b.matmat_t_into_ws(d, out, ws))
    }
    fn reserve_scratch(&self, p: usize, ws: &mut ExecScratch) {
        dispatch!(self, b => b.reserve_scratch(p, ws))
    }
    fn decode_into_ws(&self, out: &mut DenseMatrix, ws: &mut ExecScratch) {
        dispatch!(self, b => b.decode_into_ws(out, ws))
    }
    fn scale(&mut self, c: f64) {
        dispatch!(self, b => b.scale(c))
    }
    fn to_bytes(&self) -> Vec<u8> {
        dispatch!(self, b => b.to_bytes())
    }
}

/// Upper bound on a claimed matrix dimension that has no byte backing in
/// the wire body (the free dimension of a zero-area batch). Legitimate
/// degenerate batches sit far below it; corrupted headers claiming 2^31+
/// rows/cols are rejected before any kernel allocates an output that
/// large.
pub(crate) const MAX_DEGENERATE_DIM: usize = 1 << 24;

/// Shared wire-format helpers: little-endian writers and the
/// overflow-safe reader [`wire::Rd`] that every parser of outside bytes in
/// the workspace (batch bodies, container footers, checkpoint sidecars)
/// goes through.
pub mod wire {
    use super::FormatError;

    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64s(buf: &mut Vec<u8>, vals: &[f64]) {
        put_u32(buf, vals.len() as u32);
        for v in vals {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn put_u32s(buf: &mut Vec<u8>, vals: &[u32]) {
        put_u32(buf, vals.len() as u32);
        for v in vals {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// A cursor over untrusted bytes: every read is bounds-checked
    /// against what remains and returns [`FormatError::Corrupt`] instead
    /// of panicking, whatever lengths the input claims.
    pub struct Rd<'a> {
        bytes: &'a [u8],
        /// Invariant: `pos <= bytes.len()`.
        pos: usize,
    }

    impl<'a> Rd<'a> {
        pub fn new(bytes: &'a [u8]) -> Self {
            Self { bytes, pos: 0 }
        }

        /// The next `n` bytes.
        pub fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
            // `pos <= len` is an invariant, but `pos + n` could overflow
            // for adversarial `n`; bound-check without any arithmetic on
            // attacker-controlled values.
            if n > self.bytes.len() - self.pos {
                return Err(FormatError::Corrupt("truncated".into()));
            }
            let s = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        pub fn u8(&mut self) -> Result<u8, FormatError> {
            Ok(self.take(1)?[0])
        }

        pub fn u32(&mut self) -> Result<u32, FormatError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }

        pub fn u64(&mut self) -> Result<u64, FormatError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        pub fn f64(&mut self) -> Result<f64, FormatError> {
            Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        /// A `u32` count followed by that many `f64`s.
        pub fn f64s(&mut self) -> Result<Vec<f64>, FormatError> {
            let n = self.u32()? as usize;
            // Checked multiply instead of a heuristic plausibility bound:
            // `take` then rejects any count the remaining bytes can't back.
            let byte_len = n
                .checked_mul(8)
                .ok_or_else(|| FormatError::Corrupt("f64 count overflows".into()))?;
            let raw = self.take(byte_len)?;
            Ok(raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }

        /// A `u32` count followed by that many `u32`s.
        pub fn u32s(&mut self) -> Result<Vec<u32>, FormatError> {
            let n = self.u32()? as usize;
            let byte_len = n
                .checked_mul(4)
                .ok_or_else(|| FormatError::Corrupt("u32 count overflows".into()))?;
            let raw = self.take(byte_len)?;
            Ok(raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }

        /// Everything not yet consumed.
        pub fn rest(&mut self) -> &'a [u8] {
            let s = &self.bytes[self.pos..];
            self.pos = self.bytes.len();
            s
        }

        /// Error unless every byte was consumed.
        pub fn done(&self) -> Result<(), FormatError> {
            if self.pos != self.bytes.len() {
                return Err(FormatError::Corrupt("trailing bytes".into()));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The schemes selection prices from the shape and [`ChunkStats`]
    /// instead of probing.
    const FROM_STATS: [Scheme; 5] = [
        Scheme::Den,
        Scheme::Csr,
        Scheme::Cvi,
        Scheme::Dvi,
        Scheme::GcAns,
    ];

    fn assert_stats_price_like_the_oracle(dense: &DenseMatrix) {
        let opts = EncodeOptions::default();
        let mut counted = Counted::new(dense);
        for scheme in FROM_STATS {
            assert_eq!(
                scheme.size_from_stats(&mut counted),
                Some(scheme.estimate_encoded_size(dense, &opts)),
                "{scheme:?} on {} x {}",
                dense.rows(),
                dense.cols()
            );
        }
        for scheme in Scheme::ALL.iter().filter(|s| !FROM_STATS.contains(s)) {
            assert_eq!(scheme.size_from_stats(&mut counted), None);
        }
    }

    /// Values whose bit pattern and `!= 0.0` verdict disagree with naive
    /// float equality: two zeros, NaNs that differ only in payload or
    /// sign, infinities, subnormals.
    const AWKWARD: [u64; 12] = [
        0,                     // 0.0
        1 << 63,               // -0.0
        0x7FF8_0000_0000_0000, // NaN
        0x7FF8_0000_0000_0001, // NaN, another payload
        0xFFF8_0000_0000_0000, // NaN, sign set
        0x7FF0_0000_0000_0001, // signalling NaN
        0x7FF0_0000_0000_0000, // inf
        0xFFF0_0000_0000_0000, // -inf
        1,                     // smallest subnormal
        (1 << 63) | 1,         // its negative
        0x000F_FFFF_FFFF_FFFF, // largest subnormal
        0x3FF8_0000_0000_0000, // 1.5
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any shape (`0 x n` and `n x 0` included), cells drawn from
        /// [`AWKWARD`] with a `raw` share of arbitrary bit patterns.
        #[test]
        fn prop_size_from_stats_equals_the_estimate(
            rows in 0usize..40,
            cols in 0usize..12,
            raw in 0u64..4,
            picks in proptest::collection::vec(any::<u64>(), 40 * 12),
        ) {
            let data = picks[..rows * cols]
                .iter()
                .map(|&p| {
                    let bits = if p % 4 < raw { p } else { AWKWARD[(p >> 2) as usize % AWKWARD.len()] };
                    f64::from_bits(bits)
                })
                .collect();
            assert_stats_price_like_the_oracle(&DenseMatrix::from_vec(rows, cols, data));
        }
    }

    /// Dictionaries of exactly 255 … 257 and 65 535 … 65 537 entries, for
    /// DVI (zeros are entries) and for CVI (they are not), laid out as one
    /// row, as one column (a column of that many values, counted mostly
    /// past its inline slots) and as 16 columns (the same value in several
    /// columns, which the fold must count once).
    #[test]
    fn size_from_stats_straddles_the_index_widths() {
        for edge in [256usize, 65_536] {
            for distinct_nonzero in [edge - 2, edge - 1, edge, edge + 1] {
                for zeros in [&[][..], &[0.0], &[0.0, -0.0]] {
                    let mut data: Vec<f64> = (1..=distinct_nonzero).map(|i| i as f64).collect();
                    data.extend_from_slice(zeros);
                    data.extend_from_within(..3); // some values more than once
                    let cells = data.len();
                    assert_stats_price_like_the_oracle(&DenseMatrix::from_vec(
                        1,
                        cells,
                        data.clone(),
                    ));
                    assert_stats_price_like_the_oracle(&DenseMatrix::from_vec(
                        cells,
                        1,
                        data.clone(),
                    ));
                    let wide = cells.next_multiple_of(16);
                    data.extend_from_within(..wide - cells);
                    assert_stats_price_like_the_oracle(&DenseMatrix::from_vec(wide / 16, 16, data));
                }
            }
        }
    }

    /// Few-valued columns (what a column keeps inline) beside many-valued
    /// ones, with the awkward values shared across columns, in every
    /// chunk shape the counting has a branch for: a column that fills its
    /// inline slots exactly, one that spills by one, zero rows, zero
    /// columns.
    #[test]
    fn size_from_stats_across_inline_and_spilled_columns() {
        for (rows, cols) in [(0, 5), (6, 0), (1, 1), (9, 3), (40, 7), (250, 12)] {
            let data = (0..rows * cols)
                .map(|i| {
                    let (r, c) = (i / cols.max(1), i % cols.max(1));
                    let spread = [1, 2, 4, 5, 9, 40][c % 6];
                    f64::from_bits(AWKWARD[(r * 7 + c) % spread % AWKWARD.len()])
                        + if spread > AWKWARD.len() {
                            r as f64
                        } else {
                            0.0
                        }
                })
                .collect();
            assert_stats_price_like_the_oracle(&DenseMatrix::from_vec(rows, cols, data));
        }
    }
}
