//! The `TocBatch`: a mini-batch compressed with the full TOC pipeline
//! (sparse + logical + physical encoding) stored as a single byte buffer.
//!
//! Physical layout (all integers little-endian):
//!
//! ```text
//! magic   u32  = 0x544F4321 ("TOC!")
//! version u8   = 1
//! codec   u8   (0 = bit packing, 1 = varint)
//! pad     u16  = 0
//! rows    u32
//! cols    u32
//! [I column indexes]   int array (len = |I|)
//! [unique values]      u32 count + count * 8 bytes f64   (value indexing)
//! [I value indexes]    int array (len = |I|)
//! [D codes]            int array (concatenated tuples)
//! [tuple start idx]    int array (rows + 1 entries)
//! ```
//!
//! "int array" is the bit-packed (or varint) format of
//! [`crate::physical`]. Nothing is decompressed to run a kernel: the
//! replay that rebuilds `C'` from this buffer (through [`TocView`]) unpacks
//! `I` and `D` into the plain integer arrays of a [`DecodeTree`] once, and
//! the kernels run on those.

use crate::encode::{logical_encode, logical_encode_dense, LogicalEncoded};
use crate::error::{corrupt, TocError};
use crate::hash::FxHashMap;
use crate::ops::BlockScratch;
use crate::physical::{
    write_f64s, write_packed_ints, write_u32, write_varint_ints, Cursor, F64Slice, IntSlice,
};
use crate::tree::{DecodeTree, LivePlan, TreeScratch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use toc_linalg::sparse::{ColVal, SparseRows};
use toc_linalg::DenseMatrix;

const MAGIC: u32 = 0x544F_4321;
const VERSION: u8 = 1;

/// Physical integer codec used inside a [`TocBatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PhysicalCodec {
    /// Fixed-width bit packing (the paper's §3.2 default).
    #[default]
    BitPack,
    /// LEB128 varints (the paper's suggested extension). Denser for skewed
    /// index distributions, but loses in-place random access: the view
    /// materializes decoded arrays.
    Varint,
}

/// A TOC-compressed mini-batch.
///
/// ```
/// use toc_linalg::DenseMatrix;
/// use toc_core::TocBatch;
///
/// let a = DenseMatrix::from_rows(vec![
///     vec![1.1, 2.0, 3.0, 1.4],
///     vec![1.1, 2.0, 3.0, 0.0],
/// ]);
/// let toc = TocBatch::encode(&a);
/// assert_eq!(toc.decode(), a);
/// assert_eq!(toc.matvec(&[1.0; 4]).unwrap(), a.matvec(&[1.0; 4]));
/// ```
#[derive(Clone)]
pub struct TocBatch {
    bytes: Vec<u8>,
    rows: usize,
    cols: usize,
    /// The name a [`KernelScratch`] keys what it derived from `bytes` by:
    /// drawn by `encode` and [`Self::from_bytes`], shared by clones (their
    /// bytes are equal), drawn anew by every rewrite of the bytes. Not an
    /// address, which is handed out again once a batch is dropped, and
    /// not the bytes, whose copy and compare a key is there to save.
    serial: u64,
    /// `C'` of `bytes`, if [`Self::from_bytes`] made this batch: the tree
    /// validation replayed, kept for the kernels. Derived state, boxed so
    /// that a batch without one stays small.
    tree: Option<Box<DecodeTree>>,
    /// The live plan slot of [`Self::hold_plan`]: `None` while holding is
    /// off (the default), else filled once by the first matrix kernel.
    /// Derived state; a clone gets a copy.
    held: Option<Box<OnceLock<LivePlan>>>,
}

static NEXT_SERIAL: AtomicU64 = AtomicU64::new(0);

fn next_serial() -> u64 {
    NEXT_SERIAL.fetch_add(1, Ordering::Relaxed)
}

/// Equality of bytes (rows and cols are in the header).
impl PartialEq for TocBatch {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl std::fmt::Debug for TocBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TocBatch({}x{}, {} bytes)",
            self.rows,
            self.cols,
            self.bytes.len()
        )
    }
}

impl TocBatch {
    /// Compress a dense mini-batch with the default bit-packing codec.
    pub fn encode(dense: &DenseMatrix) -> Self {
        Self::encode_with(dense, PhysicalCodec::BitPack)
    }

    /// Compress with an explicit physical codec.
    pub fn encode_with(dense: &DenseMatrix, codec: PhysicalCodec) -> Self {
        Self::from_logical(&logical_encode_dense(dense), codec)
    }

    /// Compress an already sparse-encoded table.
    pub fn from_sparse(sparse: &SparseRows, codec: PhysicalCodec) -> Self {
        let logical = logical_encode(sparse);
        Self::from_logical(&logical, codec)
    }

    /// Apply the physical encoding (§3.2) to a logical encoding.
    pub fn from_logical(logical: &LogicalEncoded, codec: PhysicalCodec) -> Self {
        // Value indexing: unique values in first-occurrence order, keyed by
        // bit pattern for losslessness.
        let mut uniq: FxHashMap<u64, u32> = FxHashMap::default();
        let mut values: Vec<f64> = Vec::new();
        let mut validx: Vec<u32> = Vec::with_capacity(logical.first_layer.len());
        let mut cols_arr: Vec<u32> = Vec::with_capacity(logical.first_layer.len());
        for p in &logical.first_layer {
            let id = *uniq.entry(p.val.to_bits()).or_insert_with(|| {
                values.push(p.val);
                values.len() as u32 - 1
            });
            validx.push(id);
            cols_arr.push(p.col);
        }

        let mut bytes = Vec::new();
        write_u32(&mut bytes, MAGIC);
        bytes.push(VERSION);
        bytes.push(match codec {
            PhysicalCodec::BitPack => 0,
            PhysicalCodec::Varint => 1,
        });
        bytes.extend_from_slice(&0u16.to_le_bytes());
        write_u32(&mut bytes, logical.rows as u32);
        write_u32(&mut bytes, logical.cols as u32);

        let write_ints = |buf: &mut Vec<u8>, vals: &[u32]| match codec {
            PhysicalCodec::BitPack => write_packed_ints(buf, vals),
            PhysicalCodec::Varint => write_varint_ints(buf, vals),
        };
        write_ints(&mut bytes, &cols_arr);
        write_f64s(&mut bytes, &values);
        write_ints(&mut bytes, &validx);
        write_ints(&mut bytes, &logical.codes);
        write_ints(&mut bytes, &logical.row_offsets);

        Self {
            bytes,
            rows: logical.rows,
            cols: logical.cols,
            serial: next_serial(),
            tree: None,
            held: None,
        }
    }

    /// Number of matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Compressed size in bytes (the numerator of the paper's compression
    /// ratio is `DenseMatrix::den_size_bytes`; this is the denominator).
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw physical buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The physical integer codec this batch was encoded with (stored in
    /// the buffer header, so it survives serialization).
    pub fn codec(&self) -> PhysicalCodec {
        match self.bytes.get(5) {
            Some(1) => PhysicalCodec::Varint,
            _ => PhysicalCodec::BitPack,
        }
    }

    /// Serialize (the batch *is* its physical bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Deserialize and fully validate an untrusted buffer: magic, version,
    /// codec, padding and no trailing bytes; then, in the one walk that
    /// replays the dictionary, the lengths of `I`, its column and value
    /// indexes in range, offsets that partition `D`, and every code naming
    /// a node that already exists.
    ///
    /// The replay builds `C'`, and the batch keeps what it built — the
    /// [`DecodeTree`]: `parent` and `key` per node (8 bytes), `I` as plain
    /// columns and values, `D` and the tuple of each code (8 bytes per
    /// code) and the tuple offsets (4 bytes per row), unpacked once. Every
    /// kernel runs on it without parsing the buffer again, so a batch that
    /// is parsed, visited and dropped — a spilled read — replays and
    /// unpacks once. On a 250-row census-like batch (1 776 nodes, 1 854
    /// codes) that is about 32 KB beside 4–5 KB of encoded bytes, 7.4 KB
    /// of it the tuple of each code, and it is not counted by
    /// [`Self::size_bytes`]: whoever keeps parsed batches around should
    /// [`Self::shed_tree`] them (kernels then build the same structure in
    /// their [`KernelScratch`], as for a batch made by `encode`).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TocError> {
        let tree = DecodeTree::build(&parse_view(&bytes)?)?;
        let (rows, cols) = (tree.rows, tree.cols);
        Ok(Self {
            bytes,
            rows,
            cols,
            serial: next_serial(),
            tree: Some(Box::new(tree)),
            held: None,
        })
    }

    /// Drop everything [`Self::from_bytes`] kept beside the bytes.
    pub fn shed_tree(&mut self) {
        self.tree = None;
    }

    /// The tree [`Self::from_bytes`] kept, for tests that pin who holds
    /// one.
    #[doc(hidden)]
    pub fn carried_tree(&self) -> Option<&DecodeTree> {
        self.tree.as_deref()
    }

    /// `C'` of this batch: its own, or else `built`, the tree a scratch
    /// [`KernelScratch::prepare`]d for it.
    fn tree_in<'a>(&'a self, built: &'a DecodeTree) -> &'a DecodeTree {
        self.carried_tree().unwrap_or(built)
    }

    /// Hold this batch's live plan from now on: the first matrix kernel
    /// derives it into the batch — once, whichever thread gets there
    /// first — and every later one runs on it, through any scratch. A
    /// rewrite of the values empties the slot, and the next matrix kernel
    /// fills it again. Nothing turns holding on but this call; what it
    /// costs is [`Self::plan_bound_bytes`], which whoever calls it has to
    /// budget for (the store charges it to its memory budget's slack).
    pub fn hold_plan(&mut self) {
        self.held.get_or_insert_with(Box::default);
    }

    /// What a held plan can take at most: `16·n + 4·|D| + 4·(rows + 1)`
    /// bytes with `n` the nodes of `C'` — key column, key value and parent
    /// of every node were it live, `D` and the tuple offsets unpacked. Read
    /// off the header and the offsets; nothing is replayed.
    pub fn plan_bound_bytes(&self) -> usize {
        let s = self.stats();
        16 * s.n_nodes + 4 * s.codes_len + 4 * (s.rows + 1)
    }

    /// Bytes the held plan fills: `0` unless [`Self::hold_plan`] is on and
    /// a matrix kernel has filled the slot since the last rewrite.
    pub fn held_plan_bytes(&self) -> usize {
        self.held
            .as_ref()
            .and_then(|slot| slot.get())
            .map_or(0, LivePlan::heap_bytes)
    }

    /// Parse the buffer into a scan-ready view (cheap; no decompression).
    pub fn view(&self) -> TocView<'_> {
        parse_view(&self.bytes).expect("internally produced TocBatch must parse")
    }

    /// Sparse-safe element-wise multiply by a scalar (Algorithm 3):
    /// rewrites only the unique-value array in place.
    pub fn scale(&mut self, c: f64) {
        self.rewrite_values(|v| v * c);
    }

    /// Rewrite the unique-value array in place with `f` (the shared core
    /// of all sparse-safe element-wise operations). The rewritten bytes
    /// are another batch: a new serial, and the carried tree and the held
    /// plan, which hold the old values, go (the slot stays on).
    pub(crate) fn rewrite_values(&mut self, f: impl Fn(f64) -> f64) {
        self.serial = next_serial();
        self.shed_tree();
        if let Some(slot) = &mut self.held {
            slot.take();
        }
        let (start, count) =
            locate_values_section(&self.bytes).expect("internally produced TocBatch must parse");
        for i in 0..count {
            let off = start + 8 * i;
            let v = f64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap());
            self.bytes[off..off + 8].copy_from_slice(&f(v).to_le_bytes());
        }
    }

    /// Run `f` on this batch's `C'`: the carried one, else one built for
    /// the call.
    fn with_tree<R>(&self, f: impl FnOnce(&DecodeTree) -> R) -> R {
        match &self.tree {
            Some(tree) => f(tree),
            None => f(&DecodeTree::build_trusted(&self.view())),
        }
    }

    /// Decode to the sparse-row representation.
    pub fn decode_sparse(&self) -> SparseRows {
        self.with_tree(crate::ops::decode_sparse)
    }

    /// Partial decode of selected rows, in order (duplicates allowed).
    /// Cost: one `C'` build plus work linear in the selected pairs.
    pub fn gather_rows(&self, rows: &[usize]) -> SparseRows {
        self.with_tree(|tree| crate::ops::gather_rows(tree, rows))
    }

    /// Fully decode to dense (needed only by sparse-unsafe ops).
    pub fn decode(&self) -> DenseMatrix {
        self.decode_sparse().decode()
    }

    /// `A · v` on the compressed representation (Algorithm 4).
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, TocError> {
        let mut out = Vec::new();
        self.matvec_into(v, &mut out, &mut KernelScratch::default())?;
        Ok(out)
    }

    /// `v · A` on the compressed representation (Algorithm 5).
    pub fn vecmat(&self, v: &[f64]) -> Result<Vec<f64>, TocError> {
        let mut out = Vec::new();
        self.vecmat_into(v, &mut out, &mut KernelScratch::default())?;
        Ok(out)
    }

    /// `A · M` on the compressed representation (Algorithm 7).
    pub fn matmat(&self, m: &DenseMatrix) -> Result<DenseMatrix, TocError> {
        let mut out = DenseMatrix::default();
        self.matmat_into(m, &mut out, &mut KernelScratch::default())?;
        Ok(out)
    }

    /// `M · A` on the compressed representation (Algorithm 8).
    pub fn matmat_left(&self, m: &DenseMatrix) -> Result<DenseMatrix, TocError> {
        let mut out = DenseMatrix::default();
        self.matmat_left_into(m, &mut out, &mut KernelScratch::default())?;
        Ok(out)
    }

    /// Sparse-unsafe `A .+ c` (Algorithm 6): full decode, then apply.
    pub fn add_scalar(&self, c: f64) -> DenseMatrix {
        self.decode().add_scalar(c)
    }

    /// `A · v` into caller-owned buffers: runs entirely inside `ws`,
    /// performing no heap allocation in steady state, and builds `C'`
    /// only if neither the batch carries it nor `ws` already holds this
    /// batch's (see [`KernelScratch`]).
    pub fn matvec_into(
        &self,
        v: &[f64],
        out: &mut Vec<f64>,
        ws: &mut KernelScratch,
    ) -> Result<(), TocError> {
        check_dim(self.cols, v.len(), "A·v")?;
        ws.prepare(self);
        let tree = self.tree_in(&ws.tree);
        crate::ops::matvec_into(tree, v, &mut ws.p, &mut ws.h, out);
        Ok(())
    }

    /// `v · A` into caller-owned buffers (see [`Self::matvec_into`]).
    pub fn vecmat_into(
        &self,
        v: &[f64],
        out: &mut Vec<f64>,
        ws: &mut KernelScratch,
    ) -> Result<(), TocError> {
        check_dim(self.rows, v.len(), "v·A")?;
        ws.prepare(self);
        crate::ops::vecmat_into(self.tree_in(&ws.tree), v, &mut ws.h, out);
        Ok(())
    }

    /// `A · M` into caller-owned buffers (see [`Self::matvec_into`]); the
    /// matrix kernels also need the batch's live plan — the one it holds
    /// (see [`Self::hold_plan`]), else the one `ws` derives, once.
    pub fn matmat_into(
        &self,
        m: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut KernelScratch,
    ) -> Result<(), TocError> {
        check_dim(self.cols, m.rows(), "A·M")?;
        ws.with_plan(self, |plan, block| {
            crate::ops::matmat_into(plan, m, block, out)
        });
        Ok(())
    }

    /// `M · A` into caller-owned buffers (see [`Self::matmat_into`]).
    pub fn matmat_left_into(
        &self,
        m: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut KernelScratch,
    ) -> Result<(), TocError> {
        check_dim(self.rows, m.cols(), "M·A")?;
        ws.with_plan(self, |plan, block| {
            crate::ops::matmat_left_into(plan, m, block, out)
        });
        Ok(())
    }

    /// `Aᵀ · D` (`D` is `rows × p`, `out` becomes `cols × p`) into
    /// caller-owned buffers (see [`Self::matmat_into`]): bit for bit
    /// `(Dᵀ · A)ᵀ`, Algorithm 8 without transposing either operand.
    pub fn matmat_t_into(
        &self,
        d: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut KernelScratch,
    ) -> Result<(), TocError> {
        check_dim(self.rows, d.rows(), "Aᵀ·D")?;
        ws.with_plan(self, |plan, block| {
            crate::ops::matmat_t_into(plan, d, block, out)
        });
        Ok(())
    }

    /// Full decode into a caller-owned dense matrix (see
    /// [`Self::matvec_into`]).
    pub fn decode_into(&self, out: &mut DenseMatrix, ws: &mut KernelScratch) {
        ws.prepare(self);
        crate::ops::decode_into(self.tree_in(&ws.tree), &mut ws.stack, out);
    }

    /// Encoding statistics, for inspection and ablation reporting.
    pub fn stats(&self) -> TocStats {
        let view = self.view();
        let mut nonempty = 0usize;
        for r in 0..view.rows {
            let (s, e) = view.row_range(r);
            if e > s {
                nonempty += 1;
            }
        }
        TocStats {
            rows: view.rows,
            cols: view.cols,
            first_layer_len: view.first_layer_len(),
            unique_values: view.values.len(),
            codes_len: view.codes.len(),
            n_nodes: 1 + view.first_layer_len() + (view.codes.len() - nonempty),
            size_bytes: self.bytes.len(),
        }
    }
}

fn check_dim(expected: usize, got: usize, what: &'static str) -> Result<(), TocError> {
    if expected == got {
        Ok(())
    } else {
        Err(TocError::Dimension {
            expected,
            got,
            what,
        })
    }
}

/// Reusable scratch for the zero-allocation TOC kernel entry points
/// (`TocBatch::{matvec,vecmat,matmat,matmat_left,matmat_t,decode}_into`): holds the
/// decode tree `C'` of the encoded batch it prepared last, the live plan of
/// the batch whose matrix kernels it ran last, the rebuild scratch, the
/// kernels' `P`/`H`/`G` accumulators, and the decode backtracking buffer.
/// One instance serves any number of batches of any shape; buffers grow to
/// the high-water mark and are reused thereafter.
///
/// Who builds `C'` when: a batch parsed by [`TocBatch::from_bytes`]
/// carries the tree its validation built, with `I` and `D` unpacked, and
/// the kernels run on that — this scratch builds nothing for it, and no
/// kernel parses its buffer. A batch made by `encode` carries no tree, so
/// the scratch builds the same structure — once per batch, not once per
/// call.
/// What the scratch derives it keys by the batch's serial (see
/// [`TocBatch`]): the number `encode` / `from_bytes` drew, which clones
/// share and [`TocBatch::scale`] redraws, so a kernel rebuilds only for a
/// batch it has not prepared since its bytes last changed — without
/// copying or comparing the bytes. Either way `matvec` → `vecmat`,
/// `matmat` → `matmat_left`, or the `2k` calls of a one-vs-rest step on
/// one batch share one `C'`.
///
/// The live plan the matrix kernels need is the batch's own if it holds
/// one ([`TocBatch::hold_plan`], which the store turns on for resident
/// batches its budget has room for): the first matrix kernel on the batch
/// fills it through whichever scratch runs it, and from then on no scratch
/// derives anything for that batch's matrix kernels. Otherwise the scratch
/// derives the plan, keyed by the serial like the tree, once per batch it
/// meets.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    /// Serial of the batch `tree` was built for; `None` while nothing is
    /// built.
    built: Option<u64>,
    tree: DecodeTree,
    tree_scratch: TreeScratch,
    /// Serial of the batch `plan` is the live plan of.
    planned: Option<u64>,
    plan: LivePlan,
    p: Vec<f64>,
    h: Vec<f64>,
    block: BlockScratch,
    stack: Vec<(u32, f64)>,
    builds: u64,
    plans: u64,
}

impl KernelScratch {
    /// Make sure `batch` has a `C'` — its own, or else `tree`, built unless
    /// it already is this batch's.
    fn prepare(&mut self, batch: &TocBatch) {
        if batch.tree.is_none() && self.built != Some(batch.serial) {
            // Nothing counts as built while the tree is half rebuilt.
            self.built = None;
            DecodeTree::build_trusted_into(&batch.view(), &mut self.tree, &mut self.tree_scratch);
            self.built = Some(batch.serial);
            self.builds += 1;
        }
    }

    /// The live plan `batch` holds, filled here if it is still empty;
    /// `None` if it holds none.
    fn held_plan<'b>(&mut self, batch: &'b TocBatch) -> Option<&'b LivePlan> {
        let slot = batch.held.as_deref()?;
        Some(slot.get_or_init(|| {
            self.prepare(batch);
            self.plans += 1;
            LivePlan::build_compact(batch.tree_in(&self.tree))
        }))
    }

    /// Run `kernel` on the live plan of `batch`: the one it holds, filled
    /// here if it is still empty, else `plan`, derived unless it already
    /// is this batch's.
    fn with_plan(&mut self, batch: &TocBatch, kernel: impl FnOnce(&LivePlan, &mut BlockScratch)) {
        if let Some(plan) = self.held_plan(batch) {
            return kernel(plan, &mut self.block);
        }
        if self.planned != Some(batch.serial) {
            self.planned = None;
            self.prepare(batch);
            self.plan.rebuild(batch.tree_in(&self.tree));
            self.planned = Some(batch.serial);
            self.plans += 1;
        }
        kernel(&self.plan, &mut self.block)
    }

    /// Grow, on the calling thread, every buffer a matrix kernel on
    /// `batch` through this scratch would grow, so that the kernel, run on
    /// another thread afterwards, allocates nothing there. A plan the
    /// batch holds but has not filled yet is filled here; otherwise only
    /// capacities grow, sized from [`TocBatch::stats`]: nothing is written
    /// and nothing counts as built.
    pub fn reserve(&mut self, batch: &TocBatch) {
        let s = batch.stats();
        if let Some(plan) = self.held_plan(batch) {
            return self.block.reserve(plan.live(), s.rows, s.cols);
        }
        if batch.tree.is_none() {
            self.tree.reserve(&s);
            self.tree_scratch.reserve(&s);
        }
        self.plan.reserve(&s);
        self.block.reserve(s.n_nodes, s.rows, s.cols);
    }

    /// How many times this scratch built a `C'` — for tests that pin how
    /// often a training step prepares its batch.
    #[doc(hidden)]
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// How many times this scratch derived a live plan, into itself or
    /// into the slot of a batch that holds one (see [`Self::builds`]).
    #[doc(hidden)]
    pub fn plans(&self) -> u64 {
        self.plans
    }
}

/// Summary statistics of a compressed batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TocStats {
    pub rows: usize,
    pub cols: usize,
    /// `|I|`: distinct column index:value pairs.
    pub first_layer_len: usize,
    /// Distinct values after value indexing.
    pub unique_values: usize,
    /// `|D|`: total emitted codes.
    pub codes_len: usize,
    /// Prefix-tree node count (root included).
    pub n_nodes: usize,
    pub size_bytes: usize,
}

/// Scan-ready view over the physical buffer: the encoded table `D`, the
/// first layer `I` (via value indexing), and tuple boundaries.
pub struct TocView<'a> {
    pub rows: usize,
    pub cols: usize,
    pub(crate) i_cols: IntSlice<'a>,
    pub(crate) i_validx: IntSlice<'a>,
    pub(crate) values: F64Slice<'a>,
    pub(crate) codes: IntSlice<'a>,
    pub(crate) offsets: IntSlice<'a>,
}

impl TocView<'_> {
    /// `|I|`.
    #[inline]
    pub fn first_layer_len(&self) -> usize {
        self.i_cols.len()
    }

    /// The `i`-th (0-based) first-layer pair; tree node `i + 1`.
    #[inline]
    pub fn first_layer(&self, i: usize) -> ColVal {
        ColVal {
            col: self.i_cols.get(i),
            val: self.values.get(self.i_validx.get(i) as usize),
        }
    }

    /// Total number of codes in `D`.
    #[inline]
    pub fn codes_len(&self) -> usize {
        self.codes.len()
    }

    /// The `k`-th code of the concatenated encoded table.
    #[inline]
    pub fn code(&self, k: usize) -> u32 {
        self.codes.get(k)
    }

    /// Code range `[start, end)` of tuple `r`.
    #[inline]
    pub fn row_range(&self, r: usize) -> (usize, usize) {
        (
            self.offsets.get(r) as usize,
            self.offsets.get(r + 1) as usize,
        )
    }

    /// Visit codes `start..end` with a single width dispatch (hot path of
    /// every kernel's `D` scan).
    #[inline]
    pub fn for_each_code_in(&self, start: usize, end: usize, f: impl FnMut(u32)) {
        self.codes.for_each_range(start, end, f);
    }

    /// Bulk-append codes `start..end` to `out`.
    #[inline]
    pub fn codes_into(&self, start: usize, end: usize, out: &mut Vec<u32>) {
        self.codes.extend_into(start, end, out);
    }
}

fn parse_view(bytes: &[u8]) -> Result<TocView<'_>, TocError> {
    let mut cur = Cursor::new(bytes);
    if cur.read_u32()? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = cur.read_u8()?;
    if version != VERSION {
        return Err(TocError::Unsupported(format!("version {version}")));
    }
    let codec = cur.read_u8()?;
    if codec > 1 {
        return Err(TocError::Unsupported(format!("codec {codec}")));
    }
    let pad = cur.read_u16()?;
    if pad != 0 {
        return Err(corrupt("nonzero header padding"));
    }
    let rows = cur.read_u32()? as usize;
    let cols = cur.read_u32()? as usize;
    let i_cols = cur.read_ints()?;
    let values = cur.read_f64s()?;
    let i_validx = cur.read_ints()?;
    let codes = cur.read_ints()?;
    let offsets = cur.read_ints()?;
    if cur.remaining() != 0 {
        return Err(corrupt("trailing bytes"));
    }
    Ok(TocView {
        rows,
        cols,
        i_cols,
        i_validx,
        values,
        codes,
        offsets,
    })
}

/// Locate `(payload_start, value_count)` of the unique-value section.
fn locate_values_section(bytes: &[u8]) -> Result<(usize, usize), TocError> {
    let mut cur = Cursor::new(bytes);
    let _ = cur.read_u32()?; // magic
    let _ = cur.read_u8()?;
    let _ = cur.read_u8()?;
    let _ = cur.read_u16()?;
    let _ = cur.read_u32()?;
    let _ = cur.read_u32()?;
    let _ = cur.read_ints()?; // I cols
    let count = cur.read_u32()? as usize;
    Ok((cur.position(), count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fig3() -> DenseMatrix {
        DenseMatrix::from_rows(vec![
            vec![1.1, 2.0, 3.0, 1.4],
            vec![1.1, 2.0, 3.0, 0.0],
            vec![0.0, 1.1, 3.0, 1.4],
            vec![1.1, 2.0, 0.0, 0.0],
        ])
    }

    fn random_sparse(
        rng: &mut StdRng,
        rows: usize,
        cols: usize,
        density: f64,
        pool: usize,
    ) -> DenseMatrix {
        let vals: Vec<f64> = (0..pool).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen::<f64>() < density {
                    m.set(r, c, vals[rng.gen_range(0..pool)]);
                }
            }
        }
        m
    }

    #[test]
    fn fig3_value_indexing() {
        // Figure 3: values array [1.1, 2, 3, 1.4], value indexes [0,1,2,3,0].
        let toc = TocBatch::encode(&fig3());
        let view = toc.view();
        assert_eq!(view.values.to_vec(), vec![1.1, 2.0, 3.0, 1.4]);
        let idx: Vec<u32> = view.i_validx.iter().collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 0]);
        let cols: Vec<u32> = view.i_cols.iter().collect();
        assert_eq!(cols, vec![0, 1, 2, 3, 1]); // paper 1-based: 1 2 3 4 2
    }

    #[test]
    fn fig3_physical_sections() {
        let toc = TocBatch::encode(&fig3());
        let view = toc.view();
        let codes: Vec<u32> = view.codes.iter().collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 6, 3, 5, 8, 6]);
        let offs: Vec<u32> = view.offsets.iter().collect();
        assert_eq!(offs, vec![0, 4, 6, 8, 9]);
    }

    #[test]
    fn roundtrip_both_codecs() {
        let mut rng = StdRng::seed_from_u64(42);
        for density in [0.0, 0.1, 0.5, 1.0] {
            let a = random_sparse(&mut rng, 30, 20, density, 6);
            for codec in [PhysicalCodec::BitPack, PhysicalCodec::Varint] {
                let toc = TocBatch::encode_with(&a, codec);
                assert_eq!(toc.decode(), a, "density {density} codec {codec:?}");
                let restored = TocBatch::from_bytes(toc.to_bytes()).unwrap();
                assert_eq!(restored, toc, "density {density} codec {codec:?}");
                assert_eq!(restored.to_bytes(), toc.to_bytes());
                assert_eq!(restored.decode(), a, "density {density} codec {codec:?}");
            }
        }
    }

    #[test]
    fn serialization_roundtrip_with_validation() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_sparse(&mut rng, 25, 15, 0.4, 5);
        let toc = TocBatch::encode(&a);
        let restored = TocBatch::from_bytes(toc.to_bytes()).unwrap();
        assert_eq!(restored, toc);
        assert_eq!(restored.decode(), a);
    }

    #[test]
    fn corrupt_buffers_error_not_panic() {
        let toc = TocBatch::encode(&fig3());
        let good = toc.to_bytes();
        // Bad magic.
        let mut b = good.clone();
        b[0] ^= 0xFF;
        assert!(TocBatch::from_bytes(b).is_err());
        // Truncations at every prefix length must not panic.
        for len in 0..good.len() {
            let _ = TocBatch::from_bytes(good[..len].to_vec());
        }
        // Single-byte corruption anywhere must not panic (may or may not
        // error; decode of an accepted buffer must not panic either).
        for i in 0..good.len() {
            let mut b = good.clone();
            b[i] = b[i].wrapping_add(1);
            if let Ok(t) = TocBatch::from_bytes(b) {
                let _ = t.decode();
            }
        }
    }

    #[test]
    fn scale_rewrites_values_in_place() {
        let a = fig3();
        let mut toc = TocBatch::encode(&a);
        let before = toc.size_bytes();
        toc.scale(2.5);
        assert_eq!(toc.size_bytes(), before);
        let mut expect = a.clone();
        expect.scale(2.5);
        assert_eq!(toc.decode(), expect);
    }

    #[test]
    fn scale_by_zero_is_safe() {
        let mut toc = TocBatch::encode(&fig3());
        toc.scale(0.0);
        assert_eq!(toc.decode(), {
            let mut m = fig3();
            m.scale(0.0);
            m
        });
    }

    #[test]
    fn add_scalar_matches_dense() {
        let a = fig3();
        let toc = TocBatch::encode(&a);
        assert_eq!(toc.add_scalar(1.5), a.add_scalar(1.5));
    }

    #[test]
    fn stats_match_fig3() {
        let toc = TocBatch::encode(&fig3());
        let s = toc.stats();
        assert_eq!(s.first_layer_len, 5);
        assert_eq!(s.unique_values, 4);
        assert_eq!(s.codes_len, 9);
        assert_eq!(s.n_nodes, 11);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let toc = TocBatch::encode(&fig3());
        assert!(matches!(
            toc.matvec(&[1.0; 3]),
            Err(TocError::Dimension { .. })
        ));
        assert!(matches!(
            toc.vecmat(&[1.0; 5]),
            Err(TocError::Dimension { .. })
        ));
    }

    #[test]
    fn compresses_redundant_data_well() {
        // 250 rows drawn from 4 distinct row patterns: TOC should be far
        // smaller than DEN and also smaller than raw CSR pairs.
        let patterns: Vec<Vec<f64>> = vec![
            (0..60)
                .map(|c| if c % 3 == 0 { 1.5 } else { 0.0 })
                .collect(),
            (0..60)
                .map(|c| if c % 4 == 0 { 2.5 } else { 0.0 })
                .collect(),
            (0..60)
                .map(|c| if c % 5 == 0 { 1.5 } else { 0.0 })
                .collect(),
            (0..60)
                .map(|c| if c % 6 == 0 { 3.5 } else { 0.0 })
                .collect(),
        ];
        let rows: Vec<Vec<f64>> = (0..250).map(|r| patterns[r % 4].clone()).collect();
        let a = DenseMatrix::from_rows(rows);
        let toc = TocBatch::encode(&a);
        let den = a.den_size_bytes();
        assert!(
            (den as f64) / (toc.size_bytes() as f64) > 20.0,
            "ratio {}",
            den as f64 / toc.size_bytes() as f64
        );
    }

    #[test]
    fn varint_codec_kernels_agree_with_bitpack() {
        let mut rng = StdRng::seed_from_u64(77);
        let a = random_sparse(&mut rng, 40, 25, 0.3, 4);
        let v: Vec<f64> = (0..25).map(|i| (i as f64).sin()).collect();
        let b1 = TocBatch::encode_with(&a, PhysicalCodec::BitPack);
        let b2 = TocBatch::encode_with(&a, PhysicalCodec::Varint);
        assert_eq!(b1.matvec(&v).unwrap(), b2.matvec(&v).unwrap());
    }
}
