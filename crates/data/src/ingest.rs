//! Streaming row ingestion: bounded-memory chunked encode into a live
//! store or a seekable `.tocz` container.
//!
//! [`EncodeWorkspace`] is the one chunker of this crate and of `toc`:
//! rows arrive one at a time (CSV, a container segment, a synth
//! generator), stage in the reusable workspace bounded by
//! `chunk_rows × cols`, and each full chunk is *sealed* — scheme chosen
//! per chunk via [`toc_formats::pick_and_encode`] over
//! [`Scheme::AUTO_SET`] (or fixed), encoded, and appended to its sink —
//! after which the staging buffers are handed back for the next chunk. Peak ingest memory is therefore a
//! function of the chunk shape alone, never of how many rows flow
//! through; [`EncodeWorkspace::peak_bytes`] tracks the high-water mark so
//! tests and the `ingest_scaling` bench gate can assert exactly that.
//!
//! Three sinks. [`crate::store::StoreBuilder`], in `store`, fills a store
//! that is being built, writing each batch that spills to its shard file
//! as it seals; the two here write what may be read while it grows, and
//! can checkpoint:
//!
//! * [`StoreIngest`] appends sealed segments to a *live*
//!   [`ShardedSpillStore`] ([`ShardedSpillStore::append_sealed`]) while
//!   trainers, tenant readers and the adaptive migrator run concurrently
//!   — the online-training path ([`toc_ml::mgd::Trainer::train_online`],
//!   `toc train --follow`).
//! * [`ContainerIngest`] streams sealed segments through a
//!   [`ContainerStreamWriter`], so a finished stream is a valid seekable
//!   v2 `.tocz` — byte-identical to the one-shot
//!   [`toc_formats::container::Container`] encode of the same rows
//!   (`toc ingest`, `toc compress`).
//!
//! Chunking changes *where* segment boundaries fall, never what a chunk
//! of given rows encodes to: sealing is deterministic in the staged
//! values, which is what the ingest proptests pin down.
//!
//! ## Crash safety
//!
//! Both drivers can periodically persist an [`IngestCheckpoint`] — a
//! checksummed sidecar recording the sealed-chunk watermark (a
//! [`WriterState`] for containers, a [`crate::store::StoreCheckpoint`]
//! for stores), the source byte offset the watermark corresponds to, the
//! running [`IngestStats`], and a hash of the workspace configuration.
//! [`ingest_csv_container`] is the resumable CSV→container driver behind
//! `toc ingest --resume`: on restart it validates the sidecar against
//! the partial output, truncates any torn tail past the watermark,
//! re-opens the CSV at the recorded offset, and continues to a result
//! **byte-identical** to an uninterrupted run — sealing is deterministic
//! in the staged rows, and a sealed chunk is never re-emitted. The
//! `ingest_resume` integration suite kills the driver at every
//! [`KillPoint`] (and at fault-injected torn-write points) to pin this
//! down.

use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use toc_formats::container::{fnv1a64, ContainerStreamWriter, WriterState, ZoneMap};
use toc_formats::wire::Rd;
use toc_formats::{
    pick_and_encode, AnyBatch, ClaPlanner, EncodeOptions, FormatError, MatrixBatch, Scheme,
};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

use crate::csv::{CsvError, CsvStream};
use crate::io::SeekableContainer;
use crate::store::{AppenderToken, ShardedSpillStore};

/// A reusable staging-and-encode workspace: holds up to `chunk_rows`
/// rows, seals them into one encoded segment, and takes its buffer back
/// afterwards. The buffer never grows past `chunk_rows × cols` values,
/// so the workspace's high-water mark ([`EncodeWorkspace::peak_bytes`])
/// is independent of the total number of rows ever pushed — the
/// bounded-memory property streaming ingestion is built on.
pub struct EncodeWorkspace {
    cols: usize,
    chunk_rows: usize,
    stage: Vec<f64>,
    staged_rows: usize,
    peak_bytes: usize,
}

/// One sealed chunk: the per-chunk scheme choice, the encoded segment,
/// and the zone map computed from the staged rows *before* encoding —
/// the same order [`toc_formats::container::Container::encode_with`]
/// uses, which is what makes the streamed container byte-identical to
/// the one-shot encode.
pub struct SealedChunk {
    pub scheme: Scheme,
    pub batch: AnyBatch,
    pub zone: ZoneMap,
    pub rows: usize,
}

impl EncodeWorkspace {
    pub fn new(cols: usize, chunk_rows: usize) -> Self {
        assert!(cols > 0, "ingest needs at least one column");
        assert!(chunk_rows > 0, "ingest needs at least one row per chunk");
        Self {
            cols,
            chunk_rows,
            stage: Vec::with_capacity(cols * chunk_rows),
            staged_rows: 0,
            peak_bytes: 0,
        }
    }

    /// Stage one row. Panics if the row width disagrees with the
    /// workspace or the chunk is already full (callers seal on
    /// [`EncodeWorkspace::is_full`]).
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        assert!(self.staged_rows < self.chunk_rows, "chunk already full");
        self.stage.extend_from_slice(row);
        self.staged_rows += 1;
    }

    pub fn is_full(&self) -> bool {
        self.staged_rows >= self.chunk_rows
    }

    pub fn staged_rows(&self) -> usize {
        self.staged_rows
    }

    /// Seal the staged rows into one encoded segment: compute the zone
    /// map, pick the scheme and encode (`None` = per-chunk auto over
    /// [`Scheme::AUTO_SET`], which keeps the winner's probe encoding
    /// rather than encoding twice), and reclaim the staging buffer. The
    /// result depends on the staged rows alone, never on earlier seals.
    /// Returns `None` when nothing is staged.
    pub fn seal(&mut self, scheme: Option<Scheme>, opts: &EncodeOptions) -> Option<SealedChunk> {
        let zone = |dense: &DenseMatrix| ZoneMap::compute(dense, opts.cla.sample_rows);
        let (scheme, batch, zone, rows) = self.seal_with(scheme, opts, zone)?;
        Some(SealedChunk {
            scheme,
            batch,
            zone,
            rows,
        })
    }

    /// The encode half of [`EncodeWorkspace::seal`], for sinks that keep
    /// no zone maps (the store): `summarize` sees the staged rows before
    /// they are encoded and its result rides along with the picked
    /// scheme, the segment and the row count.
    pub(crate) fn seal_with<Z>(
        &mut self,
        scheme: Option<Scheme>,
        opts: &EncodeOptions,
        summarize: impl FnOnce(&DenseMatrix) -> Z,
    ) -> Option<(Scheme, AnyBatch, Z, usize)> {
        if self.staged_rows == 0 {
            return None;
        }
        let rows = self.staged_rows;
        let dense = DenseMatrix::from_vec(rows, self.cols, std::mem::take(&mut self.stage));
        let summary = summarize(&dense);
        let (picked, batch) = match scheme {
            Some(s) => (s, s.encode_with(&dense, opts)),
            None => pick_and_encode(&dense, &Scheme::AUTO_SET, opts),
        };
        // Reclaim the staging allocation: the dense matrix wrapped our
        // buffer, so taking it back means steady-state ingestion never
        // reallocates the stage.
        self.stage = dense.into_data();
        self.stage.clear();
        self.staged_rows = 0;
        // High-water mark of what this workspace held at the seal point:
        // the staging buffer plus the sealed segment it produced.
        let used = self.stage.capacity() * std::mem::size_of::<f64>() + batch.size_bytes();
        self.peak_bytes = self.peak_bytes.max(used);
        Some((picked, batch, summary, rows))
    }

    /// High-water mark, in bytes, of the staging buffer plus the largest
    /// sealed segment. Flat in the total row count by construction.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
}

/// Counters reported by both ingest drivers (the CLI prints them as the
/// machine-parseable `ingest:` line).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngestStats {
    /// Rows sealed into segments.
    pub rows: u64,
    /// Segments sealed.
    pub chunks: u64,
    /// Encoded bytes across all sealed segments.
    pub encoded_bytes: u64,
    /// Workspace high-water mark ([`EncodeWorkspace::peak_bytes`]).
    pub peak_workspace_bytes: usize,
    /// Sealed-segment count per scheme, in first-seen order — with
    /// per-chunk auto-pick over a drifting stream this is where the
    /// choice visibly changes.
    pub scheme_counts: Vec<(Scheme, u64)>,
}

impl IngestStats {
    fn note(&mut self, scheme: Scheme, rows: usize, encoded: usize) {
        self.rows += rows as u64;
        self.chunks += 1;
        self.encoded_bytes += encoded as u64;
        match self.scheme_counts.iter_mut().find(|(s, _)| *s == scheme) {
            Some((_, n)) => *n += 1,
            None => self.scheme_counts.push((scheme, 1)),
        }
    }

    /// `NAME:count` pairs joined with `,` — e.g. `TOC:3,DEN:1`.
    pub fn scheme_summary(&self) -> String {
        self.scheme_counts
            .iter()
            .map(|(s, n)| format!("{}:{n}", s.name()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Error from the resumable ingest drivers. Keeps the failure domains
/// apart so callers can tell "the disk failed" ([`IngestError::Io`])
/// from "the container writer refused" ([`IngestError::Format`]) from
/// "the source CSV is garbage" ([`IngestError::Csv`]) from "the
/// checkpoint sidecar does not match this job"
/// ([`IngestError::Checkpoint`]) — only the last two are the operator's
/// to fix.
#[derive(Debug)]
pub enum IngestError {
    /// An underlying file operation failed (source, output, or sidecar).
    Io(std::io::Error),
    /// The container writer rejected or failed an operation.
    Format(FormatError),
    /// The source CSV stream was malformed.
    Csv(CsvError),
    /// The checkpoint sidecar is corrupt, stale, or inconsistent with
    /// the job configuration or the partial output.
    Checkpoint(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest IO: {e}"),
            IngestError::Format(e) => write!(f, "container: {e}"),
            IngestError::Csv(e) => write!(f, "csv: {e}"),
            IngestError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<FormatError> for IngestError {
    fn from(e: FormatError) -> Self {
        IngestError::Format(e)
    }
}

impl From<CsvError> for IngestError {
    fn from(e: CsvError) -> Self {
        IngestError::Csv(e)
    }
}

/// Streams rows into a *live* [`ShardedSpillStore`]: every full chunk is
/// sealed and appended ([`ShardedSpillStore::append_sealed`]), becoming
/// visible to concurrent trainers atomically. The store must have shard
/// files ([`ShardedSpillStore::open_streaming`]).
///
/// Construction claims the store's single appender slot
/// ([`ShardedSpillStore::try_acquire_appender`]) for the ingest's
/// lifetime, so two `StoreIngest`s can never interleave chunks into one
/// store — [`StoreIngest::try_new`] reports the conflict, `new` panics
/// on it.
pub struct StoreIngest<'a> {
    store: &'a ShardedSpillStore,
    _token: AppenderToken<'a>,
    ws: EncodeWorkspace,
    labels: Vec<f64>,
    scheme: Option<Scheme>,
    encode: EncodeOptions,
    stats: IngestStats,
}

impl<'a> StoreIngest<'a> {
    /// Claim the store's appender slot and set up staging. Panics if
    /// another `StoreIngest` (or raw appender token) is already live on
    /// this store — use [`StoreIngest::try_new`] to handle that case.
    pub fn new(
        store: &'a ShardedSpillStore,
        chunk_rows: usize,
        scheme: Option<Scheme>,
        encode: EncodeOptions,
    ) -> Self {
        Self::try_new(store, chunk_rows, scheme, encode)
            .expect("another StoreIngest already owns this store's appender slot")
    }

    /// Like [`StoreIngest::new`], but returns `None` when the store's
    /// appender slot is already taken instead of panicking.
    pub fn try_new(
        store: &'a ShardedSpillStore,
        chunk_rows: usize,
        scheme: Option<Scheme>,
        encode: EncodeOptions,
    ) -> Option<Self> {
        let token = store.try_acquire_appender()?;
        Some(Self {
            ws: EncodeWorkspace::new(store.num_features(), chunk_rows),
            store,
            _token: token,
            labels: Vec::with_capacity(chunk_rows),
            scheme,
            encode,
            stats: IngestStats::default(),
        })
    }

    /// Resume ingestion into a store restored with
    /// [`ShardedSpillStore::open_streaming_resume`]: validates that the
    /// checkpoint was written by a store ingest with this exact
    /// workspace configuration, then continues the counters where the
    /// checkpoint left them. The caller re-opens the row source at
    /// [`IngestCheckpoint::source_offset`].
    pub fn resume(
        store: &'a ShardedSpillStore,
        chunk_rows: usize,
        scheme: Option<Scheme>,
        encode: EncodeOptions,
        ck: &IngestCheckpoint,
    ) -> Result<Self, IngestError> {
        if ck.kind != CheckpointKind::Store {
            return Err(IngestError::Checkpoint(
                "sidecar is a container checkpoint, not a store checkpoint".into(),
            ));
        }
        let want = ingest_config_hash(store.num_features(), chunk_rows, scheme, &encode);
        if ck.config_hash != want {
            return Err(IngestError::Checkpoint(format!(
                "workspace config hash {:#018x} does not match the checkpoint's {:#018x} \
                 (columns, chunk rows, scheme, or encode options changed)",
                want, ck.config_hash
            )));
        }
        let mut ing = Self::try_new(store, chunk_rows, scheme, encode)
            .ok_or_else(|| IngestError::Checkpoint("store appender slot already taken".into()))?;
        ing.stats = ck.stats.clone();
        Ok(ing)
    }

    /// Stage one row (features + its ±1 label); seals and appends the
    /// chunk when it fills.
    pub fn push_row(&mut self, features: &[f64], label: f64) -> std::io::Result<()> {
        self.ws.push_row(features);
        self.labels.push(label);
        if self.ws.is_full() {
            self.seal_chunk()?;
        }
        Ok(())
    }

    fn seal_chunk(&mut self) -> std::io::Result<()> {
        // A store segment has no footer to put a zone map in.
        let Some((scheme, batch, (), rows)) = self.ws.seal_with(self.scheme, &self.encode, |_| ())
        else {
            return Ok(());
        };
        let bytes = batch.to_bytes();
        let labels = std::mem::take(&mut self.labels);
        self.labels.reserve(self.ws.chunk_rows);
        self.store.append_sealed(&bytes, labels)?;
        self.stats.note(scheme, rows, bytes.len());
        Ok(())
    }

    /// Rows currently staged (not yet sealed into a chunk).
    pub fn staged_rows(&self) -> usize {
        self.ws.staged_rows()
    }

    /// Running counters over the chunks sealed so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Snapshot a resumable checkpoint: the store's sealed extents
    /// ([`ShardedSpillStore::streaming_checkpoint`]) plus the running
    /// counters and `source_offset`, the byte offset in the row source
    /// that the sealed watermark corresponds to. Rows staged past the
    /// watermark are *not* captured — a resume re-reads them from
    /// `source_offset`.
    pub fn checkpoint(&self, source_offset: u64) -> IngestCheckpoint {
        let mut stats = self.stats.clone();
        stats.peak_workspace_bytes = self.ws.peak_bytes();
        IngestCheckpoint {
            kind: CheckpointKind::Store,
            config_hash: ingest_config_hash(
                self.store.num_features(),
                self.ws.chunk_rows,
                self.scheme,
                &self.encode,
            ),
            source_offset,
            stats,
            state: self.store.streaming_checkpoint().to_bytes(),
        }
    }

    /// Seal any partial final chunk and report the ingest counters.
    pub fn finish(mut self) -> std::io::Result<IngestStats> {
        self.seal_chunk()?;
        self.stats.peak_workspace_bytes = self.ws.peak_bytes();
        Ok(self.stats)
    }
}

/// Streams rows into a seekable v2 `.tocz` through
/// [`ContainerStreamWriter`]: chunk = container segment. Rows carry all
/// columns (the label column stays in the matrix, exactly like
/// [`ShardedSpillStore::build_from_container`] expects to read it back).
pub struct ContainerIngest<W: std::io::Write> {
    writer: ContainerStreamWriter<W>,
    ws: EncodeWorkspace,
    scheme: Option<Scheme>,
    encode: EncodeOptions,
    stats: IngestStats,
}

impl<W: std::io::Write> ContainerIngest<W> {
    pub fn new(
        sink: W,
        cols: usize,
        chunk_rows: usize,
        scheme: Option<Scheme>,
        encode: EncodeOptions,
    ) -> Result<Self, FormatError> {
        Ok(Self {
            writer: ContainerStreamWriter::new(sink)?,
            ws: EncodeWorkspace::new(cols, chunk_rows),
            scheme,
            encode,
            stats: IngestStats::default(),
        })
    }

    /// Resume over a sink already positioned at the checkpoint's byte
    /// watermark (the partial file truncated back to
    /// [`WriterState::offset`]): reconstructs the stream writer from
    /// `state` without writing anything and continues the counters from
    /// `stats`. `state` must have at least one sealed segment (its
    /// column count pins the staging workspace); checkpoints are only
    /// written after a seal, so a well-formed sidecar always does.
    pub fn resume(
        sink: W,
        chunk_rows: usize,
        scheme: Option<Scheme>,
        encode: EncodeOptions,
        state: WriterState,
        stats: IngestStats,
    ) -> Result<Self, FormatError> {
        let cols = state.cols().ok_or_else(|| {
            FormatError::Corrupt("writer state has no sealed segments to resume from".into())
        })? as usize;
        Ok(Self {
            writer: ContainerStreamWriter::resume(sink, state)?,
            ws: EncodeWorkspace::new(cols, chunk_rows),
            scheme,
            encode,
            stats,
        })
    }

    /// Stage one full-width row; seals and writes the segment when the
    /// chunk fills.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), FormatError> {
        self.ws.push_row(row);
        if self.ws.is_full() {
            self.seal_chunk()?;
        }
        Ok(())
    }

    fn seal_chunk(&mut self) -> Result<(), FormatError> {
        let Some(sealed) = self.ws.seal(self.scheme, &self.encode) else {
            return Ok(());
        };
        let before = self.writer.bytes_written();
        self.writer.append(&sealed.batch, sealed.zone)?;
        let wire = (self.writer.bytes_written() - before) as usize;
        self.stats.note(sealed.scheme, sealed.rows, wire);
        Ok(())
    }

    /// Rows currently staged (not yet sealed into a segment). Drops to
    /// zero exactly when `push_row` seals a chunk — the seam the
    /// resumable driver uses to spot seal boundaries.
    pub fn staged_rows(&self) -> usize {
        self.ws.staged_rows()
    }

    /// Running counters over the segments sealed so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Bytes of sealed segments written so far (the checkpoint byte
    /// watermark — staged rows are not included).
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Flush the sink. Called before persisting a checkpoint so the
    /// sealed bytes the sidecar's watermark points at are actually in
    /// the file, not a userspace buffer.
    pub fn flush(&mut self) -> Result<(), FormatError> {
        self.writer.flush()
    }

    /// The writer's resumable state at the current sealed watermark
    /// (see [`ContainerStreamWriter::state`]).
    pub fn writer_state(&self) -> WriterState {
        self.writer.state()
    }

    /// Seal any partial final chunk, write the layout-tree footer and
    /// postscript, and report `(total container bytes, counters)`.
    pub fn finish(mut self) -> Result<(u64, IngestStats), FormatError> {
        self.seal_chunk()?;
        self.stats.peak_workspace_bytes = self.ws.peak_bytes();
        let total = self.writer.finish()?;
        Ok((total, self.stats))
    }
}

// ---------------------------------------------------------------------------
// Checkpoint sidecars.

/// Which driver wrote an [`IngestCheckpoint`] — the two `state` payloads
/// are not interchangeable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointKind {
    /// `state` is a serialized [`WriterState`] (CSV → `.tocz` container).
    Container,
    /// `state` is a serialized [`crate::store::StoreCheckpoint`]
    /// (CSV → live sharded store).
    Store,
}

/// Hash of everything that must *not* change between the run that wrote
/// a checkpoint and the run resuming from it: resuming with a different
/// column count, chunk size, scheme choice, or CLA planner would splice
/// differently-encoded chunks into one output and silently break the
/// byte-identity guarantee. FNV-1a over the canonical little-endian
/// serialization.
pub fn ingest_config_hash(
    cols: usize,
    chunk_rows: usize,
    scheme: Option<Scheme>,
    encode: &EncodeOptions,
) -> u64 {
    let mut buf = Vec::with_capacity(27);
    buf.extend_from_slice(&(cols as u64).to_le_bytes());
    buf.extend_from_slice(&(chunk_rows as u64).to_le_bytes());
    // 255 = per-chunk auto-pick (no fixed scheme); valid tags are < 12.
    buf.push(scheme.map_or(255, Scheme::tag));
    buf.push(match encode.cla.planner {
        ClaPlanner::Greedy => 0,
        ClaPlanner::SampleMerge => 1,
    });
    buf.extend_from_slice(&(encode.cla.sample_rows as u64).to_le_bytes());
    fnv1a64(&buf)
}

/// The sidecar path for an ingest output: `<out>.ckpt` appended to the
/// full file name (`data.tocz` → `data.tocz.ckpt`), so the pair travels
/// together and a glob for the output never picks up the sidecar.
pub fn sidecar_path(out: &Path) -> PathBuf {
    let mut os = out.as_os_str().to_os_string();
    os.push(".ckpt");
    PathBuf::from(os)
}

/// `"TCKP"`.
const SIDECAR_MAGIC: u32 = 0x5443_4B50;
const SIDECAR_V1: u8 = 1;

/// A persisted ingest checkpoint: everything a fresh process needs to
/// continue an interrupted ingest to a byte-identical result. Serialized
/// with a trailing FNV-1a checksum and written atomically
/// (temp + rename), so a crash *during* a checkpoint write leaves the
/// previous sidecar intact and a torn sidecar is detected, never acted
/// on.
#[derive(Clone, Debug)]
pub struct IngestCheckpoint {
    /// Which driver wrote this (and how to parse `state`).
    pub kind: CheckpointKind,
    /// [`ingest_config_hash`] of the writing run's workspace config.
    pub config_hash: u64,
    /// Byte offset in the row source (CSV) that the sealed watermark
    /// corresponds to: resume re-opens the source here.
    pub source_offset: u64,
    /// Counters as of the watermark.
    pub stats: IngestStats,
    /// Sink-specific resume state ([`WriterState`] or
    /// [`crate::store::StoreCheckpoint`] bytes).
    pub state: Vec<u8>,
}

impl IngestCheckpoint {
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.state.len());
        out.extend_from_slice(&SIDECAR_MAGIC.to_le_bytes());
        out.push(SIDECAR_V1);
        out.push(match self.kind {
            CheckpointKind::Container => 0,
            CheckpointKind::Store => 1,
        });
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.source_offset.to_le_bytes());
        out.extend_from_slice(&self.stats.rows.to_le_bytes());
        out.extend_from_slice(&self.stats.chunks.to_le_bytes());
        out.extend_from_slice(&self.stats.encoded_bytes.to_le_bytes());
        out.extend_from_slice(&(self.stats.peak_workspace_bytes as u64).to_le_bytes());
        debug_assert!(self.stats.scheme_counts.len() <= u8::MAX as usize);
        out.push(self.stats.scheme_counts.len() as u8);
        for &(scheme, count) in &self.stats.scheme_counts {
            out.push(scheme.tag());
            out.extend_from_slice(&count.to_le_bytes());
        }
        out.extend_from_slice(&(self.state.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.state);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IngestError> {
        let bad = |m: &str| IngestError::Checkpoint(m.to_string());
        if bytes.len() < 8 {
            return Err(bad("sidecar too short"));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if fnv1a64(body) != sum {
            return Err(bad("sidecar checksum mismatch (torn or corrupt)"));
        }
        Self::parse_body(body).map_err(|e| match e {
            FormatError::Corrupt(m) => IngestError::Checkpoint(format!("sidecar {m}")),
            other => IngestError::Checkpoint(other.to_string()),
        })
    }

    /// The checksummed body. `Rd` bounds-checks every read against the
    /// bytes that remain, so no length the sidecar claims (`state_len`
    /// included) can index past the end or overflow an offset.
    fn parse_body(body: &[u8]) -> Result<Self, FormatError> {
        let corrupt = |m: String| FormatError::Corrupt(m);
        let mut rd = Rd::new(body);
        if rd.u32()? != SIDECAR_MAGIC {
            return Err(corrupt("magic is wrong".into()));
        }
        if rd.u8()? != SIDECAR_V1 {
            return Err(corrupt("version is unsupported".into()));
        }
        let kind = match rd.u8()? {
            0 => CheckpointKind::Container,
            1 => CheckpointKind::Store,
            k => return Err(corrupt(format!("kind {k} is unknown"))),
        };
        let config_hash = rd.u64()?;
        let source_offset = rd.u64()?;
        let mut stats = IngestStats {
            rows: rd.u64()?,
            chunks: rd.u64()?,
            encoded_bytes: rd.u64()?,
            peak_workspace_bytes: rd.u64()? as usize,
            scheme_counts: Vec::new(),
        };
        for _ in 0..rd.u8()? {
            let tag = rd.u8()?;
            let scheme = scheme_from_tag(tag)
                .ok_or_else(|| corrupt(format!("names unknown scheme tag {tag}")))?;
            stats.scheme_counts.push((scheme, rd.u64()?));
        }
        let state_len = usize::try_from(rd.u64()?).unwrap_or(usize::MAX);
        let state = rd.take(state_len)?.to_vec();
        rd.done()?;
        Ok(Self {
            kind,
            config_hash,
            source_offset,
            stats,
            state,
        })
    }

    /// Write the sidecar atomically: serialize to `<path>.tmp`, fsync,
    /// rename over `path`. A crash mid-write can only lose the *new*
    /// checkpoint, never corrupt the previous one.
    pub fn write_atomic(&self, path: &Path) -> Result<(), IngestError> {
        let mut tmp_os = path.as_os_str().to_os_string();
        tmp_os.push(".tmp");
        let tmp = PathBuf::from(tmp_os);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read and validate a sidecar from disk.
    pub fn read(path: &Path) -> Result<Self, IngestError> {
        Self::from_bytes(&fs::read(path)?)
    }
}

fn scheme_from_tag(tag: u8) -> Option<Scheme> {
    Scheme::ALL.iter().copied().find(|s| s.tag() == tag)
}

// ---------------------------------------------------------------------------
// The resumable CSV → container driver.

/// Where the kill-matrix tests interrupt [`ingest_csv_container_killable`]
/// — each variant models a distinct crash window of the real driver.
/// When the condition fires the driver flushes its sink (the bytes a
/// real crash would leave visible in the file after the OS writes out
/// the page cache) and returns with [`CsvIngestOutcome::killed`] set
/// instead of finishing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// After `staged` rows (≥ 1) are staged on top of `chunks` sealed
    /// chunks: staged rows live only in the workspace, so a crash here
    /// loses them from the output but not from the source.
    AfterStagedRows { chunks: u64, staged: usize },
    /// Immediately after the `chunks`-th chunk seals, *before* any
    /// checkpoint write — the sidecar on disk (if any) is one or more
    /// chunks behind the file.
    AfterSealedChunk { chunks: u64 },
    /// Immediately after the checkpoint following the `chunks`-th chunk
    /// is persisted — sidecar and file agree exactly.
    AfterCheckpoint { chunks: u64 },
    /// After [`ContainerIngest::finish`] wrote the footer but before the
    /// sidecar was cleaned up — the output is complete and the stale
    /// sidecar must be recognized as such on resume.
    AfterFooter,
}

/// One resumable CSV → `.tocz` ingest job.
pub struct CsvContainerJob {
    /// Source CSV (numeric, optional header line).
    pub csv: PathBuf,
    /// Output container path.
    pub out: PathBuf,
    /// Rows per sealed segment.
    pub chunk_rows: usize,
    /// Fixed scheme, or `None` for per-chunk auto-pick.
    pub scheme: Option<Scheme>,
    pub encode: EncodeOptions,
    /// Persist a checkpoint sidecar every this many sealed chunks;
    /// `0` disables checkpointing entirely (no sidecar is ever written).
    pub checkpoint_every: u64,
}

/// What [`ingest_csv_container`] did.
#[derive(Clone, Debug)]
pub struct CsvIngestOutcome {
    /// Total bytes in the output: the finished container size, or the
    /// sealed watermark when `killed` is set.
    pub total_bytes: u64,
    /// Counters over all sealed chunks — including the ones restored
    /// from a checkpoint, so a resumed run reports the same totals as an
    /// uninterrupted one.
    pub stats: IngestStats,
    /// Chunks restored from a checkpoint (0 for a fresh or restarted
    /// run).
    pub resumed_chunks: u64,
    /// Column count of the ingested rows.
    pub cols: usize,
    /// The test-only kill point that fired, if any.
    pub killed: Option<KillPoint>,
}

/// Run a CSV → container ingest, optionally resuming from a checkpoint
/// sidecar (`<out>.ckpt`).
///
/// With `resume` set the driver inspects the sidecar and partial output
/// before touching the source:
///
/// * output already a complete v2 container (crash after the footer,
///   before sidecar cleanup) → removed sidecar, counters reconstructed
///   from the footer, nothing re-ingested;
/// * valid sidecar + output at least as long as its watermark → torn
///   tail truncated, writer and CSV re-opened at the watermark, ingest
///   continues — never re-emitting a sealed chunk;
/// * no sidecar (crash before the first checkpoint) → clean restart
///   from row zero;
/// * sidecar that fails its checksum, hashes a different workspace
///   config, or outruns the file → [`IngestError::Checkpoint`].
///
/// In every resumable case the final file is byte-identical to an
/// uninterrupted run over the same source.
pub fn ingest_csv_container(
    job: &CsvContainerJob,
    resume: bool,
) -> Result<CsvIngestOutcome, IngestError> {
    ingest_csv_container_killable(job, resume, None)
}

/// [`ingest_csv_container`] with a test-only crash injection point; see
/// [`KillPoint`]. Not part of the stable API.
#[doc(hidden)]
pub fn ingest_csv_container_killable(
    job: &CsvContainerJob,
    resume: bool,
    kill: Option<KillPoint>,
) -> Result<CsvIngestOutcome, IngestError> {
    let sidecar = sidecar_path(&job.out);
    let mut stream;
    let mut ing: Option<ContainerIngest<fs::File>> = None;
    let mut cfg_hash = 0u64;
    let mut resumed_chunks = 0u64;

    let restored = if resume {
        load_container_checkpoint(job, &sidecar)?
    } else {
        None
    };
    match restored {
        Some(Restored::Complete(outcome)) => return Ok(*outcome),
        Some(Restored::At {
            stream: s,
            ing: i,
            config_hash,
            chunks,
        }) => {
            stream = s;
            ing = Some(*i);
            cfg_hash = config_hash;
            resumed_chunks = chunks;
        }
        None => {
            stream = CsvStream::open(&job.csv)?;
        }
    }

    let kill_now = |ing: &mut ContainerIngest<fs::File>,
                    cols: usize,
                    kp: KillPoint|
     -> Result<CsvIngestOutcome, IngestError> {
        ing.flush()?;
        Ok(CsvIngestOutcome {
            total_bytes: ing.bytes_written(),
            stats: ing.stats().clone(),
            resumed_chunks,
            cols,
            killed: Some(kp),
        })
    };

    let mut last_chunks = ing.as_ref().map_or(0, |i| i.stats().chunks);
    loop {
        let row_committed = match stream.next_row()? {
            Some((_, row)) => {
                push_lazy(&mut ing, &mut cfg_hash, job, row)?;
                true
            }
            None => match stream.finish_partial()? {
                Some((_, row)) => {
                    push_lazy(&mut ing, &mut cfg_hash, job, row)?;
                    false // true end of stream after this row
                }
                None => break,
            },
        };
        let ing_ref = ing.as_mut().expect("ingest exists after a pushed row");
        if ing_ref.stats().chunks != last_chunks {
            // A chunk just sealed; stream.offset() is exactly the source
            // watermark for it (the sealing row's line is committed).
            last_chunks = ing_ref.stats().chunks;
            if let Some(kp @ KillPoint::AfterSealedChunk { chunks }) = kill {
                if last_chunks == chunks {
                    return kill_now(ing_ref, stream.cols(), kp);
                }
            }
            if job.checkpoint_every > 0 && last_chunks.is_multiple_of(job.checkpoint_every) {
                ing_ref.flush()?;
                let ck = IngestCheckpoint {
                    kind: CheckpointKind::Container,
                    config_hash: cfg_hash,
                    source_offset: stream.offset(),
                    stats: ing_ref.stats().clone(),
                    state: ing_ref.writer_state().to_bytes(),
                };
                ck.write_atomic(&sidecar)?;
                if let Some(kp @ KillPoint::AfterCheckpoint { chunks }) = kill {
                    if last_chunks == chunks {
                        return kill_now(ing_ref, stream.cols(), kp);
                    }
                }
            }
        }
        if let Some(kp @ KillPoint::AfterStagedRows { chunks, staged }) = kill {
            if staged > 0 && ing_ref.stats().chunks == chunks && ing_ref.staged_rows() == staged {
                return kill_now(ing_ref, stream.cols(), kp);
            }
        }
        if !row_committed {
            break;
        }
    }

    let Some(ing) = ing else {
        return Err(IngestError::Csv(CsvError::Parse("empty CSV".into())));
    };
    let cols = stream.cols();
    let (total_bytes, stats) = ing.finish()?;
    if let Some(kp @ KillPoint::AfterFooter) = kill {
        // Crash window between footer write and sidecar cleanup: the
        // stale sidecar is intentionally left behind.
        return Ok(CsvIngestOutcome {
            total_bytes,
            stats,
            resumed_chunks,
            cols,
            killed: Some(kp),
        });
    }
    if job.checkpoint_every > 0 {
        match fs::remove_file(&sidecar) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(IngestError::Io(e)),
        }
    }
    Ok(CsvIngestOutcome {
        total_bytes,
        stats,
        resumed_chunks,
        cols,
        killed: None,
    })
}

/// Lazily create the container ingest on the first committed row (which
/// pins the column count) and push `row` into it.
fn push_lazy(
    ing: &mut Option<ContainerIngest<fs::File>>,
    cfg_hash: &mut u64,
    job: &CsvContainerJob,
    row: &[f64],
) -> Result<(), IngestError> {
    if ing.is_none() {
        let file = fs::File::create(&job.out)?;
        *cfg_hash = ingest_config_hash(row.len(), job.chunk_rows, job.scheme, &job.encode);
        *ing = Some(ContainerIngest::new(
            file,
            row.len(),
            job.chunk_rows,
            job.scheme,
            job.encode,
        )?);
    }
    ing.as_mut().unwrap().push_row(row)?;
    Ok(())
}

enum Restored {
    /// The output is already a complete container; nothing to do.
    Complete(Box<CsvIngestOutcome>),
    /// Writer and source re-opened at the checkpoint watermark.
    At {
        stream: CsvStream,
        ing: Box<ContainerIngest<fs::File>>,
        config_hash: u64,
        chunks: u64,
    },
}

/// Validate the sidecar against the partial output and reconstruct the
/// resume state. `Ok(None)` means "no sidecar: restart from scratch"
/// (a crash before the first checkpoint leaves exactly that).
fn load_container_checkpoint(
    job: &CsvContainerJob,
    sidecar: &Path,
) -> Result<Option<Restored>, IngestError> {
    let ck = match IngestCheckpoint::read(sidecar) {
        Ok(ck) => ck,
        Err(IngestError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if ck.kind != CheckpointKind::Container {
        return Err(IngestError::Checkpoint(
            "sidecar is a store checkpoint, not a container checkpoint".into(),
        ));
    }
    let state = WriterState::from_bytes(&ck.state)?;
    let cols = state.cols().ok_or_else(|| {
        IngestError::Checkpoint("sidecar has no sealed segments to resume from".into())
    })? as usize;
    let want = ingest_config_hash(cols, job.chunk_rows, job.scheme, &job.encode);
    if ck.config_hash != want {
        return Err(IngestError::Checkpoint(format!(
            "workspace config hash {:#018x} does not match the sidecar's {:#018x} \
             (columns, chunk rows, scheme, or encode options changed)",
            want, ck.config_hash
        )));
    }

    // Crash-after-footer: the output may already be complete. Asked of
    // the file's two ends (three positional reads), not of its contents,
    // so a resume holds no more of the output in memory than the ingest
    // it continues.
    let len = fs::metadata(&job.out)?.len();
    if let Ok(complete) = SeekableContainer::open(&job.out) {
        let footer = complete.footer();
        let mut stats = IngestStats::default();
        for leaf in footer.leaves() {
            let tag = leaf.scheme.expect("footer leaves carry scheme tags");
            let scheme = scheme_from_tag(tag)
                .ok_or_else(|| IngestError::Checkpoint(format!("unknown scheme tag {tag}")))?;
            stats.note(
                scheme,
                (leaf.row_end - leaf.row_start) as usize,
                (leaf.end - leaf.begin) as usize,
            );
        }
        let chunks = stats.chunks;
        match fs::remove_file(sidecar) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(IngestError::Io(e)),
        }
        return Ok(Some(Restored::Complete(Box::new(CsvIngestOutcome {
            total_bytes: len,
            stats,
            resumed_chunks: chunks,
            cols: footer.cols as usize,
            killed: None,
        }))));
    }

    if len < state.offset() {
        return Err(IngestError::Checkpoint(format!(
            "output is {len} bytes but the sidecar watermark is {} — the sidecar outran the file",
            state.offset()
        )));
    }
    // Truncate the torn tail (bytes past the last checkpointed seal) and
    // position the writer at the watermark.
    let mut file = fs::OpenOptions::new().write(true).open(&job.out)?;
    file.set_len(state.offset())?;
    file.seek(SeekFrom::End(0))?;
    let chunks = state.num_segments() as u64;
    let stream = CsvStream::open_at(&job.csv, ck.source_offset, cols)?;
    let ing = ContainerIngest::resume(
        file,
        job.chunk_rows,
        job.scheme,
        job.encode,
        state,
        ck.stats.clone(),
    )?;
    Ok(Some(Restored::At {
        stream,
        ing: Box::new(ing),
        config_hash: ck.config_hash,
        chunks,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StoreCheckpoint, StoreConfig};
    use crate::synth::drifting_matrix;
    use toc_formats::container::Container;
    use toc_ml::mgd::BatchProvider;

    #[test]
    fn streamed_container_matches_one_shot_encode() {
        let m = drifting_matrix(130, 6, 3, 9);
        let opts = EncodeOptions::default();
        let one_shot = Container::encode_with(&m, Scheme::Toc, 40, &opts)
            .to_bytes()
            .unwrap();

        let mut sink = Vec::new();
        let mut ing = ContainerIngest::new(&mut sink, 6, 40, Some(Scheme::Toc), opts).unwrap();
        for r in 0..m.rows() {
            ing.push_row(m.row(r)).unwrap();
        }
        let (total, stats) = ing.finish().unwrap();
        assert_eq!(total as usize, sink.len());
        assert_eq!(sink, one_shot);
        assert_eq!(stats.rows, 130);
        assert_eq!(stats.chunks, 4); // 40+40+40+10
    }

    #[test]
    fn store_ingest_appends_visible_decodable_segments() {
        let config = StoreConfig::new(Scheme::Toc, 50, 0).with_shards(2);
        let store = ShardedSpillStore::open_streaming(5, &config).unwrap();
        let m = drifting_matrix(120, 5, 4, 11);

        let mut ing = StoreIngest::new(&store, 50, None, EncodeOptions::default());
        for r in 0..m.rows() {
            ing.push_row(m.row(r), if r % 2 == 0 { 1.0 } else { -1.0 })
                .unwrap();
        }
        assert_eq!(store.num_batches(), 2); // two full chunks sealed so far
        let stats = ing.finish().unwrap();
        assert_eq!(stats.rows, 120);
        assert_eq!(stats.chunks, 3);
        assert_eq!(store.num_batches(), 3);
        assert_eq!(store.appended_batches(), 3);
        assert_eq!(store.appended_bytes(), stats.encoded_bytes);

        // Round-trip every appended segment through the visit path.
        let mut rows_seen = 0;
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, labels| {
                let dense = b.decode();
                assert_eq!(dense.cols(), 5);
                assert_eq!(labels.len(), dense.rows());
                for r in 0..dense.rows() {
                    assert_eq!(dense.row(r), m.row(rows_seen + r), "row {r} of chunk {i}");
                }
                rows_seen += dense.rows();
            });
        }
        assert_eq!(rows_seen, 120);
    }

    #[test]
    fn second_store_ingest_is_rejected_while_first_is_live() {
        let config = StoreConfig::new(Scheme::Toc, 50, 0).with_shards(2);
        let store = ShardedSpillStore::open_streaming(4, &config).unwrap();
        let ing = StoreIngest::new(&store, 16, Some(Scheme::Toc), EncodeOptions::default());
        assert!(
            StoreIngest::try_new(&store, 16, Some(Scheme::Toc), EncodeOptions::default()).is_none(),
            "two live StoreIngests on one store must be rejected"
        );
        drop(ing);
        // Releasing the first frees the appender slot.
        assert!(
            StoreIngest::try_new(&store, 16, Some(Scheme::Toc), EncodeOptions::default()).is_some()
        );
    }

    #[test]
    fn workspace_peak_is_flat_in_total_rows() {
        let peak_for = |rows: usize| {
            let m = drifting_matrix(rows, 6, 3, 5);
            let mut ws = EncodeWorkspace::new(6, 32);
            let opts = EncodeOptions::default();
            for r in 0..m.rows() {
                ws.push_row(m.row(r));
                if ws.is_full() {
                    ws.seal(None, &opts).unwrap();
                }
            }
            ws.seal(None, &opts);
            ws.peak_bytes()
        };
        let small = peak_for(64);
        let large = peak_for(64 * 16);
        assert!(small > 0);
        assert!(
            (large as f64) <= 1.1 * small as f64,
            "workspace peak grew with total rows: {small} -> {large}"
        );
    }

    #[test]
    fn sidecar_roundtrips_and_rejects_corruption() {
        let mut stats = IngestStats::default();
        stats.note(Scheme::Toc, 40, 321);
        stats.note(Scheme::Den, 40, 2560);
        stats.note(Scheme::Toc, 40, 330);
        let ck = IngestCheckpoint {
            kind: CheckpointKind::Container,
            config_hash: 0xDEAD_BEEF_0BAD_CAFE,
            source_offset: 12_345,
            stats: stats.clone(),
            state: vec![1, 2, 3, 4, 5],
        };
        let bytes = ck.to_bytes();
        let back = IngestCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.kind, CheckpointKind::Container);
        assert_eq!(back.config_hash, ck.config_hash);
        assert_eq!(back.source_offset, 12_345);
        assert_eq!(back.stats, stats);
        assert_eq!(back.state, vec![1, 2, 3, 4, 5]);

        // One flipped bit anywhere fails the checksum.
        let mut tampered = bytes.clone();
        tampered[7] ^= 0x01;
        assert!(matches!(
            IngestCheckpoint::from_bytes(&tampered),
            Err(IngestError::Checkpoint(_))
        ));
        // Truncation is detected too.
        assert!(matches!(
            IngestCheckpoint::from_bytes(&bytes[..bytes.len() - 3]),
            Err(IngestError::Checkpoint(_))
        ));
    }

    /// Overwrite `bytes`' FNV-1a trailer so a mutated body still passes
    /// the checksum and reaches the field parser.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn hostile_state_len_is_an_error_not_an_overflow() {
        let ck = IngestCheckpoint {
            kind: CheckpointKind::Container,
            config_hash: 1,
            source_offset: 2,
            stats: IngestStats::default(),
            state: vec![9; 5],
        };
        let mut bytes = ck.to_bytes();
        // `state_len` is the u64 right before the state payload + trailer.
        let at = bytes.len() - 8 - ck.state.len() - 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            IngestCheckpoint::from_bytes(&bytes),
            Err(IngestError::Checkpoint(_))
        ));
    }

    #[test]
    fn sidecar_truncations_and_flips_never_panic() {
        // A real store-kind sidecar: its `state` is a `StoreCheckpoint`.
        let config = StoreConfig::new(Scheme::Toc, 50, 0).with_shards(2);
        let store = ShardedSpillStore::open_streaming(4, &config).unwrap();
        let mut ing = StoreIngest::new(&store, 8, Some(Scheme::Toc), EncodeOptions::default());
        let m = drifting_matrix(40, 4, 3, 5);
        for r in 0..m.rows() {
            ing.push_row(m.row(r), 1.0).unwrap();
        }
        let ck = ing.checkpoint(777);
        let inner = ck.state.clone();
        let outer = ck.to_bytes();
        assert!(StoreCheckpoint::from_bytes(&inner).is_ok());

        for len in 0..outer.len() {
            assert!(IngestCheckpoint::from_bytes(&outer[..len]).is_err());
        }
        for len in 0..inner.len() {
            assert!(StoreCheckpoint::from_bytes(&inner[..len]).is_err());
        }
        for pos in 0..outer.len() {
            for bit in 0..8 {
                let mut b = outer.clone();
                b[pos] ^= 1 << bit;
                assert!(IngestCheckpoint::from_bytes(&b).is_err(), "checksum");
                // Past the checksum the flipped field may be legitimate
                // data (a counter, a hash); it must parse or error cleanly.
                reseal(&mut b);
                if let Ok(ck) = IngestCheckpoint::from_bytes(&b) {
                    let _ = StoreCheckpoint::from_bytes(&ck.state);
                }
            }
        }
    }

    #[test]
    fn config_hash_pins_every_knob() {
        let base = ingest_config_hash(6, 40, Some(Scheme::Toc), &EncodeOptions::default());
        assert_eq!(
            base,
            ingest_config_hash(6, 40, Some(Scheme::Toc), &EncodeOptions::default())
        );
        assert_ne!(
            base,
            ingest_config_hash(7, 40, Some(Scheme::Toc), &EncodeOptions::default())
        );
        assert_ne!(
            base,
            ingest_config_hash(6, 41, Some(Scheme::Toc), &EncodeOptions::default())
        );
        assert_ne!(
            base,
            ingest_config_hash(6, 40, None, &EncodeOptions::default())
        );
        let mut greedy = EncodeOptions::default();
        greedy.cla = toc_formats::ClaOptions::greedy();
        assert_ne!(base, ingest_config_hash(6, 40, Some(Scheme::Toc), &greedy));
    }
}
