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
//! tests and the `ingest` figure of the paper scoreboard can hold it to
//! exactly that.
//!
//! Three sinks. [`crate::store::StoreBuilder`], in `store`, fills a store
//! that is being built, writing each batch that spills to its shard file
//! as it seals; the two here write what may be read while it grows:
//!
//! * [`StoreIngest`] appends sealed segments to a *live*
//!   [`ShardedSpillStore`] ([`ShardedSpillStore::append_sealed`]) while
//!   trainers and tenant readers run concurrently — the online-training
//!   path ([`toc_ml::mgd::Trainer::train_online`], `toc train --follow`).
//! * [`ContainerIngest`] streams sealed segments through a
//!   [`ContainerStreamWriter`], so a finished stream is a valid seekable
//!   v2 `.tocz` — byte-identical to the one-shot
//!   [`toc_formats::container::Container`] encode of the same rows
//!   (`toc ingest`, `toc compress`).
//!
//! Both seal on one seal line: each full stage goes to one queue served
//! by a seal worker per core, and at most workers + 1 chunks are between
//! hand-off and append. One routine appends the sealed segments strictly
//! in hand-off order, and which thread runs it is the only difference
//! between the sinks: the caller's for a container (the sink never leaves
//! it), the depositing worker's for a store, so a sealed chunk is visible
//! without waiting for the next row. The bytes and counters of both are
//! those of a serial seal. Their reported peak is the live high-water
//! mark of the stage buffers and the sealed segments not yet appended:
//! O(workers · chunk), at most workers + 2 stages and workers + 1
//! segments, and how close it comes to that depends on how the seals
//! overlapped. The line's protocol — that bound, the hand-off order, the
//! first failure stopping the line — is one state type's transitions
//! (`LineState`), which the threads only call under a lock; this
//! module's tests check it over every interleaving of a caller and 1 to
//! 4 workers, so the bound is checked, not only stated.
//!
//! A chunk goes to the line as staged rows or as text. The CSV driver
//! ([`ingest_csv_container`]) does not parse: its caller frames each
//! chunk's lines ([`CsvStream`] finds line ends and converts no cell) and
//! hands the raw block over, and a worker parses it with the reader's own
//! scan into the stage buffer that came with it and seals it, so one
//! chunk goes from text to segment on one core. A bad line's error waits
//! in its chunk's place and stops the line when that place comes up to be
//! appended, as a failed append would: the ingest fails with the first bad
//! line in file order, under the row number the serial reader gives, and
//! no later segment is appended. The framed blocks in flight, at most
//! workers + 2, count in the peak beside the stages and segments.
//!
//! Chunking changes *where* segment boundaries fall, never what a chunk
//! of given rows encodes to: sealing is deterministic in the staged
//! values, which is what the ingest proptests pin down.
//!
//! ## Crash safety
//!
//! One ingest resumes: [`ingest_csv_container`], the CSV→container loop
//! behind `toc ingest --checkpoint-every` / `--resume`. Every few sealed
//! chunks it syncs the output and then [`commit`]s an [`IngestCheckpoint`]
//! — a checksummed sidecar recording the container writer's sealed
//! watermark (a [`WriterState`]), the source byte offset the watermark
//! corresponds to, the running [`IngestStats`], and a hash of the
//! workspace configuration. On restart it validates the sidecar against
//! the partial output, truncates any torn tail past the watermark,
//! re-opens the CSV at the recorded offset, and continues to a result
//! **byte-identical** to an uninterrupted run — sealing is deterministic
//! in the staged rows, and a sealed chunk is never re-emitted.
//!
//! The driver counts seals by hand-off ([`ContainerIngest::handed_off`]),
//! and it drains the seal workers ([`ContainerIngest::flush`]) before
//! every checkpoint commit, every kill point and `finish`: at each of
//! them the file holds exactly the chunks handed off, so the source
//! offset, the [`WriterState`] and the sidecar mean what they would
//! mean if every chunk were sealed and appended before the next row. The
//! `ingest_resume` integration suite kills the driver at every
//! [`KillPoint`] (and at fault-injected torn-write points) to pin this
//! down. A [`StoreIngest`] writes no sidecar: nothing reopens a streaming
//! store's shard files once its process has ended.

use std::collections::VecDeque;
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use toc_formats::container::{
    fnv1a64, ContainerStreamWriter, SeekableContainer, WriterState, ZoneMap,
};
use toc_formats::wire::Rd;
use toc_formats::{pick_and_encode, AnyBatch, EncodeOptions, FormatError, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

use crate::csv::{self, CsvError, CsvStream, SinkError};
use crate::io::{lock, wait, Workers};
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
    /// rather than encoding twice), and reclaim the staging buffer. The result depends on the staged
    /// rows alone, never on earlier seals. Returns `None` when nothing is
    /// staged.
    pub fn seal(&mut self, scheme: Option<Scheme>, opts: &EncodeOptions) -> Option<SealedChunk> {
        let dense = self.take_stage()?;
        let encode = |dense| encode_chunk(dense, scheme, opts);
        let (sealed, stage) = seal_chunk(dense, opts.cla.sample_rows, encode);
        self.reclaim(stage, &sealed.batch);
        Some(sealed)
    }

    /// The encode half of [`EncodeWorkspace::seal`], for sinks that keep
    /// no zone maps (the store): the picked scheme, the segment and the
    /// row count.
    pub(crate) fn seal_with(
        &mut self,
        scheme: Option<Scheme>,
        opts: &EncodeOptions,
    ) -> Option<(Scheme, AnyBatch, usize)> {
        let dense = self.take_stage()?;
        let rows = dense.rows();
        let (picked, batch, stage) = encode_chunk(dense, scheme, opts);
        self.reclaim(stage, &batch);
        Some((picked, batch, rows))
    }

    /// Stage into the sealed chunk's buffer again, so steady-state
    /// ingestion never reallocates the stage, and note the high-water
    /// mark of the seal point: the staging buffer plus the sealed
    /// segment it produced.
    fn reclaim(&mut self, stage: Vec<f64>, batch: &AnyBatch) {
        self.stage = stage;
        let used = self.stage.capacity() * std::mem::size_of::<f64>() + batch.size_bytes();
        self.peak_bytes = self.peak_bytes.max(used);
    }

    /// Hand the staged rows out as one dense chunk, leaving no buffer to
    /// stage into. `None` when nothing is staged.
    fn take_stage(&mut self) -> Option<DenseMatrix> {
        if self.staged_rows == 0 {
            return None;
        }
        let data = std::mem::take(&mut self.stage);
        let rows = std::mem::take(&mut self.staged_rows);
        Some(DenseMatrix::from_vec(rows, self.cols, data))
    }

    /// High-water mark, in bytes, of the staging buffer plus the largest
    /// sealed segment. Flat in the total row count by construction.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
}

/// A chunk encoded: the picked scheme, the segment, and the chunk's
/// buffer cleared for the next stage.
type Encoded = (Scheme, AnyBatch, Vec<f64>);

/// Encode one chunk (`None` = per-chunk auto over [`Scheme::AUTO_SET`],
/// which keeps the winner's probe encoding rather than encoding twice).
/// Depends on the chunk's rows alone, which is what lets the ingest sinks
/// seal chunks on any thread.
fn encode_chunk(dense: DenseMatrix, scheme: Option<Scheme>, opts: &EncodeOptions) -> Encoded {
    let (picked, batch) = match scheme {
        Some(s) => (s, s.encode_with(&dense, opts)),
        None => pick_and_encode(&dense, &Scheme::AUTO_SET, opts),
    };
    let mut stage = dense.into_data();
    stage.clear();
    (picked, batch, stage)
}

/// The chunk's zone map, from the rows before they are encoded, then its
/// `encode`: the one way a chunk becomes a [`SealedChunk`], in a
/// workspace or on a seal worker.
fn seal_chunk(
    dense: DenseMatrix,
    sample_rows: usize,
    encode: impl FnOnce(DenseMatrix) -> Encoded,
) -> (SealedChunk, Vec<f64>) {
    let rows = dense.rows();
    let zone = ZoneMap::compute(&dense, sample_rows);
    let (scheme, batch, stage) = encode(dense);
    let sealed = SealedChunk {
        scheme,
        batch,
        zone,
        rows,
    };
    (sealed, stage)
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
    /// High-water mark of the seal pipeline, set by `finish`, for both
    /// sinks: the stage buffers allocated plus the sealed segments not
    /// yet appended, counted live, and for the CSV driver
    /// ([`ingest_csv_container`]) the framed text blocks too.
    /// O(workers · chunk): at most workers + 2 stages, workers + 2 text
    /// blocks and workers + 1 segments (a bound the seal line's tests
    /// check over every interleaving at 1 to 4 workers), and how close it
    /// comes to that depends on how the seals overlapped, so a short
    /// stream may read lower than a long one.
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
///
/// It seals on every core through the seal line a [`ContainerIngest`]
/// uses, and here the seal workers also append, strictly in hand-off
/// order: the worker that deposits the next chunk in sequence appends it
/// and every chunk already sealed behind it. So a sealed chunk becomes
/// visible without waiting for another row — what a trainer following a
/// paused stream (`toc train --follow`) needs — and the store's bytes
/// and the [`IngestStats`] are those of a serial seal.
///
/// After a failed append every call returns that error and no later
/// chunk is appended; a seal that panics resurfaces as a panic on the
/// caller's thread. Dropping an unfinished ingest appends the chunks
/// already handed off (the staged rows are dropped), joins the workers
/// and only then releases the appender slot; under a full pending budget
/// ([`crate::StoreConfig::with_max_pending`]) it waits for a consumer,
/// as `finish` would.
pub struct StoreIngest<'a> {
    /// Dropped, so its workers joined, before `_token` frees the slot.
    pool: SealLine<StoreChunk, std::io::Error>,
    /// Counters over the chunks appended, kept by the appending worker.
    stats: Arc<Mutex<IngestStats>>,
    _token: AppenderToken<'a>,
}

/// A sealed store segment waiting for its turn to be appended.
struct StoreChunk {
    scheme: Scheme,
    bytes: Vec<u8>,
    labels: Vec<f64>,
    rows: usize,
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
        let appender = store.appender();
        Some(Self::start(
            store.num_features(),
            chunk_rows,
            token,
            move |dense| encode_chunk(dense, scheme, &encode),
            move |bytes, labels| appender.append(bytes, labels),
        ))
    }

    /// The pipeline over a chunk encoder and a sink for the encoded
    /// segments (the store's append path, or a test double).
    fn start(
        cols: usize,
        chunk_rows: usize,
        token: AppenderToken<'a>,
        encode: impl Fn(DenseMatrix) -> Encoded + Send + Sync + 'static,
        sink: impl Fn(&[u8], Vec<f64>) -> std::io::Result<usize> + Send + Sync + 'static,
    ) -> Self {
        let stats = Arc::new(Mutex::new(IngestStats::default()));
        let counted = stats.clone();
        let seal = move |dense: DenseMatrix, labels| {
            let rows = dense.rows();
            let (scheme, batch, stage) = encode(dense);
            // A store segment has no footer to put a zone map in.
            let bytes = batch.to_bytes();
            let held = bytes.len();
            let chunk = StoreChunk {
                scheme,
                bytes,
                labels,
                rows,
            };
            (chunk, held, stage)
        };
        let append = move |chunk: StoreChunk| {
            sink(&chunk.bytes, chunk.labels)?;
            lock(&counted).note(chunk.scheme, chunk.rows, chunk.bytes.len());
            Ok(())
        };
        Self {
            pool: SealLine::spawn(workers(), cols, chunk_rows, seal, Some(Arc::new(append))),
            stats,
            _token: token,
        }
    }

    /// Stage one row (features + its ±1 label); hands the chunk to the
    /// seal workers when it fills.
    pub fn push_row(&mut self, features: &[f64], label: f64) -> std::io::Result<()> {
        self.pool.push_row(features, Some(label), None)
    }

    /// Rows currently staged (not yet handed to the seal workers).
    pub fn staged_rows(&self) -> usize {
        self.pool.ws.staged_rows()
    }

    /// Running counters over the chunks appended so far.
    pub fn stats(&self) -> IngestStats {
        lock(&self.stats).clone()
    }

    /// Hand off any partial final chunk, wait until every chunk is
    /// appended, and report the ingest counters.
    pub fn finish(mut self) -> std::io::Result<IngestStats> {
        let peak = self.pool.finish(None)?;
        let mut stats = self.stats();
        stats.peak_workspace_bytes = peak;
        Ok(stats)
    }
}

/// Run `produce` (a [`StoreIngest`] into a live store, say) on a thread
/// of its own while `consume` runs on the caller's, and return what
/// `consume` returned and what the producer's join gave. `consume` gets a
/// poll that reads `true` until `produce` has ended, on return or on
/// unwind: a consumer that follows the store until it stops growing
/// stops as well when its producer panics, and the panic comes back
/// through the join.
pub fn beside<P: Send, C>(
    produce: impl FnOnce() -> P + Send,
    consume: impl FnOnce(&dyn Fn() -> bool) -> C,
) -> (C, std::thread::Result<P>) {
    /// Marks the producer ended when it drops: on return and on unwind.
    struct Ended<'a>(&'a AtomicBool);
    impl Drop for Ended<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let ended = AtomicBool::new(false);
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let _ended = Ended(&ended);
            produce()
        });
        // Acquire pairs with the guard's Release: once the poll reads
        // false, all the producer did (its last append) is visible here.
        let more = || !ended.load(Ordering::Acquire);
        (consume(&more), producer.join())
    })
}

/// Streams rows into a seekable v2 `.tocz` through
/// [`ContainerStreamWriter`]: chunk = container segment. Rows carry all
/// columns (the label column stays in the matrix, exactly like
/// [`ShardedSpillStore::build_from_container`] expects to read it back).
///
/// It seals on every core through the seal line a [`StoreIngest`] uses,
/// and here the caller's thread appends the sealed segments, strictly in
/// hand-off order, so the sink never leaves it and the container, its
/// zone maps and the [`IngestStats`] are exactly those of sealing one
/// chunk after another. At most workers + 1 chunks are between hand-off
/// and append, and their staging buffers are recycled, so memory is flat
/// in the rows but grows with the cores: about workers + 2 stages and
/// workers + 1 sealed segments at its peak.
///
/// Rows come from [`ContainerIngest::push_row`], staged on the caller.
/// [`ingest_csv_container`] hands the line each chunk's CSV text instead,
/// framed on the caller and parsed on a seal worker; it adds at most
/// workers + 2 text blocks to the peak, and a bad line surfaces as
/// [`IngestError::Csv`] from the call that meets it in hand-off order.
///
/// [`ContainerIngest::stats`], [`ContainerIngest::bytes_written`] and
/// [`ContainerIngest::writer_state`] describe the chunks appended so far;
/// [`ContainerIngest::flush`] appends every chunk handed off first.
/// After a failed append every call returns that error
/// ([`IngestError::Format`]). Dropping an unfinished ingest lets the
/// workers seal what was handed off, appends none of it, and joins them;
/// a seal that panics resurfaces as a panic on the caller's thread.
pub struct ContainerIngest<W: std::io::Write> {
    writer: ContainerStreamWriter<W>,
    pool: SealLine<SealedChunk, IngestError>,
    /// Chunks a resume restored; the line counts from zero.
    resumed: u64,
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
        let writer = ContainerStreamWriter::new(sink)?;
        let sample_rows = encode.cla.sample_rows;
        let encode = move |dense| encode_chunk(dense, scheme, &encode);
        let stats = IngestStats::default();
        Ok(Self::start(
            writer,
            cols,
            chunk_rows,
            sample_rows,
            encode,
            stats,
        ))
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
        let writer = ContainerStreamWriter::resume(sink, state)?;
        let sample_rows = encode.cla.sample_rows;
        let encode = move |dense| encode_chunk(dense, scheme, &encode);
        Ok(Self::start(
            writer,
            cols,
            chunk_rows,
            sample_rows,
            encode,
            stats,
        ))
    }

    /// The pipeline over a chunk encoder; each chunk's zone map is taken
    /// over `sample_rows` rows before `encode` sees it.
    fn start(
        writer: ContainerStreamWriter<W>,
        cols: usize,
        chunk_rows: usize,
        sample_rows: usize,
        encode: impl Fn(DenseMatrix) -> Encoded + Send + Sync + 'static,
        stats: IngestStats,
    ) -> Self {
        let seal = move |dense, _labels| {
            let (sealed, stage) = seal_chunk(dense, sample_rows, &encode);
            let held = sealed.batch.size_bytes();
            (sealed, held, stage)
        };
        Self {
            writer,
            pool: SealLine::spawn(workers(), cols, chunk_rows, seal, None),
            resumed: stats.chunks,
            stats,
        }
    }

    /// `f` on the line, with the caller-side append it pops sealed
    /// chunks into: through the writer, counted by their bytes on the
    /// wire.
    fn on_line<R>(
        &mut self,
        f: impl FnOnce(&mut SealLine<SealedChunk, IngestError>, ContainerAppend<'_, '_>) -> R,
    ) -> R {
        let (writer, stats) = (&mut self.writer, &mut self.stats);
        let mut append = |sealed: SealedChunk| {
            let before = writer.bytes_written();
            writer.append(&sealed.batch, sealed.zone)?;
            let wire = (writer.bytes_written() - before) as usize;
            stats.note(sealed.scheme, sealed.rows, wire);
            Ok(())
        };
        f(&mut self.pool, &mut append)
    }

    /// Stage one full-width row; hands the chunk to the seal workers
    /// when it fills, and appends whatever has sealed in order.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), IngestError> {
        self.on_line(|pool, append| pool.push_row(row, None, Some(append)))
    }

    /// Hand `text`, the lines [`CsvStream`] framed for one chunk from data
    /// row `first_row` on, to the seal workers, which parse it; appends
    /// whatever has sealed in order. A bad line stops the ingest when its
    /// chunk's turn to be appended comes. `text` is left holding a spare
    /// buffer to frame the next chunk into.
    fn push_text(&mut self, text: &mut Vec<u8>, first_row: usize) -> Result<(), IngestError> {
        self.on_line(|pool, append| pool.hand_off_text(text, first_row, Some(append)))
    }

    /// Rows currently staged (not yet handed to the seal workers). Drops
    /// to zero exactly when `push_row` hands a chunk off.
    pub fn staged_rows(&self) -> usize {
        self.pool.ws.staged_rows()
    }

    /// Chunks handed to the seal workers, a resume's restored chunks
    /// included: the count the resumable driver spots seal boundaries by
    /// (an appended chunk may lag its hand-off).
    pub fn handed_off(&self) -> u64 {
        self.resumed + lock(&self.pool.shared.state).handed_off
    }

    /// Running counters over the segments appended so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Bytes of sealed segments written so far (the checkpoint byte
    /// watermark — staged and in-flight rows are not included).
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Append every chunk handed off, then flush the sink. Called before
    /// persisting a checkpoint so the sealed bytes the sidecar's
    /// watermark points at are actually in the file, not in flight or in
    /// a userspace buffer.
    pub fn flush(&mut self) -> Result<(), IngestError> {
        self.on_line(|pool, append| pool.settle(LineState::drained, Some(append)))?;
        Ok(self.writer.flush()?)
    }

    /// The writer's resumable state at the appended watermark (see
    /// [`ContainerStreamWriter::state`]).
    pub fn writer_state(&self) -> WriterState {
        self.writer.state()
    }

    /// Seal any partial final chunk, append everything in flight, write
    /// the layout-tree footer and postscript, and report `(total
    /// container bytes, counters)`.
    pub fn finish(mut self) -> Result<(u64, IngestStats), IngestError> {
        self.stats.peak_workspace_bytes = self.on_line(|pool, append| pool.finish(Some(append)))?;
        let total = self.writer.finish()?;
        Ok((total, self.stats))
    }
}

/// Seal workers per line: one per core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A failure a seal line keeps and hands to every later call: an
/// append's, or the parse of a framed text block's.
trait Fault: Sized {
    fn again(&self) -> Self;

    /// A framed block's parse failure. Only a container's line is handed
    /// text; a store's stages rows alone.
    fn text(e: CsvError) -> Self {
        unreachable!("a line of rows was handed a text block: {e}")
    }
}

impl Fault for std::io::Error {
    fn again(&self) -> Self {
        Self::new(self.kind(), self.to_string())
    }
}

/// A CSV error again, for [`Fault::again`].
fn csv_again(e: &CsvError) -> CsvError {
    match e {
        CsvError::Io(e) => CsvError::Io(e.again()),
        &CsvError::Ragged {
            row,
            fields,
            expected,
        } => CsvError::Ragged {
            row,
            fields,
            expected,
        },
        &CsvError::HeaderNotText(e) => CsvError::HeaderNotText(e),
        CsvError::OffsetPastEnd { offset, path, len } => CsvError::OffsetPastEnd {
            offset: *offset,
            path: path.clone(),
            len: *len,
        },
        CsvError::Empty => CsvError::Empty,
        CsvError::BadNumber { row, cell } => CsvError::BadNumber {
            row: *row,
            cell: cell.clone(),
        },
        CsvError::Sink(SinkError::Io(e)) => CsvError::Sink(SinkError::Io(e.again())),
        &CsvError::Sink(SinkError::NoFeatures { fields }) => {
            CsvError::Sink(SinkError::NoFeatures { fields })
        }
    }
}

impl Fault for IngestError {
    fn again(&self) -> Self {
        match self {
            IngestError::Io(e) => IngestError::Io(e.again()),
            IngestError::Format(e) => IngestError::Format(e.clone()),
            IngestError::Csv(e) => IngestError::Csv(csv_again(e)),
            IngestError::Checkpoint(m) => IngestError::Checkpoint(m.clone()),
        }
    }

    fn text(e: CsvError) -> Self {
        IngestError::Csv(e)
    }
}

/// A chunk on its way to a seal worker, as its caller handed it off.
enum Stage {
    /// Rows staged in the caller's workspace.
    Rows(DenseMatrix),
    /// Whole CSV lines the caller framed, parsed on the worker.
    Text(TextBlock),
}

/// One chunk's CSV lines, as [`CsvStream`] framed them, and the empty
/// stage buffer they are parsed into.
struct TextBlock {
    text: Vec<u8>,
    cols: usize,
    /// Data rows of the stream before this block.
    first_row: usize,
    stage: Vec<f64>,
}

impl TextBlock {
    /// The chunk's rows, parsed into the stage buffer, or the first bad
    /// line's error; and the text buffer, emptied.
    fn parse(mut self) -> (Result<DenseMatrix, CsvError>, Option<Vec<u8>>) {
        let parsed = csv::parse_block(&self.text, self.cols, self.first_row, &mut self.stage);
        self.text.clear();
        let rows = parsed.map(|rows| DenseMatrix::from_vec(rows, self.cols, self.stage));
        (rows, Some(self.text))
    }
}

/// One chunk on its way to a seal worker: the chunk and a store's labels
/// for its rows.
type Job = (Stage, Vec<f64>);

/// A seal line's append, run by the thread that pops the line.
type Append<'a, 'f, T, E> = &'a mut (dyn FnMut(T) -> Result<(), E> + 'f);

/// A container's append, run by its caller.
type ContainerAppend<'a, 'f> = Append<'a, 'f, SealedChunk, IngestError>;

/// The append a line's seal workers run themselves.
type WorkerAppend<T, E> = Arc<dyn Fn(T) -> Result<(), E> + Send + Sync>;

/// The seal line of both ingest sinks. The caller stages rows in its
/// [`EncodeWorkspace`], or frames a chunk's CSV lines, and hands each
/// full stage or text block to one queue; W seal workers take the next
/// job, so a slow chunk holds up only its own worker, parse it if it is
/// text, run the sink's seal under one `catch_unwind` and deposit the
/// sealed chunk (or the parse failure) at its place in hand-off order.
/// One routine ([`Shared::pop`]) appends the in-order prefix of what is
/// deposited, and which thread calls it is the only difference between
/// the sinks: a [`StoreIngest`]'s depositing worker, so a sealed chunk is
/// visible without another row, or a [`ContainerIngest`]'s caller, so its
/// writer never leaves that thread.
///
/// The protocol lives in [`LineState`]: at most W + 1 chunks between
/// hand-off and append, appends in hand-off order, the first stop (a
/// failure met in hand-off order, or a seal's panic) kept and returned by
/// every later call, and the held bytes within W + 2 stages, W + 2 text
/// blocks and W + 1 segments.
/// This module's tests check each of these over every interleaving of a
/// caller and W = 1 to 4 workers; the methods here and [`Shared`]'s only
/// lock, make one transition, notify, and seal or append outside the
/// lock. A seal's panic is re-raised on the caller once the workers are
/// joined. Dropping the line lets the workers seal every job queued (and
/// append it, if they are the appenders) and joins them.
struct SealLine<T, E> {
    ws: EncodeWorkspace,
    /// A store's labels for the staged rows; empty for a container.
    labels: Vec<f64>,
    shared: Arc<Shared<T, E>>,
    workers: Workers,
    /// Bytes of the caller's text buffer counted in `held` so far.
    text_counted: usize,
}

/// What a seal line's caller and workers share.
struct Shared<T, E> {
    state: Mutex<LineState<Job, T, E>>,
    /// Signalled when a job is queued and when the line closes.
    queued: Condvar,
    /// Signalled on every deposit, landing and stop.
    moved: Condvar,
    /// Whether the line stopped, for the caller's per-row check: stored
    /// (`Release`) under the lock after every stop; a caller that loads
    /// it set (`Acquire`) takes the lock to read why.
    broken: AtomicBool,
}

/// A sealed chunk and the bytes it holds, or why it cannot be appended.
type Done<T, E> = Result<(T, usize), E>;

/// Why a seal line stopped.
enum Stop<E> {
    /// An append failed, or a chunk whose turn came did not parse.
    Failed(E),
    /// A seal panicked, with this payload.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// A seal line's protocol, over jobs `J` that seal into chunks `T` and
/// failures `E`. Every change is one method that touches no lock,
/// condvar or thread; the seals and appends happen between them.
struct LineState<J, T, E> {
    /// Seal workers: a chunk is handed off while at most this many are
    /// not appended.
    workers: u64,
    /// Jobs no worker has taken yet, with their places in hand-off order.
    jobs: VecDeque<(u64, J)>,
    /// Chunks handed off.
    handed_off: u64,
    /// No job comes any more: a worker that finds `jobs` empty returns.
    closed: bool,
    /// A place per chunk handed off, from the next one to append on to
    /// the last handed off: the sealed chunk, with the bytes it holds, or
    /// a framed block's parse failure; `None` while it is still sealing.
    ready: VecDeque<Option<Done<T, E>>>,
    /// A thread took the front and is appending it, the lock released.
    popping: bool,
    /// Chunks appended.
    appended: u64,
    /// Stage buffers back from the workers, ready to stage into.
    spare: Vec<Vec<f64>>,
    /// Text buffers back from the workers, ready to frame into.
    spare_text: Vec<Vec<u8>>,
    /// Every stage and text buffer allocated plus the sealed chunks not
    /// yet appended, in bytes, and its high-water mark.
    held: usize,
    peak: usize,
    stop: Option<Stop<E>>,
}

impl<J, T, E> LineState<J, T, E> {
    /// A line of `workers` seal workers whose caller stages into a buffer
    /// of `stage` bytes.
    fn new(workers: usize, stage: usize) -> Self {
        Self {
            workers: workers as u64,
            jobs: VecDeque::new(),
            handed_off: 0,
            closed: false,
            ready: VecDeque::new(),
            popping: false,
            appended: 0,
            spare: Vec::new(),
            spare_text: Vec::new(),
            held: stage,
            peak: stage,
            stop: None,
        }
    }

    fn count(&mut self, bytes: usize) {
        self.held += bytes;
        self.peak = self.peak.max(self.held);
    }

    /// A spare stage buffer for the caller, or `None` once `bytes` are
    /// counted for the new one it allocates.
    fn stage(&mut self, bytes: usize) -> Option<Vec<f64>> {
        self.spare.pop().or_else(|| {
            self.count(bytes);
            None
        })
    }

    /// At most W chunks are not appended, or the line stopped: the caller
    /// may hand off one more.
    fn room(&self) -> bool {
        self.handed_off - self.appended <= self.workers || self.stop.is_some()
    }

    /// Every chunk handed off is appended, or the line stopped.
    fn drained(&self) -> bool {
        self.handed_off == self.appended || self.stop.is_some()
    }

    /// Queue `job` as the next chunk in hand-off order, count the `grown`
    /// bytes the caller's text buffer grew by since it was last counted,
    /// and give the caller a spare text buffer to frame into, if any.
    fn hand_off(&mut self, job: J, grown: usize) -> Option<Vec<u8>> {
        self.jobs.push_back((self.handed_off, job));
        self.ready.push_back(None);
        self.handed_off += 1;
        self.count(grown);
        self.spare_text.pop()
    }

    /// No job is queued and the line is open: a worker waits.
    fn idle(&self) -> bool {
        self.jobs.is_empty() && !self.closed
    }

    /// The next job for a worker, with its place; `None` once the line
    /// is closed and every job taken.
    fn take(&mut self) -> Option<(u64, J)> {
        self.jobs.pop_front()
    }

    /// Put chunk `seq`'s seal, with the bytes it holds, or its parse
    /// failure at its place, and the buffers it spent back as spares.
    fn deposit(&mut self, seq: u64, done: Done<T, E>, spent: (Option<Vec<f64>>, Option<Vec<u8>>)) {
        self.count(done.as_ref().map_or(0, |(_, bytes)| *bytes));
        self.spare.extend(spent.0);
        self.spare_text.extend(spent.1);
        let slot = self.ready.len() - (self.handed_off - seq) as usize;
        self.ready[slot] = Some(done);
    }

    /// Take the next chunk in hand-off order off the line for its
    /// append, if it is deposited, no other thread is appending and the
    /// line has not stopped. The taker appends it, the lock released,
    /// and no one else appends until it has `landed`.
    fn front(&mut self) -> Option<Done<T, E>> {
        if self.popping || self.stop.is_some() {
            return None;
        }
        let done = self.ready.front_mut()?.take()?;
        self.ready.pop_front();
        self.popping = true;
        Some(done)
    }

    /// The chunk `front` gave, holding `bytes`, was appended or failed:
    /// a parse failure lands as a failed append.
    fn landed(&mut self, bytes: usize, landed: Result<(), E>) {
        self.popping = false;
        self.held -= bytes;
        match landed {
            Ok(()) => self.appended += 1,
            Err(e) => self.stop(Stop::Failed(e)),
        }
    }

    /// The one way a line stops, and the first stop wins: a failure met
    /// in hand-off order (an append's, a parse's), or a seal's panic as
    /// soon as it happens, so the caller does not wait on its gap.
    fn stop(&mut self, why: Stop<E>) {
        self.stop.get_or_insert(why);
    }

    fn close(&mut self) {
        self.closed = true;
    }
}

impl<J, T, E: Fault> LineState<J, T, E> {
    /// What a call meets: why the line stopped, a failure again or a
    /// panic's payload, which a later call finds replaced by a note.
    fn check(&mut self) -> Result<(), Stop<E>> {
        match &mut self.stop {
            None => Ok(()),
            Some(Stop::Failed(e)) => Err(Stop::Failed(e.again())),
            Some(Stop::Panicked(payload)) => {
                let again = Box::new("a seal worker panicked, and an earlier call re-raised it");
                Err(Stop::Panicked(std::mem::replace(payload, again)))
            }
        }
    }
}

impl<T: Send + 'static, E: Fault + Send + 'static> SealLine<T, E> {
    /// Start `workers` seal workers. `seal` turns a stage (and a store's
    /// labels) into the sealed chunk, the bytes it holds until it is
    /// appended and the stage buffer; `append`, when given, is the
    /// workers' own, and each worker pops the line after it deposits.
    fn spawn(
        workers: usize,
        cols: usize,
        chunk_rows: usize,
        seal: impl Fn(DenseMatrix, Vec<f64>) -> (T, usize, Vec<f64>) + Send + Sync + 'static,
        append: Option<WorkerAppend<T, E>>,
    ) -> Self {
        let ws = EncodeWorkspace::new(cols, chunk_rows);
        let stage = ws.stage.capacity() * size_of::<f64>();
        let shared = Arc::new(Shared {
            state: Mutex::new(LineState::new(workers, stage)),
            queued: Condvar::new(),
            moved: Condvar::new(),
            broken: AtomicBool::new(false),
        });
        let line = Arc::clone(&shared);
        let workers = Workers::spawn(workers, move |_| line.work(&seal, append.as_deref()));
        Self {
            ws,
            labels: Vec::new(),
            shared,
            workers,
            text_counted: 0,
        }
    }

    /// Stage one row (and a store's label). Hands the chunk off when it
    /// fills.
    fn push_row(
        &mut self,
        row: &[f64],
        label: Option<f64>,
        append: Option<Append<'_, '_, T, E>>,
    ) -> Result<(), E> {
        self.check()?;
        self.restage();
        self.ws.push_row(row);
        self.labels.extend(label);
        if self.ws.is_full() {
            self.hand_off(append)?;
        }
        Ok(())
    }

    /// Give the workspace a buffer again when its last was handed off: a
    /// spare, or a new one while every one is in flight.
    fn restage(&mut self) {
        if self.ws.stage.capacity() == 0 {
            let len = self.ws.cols * self.ws.chunk_rows;
            let spare = lock(&self.shared.state).stage(len * std::mem::size_of::<f64>());
            self.ws.stage = spare.unwrap_or_else(|| Vec::with_capacity(len));
        }
    }

    /// Hand the staged chunk, if any, to the workers once there is room.
    fn hand_off(&mut self, append: Option<Append<'_, '_, T, E>>) -> Result<(), E> {
        self.settle(LineState::room, append)?;
        let Some(dense) = self.ws.take_stage() else {
            return Ok(());
        };
        let rows = self.labels.len();
        let labels = std::mem::replace(&mut self.labels, Vec::with_capacity(rows));
        lock(&self.shared.state).hand_off((Stage::Rows(dense), labels), 0);
        self.shared.queued.notify_one();
        Ok(())
    }

    /// Hand `text`, whole CSV lines holding one chunk's data rows from
    /// data row `first_row` on, to the workers once there is room, with
    /// an empty stage buffer to parse into. `text` is left holding a
    /// spare buffer to frame into.
    fn hand_off_text(
        &mut self,
        text: &mut Vec<u8>,
        first_row: usize,
        append: Option<Append<'_, '_, T, E>>,
    ) -> Result<(), E> {
        self.settle(LineState::room, append)?;
        self.restage();
        let grown = text.capacity() - self.text_counted;
        let block = TextBlock {
            text: std::mem::take(text),
            cols: self.ws.cols,
            first_row,
            stage: std::mem::take(&mut self.ws.stage),
        };
        let spare = lock(&self.shared.state).hand_off((Stage::Text(block), Vec::new()), grown);
        self.shared.queued.notify_one();
        *text = spare.unwrap_or_default();
        self.text_counted = text.capacity();
        Ok(())
    }

    /// Wait until `settled` holds, popping the line with `append` first
    /// and after every wake-up when the caller is its appender.
    fn settle(
        &mut self,
        settled: fn(&LineState<Job, T, E>) -> bool,
        mut append: Option<Append<'_, '_, T, E>>,
    ) -> Result<(), E> {
        let shared = &*self.shared;
        let mut q = lock(&shared.state);
        loop {
            if let Some(append) = append.as_deref_mut() {
                q = shared.pop(q, append);
            }
            if settled(&q) {
                break;
            }
            q = wait(&shared.moved, q);
        }
        drop(q);
        self.check()
    }

    /// Hand off a partial last chunk, wait until every chunk is appended,
    /// and report the line's peak bytes.
    fn finish(&mut self, mut append: Option<Append<'_, '_, T, E>>) -> Result<usize, E> {
        self.hand_off(append.as_deref_mut())?;
        self.settle(LineState::drained, append)?;
        Ok(lock(&self.shared.state).peak)
    }

    /// The failure that stopped the line, or a seal's panic re-raised
    /// once every worker is joined.
    fn check(&mut self) -> Result<(), E> {
        if !self.shared.broken.load(Ordering::Acquire) {
            return Ok(());
        }
        let stop = lock(&self.shared.state).check();
        match stop {
            Ok(()) => Ok(()),
            Err(Stop::Failed(e)) => Err(e),
            Err(Stop::Panicked(payload)) => {
                self.shut_down();
                panic::resume_unwind(payload)
            }
        }
    }
}

impl<T, E> SealLine<T, E> {
    /// Close the queue and join the workers once every job queued ran.
    fn shut_down(&mut self) {
        lock(&self.shared.state).close();
        self.shared.queued.notify_all();
        self.workers.join();
    }
}

impl<T, E> Drop for SealLine<T, E> {
    fn drop(&mut self) {
        self.shut_down();
    }
}

impl<T, E: Fault> Shared<T, E> {
    /// One seal worker: take the next job, parse it if it is text, seal
    /// it, deposit it (or the parse failure) and, with `append`, pop the
    /// line, until the line closes with no job left.
    fn work(
        &self,
        seal: &dyn Fn(DenseMatrix, Vec<f64>) -> (T, usize, Vec<f64>),
        append: Option<&(dyn Fn(T) -> Result<(), E> + Send + Sync)>,
    ) {
        let mut q = lock(&self.state);
        loop {
            while q.idle() {
                q = wait(&self.queued, q);
            }
            let Some((seq, (stage, labels))) = q.take() else {
                return;
            };
            drop(q);
            let sealed = panic::catch_unwind(AssertUnwindSafe(|| {
                let (rows, text) = match stage {
                    Stage::Rows(dense) => (Ok(dense), None),
                    Stage::Text(block) => block.parse(),
                };
                let (done, stage) = match rows.map(|dense| seal(dense, labels)) {
                    Ok((chunk, held, stage)) => (Ok((chunk, held)), Some(stage)),
                    // The line stops at this chunk: nothing stages again.
                    Err(e) => (Err(E::text(e)), None),
                };
                let mut q = lock(&self.state);
                q.deposit(seq, done, (stage, text));
                self.wake(&q);
                if let Some(append) = append {
                    drop(self.pop(q, &mut |chunk| append(chunk)));
                }
            }));
            q = lock(&self.state);
            if let Err(payload) = sealed {
                q.stop(Stop::Panicked(payload));
                self.wake(&q);
            }
        }
    }

    /// Append the chunks at the front of the line in hand-off order, the
    /// lock released for each, unless another thread is appending. Hands
    /// the lock back.
    fn pop<'a>(
        &'a self,
        mut q: MutexGuard<'a, LineState<Job, T, E>>,
        append: Append<'_, '_, T, E>,
    ) -> MutexGuard<'a, LineState<Job, T, E>> {
        while let Some(done) = q.front() {
            drop(q);
            let (bytes, landed) = match done {
                Ok((chunk, bytes)) => (bytes, append(chunk)),
                Err(e) => (0, Err(e)),
            };
            q = lock(&self.state);
            q.landed(bytes, landed);
            self.wake(&q);
        }
        q
    }

    /// Wake the threads waiting on the line's progress, and publish
    /// whether it stopped.
    fn wake(&self, q: &LineState<Job, T, E>) {
        self.broken.store(q.stop.is_some(), Ordering::Release);
        self.moved.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint sidecars.

/// Replace the file at `path` with `bytes`, durably and whole: write
/// `<path>.tmp`, fsync it, rename it over `path`, then fsync the
/// directory so the rename itself survives a power loss. A crash at any
/// step leaves either the previous file or the new one, never a mix; on
/// an error the tmp file is removed and `path` is untouched. The one
/// commit sequence of the workspace: ingest sidecars and the bench
/// history files both go through it.
pub fn commit(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let done = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        fs::File::open(dir)?.sync_all()
    })();
    if done.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    done
}

/// Hash of everything that must *not* change between the run that wrote
/// a checkpoint and the run resuming from it: resuming with a different
/// column count, chunk size, scheme choice, or CLA sample size would
/// splice differently-encoded chunks into one output and silently break
/// the byte-identity guarantee. FNV-1a over the canonical little-endian
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
    // The byte that named the CLA planner while there were two: it keeps
    // the sample planner's value so sidecars written then still resume.
    buf.push(1);
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
/// The kind byte after the version. A container ingest is the only kind
/// written or accepted; the byte stays so existing sidecars still parse.
const SIDECAR_KIND_CONTAINER: u8 = 0;

/// A persisted container-ingest checkpoint: everything a fresh process
/// needs to continue an interrupted [`ingest_csv_container`] to a
/// byte-identical result. Serialized with a trailing FNV-1a checksum and
/// written through [`commit`], so a crash *during* a checkpoint write
/// leaves the previous sidecar intact and a torn sidecar is detected,
/// never acted on.
#[derive(Clone, Debug)]
pub struct IngestCheckpoint {
    /// [`ingest_config_hash`] of the writing run's workspace config.
    pub config_hash: u64,
    /// Byte offset in the row source (CSV) that the sealed watermark
    /// corresponds to: resume re-opens the source here.
    pub source_offset: u64,
    /// Counters as of the watermark.
    pub stats: IngestStats,
    /// The container writer at the watermark.
    pub state: WriterState,
}

impl IngestCheckpoint {
    pub fn to_bytes(&self) -> Vec<u8> {
        let state = self.state.to_bytes();
        let mut out = Vec::with_capacity(64 + state.len());
        out.extend_from_slice(&SIDECAR_MAGIC.to_le_bytes());
        out.push(SIDECAR_V1);
        out.push(SIDECAR_KIND_CONTAINER);
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
        out.extend_from_slice(&(state.len() as u64).to_le_bytes());
        out.extend_from_slice(&state);
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
        let kind = rd.u8()?;
        if kind != SIDECAR_KIND_CONTAINER {
            return Err(corrupt(format!("kind {kind} is not a container ingest")));
        }
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
        let state = WriterState::from_bytes(rd.take(state_len)?)?;
        rd.done()?;
        Ok(Self {
            config_hash,
            source_offset,
            stats,
            state,
        })
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
    /// `0` disables checkpointing entirely (no sidecar is ever written and
    /// the output is never synced).
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

    // Every kill point drains the seal workers first (`flush`), so the
    // file holds exactly the chunks handed off, as a serial seal would.
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

    // The caller frames each chunk's lines, converting no cell, and the
    // seal workers parse them: `text` holds the `staged` data rows framed
    // since the last hand-off, the first of them data row `first_row`.
    let mut text = Vec::new();
    let mut staged = 0usize;
    let mut first_row = stream.rows_read();
    let mut last_chunks = ing.as_ref().map_or(0, ContainerIngest::handed_off);
    loop {
        let mut want = job.chunk_rows - staged;
        if let Some(KillPoint::AfterStagedRows { chunks, staged: at }) = kill {
            if chunks == last_chunks && at > staged {
                want = want.min(at - staged);
            }
        }
        let mut framed = stream.frame_rows(&mut text, want)?;
        let more = framed == want;
        if !more {
            // True end of stream: an unterminated last line is a row too.
            framed += usize::from(stream.frame_partial(&mut text)?);
        }
        staged += framed;
        if staged == 0 {
            break;
        }
        if ing.is_none() {
            // The first data row pins the column count.
            let cols = stream.cols();
            cfg_hash = ingest_config_hash(cols, job.chunk_rows, job.scheme, &job.encode);
            let file = fs::File::create(&job.out)?;
            let new = ContainerIngest::new(file, cols, job.chunk_rows, job.scheme, job.encode);
            ing = Some(new?);
        }
        let ing_ref = ing.as_mut().expect("ingest exists after a framed row");
        if staged == job.chunk_rows {
            ing_ref.push_text(&mut text, first_row)?;
            (staged, first_row) = (0, stream.rows_read());
            // A chunk just went to the seal workers; stream.offset() is
            // exactly the source watermark for it (its last line is
            // framed, the blank lines after it are not).
            last_chunks = ing_ref.handed_off();
            if let Some(kp @ KillPoint::AfterSealedChunk { chunks }) = kill {
                if last_chunks == chunks {
                    return kill_now(ing_ref, stream.cols(), kp);
                }
            }
            if job.checkpoint_every > 0 && last_chunks.is_multiple_of(job.checkpoint_every) {
                // The sidecar may only name bytes that are already on
                // disk: `flush` appends every chunk in flight first, and
                // fails on a bad line in any of them.
                ing_ref.flush()?;
                sync_output(&job.out)?;
                let ck = IngestCheckpoint {
                    config_hash: cfg_hash,
                    source_offset: stream.offset(),
                    stats: ing_ref.stats().clone(),
                    state: ing_ref.writer_state(),
                };
                commit(&sidecar, &ck.to_bytes())?;
                if let Some(kp @ KillPoint::AfterCheckpoint { chunks }) = kill {
                    if last_chunks == chunks {
                        return kill_now(ing_ref, stream.cols(), kp);
                    }
                }
            }
        } else if let Some(kp @ KillPoint::AfterStagedRows { chunks, staged: at }) = kill {
            if last_chunks == chunks && staged == at {
                // The serial reader would have parsed the staged rows by
                // now: a bad one fails the ingest before the kill.
                ing_ref.flush()?;
                csv::parse_block(&text, stream.cols(), first_row, &mut Vec::new())?;
                return kill_now(ing_ref, stream.cols(), kp);
            }
        }
        if !more {
            break;
        }
    }

    let Some(mut ing) = ing else {
        return Err(IngestError::Csv(CsvError::Empty));
    };
    if staged > 0 {
        ing.push_text(&mut text, first_row)?;
    }
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
        retire_sidecar(&job.out, &sidecar)?;
    }
    Ok(CsvIngestOutcome {
        total_bytes,
        stats,
        resumed_chunks,
        cols,
        killed: None,
    })
}

/// Make every byte written to the output so far durable. A fresh handle
/// is enough: `fdatasync` flushes the file's dirty pages and its size,
/// whichever descriptor wrote them.
fn sync_output(out: &Path) -> std::io::Result<()> {
    fs::OpenOptions::new().write(true).open(out)?.sync_data()
}

/// Remove the sidecar of a finished output — after syncing the output, so
/// the sidecar never goes while the container it stood in for could still
/// be lost. An already-missing sidecar is fine.
fn retire_sidecar(out: &Path, sidecar: &Path) -> Result<(), IngestError> {
    sync_output(out)?;
    match fs::remove_file(sidecar) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(IngestError::Io(e)),
        _ => Ok(()),
    }
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
    let state = ck.state;
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
        retire_sidecar(&job.out, sidecar)?;
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
        ck.stats,
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
    use crate::store::StoreConfig;
    use crate::synth::drifting_matrix;
    use std::sync::atomic::AtomicUsize;
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
        // The two full chunks are appended by the seal workers, without
        // another row or `finish`.
        assert!(visible_within(&store, 2), "two full chunks never appeared");
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

    /// Poll `store` until it shows `n` batches; false after ten seconds.
    fn visible_within(store: &ShardedSpillStore, n: usize) -> bool {
        let t0 = std::time::Instant::now();
        while store.num_batches() < n {
            if t0.elapsed() > std::time::Duration::from_secs(10) {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        store.num_batches() == n
    }

    /// A fresh, empty spill directory for one store.
    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("toc-ingest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The contents of a store's shard files, in shard order.
    fn shard_contents(dir: &Path) -> Vec<Vec<u8>> {
        let names = names_in(dir);
        names
            .iter()
            .map(|n| fs::read(dir.join(n)).unwrap())
            .collect()
    }

    /// `StoreIngest` with a partial last chunk at 1, W, W + 1 and W + 2
    /// chunks, fixed and auto scheme: the shard files, the appended bytes
    /// and the counters (first-seen scheme order included) are those of
    /// sealing with one `EncodeWorkspace` and appending one chunk after
    /// another.
    #[test]
    fn store_ingest_is_a_serial_seal_at_every_chunk_count() {
        let (cols, chunk) = (5, 24);
        let opts = EncodeOptions::default();
        let w = workers();
        for scheme in [Some(Scheme::Toc), None] {
            for chunks in [1, w, w + 1, w + 2] {
                let rows = (chunks - 1) * chunk + chunk / 2;
                let m = drifting_matrix(rows, cols, 3, chunks as u64);
                let label = |r: usize| if r.is_multiple_of(3) { 1.0 } else { -1.0 };
                let tag = format!("serial-{}-{chunks}", scheme.is_some());
                let config = |dir: &Path| {
                    StoreConfig::new(Scheme::Toc, chunk, 0)
                        .with_shards(2)
                        .with_spill_dir(dir.to_path_buf())
                };

                let (ref_dir, dir) = (spill_dir(&format!("{tag}-ref")), spill_dir(&tag));
                let reference = ShardedSpillStore::open_streaming(cols, &config(&ref_dir)).unwrap();
                let mut ws = EncodeWorkspace::new(cols, chunk);
                let mut want = IngestStats::default();
                let mut labels = Vec::new();
                for r in 0..rows {
                    ws.push_row(m.row(r));
                    labels.push(label(r));
                    if ws.is_full() || r + 1 == rows {
                        let sealed = ws.seal(scheme, &opts).unwrap();
                        let bytes = sealed.batch.to_bytes();
                        reference
                            .append_sealed(&bytes, std::mem::take(&mut labels))
                            .unwrap();
                        want.note(sealed.scheme, sealed.rows, bytes.len());
                    }
                }

                let store = ShardedSpillStore::open_streaming(cols, &config(&dir)).unwrap();
                let mut ing = StoreIngest::new(&store, chunk, scheme, opts);
                for r in 0..rows {
                    ing.push_row(m.row(r), label(r)).unwrap();
                }
                let mut got = ing.finish().unwrap();
                assert!(got.peak_workspace_bytes > 0, "{tag}");
                got.peak_workspace_bytes = 0;
                assert_eq!(got, want, "{tag}");
                assert_eq!(store.num_batches(), chunks, "{tag}");
                assert_eq!(store.appended_bytes(), reference.appended_bytes(), "{tag}");
                assert_eq!(shard_contents(&dir), shard_contents(&ref_dir), "{tag}");
                for i in 0..chunks {
                    let mut want_labels = Vec::new();
                    reference.visit(i, &mut |_, y| want_labels = y.to_vec());
                    store.visit(i, &mut |_, y| assert_eq!(y, want_labels, "{tag} chunk {i}"));
                }
                drop((store, reference));
                for d in [dir, ref_dir] {
                    fs::remove_dir_all(d).unwrap();
                }
            }
        }
    }

    /// One full chunk, no further row and no `finish`: the seal workers
    /// append it on their own, so a trainer following a paused stream
    /// sees it.
    #[test]
    fn a_full_chunk_is_visible_without_another_row() {
        let config = StoreConfig::new(Scheme::Toc, 16, 0).with_shards(2);
        let store = ShardedSpillStore::open_streaming(4, &config).unwrap();
        let m = drifting_matrix(16, 4, 3, 2);
        let mut ing = StoreIngest::new(&store, 16, None, EncodeOptions::default());
        for r in 0..16 {
            ing.push_row(m.row(r), 1.0).unwrap();
        }
        assert!(visible_within(&store, 1), "the sealed chunk never appeared");
        assert_eq!(ing.stats().chunks, 1);
        drop(ing);
    }

    /// A DEN encoder whose encode of the chunk starting with the value
    /// `poison` panics, holding `alive` for as long as a worker holds it.
    fn rigged_encode(
        poison: f64,
        alive: &Arc<()>,
    ) -> impl Fn(DenseMatrix) -> Encoded + Send + Sync + 'static {
        let alive = alive.clone();
        move |dense| {
            let _held = &alive;
            assert_ne!(dense.get(0, 0), poison, "seal of a poisoned chunk");
            encode_chunk(dense, Some(Scheme::Den), &EncodeOptions::default())
        }
    }

    /// A `StoreIngest` over `store` whose seal of the chunk starting at row
    /// `poison` panics and whose `fail_at`-th append fails; `appends`
    /// counts the append calls and `alive` is held by the workers.
    fn rigged_ingest<'a>(
        store: &'a ShardedSpillStore,
        chunk: usize,
        poison: f64,
        fail_at: usize,
        appends: &Arc<AtomicUsize>,
        alive: &Arc<()>,
    ) -> StoreIngest<'a> {
        let token = store.try_acquire_appender().unwrap();
        let (appender, calls) = (store.appender(), appends.clone());
        StoreIngest::start(
            store.num_features(),
            chunk,
            token,
            rigged_encode(poison, alive),
            move |bytes, labels| {
                if calls.fetch_add(1, Ordering::SeqCst) == fail_at {
                    return Err(std::io::Error::other("injected append failure"));
                }
                appender.append(bytes, labels)
            },
        )
    }

    /// A `ContainerIngest` into `sink` whose seal of the chunk starting at
    /// row `poison` panics; `alive` is held by the workers.
    fn rigged_container<W: Write>(
        sink: W,
        cols: usize,
        chunk: usize,
        poison: f64,
        alive: &Arc<()>,
    ) -> ContainerIngest<W> {
        let writer = ContainerStreamWriter::new(sink).unwrap();
        let encode = rigged_encode(poison, alive);
        let sample_rows = EncodeOptions::default().cla.sample_rows;
        ContainerIngest::start(
            writer,
            cols,
            chunk,
            sample_rows,
            encode,
            IngestStats::default(),
        )
    }

    /// Rows whose first column is the row number, so a chunk is known by
    /// its first value.
    fn numbered_rows(rows: usize, cols: usize) -> DenseMatrix {
        let mut m = drifting_matrix(rows, cols, 3, 4);
        for r in 0..rows {
            m.set(r, 0, r as f64);
        }
        m
    }

    /// A failed append comes out of the next `push_row` or `finish` and
    /// of every call after it; no chunk after it is appended, and the
    /// counters hold exactly the chunks before it.
    #[test]
    fn a_failed_append_is_returned_by_every_later_call() {
        let (cols, chunk) = (4, 8);
        let chunks = workers() + 6;
        let m = numbered_rows(chunks * chunk, cols);
        for fail_at in [0, 2, chunks - 1] {
            let config = StoreConfig::new(Scheme::Den, chunk, 0).with_shards(2);
            let store = ShardedSpillStore::open_streaming(cols, &config).unwrap();
            let appends = Arc::new(AtomicUsize::new(0));
            let alive = Arc::new(());
            let mut ing = rigged_ingest(&store, chunk, -1.0, fail_at, &appends, &alive);
            let mut pushed_err = false;
            for r in 0..m.rows() {
                if ing.push_row(m.row(r), 1.0).is_err() {
                    pushed_err = true;
                    break;
                }
            }
            if pushed_err {
                assert_eq!(ing.stats().chunks, fail_at as u64, "fail_at {fail_at}");
                assert!(ing.push_row(m.row(0), 1.0).is_err(), "fail_at {fail_at}");
                assert!(ing.push_row(m.row(0), 1.0).is_err(), "fail_at {fail_at}");
            }
            // Chunk j is appended before chunk j + W + 1 is handed off.
            if fail_at + workers() + 1 < chunks {
                assert!(
                    pushed_err,
                    "fail_at {fail_at}: push_row never saw the failure"
                );
            }
            let err = ing.finish().unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(store.num_batches(), fail_at, "fail_at {fail_at}");
            assert_eq!(
                appends.load(Ordering::SeqCst),
                fail_at + 1,
                "fail_at {fail_at}"
            );
            assert_eq!(Arc::strong_count(&alive), 1, "workers not joined");
        }
    }

    /// A seal that panics comes out of the caller's next call once every
    /// worker is joined, even while the caller waits on the chunks stuck
    /// behind the gap it leaves; nothing past the gap is appended.
    #[test]
    fn a_panicking_seal_resurfaces_on_the_caller_without_a_hang() {
        let (cols, chunk) = (4, 8);
        let chunks = workers() + 6;
        let m = numbered_rows(chunks * chunk, cols);
        let config = StoreConfig::new(Scheme::Den, chunk, 0).with_shards(2);
        let store = ShardedSpillStore::open_streaming(cols, &config).unwrap();
        let appends = Arc::new(AtomicUsize::new(0));
        let alive = Arc::new(());
        let poisoned = 1;
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ing = rigged_ingest(
                &store,
                chunk,
                (poisoned * chunk) as f64,
                usize::MAX,
                &appends,
                &alive,
            );
            for r in 0..m.rows() {
                ing.push_row(m.row(r), 1.0).unwrap();
            }
            ing.finish()
        }));
        let Err(msg) = caught else {
            panic!("the seal's panic must reach the caller");
        };
        let msg = msg
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("seal of a poisoned chunk"), "{msg}");
        assert_eq!(Arc::strong_count(&alive), 1, "workers not joined");
        assert!(
            store.num_batches() <= poisoned,
            "a chunk past the gap was appended"
        );
        assert!(
            store.try_acquire_appender().is_some(),
            "the slot is still held"
        );
    }

    /// Dropping an unfinished ingest appends every chunk handed off (the
    /// staged half chunk is dropped) before it returns, and then frees the
    /// appender slot.
    #[test]
    fn dropping_a_store_ingest_appends_what_was_handed_off() {
        let (cols, chunk) = (4, 8);
        let handed = workers() + 2;
        let m = numbered_rows(handed * chunk + chunk / 2, cols);
        let config = StoreConfig::new(Scheme::Den, chunk, 0).with_shards(2);
        let store = ShardedSpillStore::open_streaming(cols, &config).unwrap();
        let appends = Arc::new(AtomicUsize::new(0));
        let alive = Arc::new(());
        let mut ing = rigged_ingest(&store, chunk, -1.0, usize::MAX, &appends, &alive);
        for r in 0..m.rows() {
            ing.push_row(m.row(r), 1.0).unwrap();
        }
        assert_eq!(ing.staged_rows(), chunk / 2);
        drop(ing);
        assert_eq!(store.num_batches(), handed);
        assert_eq!(Arc::strong_count(&alive), 1, "workers not joined");
        assert!(
            store.try_acquire_appender().is_some(),
            "the slot is still held"
        );
    }

    /// The store ingest counts its peak as the container ingest does:
    /// at least the staging buffer and a segment, and within what
    /// workers + 1 chunks in flight can hold, at any row count.
    #[test]
    fn store_peak_counts_every_stage_and_stays_flat() {
        let (cols, chunk) = (6, 32);
        let stage = cols * chunk * std::mem::size_of::<f64>();
        for rows in [chunk * 4, chunk * 64] {
            let config = StoreConfig::new(Scheme::Toc, chunk, 0).with_shards(2);
            let store = ShardedSpillStore::open_streaming(cols, &config).unwrap();
            let m = drifting_matrix(rows, cols, 3, 5);
            let mut ing = StoreIngest::new(&store, chunk, None, EncodeOptions::default());
            let workers = ing.pool.workers();
            for r in 0..rows {
                ing.push_row(m.row(r), 1.0).unwrap();
            }
            let peak = ing.finish().unwrap().peak_workspace_bytes;
            assert!(peak > stage, "{rows} rows: peak {peak} <= {stage}");
            assert_peak_within_the_pipeline(peak, workers, stage);
        }
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

    /// The container ingest's peak counts every stage buffer and every
    /// sealed segment waiting to be appended, and stays flat in the rows:
    /// at most workers + 2 stages (one staging, workers + 1 in flight).
    #[test]
    fn container_peak_counts_every_stage_and_stays_flat() {
        let (cols, chunk) = (6, 32);
        let stage = cols * chunk * std::mem::size_of::<f64>();
        let peak_for = |rows: usize| {
            let m = drifting_matrix(rows, cols, 3, 5);
            let mut ing =
                ContainerIngest::new(Vec::new(), cols, chunk, None, EncodeOptions::default())
                    .unwrap();
            let workers = ing.pool.workers();
            for r in 0..m.rows() {
                ing.push_row(m.row(r)).unwrap();
            }
            (ing.finish().unwrap().1.peak_workspace_bytes, workers)
        };
        for rows in [chunk * 4, chunk * 64] {
            let (peak, workers) = peak_for(rows);
            // The chunk handed off and the stage after it, at least.
            assert!(peak >= 2 * stage, "{rows} rows: peak {peak} < 2 x {stage}");
            assert_peak_within_the_pipeline(peak, workers, stage);
        }
    }

    /// The CSV driver counts its framed text blocks beside the stages and
    /// the sealed segments, and its peak stays flat in the chunks: at most
    /// workers + 2 stages and text buffers (a buffer holds at most twice
    /// the longest block framed into it) and workers + 1 segments. Cells
    /// are padded with spaces (trimmed away by the parse) so that one
    /// block outweighs every stage and segment the line can hold: the
    /// lower bound holds only if the blocks are counted.
    #[test]
    fn csv_peak_counts_framed_blocks_and_stays_flat() {
        use std::fmt::Write as _;
        let (cols, chunk) = (6, 32);
        let stage = cols * chunk * std::mem::size_of::<f64>();
        let width = 8 * (3 * workers() + 6);
        let csv = spill_dir("csv-peak").with_extension("csv");
        for chunks in [4, 64] {
            let m = drifting_matrix(chunks * chunk, cols, 3, 5);
            let (mut text, mut first, mut longest) = (String::new(), 0, 0);
            for c in 0..chunks {
                let start = text.len();
                for r in c * chunk..(c + 1) * chunk {
                    let cells: Vec<String> =
                        m.row(r).iter().map(|v| format!("{v:>width$}")).collect();
                    writeln!(text, "{}", cells.join(",")).unwrap();
                }
                longest = longest.max(text.len() - start);
                if c == 0 {
                    first = text.len();
                }
            }
            std::fs::write(&csv, text).unwrap();
            let job = CsvContainerJob {
                csv: csv.clone(),
                out: csv.with_extension("tocz"),
                chunk_rows: chunk,
                scheme: None,
                encode: EncodeOptions::default(),
                checkpoint_every: 0,
            };
            let peak = ingest_csv_container(&job, false)
                .unwrap()
                .stats
                .peak_workspace_bytes;
            fs::remove_file(&job.out).ok();
            let without_text = (workers() + 2) * stage + (workers() + 1) * 2 * stage;
            assert!(first > without_text, "{first} <= {without_text}");
            assert!(
                peak >= stage + first,
                "{chunks} chunks: peak {peak} < a stage {stage} + a block {first}"
            );
            let bound = without_text + (workers() + 2) * 2 * longest;
            assert!(peak <= bound, "{chunks} chunks: peak {peak} past {bound}");
        }
        fs::remove_file(&csv).ok();
    }

    impl<T, E> SealLine<T, E> {
        fn workers(&self) -> usize {
            lock(&self.shared.state).workers as usize
        }
    }

    /// `peak` is at most what `workers` seal workers staging `stage`
    /// bytes can hold: workers + 2 stages and workers + 1 segments.
    fn assert_peak_within_the_pipeline(peak: usize, workers: usize, stage: usize) {
        // A sealed segment here is at most a dense chunk plus framing.
        let bound = (workers + 2) * stage + (workers + 1) * 2 * stage;
        assert!(peak <= bound, "peak {peak} past {bound}");
    }

    /// A bare line fails as a container writer does; it is never handed
    /// text.
    impl Fault for FormatError {
        fn again(&self) -> Self {
            self.clone()
        }

        fn text(e: CsvError) -> Self {
            unreachable!("a line of rows was handed a text block: {e}")
        }
    }

    /// A bare line of `workers` workers sealing `chunk`-row DEN chunks
    /// whose seal holds `alive` and panics on the chunk starting at row
    /// `poison`.
    fn sentinel_line(
        workers: usize,
        alive: &Arc<()>,
        chunk: usize,
        poison: f64,
    ) -> SealLine<usize, FormatError> {
        let encode = rigged_encode(poison, alive);
        SealLine::spawn(
            workers,
            4,
            chunk,
            move |dense, _| (dense.rows(), 0, encode(dense).2),
            None,
        )
    }

    #[test]
    fn dropping_the_line_joins_its_workers_with_chunks_queued() {
        for workers in [1, 2, 5] {
            let alive = Arc::new(());
            let chunk = 8;
            let mut line = sentinel_line(workers, &alive, chunk, -1.0);
            let m = numbered_rows(6 * chunk, 4);
            let mut appended = Vec::new();
            for r in 0..m.rows() {
                let mut append = |rows| {
                    appended.push(rows);
                    Ok(())
                };
                line.push_row(m.row(r), None, Some(&mut append)).unwrap();
            }
            // The caller appends only while it waits for the W + 1 bound,
            // so chunks are still queued or sealed but not appended here.
            let handed_off = lock(&line.shared.state).handed_off;
            assert!(
                handed_off == 6 && appended.len() < 6,
                "W = {workers}: {appended:?}"
            );
            assert!(appended.iter().all(|&rows| rows == chunk));
            drop(line);
            assert_eq!(
                Arc::strong_count(&alive),
                1,
                "W = {workers}: a worker outlived its line"
            );
        }
    }

    #[test]
    fn a_panicking_seal_resurfaces_on_the_line_caller_after_a_join() {
        for workers in [1, 2, 5] {
            let alive = Arc::new(());
            let chunk = 8;
            let mut line = sentinel_line(workers, &alive, chunk, chunk as f64);
            let m = numbered_rows(3 * chunk, 4);
            let mut appended = 0;
            let mut append = |_| {
                appended += 1;
                Ok(())
            };
            // The chunk before the poisoned one still comes back.
            for r in 0..chunk {
                line.push_row(m.row(r), None, Some(&mut append)).unwrap();
            }
            line.settle(LineState::drained, Some(&mut append)).unwrap();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                for r in chunk..m.rows() {
                    line.push_row(m.row(r), None, Some(&mut append)).unwrap();
                }
                line.finish(Some(&mut append))
            }));
            let Err(msg) = caught else {
                panic!("W = {workers}: the seal's panic must reach the caller");
            };
            let msg = msg
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                msg.contains("seal of a poisoned chunk"),
                "W = {workers}: {msg}"
            );
            // A later call panics again rather than wait on joined workers.
            let again = panic::catch_unwind(AssertUnwindSafe(|| line.finish(Some(&mut append))));
            assert!(
                again.is_err(),
                "W = {workers}: a call after the panic went on"
            );
            assert_eq!(
                appended, 1,
                "W = {workers}: nothing past the gap is appended"
            );
            assert_eq!(
                Arc::strong_count(&alive),
                1,
                "W = {workers}: workers not joined"
            );
            drop(line);
        }
    }

    /// A seal that panics inside a real `ContainerIngest` reaches its
    /// caller, even while the caller waits on the gap it leaves, once
    /// every worker is joined, and no segment past the gap is written.
    #[test]
    fn a_panicking_seal_resurfaces_on_a_container_caller_without_a_hang() {
        let (cols, chunk) = (4, 8);
        let chunks = workers() + 6;
        let m = numbered_rows(chunks * chunk, cols);
        let poisoned = 1;
        let alive = Arc::new(());
        let mut sink = Vec::new();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let poison = (poisoned * chunk) as f64;
            let mut ing = rigged_container(&mut sink, cols, chunk, poison, &alive);
            for r in 0..m.rows() {
                ing.push_row(m.row(r)).unwrap();
            }
            ing.finish()
        }));
        let Err(msg) = caught else {
            panic!("the seal's panic must reach the caller");
        };
        let msg = msg
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("seal of a poisoned chunk"), "{msg}");
        assert_eq!(Arc::strong_count(&alive), 1, "workers not joined");

        // What a serial writer holds after the chunks before the gap.
        let mut before_gap = Vec::new();
        let mut writer = ContainerStreamWriter::new(&mut before_gap).unwrap();
        let mut ws = EncodeWorkspace::new(cols, chunk);
        for r in 0..poisoned * chunk {
            ws.push_row(m.row(r));
            if ws.is_full() {
                let sealed = ws.seal(Some(Scheme::Den), &EncodeOptions::default());
                let sealed = sealed.unwrap();
                writer.append(&sealed.batch, sealed.zone).unwrap();
            }
        }
        drop(writer);
        assert!(
            before_gap.starts_with(&sink),
            "a segment past the gap was written: {} bytes, {} before the gap",
            sink.len(),
            before_gap.len()
        );
    }

    /// A real container sidecar: what a [`ContainerIngest`] with
    /// `segments` sealed 8-row chunks (scheme picked per chunk) records.
    fn container_checkpoint(segments: usize) -> IngestCheckpoint {
        let opts = EncodeOptions::default();
        let m = drifting_matrix(8 * segments, 4, 3, 5);
        let mut sink = Vec::new();
        let mut ing = ContainerIngest::new(&mut sink, 4, 8, None, opts).unwrap();
        for r in 0..m.rows() {
            ing.push_row(m.row(r)).unwrap();
        }
        ing.flush().unwrap();
        IngestCheckpoint {
            config_hash: ingest_config_hash(4, 8, None, &opts),
            source_offset: 12_345,
            stats: ing.stats().clone(),
            state: ing.writer_state(),
        }
    }

    #[test]
    fn sidecar_roundtrips_and_rejects_corruption() {
        let ck = container_checkpoint(3);
        assert_eq!(ck.state.num_segments(), 3);
        let bytes = ck.to_bytes();
        let back = IngestCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.config_hash, ck.config_hash);
        assert_eq!(back.source_offset, 12_345);
        assert_eq!(back.stats, ck.stats);
        assert_eq!(back.state, ck.state);

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
        // A scheme count under the retired tag 10 (once varint-coded TOC)
        // names no scheme: resealed, it passes the checksum and is refused
        // by the parser. The first tag follows magic, version, kind, six
        // u64 fields and the count byte.
        let tag_at = 4 + 1 + 1 + 6 * 8 + 1;
        assert_eq!(bytes[tag_at], ck.stats.scheme_counts[0].0.tag());
        let mut retired = bytes.clone();
        retired[tag_at] = 10;
        reseal(&mut retired);
        assert!(matches!(
            IngestCheckpoint::from_bytes(&retired),
            Err(IngestError::Checkpoint(m)) if m.contains("unknown scheme tag 10")
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
        let ck = container_checkpoint(1);
        let mut bytes = ck.to_bytes();
        // `state_len` is the u64 right before the state payload + trailer.
        let at = bytes.len() - 8 - ck.state.to_bytes().len() - 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            IngestCheckpoint::from_bytes(&bytes),
            Err(IngestError::Checkpoint(_))
        ));
    }

    #[test]
    fn sidecar_truncations_and_flips_never_panic() {
        let ck = container_checkpoint(3);
        let inner = ck.state.to_bytes();
        let outer = ck.to_bytes();

        for len in 0..outer.len() {
            assert!(IngestCheckpoint::from_bytes(&outer[..len]).is_err());
        }
        for len in 0..inner.len() {
            assert!(WriterState::from_bytes(&inner[..len]).is_err());
        }
        for pos in 0..outer.len() {
            for bit in 0..8 {
                let mut b = outer.clone();
                b[pos] ^= 1 << bit;
                assert!(IngestCheckpoint::from_bytes(&b).is_err(), "checksum");
                // Past the checksum the flipped field may be legitimate
                // data (a counter, a hash); it must parse or error cleanly,
                // the writer state through its own validation.
                reseal(&mut b);
                let _ = IngestCheckpoint::from_bytes(&b);
            }
        }
    }

    /// A fresh, empty directory for one `commit` test.
    fn commit_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("toc-commit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn commit_replaces_the_target_whole_and_leaves_no_tmp() {
        let dir = commit_dir("replace");
        let target = dir.join("t.ckpt");
        commit(&target, &[7; 4096]).unwrap();
        commit(&target, b"short").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"short");
        assert_eq!(names_in(&dir), ["t.ckpt"]);

        // With its directory gone there is nothing to write into, and the
        // commit leaves nothing behind.
        fs::remove_dir_all(&dir).unwrap();
        assert!(commit(&target, b"next").is_err());
        assert!(!dir.exists());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_commit_leaves_the_previous_target_and_no_tmp() {
        let dir = commit_dir("full");
        let target = dir.join("t.ckpt");
        commit(&target, b"previous").unwrap();
        // A full disk: the tmp file is `/dev/full`, whose writes fail with
        // ENOSPC after the open succeeded.
        std::os::unix::fs::symlink("/dev/full", dir.join("t.ckpt.tmp")).unwrap();
        assert!(commit(&target, &[1; 64]).is_err());
        assert_eq!(fs::read(&target).unwrap(), b"previous");
        assert_eq!(names_in(&dir), ["t.ckpt"]);
        fs::remove_dir_all(&dir).unwrap();
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
        let mut sampled = EncodeOptions::default();
        sampled.cla.sample_rows = 64;
        assert_ne!(base, ingest_config_hash(6, 40, Some(Scheme::Toc), &sampled));
    }

    /// A sidecar on disk resumes only while its config hashes to what it
    /// recorded: this is the hash of the `toc ingest` defaults at 69
    /// columns as computed when the planner was still a choice.
    #[test]
    fn config_hash_of_the_ingest_defaults_is_pinned() {
        let hash = ingest_config_hash(69, 250, None, &EncodeOptions::default());
        assert_eq!(hash, 0x922c_9807_a474_4755);
    }

    /// Every failure a line can keep, built again: the same variant (and
    /// fields), the same text and, for an IO error, the same kind.
    #[test]
    fn a_kept_failure_comes_back_the_same_from_again() {
        /// `e`'s variants down to an IO error, with that error's kind, or
        /// its whole `Debug` where it holds none. Exhaustive, so a new
        /// variant must be added here.
        fn anatomy(e: &IngestError) -> (String, Option<std::io::ErrorKind>) {
            match e {
                IngestError::Io(e) => ("Io".into(), Some(e.kind())),
                IngestError::Csv(CsvError::Io(e)) => ("Csv(Io)".into(), Some(e.kind())),
                IngestError::Csv(CsvError::Sink(SinkError::Io(e))) => {
                    ("Csv(Sink(Io))".into(), Some(e.kind()))
                }
                IngestError::Csv(
                    CsvError::Ragged { .. }
                    | CsvError::HeaderNotText(_)
                    | CsvError::OffsetPastEnd { .. }
                    | CsvError::Empty
                    | CsvError::BadNumber { .. }
                    | CsvError::Sink(SinkError::NoFeatures { .. }),
                )
                | IngestError::Format(_)
                | IngestError::Checkpoint(_) => (format!("{e:?}"), None),
            }
        }
        let os = fs::File::open("/nonexistent/toc-again").unwrap_err();
        assert!(os.raw_os_error().is_some(), "{os:?}");
        let io = || std::io::Error::new(std::io::ErrorKind::WriteZero, "short write");
        let not_text = String::from_utf8(vec![0xff]).unwrap_err().utf8_error();
        let not_a_number = "x".parse::<f64>().unwrap_err();
        let csv = vec![
            CsvError::Io(os.again()),
            CsvError::Io(io()),
            CsvError::Ragged {
                row: 7,
                fields: 3,
                expected: 4,
            },
            CsvError::HeaderNotText(not_text),
            CsvError::OffsetPastEnd {
                offset: 99,
                path: PathBuf::from("in.csv"),
                len: 12,
            },
            CsvError::Empty,
            CsvError::BadNumber {
                row: 2,
                cell: csv::CellError::NotUtf8 {
                    cell: "\u{fffd}".into(),
                    source: not_text,
                },
            },
            CsvError::BadNumber {
                row: 3,
                cell: csv::CellError::NotANumber {
                    cell: "x".into(),
                    source: not_a_number,
                },
            },
            CsvError::Sink(SinkError::Io(io())),
            CsvError::Sink(SinkError::NoFeatures { fields: 1 }),
        ];
        let mut all: Vec<IngestError> = csv.into_iter().map(IngestError::Csv).collect();
        all.extend([
            IngestError::Io(os),
            IngestError::Io(io()),
            IngestError::Format(FormatError::Corrupt("bad tag".into())),
            IngestError::Format(FormatError::io("write segment", io())),
            IngestError::Format(FormatError::MixedCols {
                batch: 2,
                got: 3,
                expected: 4,
            }),
            IngestError::Checkpoint("sidecar too short".into()),
        ]);
        for e in &all {
            let again = e.again();
            assert_eq!(again.to_string(), e.to_string());
            assert_eq!(anatomy(&again), anatomy(e));
            assert_eq!(anatomy(&again.again()), anatomy(e), "{e}");
        }
        let io = io();
        let again = Fault::again(&io);
        assert_eq!(
            (again.kind(), again.to_string()),
            (io.kind(), io.to_string())
        );
    }

    /// The seal line's protocol over every interleaving of its actors:
    /// the caller and W workers, each stepping as `SealLine`'s and
    /// `Shared`'s methods do, one lock hold or one unlocked seal or append
    /// per step, through the same `LineState` transitions. A waiting
    /// actor moves once its wait's condition holds, so the shell's
    /// notifies are taken as given; a chunk's rows are one push, since a
    /// check between them only reads.
    mod explorer {
        use super::*;
        use std::collections::hash_map::{DefaultHasher, Entry};
        use std::collections::HashMap;
        use std::hash::{Hash, Hasher};
        use std::time::Instant;

        /// What a chunk does wrong.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum Inject {
            /// Its seal panics.
            Panic,
            /// Its text does not parse.
            Parse,
            /// Its append fails.
            Append,
        }

        /// A failure the line keeps, naming its chunk.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        enum Failure {
            Parse(u64),
            Append(u64),
        }

        impl Fault for Failure {
            fn again(&self) -> Self {
                *self
            }
        }

        /// The line under exploration: a job is its place alone, a sealed
        /// chunk its place in hand-off order.
        type Line = LineState<(), u64, Failure>;

        /// Byte weights, one base-256 digit each, so that `held` reads as
        /// three counts: stage buffers, text buffers and segments.
        const STAGE: usize = 1;
        const TEXT: usize = 1 << 8;
        const SEGMENT: usize = 1 << 16;

        /// Why a line stopped, comparably: a failure, or a panic and the
        /// chunk whose seal raised it (`None` once re-raised).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Why {
            Failed(Failure),
            Panicked(Option<u64>),
        }

        fn why(stop: &Stop<Failure>) -> Why {
            match stop {
                Stop::Failed(e) => Why::Failed(*e),
                Stop::Panicked(p) => Why::Panicked(p.downcast_ref::<u64>().copied()),
            }
        }

        /// One explored configuration.
        struct Config {
            workers: usize,
            chunks: u64,
            /// The workers append (a store), or the caller (a container).
            store: bool,
            /// The caller hands off framed text (the CSV driver).
            text: bool,
            faults: Vec<(u64, Inject)>,
        }

        impl Config {
            fn fault(&self, seq: u64, kind: Inject) -> bool {
                self.faults.contains(&(seq, kind))
            }
        }

        /// A pop under way.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        enum Pop {
            /// Appending chunk `.0`, which holds `.1` bytes, unlocked.
            Appending(u64, usize),
            /// Back for the lock to land `.0` bytes, failed with `.1`.
            Landing(usize, Option<Failure>),
        }

        /// Where the caller is: `k` is the call, chunk `k`'s push or, at
        /// `chunks`, `finish`; or a container's `flush` before call `k`.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Caller {
            /// Between calls; a drop may come instead. After `finish`
            /// only a drop comes.
            Call(u64),
            /// In call `k`, giving the workspace a stage buffer.
            Restage(u64),
            /// In call `k`'s settle, at the top of its loop.
            Settle(u64),
            Popping(u64, Pop),
            /// In call `k`'s settle, asleep on `moved`.
            Waiting(u64),
            /// Call `k` settled and checks the line.
            Settled(u64),
            /// Call `k` queues chunk `k`.
            HandOff(u64),
            /// A call returned a failure: one more call, then a drop.
            Failed,
            /// The line is closed, by a drop or a re-raised panic: joining.
            Joining,
            Done,
        }

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        enum Worker {
            /// Waiting for a job, or about to take one.
            Idle,
            /// Sealing chunk `.0`, unlocked.
            Sealing(u64),
            Popping(Pop),
            Exited,
        }

        /// One state of the line, its caller and its workers, and what the
        /// sink has seen.
        struct World {
            q: Line,
            caller: Caller,
            /// The caller's workspace holds a stage buffer.
            staged: bool,
            /// The caller's text buffer is counted in `held`.
            text_counted: bool,
            /// What the caller's first failed call returned.
            seen: Option<Why>,
            /// The call under way is a container's `flush`.
            flushing: bool,
            /// Sorted: workers are interchangeable.
            workers: Vec<Worker>,
            /// Appends the sink was called for, in order.
            appends: u64,
            /// `appends` when the caller closed the line.
            dropped: Option<u64>,
            /// `finish` returned `Ok`.
            finished: bool,
        }

        impl World {
            fn new(cfg: &Config) -> Self {
                Self {
                    q: LineState::new(cfg.workers, STAGE),
                    caller: Caller::Call(0),
                    staged: true,
                    text_counted: false,
                    seen: None,
                    flushing: false,
                    workers: vec![Worker::Idle; cfg.workers],
                    appends: 0,
                    dropped: None,
                    finished: false,
                }
            }

            fn fork(&self) -> Self {
                let q = &self.q;
                let stop = q.stop.as_ref().map(|stop| match why(stop) {
                    Why::Failed(e) => Stop::Failed(e),
                    Why::Panicked(Some(seq)) => Stop::Panicked(Box::new(seq)),
                    Why::Panicked(None) => Stop::Panicked(Box::new("re-raised")),
                });
                let q = LineState {
                    workers: q.workers,
                    jobs: q.jobs.clone(),
                    handed_off: q.handed_off,
                    closed: q.closed,
                    ready: q.ready.clone(),
                    popping: q.popping,
                    appended: q.appended,
                    spare: q.spare.clone(),
                    spare_text: q.spare_text.clone(),
                    held: q.held,
                    peak: q.peak,
                    stop,
                };
                Self {
                    q,
                    workers: self.workers.clone(),
                    ..*self
                }
            }

            /// Everything but `peak`, which only ever reads `held`'s past.
            fn key(&self) -> u64 {
                let q = &self.q;
                let mut h = DefaultHasher::new();
                (&q.jobs, q.handed_off, q.closed, &q.ready, q.popping).hash(&mut h);
                (q.appended, q.spare.len(), q.spare_text.len(), q.held).hash(&mut h);
                q.stop.as_ref().map(why).hash(&mut h);
                (
                    self.caller,
                    self.staged,
                    self.text_counted,
                    self.seen,
                    self.flushing,
                )
                    .hash(&mut h);
                (&self.workers, self.appends, self.dropped, self.finished).hash(&mut h);
                h.finish()
            }

            /// Whether the settle of call `k` may return: there is room
            /// for chunk `k`, or everything is appended for a `flush` or
            /// `finish`.
            fn settled(&self, cfg: &Config, k: u64) -> bool {
                if k < cfg.chunks && !self.flushing {
                    self.q.room()
                } else {
                    self.q.drained()
                }
            }

            /// Whether `actor` can move: 0 is the caller going on, 1 the
            /// caller dropping the line, 2 a container's caller flushing,
            /// `3 + i` worker `i`.
            fn enabled(&self, cfg: &Config, actor: usize) -> bool {
                let q = &self.q;
                match (actor, self.caller) {
                    (0, Caller::Call(k)) => k <= cfg.chunks,
                    (0, Caller::Waiting(k)) => {
                        let front = matches!(q.ready.front(), Some(Some(_)));
                        self.settled(cfg, k) || (!cfg.store && front)
                    }
                    (0, Caller::Joining) => self.workers.iter().all(|&w| w == Worker::Exited),
                    (0, Caller::Done) => false,
                    (0, _) => true,
                    (1, caller) => matches!(caller, Caller::Call(_)),
                    (2, Caller::Call(k)) => !cfg.store && k < cfg.chunks,
                    (2, _) => false,
                    (i, _) => match self.workers[i - 3] {
                        Worker::Idle => !q.idle(),
                        Worker::Exited => false,
                        _ => i == 3 || self.workers[i - 4] != self.workers[i - 3],
                    },
                }
            }

            /// `pop`'s loop test, under the lock: `None` once it ends.
            fn front(&mut self) -> Option<Pop> {
                match self.q.front()? {
                    Ok((seq, bytes)) => Some(Pop::Appending(seq, bytes)),
                    Err(e) => Some(Pop::Landing(0, Some(e))),
                }
            }

            /// One step of a pop: the sink's append, or a landing and the
            /// next front.
            fn pop(&mut self, cfg: &Config, pop: Pop) -> Option<Pop> {
                match pop {
                    Pop::Appending(seq, bytes) => {
                        assert_eq!(seq, self.appends, "chunk {seq} appended out of order");
                        assert!(cfg.store || self.dropped.is_none(), "appended after a drop");
                        for &(at, kind) in &cfg.faults {
                            let past = if kind == Inject::Append { at } else { at - 1 };
                            assert!(seq <= past, "chunk {seq} appended past {kind:?} at {at}");
                        }
                        self.appends += 1;
                        let failed = cfg.fault(seq, Inject::Append);
                        Some(Pop::Landing(bytes, failed.then_some(Failure::Append(seq))))
                    }
                    Pop::Landing(bytes, failed) => {
                        self.q.landed(bytes, failed.map_or(Ok(()), Err));
                        self.front()
                    }
                }
            }

            /// A call's check of the line: `false` once it returned why
            /// the line stopped, and the caller moved on.
            fn check(&mut self) -> bool {
                let Err(stop) = self.q.check() else {
                    return true;
                };
                let got = why(&stop);
                if let Some(seen) = self.seen {
                    assert_eq!(got, seen, "a later call returned another failure");
                }
                self.seen = Some(got);
                match stop {
                    Stop::Failed(_) => self.caller = Caller::Failed,
                    // `check` closes the line and joins before it unwinds.
                    Stop::Panicked(_) => self.close(),
                }
                false
            }

            fn close(&mut self) {
                self.q.close();
                self.dropped.get_or_insert(self.appends);
                self.caller = Caller::Joining;
            }

            /// The caller's next step, as `SealLine`'s methods take it.
            fn call(&mut self, cfg: &Config) {
                match self.caller {
                    Caller::Call(k) if k == cfg.chunks => self.caller = Caller::Settle(k),
                    Caller::Call(k) if cfg.text => self.caller = Caller::Settle(k),
                    Caller::Call(k) => {
                        if self.check() {
                            self.caller = Caller::Restage(k);
                        }
                    }
                    Caller::Restage(k) => {
                        if !self.staged {
                            self.q.stage(STAGE);
                            self.staged = true;
                        }
                        let next = if cfg.text {
                            Caller::HandOff
                        } else {
                            Caller::Settle
                        };
                        self.caller = next(k);
                    }
                    Caller::Settle(k) | Caller::Waiting(k) => {
                        let pop = if cfg.store { None } else { self.front() };
                        self.settling(cfg, k, pop);
                    }
                    Caller::Popping(k, pop) => {
                        let pop = self.pop(cfg, pop);
                        self.settling(cfg, k, pop);
                    }
                    Caller::Settled(k) => {
                        if !self.check() {
                        } else if std::mem::take(&mut self.flushing) {
                            assert_eq!(self.q.appended, k, "a flush left chunks in flight");
                            self.caller = Caller::Call(k);
                        } else if k == cfg.chunks {
                            assert_eq!((self.q.appended, self.appends), (k, k));
                            self.finished = true;
                            self.caller = Caller::Call(k + 1);
                        } else {
                            let next = if cfg.text {
                                Caller::Restage
                            } else {
                                Caller::HandOff
                            };
                            self.caller = next(k);
                        }
                    }
                    Caller::HandOff(k) => {
                        let grown = if cfg.text && !self.text_counted {
                            TEXT
                        } else {
                            0
                        };
                        let spare = self.q.hand_off((), grown);
                        self.text_counted = cfg.text && spare.is_some();
                        self.staged = false;
                        self.caller = Caller::Call(k + 1);
                    }
                    Caller::Failed => {
                        assert!(!self.check(), "a call after a failure went on");
                        self.close();
                    }
                    Caller::Joining => self.caller = Caller::Done,
                    Caller::Done => unreachable!("not enabled"),
                }
            }

            /// Call `k`'s settle after a pop step: popping still, or the
            /// loop's test under the same lock.
            fn settling(&mut self, cfg: &Config, k: u64, pop: Option<Pop>) {
                self.caller = match pop {
                    Some(pop) => Caller::Popping(k, pop),
                    None if self.settled(cfg, k) => Caller::Settled(k),
                    None => Caller::Waiting(k),
                };
            }

            /// Worker `i`'s next step, as `Shared::work` takes it.
            fn work(&mut self, cfg: &Config, i: usize) {
                self.workers[i] = match self.workers[i] {
                    Worker::Idle => match self.q.take() {
                        Some((seq, ())) => Worker::Sealing(seq),
                        None => Worker::Exited,
                    },
                    Worker::Sealing(seq) if cfg.fault(seq, Inject::Panic) => {
                        self.q.stop(Stop::Panicked(Box::new(seq)));
                        Worker::Idle
                    }
                    Worker::Sealing(seq) => {
                        let (done, stage) = if cfg.fault(seq, Inject::Parse) {
                            (Err(Failure::Parse(seq)), None)
                        } else {
                            (Ok((seq, SEGMENT)), Some(Vec::new()))
                        };
                        self.q.deposit(seq, done, (stage, cfg.text.then(Vec::new)));
                        let pop = if cfg.store { self.front() } else { None };
                        pop.map_or(Worker::Idle, Worker::Popping)
                    }
                    Worker::Popping(pop) => {
                        let pop = self.pop(cfg, pop);
                        pop.map_or(Worker::Idle, Worker::Popping)
                    }
                    Worker::Exited => unreachable!("not enabled"),
                };
            }

            /// The state after `actor` moves.
            fn step(&self, cfg: &Config, actor: usize) -> World {
                let mut next = self.fork();
                match actor {
                    0 => next.call(cfg),
                    1 => next.close(),
                    2 => {
                        let Caller::Call(k) = next.caller else {
                            unreachable!("not enabled")
                        };
                        next.flushing = true;
                        next.caller = Caller::Settle(k);
                    }
                    i => next.work(cfg, i - 3),
                }
                next.workers.sort_unstable();
                let (before, after) = (self.q.stop.as_ref(), next.q.stop.as_ref());
                if let Some(before) = before.map(why) {
                    let after = after.map(why);
                    let reraised =
                        matches!(before, Why::Panicked(_)) && after == Some(Why::Panicked(None));
                    assert!(
                        after == Some(before) || reraised,
                        "{before:?} became {after:?}"
                    );
                }
                next
            }

            /// What holds in every state.
            fn check_invariants(&self, cfg: &Config) {
                let (q, w) = (&self.q, cfg.workers);
                let in_flight = q.handed_off - q.appended;
                assert!(in_flight <= w as u64 + 1, "{in_flight} chunks in flight");
                let stages = q.held % TEXT / STAGE;
                let texts = q.held % SEGMENT / TEXT;
                let segments = q.held / SEGMENT;
                assert!(stages <= w + 2, "{stages} stage buffers held");
                assert!(texts <= w + 2, "{texts} text buffers held");
                assert!(segments <= w + 1, "{segments} segments held");
                assert!(q.peak >= q.held);
                if self.caller != Caller::Done {
                    return;
                }
                assert!(
                    !self.finished || cfg.faults.is_empty(),
                    "finish hid a failure"
                );
                if cfg.store && q.stop.is_none() {
                    assert_eq!(q.appended, q.handed_off, "a dropped store line lost chunks");
                }
                if !cfg.store {
                    assert_eq!(Some(self.appends), self.dropped, "appended after a drop");
                }
            }
        }

        /// Every state `cfg` reaches, each checked; their number.
        fn explore(cfg: &Config) -> usize {
            let actors = 3 + cfg.workers;
            let start = World::new(cfg);
            // Each state's parent and the actor that moved, to replay a
            // violation from the start.
            let mut seen = HashMap::from([(start.key(), (0, usize::MAX))]);
            let mut stack = vec![start];
            let mut finished = false;
            while let Some(world) = stack.pop() {
                let from = world.key();
                let checked = panic::catch_unwind(AssertUnwindSafe(|| {
                    world.check_invariants(cfg);
                    let moves: Vec<_> = (0..actors).filter(|&a| world.enabled(cfg, a)).collect();
                    assert!(
                        !moves.is_empty() || world.caller == Caller::Done,
                        "every actor waits"
                    );
                    let next: Vec<_> = moves.iter().map(|&a| (a, world.step(cfg, a))).collect();
                    next
                }));
                let next = match checked {
                    Ok(next) => next,
                    Err(payload) => {
                        replay(cfg, &seen, from);
                        panic::resume_unwind(payload)
                    }
                };
                finished |= world.finished;
                for (actor, next) in next {
                    if let Entry::Vacant(slot) = seen.entry(next.key()) {
                        slot.insert((from, actor));
                        stack.push(next);
                    }
                }
            }
            assert!(finished || !cfg.faults.is_empty(), "no run finished");
            seen.len()
        }

        /// Print the moves that reach state `to`.
        fn replay(cfg: &Config, seen: &HashMap<u64, (u64, usize)>, mut to: u64) {
            let mut path = Vec::new();
            while let Some(&(from, actor)) = seen.get(&to).filter(|e| e.1 != usize::MAX) {
                path.push(actor);
                to = from;
            }
            let mut world = World::new(cfg);
            eprintln!("W = {}, faults {:?}:", cfg.workers, cfg.faults);
            for actor in path.into_iter().rev() {
                world = world.step(cfg, actor);
                let q = &world.q;
                eprintln!(
                    "  actor {actor}: caller {:?}, workers {:?}, handed off {}, appended {}, held {:#x}",
                    world.caller, world.workers, q.handed_off, q.appended, q.held
                );
            }
        }

        /// The caller's and the workers' steps interleaved every way, at
        /// W = 1 to 4 and six chunks: with the workers appending (a store)
        /// and the caller appending rows or framed text (a container);
        /// with no fault, a seal panic, parse failure or append failure at
        /// each chunk, a failure and a later panic at each pair; with a
        /// drop, or a container's flush, between any two calls. Prints the
        /// states explored.
        #[test]
        fn seal_line_protocol_holds_in_every_interleaving() {
            const CHUNKS: u64 = 6;
            let modes = [
                ("store", true, false),
                ("container", false, false),
                ("csv", false, true),
            ];
            for workers in 1..=4 {
                for (mode, store, text) in modes {
                    let kinds: &[Inject] = if text {
                        &[Inject::Panic, Inject::Parse, Inject::Append]
                    } else {
                        &[Inject::Panic, Inject::Append]
                    };
                    let mut faults = vec![vec![]];
                    for at in 0..CHUNKS {
                        for &kind in kinds {
                            faults.push(vec![(at, kind)]);
                            for later in at + 1..CHUNKS {
                                faults.push(vec![(at, kind), (later, Inject::Panic)]);
                            }
                        }
                    }
                    let clock = Instant::now();
                    let mut states = 0;
                    for faults in &faults {
                        let cfg = Config {
                            workers,
                            chunks: CHUNKS,
                            store,
                            text,
                            faults: faults.clone(),
                        };
                        states += explore(&cfg);
                    }
                    println!(
                        "seal line W = {workers}, {mode}: {} configurations, {states} states, {:.2} s",
                        faults.len(),
                        clock.elapsed().as_secs_f64()
                    );
                }
            }
        }
    }
}
