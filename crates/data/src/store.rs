//! The memory-budgeted mini-batch store with real disk spill.
//!
//! Reproduces the system regime behind the paper's end-to-end results
//! (Figure 1A/D, §5.3): encoded mini-batches live in memory until a
//! configurable budget is exhausted; the remainder spills to disk and is
//! re-read (real file IO + deserialization) on every visit. Whether a
//! format's batches fit in the budget is exactly what separates TOC from
//! the baselines on the large-scale runs.
//!
//! [`ShardedSpillStore`] is the one provider of that regime and this
//! module is its façade: configuration, the one streaming fill every build
//! goes through ([`StoreBuilder`] — no build path holds the dataset, and a
//! batch that spills is on its shard when it seals), the entry table and
//! the one visit path. It stripes spilled batches across N shard files
//! (the `k`-th on shard `k % n`; [`StoreConfig::with_shards`], one shard
//! models the paper's single disk) and reads them with lock-free
//! positional IO ([`toc_formats::container::PositionalFile`]). With
//! [`StoreConfig::with_prefetch`] the visits of build-time spilled
//! batches go through the background pipeline in `crate::prefetch`,
//! which keeps upcoming batches decoded while the trainer computes on the
//! current one, over the [`SpillIo`] engine [`StoreConfig::with_io`]
//! names: [`IoEngineKind::Sync`] (the default) reads inside the decode
//! workers, [`IoEngineKind::Ring`] on IO threads of its own that coalesce
//! adjacent reads.
//!
//! A spilled batch's location is fixed when it seals: every shard file is
//! an append-only log, written only at its end, and the entries on a shard
//! tile it in entry order. Build-time batches and segments appended to a
//! live store by streaming ingest ([`ShardedSpillStore::open_streaming`])
//! sit in one entry table and share one visit / tenant-read path.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

use toc_formats::container::SeekableContainer;
use toc_formats::{AnyBatch, EncodeOptions, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

use crate::ingest::EncodeWorkspace;
use crate::io::{lock, rlock, wait, wlock, InlineIo, IoShards, RingIo, SpillDevice};
pub use crate::io::{IoEngineKind, IoSnapshot, IoStats, Pinning, SchedulerConfig, SpillIo};
use crate::prefetch::{Prefetcher, MAX_PREFETCH_WORKERS};

/// Store configuration.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Encoding scheme for all batches.
    pub scheme: Scheme,
    /// Rows per mini-batch (the paper uses 250 for the end-to-end runs).
    pub batch_rows: usize,
    /// Bytes of encoded batches kept in memory; anything beyond spills.
    pub memory_budget: usize,
    /// Spill directory; defaults to a fresh directory under the OS temp dir.
    pub spill_dir: Option<PathBuf>,
    /// Simulated disk read bandwidth in MB/s. The paper's end-to-end runs
    /// read spilled batches from cloud block storage; on a dev box the OS
    /// page cache makes re-reads nearly free, which would hide the IO wall
    /// the experiments measure. Each spill file (shard) models an
    /// independent device: a read of `len` bytes reserves a
    /// `len / mbps` interval on that device's timeline and sleeps until
    /// the reservation completes, so concurrent readers of one shard
    /// share its bandwidth while readers of different shards proceed in
    /// parallel. Under an async engine the engine's IO threads absorb the
    /// sleep, overlapping it with decode. `None` performs raw IO only.
    pub disk_mbps: Option<f64>,
    /// Number of shard files; `0` means one shard per available hardware
    /// thread. Each shard is its own simulated device, so pin `1` to
    /// model the paper's single disk under `disk_mbps`.
    pub shards: usize,
    /// Prefetch pipeline depth: how many upcoming spilled batches the
    /// pipeline keeps decoded (or in flight) ahead of the visitors. `0`
    /// disables prefetch.
    pub prefetch: usize,
    /// Spill-IO engine of the prefetch pipeline (see [`IoEngineKind`]).
    pub io: IoEngineKind,
    /// IO-thread/decode-worker counts of the prefetch pipeline (see
    /// [`SchedulerConfig`]).
    pub scheduler: SchedulerConfig,
    /// Per-shard simulated read bandwidths in MB/s (cycled over the
    /// shards when shorter), fixed for the store's life. Overrides the
    /// uniform `disk_mbps` per device — this is how heterogeneous storage
    /// tiers enter the model. Empty = uniform.
    pub shard_mbps: Vec<f64>,
    /// Fault-injection plan for the prefetch pipeline: when set, the
    /// pipeline runs on a [`crate::testing::FaultyIo`] engine that
    /// injects latency, chunked short reads, `EINTR`-style retries and
    /// out-of-order completions (test support; overrides `io`).
    pub fault: Option<crate::testing::FaultPlan>,
    /// Bounded sealed-chunk budget for streaming ingestion: when > 0,
    /// [`ShardedSpillStore::append_sealed`] blocks while more than this
    /// many appended segments are sealed but not yet consumed by any
    /// visitor, accumulating the stall in
    /// [`IoStats::ingest_stall_ns`]. `0` (default) never blocks — the
    /// entry table grows as fast as the producer can encode.
    pub max_pending: usize,
}

impl StoreConfig {
    pub fn new(scheme: Scheme, batch_rows: usize, memory_budget: usize) -> Self {
        Self {
            scheme,
            batch_rows,
            memory_budget,
            spill_dir: None,
            disk_mbps: None,
            shards: 0,
            prefetch: 0,
            io: IoEngineKind::Sync,
            scheduler: SchedulerConfig::default(),
            shard_mbps: Vec::new(),
            fault: None,
            max_pending: 0,
        }
    }

    /// Builder-style bounded sealed-chunk budget for streaming
    /// ingestion (`0` = unbounded, never block the producer).
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Builder-style bandwidth override. `mbps` must be finite and
    /// positive: zero would model an infinitely slow disk (the first
    /// spilled read would sleep forever) and negative rates are
    /// meaningless, so both are rejected eagerly here rather than hanging
    /// a training run later.
    pub fn with_disk_mbps(mut self, mbps: f64) -> Self {
        assert!(
            mbps.is_finite() && mbps > 0.0,
            "disk_mbps must be finite and > 0, got {mbps}"
        );
        self.disk_mbps = Some(mbps);
        self
    }

    /// Builder-style shard-count override (`0` = available parallelism).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style prefetch-depth override (`0` = no prefetch).
    pub fn with_prefetch(mut self, depth: usize) -> Self {
        self.prefetch = depth;
        self
    }

    /// Builder-style IO-engine override.
    pub fn with_io(mut self, io: IoEngineKind) -> Self {
        self.io = io;
        self
    }

    /// Builder-style scheduler override (IO threads, decode workers).
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style per-shard bandwidths in MB/s (cycled over the shards
    /// when shorter than the shard count): the asymmetric storage-tier
    /// model. Each must be finite and positive, as for
    /// [`StoreConfig::with_disk_mbps`].
    pub fn with_shard_mbps(mut self, mbps: Vec<f64>) -> Self {
        for &m in &mbps {
            assert!(m.is_finite() && m > 0.0, "mbps must be > 0, got {m}");
        }
        self.shard_mbps = mbps;
        self
    }

    /// Builder-style fault-plan override (test support).
    pub fn with_fault_plan(mut self, plan: crate::testing::FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder-style spill-directory override.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }
}

static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread staging for a visitor's own spilled reads (plain
    /// visits, prefetch misses); the pipeline's reads recycle their
    /// buffers through its pool, so the hot read path performs no
    /// per-read heap allocation on any thread.
    static SYNC_SPILL_BUF: std::cell::RefCell<Vec<u8>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The shard files of a store while a build or a streaming open lays them
/// down: `(file, path)` in shard order with each file's write cursor, and
/// the spill directory when the store made it. Every file is one this
/// store created ([`ShardFiles::create_next`]); none is reopened from an
/// earlier run. Dropped before a store took the files over — a build that
/// failed, panicked or was abandoned — it removes what it created.
#[derive(Default)]
struct ShardFiles {
    files: Vec<(fs::File, PathBuf)>,
    cursors: Vec<u64>,
    /// Directory and file-name stem, resolved when the first file is made.
    home: Option<(PathBuf, String)>,
    owned_dir: Option<PathBuf>,
}

impl ShardFiles {
    /// Create (truncating) the next shard file, in the configured spill
    /// directory or a fresh per-store one under the OS temp dir. The
    /// per-store id in the names keeps two stores sharing an explicit
    /// `spill_dir` (and scheme) from truncating or unlinking each other's
    /// live shards.
    fn create_next(&mut self, config: &StoreConfig) -> std::io::Result<()> {
        if self.home.is_none() {
            let id = NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed);
            let dir = config.spill_dir.clone().unwrap_or_else(|| {
                let d = std::env::temp_dir().join(format!("toc-store-{}-{id}", std::process::id()));
                self.owned_dir = Some(d.clone());
                d
            });
            fs::create_dir_all(&dir)?;
            self.home = Some((dir, format!("spill-{}-{id}", config.scheme.tag())));
        }
        let (dir, stem) = self.home.as_ref().expect("resolved above");
        let path = dir.join(format!("{stem}-s{}.bin", self.files.len()));
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(&path)?;
        self.files.push((file, path));
        self.cursors.push(0);
        Ok(())
    }
}

impl Drop for ShardFiles {
    fn drop(&mut self) {
        for (file, path) in self.files.drain(..) {
            drop(file);
            let _ = fs::remove_file(path);
        }
        if let Some(d) = &self.owned_dir {
            let _ = fs::remove_dir(d);
        }
    }
}

/// Land `len` bytes at `shard`'s append cursor — the one place a cursor
/// becomes a [`DiskLoc`], for a build and a streaming append alike.
/// `write` gets the offset to write at; the cursor advances only once the
/// write has completed, so a failed write leaves it where it was.
fn land(
    cursors: &mut [u64],
    shard: usize,
    len: usize,
    write: impl FnOnce(u64) -> std::io::Result<()>,
) -> std::io::Result<DiskLoc> {
    let offset = cursors[shard];
    write(offset)?;
    cursors[shard] = offset + len as u64;
    Ok(DiskLoc { shard, offset, len })
}

/// The ±1 label rule, written once: the last column of a full-width row
/// is its label — non-negative is `+1`, negative `-1` — and the columns
/// before it are the features.
pub fn split_label(row: &[f64]) -> (&[f64], f64) {
    let (label, features) = row.split_last().expect("a row has a label column");
    (features, if *label >= 0.0 { 1.0 } else { -1.0 })
}

/// The one place rows become the mini-batches of a built store: rows
/// stage in an [`EncodeWorkspace`] of `config.batch_rows`, each full chunk
/// (and the partial last one) is sealed with `config.scheme`, and a sealed
/// batch stays resident while it fits in what is left of
/// `config.memory_budget`; anything beyond is written to its shard file —
/// the `k`-th spilled batch to shard `k % n`, created when its first
/// batch arrives — the moment it seals. Batch order is row order
/// (shuffle-once semantics). No row outlives its chunk and no spilled
/// batch outlives its write, so a fill holds one staged chunk plus the
/// resident batches. A builder dropped without [`StoreBuilder::finish`]
/// removes the files it wrote.
pub struct StoreBuilder<'a> {
    config: &'a StoreConfig,
    features: usize,
    ws: EncodeWorkspace,
    labels: Vec<f64>,
    entries: Vec<Arc<Entry>>,
    memory_bytes: usize,
    n_shards: usize,
    /// Batches spilled so far: the next one lands on shard `spilled % n_shards`.
    spilled: usize,
    shards: ShardFiles,
}

impl<'a> StoreBuilder<'a> {
    pub fn new(features: usize, config: &'a StoreConfig) -> Self {
        Self {
            config,
            features,
            ws: EncodeWorkspace::new(features, config.batch_rows),
            labels: Vec::with_capacity(config.batch_rows),
            entries: Vec::new(),
            memory_bytes: 0,
            n_shards: config.resolved_shards(),
            spilled: 0,
            shards: ShardFiles::default(),
        }
    }

    /// Stage one row; `label` follows the `toc-ml` convention. A row that
    /// fills its chunk seals it, which writes the batch when it spills.
    pub fn push_row(&mut self, features: &[f64], label: f64) -> std::io::Result<()> {
        self.ws.push_row(features);
        self.labels.push(label);
        if self.ws.is_full() {
            self.seal()?;
        }
        Ok(())
    }

    fn seal(&mut self) -> std::io::Result<()> {
        let config = self.config;
        let sealed = self
            .ws
            .seal_with(Some(config.scheme), &EncodeOptions::default());
        let Some((_, batch, rows)) = sealed else {
            return Ok(());
        };
        let labels = std::mem::replace(&mut self.labels, Vec::with_capacity(rows));
        let size = batch.size_bytes();
        if self.memory_bytes + size <= config.memory_budget {
            self.memory_bytes += size;
            self.entries.push(Entry::new(Slot::Memory(batch), labels));
            return Ok(());
        }
        let shard = self.spilled % self.n_shards;
        if shard == self.shards.files.len() {
            self.shards.create_next(config)?;
        }
        let bytes = batch.to_bytes();
        let mut file = &self.shards.files[shard].0;
        // Only ever appended to, so the file's own position is the cursor.
        let loc = land(&mut self.shards.cursors, shard, bytes.len(), |_| {
            file.write_all(&bytes)
        })?;
        self.spilled += 1;
        self.entries.push(Entry::spilled(loc, labels));
        Ok(())
    }

    /// Seal the partial last chunk, make the spill durable, and let the
    /// resident TOC batches hold their live plans in what the budget has
    /// left (see [`ShardedSpillStore::plan_bytes_reserved`]).
    pub fn finish(mut self) -> std::io::Result<ShardedSpillStore> {
        self.seal()?;
        for (file, _) in &self.shards.files {
            file.sync_all()?;
        }
        let Self {
            config,
            features,
            mut entries,
            shards,
            memory_bytes,
            ..
        } = self;
        let slack = config.memory_budget.saturating_sub(memory_bytes);
        let plan_reserved = hold_plans(&mut entries, slack);
        let mut store =
            ShardedSpillStore::assemble(config, features, entries, shards, memory_bytes);
        store.plan_reserved = plan_reserved;
        Ok(store)
    }
}

/// Charge the live plans of resident TOC-family batches (TOC,
/// TOC_SPARSE_AND_LOGICAL) to `slack`, the part of the memory budget the
/// encoded batches left: in entry order, a batch holds its plan
/// (`TocBatch::hold_plan`) while its bound (`TocBatch::plan_bound_bytes`,
/// read off the header) fits in what is left. Returns the bytes reserved.
/// Placement is already decided, on encoded bytes alone, so holding never
/// changes what spills; and nothing is derived here — a held plan fills on
/// its batch's first matrix kernel.
fn hold_plans(entries: &mut [Arc<Entry>], slack: usize) -> usize {
    let mut left = slack;
    for entry in entries {
        if left == 0 {
            break;
        }
        let entry = Arc::get_mut(entry).expect("a builder owns its entries");
        let Slot::Memory(batch) = &mut entry.slot else {
            continue;
        };
        let Some(toc) = batch.toc_mut() else {
            continue;
        };
        let bound = toc.plan_bound_bytes();
        if bound <= left {
            toc.hold_plan();
            left -= bound;
        }
    }
    slack - left
}

/// Read one spilled batch through the shared device context and parse it.
/// Panics on IO failure or corrupt bytes — the synchronous visit path
/// surfaces spill corruption loudly instead of training on garbage.
fn read_parse(io: &IoShards, loc: DiskLoc, buf: &mut Vec<u8>) -> AnyBatch {
    io.read_range(loc.shard, loc.offset, loc.len, buf)
        .expect("read spill file");
    Scheme::from_bytes(buf).expect("spill data corrupted")
}

// ---------------------------------------------------------------------------
// ShardedSpillStore: striped shard files + background prefetch pipeline.

/// Where a spilled batch lives.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DiskLoc {
    pub(crate) shard: usize,
    pub(crate) offset: u64,
    pub(crate) len: usize,
}

enum Slot {
    Memory(AnyBatch),
    /// Spilled, at the extent its seal landed on; it never moves.
    Disk(DiskLoc),
}

/// One batch of the store — resident or spilled at build time, or
/// appended to a live store by streaming ingest
/// ([`ShardedSpillStore::append_sealed`]). Entries are `Arc`-shared so a
/// visitor clones one out of a brief table read lock and decodes without
/// holding any lock.
pub(crate) struct Entry {
    slot: Slot,
    labels: Vec<f64>,
}

impl Entry {
    fn new(slot: Slot, labels: Vec<f64>) -> Arc<Self> {
        Arc::new(Self { slot, labels })
    }

    fn spilled(loc: DiskLoc, labels: Vec<f64>) -> Arc<Self> {
        Self::new(Slot::Disk(loc), labels)
    }

    /// Location, when the entry is disk-resident.
    pub(crate) fn loc(&self) -> Option<DiskLoc> {
        match self.slot {
            Slot::Disk(loc) => Some(loc),
            Slot::Memory(_) => None,
        }
    }
}

/// Per-shard bookkeeping that is not part of the read path.
struct ShardMeta {
    path: PathBuf,
}

/// The store's shared state: what the handle, the prefetch pipeline and
/// an [`AppenderToken`] all look at.
pub(crate) struct Inner {
    scheme: Scheme,
    features: usize,
    /// The one entry table, in visit order: build-time batches first,
    /// then every segment streaming ingest appended. It only grows, and
    /// only under the `append` mutex; readers may index below the
    /// `sealed` watermark.
    pub(crate) entries: RwLock<Vec<Arc<Entry>>>,
    /// Visibility watermark for `entries`: stored with `Release` only
    /// after a segment's bytes are fully in its shard file *and* its
    /// entry is pushed, so any index below the watermark (loaded with
    /// `Acquire`) resolves to completely-written, decodable bytes.
    sealed: AtomicUsize,
    /// Entries present when the store was built (everything after them
    /// was appended).
    built: usize,
    /// Indices of the build-time disk-resident entries, ascending — the
    /// cyclic orbit the prefetch lookahead walks (a store can hold
    /// arbitrarily many in-memory batches between spilled ones; scanning
    /// the table for the next spilled index under the prefetch lock
    /// would be O(n)).
    pub(crate) spilled_order: Vec<usize>,
    shard_meta: Vec<ShardMeta>,
    /// Streaming-append state (cursors, sequence, byte total). An append
    /// holds it end to end, so cursor bumps never interleave — and because
    /// the sequence number lives *inside* the mutex, two racing appenders
    /// serialize instead of interleaving sequence numbers.
    append: Mutex<AppendState>,
    /// Exclusive [`crate::StoreIngest`] registration: one structured
    /// ingest driver at a time (raw `append_sealed` calls stay legal and
    /// serialize on the append mutex).
    appender_active: std::sync::atomic::AtomicBool,
    /// Bounded sealed-chunk budget (`0` = unbounded).
    max_pending: usize,
    /// Consumed watermark for backpressure: the highest spilled index any
    /// visitor has finished reading, plus one (never below `built`).
    /// `append_sealed` blocks while `sealed - consumed >= max_pending`.
    consumed: Mutex<usize>,
    /// Wakes a blocked producer when a visitor advances `consumed`.
    consumed_cv: Condvar,
    /// High-water mark of `sealed - consumed` observed at append time.
    peak_pending: AtomicUsize,
    pub(crate) io: Arc<IoShards>,
}

/// Exclusive structured-appender registration
/// ([`ShardedSpillStore::try_acquire_appender`]): held by a
/// [`crate::StoreIngest`] for its lifetime, released on drop.
pub struct AppenderToken<'a> {
    inner: &'a Inner,
}

impl Drop for AppenderToken<'_> {
    fn drop(&mut self) {
        self.inner
            .appender_active
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

/// Mutable streaming-append state, all behind one mutex so a stats
/// snapshot can never observe `bytes` ahead of the sealed count.
struct AppendState {
    /// Per-shard append cursors (current file length).
    cursors: Vec<u64>,
    /// Segments fully appended (authoritative; `Inner::sealed` republishes
    /// it with `Release` for the lock-free visibility check).
    seq: usize,
    /// Encoded bytes across those `seq` segments.
    bytes: u64,
}

impl Inner {
    #[cfg(test)]
    fn disk_loc(&self, idx: usize) -> Option<DiskLoc> {
        rlock(&self.entries)[idx].loc()
    }

    /// Read and parse one spilled batch, staged through the visitor
    /// thread's reusable buffer (plain visits and prefetch misses).
    pub(crate) fn read_disk_sync(&self, loc: DiskLoc) -> AnyBatch {
        SYNC_SPILL_BUF.with(|cell| read_parse(&self.io, loc, &mut cell.borrow_mut()))
    }
}

/// The append path of a live store: the shared state plus the fault plan
/// its writes go through. [`ShardedSpillStore::append_sealed`] is this
/// handle's [`Appender::append`]; a [`crate::StoreIngest`]'s seal workers
/// hold clones of it, so they append without borrowing the store.
#[derive(Clone)]
pub(crate) struct Appender {
    inner: Arc<Inner>,
    /// Write faults for the appends (the read-side engine keeps its own
    /// clone of the plan).
    fault: Option<crate::testing::FaultPlan>,
}

impl Appender {
    /// [`ShardedSpillStore::append_sealed`].
    pub(crate) fn append(&self, bytes: &[u8], labels: Vec<f64>) -> std::io::Result<usize> {
        let inner = &self.inner;
        let n_shards = inner.shard_meta.len();
        assert!(
            n_shards > 0,
            "append_sealed needs shard files; open the store with \
             ShardedSpillStore::open_streaming"
        );
        // Backpressure *before* taking the append mutex: a blocked
        // producer must never hold the lock stats readers need. The wait
        // is bounded by consumption, not time — the whole point is that
        // ingestion stalls until a visitor drains a sealed segment.
        if inner.max_pending > 0 {
            let t0 = Instant::now();
            let mut consumed = lock(&inner.consumed);
            let mut stalled = false;
            while inner
                .sealed
                .load(Ordering::Acquire)
                .saturating_sub(*consumed)
                >= inner.max_pending
            {
                stalled = true;
                consumed = wait(&inner.consumed_cv, consumed);
            }
            drop(consumed);
            if stalled {
                inner
                    .io
                    .stats
                    .ingest_stall_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        let mut append = lock(&inner.append);
        // The sequence number lives inside the mutex: concurrent callers
        // serialize here and each append gets a unique, gap-free seq.
        let seq = append.seq;
        let shard = seq % n_shards;
        let loc = land(&mut append.cursors, shard, bytes.len(), |at| {
            match &self.fault {
                Some(plan) => plan.faulty_append(&inner.io, shard, at, bytes, seq as u64),
                None => inner.io.devices[shard].file.write_all_at(bytes, at),
            }
        })?;
        let visible = {
            let mut entries = wlock(&inner.entries);
            entries.push(Entry::spilled(loc, labels));
            entries.len()
        };
        append.bytes += bytes.len() as u64;
        append.seq += 1;
        // Publish visibility last: an index below the watermark always
        // resolves to fully-written bytes and a registered entry.
        inner.sealed.store(visible, Ordering::Release);
        let pending = visible.saturating_sub(*lock(&inner.consumed));
        inner.peak_pending.fetch_max(pending, Ordering::Relaxed);
        drop(append);
        Ok(visible - 1)
    }
}

/// Sharded, concurrent out-of-core store: spilled batches are striped
/// across N append-only shard files, the read path is lock-free
/// positional IO, and an optional prefetch pipeline keeps upcoming
/// batches decoded in the background over a [`SpillIo`] engine.
/// Implements [`BatchProvider`].
pub struct ShardedSpillStore {
    inner: Arc<Inner>,
    prefetcher: Option<Prefetcher>,
    owns_dir: Option<PathBuf>,
    memory_bytes: usize,
    spilled_bytes: usize,
    /// Budget slack reserved for held live plans ([`hold_plans`]).
    plan_reserved: usize,
    /// Resolved scheduling (for [`PlacementReport`] / the CLI stats line).
    io_threads: usize,
    decode_workers: usize,
    /// The streaming-ingest append path.
    appender: Appender,
}

impl ShardedSpillStore {
    /// Encode `x` into mini-batches under `config`, laying everything
    /// past the memory budget out across `config.shards` shard files.
    /// `labels` follow the `toc-ml` convention.
    pub fn build(x: &DenseMatrix, labels: &[f64], config: &StoreConfig) -> std::io::Result<Self> {
        assert_eq!(x.rows(), labels.len());
        let mut builder = StoreBuilder::new(x.cols(), config);
        for (r, &label) in labels.iter().enumerate() {
            builder.push_row(x.row(r), label)?;
        }
        builder.finish()
    }

    /// Build the store off a `.tocz` container whose last column is the
    /// label ([`split_label`]): segments decode one at a time
    /// ([`SeekableContainer::for_each_row`]) and their rows re-chunk into
    /// `config.batch_rows` batches across segment boundaries, so batch
    /// boundaries — and therefore training — match
    /// [`ShardedSpillStore::build`] on the decoded matrix exactly.
    pub fn build_from_container(path: &Path, config: &StoreConfig) -> std::io::Result<Self> {
        let inval = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let sc = SeekableContainer::open(path).map_err(|e| inval(e.into()))?;
        let cols = sc.cols();
        if cols < 2 {
            return Err(inval(format!(
                "container has {cols} columns; need features plus a label column"
            )));
        }
        let mut builder = StoreBuilder::new(cols - 1, config);
        sc.for_each_row(&mut |_, row| {
            let (features, label) = split_label(row);
            builder.push_row(features, label).map_err(|e| e.to_string())
        })
        .map_err(inval)?;
        builder.finish()
    }

    /// The one place a store comes together, whatever produced its
    /// entries and shard files (a build, or an empty streaming open):
    /// device bandwidths, the shared [`Inner`], scheduler resolution, and
    /// the prefetch pipeline. Every entry counts as build-time — the
    /// prefetcher covers the spilled ones — and streaming appends continue
    /// at the shard files' cursors.
    fn assemble(
        config: &StoreConfig,
        features: usize,
        entries: Vec<Arc<Entry>>,
        mut shards: ShardFiles,
        memory_bytes: usize,
    ) -> Self {
        // From here on the store's own `Drop` removes the files.
        let cursors = std::mem::take(&mut shards.cursors);
        let owns_dir = shards.owned_dir.take();
        let shards = std::mem::take(&mut shards.files);
        // Per-shard bandwidths cycle when shorter than the shard count.
        let mbps = &config.shard_mbps;
        let (devices, shard_meta): (Vec<_>, Vec<_>) = shards
            .into_iter()
            .enumerate()
            .map(|(s, (file, path))| {
                let own = (!mbps.is_empty()).then(|| mbps[s % mbps.len()]);
                let device = SpillDevice::new(file, own.or(config.disk_mbps));
                (device, ShardMeta { path })
            })
            .unzip();
        let built = entries.len();
        let spilled_bytes = entries.iter().filter_map(|e| e.loc()).map(|l| l.len).sum();
        let spilled_order: Vec<usize> = (0..built)
            .filter(|&i| matches!(entries[i].slot, Slot::Disk(_)))
            .collect();
        let inner = Arc::new(Inner {
            scheme: config.scheme,
            features,
            sealed: AtomicUsize::new(entries.len()),
            entries: RwLock::new(entries),
            built,
            spilled_order,
            shard_meta,
            append: Mutex::new(AppendState {
                cursors,
                seq: 0,
                bytes: 0,
            }),
            appender_active: std::sync::atomic::AtomicBool::new(false),
            max_pending: config.max_pending,
            consumed: Mutex::new(built),
            consumed_cv: Condvar::new(),
            peak_pending: AtomicUsize::new(0),
            io: Arc::new(IoShards::new(devices)),
        });
        // Resolve the decode workers even when no pipeline starts, so the
        // report and the CLI stats line always name real numbers. IO
        // threads are reported only when an engine actually runs them;
        // the inline engine's reads happen inside the decode workers.
        let sched = &config.scheduler;
        let decode_workers = sched.resolved_decode_workers(config.prefetch, MAX_PREFETCH_WORKERS);
        let mut io_threads = 0;
        let prefetcher = (config.prefetch > 0 && !inner.spilled_order.is_empty()).then(|| {
            // A fault plan replaces the configured engine with FaultyIo,
            // whose worker count comes from the plan.
            let io = Arc::clone(&inner.io);
            let engine: Arc<dyn SpillIo> = match (&config.fault, config.io) {
                (Some(plan), _) => {
                    io_threads = plan.resolved_workers();
                    Arc::new(crate::testing::FaultyIo::start(io, plan.clone()))
                }
                (None, IoEngineKind::Sync) => Arc::new(InlineIo::new(io)),
                (None, IoEngineKind::Ring) => {
                    io_threads = sched.resolved_io_threads(inner.shard_meta.len());
                    Arc::new(RingIo::start(io, io_threads))
                }
            };
            Prefetcher::start(&inner, config.prefetch, engine, decode_workers)
        });
        let appender = Appender {
            inner: Arc::clone(&inner),
            fault: config.fault.clone(),
        };
        Self {
            inner,
            prefetcher,
            owns_dir,
            memory_bytes,
            spilled_bytes,
            plan_reserved: 0,
            io_threads,
            decode_workers,
            appender,
        }
    }

    /// Open an *empty* live store for streaming ingestion — a store built
    /// from zero batches whose shard files exist up front: every segment
    /// subsequently landed via [`ShardedSpillStore::append_sealed`] goes
    /// straight to disk, so ingest memory stays bounded by the encoder
    /// workspace no matter how many rows arrive. Trainers and tenant
    /// readers may run concurrently from the first append: each segment
    /// becomes visible atomically once sealed. The prefetch pipeline does
    /// not cover appended segments — their reads take the charged
    /// synchronous path — and a fault plan contributes its write faults to
    /// the append path.
    pub fn open_streaming(features: usize, config: &StoreConfig) -> std::io::Result<Self> {
        let mut shards = ShardFiles::default();
        for _ in 0..config.resolved_shards().max(1) {
            shards.create_next(config)?;
        }
        Ok(Self::assemble(config, features, Vec::new(), shards, 0))
    }

    /// Append one sealed (already encoded) segment and its labels to the
    /// live store; returns the index the new batch is visible at. Safe to
    /// call while trainers and tenant readers run: the bytes land at the
    /// end of the target shard file under the append mutex, and the batch
    /// only becomes visible — `num_batches()` only grows — after the write
    /// completed. Appends round-robin across the shard files.
    pub fn append_sealed(&self, bytes: &[u8], labels: Vec<f64>) -> std::io::Result<usize> {
        self.appender.append(bytes, labels)
    }

    /// An owned handle on the append path, for threads that outlive a
    /// borrow of the store (the seal workers of a [`crate::StoreIngest`]).
    pub(crate) fn appender(&self) -> Appender {
        self.appender.clone()
    }

    /// Segments landed through [`ShardedSpillStore::append_sealed`] so
    /// far (they count toward [`BatchProvider::num_batches`] too).
    pub fn appended_batches(&self) -> usize {
        self.inner.sealed.load(Ordering::Acquire) - self.inner.built
    }

    /// Encoded bytes landed through
    /// [`ShardedSpillStore::append_sealed`] so far. Reads under the
    /// append lock, so the value is never ahead of — or behind — the
    /// batches an [`ShardedSpillStore::appended_snapshot`] pairs it with.
    pub fn appended_bytes(&self) -> u64 {
        lock(&self.inner.append).bytes
    }

    /// Consistent `(appended_batches, appended_bytes)` pair, read under
    /// the append lock: `bytes` is exactly the sum of the first
    /// `batches` appended segments, no matter how many appends race the
    /// snapshot. (The lock-free [`ShardedSpillStore::appended_batches`]
    /// may already be ahead of a just-taken snapshot; it can never be
    /// behind it.)
    pub fn appended_snapshot(&self) -> (usize, u64) {
        let append = lock(&self.inner.append);
        (append.seq, append.bytes)
    }

    /// Appended segments sealed but not yet consumed by any visitor
    /// (the gauge [`StoreConfig::with_max_pending`] bounds).
    pub fn pending_appends(&self) -> usize {
        self.inner
            .sealed
            .load(Ordering::Acquire)
            .saturating_sub(*lock(&self.inner.consumed))
    }

    /// High-water mark of [`ShardedSpillStore::pending_appends`]
    /// observed at append time.
    pub fn peak_pending_appends(&self) -> usize {
        self.inner.peak_pending.load(Ordering::Relaxed)
    }

    /// Register an exclusive structured appender (what
    /// [`crate::StoreIngest`] holds for its lifetime): `None` while
    /// another token is live, so two ingest drivers can never interleave
    /// chunks into one store unawares. Raw
    /// [`ShardedSpillStore::append_sealed`] calls stay legal without a
    /// token — they serialize on the append mutex.
    pub fn try_acquire_appender(&self) -> Option<AppenderToken<'_>> {
        self.inner
            .appender_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            .then(|| AppenderToken { inner: &self.inner })
    }

    /// Number of batches kept in memory (only a build leaves any there).
    pub fn in_memory_batches(&self) -> usize {
        self.inner.built - self.inner.spilled_order.len()
    }

    /// Number of batches on disk (spilled at build time or appended).
    pub fn spilled_batches(&self) -> usize {
        self.num_batches() - self.in_memory_batches()
    }

    /// Number of shard files backing the spill.
    pub fn num_shards(&self) -> usize {
        self.inner.shard_meta.len()
    }

    /// Bytes of spilled batches on each shard: each shard file's length,
    /// since the entries on a shard tile it.
    pub fn shard_bytes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.inner.shard_meta.len()];
        for loc in rlock(&self.inner.entries).iter().filter_map(|e| e.loc()) {
            out[loc.shard] += loc.len as u64;
        }
        out
    }

    /// Current scheduling and device state: resolved IO threads and
    /// decode workers, per-shard EWMA bandwidth estimates and the bytes on
    /// each shard.
    pub fn placement_report(&self) -> PlacementReport {
        PlacementReport {
            io_threads: self.io_threads,
            decode_workers: self.decode_workers,
            shard_ewma_mbps: self.inner.io.profile.snapshot_mbps(),
            shard_bytes: self.shard_bytes(),
        }
    }

    /// Bytes of encoded batches resident in memory.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Bytes of encoded batches on disk.
    pub fn spilled_bytes(&self) -> usize {
        self.spilled_bytes
    }

    /// Total encoded footprint.
    pub fn total_bytes(&self) -> usize {
        self.memory_bytes + self.spilled_bytes
    }

    /// Bytes of the memory budget reserved for the live plans resident TOC
    /// batches hold: what the encoded batches left, up to the sum of the
    /// holding batches' bounds. `memory_bytes() + plan_bytes_reserved()`
    /// never exceeds the budget.
    pub fn plan_bytes_reserved(&self) -> usize {
        self.plan_reserved
    }

    /// Bytes the held live plans fill so far (a plan fills on its batch's
    /// first `A·M` / `M·A`); never more than [`Self::plan_bytes_reserved`].
    pub fn plan_bytes_held(&self) -> usize {
        rlock(&self.inner.entries)
            .iter()
            .filter_map(|e| match &e.slot {
                Slot::Memory(b) => b.toc(),
                Slot::Disk(_) => None,
            })
            .map(|toc| toc.held_plan_bytes())
            .sum()
    }

    /// The scheme this store encodes with.
    pub fn scheme(&self) -> Scheme {
        self.inner.scheme
    }

    /// Cumulative IO statistics.
    pub fn stats(&self) -> &IoStats {
        &self.inner.io.stats
    }

    /// Whether the prefetch pipeline is active.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetcher.is_some()
    }

    // -- Crate-private seam for the multi-tenant layer ([`crate::serve`]).
    // Tenant providers materialize spilled batches through the shared
    // cache (one direct charged read per miss) instead of the prefetch
    // pipeline, so they plug their own fetch into the one visit path and
    // need the charged device read, the parser and the bandwidth profile.

    /// The one visit path: serve entry `idx` to `f`, materializing a
    /// spilled batch through `fetch`, which gets the batch's location.
    pub(crate) fn visit_with(
        &self,
        idx: usize,
        fetch: impl FnOnce(DiskLoc) -> AnyBatch,
        f: &mut dyn FnMut(&AnyBatch, &[f64]),
    ) {
        // Clone the entry out of a brief table lock so the IO and decode
        // run lock-free.
        let e = Arc::clone(&rlock(&self.inner.entries)[idx]);
        match &e.slot {
            Slot::Memory(b) => f(b, &e.labels),
            Slot::Disk(loc) => {
                let b = fetch(*loc);
                f(&b, &e.labels);
                // Advance the consumed watermark *after* the visitor is
                // done with the batch and release any producer blocked on
                // the sealed-chunk budget.
                let mut consumed = lock(&self.inner.consumed);
                if idx + 1 > *consumed {
                    *consumed = idx + 1;
                    drop(consumed);
                    self.inner.consumed_cv.notify_all();
                }
            }
        }
    }

    /// Read the encoded bytes at `loc` through the charged device model
    /// (counts `disk_reads`/`bytes_read`, feeds the bandwidth profiler).
    pub(crate) fn read_spill_bytes(&self, loc: DiskLoc, buf: &mut Vec<u8>) {
        self.inner
            .io
            .read_range(loc.shard, loc.offset, loc.len, buf)
            .expect("read spill file");
    }

    /// Parse encoded spill bytes (tenant cache hits and miss reads).
    pub(crate) fn decode_spill(&self, bytes: &[u8]) -> AnyBatch {
        Scheme::from_bytes(bytes).expect("spill data corrupted")
    }

    /// Per-shard EWMA bandwidth estimate in bytes/sec, when observed.
    pub(crate) fn shard_ewma_bps(&self, shard: usize) -> Option<f64> {
        self.inner
            .io
            .profile
            .estimate_mbps(shard)
            .map(|mbps| mbps * 1e6)
    }

    /// Materialize the spilled batch `idx`, through the prefetch pipeline
    /// when one is running.
    fn fetch(&self, idx: usize, loc: DiskLoc) -> AnyBatch {
        match &self.prefetcher {
            Some(pf) => pf.fetch(&self.inner, idx, loc),
            None => self.inner.read_disk_sync(loc),
        }
    }
}

/// Snapshot of the scheduling / device state
/// ([`ShardedSpillStore::placement_report`]; the CLI prints it as the
/// machine-parseable `placement:` line).
#[derive(Clone, Debug)]
pub struct PlacementReport {
    /// IO threads the pipeline's engine runs (0 under the inline engine,
    /// whose reads happen in the decode workers, or with prefetch off).
    pub io_threads: usize,
    pub decode_workers: usize,
    /// Per-shard EWMA bandwidth estimates in MB/s (0.0 = never observed).
    pub shard_ewma_mbps: Vec<f64>,
    /// Bytes of spilled batches on each shard.
    pub shard_bytes: Vec<u64>,
}

impl BatchProvider for ShardedSpillStore {
    fn num_batches(&self) -> usize {
        // Grows while streaming ingest appends. `Acquire` pairs with the
        // seal's `Release` so an index this returns always resolves to
        // fully-written bytes.
        self.inner.sealed.load(Ordering::Acquire)
    }

    fn num_features(&self) -> usize {
        self.inner.features
    }

    fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64])) {
        self.visit_with(idx, |loc| self.fetch(idx, loc), f)
    }
}

impl Drop for ShardedSpillStore {
    fn drop(&mut self) {
        // Stop the workers before unlinking their files.
        self.prefetcher = None;
        // With the prefetcher (and its engine) gone, ours is the only
        // strong ref to Inner and its IoShards left, so the shard files
        // can be closed before the unlink — the portable (non-unix) path
        // cannot delete a file that is still open. Best-effort: if the
        // ref count is unexpectedly higher we skip closing (unix unlinks
        // open files fine).
        if let Some(inner) = Arc::get_mut(&mut self.inner) {
            inner.io = Arc::new(IoShards::new(Vec::new()));
        }
        for shard in &self.inner.shard_meta {
            let _ = fs::remove_file(&shard.path);
        }
        if let Some(d) = &self.owns_dir {
            let _ = fs::remove_dir(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_preset, DatasetPreset};
    use std::time::{Duration, Instant};

    fn dataset() -> (DenseMatrix, Vec<f64>) {
        let ds = generate_preset(DatasetPreset::CensusLike, 600, 21);
        (ds.x, ds.labels)
    }

    #[test]
    fn everything_fits_with_big_budget() {
        let (x, y) = dataset();
        let store =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Toc, 100, usize::MAX))
                .unwrap();
        assert_eq!(store.num_batches(), 6);
        assert_eq!(store.spilled_batches(), 0);
        assert_eq!(store.stats().disk_reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_budget_spills_everything_and_roundtrips() {
        let (x, y) = dataset();
        for scheme in [Scheme::Toc, Scheme::Den, Scheme::Gzip, Scheme::Cla] {
            let store =
                ShardedSpillStore::build(&x, &y, &StoreConfig::new(scheme, 150, 0)).unwrap();
            assert_eq!(store.spilled_batches(), 4, "{}", scheme.name());
            // Visiting a spilled batch does real IO and returns the exact
            // batch content.
            store.visit(2, &mut |b, labels| {
                assert_eq!(b.decode(), x.slice_rows(300, 450));
                assert_eq!(labels, &y[300..450]);
            });
            assert!(store.stats().disk_reads.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn partial_budget_splits_memory_and_disk() {
        let (x, y) = dataset();
        let probe =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Csr, 100, usize::MAX))
                .unwrap();
        let half = probe.memory_bytes() / 2;
        let store =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Csr, 100, half)).unwrap();
        assert!(store.in_memory_batches() >= 1);
        assert!(store.spilled_batches() >= 1);
        assert_eq!(store.in_memory_batches() + store.spilled_batches(), 6);
        // All batches still decode correctly.
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
    }

    #[test]
    fn toc_fits_where_den_spills() {
        // The crux of Table 6: pick a budget between the TOC footprint and
        // the DEN footprint.
        let (x, y) = dataset();
        let toc_total =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Toc, 250, usize::MAX))
                .unwrap()
                .total_bytes();
        let budget = toc_total * 2;
        let toc =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Toc, 250, budget)).unwrap();
        let den =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Den, 250, budget)).unwrap();
        assert_eq!(toc.spilled_batches(), 0);
        assert!(den.spilled_batches() > 0);
    }

    #[test]
    fn trainer_runs_over_spilled_store() {
        use toc_ml::mgd::{MgdConfig, ModelSpec, Trainer};
        use toc_ml::LossKind;
        let (x, y) = dataset();
        let store =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Toc, 100, 0)).unwrap();
        let trainer = Trainer::new(MgdConfig {
            epochs: 8,
            lr: 0.3,
            ..Default::default()
        });
        let mut report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &store, None);
        let eval = Scheme::Den.encode(&x);
        let err = report.model.error_rate(&eval, &y);
        assert!(err < 0.25, "error {err}");
        assert!(store.stats().disk_reads.load(Ordering::Relaxed) >= 8 * 6);
    }

    #[test]
    fn sharded_store_stripes_across_shard_files() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, 0).with_shards(3);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(store.num_batches(), 6);
        assert_eq!(store.spilled_batches(), 6);
        assert_eq!(store.num_shards(), 3);
        // Round-robin striping: every shard holds some bytes.
        let per_shard = store.shard_bytes();
        assert_eq!(per_shard.len(), 3);
        assert!(per_shard.iter().all(|&b| b > 0), "{per_shard:?}");
        assert_eq!(per_shard.iter().sum::<u64>(), store.spilled_bytes() as u64);
        // Shard paths exist while the store lives and are removed on drop.
        let paths: Vec<PathBuf> = store
            .inner
            .shard_meta
            .iter()
            .map(|s| s.path.clone())
            .collect();
        assert!(paths.iter().all(|p| p.exists()));
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, labels| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
                assert_eq!(labels, &y[i * 100..(i + 1) * 100]);
            });
        }
        drop(store);
        assert!(paths.iter().all(|p| !p.exists()));
    }

    #[test]
    fn partial_budget_split_is_independent_of_shard_count() {
        let (x, y) = dataset();
        let probe =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Csr, 100, usize::MAX))
                .unwrap();
        let budget = probe.memory_bytes() / 2;
        let config = StoreConfig::new(Scheme::Csr, 100, budget);
        let one = ShardedSpillStore::build(&x, &y, &config.clone().with_shards(1)).unwrap();
        let two = ShardedSpillStore::build(&x, &y, &config.with_shards(2)).unwrap();
        assert_eq!((one.num_shards(), two.num_shards()), (1, 2));
        assert_eq!(one.in_memory_batches(), two.in_memory_batches());
        assert_eq!(one.spilled_batches(), two.spilled_batches());
        assert_eq!(one.total_bytes(), two.total_bytes());
    }

    #[test]
    fn prefetch_pipeline_serves_decoded_batches() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, 0)
            .with_shards(2)
            .with_prefetch(3);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert!(store.prefetch_enabled());
        // Each visit keeps the lookahead window ahead of it scheduled
        // (whether the visit itself was a hit or a claimed miss). Before
        // visiting batches 1–3, wait — bounded, polling the pipeline
        // state rather than sleeping a fixed amount — until the workers
        // have decoded that batch; the visit must then be served from the
        // pipeline regardless of how threads were scheduled.
        store.visit(0, &mut |b, _| {
            assert_eq!(b.decode(), x.slice_rows(0, 100));
        });
        let before = store.stats().snapshot();
        let pf = store.prefetcher.as_ref().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 1..=3 {
            while !pf.is_ready(i) {
                assert!(
                    Instant::now() < deadline,
                    "prefetch workers stalled on batch {i}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
        let after = store.stats().snapshot();
        assert_eq!(after.prefetch_hits - before.prefetch_hits, 3, "{after:?}");
        // Finish the sweep: every spilled visit is accounted as exactly
        // one hit or miss, and every visit consumed exactly one read; at
        // most a lookahead window of reads stays unconsumed.
        for i in 4..store.num_batches() {
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
        let s = store.stats().snapshot();
        let visits = store.num_batches() as u64;
        assert_eq!(s.prefetch_hits + s.prefetch_misses, visits);
        assert_eq!(s.spill_requests, visits);
        assert!(s.disk_reads >= visits);
        assert!(
            s.disk_reads <= visits + 2 * 3 + MAX_PREFETCH_WORKERS as u64,
            "{s:?}"
        );
    }

    #[test]
    fn async_engines_serve_byte_exact_batches() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, 0)
            .with_shards(2)
            .with_prefetch(3)
            .with_io(IoEngineKind::Ring);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert!(store.prefetch_enabled());
        for _epoch in 0..2 {
            for i in 0..store.num_batches() {
                store.visit(i, &mut |b, labels| {
                    assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
                    assert_eq!(labels, &y[i * 100..(i + 1) * 100]);
                });
            }
        }
        let s = store.stats().snapshot_stable();
        s.assert_consistent();
        assert_eq!(s.spill_requests, 12, "{s:?}");
        assert!(s.submitted >= 1, "async engine never used: {s:?}");
        // Every visit consumed one engine or sync read; coalesced riders
        // count toward coverage.
        assert!(
            s.disk_reads + s.coalesced_reads >= s.spill_requests,
            "{s:?}"
        );
        // Note: no lower bound on `coalesced_reads` — whether adjacent
        // submissions land in one ring burst is scheduling-dependent (a
        // ring thread that wakes per submission drains bursts of one). The
        // merge logic itself is covered deterministically by
        // `io::tests::plan_runs_merges_adjacent_ranges_deterministically`.
    }

    #[test]
    fn bandwidth_throttle_accounts_per_shard() {
        let (x, y) = dataset();
        let mbps = 400.0;
        let config = StoreConfig::new(Scheme::Den, 150, 0)
            .with_shards(2)
            .with_disk_mbps(mbps);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        let t0 = Instant::now();
        for i in 0..store.num_batches() {
            store.visit(i, &mut |_, _| {});
        }
        let elapsed = t0.elapsed();
        let s = store.stats().snapshot();
        // The accounted delay is deterministic: sum of len/mbps per read.
        let expected: u64 = (0..store.num_batches())
            .map(|i| {
                let loc = store.inner.disk_loc(i).expect("spilled");
                (loc.len as f64 / (mbps * 1e6) * 1e9) as u64
            })
            .sum();
        assert_eq!(s.throttle_ns, expected);
        // A sequential sweep really slept for (at least) the simulated time
        // of the slowest shard.
        let slowest_shard_ns = store
            .shard_bytes()
            .iter()
            .map(|&b| (b as f64 / (mbps * 1e6) * 1e9) as u64)
            .max()
            .unwrap();
        assert!(elapsed >= Duration::from_nanos(slowest_shard_ns));
    }

    #[test]
    fn truncated_shard_fails_loudly_instead_of_hanging() {
        let (x, y) = dataset();
        for io in [IoEngineKind::Sync, IoEngineKind::Ring] {
            let config = StoreConfig::new(Scheme::Den, 100, 0)
                .with_shards(2)
                .with_prefetch(2)
                .with_io(io);
            let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
            // Truncate every shard behind the store's back. The prefetch
            // seed window only covers the first batches, so batch 4 is
            // guaranteed to be read after the truncation — by the
            // pipeline (whose failure must be contained and must not
            // strand the index in `pending`) or by the visitor's
            // synchronous path. Either way the visit must surface the IO
            // failure instead of waiting forever.
            for shard in &store.inner.shard_meta {
                OpenOptions::new()
                    .write(true)
                    .truncate(true)
                    .open(&shard.path)
                    .unwrap();
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.visit(4, &mut |_, _| {});
            }));
            assert!(
                result.is_err(),
                "visit over a truncated shard must fail ({io:?})"
            );
        }
    }

    /// The builder holds a row only while its chunk is staged: sixteen
    /// times the rows leave the staging high-water mark where it was.
    #[test]
    fn builder_staging_is_flat_in_total_rows() {
        let peak_for = |rows: usize| {
            let ds = generate_preset(DatasetPreset::CensusLike, rows, 21);
            let config = StoreConfig::new(Scheme::Toc, 32, 0);
            let mut builder = StoreBuilder::new(ds.x.cols(), &config);
            for r in 0..rows {
                builder.push_row(ds.x.row(r), ds.labels[r]).unwrap();
            }
            let peak = builder.ws.peak_bytes();
            assert_eq!(builder.finish().unwrap().spilled_batches(), rows / 32);
            peak
        };
        let (small, large) = (peak_for(64), peak_for(64 * 16));
        assert!(small > 0);
        assert!(
            large as f64 <= 1.1 * small as f64,
            "staging grew with total rows: {small} -> {large}"
        );
    }

    /// One pass: a spilled batch is in its shard file when the `push_row`
    /// that sealed it returns, so the files grow while rows arrive and
    /// hold every spilled byte before `finish` is called.
    #[test]
    fn spilled_batches_reach_their_shard_as_they_seal() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Den, 100, 0).with_shards(2);
        let mut builder = StoreBuilder::new(x.cols(), &config);
        let mut on_disk = Vec::new();
        for (r, &label) in y.iter().enumerate() {
            builder.push_row(x.row(r), label).unwrap();
            if (r + 1) % 100 == 0 {
                let files = builder.shards.files.iter();
                on_disk.push(
                    files
                        .map(|(_, p)| fs::metadata(p).unwrap().len())
                        .sum::<u64>(),
                );
            }
        }
        assert!(on_disk[0] > 0, "{on_disk:?}");
        assert!(on_disk.windows(2).all(|w| w[0] < w[1]), "{on_disk:?}");
        let store = builder.finish().unwrap();
        assert_eq!(on_disk[5], store.spilled_bytes() as u64);
    }

    /// Striping, written as batches seal: shard file `s` is the
    /// concatenation of the batches `i` with `i mod n == s`, byte for
    /// byte, and a shard nothing landed on has no file.
    #[test]
    fn stripe_shard_files_are_the_batches_in_order() {
        let (x, y) = dataset();
        for shards in 1..5 {
            for n_batches in [shards - 1, shards, 2 * shards + 1] {
                let rows = n_batches * 50;
                let config = StoreConfig::new(Scheme::Csr, 50, 0).with_shards(shards);
                let store =
                    ShardedSpillStore::build(&x.slice_rows(0, rows), &y[..rows], &config).unwrap();
                assert_eq!(store.num_shards(), shards.min(n_batches));
                for (s, meta) in store.inner.shard_meta.iter().enumerate() {
                    let want: Vec<u8> = (s..n_batches)
                        .step_by(shards)
                        .flat_map(|i| {
                            let batch = Scheme::Csr.encode(&x.slice_rows(i * 50, (i + 1) * 50));
                            batch.to_bytes()
                        })
                        .collect();
                    assert!(
                        fs::read(&meta.path).unwrap() == want,
                        "{shards} shards, {n_batches} batches: shard {s}"
                    );
                }
            }
        }
    }

    /// A builder dropped without `finish` — the caller hit an error, or
    /// panicked — removes the shard files it wrote and the spill directory
    /// it made, and a seal that cannot write is an error, not a panic.
    #[test]
    fn abandoned_build_leaves_no_files() {
        let (x, y) = dataset();
        let dir = std::env::temp_dir().join(format!("toc-abandoned-{}", std::process::id()));
        let base = StoreConfig::new(Scheme::Den, 100, 0).with_shards(2);
        for config in [base.clone(), base.clone().with_spill_dir(dir.clone())] {
            let mut builder = StoreBuilder::new(x.cols(), &config);
            for (r, &label) in y.iter().enumerate().take(350) {
                builder.push_row(x.row(r), label).unwrap();
            }
            let files = builder.shards.files.iter();
            let paths: Vec<PathBuf> = files.map(|(_, p)| p.clone()).collect();
            let owned = builder.shards.owned_dir.clone();
            assert_eq!(owned.is_some(), config.spill_dir.is_none());
            assert_eq!(paths.len(), 2);
            assert!(paths.iter().all(|p| p.exists()));
            drop(builder);
            assert!(paths.iter().all(|p| !p.exists()));
            assert!(owned.is_none_or(|d| !d.exists()));
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        // A regular file where the spill directory should go.
        let blocked = dir.join("not-a-dir");
        fs::write(&blocked, b"").unwrap();
        let config = base.with_spill_dir(blocked);
        let mut builder = StoreBuilder::new(x.cols(), &config);
        let mut pushed = (0..100).map(|r| builder.push_row(x.row(r), y[r]));
        assert!(pushed.any(|r| r.is_err()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_sharded_store_has_no_shards() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, usize::MAX)
            .with_shards(4)
            .with_prefetch(2);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(store.num_shards(), 0);
        assert!(!store.prefetch_enabled());
        assert_eq!(store.spilled_batches(), 0);
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
        assert_eq!(store.stats().snapshot(), IoSnapshot::default());
    }

    /// Spill shards are append-only: a spilled batch's extent is fixed when
    /// it seals, so at every epoch boundary the extents on shard `s`, in
    /// entry order, tile `[0, len)` of its file with no gap or overlap —
    /// for a built store a trainer reads through ring prefetch, and for a
    /// live one that grows by 20 appended segments meanwhile while a
    /// tenant reader visits it.
    #[test]
    fn spill_shards_are_append_only() {
        use crate::serve::{BatchCache, TenantProvider};
        use std::sync::mpsc::{channel, TryRecvError};
        use toc_ml::mgd::{MgdConfig, ModelSpec, Trainer};
        use toc_ml::LossKind;

        fn assert_tiled(store: &ShardedSpillStore, when: &str) {
            // Holding the append mutex keeps appends out: their bytes reach
            // the file before their entry reaches the table.
            let _append = lock(&store.inner.append);
            let per_shard = store.shard_bytes();
            let entries = rlock(&store.inner.entries);
            for (s, meta) in store.inner.shard_meta.iter().enumerate() {
                let file_len = fs::metadata(&meta.path).unwrap().len();
                let mut at = 0;
                for loc in entries.iter().filter_map(|e| e.loc()) {
                    if loc.shard == s {
                        assert_eq!(loc.offset, at, "{when}: gap or overlap on shard {s}");
                        at += loc.len as u64;
                    }
                }
                assert_eq!(at, file_len, "{when}: shard {s} holds bytes no entry owns");
                assert_eq!(per_shard[s], file_len, "{when}: shard_bytes of shard {s}");
            }
        }

        /// The trainer's view of the built store: every epoch boundary
        /// checks both stores.
        struct Checked<'a> {
            built: &'a ShardedSpillStore,
            live: &'a ShardedSpillStore,
            epochs: AtomicUsize,
        }
        impl BatchProvider for Checked<'_> {
            fn num_batches(&self) -> usize {
                self.built.num_batches()
            }
            fn num_features(&self) -> usize {
                self.built.num_features()
            }
            fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64])) {
                self.built.visit(idx, f)
            }
            fn end_epoch(&self) {
                self.built.end_epoch();
                let e = self.epochs.fetch_add(1, Ordering::Relaxed);
                assert_tiled(self.built, &format!("built store, epoch {e}"));
                assert_tiled(self.live, &format!("live store, trainer epoch {e}"));
            }
        }

        let (x, y) = dataset();
        let probe =
            ShardedSpillStore::build(&x, &y, &StoreConfig::new(Scheme::Den, 50, usize::MAX))
                .unwrap();
        let config = StoreConfig::new(Scheme::Den, 50, probe.memory_bytes() / 3)
            .with_shards(3)
            .with_prefetch(2)
            .with_io(IoEngineKind::Ring);
        let built = ShardedSpillStore::build(&x, &y, &config).unwrap();
        // Some batches stay resident, and the rest spill over all 3 shards.
        assert!(built.in_memory_batches() >= 1 && built.spilled_batches() >= 6);
        let live = Arc::new(ShardedSpillStore::open_streaming(x.cols(), &config).unwrap());
        let tenant = TenantProvider::new(Arc::clone(&live), Arc::new(BatchCache::new(0)), 1.0);
        let checked = Checked {
            built: &built,
            live: &live,
            epochs: AtomicUsize::new(0),
        };
        // The appender parks halfway until the tenant's first pass has
        // checked the half-appended store; later passes race the appends.
        // Channels, not a barrier: a side that ends, or panics, drops its
        // sender, so the other side's `recv` returns instead of waiting
        // forever; `parked` disconnecting is also how the tenant learns
        // that the appends are over.
        let (parked_tx, parked) = channel();
        let (resume_tx, resume) = channel::<()>();
        std::thread::scope(|s| {
            s.spawn(|| {
                let (parked_tx, resume) = (parked_tx, resume);
                for i in 0..20 {
                    if i == 10 {
                        parked_tx.send(()).unwrap();
                        let _ = resume.recv();
                    }
                    let rows = (i * 30, (i + 1) * 30);
                    let bytes = Scheme::Den.encode(&x.slice_rows(rows.0, rows.1)).to_bytes();
                    live.append_sealed(&bytes, y[rows.0..rows.1].to_vec())
                        .unwrap();
                }
            });
            s.spawn(|| {
                let (parked, resume_tx) = (parked, resume_tx);
                parked.recv().expect("the appender parks halfway");
                assert_eq!(tenant.num_batches(), 10);
                let mut pass = 0;
                let appending = || parked.try_recv() != Err(TryRecvError::Disconnected);
                while pass < 3 || appending() {
                    for i in 0..tenant.num_batches() {
                        tenant.visit(i, &mut |_, _| {});
                    }
                    tenant.end_epoch();
                    live.end_epoch();
                    assert_tiled(&live, &format!("live store, tenant pass {pass}"));
                    if pass == 0 {
                        resume_tx.send(()).unwrap();
                    }
                    pass += 1;
                }
            });
            let trainer = Trainer::new(MgdConfig {
                epochs: 6,
                lr: 0.3,
                ..Default::default()
            });
            trainer.train(&ModelSpec::Linear(LossKind::Logistic), &checked, None);
        });
        assert_eq!(checked.epochs.load(Ordering::Relaxed), 6);
        assert_eq!(live.appended_batches(), 20);
        assert_eq!(live.num_shards(), 3);
        assert_tiled(&built, "built store, at the end");
        assert_tiled(&live, "live store, at the end");
    }

    /// One decode worker, stuck for ~100 ms reading batch 0 off a slow
    /// shard: a visitor that asks for batch 1 meanwhile finds its request
    /// still queued behind the worker, takes it back and reads it itself
    /// off the fast shard — one miss, no wait — and the taken-back
    /// request never shows up decoded.
    #[test]
    fn visitor_ahead_of_a_busy_worker_takes_its_batch_back() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Den, 100, 0)
            .with_shards(2)
            .with_shard_mbps(vec![0.5, 2000.0])
            .with_prefetch(2)
            .with_scheduler(SchedulerConfig {
                decode_workers: 1,
                ..SchedulerConfig::default()
            });
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        // The worker charges a read's modelled delay before it sleeps it
        // out: wait (bounded) until it is inside batch 0's read, or a
        // visitor that outruns a not-yet-scheduled worker takes back
        // batch 0 too.
        let deadline = Instant::now() + Duration::from_secs(10);
        while store.stats().throttle_ns.load(Ordering::Relaxed) == 0 {
            assert!(
                Instant::now() < deadline,
                "the worker never started batch 0"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        store.visit(1, &mut |b, _| {
            assert_eq!(b.decode(), x.slice_rows(100, 200));
        });
        let took = t0.elapsed();
        let s = store.stats().snapshot();
        assert_eq!(
            (s.prefetch_hits, s.prefetch_misses, s.spill_requests),
            (0, 1, 1),
            "batch 1 was not taken back (visit took {took:?}): {s:?}"
        );
        assert!(!store.prefetcher.as_ref().unwrap().is_ready(1));
        // Batch 0 is the read the worker is in the middle of: it cannot
        // be taken back, the visitor waits for it, and that is a hit.
        store.visit(0, &mut |b, _| {
            assert_eq!(b.decode(), x.slice_rows(0, 100));
        });
        let s = store.stats().snapshot_stable();
        s.assert_consistent();
        assert_eq!((s.prefetch_hits, s.prefetch_misses), (1, 1), "{s:?}");
        assert_eq!((s.submitted, s.completed), (0, 0), "inline engine: {s:?}");
    }
}
