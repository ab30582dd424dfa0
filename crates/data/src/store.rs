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
//! module is its façade: configuration, the build paths, the entry table
//! and the one visit path, placement and checkpoints. It lays spilled
//! batches out across N shard files ([`StoreConfig::with_shards`]; one
//! shard models the paper's single disk) and reads them with lock-free
//! positional IO (`crate::io::SpillFile`). With
//! [`StoreConfig::with_prefetch`] the visits of build-time spilled
//! batches go through the background pipeline in `crate::prefetch`,
//! which keeps upcoming batches decoded while the trainer computes on the
//! current one, over the [`SpillIo`] engine [`StoreConfig::with_io`]
//! names: [`IoEngineKind::Sync`] (the default) reads inside the decode
//! workers, [`IoEngineKind::Ring`] on IO threads of its own that coalesce
//! adjacent reads.
//!
//! Build-time batches, batches the adaptive planner migrated, and
//! segments appended to a live store by streaming ingest
//! ([`ShardedSpillStore::open_streaming`]) all sit in one entry table and
//! share one visit / rebalance / checkpoint / tenant-read path.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

use toc_formats::wire::Rd;
use toc_formats::{AnyBatch, FormatError, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

use crate::io::{lock, rlock, wait, wlock, InlineIo, IoShards, RingIo, SpillDevice};
pub use crate::io::{
    DeviceProfile, IoEngineKind, IoSnapshot, IoStats, Pinning, SchedulerConfig, SpillIo,
};
use crate::prefetch::{Prefetcher, MAX_PREFETCH_WORKERS};

/// How spilled batches are laid out across the shard files.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPlacement {
    /// Round-robin striping: batch `i` lands on shard `i % N`. Maximizes
    /// per-visit device parallelism; consecutive visit-order batches are
    /// `N` apart in each shard file.
    #[default]
    Stripe,
    /// Compression-aware packing: consecutive spilled batches fill one
    /// shard until a byte-sized run target, then move to the next shard
    /// (runs round-robin over shards). Small, highly-compressed batches
    /// cluster adjacently in one file, so a ring-engine lookahead burst
    /// over them coalesces into a handful of large reads — one
    /// submission fetches several batches.
    Pack,
    /// Bandwidth-profiled adaptive placement: batches start in the `Pack`
    /// layout, every physical read charges its observed throughput into
    /// the per-shard EWMA ([`crate::io::BandwidthProfile`]), and at each
    /// epoch boundary ([`BatchProvider::end_epoch`], or
    /// [`ShardedSpillStore::rebalance`] directly) the planner re-packs
    /// hot (frequently re-visited) batches onto the shards measured
    /// fastest, migrating by append-and-repoint so in-flight reads of the
    /// old location stay valid. A slow or degrading device sheds its
    /// batches instead of serializing every epoch.
    Adaptive,
}

impl ShardPlacement {
    pub fn name(self) -> &'static str {
        match self {
            ShardPlacement::Stripe => "stripe",
            ShardPlacement::Pack => "pack",
            ShardPlacement::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for ShardPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ShardPlacement {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "stripe" => Ok(ShardPlacement::Stripe),
            "pack" => Ok(ShardPlacement::Pack),
            "adaptive" => Ok(ShardPlacement::Adaptive),
            other => Err(format!(
                "unknown placement {other:?} (stripe|pack|adaptive)"
            )),
        }
    }
}

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
    /// Spilled-batch layout across shard files.
    pub placement: ShardPlacement,
    /// IO-thread/decode-worker counts of the prefetch pipeline (see
    /// [`SchedulerConfig`]).
    pub scheduler: SchedulerConfig,
    /// Per-shard simulated device profiles (cycled over the shards when
    /// shorter). Overrides the uniform `disk_mbps` per device — this is
    /// how heterogeneous storage tiers enter the model. Empty = uniform.
    pub shard_profiles: Vec<DeviceProfile>,
    /// Fault-injection plan for the prefetch pipeline: when set, the
    /// pipeline runs on a [`crate::testing::FaultyIo`] engine that
    /// injects latency, chunked short reads, `EINTR`-style retries and
    /// out-of-order completions (test support; overrides `io`, and its
    /// `device_profiles` override `shard_profiles`).
    pub fault: Option<crate::testing::FaultPlan>,
    /// Per-scheme encoding knobs (CLA planner choice and sample size).
    pub encode: toc_formats::EncodeOptions,
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
            placement: ShardPlacement::Stripe,
            scheduler: SchedulerConfig::default(),
            shard_profiles: Vec::new(),
            fault: None,
            encode: toc_formats::EncodeOptions::default(),
            max_pending: 0,
        }
    }

    /// Builder-style bounded sealed-chunk budget for streaming
    /// ingestion (`0` = unbounded, never block the producer).
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Builder-style encoding-options override.
    pub fn with_encode_options(mut self, encode: toc_formats::EncodeOptions) -> Self {
        self.encode = encode;
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

    /// Builder-style shard-placement override.
    pub fn with_placement(mut self, placement: ShardPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style scheduler override (IO threads, decode workers).
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style per-shard device-profile override (cycled over the
    /// shards when shorter than the shard count).
    pub fn with_shard_profiles(mut self, profiles: Vec<DeviceProfile>) -> Self {
        self.shard_profiles = profiles;
        self
    }

    /// Convenience: stable per-shard bandwidths in MB/s (the asymmetric
    /// storage-tier model without degradation).
    pub fn with_shard_mbps(mut self, mbps: Vec<f64>) -> Self {
        self.shard_profiles = mbps.into_iter().map(DeviceProfile::stable).collect();
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

/// Pick the spill directory: the configured one, or a fresh per-store
/// directory under the OS temp dir (returned as owned for cleanup).
fn resolve_spill_dir(config: &StoreConfig) -> (PathBuf, Option<PathBuf>) {
    match &config.spill_dir {
        Some(d) => (d.clone(), None),
        None => {
            let d = std::env::temp_dir().join(format!(
                "toc-store-{}-{}",
                std::process::id(),
                NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            ));
            (d.clone(), Some(d))
        }
    }
}

/// A batch staged by the first build pass, before shard layout.
enum Pending {
    Mem(AnyBatch),
    Disk(Vec<u8>),
}

/// The memory-vs-disk budget decision every build path shares: a batch
/// stays resident while it fits in what is left of `budget`, anything
/// beyond is serialized for the spill. Original batch order is preserved
/// (shuffle-once semantics).
fn stage_batch(
    pending: &mut Vec<(Pending, Vec<f64>)>,
    memory_bytes: &mut usize,
    budget: usize,
    batch: AnyBatch,
    labels: Vec<f64>,
) {
    let size = batch.size_bytes();
    if *memory_bytes + size <= budget {
        *memory_bytes += size;
        pending.push((Pending::Mem(batch), labels));
    } else {
        pending.push((Pending::Disk(batch.to_bytes()), labels));
    }
}

/// Create (truncating) `n` shard files for a new store under `dir`. The
/// per-store id in the names keeps two stores sharing an explicit
/// `spill_dir` (and scheme) from truncating or unlinking each other's
/// live shards.
fn create_shard_files(
    dir: &Path,
    scheme: Scheme,
    n: usize,
) -> std::io::Result<Vec<(fs::File, PathBuf)>> {
    fs::create_dir_all(dir)?;
    let store_id = NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed);
    (0..n)
        .map(|s| {
            let path = dir.join(format!("spill-{}-{store_id}-s{s}.bin", scheme.tag()));
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .read(true)
                .truncate(true)
                .open(&path)?;
            Ok((file, path))
        })
        .collect()
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
    /// Spilled. The location sits behind a lock because adaptive
    /// placement repoints it between epochs; every reader takes a brief
    /// read lock (cheap next to the file IO it precedes).
    Disk(RwLock<DiskLoc>),
}

/// One batch of the store — resident or spilled at build time, or
/// appended to a live store by streaming ingest
/// ([`ShardedSpillStore::append_sealed`]). Entries are `Arc`-shared so a
/// visitor clones one out of a brief table read lock and decodes without
/// holding any lock.
pub(crate) struct Entry {
    slot: Slot,
    labels: Vec<f64>,
    /// Visit count of a spilled entry — the hotness signal the adaptive
    /// planner and the tenant cache rank batches by.
    visits: AtomicU64,
}

impl Entry {
    fn new(slot: Slot, labels: Vec<f64>) -> Arc<Self> {
        Arc::new(Self {
            slot,
            labels,
            visits: AtomicU64::new(0),
        })
    }

    fn spilled(loc: DiskLoc, labels: Vec<f64>) -> Arc<Self> {
        Self::new(Slot::Disk(RwLock::new(loc)), labels)
    }

    /// Current location, when the entry is disk-resident.
    pub(crate) fn loc(&self) -> Option<DiskLoc> {
        match &self.slot {
            Slot::Disk(loc) => Some(*rlock(loc)),
            Slot::Memory(_) => None,
        }
    }
}

/// Per-shard bookkeeping that is not part of the read path.
struct ShardMeta {
    path: PathBuf,
}

/// Placement counters for the adaptive planner (exposed through
/// [`PlacementReport`]).
#[derive(Default)]
struct PlacementStats {
    /// Rebalance passes that had enough profiler signal to plan.
    rebalances: AtomicU64,
    /// Batches migrated to a different shard.
    migrated_batches: AtomicU64,
    /// Bytes those migrations copied.
    migrated_bytes: AtomicU64,
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
    /// Streaming-append state (cursors, sequence, byte total). Doubles as
    /// the placement mutation lock: rebalance and streaming-ingest
    /// appends hold it end to end, so plans and cursor bumps never
    /// interleave — and because the sequence number lives *inside* the
    /// mutex, two racing appenders serialize instead of interleaving
    /// sequence numbers.
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
    placement_stats: PlacementStats,
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

/// One sealed segment recorded in a [`StoreCheckpoint`]: its current
/// shard extent and its labels.
#[derive(Clone, Debug, PartialEq)]
struct CheckpointEntry {
    shard: u32,
    offset: u64,
    len: u64,
    labels: Vec<f64>,
}

/// Serializable snapshot of a streaming store's append state
/// ([`ShardedSpillStore::streaming_checkpoint`] /
/// [`ShardedSpillStore::open_streaming_resume`]): shard file paths,
/// per-shard cursors, and every sealed segment's extent + labels.
/// Integrity (checksums) is the enclosing sidecar's job — see
/// `toc_data::ingest`.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreCheckpoint {
    shard_paths: Vec<PathBuf>,
    cursors: Vec<u64>,
    entries: Vec<CheckpointEntry>,
}

const STORE_CKPT_V1: u8 = 1;

impl StoreCheckpoint {
    /// Segments recorded in this checkpoint.
    pub fn num_segments(&self) -> usize {
        self.entries.len()
    }

    /// Total encoded bytes across the recorded segments.
    pub fn encoded_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }

    /// The shard files this checkpoint expects to find on disk.
    pub fn shard_paths(&self) -> &[PathBuf] {
        &self.shard_paths
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STORE_CKPT_V1);
        out.extend_from_slice(&(self.shard_paths.len() as u32).to_le_bytes());
        for (path, cursor) in self.shard_paths.iter().zip(&self.cursors) {
            let p = path.to_string_lossy();
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p.as_bytes());
            out.extend_from_slice(&cursor.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.shard.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&(e.labels.len() as u64).to_le_bytes());
            for l in &e.labels {
                out.extend_from_slice(&l.to_le_bytes());
            }
        }
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        Self::parse(bytes).map_err(|e| match e {
            FormatError::Corrupt(m) => format!("store checkpoint {m}"),
            other => other.to_string(),
        })
    }

    fn parse(bytes: &[u8]) -> Result<Self, FormatError> {
        let corrupt = |m: String| FormatError::Corrupt(m);
        let mut rd = Rd::new(bytes);
        if rd.u8()? != STORE_CKPT_V1 {
            return Err(corrupt("version is unknown".into()));
        }
        let n_shards = rd.u32()? as usize;
        if n_shards == 0 || n_shards > 4096 {
            return Err(corrupt(format!("has implausible shard count {n_shards}")));
        }
        let mut shard_paths = Vec::with_capacity(n_shards);
        let mut cursors = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let plen = rd.u32()? as usize;
            let p = std::str::from_utf8(rd.take(plen)?)
                .map_err(|_| corrupt("has a bad shard path encoding".into()))?;
            shard_paths.push(PathBuf::from(p));
            cursors.push(rd.u64()?);
        }
        let n_entries = rd.u64()?;
        if n_entries > bytes.len() as u64 {
            return Err(corrupt("claims more entries than it carries".into()));
        }
        let mut entries = Vec::with_capacity(n_entries as usize);
        for _ in 0..n_entries {
            let shard = rd.u32()?;
            let offset = rd.u64()?;
            let len = rd.u64()?;
            let n_labels = rd.u64()?;
            if n_labels > bytes.len() as u64 {
                return Err(corrupt("claims more labels than it carries".into()));
            }
            let mut labels = Vec::with_capacity(n_labels as usize);
            for _ in 0..n_labels {
                labels.push(rd.f64()?);
            }
            entries.push(CheckpointEntry {
                shard,
                offset,
                len,
                labels,
            });
        }
        rd.done()?;
        Ok(Self {
            shard_paths,
            cursors,
            entries,
        })
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

/// Sharded, concurrent out-of-core store: spilled batches are laid out
/// across N shard files ([`ShardPlacement`]), the read path is lock-free
/// positional IO, and an optional prefetch pipeline keeps upcoming
/// batches decoded in the background over a [`SpillIo`] engine.
/// Implements [`BatchProvider`].
pub struct ShardedSpillStore {
    inner: Arc<Inner>,
    prefetcher: Option<Prefetcher>,
    owns_dir: Option<PathBuf>,
    memory_bytes: usize,
    spilled_bytes: usize,
    placement: ShardPlacement,
    /// Resolved scheduling (for [`PlacementReport`] / the CLI stats line).
    io_threads: usize,
    decode_workers: usize,
    /// Fault plan applied to the streaming-ingest *append* path (write
    /// faults); the read-side engine keeps its own clone.
    ingest_fault: Option<crate::testing::FaultPlan>,
}

/// Pack placement: aim for this many contiguous runs per shard, so every
/// shard still sees multiple visit-order runs (device parallelism) while
/// each run keeps consecutive batches file-adjacent (coalescing).
const PACK_RUNS_PER_SHARD: usize = 4;

impl ShardedSpillStore {
    /// Encode `x` into mini-batches under `config`, laying everything
    /// past the memory budget out across `config.shards` shard files.
    /// `labels` follow the `toc-ml` convention.
    pub fn build(x: &DenseMatrix, labels: &[f64], config: &StoreConfig) -> std::io::Result<Self> {
        assert_eq!(x.rows(), labels.len());
        let mut pending = Vec::new();
        let mut memory_bytes = 0usize;
        let mut start = 0usize;
        while start < x.rows() {
            let end = (start + config.batch_rows).min(x.rows());
            let batch = config
                .scheme
                .encode_with(&x.slice_rows(start, end), &config.encode);
            stage_batch(
                &mut pending,
                &mut memory_bytes,
                config.memory_budget,
                batch,
                labels[start..end].to_vec(),
            );
            start = end;
        }
        Self::from_pending(pending, memory_bytes, x.cols(), config)
    }

    /// Build the store by streaming a v2 `.tocz` container instead of a
    /// materialized dense matrix: segments decode one at a time through
    /// [`crate::io::SeekableContainer`], the last column is split off as
    /// the ±1 label, and rows re-chunk into `config.batch_rows` batches
    /// (with carry-over across segment boundaries), so the resulting
    /// batch boundaries — and therefore training — match
    /// [`ShardedSpillStore::build`] on the decoded matrix exactly. Peak
    /// memory is one decoded segment plus one staged batch, not the
    /// dataset.
    pub fn build_from_container(path: &Path, config: &StoreConfig) -> std::io::Result<Self> {
        let inval = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let sc = crate::io::SeekableContainer::open(path).map_err(inval)?;
        let cols = sc.cols();
        if cols < 2 {
            return Err(inval(format!(
                "container has {cols} columns; need features plus a label column"
            )));
        }
        let d = cols - 1;
        let mut pending = Vec::new();
        let mut memory_bytes = 0usize;
        let mut stage: Vec<f64> = Vec::with_capacity(config.batch_rows * d);
        let mut stage_y: Vec<f64> = Vec::with_capacity(config.batch_rows);
        let mut flush = |stage: &mut Vec<f64>, stage_y: &mut Vec<f64>| {
            if stage_y.is_empty() {
                return;
            }
            let dense = DenseMatrix::from_vec(stage_y.len(), d, std::mem::take(stage));
            let batch = config.scheme.encode_with(&dense, &config.encode);
            stage_batch(
                &mut pending,
                &mut memory_bytes,
                config.memory_budget,
                batch,
                std::mem::take(stage_y),
            );
        };
        for seg in 0..sc.num_segments() {
            let dense = sc.decode_segment(seg).map_err(inval)?.decode();
            for r in 0..dense.rows() {
                let row = dense.row(r);
                stage.extend_from_slice(&row[..d]);
                stage_y.push(if row[d] >= 0.0 { 1.0 } else { -1.0 });
                if stage_y.len() == config.batch_rows {
                    flush(&mut stage, &mut stage_y);
                }
            }
        }
        flush(&mut stage, &mut stage_y);
        Self::from_pending(pending, memory_bytes, d, config)
    }

    /// Second phase shared by [`ShardedSpillStore::build`] and
    /// [`ShardedSpillStore::build_from_container`]: lay the spilled
    /// batches out across shard files (none when everything fit in
    /// memory).
    fn from_pending(
        pending: Vec<(Pending, Vec<f64>)>,
        memory_bytes: usize,
        features: usize,
        config: &StoreConfig,
    ) -> std::io::Result<Self> {
        let spill_sizes: Vec<usize> = pending
            .iter()
            .filter_map(|(p, _)| match p {
                Pending::Disk(b) => Some(b.len()),
                Pending::Mem(_) => None,
            })
            .collect();
        let (mut shards, owns_dir) = if spill_sizes.is_empty() {
            (Vec::new(), None)
        } else {
            let (dir, owns_dir) = resolve_spill_dir(config);
            let n_shards = config.resolved_shards().clamp(1, spill_sizes.len());
            (create_shard_files(&dir, config.scheme, n_shards)?, owns_dir)
        };
        let assignment = place_spilled(&spill_sizes, shards.len().max(1), config.placement);
        let mut cursors = vec![0u64; shards.len()];
        let mut spill_idx = 0usize;
        let mut entries = Vec::with_capacity(pending.len());
        for (p, y) in pending {
            entries.push(match p {
                Pending::Mem(b) => Entry::new(Slot::Memory(b), y),
                Pending::Disk(bytes) => {
                    let shard = assignment[spill_idx];
                    spill_idx += 1;
                    shards[shard].0.write_all(&bytes)?;
                    let loc = DiskLoc {
                        shard,
                        offset: cursors[shard],
                        len: bytes.len(),
                    };
                    cursors[shard] += bytes.len() as u64;
                    Entry::spilled(loc, y)
                }
            });
        }
        for (file, _) in &shards {
            file.sync_all()?;
        }
        Self::assemble(config, features, entries, 0, shards, owns_dir, memory_bytes)
    }

    /// The one place a store comes together, whatever produced its
    /// entries and shard files (a build, an empty streaming open, or a
    /// checkpoint resume): device profiles, the shared [`Inner`],
    /// scheduler resolution, and the prefetch pipeline. The last
    /// `appended` entries count as stream-appended; the prefetcher covers
    /// the build-time spilled entries before them. Appends continue at
    /// each shard file's current length.
    fn assemble(
        config: &StoreConfig,
        features: usize,
        entries: Vec<Arc<Entry>>,
        appended: usize,
        shards: Vec<(fs::File, PathBuf)>,
        owns_dir: Option<PathBuf>,
        memory_bytes: usize,
    ) -> std::io::Result<Self> {
        let cursors = shards
            .iter()
            .map(|(file, _)| Ok(file.metadata()?.len()))
            .collect::<std::io::Result<Vec<u64>>>()?;
        // Per-shard device profiles: the fault plan's (test harness) win
        // over the config's; both cycle when shorter than the shard count.
        let profiles: &[DeviceProfile] = config
            .fault
            .as_ref()
            .map(|f| f.device_profiles.as_slice())
            .filter(|p| !p.is_empty())
            .unwrap_or(&config.shard_profiles);
        let (devices, shard_meta): (Vec<_>, Vec<_>) = shards
            .into_iter()
            .enumerate()
            .map(|(s, (file, path))| {
                let profile = (!profiles.is_empty()).then(|| profiles[s % profiles.len()]);
                (SpillDevice::with_profile(file, profile), ShardMeta { path })
            })
            .unzip();
        let built = entries.len() - appended;
        let spilled_len = |es: &[Arc<Entry>]| -> u64 {
            es.iter()
                .filter_map(|e| e.loc())
                .map(|l| l.len as u64)
                .sum()
        };
        let spilled_bytes = spilled_len(&entries[..built]) as usize;
        let appended_bytes = spilled_len(&entries[built..]);
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
                seq: appended,
                bytes: appended_bytes,
            }),
            appender_active: std::sync::atomic::AtomicBool::new(false),
            max_pending: config.max_pending,
            consumed: Mutex::new(built),
            consumed_cv: Condvar::new(),
            peak_pending: AtomicUsize::new(0),
            placement_stats: PlacementStats::default(),
            io: Arc::new(IoShards::new(devices, config.disk_mbps)),
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
        Ok(Self {
            inner,
            prefetcher,
            owns_dir,
            memory_bytes,
            spilled_bytes,
            placement: config.placement,
            io_threads,
            decode_workers,
            ingest_fault: config.fault.clone(),
        })
    }

    /// Open an *empty* live store for streaming ingestion — a store built
    /// from zero batches whose shard files exist up front: every segment
    /// subsequently landed via [`ShardedSpillStore::append_sealed`] goes
    /// straight to disk, so ingest memory stays bounded by the encoder
    /// workspace no matter how many rows arrive. Trainers, tenant readers
    /// and the adaptive migrator may run concurrently from the first
    /// append: each segment becomes visible atomically once sealed. The
    /// prefetch pipeline does not cover appended segments — their reads
    /// take the charged synchronous path — and a fault plan contributes
    /// its `device_profiles` to the shard devices and its write faults to
    /// the append path.
    pub fn open_streaming(features: usize, config: &StoreConfig) -> std::io::Result<Self> {
        let (dir, owns_dir) = resolve_spill_dir(config);
        let n_shards = config.resolved_shards().max(1);
        let shards = create_shard_files(&dir, config.scheme, n_shards)?;
        Self::assemble(config, features, Vec::new(), 0, shards, owns_dir, 0)
    }

    /// Append one sealed (already encoded) segment and its labels to the
    /// live store; returns the index the new batch is visible at. Safe to
    /// call while trainers, tenant readers and the adaptive migrator run:
    /// the bytes land at the target shard's append cursor under the same
    /// mutex rebalance holds end to end (cursor bumps never interleave
    /// with migrations), and the batch only becomes visible —
    /// `num_batches()` only grows — after the write completed. Appends
    /// round-robin across the shard files.
    pub fn append_sealed(&self, bytes: &[u8], labels: Vec<f64>) -> std::io::Result<usize> {
        let inner = &self.inner;
        let n_shards = inner.shard_meta.len();
        assert!(
            n_shards > 0,
            "append_sealed needs shard files; open the store with \
             ShardedSpillStore::open_streaming"
        );
        // Backpressure *before* taking the append mutex: a blocked
        // producer must never hold the lock rebalance and stats readers
        // need. The wait is bounded by consumption, not time — the whole
        // point is that ingestion stalls until a visitor drains a sealed
        // segment.
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
        let offset = append.cursors[shard];
        match &self.ingest_fault {
            Some(plan) => plan.faulty_append(&inner.io, shard, offset, bytes, seq as u64)?,
            None => inner.io.devices[shard].file.write_all_at(bytes, offset)?,
        }
        append.cursors[shard] = offset + bytes.len() as u64;
        let loc = DiskLoc {
            shard,
            offset,
            len: bytes.len(),
        };
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

    /// Snapshot the streaming-append state for a checkpoint sidecar:
    /// shard file paths and cursors plus every sealed segment's current
    /// extent and labels (post-migration locations — a checkpoint taken
    /// after a rebalance restores the rebalanced layout). Taken under
    /// the append lock, so it can never capture a half-appended
    /// segment. Panics on a non-streaming store: build-time entries are
    /// reproducible from their source and have no business in a crash
    /// checkpoint.
    pub fn streaming_checkpoint(&self) -> StoreCheckpoint {
        let inner = &self.inner;
        assert!(
            inner.built == 0 && !inner.shard_meta.is_empty(),
            "streaming_checkpoint needs a store opened with open_streaming"
        );
        let append = lock(&inner.append);
        let entries = rlock(&inner.entries)
            .iter()
            .take(append.seq)
            .map(|e| {
                let loc = e.loc().expect("appended segments are disk-resident");
                CheckpointEntry {
                    shard: loc.shard as u32,
                    offset: loc.offset,
                    len: loc.len as u64,
                    labels: e.labels.clone(),
                }
            })
            .collect();
        StoreCheckpoint {
            shard_paths: inner.shard_meta.iter().map(|m| m.path.clone()).collect(),
            cursors: append.cursors.clone(),
            entries,
        }
    }

    /// Re-open a streaming store from a [`StoreCheckpoint`] after a
    /// crash: the shard files named by the checkpoint are opened in
    /// place (never truncated below the recorded cursors — a file
    /// shorter than its cursor means the checkpoint outran the data and
    /// is rejected), any torn bytes past the cursors are truncated
    /// away, and every checkpointed segment becomes visible again.
    /// Appending continues exactly where the crashed run left off.
    pub fn open_streaming_resume(
        features: usize,
        config: &StoreConfig,
        ckpt: &StoreCheckpoint,
    ) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let n_shards = ckpt.shard_paths.len();
        if n_shards == 0 || ckpt.cursors.len() != n_shards {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "checkpoint has no shards or mismatched cursor count",
            ));
        }
        for (i, e) in ckpt.entries.iter().enumerate() {
            let s = e.shard as usize;
            if s >= n_shards || e.offset + e.len > ckpt.cursors[s] {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("checkpoint entry {i} extends past its shard cursor"),
                ));
            }
        }
        let mut shards = Vec::with_capacity(n_shards);
        for (s, (path, &cursor)) in ckpt.shard_paths.iter().zip(&ckpt.cursors).enumerate() {
            let f = OpenOptions::new().write(true).read(true).open(path)?;
            let len = f.metadata()?.len();
            if len < cursor {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "shard {s} is {len} bytes but the checkpoint says {cursor}: \
                         the sidecar outran the data and cannot be resumed from"
                    ),
                ));
            }
            // Drop any torn tail past the checkpointed watermark.
            if len > cursor {
                f.set_len(cursor)?;
            }
            shards.push((f, path.clone()));
        }
        let entries: Vec<Arc<Entry>> = ckpt
            .entries
            .iter()
            .map(|e| {
                let loc = DiskLoc {
                    shard: e.shard as usize,
                    offset: e.offset,
                    len: e.len as usize,
                };
                Entry::spilled(loc, e.labels.clone())
            })
            .collect();
        let appended = entries.len();
        Self::assemble(config, features, entries, appended, shards, None, 0)
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

    /// Bytes of spilled batches currently assigned to each shard (follows
    /// adaptive migrations; superseded copies left behind by
    /// append-and-repoint are not counted).
    pub fn shard_bytes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.inner.shard_meta.len()];
        for loc in rlock(&self.inner.entries).iter().filter_map(|e| e.loc()) {
            out[loc.shard] += loc.len as u64;
        }
        out
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
    /// spilled batch through `fetch`, which gets the batch's current
    /// location (it may change across adaptive rebalances; the bytes
    /// never do) and its visit count including this visit — the adaptive
    /// planner's and the tenant cache's heat signal.
    pub(crate) fn visit_with(
        &self,
        idx: usize,
        fetch: impl FnOnce(DiskLoc, u64) -> AnyBatch,
        f: &mut dyn FnMut(&AnyBatch, &[f64]),
    ) {
        // Clone the entry out of a brief table lock so the IO and decode
        // run lock-free.
        let e = Arc::clone(&rlock(&self.inner.entries)[idx]);
        match &e.slot {
            Slot::Memory(b) => f(b, &e.labels),
            Slot::Disk(loc) => {
                let visits = e.visits.fetch_add(1, Ordering::Relaxed) + 1;
                let loc = *rlock(loc);
                let b = fetch(loc, visits);
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

    /// Current placement state: policy, resolved scheduling, rebalance and
    /// migration counters, per-shard EWMA bandwidth estimates and the
    /// bytes currently assigned to each shard.
    pub fn placement_report(&self) -> PlacementReport {
        let ps = &self.inner.placement_stats;
        PlacementReport {
            policy: self.placement,
            io_threads: self.io_threads,
            decode_workers: self.decode_workers,
            rebalances: ps.rebalances.load(Ordering::Relaxed),
            migrated_batches: ps.migrated_batches.load(Ordering::Relaxed),
            migrated_bytes: ps.migrated_bytes.load(Ordering::Relaxed),
            shard_ewma_mbps: self.inner.io.profile.snapshot_mbps(),
            shard_bytes: self.shard_bytes(),
        }
    }

    /// Re-plan the adaptive placement from the observed per-shard
    /// bandwidth EWMAs and the per-batch visit counts, then migrate every
    /// batch whose planned shard is meaningfully faster than its current
    /// one ([`REBALANCE_HYSTERESIS`]). Returns the number of batches
    /// migrated.
    ///
    /// Migration is append-and-repoint: the batch's bytes are copied to
    /// the end of the target shard file and the location table repointed,
    /// so reads already in flight against the old location still return
    /// the right bytes — the pipeline never has to drain. Skipped until
    /// every shard has at least one profiler observation (there is
    /// nothing measured to plan by before that).
    pub fn rebalance(&self) -> usize {
        let inner = &self.inner;
        let n_shards = inner.shard_meta.len();
        if n_shards < 2 {
            return 0;
        }
        if (0..n_shards).any(|s| inner.io.profile.samples(s) == 0) {
            return 0;
        }
        // The append lock doubles as the placement mutation lock: one
        // rebalance at a time, and append offsets stay consistent.
        let mut append = lock(&inner.append);
        inner
            .placement_stats
            .rebalances
            .fetch_add(1, Ordering::Relaxed);
        let bw: Vec<f64> = (0..n_shards)
            .map(|s| inner.io.profile.estimate_mbps(s).unwrap_or(1.0))
            .collect();
        // With the append mutex held no new entry can seal mid-pass, so
        // the snapshot is consistent. Plan ids are the spilled entries in
        // table order.
        let spilled: Vec<(Arc<Entry>, DiskLoc)> = rlock(&inner.entries)
            .iter()
            .filter_map(|e| e.loc().map(|loc| (Arc::clone(e), loc)))
            .collect();
        let sizes: Vec<usize> = spilled.iter().map(|(_, loc)| loc.len).collect();
        let hot: Vec<u64> = spilled
            .iter()
            .map(|(e, _)| e.visits.load(Ordering::Relaxed))
            .collect();
        let capacity = vec![u64::MAX; n_shards];
        let plan = plan_adaptive(&sizes, &hot, &bw, &capacity);
        let mut moved = 0usize;
        let mut moved_bytes = 0u64;
        let mut buf = Vec::new();
        for (&target, (entry, loc)) in plan.iter().zip(&spilled) {
            if target == loc.shard || bw[target] < REBALANCE_HYSTERESIS * bw[loc.shard] {
                continue;
            }
            // Copy through the charged read path (migration pays the
            // source device's bandwidth and shows up in IoStats), then
            // append to the target shard and repoint.
            if inner
                .io
                .read_range(loc.shard, loc.offset, loc.len, &mut buf)
                .is_err()
            {
                continue; // keep the old location; the visit path surfaces IO errors
            }
            let offset = append.cursors[target];
            if inner.io.devices[target]
                .file
                .write_all_at(&buf, offset)
                .is_err()
            {
                continue;
            }
            append.cursors[target] += loc.len as u64;
            if let Slot::Disk(current) = &entry.slot {
                *wlock(current) = DiskLoc {
                    shard: target,
                    offset,
                    len: loc.len,
                };
            }
            moved += 1;
            moved_bytes += loc.len as u64;
        }
        inner
            .placement_stats
            .migrated_batches
            .fetch_add(moved as u64, Ordering::Relaxed);
        inner
            .placement_stats
            .migrated_bytes
            .fetch_add(moved_bytes, Ordering::Relaxed);
        moved
    }
}

/// A migration must buy at least this bandwidth ratio between the target
/// and the current shard, or the batch stays put. Keeps statistically
/// flat profiles (every shard within noise of each other) from shuffling
/// batches every epoch for nothing.
pub const REBALANCE_HYSTERESIS: f64 = 1.25;

/// Snapshot of the placement/scheduling state
/// ([`ShardedSpillStore::placement_report`]; the CLI prints it as the
/// machine-parseable `placement:` line).
#[derive(Clone, Debug)]
pub struct PlacementReport {
    pub policy: ShardPlacement,
    /// IO threads the pipeline's engine runs (0 under the inline engine,
    /// whose reads happen in the decode workers, or with prefetch off).
    pub io_threads: usize,
    pub decode_workers: usize,
    /// Adaptive rebalance passes that had profiler signal to plan with.
    pub rebalances: u64,
    /// Batches the adaptive planner migrated to a different shard.
    pub migrated_batches: u64,
    /// Bytes those migrations copied.
    pub migrated_bytes: u64,
    /// Per-shard EWMA bandwidth estimates in MB/s (0.0 = never observed).
    pub shard_ewma_mbps: Vec<f64>,
    /// Bytes of spilled batches currently assigned to each shard.
    pub shard_bytes: Vec<u64>,
}

/// Decide which shard each spilled batch (in visit order) lands on at
/// build time. `Adaptive` starts from the `Pack` layout (file-adjacent
/// runs, so ring coalescing works from epoch one) and diverges only once
/// the runtime profiler has measured the shards
/// ([`ShardedSpillStore::rebalance`]).
pub fn place_spilled(sizes: &[usize], n_shards: usize, placement: ShardPlacement) -> Vec<usize> {
    match placement {
        ShardPlacement::Stripe => (0..sizes.len()).map(|i| i % n_shards).collect(),
        ShardPlacement::Pack | ShardPlacement::Adaptive => {
            let total: usize = sizes.iter().sum();
            // A run must hold at least a couple of batches for adjacency
            // to buy anything, but never so many that a shard ends up
            // with no run at all. The byte target alone cannot guarantee
            // the latter under skew (one huge batch closes a run while
            // the tiny remainder never reaches the target again), so runs
            // are additionally capped at ⌊batches/shards⌋ batches — that
            // forces at least `n_shards` runs, and runs round-robin.
            let avg = total.div_ceil(sizes.len().max(1));
            let lo = (total / n_shards / PACK_RUNS_PER_SHARD).max(1);
            let hi = (total / n_shards).max(1);
            let run_target = (2 * avg).clamp(lo, hi.max(lo));
            let max_run_batches = (sizes.len() / n_shards).max(1);
            let mut shard = 0usize;
            let mut run_bytes = 0usize;
            let mut run_batches = 0usize;
            let mut out = Vec::with_capacity(sizes.len());
            for &sz in sizes {
                out.push(shard);
                run_bytes += sz;
                run_batches += 1;
                if run_bytes >= run_target || run_batches >= max_run_batches {
                    shard = (shard + 1) % n_shards;
                    run_bytes = 0;
                    run_batches = 0;
                }
            }
            out
        }
    }
}

/// The adaptive placement plan: assign every spilled batch to a shard so
/// the estimated epoch completion time is minimized on heterogeneous
/// devices. Batches are ranked hottest first (visit count descending,
/// index ascending for determinism) and greedily placed on the shard with
/// the smallest projected finish time `(assigned_bytes + size) / mbps`
/// whose byte `capacity` the batch still fits — LPT scheduling onto
/// machines with speeds, which packs hot bytes onto fast shards in
/// proportion to measured bandwidth. When no shard has capacity left the
/// batch falls back to the least-loaded-by-time shard, so every batch is
/// always assigned exactly once.
///
/// Pure and deterministic: same inputs, same plan. `sizes`, `hotness` and
/// the returned assignment are indexed by spilled-batch id; `mbps` and
/// `capacity` by shard. Non-finite or non-positive speeds are treated as
/// a tiny positive speed so a never-measured shard never divides by zero.
pub fn plan_adaptive(
    sizes: &[usize],
    hotness: &[u64],
    mbps: &[f64],
    capacity: &[u64],
) -> Vec<usize> {
    assert_eq!(sizes.len(), hotness.len(), "one hotness count per batch");
    assert_eq!(mbps.len(), capacity.len(), "one capacity per shard");
    let n_shards = mbps.len();
    assert!(n_shards > 0, "need at least one shard");
    let speed: Vec<f64> = mbps
        .iter()
        .map(|&m| if m.is_finite() && m > 0.0 { m } else { 1e-6 })
        .collect();
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(hotness[i]), i));
    let mut load = vec![0u64; n_shards];
    let mut out = vec![0usize; sizes.len()];
    for i in order {
        let sz = sizes[i] as u64;
        let finish = |s: usize| (load[s] + sz) as f64 / speed[s];
        let mut best: Option<usize> = None;
        for s in 0..n_shards {
            if load[s] + sz > capacity[s] {
                continue;
            }
            if best.is_none_or(|b| finish(s) < finish(b)) {
                best = Some(s);
            }
        }
        // Capacity exhausted everywhere: least projected finish time wins
        // (coverage beats the capacity hint — every batch must land).
        let s = best.unwrap_or_else(|| {
            (0..n_shards)
                .min_by(|&a, &b| finish(a).total_cmp(&finish(b)))
                .unwrap()
        });
        load[s] += sz;
        out[i] = s;
    }
    out
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
        self.visit_with(idx, |loc, _| self.fetch(idx, loc), f)
    }

    /// Epoch-boundary feedback from the trainer: the adaptive planner
    /// re-packs hot batches onto the shards measured fastest.
    fn end_epoch(&self) {
        if self.placement == ShardPlacement::Adaptive {
            self.rebalance();
        }
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
            inner.io = Arc::new(IoShards::new(Vec::new(), None));
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
    fn pack_placement_keeps_consecutive_batches_file_adjacent() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Toc, 100, 0)
            .with_shards(2)
            .with_placement(ShardPlacement::Pack);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(store.spilled_batches(), 6);
        // Within a run, consecutive visit-order batches are back to back
        // in the same shard file — the layout the ring engine coalesces.
        let locs: Vec<DiskLoc> = (0..6).map(|i| store.inner.disk_loc(i).unwrap()).collect();
        let mut adjacent_pairs = 0;
        for w in locs.windows(2) {
            if w[0].shard == w[1].shard {
                assert_eq!(
                    w[1].offset,
                    w[0].offset + w[0].len as u64,
                    "same-shard consecutive batches must be adjacent"
                );
                adjacent_pairs += 1;
            }
        }
        assert!(adjacent_pairs >= 1, "pack produced no adjacency: {locs:?}");
        // Still byte-exact.
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, _| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
            });
        }
        // Every spilled byte landed somewhere.
        assert_eq!(
            store.shard_bytes().iter().sum::<u64>(),
            store.spilled_bytes() as u64
        );
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
        for (io, placement) in [
            (IoEngineKind::Ring, ShardPlacement::Stripe),
            (IoEngineKind::Ring, ShardPlacement::Pack),
        ] {
            let config = StoreConfig::new(Scheme::Toc, 100, 0)
                .with_shards(2)
                .with_prefetch(3)
                .with_io(io)
                .with_placement(placement);
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
            assert_eq!(s.spill_requests, 12, "{io:?} {s:?}");
            assert!(s.submitted >= 1, "async engine never used: {s:?}");
            // Every visit consumed one engine or sync read; coalesced
            // riders count toward coverage.
            assert!(
                s.disk_reads + s.coalesced_reads >= s.spill_requests,
                "{io:?} {s:?}"
            );
            // Note: no lower bound on `coalesced_reads` — whether adjacent
            // submissions land in one ring burst is scheduling-dependent
            // (a ring thread that wakes per submission drains bursts of
            // one). The merge logic itself is covered deterministically
            // by `io::tests::plan_runs_merges_adjacent_ranges_deterministically`.
        }
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

    #[test]
    fn place_spilled_policies() {
        // Stripe: round robin regardless of size.
        assert_eq!(
            place_spilled(&[10, 10, 10, 10], 2, ShardPlacement::Stripe),
            vec![0, 1, 0, 1]
        );
        // Pack: equal sizes, 2 shards, 8 batches → run target 2·avg=20,
        // so pairs of consecutive batches stay file-adjacent.
        assert_eq!(
            place_spilled(&[10; 8], 2, ShardPlacement::Pack),
            vec![0, 0, 1, 1, 0, 0, 1, 1]
        );
        // Pack with small batches: several consecutive batches share a
        // run before it closes.
        let a = place_spilled(&[1; 80], 2, ShardPlacement::Pack);
        assert_eq!(a.len(), 80);
        // run target = 80/2/4 = 10 → runs of 10 consecutive batches.
        assert_eq!(&a[..10], &[0; 10]);
        assert_eq!(&a[10..20], &[1; 10]);
        // Bytes balance across shards.
        assert_eq!(a.iter().filter(|&&s| s == 0).count(), 40);
        // Skewed sizes: one huge batch must not starve later shards — the
        // batch-count run cap guarantees every shard still gets a run.
        let a = place_spilled(&[1000, 1, 1, 1], 4, ShardPlacement::Pack);
        assert_eq!(a, vec![0, 1, 2, 3]);
        for n_shards in 1..=4 {
            for sizes in [&[7usize, 900, 3, 3, 3, 900, 1][..], &[5; 9][..]] {
                let a = place_spilled(sizes, n_shards, ShardPlacement::Pack);
                for s in 0..n_shards {
                    assert!(a.contains(&s), "shard {s} empty: {a:?} ({sizes:?})");
                }
            }
        }
        // Adaptive starts from the pack layout.
        assert_eq!(
            place_spilled(&[10; 8], 2, ShardPlacement::Adaptive),
            place_spilled(&[10; 8], 2, ShardPlacement::Pack)
        );
    }

    #[test]
    fn plan_adaptive_packs_hot_bytes_onto_fast_shards() {
        // Equal sizes, flat hotness: load splits roughly proportional to
        // measured speed (400 of 500 MB/s → ~80% of batches on shard 0).
        let sizes = vec![10usize; 100];
        let hot = vec![1u64; 100];
        let bw = [400.0, 50.0, 50.0];
        let caps = [u64::MAX; 3];
        let plan = plan_adaptive(&sizes, &hot, &bw, &caps);
        assert_eq!(plan.len(), 100);
        assert!(plan.iter().all(|&s| s < 3));
        let on_fast = plan.iter().filter(|&&s| s == 0).count();
        assert!((70..=90).contains(&on_fast), "{on_fast}");
        // Deterministic: same inputs, same plan.
        assert_eq!(plan, plan_adaptive(&sizes, &hot, &bw, &caps));
        // The hottest batch lands on the fastest shard.
        let plan2 = plan_adaptive(&[5; 4], &[0, 0, 9, 0], &[100.0, 1.0], &[u64::MAX; 2]);
        assert_eq!(plan2[2], 0);
        // Capacity respected: the fast shard only has room for one batch,
        // so the other overflows to the slow one despite the speed gap.
        let plan3 = plan_adaptive(&[10, 10], &[1, 1], &[1000.0, 1.0], &[10, 100]);
        assert_eq!(plan3.iter().filter(|&&s| s == 0).count(), 1);
        // Infeasible capacity still assigns every batch (coverage wins).
        let plan4 = plan_adaptive(&[10, 10], &[1, 1], &[1.0, 1.0], &[0, 0]);
        assert_eq!(plan4.len(), 2);
        // Degenerate speeds must not divide by zero.
        let _ = plan_adaptive(&[1], &[0], &[0.0], &[u64::MAX]);
    }

    #[test]
    fn adaptive_rebalance_migrates_to_fast_shard_and_stays_byte_identical() {
        let (x, y) = dataset();
        let config = StoreConfig::new(Scheme::Den, 100, 0)
            .with_shards(2)
            .with_placement(ShardPlacement::Adaptive)
            .with_shard_mbps(vec![2000.0, 10.0]);
        let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
        assert_eq!(store.spilled_batches(), 6);
        let initial = store.shard_bytes();
        assert!(initial.iter().all(|&b| b > 0), "{initial:?}");
        // Before any observation a rebalance has no signal and must no-op.
        assert_eq!(store.rebalance(), 0);
        assert_eq!(store.placement_report().rebalances, 0);
        // Epoch 1 observes both shards; the boundary rebalance must pull
        // (nearly) everything onto the 200×-faster shard 0.
        for i in 0..store.num_batches() {
            store.visit(i, &mut |_, _| {});
        }
        store.end_epoch();
        let rep = store.placement_report();
        assert_eq!(rep.policy, ShardPlacement::Adaptive);
        assert_eq!(rep.rebalances, 1);
        assert!(rep.migrated_batches >= 1, "{rep:?}");
        assert!(rep.migrated_bytes >= 1, "{rep:?}");
        assert!(rep.shard_ewma_mbps[0] > rep.shard_ewma_mbps[1], "{rep:?}");
        assert!(rep.shard_bytes[0] > rep.shard_bytes[1], "{rep:?}");
        assert_eq!(
            rep.shard_bytes.iter().sum::<u64>(),
            store.spilled_bytes() as u64
        );
        // Migration never changes a byte: every batch still decodes to
        // exactly its source rows.
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, labels| {
                assert_eq!(b.decode(), x.slice_rows(i * 100, (i + 1) * 100));
                assert_eq!(labels, &y[i * 100..(i + 1) * 100]);
            });
        }
        // A second epoch over the settled layout stays settled (the plan
        // is deterministic and the hysteresis kills noise moves).
        store.end_epoch();
        let again = store.placement_report();
        assert_eq!(again.migrated_batches, rep.migrated_batches);
    }

    #[test]
    fn non_adaptive_placements_never_rebalance_on_end_epoch() {
        let (x, y) = dataset();
        for placement in [ShardPlacement::Stripe, ShardPlacement::Pack] {
            let config = StoreConfig::new(Scheme::Toc, 100, 0)
                .with_shards(2)
                .with_placement(placement)
                .with_shard_mbps(vec![2000.0, 10.0]);
            let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
            for i in 0..store.num_batches() {
                store.visit(i, &mut |_, _| {});
            }
            store.end_epoch();
            let rep = store.placement_report();
            assert_eq!(rep.rebalances, 0, "{placement}");
            assert_eq!(rep.migrated_batches, 0, "{placement}");
        }
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
