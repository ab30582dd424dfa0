//! Spill IO: the device model and the engines behind the [`SpillIo`] seam.
//!
//! The store's prefetch pipeline (`crate::prefetch`) reads spilled
//! batches through one interface that splits submission from completion
//! — the io_uring idiom, portable:
//!
//! ```text
//!             submit(shard, offset, len, buf) -> Ticket
//!   visitor ──────────────────────────────────────────▶ SpillIo engine
//!                                                        │  inline: a queue, read by
//!                                                        │          whoever completes
//!                                                        │  ring:   per-thread inboxes,
//!                                                        │          adjacent reads
//!                                                        │          coalesced
//!   decode  ◀──────────────────────────────────────────┘
//!   workers   complete() -> Completion {ticket, buf, result}   (out of order)
//! ```
//!
//! Two engines serve it ([`IoEngineKind`]; the fault-injecting double in
//! [`crate::testing`] is the third implementation). [`InlineIo`]
//! (`sync`) has no threads of its own: `submit` only queues, and the
//! decode worker that calls `complete` pops the oldest request and reads
//! it on its own thread, so a read serializes with that worker's decode
//! and the device sees as many readers as there are workers. A request
//! nobody has popped yet can be taken back ([`SpillIo::try_cancel`]),
//! which is what lets a visitor that outruns the workers read its own
//! batch instead of queueing behind them. [`RingIo`] (`ring`) owns IO
//! threads: shard `s` routes to the inbox of thread `s % threads`; each
//! thread drains its inbox in bursts, sorts the burst by file offset,
//! **coalesces adjacent ranges into one physical read**, and completes
//! the members out of order, so reads overlap decode whatever the worker
//! count. Striped batches sit back to back in each shard file (batch
//! `k + n` follows batch `k` on an `n`-shard store), so a lookahead
//! burst deeper than the shard count collapses into fewer, larger reads.
//! Neither engine dominates: on a bandwidth-bound device many inline
//! readers reach the device limit, on a latency-bound one the ring's
//! overlap wins (the scoreboard's `store` figure prints the matrix).
//!
//! Every read path charges the same per-shard `BandwidthClock`, so the
//! `disk_mbps` model extends to overlapped requests: concurrent reads of
//! one shard share that device's bandwidth (the clock serializes their
//! reservations), and whichever thread performs the read — an IO thread,
//! a decode worker, the visitor — is the one that sleeps.

use std::collections::VecDeque;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use toc_formats::container::PositionalFile;

/// Recover a poisoned guard: a panicking holder never leaves the plain
/// queues behind these locks in an invalid state.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn rlock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wlock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// A pool's threads: `n` of them over one body, each given its index.
/// The body catches what a unit of its work panics with, where it can
/// say what the panic means for that unit, so [`Self::join`] drops what
/// a thread ends with.
pub(crate) struct Workers(Vec<JoinHandle<()>>);

impl Workers {
    pub(crate) fn spawn(n: usize, body: impl Fn(usize) + Send + Sync + 'static) -> Self {
        let body = Arc::new(body);
        let threads = (0..n).map(|i| (i, Arc::clone(&body)));
        let threads = threads.map(|(i, f)| std::thread::spawn(move || f(i)));
        Self(threads.collect())
    }

    /// Join every thread; the owner has told them to stop first.
    pub(crate) fn join(&mut self) {
        for thread in self.0.drain(..) {
            let _ = thread.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The simulated-bandwidth device model.

/// Simulated-bandwidth clock for one spill device (shard). Readers reserve
/// an interval on the device timeline and sleep until their reservation
/// completes, so concurrent readers of one device share its bandwidth
/// (the aggregate never exceeds `mbps`) while readers of other devices
/// are unaffected. The delay is accounted per-shard with no lock held.
/// Under the async engine the *IO thread* holds the reservation, so the
/// visitor's compute overlaps the simulated device time.
#[derive(Debug, Default)]
pub(crate) struct BandwidthClock {
    /// Device busy-until, in nanoseconds since the store's epoch.
    busy_until_ns: AtomicU64,
}

impl BandwidthClock {
    pub(crate) fn charge(&self, epoch: Instant, len: usize, mbps: f64, stats: &IoStats) {
        let delay_ns = (len as f64 / (mbps * 1e6) * 1e9) as u64;
        let now = epoch.elapsed().as_nanos() as u64;
        let mut cur = self.busy_until_ns.load(Ordering::Relaxed);
        let deadline = loop {
            let deadline = cur.max(now) + delay_ns;
            match self.busy_until_ns.compare_exchange_weak(
                cur,
                deadline,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break deadline,
                Err(seen) => cur = seen,
            }
        };
        stats.throttle_ns.fetch_add(delay_ns, Ordering::Relaxed);
        if deadline > now {
            std::thread::sleep(Duration::from_nanos(deadline - now));
        }
    }
}

/// One spill device: a positional-read file plus its bandwidth clock and
/// the bandwidth it simulates, fixed when the store is assembled (the
/// shard's own [`crate::store::StoreConfig::with_shard_mbps`], else the
/// store-wide `disk_mbps`; `None` performs raw IO).
#[derive(Debug)]
pub(crate) struct SpillDevice {
    pub(crate) file: PositionalFile,
    pub(crate) clock: BandwidthClock,
    mbps: Option<f64>,
}

impl SpillDevice {
    pub(crate) fn new(file: File, mbps: Option<f64>) -> Self {
        Self {
            file: PositionalFile::new(file),
            clock: BandwidthClock::default(),
            mbps,
        }
    }
}

/// EWMA smoothing factor for [`BandwidthProfile`]: heavy enough that a
/// device going slow mid-run shows up within a handful of reads, light
/// enough that one queueing hiccup doesn't swing the QoS throttle.
const PROFILE_ALPHA: f64 = 0.25;

/// Runtime per-shard bandwidth estimates: every physical read charges its
/// observed throughput (bytes over wall time, *including* the simulated
/// bandwidth-clock delay and any queueing behind other readers of the
/// same device) into a per-shard EWMA. This is the measured signal the
/// serve layer's QoS throttle apportions each shard by, and what the
/// `placement:` line reports — storage tiers are profiled, not assumed.
#[derive(Debug, Default)]
pub struct BandwidthProfile {
    /// Per-shard `(ewma bytes/sec as f64 bits, sample count)`.
    cells: Vec<(AtomicU64, AtomicU64)>,
}

impl BandwidthProfile {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            cells: (0..shards)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Charge one observed read of `len` bytes that took `elapsed`.
    pub(crate) fn observe(&self, shard: usize, len: usize, elapsed: Duration) {
        let Some((ewma, samples)) = self.cells.get(shard) else {
            return;
        };
        let bps = len as f64 / elapsed.as_secs_f64().max(1e-9);
        let mut cur = ewma.load(Ordering::Relaxed);
        loop {
            let next = if samples.load(Ordering::Relaxed) == 0 {
                bps
            } else {
                PROFILE_ALPHA * bps + (1.0 - PROFILE_ALPHA) * f64::from_bits(cur)
            };
            match ewma.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Estimated bandwidth of `shard` in MB/s; `None` until the shard has
    /// been observed at least once.
    pub fn estimate_mbps(&self, shard: usize) -> Option<f64> {
        let (ewma, samples) = self.cells.get(shard)?;
        if samples.load(Ordering::Relaxed) == 0 {
            return None;
        }
        Some(f64::from_bits(ewma.load(Ordering::Relaxed)) / 1e6)
    }

    /// Per-shard estimates in MB/s (`0.0` for never-observed shards).
    pub fn snapshot_mbps(&self) -> Vec<f64> {
        (0..self.cells.len())
            .map(|s| self.estimate_mbps(s).unwrap_or(0.0))
            .collect()
    }
}

/// The shared spill-device context every read path goes through: the
/// shard files, the bandwidth model, the runtime bandwidth profiler, and
/// the store's [`IoStats`]. Both the synchronous paths and the
/// [`SpillIo`] engines read exclusively via [`IoShards::read_range`], so
/// the throttle model, the profiler, and the accounting can never drift
/// apart between them.
pub(crate) struct IoShards {
    pub(crate) devices: Vec<SpillDevice>,
    pub(crate) epoch: Instant,
    pub(crate) stats: IoStats,
    pub(crate) profile: BandwidthProfile,
}

impl IoShards {
    pub(crate) fn new(devices: Vec<SpillDevice>) -> Self {
        let profile = BandwidthProfile::new(devices.len());
        Self {
            devices,
            epoch: Instant::now(),
            stats: IoStats::default(),
            profile,
        }
    }

    /// Read `len` raw bytes at `offset` of `shard` into `buf` (cleared and
    /// resized): positional read, bandwidth charge, stats accounting, and
    /// an observed-throughput sample into the [`BandwidthProfile`].
    pub(crate) fn read_range(
        &self,
        shard: usize,
        offset: u64,
        len: usize,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        let t0 = Instant::now();
        buf.clear();
        buf.resize(len, 0);
        self.devices[shard].file.read_exact_at(buf, offset)?;
        self.account_read(shard, len, t0);
        Ok(())
    }

    /// Post-read accounting shared by every read path (this module's
    /// [`IoShards::read_range`] and the fault double's chunked partial
    /// reads): the bandwidth-clock charge, the `disk_reads`/`bytes_read`
    /// counters, and the profiler observation for one physical read of
    /// `len` bytes that started at `t0`. Keeping this in one place is what
    /// makes "the throttle model, the profiler and the accounting can
    /// never drift apart" true.
    pub(crate) fn account_read(&self, shard: usize, len: usize, t0: Instant) {
        let dev = &self.devices[shard];
        if let Some(mbps) = dev.mbps {
            dev.clock.charge(self.epoch, len, mbps, &self.stats);
        }
        self.stats.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        self.profile.observe(shard, len, t0.elapsed());
    }
}

// ---------------------------------------------------------------------------
// IO statistics.

/// Number of power-of-two completion-latency buckets ([`LatencyHistogram`]).
pub const LATENCY_BUCKETS: usize = 16;

/// Lock-free log2 histogram of submit→complete latencies in microseconds:
/// bucket `b` counts completions in `[2^(b-1), 2^b)` µs (bucket 0 is
/// `< 1 µs`, the last bucket is open-ended).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let b = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
        };
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Upper bound of latency bucket `b` in microseconds.
pub fn latency_bucket_upper_us(b: usize) -> u64 {
    1u64 << b
}

/// Cumulative IO statistics (updated on every spilled read/submission).
///
/// All counters are independent relaxed atomics: a [`IoStats::snapshot`]
/// taken mid-run can observe them at slightly different instants (e.g. a
/// read whose `disk_reads` increment is visible but whose `bytes_read`
/// is not yet). [`IoStats::snapshot_stable`] retries until two
/// back-to-back snapshots agree, which converges immediately whenever
/// the store is quiescent and bounds the skew to one in-flight update
/// otherwise. Counters that are only ever touched by the visiting thread
/// itself (`spill_requests`, `prefetch_hits`, `prefetch_misses`) are
/// exact the moment every visit has returned — the stress and
/// fault-injection suites assert `hits + misses == spill_requests`
/// ([`IoSnapshot::assert_consistent`]).
#[derive(Debug, Default)]
pub struct IoStats {
    /// Physical spill reads performed (a coalesced ring read counts once).
    pub disk_reads: AtomicU64,
    /// Bytes read from spill files.
    pub bytes_read: AtomicU64,
    /// Spilled visits served by the prefetch pipeline (the batch was
    /// already decoded, or its read was in flight and overlapped compute).
    pub prefetch_hits: AtomicU64,
    /// Spilled visits that found no prefetch slot and read synchronously.
    pub prefetch_misses: AtomicU64,
    /// Spilled visits requested through the prefetch pipeline; every one
    /// resolves to exactly one hit or miss by the time `visit` returns.
    pub spill_requests: AtomicU64,
    /// Simulated bandwidth delay accounted against the shard clocks, in
    /// nanoseconds (see [`crate::store::StoreConfig::disk_mbps`]).
    pub throttle_ns: AtomicU64,
    /// Requests submitted to a [`SpillIo`] engine that reads on threads
    /// of its own ([`InlineIo`] reads on its caller's and counts nothing
    /// here or in the three fields below).
    pub submitted: AtomicU64,
    /// Completions surfaced by such an engine.
    pub completed: AtomicU64,
    /// Requests that rode along a coalesced ring read instead of costing
    /// their own physical read.
    pub coalesced_reads: AtomicU64,
    /// Submitted-but-not-completed requests right now (gauge).
    pub in_flight: AtomicU64,
    /// High-water mark of `in_flight`.
    pub max_in_flight: AtomicU64,
    /// Spilled tenant visits served from the shared compressed-batch
    /// cache ([`crate::serve::BatchCache`]) — no physical read, no
    /// prefetch request.
    pub cache_hits: AtomicU64,
    /// Spilled tenant visits that missed the shared cache and paid a
    /// direct physical read (each one increments `disk_reads` too).
    pub cache_misses: AtomicU64,
    /// Nanoseconds tenant jobs spent blocked on per-job IO-share QoS
    /// throttling (disjoint from the device-model `throttle_ns`).
    pub qos_throttle_ns: AtomicU64,
    /// Nanoseconds the streaming-ingest producer spent blocked on the
    /// bounded sealed-chunk budget
    /// ([`crate::store::StoreConfig::with_max_pending`]) waiting for a
    /// consumer to drain appended segments — the backpressure stall
    /// signal, disjoint from every read-side counter above.
    pub ingest_stall_ns: AtomicU64,
    /// Submit→complete latency distribution for async requests.
    pub latency: LatencyHistogram,
}

impl IoStats {
    /// Point-in-time copy of all counters. Each counter is read once with
    /// relaxed ordering; see the type docs for the (bounded) skew a
    /// mid-run snapshot can observe.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            disk_reads: self.disk_reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_misses: self.prefetch_misses.load(Ordering::Relaxed),
            spill_requests: self.spill_requests.load(Ordering::Relaxed),
            throttle_ns: self.throttle_ns.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            coalesced_reads: self.coalesced_reads.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            qos_throttle_ns: self.qos_throttle_ns.load(Ordering::Relaxed),
            ingest_stall_ns: self.ingest_stall_ns.load(Ordering::Relaxed),
            latency_us: self.latency.snapshot(),
        }
    }

    /// Seqlock-style stable snapshot: re-read until two consecutive
    /// snapshots agree (bounded retries). At quiescence the first retry
    /// already agrees; under concurrent writers this still bounds the
    /// cross-counter skew to whatever changed during one read pass.
    pub fn snapshot_stable(&self) -> IoSnapshot {
        let mut prev = self.snapshot();
        for _ in 0..64 {
            let cur = self.snapshot();
            if cur == prev {
                return cur;
            }
            prev = cur;
        }
        prev
    }

    pub(crate) fn record_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let cur = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(cur, Ordering::Relaxed);
    }

    pub(crate) fn record_complete(&self, submitted_at: Instant) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.latency.record(submitted_at.elapsed());
    }
}

/// Plain-value copy of [`IoStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub disk_reads: u64,
    pub bytes_read: u64,
    pub prefetch_hits: u64,
    pub prefetch_misses: u64,
    pub spill_requests: u64,
    pub throttle_ns: u64,
    pub submitted: u64,
    pub completed: u64,
    pub coalesced_reads: u64,
    pub in_flight: u64,
    pub max_in_flight: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub qos_throttle_ns: u64,
    pub ingest_stall_ns: u64,
    pub latency_us: [u64; LATENCY_BUCKETS],
}

impl IoSnapshot {
    /// Approximate latency percentile (`p` in 0..=100): the upper bound of
    /// the bucket containing that quantile, in microseconds. 0 when no
    /// async completions were recorded, and 0 when the quantile lands in
    /// bucket 0 (sub-microsecond completions): reporting bucket 0's upper
    /// bound would claim `1 µs` of latency for a histogram that only ever
    /// saw reads faster than the histogram can resolve.
    pub fn latency_percentile_us(&self, p: u64) -> u64 {
        let total: u64 = self.latency_us.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total * p).div_ceil(100).max(1);
        let mut seen = 0;
        for (b, &n) in self.latency_us.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if b == 0 {
                    0
                } else {
                    latency_bucket_upper_us(b)
                };
            }
        }
        latency_bucket_upper_us(LATENCY_BUCKETS - 1)
    }

    /// Assert the cross-counter invariants that must hold once every
    /// visit has returned (quiescent or not — these counters are only
    /// written by the visiting threads themselves): every prefetch-path
    /// request resolved to exactly one hit or miss. The engine-side
    /// counters must satisfy `completed <= submitted` and physical reads
    /// plus coalesced riders must cover every completion *and* every
    /// shared-cache miss: a tenant cache miss pays its own direct read
    /// (outside the engine), so a cache-served read that also charged the
    /// prefetch pipeline — or a miss that never reached the device —
    /// shows up here as double- or under-counting.
    #[track_caller]
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.prefetch_hits + self.prefetch_misses,
            self.spill_requests,
            "prefetch hit/miss accounting diverged from requests: {self:?}"
        );
        assert!(
            self.completed <= self.submitted,
            "more completions than submissions: {self:?}"
        );
        assert!(
            self.disk_reads + self.coalesced_reads >= self.completed + self.cache_misses,
            "completions + cache misses not covered by physical+coalesced reads: {self:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The SpillIo submission/completion seam.

/// Engine selector threaded through `StoreConfig` and `toc train --io`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IoEngineKind {
    /// [`InlineIo`]: each decode worker reads the request it is about to
    /// decode (read latency serializes with decode inside the worker).
    #[default]
    Sync,
    /// Batched per-shard backend with adjacent-read coalescing ([`RingIo`]).
    Ring,
}

impl IoEngineKind {
    pub fn name(self) -> &'static str {
        match self {
            IoEngineKind::Sync => "sync",
            IoEngineKind::Ring => "ring",
        }
    }
}

impl std::fmt::Display for IoEngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for IoEngineKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sync" => Ok(IoEngineKind::Sync),
            "ring" => Ok(IoEngineKind::Ring),
            other => Err(format!("unknown io engine {other:?} (sync|ring)")),
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduling of IO threads and decode workers.

/// What is left of shard pinning: completions always funnel through one
/// queue any decode worker may drain, and shard `s` always routes to ring
/// thread `s % io_threads`. Striped completion lanes and explicit pin
/// maps measured inside the unpinned run-to-run spread and were removed;
/// the type stays because `ledger/` (the benchmark, frozen) spells out
/// `SchedulerConfig { .., pinning: Pinning::Off }`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Pinning {
    #[default]
    Off,
}

/// Scheduling knobs for the prefetch pipeline's IO threads and decode
/// workers, threaded through `StoreConfig` and `toc train
/// --io-threads/--decode-workers`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// IO threads for the ring engine (`0` = auto: one per shard,
    /// clamped to `MAX_IO_THREADS`).
    pub io_threads: usize,
    /// Decode workers draining completions (`0` = auto: the prefetch
    /// depth, clamped to the worker cap).
    pub decode_workers: usize,
    /// See [`Pinning`].
    pub pinning: Pinning,
}

impl SchedulerConfig {
    /// Resolved ring IO thread count over `shards` shard devices.
    pub(crate) fn resolved_io_threads(&self, shards: usize) -> usize {
        let chosen = if self.io_threads > 0 {
            self.io_threads
        } else {
            shards
        };
        chosen.clamp(1, MAX_IO_THREADS)
    }

    /// Resolved decode-worker count at prefetch depth `depth`.
    pub(crate) fn resolved_decode_workers(&self, depth: usize, cap: usize) -> usize {
        let chosen = if self.decode_workers > 0 {
            self.decode_workers
        } else {
            depth
        };
        chosen.clamp(1, cap)
    }
}

/// One read request: `len` bytes at `offset` of shard `shard`.
#[derive(Clone, Copy, Debug)]
pub struct SpillRequest {
    pub shard: usize,
    pub offset: u64,
    pub len: usize,
}

/// Engine-assigned request id, echoed by the matching [`Completion`].
pub type Ticket = u64;

/// A finished read: the caller's buffer back (filled on success) plus the
/// IO result. Completions surface in whatever order reads finish —
/// consumers must route by `ticket`, never by submission order.
#[derive(Debug)]
pub struct Completion {
    pub ticket: Ticket,
    pub shard: usize,
    pub buf: Vec<u8>,
    pub result: std::io::Result<()>,
}

/// The spill-IO seam: submit positional reads, harvest completions out
/// of order. All engines are `Send + Sync`; any number of threads may
/// submit and complete concurrently.
pub trait SpillIo: Send + Sync {
    /// Queue a read. `buf` is recycled through the completion (resized to
    /// `req.len`), so steady-state submission allocates nothing.
    fn submit(&self, req: SpillRequest, buf: Vec<u8>) -> Ticket;

    /// Block until a completion is available or the engine shuts down
    /// (`None`). Concurrent callers each receive distinct completions.
    fn complete(&self) -> Option<Completion>;

    /// Take back a request nothing has started to read: its request and
    /// buffer return to the caller and it never surfaces as a completion.
    /// `None` when the read is under way or done — which is always the
    /// answer of an engine whose own threads pick requests up at once.
    fn try_cancel(&self, _ticket: Ticket) -> Option<(SpillRequest, Vec<u8>)> {
        None
    }

    /// Wake every blocked `complete` caller and stop the IO threads.
    /// Queued-but-unserved submissions are dropped.
    fn shutdown(&self);

    /// Submitted-but-not-completed request count (gauge).
    fn in_flight(&self) -> usize;
}

/// Completion queue shared by the engine implementations: a condvar-woken
/// deque plus the shutdown latch.
pub(crate) struct CompletionQueue {
    q: Mutex<(VecDeque<Completion>, bool)>,
    cv: Condvar,
}

impl CompletionQueue {
    pub(crate) fn new() -> Self {
        Self {
            q: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn push(&self, c: Completion) {
        lock(&self.q).0.push_back(c);
        self.cv.notify_one();
    }

    pub(crate) fn pop(&self) -> Option<Completion> {
        let mut g = lock(&self.q);
        loop {
            if let Some(c) = g.0.pop_front() {
                return Some(c);
            }
            if g.1 {
                return None;
            }
            g = wait(&self.cv, g);
        }
    }

    pub(crate) fn shut_down(&self) {
        lock(&self.q).1 = true;
        self.cv.notify_all();
    }

    pub(crate) fn is_shut_down(&self) -> bool {
        lock(&self.q).1
    }
}

// ---------------------------------------------------------------------------
// Shared submission plumbing.

pub(crate) struct Submission {
    pub(crate) ticket: Ticket,
    pub(crate) req: SpillRequest,
    pub(crate) buf: Vec<u8>,
    pub(crate) at: Instant,
}

/// Central submission queue of the fault-injection double
/// ([`crate::testing::FaultyIo`]): ticket assignment, `IoStats`
/// accounting through the same [`IoStats::record_submit`] the ring engine
/// uses, and condvar wakeup.
pub(crate) struct SubmissionQueue {
    q: Mutex<VecDeque<Submission>>,
    cv: Condvar,
    next_ticket: AtomicU64,
}

impl SubmissionQueue {
    pub(crate) fn new() -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            next_ticket: AtomicU64::new(0),
        }
    }

    /// Assign a ticket, account the submission, enqueue, wake one worker.
    pub(crate) fn submit(&self, io: &IoShards, req: SpillRequest, buf: Vec<u8>) -> Ticket {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        io.stats.record_submit();
        lock(&self.q).push_back(Submission {
            ticket,
            req,
            buf,
            at: Instant::now(),
        });
        self.cv.notify_one();
        ticket
    }

    /// Non-blocking pop.
    pub(crate) fn try_pop(&self) -> Option<Submission> {
        lock(&self.q).pop_front()
    }

    /// Sleep until new work arrives or `timeout` elapses (spurious wakeups
    /// allowed; callers loop).
    pub(crate) fn wait_briefly(&self, timeout: Duration) {
        let g = lock(&self.q);
        if g.is_empty() {
            let _ = self
                .cv
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wake every `wait_briefly` sleeper (shutdown path).
    pub(crate) fn notify_all(&self) {
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// InlineIo: the synchronous engine.

/// The [`SpillIo`] engine behind [`IoEngineKind::Sync`]: a queue and no
/// threads. `submit` only queues; whoever calls `complete` pops the
/// oldest request and performs the read itself, through
/// `IoShards::read_range` like every other path, so a decode worker's
/// read serializes with its decode. A request still in the queue can be
/// taken back. `submitted` / `completed` / `in_flight` / latency in
/// [`IoStats`] describe engines that read asynchronously and stay
/// untouched here.
pub struct InlineIo {
    io: Arc<IoShards>,
    queue: Mutex<InlineQueue>,
    cv: Condvar,
    next_ticket: AtomicU64,
}

#[derive(Default)]
struct InlineQueue {
    /// Requests nobody has started to read, oldest first.
    waiting: VecDeque<(Ticket, SpillRequest, Vec<u8>)>,
    shut_down: bool,
}

impl InlineIo {
    pub(crate) fn new(io: Arc<IoShards>) -> Self {
        Self {
            io,
            queue: Mutex::default(),
            cv: Condvar::new(),
            next_ticket: AtomicU64::new(0),
        }
    }
}

impl SpillIo for InlineIo {
    fn submit(&self, req: SpillRequest, buf: Vec<u8>) -> Ticket {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        lock(&self.queue).waiting.push_back((ticket, req, buf));
        self.cv.notify_one();
        ticket
    }

    fn complete(&self) -> Option<Completion> {
        let (ticket, req, mut buf) = {
            let mut g = lock(&self.queue);
            loop {
                if g.shut_down {
                    return None;
                }
                if let Some(next) = g.waiting.pop_front() {
                    break next;
                }
                g = wait(&self.cv, g);
            }
        };
        let result = self.io.read_range(req.shard, req.offset, req.len, &mut buf);
        Some(Completion {
            ticket,
            shard: req.shard,
            buf,
            result,
        })
    }

    fn try_cancel(&self, ticket: Ticket) -> Option<(SpillRequest, Vec<u8>)> {
        let mut g = lock(&self.queue);
        let at = g.waiting.iter().position(|(t, ..)| *t == ticket)?;
        g.waiting.remove(at).map(|(_, req, buf)| (req, buf))
    }

    fn shutdown(&self) {
        lock(&self.queue).shut_down = true;
        self.cv.notify_all();
    }

    fn in_flight(&self) -> usize {
        lock(&self.queue).waiting.len()
    }
}

// ---------------------------------------------------------------------------
// RingIo: batched per-thread inboxes with adjacent-read coalescing.

pub(crate) const MAX_IO_THREADS: usize = 8;

struct RingShared {
    io: Arc<IoShards>,
    /// One inbox per ring thread; shard `s` routes to inbox `s % threads`.
    inboxes: Vec<(Mutex<Vec<Submission>>, Condvar)>,
    comp: CompletionQueue,
    next_ticket: AtomicU64,
}

/// Batched "ring" [`SpillIo`] backend. Shard `s` routes to the inbox of
/// ring thread `s % threads`; each ring thread drains its inbox in
/// bursts, groups the burst by shard, sorts each group by file offset
/// and **coalesces adjacent ranges into one physical read** (one
/// bandwidth-clock charge for the merged length), then completes the
/// members out of order. A burst of K lookahead submissions over
/// batches that sit back to back in their shard file thus costs fewer,
/// larger reads than K small ones.
pub struct RingIo {
    shared: Arc<RingShared>,
    threads: Workers,
}

impl RingIo {
    /// Start with `threads` ring threads (at least one).
    pub(crate) fn start(io: Arc<IoShards>, threads: usize) -> Self {
        let shared = Arc::new(RingShared {
            io,
            inboxes: (0..threads.max(1))
                .map(|_| (Mutex::new(Vec::new()), Condvar::new()))
                .collect(),
            comp: CompletionQueue::new(),
            next_ticket: AtomicU64::new(0),
        });
        let ring = Arc::clone(&shared);
        let threads = Workers::spawn(shared.inboxes.len(), move |t| Self::ring_thread(&ring, t));
        Self { shared, threads }
    }

    fn ring_thread(shared: &RingShared, t: usize) {
        // Reusable staging for coalesced reads: the merged range lands
        // here once, then splits into the members' recycled buffers — no
        // per-burst allocation in steady state.
        let mut merged = Vec::new();
        loop {
            // Drain the whole inbox in one burst — the batching window.
            let mut burst = {
                let (m, cv) = &shared.inboxes[t];
                let mut g = lock(m);
                loop {
                    if shared.comp.is_shut_down() {
                        return;
                    }
                    if !g.is_empty() {
                        break std::mem::take(&mut *g);
                    }
                    g = wait(cv, g);
                }
            };
            // Group by shard, then serve each group offset-sorted with
            // adjacent ranges merged into one read.
            for r in plan_runs(&mut burst) {
                Self::serve_run(shared, &mut burst[r], &mut merged);
            }
            // Return the burst members' buffers through completions; the
            // drained Vec itself is dropped (its capacity is tiny).
        }
    }

    /// Serve one maximal run of same-shard, file-adjacent requests
    /// (one range from [`plan_runs`]): a single physical read of the
    /// merged range, split back into the members' buffers. A run of one
    /// degenerates to a plain read.
    fn serve_run(shared: &RingShared, run: &mut [Submission], merged: &mut Vec<u8>) {
        let shard = run[0].req.shard;
        let base = run[0].req.offset;
        let merged_len: usize = run.iter().map(|s| s.req.len).sum();
        let io = &shared.io;
        if run.len() == 1 {
            let Submission { req, .. } = run[0];
            let mut buf = std::mem::take(&mut run[0].buf);
            let result = io.read_range(req.shard, req.offset, req.len, &mut buf);
            io.stats.record_complete(run[0].at);
            shared.comp.push(Completion {
                ticket: run[0].ticket,
                shard,
                buf,
                result,
            });
            return;
        }
        // One physical read for the whole run, staged through the ring
        // thread's reusable buffer (read_range clears and resizes it).
        let result = io.read_range(shard, base, merged_len, merged);
        io.stats
            .coalesced_reads
            .fetch_add(run.len() as u64 - 1, Ordering::Relaxed);
        let mut cursor = 0usize;
        for sub in run.iter_mut() {
            let mut buf = std::mem::take(&mut sub.buf);
            let member_result = match &result {
                Ok(()) => {
                    buf.clear();
                    buf.extend_from_slice(&merged[cursor..cursor + sub.req.len]);
                    Ok(())
                }
                Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            };
            cursor += sub.req.len;
            io.stats.record_complete(sub.at);
            shared.comp.push(Completion {
                ticket: sub.ticket,
                shard,
                buf,
                result: member_result,
            });
        }
    }
}

/// The ring engine's batching plan, separated from serving so it can be
/// tested deterministically (whether adjacent requests actually land in
/// one burst is scheduling-dependent; what a burst merges into is not):
/// sort a drained burst by `(shard, offset)` and return the maximal runs
/// of same-shard, file-adjacent requests as index ranges into the sorted
/// burst.
fn plan_runs(burst: &mut [Submission]) -> Vec<std::ops::Range<usize>> {
    burst.sort_by_key(|s| (s.req.shard, s.req.offset));
    let mut runs = Vec::new();
    let mut i = 0;
    while i < burst.len() {
        let shard = burst[i].req.shard;
        let start = i;
        let mut end_off = burst[i].req.offset + burst[i].req.len as u64;
        i += 1;
        while i < burst.len() && burst[i].req.shard == shard && burst[i].req.offset == end_off {
            end_off += burst[i].req.len as u64;
            i += 1;
        }
        runs.push(start..i);
    }
    runs
}

impl SpillIo for RingIo {
    fn submit(&self, req: SpillRequest, buf: Vec<u8>) -> Ticket {
        let ticket = self.shared.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.shared.io.stats.record_submit();
        let (m, cv) = &self.shared.inboxes[req.shard % self.shared.inboxes.len()];
        lock(m).push(Submission {
            ticket,
            req,
            buf,
            at: Instant::now(),
        });
        cv.notify_one();
        ticket
    }

    fn complete(&self) -> Option<Completion> {
        self.shared.comp.pop()
    }

    fn shutdown(&self) {
        self.shared.comp.shut_down();
        for (_, cv) in &self.shared.inboxes {
            cv.notify_all();
        }
    }

    fn in_flight(&self) -> usize {
        self.shared.io.stats.in_flight.load(Ordering::Relaxed) as usize
    }
}

impl Drop for RingIo {
    fn drop(&mut self) {
        self.shutdown();
        self.threads.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io::Write;

    /// Build an IoShards over `n_shards` temp files, each holding the
    /// given chunks laid out back to back. Returns the shard layouts
    /// (shard, offset, bytes) in write order.
    #[allow(clippy::type_complexity)]
    fn test_shards(
        n_shards: usize,
        chunks: &[(usize, Vec<u8>)],
    ) -> (
        Arc<IoShards>,
        Vec<(SpillRequest, Vec<u8>)>,
        Vec<std::path::PathBuf>,
    ) {
        let dir = std::env::temp_dir();
        let mut files = Vec::new();
        let mut paths = Vec::new();
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        for s in 0..n_shards {
            let path = dir.join(format!("toc-io-test-{}-{id}-{s}.bin", std::process::id()));
            let f = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .read(true)
                .truncate(true)
                .open(&path)
                .unwrap();
            files.push(f);
            paths.push(path);
        }
        let mut offsets = vec![0u64; n_shards];
        let mut layout = Vec::new();
        for (shard, bytes) in chunks {
            files[*shard].write_all(bytes).unwrap();
            layout.push((
                SpillRequest {
                    shard: *shard,
                    offset: offsets[*shard],
                    len: bytes.len(),
                },
                bytes.clone(),
            ));
            offsets[*shard] += bytes.len() as u64;
        }
        let devices = files
            .into_iter()
            .map(|f| SpillDevice::new(f, None))
            .collect();
        (Arc::new(IoShards::new(devices)), layout, paths)
    }

    fn chunk(shard: usize, fill: u8, len: usize) -> (usize, Vec<u8>) {
        (shard, vec![fill; len])
    }

    fn drain_and_check(engine: &dyn SpillIo, expected: &HashMap<Ticket, Vec<u8>>) {
        for _ in 0..expected.len() {
            let c = engine.complete().expect("engine shut down early");
            assert!(c.result.is_ok(), "{:?}", c.result);
            assert_eq!(&c.buf, &expected[&c.ticket], "ticket {}", c.ticket);
        }
        assert_eq!(engine.in_flight(), 0);
    }

    #[test]
    fn ring_engine_coalesces_adjacent_reads() {
        // 6 chunks on one shard, all adjacent: submitted in one burst
        // before the ring thread wakes they should merge into few reads.
        let chunks: Vec<_> = (0..6u8).map(|i| chunk(0, i, 128)).collect();
        let (io, layout, paths) = test_shards(1, &chunks);
        let engine = RingIo::start(Arc::clone(&io), 1);
        // Hold the ring thread busy-less: submit everything in one burst
        // under no lock, then harvest. The thread drains the inbox as one
        // batch, so at least some requests must coalesce.
        let mut expected = HashMap::new();
        for (req, bytes) in &layout {
            let t = engine.submit(*req, Vec::new());
            expected.insert(t, bytes.clone());
        }
        drain_and_check(&engine, &expected);
        let s = io.stats.snapshot_stable();
        assert_eq!(s.submitted, 6);
        assert_eq!(s.completed, 6);
        // Whatever the interleaving, reads + riders covers all 6; and the
        // byte totals match exactly (coalescing must not re-read).
        assert_eq!(s.disk_reads + s.coalesced_reads, 6, "{s:?}");
        assert_eq!(s.bytes_read, 6 * 128);
        s.assert_consistent();
        drop(engine);
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn plan_runs_merges_adjacent_ranges_deterministically() {
        let sub = |shard: usize, offset: u64, len: usize| Submission {
            ticket: offset, // arbitrary
            req: SpillRequest { shard, offset, len },
            buf: Vec::new(),
            at: Instant::now(),
        };
        // Submitted out of order, across two shards, with one gap:
        // shard 0 holds [0,100), [100,250), gap, [300,350);
        // shard 1 holds [0,80), [80,160).
        let mut burst = vec![
            sub(1, 80, 80),
            sub(0, 100, 150),
            sub(0, 300, 50),
            sub(0, 0, 100),
            sub(1, 0, 80),
        ];
        let runs = plan_runs(&mut burst);
        // Sorted: (0,0) (0,100) (0,300) (1,0) (1,80) → runs of 2, 1, 2.
        assert_eq!(runs, vec![0..2, 2..3, 3..5]);
        let lens: Vec<usize> = runs
            .iter()
            .map(|r| burst[r.clone()].iter().map(|s| s.req.len).sum())
            .collect();
        assert_eq!(lens, vec![250, 50, 160]);
        // Degenerate bursts.
        assert_eq!(plan_runs(&mut []), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(plan_runs(&mut [sub(2, 7, 3)]), vec![0..1]);
    }

    #[test]
    fn ring_engine_serves_interleaved_shards() {
        let chunks: Vec<_> = (0..12u8).map(|i| chunk(i as usize % 4, i, 96)).collect();
        let (io, layout, paths) = test_shards(4, &chunks);
        let engine = RingIo::start(Arc::clone(&io), 4);
        let mut expected = HashMap::new();
        for (req, bytes) in &layout {
            let t = engine.submit(*req, Vec::new());
            expected.insert(t, bytes.clone());
        }
        drain_and_check(&engine, &expected);
        let s = io.stats.snapshot_stable();
        s.assert_consistent();
        assert_eq!(s.submitted, 12);
        assert_eq!(s.completed, 12);
        assert_eq!(s.disk_reads + s.coalesced_reads, 12, "{s:?}");
        assert!(s.max_in_flight >= 1);
        assert_eq!(s.latency_us.iter().sum::<u64>(), 12);
        drop(engine);
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn engines_surface_read_errors_per_request() {
        let (io, layout, paths) = test_shards(1, &[chunk(0, 7, 64)]);
        let engine = RingIo::start(Arc::clone(&io), 1);
        // Past-EOF read must complete with an error, not hang or panic.
        let t_bad = engine.submit(
            SpillRequest {
                shard: 0,
                offset: 1 << 20,
                len: 32,
            },
            Vec::new(),
        );
        let t_good = engine.submit(layout[0].0, Vec::new());
        let mut seen = HashMap::new();
        for _ in 0..2 {
            let c = engine.complete().unwrap();
            seen.insert(c.ticket, c.result.is_ok());
        }
        assert!(!seen[&t_bad]);
        assert!(seen[&t_good]);
        drop(engine);
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn shutdown_wakes_blocked_completers() {
        let (io, _, paths) = test_shards(1, &[chunk(0, 1, 8)]);
        let engine = RingIo::start(Arc::clone(&io), 1);
        let waiter = std::thread::scope(|s| {
            let h = s.spawn(|| engine.complete().is_none());
            std::thread::sleep(Duration::from_millis(10));
            engine.shutdown();
            h.join().unwrap()
        });
        assert!(waiter, "complete() must return None after shutdown");
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn engine_kind_parses_and_prints() {
        for (s, k) in [("SYNC", IoEngineKind::Sync), ("Ring", IoEngineKind::Ring)] {
            assert_eq!(s.parse::<IoEngineKind>().unwrap(), k);
            assert_eq!(k.name().parse::<IoEngineKind>().unwrap(), k);
        }
        assert!("uring".parse::<IoEngineKind>().is_err());
        assert_eq!(
            "pool".parse::<IoEngineKind>().unwrap_err(),
            "unknown io engine \"pool\" (sync|ring)"
        );
    }

    #[test]
    fn latency_histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let snap = h.snapshot();
        assert_eq!(snap.iter().sum::<u64>(), 4);
        assert_eq!(snap[0], 1); // <1us
        assert_eq!(snap[2], 2); // [2,4)us
        let s = IoSnapshot {
            latency_us: snap,
            ..Default::default()
        };
        assert_eq!(s.latency_percentile_us(50), 4);
        assert_eq!(s.latency_percentile_us(99), 1024);
        assert_eq!(IoSnapshot::default().latency_percentile_us(50), 0);
    }

    /// Pins the percentile boundary semantics: an empty histogram and a
    /// histogram whose only occupied bucket is bucket 0 (sub-microsecond
    /// completions) both report 0, never bucket 0's upper bound; a
    /// histogram occupying exactly one bucket `b > 0` reports that
    /// bucket's upper bound for every percentile.
    #[test]
    fn latency_percentile_boundary_values() {
        // Empty: 0 at every percentile.
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(IoSnapshot::default().latency_percentile_us(p), 0);
        }
        // All samples sub-microsecond: the quantile lands in bucket 0 and
        // must report 0, not 1 µs.
        let mut sub_us = IoSnapshot::default();
        sub_us.latency_us[0] = 17;
        for p in [1, 50, 99, 100] {
            assert_eq!(sub_us.latency_percentile_us(p), 0, "p{p}");
        }
        // One occupied bucket b > 0: every percentile reports 2^b.
        for b in [1, 5, LATENCY_BUCKETS - 1] {
            let mut one = IoSnapshot::default();
            one.latency_us[b] = 3;
            for p in [1, 50, 100] {
                assert_eq!(
                    one.latency_percentile_us(p),
                    latency_bucket_upper_us(b),
                    "bucket {b} p{p}"
                );
            }
        }
        // Mixed bucket-0 + higher bucket: quantiles below the bucket-0
        // mass report 0, quantiles above it report the upper bucket.
        let mut mixed = IoSnapshot::default();
        mixed.latency_us[0] = 9;
        mixed.latency_us[4] = 1;
        assert_eq!(mixed.latency_percentile_us(50), 0);
        assert_eq!(mixed.latency_percentile_us(100), 16);
    }

    /// Pins the cache-aware coverage invariant: cache-served visits enter
    /// neither the prefetch nor the physical-read ledgers, while every
    /// shared-cache miss must be covered by its own physical read — a
    /// miss that never reached the device (i.e. was double-counted as
    /// cache-served) must trip `assert_consistent`.
    #[test]
    fn assert_consistent_accounts_cache_served_reads() {
        // Pure tenant workload: 6 hits cost nothing, 4 misses each paid a
        // direct physical read. No prefetch traffic at all.
        let tenant = IoSnapshot {
            disk_reads: 4,
            cache_hits: 6,
            cache_misses: 4,
            ..Default::default()
        };
        tenant.assert_consistent();

        // Tenant + prefetch engine side by side: the engine's 5 completed
        // reads and the tenants' 4 miss reads are disjoint physical reads.
        let mixed = IoSnapshot {
            disk_reads: 9,
            submitted: 5,
            completed: 5,
            spill_requests: 5,
            prefetch_hits: 5,
            cache_hits: 6,
            cache_misses: 4,
            ..Default::default()
        };
        mixed.assert_consistent();

        // Double-counting: a visit recorded as a cache miss without a
        // covering physical read (e.g. it was actually served from the
        // cache, or charged to the prefetch pipeline instead).
        let double = IoSnapshot {
            disk_reads: 3,
            cache_misses: 4,
            ..Default::default()
        };
        assert!(std::panic::catch_unwind(|| double.assert_consistent()).is_err());
    }

    #[test]
    fn bandwidth_profile_tracks_observed_throughput() {
        let p = BandwidthProfile::new(2);
        assert_eq!(p.estimate_mbps(0), None);
        // 1 MB in 10 ms = 100 MB/s; the first sample seeds the EWMA.
        p.observe(0, 1_000_000, Duration::from_millis(10));
        let e = p.estimate_mbps(0).unwrap();
        assert!((e - 100.0).abs() < 1.0, "{e}");
        // A slower sample pulls the estimate down by alpha.
        p.observe(0, 1_000_000, Duration::from_millis(100)); // 10 MB/s
        let e2 = p.estimate_mbps(0).unwrap();
        assert!(e2 < e && e2 > 10.0, "{e2}");
        // Shard 1 is independent and still unobserved.
        assert_eq!(p.estimate_mbps(1), None);
        assert_eq!(p.snapshot_mbps()[1], 0.0);
        // Out-of-range shards are ignored, not panics.
        p.observe(9, 100, Duration::from_micros(1));
        assert_eq!(p.estimate_mbps(0), Some(e2));
        assert_eq!(p.estimate_mbps(9), None);
    }

    #[test]
    fn scheduler_config_resolution() {
        let auto = SchedulerConfig::default();
        // Auto: ring threads follow the shard count, decode workers the
        // depth, both capped.
        assert_eq!(auto.resolved_io_threads(4), 4);
        assert_eq!(auto.resolved_io_threads(99), MAX_IO_THREADS);
        assert_eq!(auto.resolved_decode_workers(3, 8), 3);
        assert_eq!(auto.resolved_decode_workers(0, 8), 1);
        let explicit = SchedulerConfig {
            io_threads: 2,
            decode_workers: 6,
            pinning: Pinning::Off,
        };
        assert_eq!(explicit.resolved_io_threads(4), 2);
        assert_eq!(explicit.resolved_decode_workers(3, 8), 6);
        assert_eq!(explicit.resolved_decode_workers(3, 4), 4);
    }

    /// The inline engine's contract with the prefetch pipeline: a request
    /// still queued can be taken back exactly once and then never
    /// completes; one a completer has popped cannot; `shutdown` wakes a
    /// blocked completer; and none of it touches the async counters.
    #[test]
    fn inline_engine_cancels_queued_requests_and_reads_on_the_completer() {
        let chunks: Vec<_> = (0..3u8).map(|i| chunk(0, i, 64)).collect();
        let (io, layout, paths) = test_shards(1, &chunks);
        let engine = InlineIo::new(Arc::clone(&io));
        let tickets: Vec<Ticket> = layout
            .iter()
            .map(|(req, _)| engine.submit(*req, Vec::new()))
            .collect();
        assert_eq!(engine.in_flight(), 3);
        assert_eq!(io.stats.snapshot().disk_reads, 0, "submit must not read");

        let (req, _buf) = engine.try_cancel(tickets[1]).expect("still queued");
        assert_eq!((req.offset, req.len), (64, 64));
        assert!(engine.try_cancel(tickets[1]).is_none(), "handed back twice");

        // The completer pops the oldest request and reads it itself.
        let c = engine.complete().expect("queued request");
        assert_eq!((c.ticket, &c.buf), (tickets[0], &layout[0].1));
        assert!(c.result.is_ok());
        assert!(engine.try_cancel(tickets[0]).is_none(), "already popped");
        // The cancelled ticket is skipped, never surfaced.
        let c = engine.complete().expect("queued request");
        assert_eq!((c.ticket, &c.buf), (tickets[2], &layout[2].1));
        assert_eq!(engine.in_flight(), 0);

        let woke = std::thread::scope(|s| {
            let h = s.spawn(|| engine.complete().is_none());
            std::thread::sleep(Duration::from_millis(10));
            engine.shutdown();
            h.join().unwrap()
        });
        assert!(woke, "complete() must return None after shutdown");
        let stats = io.stats.snapshot_stable();
        stats.assert_consistent();
        assert_eq!((stats.disk_reads, stats.bytes_read), (2, 128));
        assert_eq!(
            (stats.submitted, stats.completed, stats.max_in_flight),
            (0, 0, 0)
        );
        assert_eq!(stats.latency_us.iter().sum::<u64>(), 0);
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }
}
