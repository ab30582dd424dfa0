//! Multi-tenant training service: N concurrent jobs over one
//! [`ShardedSpillStore`].
//!
//! The paper's premise is that one compressed representation should
//! serve many consumers without re-materializing data. This module is
//! that layer: a [`JobServer`] admits up to `max_concurrent` training
//! jobs at a time, in submission order, every admitted job trains on a
//! thread of its own through its own [`TenantProvider`] view of the
//! shared store, and all tenants share one [`BatchCache`] — a
//! byte-budgeted, fill-once pool of *encoded* batch bytes: what fits
//! first stays, and nothing is evicted. A job that panics fails its own
//! outcome and no other: its slot goes back as it unwinds, and its panic
//! comes back through its thread's join ([`JobServer::run_each`]).
//!
//! MGD visits every mini-batch once per epoch in shuffled order, so no
//! batch is hotter than another and a pool that keeps the first batches
//! that fit serves as many hits as any ranking could — without the
//! per-visit bookkeeping or the churn of evicting bytes that some tenant
//! is about to re-read.
//!
//! Caching encoded bytes (not decoded batches) keeps the pool dense —
//! that is the point of tuple-oriented compression — and makes
//! determinism structural: decode is deterministic, so a job sees
//! bit-identical batches whether a visit was served from the cache, from
//! its own direct read, or from a solo run's prefetch pipeline. The
//! determinism suite pins exactly that.
//!
//! Tenant reads bypass the prefetch pipeline: the shared cache plays the
//! lookahead's role across jobs, and each cache miss pays one direct
//! charged read (`cache_misses` in [`crate::IoSnapshot`] — see
//! `assert_consistent` for the coverage invariant). Before the read, the
//! tenant is throttled to its IO share: a job with QoS weight `share`
//! may issue reads on a shard at `share / mean_active_share` times the
//! shard's EWMA bandwidth. Under concurrency the EWMA converges to the
//! per-reader fair share, so equal-share tenants are steered, not
//! stalled, while a low-share tenant genuinely yields bandwidth to
//! high-share ones.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use toc_formats::AnyBatch;
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec, TrainedModel, Trainer};

use crate::io::{lock, wait};
use crate::store::{DiskLoc, ShardedSpillStore};

// ---------------------------------------------------------------------------
// BatchCache: shared fill-once compressed-batch pool.

struct CacheInner {
    map: HashMap<usize, Arc<Vec<u8>>>,
    bytes: usize,
}

/// Byte-budgeted pool of encoded spilled batches, keyed by batch index
/// and shared by every tenant of a store. Fill-once: an insert that fits
/// in what the budget has left stays resident for the pool's life, and
/// one that does not is refused. Nothing is ever evicted, so the pool
/// never exceeds its budget and a resident batch never changes.
pub struct BatchCache {
    budget: usize,
    inner: Mutex<CacheInner>,
    insertions: AtomicU64,
    rejected: AtomicU64,
}

impl BatchCache {
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
            }),
            insertions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The byte budget the pool never exceeds.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Encoded bytes currently resident.
    pub fn bytes(&self) -> usize {
        lock(&self.inner).bytes
    }

    /// Number of resident batches.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether batch `id` is resident.
    pub fn contains(&self, id: usize) -> bool {
        lock(&self.inner).map.contains_key(&id)
    }

    /// Successful inserts (not counting re-offers of resident entries).
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Always 0: a fill-once pool never evicts. The method stays because
    /// `ledger/` (the benchmark, frozen) reports it.
    pub fn evictions(&self) -> u64 {
        0
    }

    /// Inserts refused because the batch did not fit in what the budget
    /// had left.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Look up batch `id`.
    pub fn get(&self, id: usize) -> Option<Arc<Vec<u8>>> {
        lock(&self.inner).map.get(&id).map(Arc::clone)
    }

    /// Offer encoded bytes for batch `id`. Returns whether the batch is
    /// resident afterwards: it already was (racing tenants missed the
    /// same batch, and its bytes are identical), or it fit.
    pub fn insert(&self, id: usize, bytes: Vec<u8>) -> bool {
        let mut st = lock(&self.inner);
        if st.map.contains_key(&id) {
            return true;
        }
        if st.bytes + bytes.len() > self.budget {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        st.bytes += bytes.len();
        st.map.insert(id, Arc::new(bytes));
        self.insertions.fetch_add(1, Ordering::Relaxed);
        true
    }
}

// ---------------------------------------------------------------------------
// Admission control.

struct AdmissionState {
    running: usize,
    total_share: f64,
    peak: usize,
}

/// Caps how many jobs train at once and tracks the active QoS shares the
/// per-tenant throttle normalizes against. [`JobServer`] admits on the
/// caller, in submission order, so admission order is strict.
pub(crate) struct Admission {
    max: usize,
    st: Mutex<AdmissionState>,
    cv: Condvar,
}

/// An admission slot, given back on drop: a job that panics while
/// training must not leave the jobs queued behind it waiting on a slot
/// nobody will release.
struct Slot<'a>(&'a Admission, f64);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.release(self.1);
    }
}

/// The slot a job holds, the job and how long it queued for the slot.
type Admitted<'a> = (Option<Slot<'a>>, JobSpec, Duration);

impl Admission {
    fn new(max: usize) -> Self {
        Self {
            max,
            st: Mutex::new(AdmissionState {
                running: 0,
                total_share: 0.0,
                peak: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// A standalone group that always reports exactly one active job —
    /// what a directly-constructed [`TenantProvider`] normalizes against.
    fn solo(share: f64) -> Self {
        let a = Self::new(0);
        // The slot is never given back.
        std::mem::forget(a.admit(share, false));
        a
    }

    /// Admit a job of `share` into a free slot, waiting for one to free
    /// if `block`; without `block`, `None` when none is free.
    fn admit(&self, share: f64, block: bool) -> Option<Slot<'_>> {
        let mut g = lock(&self.st);
        while self.max > 0 && g.running >= self.max {
            if !block {
                return None;
            }
            g = wait(&self.cv, g);
        }
        g.running += 1;
        g.total_share += share;
        g.peak = g.peak.max(g.running);
        Some(Slot(self, share))
    }

    fn release(&self, share: f64) {
        let mut g = lock(&self.st);
        g.running -= 1;
        g.total_share -= share;
        drop(g);
        self.cv.notify_all();
    }

    fn active(&self) -> (usize, f64) {
        let g = lock(&self.st);
        (g.running, g.total_share)
    }

    fn peak(&self) -> usize {
        lock(&self.st).peak
    }
}

// ---------------------------------------------------------------------------
// TenantProvider: one job's view of the shared store.

/// One tenant's [`BatchProvider`] over a shared store: in-memory batches
/// are served directly; spilled visits consult the shared [`BatchCache`],
/// and on a miss pay one QoS-throttled direct read whose bytes are
/// offered back to the cache.
pub struct TenantProvider {
    store: Arc<ShardedSpillStore>,
    cache: Arc<BatchCache>,
    admission: Arc<Admission>,
    share: f64,
    epoch: Instant,
    /// Per-shard leaky-bucket clocks (seconds since `epoch` at which this
    /// tenant's next read on the shard may start).
    clocks: Vec<Mutex<f64>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    qos_wait_ns: AtomicU64,
    batches_visited: AtomicU64,
}

impl TenantProvider {
    /// A standalone tenant (its own admission group of one) — the shape
    /// the tests use; [`JobServer`] wires tenants into its shared group.
    pub fn new(store: Arc<ShardedSpillStore>, cache: Arc<BatchCache>, share: f64) -> Self {
        let admission = Arc::new(Admission::solo(share));
        Self::with_admission(store, cache, admission, share)
    }

    fn with_admission(
        store: Arc<ShardedSpillStore>,
        cache: Arc<BatchCache>,
        admission: Arc<Admission>,
        share: f64,
    ) -> Self {
        let shards = store.num_shards();
        Self {
            store,
            cache,
            admission,
            share,
            epoch: Instant::now(),
            clocks: (0..shards).map(|_| Mutex::new(0.0)).collect(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            qos_wait_ns: AtomicU64::new(0),
            batches_visited: AtomicU64::new(0),
        }
    }

    /// Spilled visits this tenant served from the shared cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Spilled visits that paid a direct read.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Total time this tenant spent blocked on QoS throttling.
    pub fn qos_wait(&self) -> Duration {
        Duration::from_nanos(self.qos_wait_ns.load(Ordering::Relaxed))
    }

    /// Batches visited (memory and spilled).
    pub fn batches_visited(&self) -> u64 {
        self.batches_visited.load(Ordering::Relaxed)
    }

    /// Block until this tenant's IO share admits a `len`-byte read on
    /// `shard`. The allowance is `share / mean_active_share` of the
    /// shard's EWMA bandwidth; with no profiler signal yet there is
    /// nothing to apportion and the read proceeds unthrottled.
    fn throttle(&self, shard: usize, len: usize) {
        let Some(ewma_bps) = self.store.shard_ewma_bps(shard) else {
            return;
        };
        let (active, total_share) = self.admission.active();
        if active == 0 || total_share <= 0.0 || self.share <= 0.0 {
            return;
        }
        let mean_share = total_share / active as f64;
        let allowed_bps = (self.share / mean_share * ewma_bps).max(1e3);
        let cost = len as f64 / allowed_bps;
        let now = self.epoch.elapsed().as_secs_f64();
        let start = {
            let mut free = lock(&self.clocks[shard]);
            let start = free.max(now);
            *free = start + cost;
            start
        };
        if start > now {
            let pause = Duration::from_secs_f64(start - now);
            std::thread::sleep(pause);
            let ns = pause.as_nanos() as u64;
            self.qos_wait_ns.fetch_add(ns, Ordering::Relaxed);
            self.store
                .stats()
                .qos_throttle_ns
                .fetch_add(ns, Ordering::Relaxed);
        }
    }
}

impl BatchProvider for TenantProvider {
    fn num_batches(&self) -> usize {
        self.store.num_batches()
    }

    fn num_features(&self) -> usize {
        self.store.num_features()
    }

    fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64])) {
        self.batches_visited.fetch_add(1, Ordering::Relaxed);
        // In-memory entries never reach the fetch: the store serves them
        // with no IO accounting.
        let fetch = |loc: DiskLoc| {
            let stats = self.store.stats();
            if let Some(bytes) = self.cache.get(idx) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                return self.store.decode_spill(&bytes);
            }
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            self.throttle(loc.shard, loc.len);
            let mut buf = Vec::with_capacity(loc.len);
            self.store.read_spill_bytes(loc, &mut buf);
            let b = self.store.decode_spill(&buf);
            self.cache.insert(idx, buf);
            b
        };
        self.store.visit_with(idx, fetch, f);
    }
}

// ---------------------------------------------------------------------------
// The job server.

/// Server-wide knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeConfig {
    /// Jobs allowed to train at once; later submissions queue. 0 means
    /// unlimited.
    pub max_concurrent: usize,
    /// Byte budget of the shared [`BatchCache`]. 0 disables caching
    /// (every spilled visit pays a direct read).
    pub cache_bytes: usize,
}

/// One training job: a model family plus hyper-parameters, a QoS share,
/// and optionally an eval set for the error curve.
#[derive(Clone)]
pub struct JobSpec {
    pub name: String,
    pub model: ModelSpec,
    pub config: MgdConfig,
    /// Relative IO-share weight (1.0 = an even share).
    pub share: f64,
    /// Eval set for the per-epoch error curve (`config.record_curve`).
    pub eval: Option<(AnyBatch, Vec<f64>)>,
}

impl JobSpec {
    pub fn new(name: impl Into<String>, model: ModelSpec, config: MgdConfig) -> Self {
        Self {
            name: name.into(),
            model,
            config,
            share: 1.0,
            eval: None,
        }
    }

    pub fn with_share(mut self, share: f64) -> Self {
        self.share = share;
        self
    }

    pub fn with_eval(mut self, batch: AnyBatch, labels: Vec<f64>) -> Self {
        self.eval = Some((batch, labels));
        self
    }
}

/// What one finished job reports.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub name: String,
    pub share: f64,
    pub seed: u64,
    /// Final model parameters, flattened — compared bit-for-bit against
    /// solo runs by the determinism suite.
    pub weights: Vec<f64>,
    /// The trained model itself, for evaluation after the run.
    pub model: TrainedModel,
    /// Per-epoch eval error rates (empty without an eval set).
    pub curve: Vec<f64>,
    pub train_time: Duration,
    /// Time from the start of the run until the job was admitted.
    pub queue_wait: Duration,
    /// Time spent blocked on QoS throttling.
    pub qos_wait: Duration,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batches_visited: u64,
}

/// Runs many training jobs over one shared store + cache. `run` and
/// `run_each` block until every job finishes and preserve submission
/// order in their result.
pub struct JobServer {
    store: Arc<ShardedSpillStore>,
    cache: Arc<BatchCache>,
    admission: Arc<Admission>,
}

impl JobServer {
    pub fn new(store: Arc<ShardedSpillStore>, config: ServeConfig) -> Self {
        Self {
            store,
            cache: Arc::new(BatchCache::new(config.cache_bytes)),
            admission: Arc::new(Admission::new(config.max_concurrent)),
        }
    }

    /// The shared compressed-batch pool.
    pub fn cache(&self) -> &BatchCache {
        &self.cache
    }

    /// The store every job trains over.
    pub fn store(&self) -> &ShardedSpillStore {
        &self.store
    }

    /// High-water mark of concurrently admitted jobs.
    pub fn peak_concurrency(&self) -> usize {
        self.admission.peak()
    }

    /// Run all jobs to completion and return their outcomes in input
    /// order: [`Self::run_each`], then the first job's panic, if any job
    /// panicked, raised again once every job has finished.
    pub fn run(&self, jobs: Vec<JobSpec>) -> Vec<JobOutcome> {
        self.run_each(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }

    /// Run all jobs to completion, one thread each, and return each one's
    /// outcome, or what it panicked with, in input order: a job's panic
    /// fails its own entry and no other. Jobs are admitted here, in
    /// submission order: every job that fits before any starts, then one
    /// per freed slot, and a job's thread starts once it is admitted.
    pub fn run_each(&self, jobs: Vec<JobSpec>) -> Vec<std::thread::Result<JobOutcome>> {
        let start = Instant::now();
        let mut jobs = jobs.into_iter().peekable();
        let mut first = Vec::new();
        let fits = |job: &JobSpec| self.admission.admit(job.share, false);
        while let Some(slot) = jobs.peek().and_then(fits) {
            first.extend(jobs.next().map(|job| (Some(slot), job, start.elapsed())));
        }
        // Each admitted once the jobs before it have started.
        let rest = jobs.map(|job| (self.admission.admit(job.share, true), job, start.elapsed()));
        std::thread::scope(|s| {
            let running: Vec<_> = (first.into_iter().chain(rest))
                .map(|admitted| s.spawn(move || self.run_one(admitted)))
                .collect();
            running.into_iter().map(|job| job.join()).collect()
        })
    }

    /// Train one admitted job over its tenant view through [`Trainer`]
    /// and collect its outcome. Its slot goes back when this returns or
    /// unwinds.
    fn run_one(&self, (_slot, job, queue_wait): Admitted<'_>) -> JobOutcome {
        let tenant = TenantProvider::with_admission(
            Arc::clone(&self.store),
            Arc::clone(&self.cache),
            Arc::clone(&self.admission),
            job.share,
        );
        let eval = job.eval.as_ref().map(|(b, y)| (b, y.as_slice()));
        let report = Trainer::new(job.config.clone()).train(&job.model, &tenant, eval);
        JobOutcome {
            name: job.name.clone(),
            share: job.share,
            seed: job.config.seed,
            weights: report.model.weights(),
            model: report.model,
            curve: report.curve.iter().map(|p| p.error_rate).collect(),
            train_time: report.train_time,
            queue_wait,
            qos_wait: tenant.qos_wait(),
            cache_hits: tenant.cache_hits(),
            cache_misses: tenant.cache_misses(),
            batches_visited: tenant.batches_visited(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use crate::synth::{generate_preset, DatasetPreset};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use toc_formats::Scheme;
    use toc_linalg::DenseMatrix;
    use toc_ml::LossKind;

    /// A job that panics while it trains gives its admission slot back:
    /// with a gate of one, the jobs queued behind it are admitted (here
    /// to panic in turn), `run` reports the panic instead of never
    /// returning, and the server admits later jobs as if nothing happened.
    #[test]
    fn a_panicking_job_releases_its_admission_slot() {
        let ds = generate_preset(DatasetPreset::CensusLike, 200, 7);
        let config = StoreConfig::new(Scheme::Toc, 50, 0).with_shards(2);
        let store = Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap());
        let gate = ServeConfig {
            max_concurrent: 1,
            cache_bytes: 0,
        };
        let server = Arc::new(JobServer::new(store, gate));
        let job = |name: &str| {
            let config = MgdConfig {
                epochs: 1,
                record_curve: true,
                ..Default::default()
            };
            JobSpec::new(name, ModelSpec::Linear(LossKind::Logistic), config)
        };
        // An eval set one column too narrow: the first curve point panics
        // inside `run_job`. Both jobs carry it, so whichever is admitted
        // first panics holding the only slot.
        let narrow = Scheme::Den.encode(&DenseMatrix::zeros(4, ds.x.cols() - 1));
        let bad = |name: &str| job(name).with_eval(narrow.clone(), vec![1.0; 4]);
        let jobs = vec![bad("first"), bad("second")];

        let (tx, rx) = std::sync::mpsc::channel();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let run = catch_unwind(AssertUnwindSafe(|| server.run(jobs)));
                tx.send(run.is_err()).ok();
            })
        };
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("run never returned: the queued job is still waiting for the slot");
        assert!(panicked, "run swallowed the job's panic");
        runner.join().unwrap();

        assert_eq!(server.admission.active(), (0, 0.0));
        let outcomes = server.run(vec![job("later-a"), job("later-b")]);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(server.peak_concurrency(), 1);
    }
}
