//! Multi-tenant training service: N concurrent jobs over one
//! [`ShardedSpillStore`].
//!
//! The paper's premise is that one compressed representation should
//! serve many consumers without re-materializing data. This module is
//! that layer: a [`JobServer`] admits up to `max_concurrent` training
//! jobs at a time, every admitted job trains through its own
//! [`TenantProvider`] view of the shared store, and all tenants share
//! one [`BatchCache`] — a byte-budgeted pool of *encoded* batch bytes
//! with heat-based eviction.
//!
//! Heat reuses the signals the store already maintains: the per-batch
//! `visits` counters that drive adaptive placement, weighted by the
//! measured cost to re-read the batch from its current shard (the
//! per-shard bandwidth EWMAs). A batch every tenant keeps visiting on a
//! slow shard is the most valuable thing to keep resident.
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
use toc_ml::train_nn_parallel_report;

use crate::io::{lock, wait};
use crate::store::{DiskLoc, ShardedSpillStore};

// ---------------------------------------------------------------------------
// BatchCache: shared compressed-batch pool with heat-based eviction.

struct CacheEntry {
    bytes: Arc<Vec<u8>>,
    heat: f64,
}

struct CacheInner {
    map: HashMap<usize, CacheEntry>,
    bytes: usize,
}

/// Byte-budgeted pool of encoded spilled batches, keyed by batch index
/// and shared by every tenant of a store. Eviction is strictly by heat: an
/// insert evicts the coldest resident entries until it fits, and is
/// refused outright when the incoming batch is colder than everything it
/// would displace — the hottest batches survive, and the pool never
/// exceeds its budget.
pub struct BatchCache {
    budget: usize,
    inner: Mutex<CacheInner>,
    insertions: AtomicU64,
    evictions: AtomicU64,
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
            evictions: AtomicU64::new(0),
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

    /// Successful inserts (not counting refreshes of resident entries).
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Entries displaced to make room for hotter ones.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Inserts refused because the batch was colder than what it would
    /// displace (or larger than the whole budget).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Look up batch `id`, refreshing its heat on a hit.
    pub fn get(&self, id: usize, heat: f64) -> Option<Arc<Vec<u8>>> {
        let mut st = lock(&self.inner);
        let e = st.map.get_mut(&id)?;
        e.heat = e.heat.max(heat);
        Some(Arc::clone(&e.bytes))
    }

    /// Offer encoded bytes for batch `id` at the given heat. Returns
    /// whether the bytes are resident afterwards. The coldest entries are
    /// evicted to make room, but never ones hotter than the newcomer.
    pub fn insert(&self, id: usize, bytes: Vec<u8>, heat: f64) -> bool {
        let size = bytes.len();
        if size > self.budget {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut st = lock(&self.inner);
        if let Some(e) = st.map.get_mut(&id) {
            // Racing tenants missed the same batch; keep the resident copy
            // (the bytes are identical) and just refresh the heat.
            e.heat = e.heat.max(heat);
            return true;
        }
        while st.bytes + size > self.budget {
            // O(len) coldest scan per eviction: pool populations are small
            // (tens to hundreds of batches), and inserts already sit on a
            // charged disk read.
            let (&cold_id, cold_heat) = st
                .map
                .iter()
                .map(|(k, e)| (k, e.heat))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("over budget with an empty cache");
            if cold_heat > heat {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let evicted = st.map.remove(&cold_id).unwrap();
            st.bytes -= evicted.bytes.len();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        st.bytes += size;
        st.map.insert(
            id,
            CacheEntry {
                bytes: Arc::new(bytes),
                heat,
            },
        );
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
/// per-tenant throttle normalizes against. Admission is FIFO-ish (condvar
/// wakeup order); blocked jobs report the wait as `queue_wait`.
pub(crate) struct Admission {
    max: usize,
    st: Mutex<AdmissionState>,
    cv: Condvar,
}

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
        a.admit(share);
        a
    }

    fn admit(&self, share: f64) {
        let mut g = lock(&self.st);
        while self.max > 0 && g.running >= self.max {
            g = wait(&self.cv, g);
        }
        g.running += 1;
        g.total_share += share;
        g.peak = g.peak.max(g.running);
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
/// are served directly; spilled visits bump the shared heat counters,
/// consult the shared [`BatchCache`], and on a miss pay one QoS-throttled
/// direct read whose bytes are offered back to the cache.
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

    /// Heat of a batch: shared visit count weighted by the measured cost
    /// (seconds) to re-read it from its current shard. Falls back to a
    /// nominal 100 MB/s before the profiler has a sample for the shard.
    fn heat(&self, visits: u64, shard: usize, len: usize) -> f64 {
        let bps = self.store.shard_ewma_bps(shard).unwrap_or(1e8);
        visits as f64 * (len as f64 / bps)
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
        let fetch = |loc: DiskLoc, visits: u64| {
            let heat = self.heat(visits, loc.shard, loc.len);
            let stats = self.store.stats();
            if let Some(bytes) = self.cache.get(idx, heat) {
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
            self.cache.insert(idx, buf, heat);
            b
        };
        self.store.visit_with(idx, fetch, f);
    }

    fn end_epoch(&self) {
        // Adaptive placement keeps rebalancing under multi-tenant load;
        // migrations repoint locations but never change bytes, so resident
        // cache entries stay valid.
        self.store.end_epoch();
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
    /// Data-parallel workers for NN jobs (1 = the sequential trainer).
    pub nn_workers: usize,
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
            nn_workers: 1,
            eval: None,
        }
    }

    pub fn with_share(mut self, share: f64) -> Self {
        self.share = share;
        self
    }

    pub fn with_nn_workers(mut self, workers: usize) -> Self {
        self.nn_workers = workers;
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
    /// Time spent waiting for admission.
    pub queue_wait: Duration,
    /// Time spent blocked on QoS throttling.
    pub qos_wait: Duration,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batches_visited: u64,
}

/// Runs many training jobs over one shared store + cache. `run` blocks
/// until every job finishes and preserves submission order in its result.
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

    /// Run all jobs to completion (one thread each; admission gates how
    /// many train at a time). Outcomes line up with the input order.
    pub fn run(&self, jobs: Vec<JobSpec>) -> Vec<JobOutcome> {
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| s.spawn(move || self.run_one(job)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("job thread panicked"))
                .collect()
        })
    }

    fn run_one(&self, job: JobSpec) -> JobOutcome {
        /// An admission slot, given back on drop: a job that panics while
        /// training must not leave the jobs queued behind it waiting on a
        /// slot nobody will release.
        struct Admitted<'a>(&'a Admission, f64);
        impl Drop for Admitted<'_> {
            fn drop(&mut self) {
                self.0.release(self.1);
            }
        }
        let queued = Instant::now();
        self.admission.admit(job.share);
        let _slot = Admitted(&self.admission, job.share);
        let queue_wait = queued.elapsed();
        let tenant = TenantProvider::with_admission(
            Arc::clone(&self.store),
            Arc::clone(&self.cache),
            Arc::clone(&self.admission),
            job.share,
        );
        run_job(&job, &tenant, queue_wait)
    }
}

/// Train one job over its tenant view and collect its outcome. NN jobs
/// with `nn_workers > 1` go through the deterministic data-parallel
/// trainer; everything else through [`Trainer`]. Both start from
/// [`ModelSpec::init`], so a job's parameters are bit-identical to a solo
/// run's no matter which entry point trained it.
fn run_job(job: &JobSpec, tenant: &TenantProvider, queue_wait: Duration) -> JobOutcome {
    let (model, curve, train_time) = match &job.model {
        ModelSpec::NeuralNet { .. } if job.nn_workers > 1 => {
            let init = job.model.init(tenant.num_features(), job.config.seed);
            let TrainedModel::NeuralNet(mut nn) = init else {
                unreachable!("NeuralNet spec initialized a different family")
            };
            let report = train_nn_parallel_report(&mut nn, tenant, &job.config, job.nn_workers);
            let mut model = TrainedModel::NeuralNet(nn);
            // The parallel trainer has no per-epoch curve hook; report the
            // final error as a single point when an eval set is present.
            let curve = match &job.eval {
                Some((b, y)) => vec![model.error_rate(b, y)],
                None => Vec::new(),
            };
            (model, curve, report.train_time)
        }
        _ => {
            let trainer = Trainer::new(job.config.clone());
            let eval = job.eval.as_ref().map(|(b, y)| (b, y.as_slice()));
            let report = trainer.train(&job.model, tenant, eval);
            let curve = report.curve.iter().map(|p| p.error_rate).collect();
            (report.model, curve, report.train_time)
        }
    };
    JobOutcome {
        name: job.name.clone(),
        share: job.share,
        seed: job.config.seed,
        weights: model.weights(),
        model,
        curve,
        train_time,
        queue_wait,
        qos_wait: tenant.qos_wait(),
        cache_hits: tenant.cache_hits(),
        cache_misses: tenant.cache_misses(),
        batches_visited: tenant.batches_visited(),
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
