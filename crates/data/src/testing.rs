//! Test support: a fault-injecting [`SpillIo`] engine.
//!
//! [`FaultyIo`] implements the same submission/completion contract as the
//! production ring engine, but serves every request through a gauntlet of
//! injectable faults — per-request latency, chunked short reads,
//! `EINTR`-style retry spins, and out-of-order completion release — all
//! driven by a seeded RNG. The point is adversarial scheduling: the
//! prefetch pipeline and the trainer must produce **bit-identical
//! batches under any interleaving** the double can produce, which the
//! fault-injection suite (`crates/data/tests/fault_injection.rs`)
//! asserts with proptest over the fault space.
//!
//! Wire it in through [`crate::store::StoreConfig::with_fault_plan`]; the
//! plan overrides the configured engine kind. This module is compiled
//! into the library (not `#[cfg(test)]`) so integration tests and other
//! crates' suites can drive it, but nothing in the production read paths
//! references it.

use crate::io::{
    lock, Completion, CompletionQueue, DeviceProfile, IoShards, SpillIo, SpillRequest, Submission,
    SubmissionQueue, Ticket,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared observability counters for a [`FaultPlan`]: tests keep a clone
/// of the plan and assert the faults actually fired.
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    /// `EINTR`-style retry spins taken before a chunk read.
    pub eintr_retries: Arc<AtomicU64>,
    /// Requests served in more than one chunk (simulated short reads).
    pub chunked_requests: Arc<AtomicU64>,
    /// Sealed-segment appends landed in more than one partial `pwrite`
    /// (simulated short writes on the ingest path).
    pub chunked_writes: Arc<AtomicU64>,
    /// Completions released out of arrival order.
    pub reordered: Arc<AtomicU64>,
    /// Total injected latency, in microseconds.
    pub delayed_us: Arc<AtomicU64>,
}

/// Fault schedule for [`FaultyIo`]. All faults are *benign* — requests
/// still complete with the right bytes — so any output difference they
/// provoke is a real pipeline bug, not an artifact of the injection.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// RNG seed for the fault schedule.
    pub seed: u64,
    /// Uniform per-request latency in `[0, max_latency_us]` µs.
    pub max_latency_us: u64,
    /// Serve each request in 2–4 partial reads at sub-offsets (a short
    /// read followed by continuation reads) instead of one `pread`.
    pub chunked_reads: bool,
    /// Land each sealed-segment append in 2–4 partial `pwrite`s at
    /// bumped offsets (short writes) instead of one `write_all_at`, with
    /// the same latency/EINTR gauntlet as the read path. Only the
    /// streaming-ingest append path consults this; spill-at-build writes
    /// are unaffected.
    pub chunked_writes: bool,
    /// Per-chunk probability (‰) of an `EINTR`-style retry spin before
    /// the read proceeds.
    pub eintr_per_mille: u32,
    /// Hold up to this many finished completions in a pen and release
    /// them in seeded-random order (0 = complete in finish order). The
    /// pen always drains when the engine goes idle, so a held completion
    /// can never deadlock a waiting consumer.
    pub reorder_window: usize,
    /// IO worker threads (clamped to 1..=4).
    pub workers: usize,
    /// Per-shard asymmetric bandwidth profiles (cycled when shorter than
    /// the shard count; empty = the store's uniform model). This is how
    /// the scheduler harness gives the store fast, slow, and degrading
    /// devices to discover: the profiles are applied to the shard devices
    /// at store build, so *every* read path — faulty or not — simulates
    /// them, and the adaptive planner has a real signal to migrate by.
    pub device_profiles: Vec<DeviceProfile>,
    /// Observability counters (shared through clones of the plan).
    pub stats: FaultStats,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0xF0CA,
            max_latency_us: 200,
            chunked_reads: true,
            chunked_writes: true,
            eintr_per_mille: 250,
            reorder_window: 3,
            workers: 2,
            device_profiles: Vec::new(),
            stats: FaultStats::default(),
        }
    }
}

impl FaultPlan {
    /// A plan that differs from the default only in seed — handy for
    /// proptest sweeps over schedules.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// IO worker threads [`FaultyIo`] will actually start (the `workers`
    /// knob after clamping) — what `PlacementReport::io_threads` reports
    /// when the plan overrides the configured engine.
    pub fn resolved_workers(&self) -> usize {
        self.workers.clamp(1, 4)
    }

    /// Apply the plan's *write* faults to one sealed-segment append:
    /// injected latency, then the buffer lands in 2–4 partial `pwrite`s
    /// at bumped offsets with EINTR-style retry spins between chunks.
    /// The bytes on disk are always exactly `bytes` at `offset`, so a
    /// sealed segment that later fails to decode is a real append-path
    /// bug, not an artifact of the injection. Deterministic per `seq`
    /// (the store-wide append sequence number), independent of thread
    /// timing.
    pub(crate) fn faulty_append(
        &self,
        io: &IoShards,
        shard: usize,
        offset: u64,
        bytes: &[u8],
        seq: u64,
    ) -> std::io::Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ seq.wrapping_mul(0x517C_C1B7_2722_0A95));
        if self.max_latency_us > 0 {
            let us = rng.gen_range(0..=self.max_latency_us);
            if us > 0 {
                self.stats.delayed_us.fetch_add(us, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
        let dev = &io.devices[shard];
        if !self.chunked_writes || bytes.len() < 2 {
            return dev.file.write_all_at(bytes, offset);
        }
        self.stats.chunked_writes.fetch_add(1, Ordering::Relaxed);
        let n_chunks = rng.gen_range(2..=4usize.min(bytes.len()));
        let chunk = bytes.len().div_ceil(n_chunks);
        let mut done = 0usize;
        while done < bytes.len() {
            let take = chunk.min(bytes.len() - done);
            let mut spins = 0;
            while spins < 4 && rng.gen_range(0..1000u32) < self.eintr_per_mille {
                self.stats.eintr_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
                spins += 1;
            }
            dev.file
                .write_all_at(&bytes[done..done + take], offset + done as u64)?;
            done += take;
        }
        Ok(())
    }
}

struct FaultShared {
    io: Arc<IoShards>,
    plan: FaultPlan,
    /// Ticket assignment + `IoStats` submission accounting.
    subq: SubmissionQueue,
    /// Finished-but-unreleased completions, in arrival order.
    pen: Mutex<Vec<Completion>>,
    comp: CompletionQueue,
}

/// The fault-injecting [`SpillIo`] double. See the module docs.
pub struct FaultyIo {
    shared: Arc<FaultShared>,
    threads: Vec<JoinHandle<()>>,
}

impl FaultyIo {
    pub(crate) fn start(io: Arc<IoShards>, plan: FaultPlan) -> Self {
        let workers = plan.resolved_workers();
        let shared = Arc::new(FaultShared {
            io,
            plan,
            subq: SubmissionQueue::new(),
            pen: Mutex::new(Vec::new()),
            comp: CompletionQueue::new(),
        });
        let threads = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker(&shared, w as u64))
            })
            .collect();
        Self { shared, threads }
    }

    /// Release pen members in seeded-random order until at most
    /// `keep` remain.
    fn flush_pen(shared: &FaultShared, rng: &mut StdRng, keep: usize) {
        let mut pen = lock(&shared.pen);
        while pen.len() > keep {
            let i = rng.gen_range(0..pen.len());
            if i != 0 {
                shared.plan.stats.reordered.fetch_add(1, Ordering::Relaxed);
            }
            let c = pen.remove(i);
            shared.comp.push(c);
        }
    }

    /// Serve one request with the plan's faults: latency, chunked partial
    /// reads, EINTR-style retry spins. The bytes delivered are always
    /// exactly the requested range.
    fn faulty_read(
        shared: &FaultShared,
        rng: &mut StdRng,
        req: &SpillRequest,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        let plan = &shared.plan;
        if plan.max_latency_us > 0 {
            let us = rng.gen_range(0..=plan.max_latency_us);
            if us > 0 {
                plan.stats.delayed_us.fetch_add(us, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
        let io = &shared.io;
        if !plan.chunked_reads || req.len < 2 {
            return io.read_range(req.shard, req.offset, req.len, buf);
        }
        // A short read followed by continuation reads at bumped offsets:
        // the consumer contract (full buffer on Ok) is preserved, the
        // offset arithmetic is what gets exercised.
        buf.clear();
        buf.resize(req.len, 0);
        let n_chunks = rng.gen_range(2..=4usize.min(req.len));
        plan.stats.chunked_requests.fetch_add(1, Ordering::Relaxed);
        let chunk = req.len.div_ceil(n_chunks);
        let dev = &io.devices[req.shard];
        let mut done = 0usize;
        while done < req.len {
            let take = chunk.min(req.len - done);
            // EINTR-style interruption: spin-retry before the chunk lands.
            let mut spins = 0;
            while spins < 4 && rng.gen_range(0..1000u32) < plan.eintr_per_mille {
                plan.stats.eintr_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
                spins += 1;
            }
            let t0 = std::time::Instant::now();
            dev.file
                .read_exact_at(&mut buf[done..done + take], req.offset + done as u64)?;
            // Shared accounting with `IoShards::read_range`: each chunk
            // charges the (possibly asymmetric/degrading) device model,
            // the stats counters, and the bandwidth profiler — the
            // adaptive planner must keep learning under faulty
            // scheduling too.
            io.account_read(req.shard, take, t0);
            done += take;
        }
        Ok(())
    }

    fn worker(shared: &FaultShared, widx: u64) {
        let mut rng =
            StdRng::seed_from_u64(shared.plan.seed.wrapping_add(widx.wrapping_mul(0x9E37)));
        loop {
            let sub = loop {
                if shared.comp.is_shut_down() {
                    Self::flush_pen(shared, &mut rng, 0);
                    return;
                }
                if let Some(s) = shared.subq.try_pop() {
                    break s;
                }
                // Idle: drain the reorder pen completely so a held
                // completion can never starve a waiting consumer, then
                // sleep briefly for new work.
                Self::flush_pen(shared, &mut rng, 0);
                shared.subq.wait_briefly(Duration::from_micros(500));
            };
            let Submission {
                ticket,
                req,
                mut buf,
                at,
            } = sub;
            let result = Self::faulty_read(shared, &mut rng, &req, &mut buf);
            shared.io.stats.record_complete(at);
            lock(&shared.pen).push(Completion {
                ticket,
                shard: req.shard,
                buf,
                result,
            });
            Self::flush_pen(shared, &mut rng, shared.plan.reorder_window);
        }
    }
}

impl SpillIo for FaultyIo {
    fn submit(&self, req: SpillRequest, buf: Vec<u8>) -> Ticket {
        self.shared.subq.submit(&self.shared.io, req, buf)
    }

    fn complete(&self) -> Option<Completion> {
        self.shared.comp.pop()
    }

    fn shutdown(&self) {
        self.shared.comp.shut_down();
        self.shared.subq.notify_all();
    }

    fn in_flight(&self) -> usize {
        self.shared.io.stats.in_flight.load(Ordering::Relaxed) as usize
    }
}

impl Drop for FaultyIo {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}
