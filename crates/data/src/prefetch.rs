//! The prefetch pipeline of [`crate::store::ShardedSpillStore`]: keeps
//! the spilled batches the visitors are about to ask for decoded, or at
//! least on their way.
//!
//! There is one pipeline, whichever [`SpillIo`] engine reads the bytes
//! (`crate::io`): every spilled visit first submits the lookahead window
//! after its own index to the engine ([`submit_lookahead`]), decode
//! workers harvest the engine's completions and park the parsed batches,
//! and the visitor takes its batch from there — a hit, whether it was
//! already decoded or still in flight. What differs between engines is
//! only where the read happens: on the ring's IO threads, or, with the
//! inline engine, on the decode worker inside `complete`. Build-time
//! spilled entries are the lookahead's orbit; segments appended to a live
//! store stay outside it (a cyclic orbit over a growing table is a
//! behaviour to design, not a fork to fold) and tenant reads bypass it
//! (the shared cache wants encoded bytes, this pipeline hands out decoded
//! batches).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use toc_formats::{AnyBatch, Scheme};

use crate::io::{lock, rlock, wait, SpillIo, SpillRequest, Ticket, MAX_IO_THREADS};
use crate::store::{DiskLoc, Inner};

pub(crate) const MAX_PREFETCH_WORKERS: usize = 8;

#[derive(Default)]
struct PrefetchState {
    /// Indices the pipeline owns right now — queued on the engine, being
    /// read, or decoding — and the ticket each was submitted under.
    pending: HashMap<usize, Ticket>,
    /// Engine ticket → entry index, for routing completions.
    tickets: HashMap<Ticket, usize>,
    /// Submitted-but-not-completed requests per shard (the per-shard
    /// cap of `depth`).
    in_flight_shard: Vec<usize>,
    /// Recycled read buffers; submission pops, decode pushes back, so
    /// steady-state prefetching allocates only decoded batches.
    buf_pool: Vec<Vec<u8>>,
    /// Decoded batches awaiting their visitor.
    ready: HashMap<usize, AnyBatch>,
}

impl PrefetchState {
    /// Stop tracking request `ticket`, completed or taken back: returns
    /// the index it was for and recycles its buffer (the pool is bounded
    /// so a burst can't hoard memory forever).
    fn retire(
        &mut self,
        ticket: Ticket,
        shard: usize,
        buf: Vec<u8>,
        depth: usize,
    ) -> Option<usize> {
        let idx = self.tickets.remove(&ticket)?;
        self.pending.remove(&idx);
        self.in_flight_shard[shard] -= 1;
        if self.buf_pool.len() < 2 * depth + MAX_IO_THREADS {
            self.buf_pool.push(buf);
        }
        Some(idx)
    }
}

struct PrefetchShared {
    state: Mutex<PrefetchState>,
    /// Wakes visitors blocked on an in-flight slot.
    done: Condvar,
}

/// Background decode pipeline over one [`SpillIo`] engine. Submission
/// happens at schedule time — the visitor's lookahead submits straight
/// to the engine, keeping up to `depth` requests outstanding per shard —
/// and the workers harvest completions and decode. Backpressure caps
/// owned-but-unconsumed slots at `2 × depth`.
pub(crate) struct Prefetcher {
    shared: Arc<PrefetchShared>,
    engine: Arc<dyn SpillIo>,
    depth: usize,
    workers: Vec<JoinHandle<()>>,
}

/// Submit the next spilled indices after `after` (cyclically, so the
/// pipeline stays warm across epoch boundaries) to the engine, honoring
/// the global `2 × depth` backpressure window and the per-shard cap of
/// `depth`.
fn submit_lookahead(
    inner: &Inner,
    engine: &dyn SpillIo,
    st: &mut PrefetchState,
    after: Option<usize>,
    depth: usize,
) {
    let order = &inner.spilled_order;
    if order.is_empty() {
        return;
    }
    // One table read lock for the whole walk, not one per candidate.
    let entries = rlock(&inner.entries);
    let start = match after {
        Some(idx) => order.partition_point(|&i| i <= idx),
        None => 0,
    };
    // Early-exit bookkeeping: once every shard is at its cap no later
    // candidate can submit either, so the walk must stop instead of
    // scanning the whole spilled order under the state lock.
    let mut open_shards = st.in_flight_shard.iter().filter(|&&n| n < depth).count();
    for k in 0..order.len() {
        if open_shards == 0 || st.pending.len() + st.ready.len() >= 2 * depth {
            break;
        }
        let i = order[(start + k) % order.len()];
        if st.pending.contains_key(&i) || st.ready.contains_key(&i) {
            continue;
        }
        let loc = entries[i]
            .loc()
            .expect("spilled_order holds a memory entry");
        if st.in_flight_shard[loc.shard] >= depth {
            continue;
        }
        let buf = st.buf_pool.pop().unwrap_or_default();
        let ticket = engine.submit(
            SpillRequest {
                shard: loc.shard,
                offset: loc.offset,
                len: loc.len,
            },
            buf,
        );
        st.tickets.insert(ticket, i);
        st.pending.insert(i, ticket);
        st.in_flight_shard[loc.shard] += 1;
        if st.in_flight_shard[loc.shard] >= depth {
            open_shards -= 1;
        }
    }
}

impl Prefetcher {
    pub(crate) fn start(
        inner: &Inner,
        depth: usize,
        engine: Arc<dyn SpillIo>,
        decode_workers: usize,
    ) -> Self {
        let shared = Arc::new(PrefetchShared {
            state: Mutex::new(PrefetchState {
                in_flight_shard: vec![0; inner.io.devices.len()],
                ..PrefetchState::default()
            }),
            done: Condvar::new(),
        });
        // Seed the pipeline with the first spilled indices so the very
        // first epoch already overlaps IO with compute.
        submit_lookahead(
            inner,
            engine.as_ref(),
            &mut lock(&shared.state),
            None,
            depth,
        );
        let workers = (0..decode_workers.clamp(1, MAX_PREFETCH_WORKERS))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || Self::worker_loop(&shared, engine.as_ref(), depth))
            })
            .collect();
        Self {
            shared,
            engine,
            depth,
            workers,
        }
    }

    /// Harvest engine completions and decode them, outside the lock. A
    /// failed read or parse (truncated shard, corrupt bytes), panicking
    /// or not, leaves no batch behind: the index must leave `pending`
    /// either way, or a visitor waiting on it would hang forever, and
    /// once it is no longer tracked the visitor falls through to the
    /// synchronous path and surfaces the underlying error itself.
    fn worker_loop(shared: &PrefetchShared, engine: &dyn SpillIo, depth: usize) {
        while let Some(c) = engine.complete() {
            let batch = match &c.result {
                Ok(()) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Scheme::from_bytes(&c.buf)
                }))
                .ok()
                .and_then(|r| r.ok()),
                Err(_) => None,
            };
            let mut st = lock(&shared.state);
            if let (Some(idx), Some(b)) = (st.retire(c.ticket, c.shard, c.buf, depth), batch) {
                st.ready.insert(idx, b);
            }
            drop(st);
            shared.done.notify_all();
        }
    }

    /// Materialize the spilled batch `idx`, currently at `loc`, for a
    /// visitor.
    pub(crate) fn fetch(&self, inner: &Inner, idx: usize, loc: DiskLoc) -> AnyBatch {
        let stats = &inner.io.stats;
        stats.spill_requests.fetch_add(1, Ordering::Relaxed);
        let mut st = lock(&self.shared.state);
        // Submit the lookahead window first so the pipeline overlaps the
        // next batches with whatever this visit does.
        submit_lookahead(inner, self.engine.as_ref(), &mut st, Some(idx), self.depth);
        // Our own request may sit in the engine behind reads no worker
        // has got to yet: take it back and read it here instead of
        // waiting for every worker ahead of us (a miss; without this a
        // sweep by more visitors than workers runs at the workers' pace).
        if let Some(&ticket) = st.pending.get(&idx) {
            if let Some((req, buf)) = self.engine.try_cancel(ticket) {
                st.retire(ticket, req.shard, buf, self.depth);
            }
        }
        loop {
            if let Some(b) = st.ready.remove(&idx) {
                drop(st);
                stats.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                return b;
            }
            if !st.pending.contains_key(&idx) {
                break;
            }
            // In flight: the IO overlaps our wait, still a hit.
            st = wait(&self.shared.done, st);
        }
        drop(st);
        stats.prefetch_misses.fetch_add(1, Ordering::Relaxed);
        inner.read_disk_sync(loc)
    }

    /// Whether batch `idx` is decoded and waiting for its visitor.
    #[cfg(test)]
    pub(crate) fn is_ready(&self, idx: usize) -> bool {
        lock(&self.shared.state).ready.contains_key(&idx)
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Wakes the workers blocked in complete(); queued submissions
        // are dropped.
        self.engine.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The engine itself (and any IO threads of its own) drops with
        // `self.engine`, after every worker has exited.
    }
}
