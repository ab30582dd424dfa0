//! Where spilled batches live: the one build-time layout (the `k`-th
//! spilled batch on shard `k % n`), the adaptive planner
//! ([`plan_adaptive`]) and the epoch-boundary migration that applies its
//! plan ([`ShardedSpillStore::rebalance`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::{land, DiskLoc, Entry, ShardedSpillStore, Slot};
use crate::io::{lock, rlock, wlock};

/// Whether spilled batches stay where the build put them. Every build,
/// append and streaming ingest lands its `k`-th spilled batch on shard
/// `k % n` (round-robin striping, which keeps every device busy from the
/// first `n` batches on); the policies differ only in what happens at
/// epoch boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPlacement {
    /// The striped layout for the store's life.
    #[default]
    Stripe,
    /// Bandwidth-profiled adaptive placement: batches start striped,
    /// every physical read charges its observed throughput into the
    /// per-shard EWMA ([`crate::io::BandwidthProfile`]), and at each
    /// epoch boundary (the store's `BatchProvider::end_epoch`, or
    /// [`ShardedSpillStore::rebalance`] directly) the planner re-packs
    /// hot (frequently re-visited) batches onto the shards measured
    /// fastest, migrating by append-and-repoint so in-flight reads of the
    /// old location stay valid. A slow or degrading device sheds its
    /// batches instead of serializing every epoch.
    Adaptive,
}

/// Placement counters for the adaptive planner (exposed through
/// [`PlacementReport`]).
#[derive(Default)]
pub(super) struct PlacementStats {
    /// Rebalance passes that had enough profiler signal to plan.
    rebalances: AtomicU64,
    /// Batches migrated to a different shard.
    migrated_batches: AtomicU64,
    /// Bytes those migrations copied.
    migrated_bytes: AtomicU64,
}

impl ShardedSpillStore {
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
        let plan = plan_adaptive(&sizes, &hot, &bw);
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
            let file = &inner.io.devices[target].file;
            let Ok(landed) = land(&mut append.cursors, target, loc.len, |at| {
                file.write_all_at(&buf, at)
            }) else {
                continue;
            };
            if let Slot::Disk(current) = &entry.slot {
                *wlock(current) = landed;
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

/// The adaptive placement plan: assign every spilled batch to a shard so
/// the estimated epoch completion time is minimized on heterogeneous
/// devices. Batches are ranked hottest first (visit count descending,
/// index ascending for determinism) and greedily placed on the shard with
/// the smallest projected finish time `(assigned_bytes + size) / mbps`
/// (the lowest index on a tie) — LPT scheduling onto machines with
/// speeds, which packs hot bytes onto fast shards in proportion to
/// measured bandwidth. Every batch is assigned exactly once.
///
/// Pure and deterministic: same inputs, same plan. `sizes`, `hotness` and
/// the returned assignment are indexed by spilled-batch id, `mbps` by
/// shard. Non-finite or non-positive speeds are treated as a tiny
/// positive speed so a never-measured shard never divides by zero.
pub fn plan_adaptive(sizes: &[usize], hotness: &[u64], mbps: &[f64]) -> Vec<usize> {
    assert_eq!(sizes.len(), hotness.len(), "one hotness count per batch");
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
        let s = (0..n_shards)
            .min_by(|&a, &b| finish(a).total_cmp(&finish(b)))
            .unwrap();
        load[s] += sz;
        out[i] = s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_adaptive_packs_hot_bytes_onto_fast_shards() {
        // Equal sizes, flat hotness: load splits roughly proportional to
        // measured speed (400 of 500 MB/s → ~80% of batches on shard 0).
        let sizes = vec![10usize; 100];
        let hot = vec![1u64; 100];
        let bw = [400.0, 50.0, 50.0];
        let plan = plan_adaptive(&sizes, &hot, &bw);
        assert_eq!(plan.len(), 100);
        assert!(plan.iter().all(|&s| s < 3));
        let on_fast = plan.iter().filter(|&&s| s == 0).count();
        assert!((70..=90).contains(&on_fast), "{on_fast}");
        // Deterministic: same inputs, same plan.
        assert_eq!(plan, plan_adaptive(&sizes, &hot, &bw));
        // The hottest batch lands on the fastest shard.
        let plan2 = plan_adaptive(&[5; 4], &[0, 0, 9, 0], &[100.0, 1.0]);
        assert_eq!(plan2[2], 0);
        // Degenerate speeds must not divide by zero.
        let _ = plan_adaptive(&[1], &[0], &[0.0]);
    }
}
