//! Deterministic scheduler test harness for the adaptive placement
//! planner and the IO/decode scheduling.
//!
//! The store is given shards with *asymmetric* simulated bandwidth —
//! fast, slow, and degrading device profiles, applied either directly
//! ([`StoreConfig::with_shard_profiles`]) or through the fault-injecting
//! engine double ([`FaultPlan::device_profiles`], which adds seeded
//! latency, chunked short reads, EINTR retries and out-of-order
//! completion release on top). The properties under test:
//!
//! * the runtime bandwidth profiler separates fast from slow shards,
//! * the adaptive planner migrates ≥ 80% of the hot batches onto the
//!   fast shards within two epochs — under clean scheduling *and* under
//!   the fault gauntlet,
//! * a degrading device sheds its batches once its EWMA falls,
//! * and no migration ever changes a single byte of any batch.

use std::sync::atomic::Ordering;
use toc_data::store::{
    IoEngineKind, SchedulerConfig, ShardPlacement, ShardedSpillStore, StoreConfig,
};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_data::testing::FaultPlan;
use toc_data::DeviceProfile;
use toc_formats::{MatrixBatch, Scheme};
use toc_ml::mgd::BatchProvider;

const FAST_MBPS: f64 = 600.0;
const SLOW_MBPS: f64 = 25.0;

fn dataset() -> (toc_linalg::DenseMatrix, Vec<f64>) {
    let ds = generate_preset(DatasetPreset::CensusLike, 600, 21);
    (ds.x, ds.labels)
}

/// Encode the reference batch bytes the store must keep serving bitwise.
fn expected_bytes(x: &toc_linalg::DenseMatrix, scheme: Scheme, batch_rows: usize) -> Vec<Vec<u8>> {
    let n = x.rows().div_ceil(batch_rows);
    (0..n)
        .map(|i| {
            let end = ((i + 1) * batch_rows).min(x.rows());
            scheme.encode(&x.slice_rows(i * batch_rows, end)).to_bytes()
        })
        .collect()
}

/// One epoch: visit every batch, asserting bit-identical bytes, then
/// fire the epoch-boundary feedback (what the trainer does).
fn epoch(store: &ShardedSpillStore, expected: &[Vec<u8>]) {
    #[allow(clippy::needless_range_loop)] // i indexes store and expected in lockstep
    for i in 0..store.num_batches() {
        store.visit(i, &mut |b, _| {
            assert_eq!(b.to_bytes(), expected[i], "batch {i} bytes changed");
        });
    }
    store.end_epoch();
}

/// Fraction of spilled *bytes* currently assigned to the `fast` shards.
fn fraction_on(store: &ShardedSpillStore, fast: &[usize]) -> f64 {
    let bytes = store.placement_report().shard_bytes;
    let on: u64 = fast.iter().map(|&s| bytes[s]).sum();
    on as f64 / bytes.iter().sum::<u64>().max(1) as f64
}

#[test]
fn adaptive_migrates_hot_batches_to_fast_shards_within_two_epochs() {
    let (x, y) = dataset();
    // Shards 0/1 fast, 2/3 slow: the fast tier holds ~96% of the
    // aggregate bandwidth, so the planner must put ≥ 80% of the hot
    // bytes there once it has measured the asymmetry.
    let config = StoreConfig::new(Scheme::Den, 25, 0)
        .with_shards(4)
        .with_placement(ShardPlacement::Adaptive)
        .with_shard_mbps(vec![FAST_MBPS, FAST_MBPS, SLOW_MBPS, SLOW_MBPS]);
    let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
    assert_eq!(store.spilled_batches(), 24);
    let expected = expected_bytes(&x, Scheme::Den, 25);

    // The initial (pack) layout spreads bytes roughly evenly — nowhere
    // near the 80% target yet.
    let before = fraction_on(&store, &[0, 1]);
    assert!(before < 0.8, "initial layout already skewed: {before}");

    for e in 0..2 {
        epoch(&store, &expected);
        let rep = store.placement_report();
        assert!(rep.rebalances >= 1, "epoch {e}: no rebalance ran: {rep:?}");
    }
    let rep = store.placement_report();
    let after = fraction_on(&store, &[0, 1]);
    assert!(
        after >= 0.8,
        "only {:.0}% of hot bytes on fast shards after 2 epochs: {rep:?}",
        after * 100.0
    );
    assert!(rep.migrated_batches >= 1, "{rep:?}");
    // The profiler really measured the asymmetry it acted on.
    assert!(
        rep.shard_ewma_mbps[0] > 2.0 * rep.shard_ewma_mbps[2],
        "profiler failed to separate fast from slow: {rep:?}"
    );
    // One more epoch over the settled layout: everything still serves
    // bit-identically and the placement *stays* on the fast tier. (Moves
    // between the two equally-fast shards can still happen when their
    // EWMAs wander apart by more than the hysteresis — harmless churn,
    // bounded per pass by the spilled count — so the invariant asserted
    // here is the fraction, not zero migrations.)
    epoch(&store, &expected);
    let settled = store.placement_report();
    assert!(fraction_on(&store, &[0, 1]) >= 0.8, "{settled:?}");
    assert!(
        settled.migrated_batches <= rep.migrated_batches + store.spilled_batches() as u64,
        "{settled:?}"
    );
    store.stats().snapshot_stable().assert_consistent();
}

#[test]
fn adaptive_migration_survives_the_fault_gauntlet() {
    let (x, y) = dataset();
    // Same asymmetry, but the profiles ride the FaultyIo double: seeded
    // latency, chunked short reads, EINTR retry spins and out-of-order
    // completion release all stand between the profiler and the truth.
    // Chunking splits every request into 2–4 partial reads, so the
    // per-observation payload shrinks and real syscall overhead eats into
    // the signal — Den batches (4.2 KB) over a 10 MB/s slow tier keep
    // the simulated delay dominant in both debug and release builds.
    let slow = 10.0;
    let plan = FaultPlan {
        seed: 0x5EED_CAFE,
        max_latency_us: 150,
        chunked_reads: true,
        eintr_per_mille: 300,
        reorder_window: 3,
        device_profiles: vec![
            DeviceProfile::stable(FAST_MBPS),
            DeviceProfile::stable(FAST_MBPS),
            DeviceProfile::stable(slow),
            DeviceProfile::stable(slow),
        ],
        ..FaultPlan::default()
    };
    let fault_stats = plan.stats.clone();
    let config = StoreConfig::new(Scheme::Den, 25, 0)
        .with_shards(4)
        .with_prefetch(3)
        .with_placement(ShardPlacement::Adaptive)
        .with_fault_plan(plan);
    let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
    assert_eq!(store.spilled_batches(), 24);
    let expected = expected_bytes(&x, Scheme::Den, 25);

    for _ in 0..2 {
        epoch(&store, &expected);
    }
    let rep = store.placement_report();
    let after = fraction_on(&store, &[0, 1]);
    assert!(
        after >= 0.8,
        "under faults only {:.0}% of hot bytes on fast shards: {rep:?}",
        after * 100.0
    );
    // A full extra epoch after migration: bytes still bit-identical
    // through the faulty pipeline, and the accounting invariant holds.
    epoch(&store, &expected);
    let s = store.stats().snapshot_stable();
    s.assert_consistent();
    assert_eq!(s.spill_requests, 3 * 24);
    // The gauntlet actually fired.
    assert!(fault_stats.chunked_requests.load(Ordering::Relaxed) >= 1);
    assert!(fault_stats.delayed_us.load(Ordering::Relaxed) >= 1);
}

#[test]
fn degrading_shard_sheds_batches_as_its_ewma_falls() {
    let (x, y) = dataset();
    // Shard 0 starts fastest but loses 25% of its remaining bandwidth on
    // every read; shard 1 is stable and modest. After a couple of epochs
    // the planner must reverse its initial preference and move batches
    // *off* the degrading device.
    let config = StoreConfig::new(Scheme::Den, 25, 0)
        .with_shards(2)
        .with_placement(ShardPlacement::Adaptive)
        .with_shard_profiles(vec![
            DeviceProfile::degrading(800.0, 0.25),
            DeviceProfile::stable(120.0),
        ]);
    let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
    let expected = expected_bytes(&x, Scheme::Den, 25);

    // Epoch 1 measures shard 0 while it is still fast-ish; by the end of
    // epoch 2 twelve-plus reads have decayed it far below shard 1
    // (0.75^12 ≈ 0.03 of 800 ≈ 25 MB/s).
    for _ in 0..3 {
        epoch(&store, &expected);
    }
    let rep = store.placement_report();
    assert!(
        rep.shard_ewma_mbps[0] < rep.shard_ewma_mbps[1],
        "profiler never noticed the degradation: {rep:?}"
    );
    assert!(
        rep.shard_bytes[0] < rep.shard_bytes[1],
        "planner kept hot bytes on the degrading shard: {rep:?}"
    );
    assert!(rep.migrated_batches >= 1, "{rep:?}");
    // Bytes still intact after shedding.
    epoch(&store, &expected);
}

#[test]
fn pinned_scheduler_serves_adaptive_store_bit_identically() {
    let (x, y) = dataset();
    // Full stack: adaptive placement + asymmetric shards + ring engine
    // with explicit thread counts (two shards per IO thread, more decode
    // workers than IO threads). Everything must still be bitwise right
    // after two epochs of migration.
    let config = StoreConfig::new(Scheme::Toc, 25, 0)
        .with_shards(4)
        .with_prefetch(4)
        .with_io(IoEngineKind::Ring)
        .with_placement(ShardPlacement::Adaptive)
        .with_shard_mbps(vec![FAST_MBPS, FAST_MBPS, SLOW_MBPS, SLOW_MBPS])
        .with_scheduler(SchedulerConfig {
            io_threads: 2,
            decode_workers: 3,
            ..SchedulerConfig::default()
        });
    let store = ShardedSpillStore::build(&x, &y, &config).unwrap();
    let expected = expected_bytes(&x, Scheme::Toc, 25);
    for _ in 0..3 {
        epoch(&store, &expected);
    }
    let rep = store.placement_report();
    assert_eq!(rep.io_threads, 2);
    assert_eq!(rep.decode_workers, 3);
    assert!(fraction_on(&store, &[0, 1]) >= 0.8, "{rep:?}");
    let s = store.stats().snapshot_stable();
    s.assert_consistent();
    assert!(s.submitted >= 1, "ring engine never used: {s:?}");
}
