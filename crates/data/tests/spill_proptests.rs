//! Property tests for the out-of-core path: arbitrary (scheme ×
//! batch_rows × budget × shards × prefetch × io engine) configurations
//! round-trip through spill with decode-equality against the source
//! matrix, for both the single-shard and the sharded layout — plus the
//! placement laws: the build-time rule (stripe/pack/adaptive) places a
//! batch from its position alone, and the runtime adaptive planner must
//! cover every batch exactly once, stay inside the shard range, respect
//! capacity when feasible and be a deterministic function of its inputs.

use proptest::prelude::*;
use toc_data::store::{
    plan_adaptive, IoEngineKind, ShardPlacement, ShardedSpillStore, StoreConfig, PACK_RUN,
};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

/// Visit every batch twice (the second pass exercises the re-read path)
/// and assert exact decode- and label-equality with the source.
fn assert_roundtrip(
    provider: &dyn BatchProvider,
    x: &DenseMatrix,
    labels: &[f64],
    batch_rows: usize,
) {
    for _epoch in 0..2 {
        for i in 0..provider.num_batches() {
            let start = i * batch_rows;
            let end = (start + batch_rows).min(x.rows());
            provider.visit(i, &mut |b, y| {
                assert_eq!(b.decode(), x.slice_rows(start, end), "batch {i}");
                assert_eq!(y, &labels[start..end], "labels {i}");
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spilled_batches_roundtrip(
        scheme_idx in 0usize..Scheme::PAPER_SET.len(),
        rows in 60usize..240,
        batch_rows in 1usize..97,
        budget_pct in 0usize..=120,
        shards in 1usize..5,
        prefetch in 0usize..4,
        io_idx in 0usize..2,
    ) {
        let scheme = Scheme::PAPER_SET[scheme_idx];
        let io = [IoEngineKind::Sync, IoEngineKind::Ring][io_idx];
        let ds = generate_preset(DatasetPreset::CensusLike, rows, 17);
        let n_batches = rows.div_ceil(batch_rows);

        // Scale the budget off the true footprint so every case exercises
        // a meaningful memory/disk split (0% = all spilled, >100% = none).
        let probe = ShardedSpillStore::build(
            &ds.x,
            &ds.labels,
            &StoreConfig::new(scheme, batch_rows, usize::MAX),
        )
        .unwrap();
        let budget = probe.total_bytes() * budget_pct / 100;

        // The split the budget rule dictates, by arithmetic over the
        // batch sizes: a batch stays resident while it fits in what is
        // left of the budget, anything beyond spills in serialized form.
        let (mut want_memory, mut want_spilled_bytes, mut want_spilled) = (0usize, 0usize, 0usize);
        for i in 0..probe.num_batches() {
            probe.visit(i, &mut |b, _| {
                if want_memory + b.size_bytes() <= budget {
                    want_memory += b.size_bytes();
                } else {
                    want_spilled_bytes += b.to_bytes().len();
                    want_spilled += 1;
                }
            });
        }

        let config = StoreConfig::new(scheme, batch_rows, budget)
            .with_shards(shards)
            .with_prefetch(prefetch)
            .with_io(io);
        let flat = ShardedSpillStore::build(
            &ds.x,
            &ds.labels,
            &StoreConfig::new(scheme, batch_rows, budget).with_shards(1),
        )
        .unwrap();
        let sharded = ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();

        prop_assert_eq!(flat.num_batches(), n_batches);
        prop_assert_eq!(sharded.num_batches(), n_batches);
        // Every layout makes the memory/disk split the budget dictates.
        for store in [&flat, &sharded] {
            prop_assert_eq!(store.spilled_batches(), want_spilled);
            prop_assert_eq!(store.memory_bytes(), want_memory);
            prop_assert_eq!(store.spilled_bytes(), want_spilled_bytes);
        }
        if budget_pct == 0 {
            prop_assert_eq!(flat.spilled_batches(), n_batches);
        }

        assert_roundtrip(&flat, &ds.x, &ds.labels, batch_rows);
        assert_roundtrip(&sharded, &ds.x, &ds.labels, batch_rows);

        // IO totals are exact: two sweeps read every spilled byte twice
        // (plus whatever the prefetcher read ahead but nobody consumed).
        let spilled_visits = 2 * flat.spilled_batches() as u64;
        let snap = flat.stats().snapshot();
        prop_assert_eq!(snap.disk_reads, spilled_visits);
        prop_assert_eq!(snap.bytes_read, 2 * flat.spilled_bytes() as u64);
        let snap = sharded.stats().snapshot_stable();
        snap.assert_consistent();
        prop_assert_eq!(snap.spill_requests,
                        if prefetch > 0 { spilled_visits } else { 0 });
        prop_assert_eq!(snap.prefetch_hits + snap.prefetch_misses,
                        if prefetch > 0 { spilled_visits } else { 0 });
        // Every spilled visit consumed one physical read or rode along a
        // coalesced one (the ring engine may merge adjacent reads).
        prop_assert!(snap.disk_reads + snap.coalesced_reads >= spilled_visits);
    }

    /// Build-time placement is online: the shard of the `k`-th spilled
    /// batch depends on `k` alone, so placing a prefix and then more is
    /// placing all at once, whatever the sizes. Every policy stays in
    /// range, is deterministic and brings shards into use in order (what
    /// lets a build create shard file `s` when its first batch lands),
    /// and from one batch per shard on no configured shard is empty (the
    /// stores rely on this so every device gets profiler observations in
    /// epoch one); past that first round, pack-style runs are `PACK_RUN`
    /// consecutive batches on one shard (file-adjacent, a shard file being
    /// append-only).
    #[test]
    fn build_time_placement_is_online(
        n in 1usize..150,
        prefix in 0usize..150,
        n_shards in 1usize..6,
    ) {
        for placement in [
            ShardPlacement::Stripe,
            ShardPlacement::Pack,
            ShardPlacement::Adaptive,
        ] {
            let place = |n: usize| -> Vec<usize> {
                (0..n).map(|k| placement.shard_of(k, n_shards)).collect()
            };
            let plan = place(n);
            prop_assert!(plan.iter().all(|&s| s < n_shards), "{}: {:?}", placement, plan);
            let prefix = prefix.min(n);
            prop_assert_eq!(&plan[..prefix], &place(prefix)[..], "{}", placement);
            let mut in_use = 0;
            for &s in &plan {
                prop_assert!(s <= in_use, "{}: shard {} skipped: {:?}", placement, in_use, plan);
                in_use = in_use.max(s + 1);
            }
            prop_assert_eq!(in_use, n.min(n_shards), "{}: {:?}", placement, plan);
            if placement != ShardPlacement::Stripe && n_shards > 1 {
                for k in n_shards + 1..n {
                    prop_assert_eq!(
                        plan[k] == plan[k - 1], (k - n_shards) % PACK_RUN != 0,
                        "{}: run boundary at {}: {:?}", placement, k, plan
                    );
                }
            }
        }
    }

    /// The runtime adaptive planner: covers every batch exactly once,
    /// never leaves the shard range, respects byte capacities whenever
    /// the instance is feasible, is deterministic, and sends more bytes
    /// to a strictly faster shard than to a strictly slower one on
    /// uniform workloads.
    #[test]
    fn adaptive_plans_cover_respect_capacity_and_are_deterministic(
        sizes in prop::collection::vec(1usize..4000, 1..150),
        shard_seed in prop::collection::vec((1u64..2000, 0u64..40), 1..6),
        headroom in 1usize..4,
    ) {
        let n_shards = shard_seed.len();
        let mbps: Vec<f64> = shard_seed.iter().map(|&(m, _)| m as f64).collect();
        let hotness: Vec<u64> = sizes.iter().enumerate().map(|(i, _)| (i as u64 * 7) % 13).collect();
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        let max_size = sizes.iter().copied().max().unwrap_or(0) as u64;
        // Feasible capacities: an even split plus the largest batch of
        // headroom per shard always admits a full assignment.
        let capacity: Vec<u64> = (0..n_shards)
            .map(|_| total.div_ceil(n_shards as u64) + headroom as u64 * max_size)
            .collect();
        let plan = plan_adaptive(&sizes, &hotness, &mbps, &capacity);
        prop_assert_eq!(plan.len(), sizes.len());
        prop_assert!(plan.iter().all(|&s| s < n_shards));
        // Capacity respected on this feasible instance.
        let mut load = vec![0u64; n_shards];
        for (&s, &sz) in plan.iter().zip(&sizes) {
            load[s] += sz as u64;
        }
        for s in 0..n_shards {
            prop_assert!(load[s] <= capacity[s], "shard {} over capacity: {} > {}", s, load[s], capacity[s]);
        }
        // Deterministic.
        prop_assert_eq!(&plan, &plan_adaptive(&sizes, &hotness, &mbps, &capacity));
        // Monotone in speed (uniform batches, unconstrained): a shard
        // measured at >=4x another's bandwidth must carry at least as
        // many bytes.
        if sizes.len() >= 8 {
            let uniform = vec![64usize; sizes.len()];
            let flat = vec![1u64; sizes.len()];
            let open = vec![u64::MAX; n_shards];
            let plan_u = plan_adaptive(&uniform, &flat, &mbps, &open);
            let mut load_u = vec![0u64; n_shards];
            for &s in &plan_u {
                load_u[s] += 64;
            }
            for a in 0..n_shards {
                for b in 0..n_shards {
                    if mbps[a] >= 4.0 * mbps[b] {
                        prop_assert!(
                            load_u[a] >= load_u[b],
                            "shard {} ({} MB/s) carries {} < shard {} ({} MB/s) with {}",
                            a, mbps[a], load_u[a], b, mbps[b], load_u[b]
                        );
                    }
                }
            }
        }
    }
}
