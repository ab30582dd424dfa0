//! Property tests for the out-of-core path: arbitrary (scheme ×
//! batch_rows × budget × shards × prefetch × io engine) configurations
//! round-trip through spill with decode-equality against the source
//! matrix, for both the single-shard and the sharded layout — plus the
//! placement law: a build stripes its `k`-th spilled batch onto shard
//! `k % n`.

use proptest::prelude::*;
use toc_data::store::{IoEngineKind, ShardedSpillStore, StoreConfig};
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

    /// Build-time placement is online: the `k`-th spilled batch lands on
    /// shard `k % n`, whatever the sizes, so a build
    /// of a prefix lays the prefix out as the whole build does, shards
    /// come into use in order (a build creates shard file `s` when its
    /// first batch lands), and from one batch per shard on no configured
    /// shard is empty (so every device gets profiler observations in
    /// epoch one).
    #[test]
    fn build_time_placement_is_online(
        n in 1usize..150,
        prefix in 1usize..150,
        n_shards in 1usize..6,
    ) {
        let ds = generate_preset(DatasetPreset::CensusLike, n, 17);
        // One-row CSR batches: sizes differ batch to batch.
        let sizes: Vec<u64> = (0..n)
            .map(|r| Scheme::Csr.encode(&ds.x.slice_rows(r, r + 1)).to_bytes().len() as u64)
            .collect();
        let striped = |k: usize| -> Vec<u64> {
            let mut per_shard = vec![0u64; k.min(n_shards)];
            for (i, &size) in sizes[..k].iter().enumerate() {
                per_shard[i % n_shards] += size;
            }
            per_shard
        };
        let prefix = prefix.min(n);
        for k in [prefix, n] {
            let config = StoreConfig::new(Scheme::Csr, 1, 0).with_shards(n_shards);
            let store = ShardedSpillStore::build(
                &ds.x.slice_rows(0, k),
                &ds.labels[..k],
                &config,
            )
            .unwrap();
            prop_assert_eq!(store.spilled_batches(), k);
            prop_assert_eq!(store.shard_bytes(), striped(k), "{} batches", k);
        }
    }
}
