//! Multi-tenant serve layer: cache eviction properties, the IoStats
//! accounting the shared cache must keep honest, QoS share semantics,
//! and admission control.

use std::sync::Arc;

use proptest::prelude::*;
use toc_data::serve::{BatchCache, JobServer, JobSpec, ServeConfig, TenantProvider};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{MatrixBatch, Scheme};
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec};
use toc_ml::LossKind;

/// Body of `prop_cache_never_exceeds_budget` (out-of-line: `proptest!`
/// expands bodies recursively and long ones blow the recursion limit).
fn check_budget_invariant(budget: usize, ops: Vec<(usize, usize, u32, bool)>) {
    let cache = BatchCache::new(budget);
    let mut inserted: std::collections::HashMap<usize, Vec<u8>> = std::collections::HashMap::new();
    for (id, size, heat, is_insert) in ops {
        let heat = heat as f64;
        if is_insert {
            let bytes: Vec<u8> = (0..size).map(|b| (b ^ id) as u8).collect();
            // Inserting over a resident id keeps the resident copy (spill
            // bytes are immutable per id), so only a fresh insert updates
            // the mirror.
            let was_resident = cache.contains(id);
            if cache.insert(id, bytes.clone(), heat) && !was_resident {
                inserted.insert(id, bytes);
            }
        } else if let Some(got) = cache.get(id, heat) {
            prop_assert_eq!(
                got.as_slice(),
                inserted[&id].as_slice(),
                "hit returned different bytes than were inserted"
            );
        }
        prop_assert!(
            cache.bytes() <= budget,
            "pool holds {} bytes over budget {budget}",
            cache.bytes()
        );
    }
}

/// Body of `prop_hottest_batches_survive`.
fn check_hottest_survive(k: usize, raw: Vec<u32>, seed: u64) {
    const SIZE: usize = 64;
    let cache = BatchCache::new(k * SIZE);
    // Distinct heats (ties make top-k ambiguous), deterministically
    // shuffled.
    let mut heats: Vec<u32> = raw;
    heats.sort_unstable();
    heats.dedup();
    let mut order = heats.clone();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    for (id, &heat) in order.iter().enumerate() {
        cache.insert(id, vec![0u8; SIZE], heat as f64);
    }
    let survivors: Vec<u32> = order
        .iter()
        .enumerate()
        .filter(|(id, _)| cache.contains(*id))
        .map(|(_, &h)| h)
        .collect();
    let top_k: std::collections::HashSet<u32> = heats.iter().rev().take(k).copied().collect();
    prop_assert_eq!(survivors.len(), heats.len().min(k));
    for h in &survivors {
        prop_assert!(
            top_k.contains(h),
            "heat {h} survived but is not among the {k} hottest of {:?}",
            heats
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of inserts and gets the pool never exceeds
    /// its byte budget, its byte ledger matches the resident entries, and
    /// a hit always returns exactly the bytes that were inserted.
    #[test]
    fn prop_cache_never_exceeds_budget(
        budget in 1usize..4096,
        ops in prop::collection::vec(
            (0usize..32, 1usize..1024, 0u32..1000, any::<bool>()),
            1..80,
        ),
    ) {
        check_budget_invariant(budget, ops);
    }

    /// With equal-size entries and distinct heats, the cache behaves as a
    /// top-k selection: whatever order the inserts arrive in, exactly the
    /// k hottest entries survive.
    #[test]
    fn prop_hottest_batches_survive(
        k in 1usize..8,
        heats in prop::collection::vec(0u32..10_000, 1..24),
        seed in 0u64..1000,
    ) {
        check_hottest_survive(k, heats, seed);
    }
}

/// Pins the tenant-side IoStats accounting: a cold pass over an
/// all-spilled store misses on every visit (each miss = one physical
/// read), a warm pass hits on every visit (no reads at all), and neither
/// path touches the prefetch-pipeline counters. `assert_consistent`
/// holds throughout — a cache hit that performed a read, or a miss that
/// didn't, would break it.
#[test]
fn tenant_cache_accounting_pins_io_invariants() {
    let ds = generate_preset(DatasetPreset::CensusLike, 480, 5);
    let config = StoreConfig::new(Scheme::Toc, 60, 0).with_shards(2);
    let store = Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap());
    let spilled = store.spilled_batches() as u64;
    assert_eq!(spilled, 8);
    let cache = Arc::new(BatchCache::new(usize::MAX));
    let tenant = TenantProvider::new(Arc::clone(&store), Arc::clone(&cache), 1.0);

    let mut rows = 0usize;
    for idx in 0..tenant.num_batches() {
        tenant.visit(idx, &mut |b, y| {
            rows += y.len();
            assert_eq!(b.rows(), y.len());
        });
    }
    let cold = store.stats().snapshot_stable();
    cold.assert_consistent();
    assert_eq!(rows, 480);
    assert_eq!(cold.cache_misses, spilled, "cold pass misses every batch");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.disk_reads, spilled, "each miss pays exactly one read");
    assert_eq!(
        cold.spill_requests, 0,
        "tenants bypass the prefetch pipeline"
    );
    assert_eq!(cold.prefetch_hits + cold.prefetch_misses, 0);

    for idx in 0..tenant.num_batches() {
        tenant.visit(idx, &mut |_, _| {});
    }
    let warm = store.stats().snapshot_stable();
    warm.assert_consistent();
    assert_eq!(warm.cache_hits, spilled, "warm pass hits every batch");
    assert_eq!(warm.cache_misses, spilled, "no new misses");
    assert_eq!(warm.disk_reads, spilled, "hits cost no physical reads");
    assert_eq!(tenant.cache_hits(), spilled);
    assert_eq!(tenant.cache_misses(), spilled);
    assert_eq!(cache.len() as u64, spilled);
}

/// Tenants read stream-appended segments through the same entry table
/// as everything else: over a store with no build-time batches at all, a
/// tenant's cache miss, its cache hit, and a fresh tenant's re-read after
/// the adaptive planner migrated segments all deliver exactly the bytes
/// and labels a plain `store.visit` does.
#[test]
fn tenant_reads_appended_segments_across_cache_and_rebalance() {
    let ds = generate_preset(DatasetPreset::CensusLike, 360, 9);
    let config = StoreConfig::new(Scheme::Den, 60, 0)
        .with_shards(2)
        .with_placement(toc_data::ShardPlacement::Adaptive)
        .with_shard_mbps(vec![2000.0, 10.0]);
    let store = Arc::new(ShardedSpillStore::open_streaming(ds.x.cols(), &config).unwrap());
    for i in 0..6 {
        let (r0, r1) = (i * 60, (i + 1) * 60);
        let bytes = Scheme::Den.encode(&ds.x.slice_rows(r0, r1)).to_bytes();
        store
            .append_sealed(&bytes, ds.labels[r0..r1].to_vec())
            .unwrap();
    }
    let collect = |p: &dyn BatchProvider| -> Vec<(Vec<u8>, Vec<f64>)> {
        (0..p.num_batches())
            .map(|idx| {
                let mut got = None;
                p.visit(idx, &mut |b, y| got = Some((b.to_bytes(), y.to_vec())));
                got.expect("visit must call back")
            })
            .collect()
    };
    let plain = collect(&*store);
    assert_eq!(plain.len(), 6);

    let cache = Arc::new(BatchCache::new(usize::MAX));
    let tenant = TenantProvider::new(Arc::clone(&store), Arc::clone(&cache), 1.0);
    assert_eq!(collect(&tenant), plain, "cache-miss pass");
    assert_eq!((tenant.cache_misses(), tenant.cache_hits()), (6, 0));
    assert_eq!(collect(&tenant), plain, "cache-hit pass");
    assert_eq!((tenant.cache_misses(), tenant.cache_hits()), (6, 6));

    // Both shards are profiled now; the 200x skew must move segments.
    assert!(store.rebalance() >= 1, "{:?}", store.placement_report());
    assert_eq!(
        collect(&tenant),
        plain,
        "resident bytes survive a rebalance"
    );
    let fresh = TenantProvider::new(
        Arc::clone(&store),
        Arc::new(BatchCache::new(usize::MAX)),
        1.0,
    );
    assert_eq!(
        collect(&fresh),
        plain,
        "re-read from the migrated locations"
    );
    assert_eq!(fresh.cache_misses(), 6);
    assert_eq!(collect(&*store), plain);
    store.stats().snapshot_stable().assert_consistent();
}

/// QoS shares are real: with the cache disabled and a slow simulated
/// device, a share-1 tenant racing a share-4 tenant must spend more time
/// throttled — its allowance is a quarter of its rival's.
#[test]
fn qos_low_share_yields_bandwidth() {
    let ds = generate_preset(DatasetPreset::CensusLike, 1200, 5);
    let config = StoreConfig::new(Scheme::Den, 100, 0)
        .with_shards(2)
        .with_disk_mbps(25.0);
    let store = Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap());
    let server = JobServer::new(
        Arc::clone(&store),
        ServeConfig {
            max_concurrent: 2,
            cache_bytes: 0, // every visit is a miss: maximal QoS pressure
        },
    );
    let job = |name: &str, share: f64| {
        JobSpec::new(
            name,
            ModelSpec::Linear(LossKind::Logistic),
            MgdConfig {
                epochs: 5,
                lr: 0.1,
                seed: 1,
                record_curve: false,
                shuffle_batches: true,
            },
        )
        .with_share(share)
    };
    let outcomes = server.run(vec![job("low", 1.0), job("high", 4.0)]);
    store.stats().snapshot_stable().assert_consistent();
    let (low, high) = (&outcomes[0], &outcomes[1]);
    assert!(
        low.qos_wait > high.qos_wait,
        "share-1 tenant waited {:?}, share-4 tenant {:?}",
        low.qos_wait,
        high.qos_wait
    );
    assert!(low.qos_wait.as_nanos() > 0, "low share never throttled");
    // Same seed, shared byte-identical batches: QoS changes pacing only.
    assert_eq!(low.weights, high.weights);
}

/// Admission control: with `max_concurrent = 1`, four jobs run strictly
/// one at a time and the latecomers observably queue.
#[test]
fn admission_gates_concurrency() {
    let ds = generate_preset(DatasetPreset::CensusLike, 300, 5);
    let config = StoreConfig::new(Scheme::Toc, 60, 0).with_shards(2);
    let store = Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap());
    let server = JobServer::new(
        Arc::clone(&store),
        ServeConfig {
            max_concurrent: 1,
            cache_bytes: store.spilled_bytes(),
        },
    );
    let jobs: Vec<JobSpec> = (0..4)
        .map(|i| {
            JobSpec::new(
                format!("q{i}"),
                ModelSpec::Linear(LossKind::Logistic),
                MgdConfig {
                    epochs: 2,
                    lr: 0.1,
                    seed: i,
                    record_curve: false,
                    shuffle_batches: true,
                },
            )
        })
        .collect();
    let outcomes = server.run(jobs);
    assert_eq!(server.peak_concurrency(), 1);
    assert_eq!(outcomes.len(), 4);
    let queued: u128 = outcomes.iter().map(|o| o.queue_wait.as_nanos()).sum();
    assert!(queued > 0, "with a gate of 1, someone must have waited");
}

/// The data-parallel NN path through a tenant provider is deterministic
/// under contention: an NN job racing three linear jobs produces the same
/// weights as the same NN job running alone.
#[test]
fn nn_parallel_job_is_stable_under_contention() {
    let ds = generate_preset(DatasetPreset::CensusLike, 480, 5);
    let config = || StoreConfig::new(Scheme::Toc, 60, 0).with_shards(2);
    let nn_job = || {
        JobSpec::new(
            "nn",
            ModelSpec::NeuralNet {
                hidden: vec![6],
                outputs: 1,
            },
            MgdConfig {
                epochs: 3,
                lr: 0.05,
                seed: 9,
                record_curve: false,
                shuffle_batches: false,
            },
        )
        .with_nn_workers(2)
    };
    let lin_job = |i: u64| {
        JobSpec::new(
            format!("lin{i}"),
            ModelSpec::Linear(LossKind::Logistic),
            MgdConfig {
                epochs: 3,
                lr: 0.2,
                seed: i,
                record_curve: false,
                shuffle_batches: true,
            },
        )
    };

    let solo_store = Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config()).unwrap());
    let solo = JobServer::new(solo_store, ServeConfig::default()).run(vec![nn_job()]);

    let store = Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config()).unwrap());
    let server = JobServer::new(
        Arc::clone(&store),
        ServeConfig {
            max_concurrent: 4,
            cache_bytes: store.spilled_bytes() / 2,
        },
    );
    let outcomes = server.run(vec![nn_job(), lin_job(1), lin_job(2), lin_job(3)]);
    store.stats().snapshot_stable().assert_consistent();
    assert_eq!(
        outcomes[0].weights, solo[0].weights,
        "NN job's weights changed under multi-tenant contention"
    );
}
