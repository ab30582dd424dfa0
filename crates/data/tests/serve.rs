//! Multi-tenant serve layer: fill-once cache properties, the IoStats
//! accounting the shared cache must keep honest, QoS share semantics,
//! and admission control.

use std::sync::Arc;

use proptest::prelude::*;
use toc_data::serve::{BatchCache, JobServer, JobSpec, ServeConfig, TenantProvider};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{MatrixBatch, Scheme};
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

/// Body of `prop_cache_never_exceeds_budget` (out-of-line: `proptest!`
/// expands bodies recursively and long ones blow the recursion limit).
fn check_budget_invariant(budget: usize, ops: Vec<(usize, usize, bool)>) {
    let cache = BatchCache::new(budget);
    let mut inserted: std::collections::HashMap<usize, Vec<u8>> = std::collections::HashMap::new();
    for (id, size, is_insert) in ops {
        if is_insert {
            let bytes: Vec<u8> = (0..size).map(|b| (b ^ id) as u8).collect();
            // Inserting over a resident id keeps the resident copy (spill
            // bytes are immutable per id), so only a fresh insert updates
            // the mirror.
            let was_resident = cache.contains(id);
            if cache.insert(id, bytes.clone()) && !was_resident {
                inserted.insert(id, bytes);
            }
        } else if let Some(got) = cache.get(id) {
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

/// Body of `prop_fill_once_pool_keeps_what_fit`: the pool is checked
/// against a model that keeps every insert fitting in what the budget
/// has left and refuses every other.
fn check_fill_once(budget: usize, ops: Vec<(usize, usize, bool)>) {
    let cache = BatchCache::new(budget);
    let mut model: std::collections::HashMap<usize, Vec<u8>> = std::collections::HashMap::new();
    let mut model_bytes = 0usize;
    for (id, size, is_insert) in ops {
        if is_insert {
            let bytes: Vec<u8> = (0..size).map(|b| (b * 7 + id) as u8).collect();
            // A re-offer of a resident batch keeps the resident copy.
            let refused = !model.contains_key(&id) && model_bytes + size > budget;
            let rejected = cache.rejected();
            let resident = cache.insert(id, bytes.clone());
            prop_assert_eq!(resident, !refused, "insert({}, {} B)", id, size);
            prop_assert_eq!(cache.rejected(), rejected + u64::from(refused));
            if refused {
                prop_assert!(!cache.contains(id));
            } else if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(id) {
                model_bytes += size;
                slot.insert(bytes);
            }
        } else {
            let got = cache.get(id);
            prop_assert_eq!(got.as_deref(), model.get(&id), "get({}) disagrees", id);
        }
        // Once resident, always resident with the same bytes; nothing
        // else is.
        prop_assert_eq!(cache.len(), model.len());
        prop_assert_eq!(cache.bytes(), model_bytes);
        for (id, bytes) in &model {
            prop_assert_eq!(
                cache.get(*id).as_deref(),
                Some(bytes),
                "batch {} changed",
                id
            );
        }
        prop_assert_eq!(cache.evictions(), 0);
    }
    prop_assert_eq!(cache.insertions(), model.len() as u64);
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
            (0usize..32, 1usize..1024, any::<bool>()),
            1..80,
        ),
    ) {
        check_budget_invariant(budget, ops);
    }

    /// Under any sequence of inserts and gets the pool is fill-once: an
    /// entry, once resident, stays resident with the same bytes; an
    /// insert that does not fit is refused, counts in `rejected()` and
    /// leaves the pool unchanged; and nothing is ever evicted.
    #[test]
    fn prop_fill_once_pool_keeps_what_fit(
        budget in 1usize..4096,
        ops in prop::collection::vec(
            (0usize..32, 1usize..1024, any::<bool>()),
            1..80,
        ),
    ) {
        check_fill_once(budget, ops);
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
/// tenant's cache miss, its cache hit, and a fresh tenant's re-read all
/// deliver exactly the bytes and labels a plain `store.visit` does.
#[test]
fn tenant_reads_appended_segments_across_cache() {
    let ds = generate_preset(DatasetPreset::CensusLike, 360, 9);
    let config = StoreConfig::new(Scheme::Den, 60, 0)
        .with_shards(2)
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

    let fresh = TenantProvider::new(
        Arc::clone(&store),
        Arc::new(BatchCache::new(usize::MAX)),
        1.0,
    );
    assert_eq!(collect(&fresh), plain, "re-read off the shards");
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

/// An NN job through a tenant provider is deterministic under
/// contention: an NN job racing three linear jobs produces the same
/// weights as the same NN job running alone.
#[test]
fn nn_job_is_stable_under_contention() {
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

/// What a job's thread panicked with, when it is text.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<String>().cloned();
    text.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// One of eight tenants panics: tenant 3's eval set is one column too
/// narrow, so its first curve point panics at the end of its first
/// epoch. `run_each` hands that panic back as tenant 3's own `Err` and
/// every other tenant trains exactly its solo run; all eight were
/// admitted at once. `run` over the same jobs raises the panic once
/// every job is done, and the server runs later jobs as if nothing
/// happened.
#[test]
fn one_panicking_tenant_fails_only_its_own_job() {
    let ds = generate_preset(DatasetPreset::CensusLike, 480, 13);
    let config = || StoreConfig::new(Scheme::Toc, 60, 0).with_shards(3);
    let eval = Scheme::Den.encode(&ds.x);
    let narrow = Scheme::Den.encode(&toc_linalg::DenseMatrix::zeros(4, ds.x.cols() - 1));
    let job = |i: usize| {
        let spec = JobSpec::new(
            format!("tenant{i}"),
            ModelSpec::Linear(LossKind::Logistic),
            MgdConfig {
                epochs: 3,
                lr: 0.25,
                seed: 42 + 7 * i as u64,
                record_curve: true,
                shuffle_batches: true,
            },
        );
        match i {
            3 => spec.with_eval(narrow.clone(), vec![1.0; 4]),
            _ => spec.with_eval(eval.clone(), ds.labels.clone()),
        }
    };
    let jobs = || (0..8).map(job).collect::<Vec<_>>();

    let store = Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config()).unwrap());
    assert_eq!(store.spilled_batches(), 8);
    let server = JobServer::new(
        Arc::clone(&store),
        ServeConfig {
            max_concurrent: 8,
            cache_bytes: store.spilled_bytes() / 2,
        },
    );
    let results = server.run_each(jobs());
    assert_eq!(results.len(), 8);
    assert_eq!(server.peak_concurrency(), 8);
    store.stats().snapshot_stable().assert_consistent();

    let mut message = String::new();
    for (i, result) in results.into_iter().enumerate() {
        let spec = job(i);
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(payload) => {
                assert_eq!(i, 3, "tenant{i} panicked");
                message = panic_text(&*payload);
                continue;
            }
        };
        assert_ne!(i, 3, "tenant3 trained on an eval set of the wrong width");
        assert_eq!(outcome.name, spec.name);
        let solo_store = ShardedSpillStore::build(&ds.x, &ds.labels, &config()).unwrap();
        let eval = spec.eval.as_ref().map(|(b, y)| (b, y.as_slice()));
        let report = Trainer::new(spec.config.clone()).train(&spec.model, &solo_store, eval);
        assert_eq!(outcome.weights, report.model.weights(), "{}", spec.name);
        let solo_curve: Vec<f64> = report.curve.iter().map(|p| p.error_rate).collect();
        assert_eq!(outcome.curve, solo_curve, "{}", spec.name);
    }
    // The model's width against the eval set's.
    let (model, narrow) = (ds.x.cols(), ds.x.cols() - 1);
    assert!(
        message.contains("dimension mismatch")
            && message.contains(&format!("left: {model}"))
            && message.contains(&format!("right: {narrow}")),
        "tenant3's payload names the width mismatch: {message:?}"
    );

    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.run(jobs())));
    let payload = run.expect_err("run raises tenant3's panic");
    assert_eq!(panic_text(&*payload), message);

    let later = server.run(vec![job(0), job(1)]);
    assert_eq!(later.len(), 2);
    assert!(later.iter().all(|o| o.curve.len() == 3));
}
