//! End-to-end determinism: the same seed must produce a **bit-identical**
//! training run regardless of where the batches physically live or which
//! IO path serves them. Seven store configurations — in-memory, single
//! spill file, sharded, sharded+sync-prefetch, async ring, and asymmetric
//! shards on a ring with more decode workers than IO threads and on one
//! with a single IO thread — feed the identical batch stream, so the
//! final weights *and* the per-epoch error trajectory must agree with
//! `==`, not a tolerance.

use toc_data::store::{IoEngineKind, SchedulerConfig, ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::Scheme;
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

struct Run {
    name: &'static str,
    weights: Vec<f64>,
    curve: Vec<f64>,
}

fn train(
    name: &'static str,
    provider: &dyn BatchProvider,
    eval: (&toc_formats::AnyBatch, &[f64]),
) -> Run {
    let trainer = Trainer::new(MgdConfig {
        epochs: 6,
        lr: 0.25,
        record_curve: true,
        shuffle_batches: true, // per-epoch random visit order must also agree
        ..Default::default()
    });
    let report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), provider, Some(eval));
    Run {
        name,
        weights: report.model.weights(),
        curve: report.curve.iter().map(|p| p.error_rate).collect(),
    }
}

#[test]
fn loss_trajectory_is_bit_identical_across_store_configs() {
    let ds = generate_preset(DatasetPreset::CensusLike, 480, 13);
    let scheme = Scheme::Toc;
    let batch_rows = 60;
    let eval_batch = Scheme::Den.encode(&ds.x);
    let eval = (&eval_batch, ds.labels.as_slice());

    let mut runs: Vec<Run> = Vec::new();

    // (1) In-memory reference.
    {
        let provider = toc_ml::mgd::MemoryProvider {
            batches: (0..8)
                .map(|i| {
                    (
                        scheme.encode(&ds.x.slice_rows(i * batch_rows, (i + 1) * batch_rows)),
                        ds.labels[i * batch_rows..(i + 1) * batch_rows].to_vec(),
                    )
                })
                .collect(),
            features: ds.x.cols(),
        };
        runs.push(train("in-memory", &provider, eval));
    }

    // (2) Single spill file, everything on disk.
    {
        let config = StoreConfig::new(scheme, batch_rows, 0).with_shards(1);
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();
        assert_eq!(store.spilled_batches(), 8);
        runs.push(train("single-file", &store, eval));
    }

    // (3)–(7) Sharded variants.
    let sharded_configs: [(&'static str, StoreConfig); 5] = [
        (
            "sharded",
            StoreConfig::new(scheme, batch_rows, 0).with_shards(3),
        ),
        (
            "sharded+prefetch",
            StoreConfig::new(scheme, batch_rows, 0)
                .with_shards(3)
                .with_prefetch(3),
        ),
        (
            "async-ring-stripe",
            StoreConfig::new(scheme, batch_rows, 0)
                .with_shards(3)
                .with_prefetch(3)
                .with_io(IoEngineKind::Ring),
        ),
        // Asymmetric shards: a 10× bandwidth skew, so the ring's
        // completions arrive far out of visit order.
        (
            "asymmetric-ring-2io-4dec",
            StoreConfig::new(scheme, batch_rows, 0)
                .with_shards(3)
                .with_prefetch(3)
                .with_io(IoEngineKind::Ring)
                .with_shard_mbps(vec![900.0, 90.0, 90.0])
                .with_scheduler(SchedulerConfig {
                    io_threads: 2,
                    decode_workers: 4,
                    ..SchedulerConfig::default()
                }),
        ),
        (
            "asymmetric-ring-1io-3dec",
            StoreConfig::new(scheme, batch_rows, 0)
                .with_shards(3)
                .with_prefetch(3)
                .with_io(IoEngineKind::Ring)
                .with_shard_mbps(vec![900.0, 400.0, 90.0])
                .with_scheduler(SchedulerConfig {
                    io_threads: 1,
                    decode_workers: 3,
                    ..SchedulerConfig::default()
                }),
        ),
    ];
    for (name, config) in sharded_configs {
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();
        assert_eq!(store.spilled_batches(), 8, "{name}");
        runs.push(train(name, &store, eval));
        store.stats().snapshot_stable().assert_consistent();
    }

    // The model must actually have learned something (guards against all
    // six agreeing on garbage), and every run must agree bitwise.
    let reference = &runs[0];
    assert!(
        *reference.curve.last().unwrap() < 0.35,
        "reference run did not converge: {:?}",
        reference.curve
    );
    for run in &runs[1..] {
        assert_eq!(
            run.weights, reference.weights,
            "{} diverged from {} in final weights",
            run.name, reference.name
        );
        assert_eq!(
            run.curve, reference.curve,
            "{} diverged from {} in the loss trajectory",
            run.name, reference.name
        );
    }
}

/// Multi-tenant determinism: 8 jobs with distinct seeds train
/// concurrently over ONE shared store — ring engine replaced by the
/// fault-injecting double, asymmetric devices, and a shared
/// compressed-batch cache too small to hold every batch. Every job's final
/// weights AND loss curve must be `==` to its solo run on a fresh store
/// of the same configuration: concurrency, cache hits, eviction timing,
/// QoS throttling and injected faults may change *when* bytes are read,
/// never *which* bytes the trainer sees.
#[test]
fn concurrent_tenants_train_bit_identical_to_solo() {
    use std::sync::Arc;
    use toc_data::serve::{JobServer, JobSpec, ServeConfig};
    use toc_data::FaultPlan;

    let ds = generate_preset(DatasetPreset::CensusLike, 480, 13);
    let scheme = Scheme::Toc;
    let batch_rows = 60;
    let eval_batch = Scheme::Den.encode(&ds.x);
    let config = || {
        StoreConfig::new(scheme, batch_rows, 0)
            .with_shards(3)
            .with_prefetch(3)
            .with_io(IoEngineKind::Ring)
            .with_shard_mbps(vec![900.0, 400.0, 90.0])
            .with_fault_plan(FaultPlan::seeded(0xBEEF))
    };
    let job = |i: usize| {
        JobSpec::new(
            format!("tenant{i}"),
            ModelSpec::Linear(LossKind::Logistic),
            MgdConfig {
                epochs: 4,
                lr: 0.25,
                seed: 42 + 7 * i as u64,
                record_curve: true,
                shuffle_batches: true,
            },
        )
        .with_share(1.0 + (i % 3) as f64)
        .with_eval(eval_batch.clone(), ds.labels.clone())
    };

    let store = Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config()).unwrap());
    assert_eq!(store.spilled_batches(), 8);
    let server = JobServer::new(
        Arc::clone(&store),
        ServeConfig {
            max_concurrent: 8,
            // Half the spilled bytes: which batches the fill-once cache
            // keeps depends on which tenant reads them first, so hit/miss
            // interleavings vary run to run.
            cache_bytes: store.spilled_bytes() / 2,
        },
    );
    let outcomes = server.run((0..8).map(job).collect());
    store.stats().snapshot_stable().assert_consistent();
    assert_eq!(server.peak_concurrency(), 8);

    // Solo references: each job alone on a fresh store of the same
    // configuration, driven by the plain Trainer through the prefetch
    // pipeline + fault-injecting engine (a different read path entirely).
    for (i, outcome) in outcomes.iter().enumerate() {
        let spec = job(i);
        let solo_store = ShardedSpillStore::build(&ds.x, &ds.labels, &config()).unwrap();
        let trainer = Trainer::new(spec.config.clone());
        let report = trainer.train(
            &spec.model,
            &solo_store,
            Some((&eval_batch, ds.labels.as_slice())),
        );
        solo_store.stats().snapshot_stable().assert_consistent();
        assert_eq!(
            outcome.weights,
            report.model.weights(),
            "{} diverged from its solo run in final weights",
            outcome.name
        );
        let solo_curve: Vec<f64> = report.curve.iter().map(|p| p.error_rate).collect();
        assert_eq!(
            outcome.curve, solo_curve,
            "{} diverged from its solo run in the loss trajectory",
            outcome.name
        );
    }
    // Distinct seeds must actually produce distinct runs (guards against
    // a provider that ignores the job's shuffle stream).
    assert!(
        outcomes[0].weights != outcomes[1].weights,
        "jobs with different seeds produced identical weights"
    );
}

/// Online training over a *streaming* store must be bit-identical to the
/// same online pass over a fully materialized store: the live run
/// ingests chunks through the fault-injecting append path (chunked short
/// writes + latency) over asymmetric shards while the online trainer and
/// TWO extra tenant reader threads run concurrently. Ingest timing,
/// injected write faults and concurrent readers may change *when* a
/// segment is consumed — never the per-window loss curve or the final
/// weights.
#[test]
fn online_training_over_streaming_store_matches_materialized() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use toc_data::{FaultPlan, StoreIngest};
    use toc_formats::EncodeOptions;
    use toc_ml::mgd::OnlineReport;

    let ds = generate_preset(DatasetPreset::CensusLike, 480, 13);
    let scheme = Scheme::Toc;
    let batch_rows = 60; // chunk == batch: 8 sealed segments
    let window = 3;
    let trainer = Trainer::new(MgdConfig {
        epochs: 1,
        lr: 0.25,
        ..Default::default()
    });
    let spec = ModelSpec::Linear(LossKind::Logistic);
    let config = || {
        StoreConfig::new(scheme, batch_rows, 0)
            .with_shards(3)
            .with_shard_mbps(vec![900.0, 400.0, 90.0])
            .with_fault_plan(FaultPlan::seeded(0xF011))
    };

    // Reference: the identical online pass over a store built the
    // ordinary materialized way (stream already "ended" at batch 0).
    let materialized = ShardedSpillStore::build(&ds.x, &ds.labels, &config()).unwrap();
    let reference = trainer.train_online(&spec, &materialized, window, &mut || false);
    assert_eq!(reference.consumed, 8);

    // Live run: ingest, online trainer, two tenant readers.
    let store = ShardedSpillStore::open_streaming(ds.x.cols(), &config()).unwrap();
    let done = AtomicBool::new(false);
    let live = std::thread::scope(|s| {
        let store_ref = &store;
        let ds_ref = &ds;
        let done_ref = &done;
        s.spawn(move || {
            let run = || -> std::io::Result<()> {
                let mut ing = StoreIngest::new(
                    store_ref,
                    batch_rows,
                    Some(scheme),
                    EncodeOptions::default(),
                );
                for r in 0..ds_ref.x.rows() {
                    ing.push_row(ds_ref.x.row(r), ds_ref.labels[r])?;
                    if r % batch_rows == 0 {
                        // Stretch the stream out so the trainer visibly
                        // catches up and waits on unsealed chunks.
                        std::thread::sleep(std::time::Duration::from_micros(300));
                    }
                }
                ing.finish().map(|_| ())
            };
            let out = run();
            // Release the trainer even if an append failed.
            done_ref.store(true, Ordering::Release);
            out.unwrap();
        });
        let readers: Vec<_> = (0..2)
            .map(|i| {
                s.spawn(move || {
                    while store_ref.num_batches() == 0 {
                        std::thread::yield_now();
                    }
                    let tenant = Trainer::new(MgdConfig {
                        epochs: 2,
                        lr: 0.1,
                        seed: 7 + i,
                        shuffle_batches: true,
                        ..Default::default()
                    });
                    tenant.train(&ModelSpec::Linear(LossKind::Logistic), store_ref, None);
                })
            })
            .collect();
        let report = trainer.train_online(&spec, store_ref, window, &mut || {
            !done.load(Ordering::Acquire)
        });
        for r in readers {
            r.join().unwrap();
        }
        report
    });

    assert_eq!(live.consumed, reference.consumed);
    assert_eq!(
        live.model.weights(),
        reference.model.weights(),
        "streaming-built store diverged from the materialized run"
    );
    let curve = |r: &OnlineReport| -> Vec<(usize, usize, f64)> {
        r.windows
            .iter()
            .map(|w| (w.start, w.end, w.error_rate))
            .collect()
    };
    assert_eq!(
        curve(&live),
        curve(&reference),
        "per-window prequential loss curves diverged"
    );
    // The reference actually learned (guards against agreeing on garbage).
    assert!(
        reference.windows.last().unwrap().error_rate < 0.40,
        "online pass did not converge: {:?}",
        curve(&reference)
    );
}
