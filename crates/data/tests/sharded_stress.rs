//! Multi-threaded stress over the sharded spill store: 8 visitors hammer
//! `visit` concurrently over a fully-spilled store (with and without the
//! prefetch pipeline). Every visit must return byte-identical batches and
//! the `IoStats` totals must add up exactly. Run it in release too — the
//! CI has a `cargo test --release` job precisely for these.

use toc_data::store::{IoEngineKind, ShardPlacement, ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{MatrixBatch, Scheme};
use toc_ml::mgd::BatchProvider;

const BATCH_ROWS: usize = 100;
const THREADS: usize = 8;
const ROUNDS: usize = 5;

#[test]
fn eight_concurrent_visitors_get_byte_identical_batches() {
    let ds = generate_preset(DatasetPreset::CensusLike, 1200, 3);
    let n_batches = 12;
    // The serialized form each visit must reproduce, bit for bit.
    let expected: Vec<Vec<u8>> = (0..n_batches)
        .map(|i| {
            Scheme::Toc
                .encode(&ds.x.slice_rows(i * BATCH_ROWS, (i + 1) * BATCH_ROWS))
                .to_bytes()
        })
        .collect();

    for (prefetch, io, placement) in [
        (0usize, IoEngineKind::Sync, ShardPlacement::Stripe),
        (6, IoEngineKind::Sync, ShardPlacement::Stripe),
        (6, IoEngineKind::Ring, ShardPlacement::Stripe),
        (6, IoEngineKind::Ring, ShardPlacement::Pack),
    ] {
        let config = StoreConfig::new(Scheme::Toc, BATCH_ROWS, 0)
            .with_shards(4)
            .with_prefetch(prefetch)
            .with_io(io)
            .with_placement(placement);
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();
        assert_eq!(store.spilled_batches(), n_batches);
        assert_eq!(store.num_shards(), 4);

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        #[allow(clippy::needless_range_loop)]
                        // i indexes the store, expected and labels in lockstep
                        for i in 0..store.num_batches() {
                            store.visit(i, &mut |b, labels| {
                                assert_eq!(b.to_bytes(), expected[i], "batch {i}");
                                assert_eq!(
                                    labels,
                                    &ds.labels[i * BATCH_ROWS..(i + 1) * BATCH_ROWS]
                                );
                            });
                        }
                    }
                });
            }
        });

        let visits = (THREADS * ROUNDS * n_batches) as u64;
        // `snapshot_stable` because async engine workers may still be
        // retiring lookahead reads when the last visit returns; the
        // visitor-owned counters (requests/hits/misses) are exact either
        // way and `assert_consistent` checks they add up.
        let s = store.stats().snapshot_stable();
        s.assert_consistent();
        if prefetch == 0 {
            // No pipeline: every spilled visit is exactly one read.
            assert_eq!(s.disk_reads, visits);
            assert_eq!(
                s.bytes_read,
                (THREADS * ROUNDS) as u64 * store.spilled_bytes() as u64
            );
            assert_eq!(s.prefetch_hits, 0);
            assert_eq!(s.prefetch_misses, 0);
            assert_eq!(s.spill_requests, 0);
        } else {
            // Pipeline: every spilled visit is accounted as exactly one
            // hit or miss, and consumed exactly one read (or rode along a
            // coalesced ring read); at most a lookahead window of reads
            // stays unconsumed at shutdown.
            assert_eq!(s.spill_requests, visits, "{io:?} {s:?}");
            assert_eq!(s.prefetch_hits + s.prefetch_misses, visits, "{io:?} {s:?}");
            assert!(s.disk_reads + s.coalesced_reads >= visits, "{io:?} {s:?}");
            assert!(
                s.disk_reads + s.coalesced_reads <= visits + (8 * prefetch) as u64,
                "{io:?} {s:?}"
            );
        }
        assert_eq!(s.throttle_ns, 0); // no bandwidth model configured
    }
}

#[test]
fn trainer_converges_over_sharded_store_with_prefetch() {
    use toc_ml::mgd::{MgdConfig, ModelSpec, Trainer};
    use toc_ml::LossKind;
    // `trainer_runs_over_spilled_store` (crates/data/src/store.rs), ported
    // to the sharded store with the prefetch pipeline on: convergence must
    // be unchanged — prefetch only moves IO off the training thread.
    let ds = generate_preset(DatasetPreset::CensusLike, 600, 21);
    let config = StoreConfig::new(Scheme::Toc, 100, 0)
        .with_shards(3)
        .with_prefetch(4);
    let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();
    assert_eq!(store.spilled_batches(), 6);
    let trainer = Trainer::new(MgdConfig {
        epochs: 8,
        lr: 0.3,
        ..Default::default()
    });
    let mut report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &store, None);
    let eval = Scheme::Den.encode(&ds.x);
    let err = report.model.error_rate(&eval, &ds.labels);
    assert!(err < 0.25, "error {err}");
    let s = store.stats().snapshot();
    // Exact accounting: every spilled visit is one hit or one miss (how
    // the split falls depends on how fast compute is relative to IO, so
    // only the total is asserted), and every visit consumed one read.
    assert_eq!(s.prefetch_hits + s.prefetch_misses, 8 * 6);
    assert!(s.disk_reads >= 8 * 6, "{s:?}");
}
