//! Out-of-core read-path scaling: one shard vs. N shards vs. sharded +
//! prefetch (sync workers, async ring), across schemes.
//!
//! Everything spills (budget 0) and reads go through the simulated
//! bandwidth model, so the numbers isolate how the read paths behave
//! when IO is the wall: one shard serializes readers on one device
//! clock, sharding gives each of N devices its own clock (aggregate
//! bandwidth scales with N), prefetch overlaps the decode+IO of upcoming
//! batches with the visitor's work, and the ring engine additionally
//! splits submission from completion so read latency no longer
//! serializes with decode inside each prefetch worker — and coalesces
//! file-adjacent reads into one request.
//!
//! The binary ends with two acceptance gates (both assert, so CI fails
//! loudly on a regression): the ring engine must beat single-worker
//! synchronous prefetch by ≥ 1.3× throughput on the seeded multi-shard
//! workload, and adaptive placement must beat static pack by ≥ 1.15×
//! epoch throughput on the seeded *asymmetric-bandwidth* workload (one
//! fast shard, three slow ones — the heterogeneity the profiler exists
//! to discover).
//!
//! ```text
//! cargo run -p toc-bench --release --bin store_scaling -- \
//!     --rows=3000 --threads=8 --mbps=400 --shards=4 --prefetch=8 --io=ring
//! ```

use toc_bench::{arg, fmt_duration, mb_per_s, sweep_store, Table};
use toc_data::store::{IoEngineKind, ShardPlacement, ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::Scheme;

fn main() {
    let rows: usize = arg("rows", 3000);
    let batch_rows: usize = arg("batch-rows", 250);
    let threads: usize = arg("threads", 8);
    let mbps: f64 = arg("mbps", 400.0);
    let shards: usize = arg("shards", 0); // 0 = available parallelism
    let prefetch: usize = arg("prefetch", 8);
    let io: IoEngineKind = arg("io", "ring".to_string()).parse().expect("--io");
    let ds = generate_preset(DatasetPreset::CensusLike, rows, 1);
    println!(
        "store_scaling: {rows} rows x {} cols, batch_rows={batch_rows}, budget=0 (all spilled), \
         disk={mbps} MB/s, {threads} visitor threads",
        ds.x.cols()
    );

    let mut table = Table::new(vec![
        "scheme",
        "store",
        "spill MB",
        "1T sweep",
        "nT sweep",
        "speedup",
        "pf hit%",
        "coalesced",
    ]);
    for scheme in [Scheme::Den, Scheme::Csr, Scheme::Gzip, Scheme::Toc] {
        let base = StoreConfig::new(scheme, batch_rows, 0).with_disk_mbps(mbps);

        // (a) one shard: one device clock for every reader; (b) sharded:
        // N independent device clocks, lock-free reads.
        for n_shards in [1, shards] {
            let cfg = base.clone().with_shards(n_shards);
            let store = ShardedSpillStore::build(&ds.x, &ds.labels, &cfg).expect("store build");
            let seq = sweep_store(&store, 1);
            let par = sweep_store(&store, threads);
            table.row(vec![
                scheme.name().to_string(),
                format!("sharded({})", store.num_shards()),
                format!("{:.1}", store.spilled_bytes() as f64 / 1e6),
                fmt_duration(seq),
                fmt_duration(par),
                format!("{:.1}x", seq.as_secs_f64() / par.as_secs_f64()),
                "-".into(),
                "-".into(),
            ]);
        }

        // (c) sharded + prefetch, each IO path: sync workers, async ring
        // (ring rides the pack placement so adjacent reads exist to
        // coalesce).
        for (engine, placement) in [
            (IoEngineKind::Sync, ShardPlacement::Stripe),
            (io, ShardPlacement::Pack),
        ] {
            let cfg = base
                .clone()
                .with_shards(shards)
                .with_prefetch(prefetch)
                .with_io(engine)
                .with_placement(placement);
            let store = ShardedSpillStore::build(&ds.x, &ds.labels, &cfg).expect("store build");
            let seq = sweep_store(&store, 1);
            let par = sweep_store(&store, threads);
            let s = store.stats().snapshot_stable();
            let visits = (s.prefetch_hits + s.prefetch_misses).max(1);
            table.row(vec![
                scheme.name().to_string(),
                format!(
                    "sharded({})+pf{}/{}{}",
                    store.num_shards(),
                    prefetch,
                    engine,
                    if placement == ShardPlacement::Pack {
                        "+pack"
                    } else {
                        ""
                    }
                ),
                format!("{:.1}", store.spilled_bytes() as f64 / 1e6),
                fmt_duration(seq),
                fmt_duration(par),
                format!("{:.1}x", seq.as_secs_f64() / par.as_secs_f64()),
                format!("{:.0}%", 100.0 * s.prefetch_hits as f64 / visits as f64),
                format!("{}", s.coalesced_reads),
            ]);
        }
    }
    table.print();
    println!(
        "(1T/nT sweep = wall time for 1/{threads} concurrent visitors to visit every batch once; \
         pf hit% = spilled visits served by the prefetch pipeline; \
         coalesced = reads that rode along a merged ring read)"
    );

    overlap_acceptance_gate();
    adaptive_acceptance_gate();
}

/// Acceptance gate for adaptive placement (ISSUE 5): on the seeded
/// asymmetric-bandwidth workload — shard 0 at 400 MB/s, shards 1–3 at
/// 25 MB/s — adaptive placement must reach ≥ 1.15× the steady-state
/// epoch throughput of static pack placement. Both stores run the same
/// ring-engine prefetch pipeline; the only difference is where the bytes
/// live. Static pack spreads them evenly, so every epoch waits on the
/// slow devices; adaptive profiles the shards during the warm-up epochs
/// and re-packs hot bytes onto the fast device in proportion to measured
/// bandwidth.
fn adaptive_acceptance_gate() {
    let rows = 6000;
    let batch_rows = 100;
    let shard_mbps = vec![400.0, 25.0, 25.0, 25.0];
    let ds = generate_preset(DatasetPreset::CensusLike, rows, 1);
    let base = StoreConfig::new(Scheme::Den, batch_rows, 0)
        .with_shards(4)
        .with_prefetch(8)
        .with_io(IoEngineKind::Ring)
        .with_shard_mbps(shard_mbps.clone());

    // Steady-state epoch time: warm epochs first (the adaptive store
    // profiles and migrates there; end_epoch is what the trainer fires),
    // then time two epochs over the settled layout.
    let epoch_time = |store: &ShardedSpillStore| {
        use toc_ml::mgd::BatchProvider;
        for _ in 0..2 {
            let _ = sweep_store(store, 1);
            store.end_epoch();
        }
        let mut total = std::time::Duration::ZERO;
        for _ in 0..2 {
            total += sweep_store(store, 1);
            store.end_epoch();
        }
        total / 2
    };

    let pack_store = ShardedSpillStore::build(
        &ds.x,
        &ds.labels,
        &base.clone().with_placement(ShardPlacement::Pack),
    )
    .expect("store build");
    let bytes = pack_store.spilled_bytes();
    let pack_time = epoch_time(&pack_store);
    let pack_tp = mb_per_s(bytes, pack_time);
    drop(pack_store);

    let adaptive_store = ShardedSpillStore::build(
        &ds.x,
        &ds.labels,
        &base.with_placement(ShardPlacement::Adaptive),
    )
    .expect("store build");
    let adaptive_time = epoch_time(&adaptive_store);
    let adaptive_tp = mb_per_s(bytes, adaptive_time);
    let rep = adaptive_store.placement_report();
    adaptive_store.stats().snapshot_stable().assert_consistent();
    drop(adaptive_store);

    let ratio = adaptive_tp / pack_tp;
    println!(
        "adaptive acceptance: pack {pack_tp:.1} MB/s ({}), adaptive {adaptive_tp:.1} MB/s ({}), \
         ratio {ratio:.2}x (gate: >= 1.15x); {} batches / {} KB migrated over {} rebalances, \
         fast-shard share {:.0}%",
        fmt_duration(pack_time),
        fmt_duration(adaptive_time),
        rep.migrated_batches,
        rep.migrated_bytes / 1024,
        rep.rebalances,
        100.0 * rep.shard_bytes[0] as f64 / rep.shard_bytes.iter().sum::<u64>().max(1) as f64,
    );
    assert!(
        ratio >= 1.15,
        "adaptive placement regression: only {ratio:.2}x over static pack on the \
         asymmetric-bandwidth workload"
    );
}

/// Acceptance gate for the async engine (ISSUE 4): on the seeded
/// multi-shard workload, the ring engine must reach ≥ 1.3× the
/// throughput of single-worker synchronous prefetch. The workload is
/// fixed (independent of the CLI overrides above) so the gate measures
/// the same thing on every run; the bandwidth model makes IO the wall,
/// which is exactly the regime overlap is supposed to win.
fn overlap_acceptance_gate() {
    let rows = 2000;
    let batch_rows = 100;
    let mbps = 80.0;
    let ds = generate_preset(DatasetPreset::CensusLike, rows, 1);
    let base = StoreConfig::new(Scheme::Den, batch_rows, 0)
        .with_shards(4)
        .with_disk_mbps(mbps);

    // Single-worker synchronous prefetch: depth 1 = one worker whose
    // read blocks serialize with its decodes.
    let sync_store = ShardedSpillStore::build(&ds.x, &ds.labels, &base.clone().with_prefetch(1))
        .expect("store build");
    let sync_time = sweep_store(&sync_store, 1);
    let bytes = sync_store.spilled_bytes();
    let sync_tp = mb_per_s(bytes, sync_time);
    drop(sync_store);

    // Ring engine: lookahead submissions keep reads in flight on all four
    // shard clocks while decode workers drain completions.
    let ring_cfg = base
        .with_prefetch(8)
        .with_io(IoEngineKind::Ring)
        .with_placement(ShardPlacement::Pack);
    let ring_store = ShardedSpillStore::build(&ds.x, &ds.labels, &ring_cfg).expect("store build");
    let ring_time = sweep_store(&ring_store, 1);
    let ring_tp = mb_per_s(bytes, ring_time);
    let s = ring_store.stats().snapshot_stable();
    s.assert_consistent();
    drop(ring_store);

    let ratio = ring_tp / sync_tp;
    println!(
        "overlap acceptance: sync1 {:.1} MB/s ({}), ring {:.1} MB/s ({}), \
         ratio {ratio:.2}x (gate: >= 1.30x), coalesced {} of {} completions",
        sync_tp,
        fmt_duration(sync_time),
        ring_tp,
        fmt_duration(ring_time),
        s.coalesced_reads,
        s.completed,
    );
    assert!(
        ratio >= 1.3,
        "overlap regression: ring engine only {ratio:.2}x over single-worker sync prefetch"
    );
}
