//! Out-of-core read-path scaling: one shard vs. N shards vs. sharded +
//! prefetch (over the sync and the ring engine), across schemes.
//!
//! Everything spills (budget 0) and reads go through the simulated
//! bandwidth model, so the numbers isolate how the read paths behave
//! when IO is the wall: one shard serializes readers on one device
//! clock, sharding gives each of N devices its own clock (aggregate
//! bandwidth scales with N), prefetch overlaps the decode+IO of upcoming
//! batches with the visitor's work, and the ring engine additionally
//! reads on threads of its own so read latency no longer serializes with
//! decode inside each prefetch worker — and coalesces file-adjacent
//! reads into one request.
//!
//! The binary ends with two acceptance gates (both assert, so CI fails
//! loudly on a regression): on the seeded multi-shard device the best
//! row of each engine in the engine × worker matrix must sweep ≥ 1.3×
//! faster than no prefetch at all, and adaptive placement must beat
//! static pack by ≥ 1.15× epoch throughput on the seeded
//! *asymmetric-bandwidth* workload (one fast shard, three slow ones — the
//! heterogeneity the profiler exists to discover). The matrix is appended
//! to `BENCH_store.json` (`--out=` to write elsewhere).
//!
//! ```text
//! cargo run -p toc-bench --release --bin store_scaling -- \
//!     --rows=3000 --threads=8 --mbps=400 --shards=4 --prefetch=8 --io=ring
//! ```

use toc_bench::{fmt_duration, mb_per_s, sweep_store, Args, History, Table};
use toc_data::store::{
    IoEngineKind, SchedulerConfig, ShardPlacement, ShardedSpillStore, StoreConfig,
};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::Scheme;

/// Header of a fresh `BENCH_store.json`; an object-valued unit is a
/// `bench_compare` tolerance (see `toc_bench::paper::HEADER`).
const HEADER: &str = "{\n  \"bench\": \"store_scaling\",\n  \"units\": {\n    \"sweep_1v_ms\": {\"what\": \"median of 5 sweeps, one visitor visiting every spilled batch once\", \"better\": \"lower\", \"tolerance\": 1.0},\n    \"sweep_4v_ms\": {\"what\": \"the same with the batches striped over 4 concurrent visitors\", \"better\": \"lower\", \"tolerance\": 1.0},\n    \"workers\": \"decode workers; the ring adds one IO thread per shard, none = no prefetch\",\n    \"best_vs_none\": {\"what\": \"no-prefetch sweep_1v_ms / the engine's fastest row (asserted >= 1.3)\", \"better\": \"higher\", \"tolerance\": 0.5}\n  },\n";

fn main() {
    let mut args = Args::from_env();
    let rows: usize = args.get("rows", 3000);
    let batch_rows: usize = args.get("batch-rows", 250);
    let threads: usize = args.get("threads", 8);
    let mbps: f64 = args.get("mbps", 400.0);
    let shards: usize = args.get("shards", 0); // 0 = available parallelism
    let prefetch: usize = args.get("prefetch", 8);
    let io: IoEngineKind = args.get("io", IoEngineKind::Ring);
    let history = History::from_args(&mut args, "BENCH_store.json");
    args.finish();
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

    engine_matrix_gate(&history);
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

/// The engine × worker matrix and its gate. The device is fixed
/// (independent of the CLI overrides above) so every run measures the
/// same thing: census-like 12 000 rows in DEN batches of 250, all
/// spilled over 4 modelled shards of 400 MB/s — bandwidth-bound, the
/// regime prefetch exists for. Rows: no prefetch, then each engine at
/// depth 8 with 1 / 2 / 4 / 8 decode workers (the ring on its pack
/// layout with one IO thread per shard); columns: the median of five
/// sweeps by 1 and by 4 visitors. The gate is what every row shape
/// shares: the best row of each engine must sweep ≥ 1.3× faster than no
/// prefetch under one visitor. Ring against sync at equal depth and
/// workers is printed, not asserted — which engine wins depends on the
/// device and the worker count.
fn engine_matrix_gate(history: &History) {
    let (rows, batch_rows, shards, depth, mbps) = (12_000, 250, 4, 8, 400.0);
    let ds = generate_preset(DatasetPreset::CensusLike, rows, 1);
    let base = StoreConfig::new(Scheme::Den, batch_rows, 0)
        .with_shards(shards)
        .with_disk_mbps(mbps);
    let sweep_ms = |config: &StoreConfig| -> [f64; 2] {
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, config).expect("store build");
        let medians = [1, 4].map(|visitors| {
            let mut ms: Vec<f64> = (0..5)
                .map(|_| sweep_store(&store, visitors).as_secs_f64() * 1e3)
                .collect();
            ms.sort_by(f64::total_cmp);
            ms[2]
        });
        store.stats().snapshot_stable().assert_consistent();
        medians
    };
    let mut matrix = vec![("none", 0, sweep_ms(&base))];
    for (engine, placement) in [
        (IoEngineKind::Sync, ShardPlacement::Stripe),
        (IoEngineKind::Ring, ShardPlacement::Pack),
    ] {
        for decode_workers in [1, 2, 4, 8] {
            let config = base
                .clone()
                .with_prefetch(depth)
                .with_io(engine)
                .with_placement(placement)
                .with_scheduler(SchedulerConfig {
                    decode_workers,
                    ..SchedulerConfig::default()
                });
            matrix.push((engine.name(), decode_workers, sweep_ms(&config)));
        }
    }

    let none = matrix[0].2[0];
    let mut table = Table::new(vec![
        "engine", "workers", "1v sweep", "4v sweep", "vs none", "vs sync",
    ]);
    let mut json = Vec::new();
    for &(engine, workers, [v1, v4]) in &matrix {
        let sync = matrix.iter().find(|r| r.0 == "sync" && r.1 == workers);
        table.row(vec![
            engine.to_string(),
            workers.to_string(),
            format!("{v1:.2}ms"),
            format!("{v4:.2}ms"),
            format!("{:.2}x", none / v1),
            sync.map_or("-".into(), |s| format!("{:.2}x", s.2[0] / v1)),
        ]);
        json.push(format!(
            "        {{\"engine\": \"{engine}\", \"workers\": {workers}, \
             \"sweep_1v_ms\": {v1:.3}, \"sweep_4v_ms\": {v4:.3}}}"
        ));
    }
    println!(
        "engine x worker matrix: DEN, {rows} rows / {batch_rows}, {shards} shards x {mbps} MB/s, \
         depth {depth}, median of 5 sweeps by 1 (1v) and 4 (4v) visitors"
    );
    table.print();
    let best = ["sync", "ring"].map(|engine| {
        let rows = matrix.iter().filter(|r| r.0 == engine);
        none / rows.map(|r| r.2[0]).fold(f64::INFINITY, f64::min)
    });
    println!(
        "overlap acceptance: best sync row {:.2}x, best ring row {:.2}x no prefetch \
         (gate: each >= 1.30x)",
        best[0], best[1]
    );

    let payload = format!(
        "      \"device\": {{\"scheme\": \"DEN\", \"rows\": {rows}, \"batch_rows\": {batch_rows}, \"shards\": {shards}, \"mbps\": {mbps}, \"depth\": {depth}}},\n      \"best_vs_none\": {{\"sync\": {:.2}, \"ring\": {:.2}}},\n      \"matrix\": [\n{}\n      ]",
        best[0],
        best[1],
        json.join(",\n"),
    );
    history.append(HEADER, &payload);
    for (name, ratio) in ["sync", "ring"].into_iter().zip(best) {
        assert!(
            ratio >= 1.3,
            "overlap regression: the best {name} row is only {ratio:.2}x no prefetch"
        );
    }
}
