//! Multi-tenant scaling: N training jobs over ONE shared spill store and
//! one shared heat-aware compressed-batch cache, concurrent vs. serial.
//!
//! Everything spills (budget 0) under a deliberately slow simulated
//! device, so IO is the wall. Run serially (`max_concurrent=1`), each
//! job's synchronous miss reads keep at most one shard clock busy at a
//! time and the aggregate crawls. Run concurrently, the jobs spread
//! across all shard clocks and the shared cache turns every batch one
//! tenant already paid to read into a free hit for the other seven —
//! that is the multi-tenant dividend the paper's "compress once, serve
//! many consumers" premise predicts.
//!
//! The binary ends with an acceptance gate (asserted, run in CI): on the
//! seeded workload, 8 concurrent jobs must finish ≥ 2× faster than the
//! same 8 jobs run serially — and every job's final weights must be
//! byte-identical between the two runs (the serial leg doubles as the
//! solo reference).
//!
//! ```text
//! cargo run -p toc-bench --release --bin tenant_scaling -- \
//!     --rows=4800 --jobs=8 --shards=4 --mbps=50
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use toc_bench::{fmt_duration, Args, History, Table};
use toc_data::serve::{JobServer, JobSpec, ServeConfig};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, Dataset, DatasetPreset};
use toc_formats::Scheme;
use toc_ml::mgd::{MgdConfig, ModelSpec};
use toc_ml::LossKind;

const BATCH_ROWS: usize = 100;
const EPOCHS: usize = 3;

fn jobs_for(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            JobSpec::new(
                format!("j{i}"),
                ModelSpec::Linear(LossKind::Logistic),
                MgdConfig {
                    epochs: EPOCHS,
                    lr: 0.2,
                    seed: 42 + i as u64,
                    record_curve: false,
                    shuffle_batches: true,
                },
            )
        })
        .collect()
}

/// Build a fresh store + server and run the job set; returns the wall
/// time and the outcomes. Each call gets its own store so the serial and
/// concurrent legs start from identical cold state.
fn run_fleet(
    ds: &Dataset,
    shards: usize,
    mbps: f64,
    cache_bytes: usize,
    max_concurrent: usize,
    n_jobs: usize,
) -> (Duration, Vec<toc_data::serve::JobOutcome>, u64) {
    let config = StoreConfig::new(Scheme::Den, BATCH_ROWS, 0)
        .with_shards(shards)
        .with_disk_mbps(mbps);
    let store =
        Arc::new(ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("build store"));
    let server = JobServer::new(
        Arc::clone(&store),
        ServeConfig {
            max_concurrent,
            cache_bytes,
        },
    );
    let t0 = Instant::now();
    let outcomes = server.run(jobs_for(n_jobs));
    let wall = t0.elapsed();
    store.stats().snapshot_stable().assert_consistent();
    (wall, outcomes, server.cache().evictions())
}

/// Header of a fresh `BENCH_tenant.json`; an object-valued unit is a
/// `bench_compare` tolerance (see `toc_bench::paper::HEADER`).
const HEADER: &str = "{\n  \"bench\": \"tenant_scaling\",\n  \"units\": {\n    \"wall_ms\": {\"what\": \"wall time for the whole fleet\", \"better\": \"lower\", \"tolerance\": 0.5},\n    \"agg_epochs_s\": {\"what\": \"jobs * epochs / wall\", \"better\": \"higher\", \"tolerance\": 0.5},\n    \"cache_hit_pct\": \"fleet-wide cache hits / (hits + misses)\",\n    \"gate_ratio\": {\"what\": \"serial wall / concurrent wall (asserted >= 2.0)\", \"better\": \"higher\", \"tolerance\": 0.25}\n  },\n";

fn main() {
    let mut args = Args::from_env();
    let rows: usize = args.get("rows", 4800);
    let jobs: usize = args.get("jobs", 8);
    let shards: usize = args.get("shards", 4);
    let mbps: f64 = args.get("mbps", 50.0);
    let history = History::from_args(&mut args, "BENCH_tenant.json");
    args.finish();
    let ds = generate_preset(DatasetPreset::CensusLike, rows, 1);
    let probe = StoreConfig::new(Scheme::Den, BATCH_ROWS, 0).with_shards(shards);
    let spilled = ShardedSpillStore::build(&ds.x, &ds.labels, &probe)
        .expect("probe store")
        .spilled_bytes();
    let cache_bytes = spilled / 4;
    println!(
        "tenant_scaling: {rows} rows x {} cols, {jobs} jobs x {EPOCHS} epochs, {shards} shards \
         @ {mbps} MB/s, {} KB spilled, cache {} KB",
        ds.x.cols(),
        spilled / 1024,
        cache_bytes / 1024,
    );

    let mut table = Table::new(vec![
        "concurrent",
        "wall",
        "agg epochs/s",
        "cache hit%",
        "qos wait",
        "evictions",
    ]);
    let mut sweep = String::new();
    for max_concurrent in [1usize, 2, 4, jobs] {
        let (wall, outcomes, evictions) =
            run_fleet(&ds, shards, mbps, cache_bytes, max_concurrent, jobs);
        let hits: u64 = outcomes.iter().map(|o| o.cache_hits).sum();
        let misses: u64 = outcomes.iter().map(|o| o.cache_misses).sum();
        let qos: Duration = outcomes.iter().map(|o| o.qos_wait).sum();
        let hit_pct = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
        let agg = (jobs * EPOCHS) as f64 / wall.as_secs_f64();
        table.row(vec![
            max_concurrent.to_string(),
            fmt_duration(wall),
            format!("{agg:.1}"),
            format!("{hit_pct:.0}%"),
            fmt_duration(qos),
            evictions.to_string(),
        ]);
        sweep.push_str(&format!(
            "        {{\"concurrent\": {max_concurrent}, \"wall_ms\": {:.1}, \"agg_epochs_s\": {agg:.1}, \"cache_hit_pct\": {hit_pct:.0}, \"evictions\": {evictions}}},\n",
            wall.as_secs_f64() * 1e3,
        ));
    }
    table.print();

    let (serial_wall, conc_wall, ratio) =
        tenant_acceptance_gate(&ds, jobs, shards, mbps, cache_bytes);

    let payload = format!(
        "      \"rows\": {rows},\n      \"jobs\": {jobs},\n      \"shards\": {shards},\n      \"mbps\": {mbps},\n      \"gate_ratio\": {ratio:.2},\n      \"serial_wall_ms\": {:.1},\n      \"concurrent_wall_ms\": {:.1},\n      \"weights_bit_identical\": true,\n      \"sweep\": [\n{}\n      ]",
        serial_wall.as_secs_f64() * 1e3,
        conc_wall.as_secs_f64() * 1e3,
        sweep.trim_end_matches(",\n"),
    );
    history.append(HEADER, &payload);
}

/// The asserted gate: 8 concurrent jobs ≥ 2× the serial aggregate on the
/// seeded workload, with bit-identical per-job weights either way.
/// Returns the measured walls and ratio for the history entry.
fn tenant_acceptance_gate(
    ds: &Dataset,
    jobs: usize,
    shards: usize,
    mbps: f64,
    cache_bytes: usize,
) -> (Duration, Duration, f64) {
    let (serial_wall, serial, _) = run_fleet(ds, shards, mbps, cache_bytes, 1, jobs);
    let (conc_wall, concurrent, _) = run_fleet(ds, shards, mbps, cache_bytes, jobs, jobs);
    for (s, c) in serial.iter().zip(&concurrent) {
        assert!(
            s.weights == c.weights,
            "job {} weights diverged between serial and concurrent runs",
            s.name,
        );
    }
    let ratio = serial_wall.as_secs_f64() / conc_wall.as_secs_f64();
    println!(
        "gate: serial {} vs {} concurrent {} -> {ratio:.2}x (weights bit-identical)",
        fmt_duration(serial_wall),
        jobs,
        fmt_duration(conc_wall),
    );
    assert!(
        ratio >= 2.0,
        "{jobs} concurrent jobs only {ratio:.2}x faster than serial (need >= 2.0x)"
    );
    (serial_wall, conc_wall, ratio)
}
