//! Streaming-ingestion scaling: prove the encode pipeline is
//! bounded-memory and live.
//!
//! The pitch of `toc ingest` / `StoreIngest` is that encoding never
//! materializes the dataset: rows stream through one reusable
//! chunk-sized workspace, each sealed chunk goes straight to the spill
//! store, and a trainer can consume sealed segments while later rows are
//! still arriving. This bench measures both claims and *asserts* them
//! (run in CI):
//!
//! 1. **Bounded memory.** Ingest the same drifting synthetic stream at
//!    1x, 4x and 16x the base row count. Peak encode-workspace bytes at
//!    16x must stay within 1.1x of the 1x run — growth in rows must not
//!    leak into the workspace.
//! 2. **Liveness.** At the largest scale, run ingestion on one thread
//!    while `Trainer::train_online` follows the same store. The trainer
//!    must close at least one prequential window *while ingestion is
//!    still appending*, and must end having consumed every sealed chunk.
//! 3. **Backpressure.** With `--max-pending` set, a producer racing a
//!    deliberately slow consumer must never hold more than the budget of
//!    unconsumed sealed chunks (and must demonstrably have stalled);
//!    against a consumer that keeps up, the bounded run's throughput
//!    must stay within 10% of the unbounded run.
//! 4. **Resume.** A checkpointing CSV→container ingest killed mid-stream
//!    and resumed must produce a container byte-identical to the
//!    uninterrupted run.
//!
//! A last, ungated leg (`csv`) times the parser alone: per dataset
//! preset, a file of at least 2 MB in the text `toc gen` writes, through
//! `csv::read_all`, as MB/s of text and rows/s — the parse share of an
//! ingest, and the guard that a parser change slows no preset down.
//!
//! Each run appends one dated entry to the `BENCH_ingest.json` history
//! at the repo root (override with `--out=`).
//!
//! ```text
//! cargo run -p toc-bench --release --bin ingest_scaling -- \
//!     --rows=1500 --chunk-rows=100 --shards=3 --window=4
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use toc_bench::{fmt_ratio, Args, History, Table};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{drifting_matrix, generate_preset, DatasetPreset};
use toc_data::{IngestStats, StoreIngest};
use toc_formats::{EncodeOptions, Scheme};
use toc_ml::mgd::{MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

const COLS: usize = 12;
const DISTINCT: usize = 6;
const SEED: u64 = 42;
const GROWTH: &[usize] = &[1, 4, 16];
/// Size of each preset's file in the `csv` leg: fixed, so that entries
/// taken at different commits compare.
const CSV_MIN_BYTES: u64 = 2_000_000;

/// Header of a fresh `BENCH_ingest.json`; an object-valued unit is a
/// `bench_compare` tolerance (see `toc_bench::paper::HEADER`).
const HEADER: &str = "{\n  \"bench\": \"ingest_scaling\",\n  \"units\": {\n    \"peak_workspace_bytes\": {\"what\": \"high-water mark of the reusable encode workspace\", \"better\": \"lower\", \"tolerance\": 0.1},\n    \"peak_ratio\": {\"what\": \"peak at largest scale / peak at base scale (asserted <= 1.1)\", \"better\": \"lower\", \"tolerance\": 0.05},\n    \"ingest_mb_s\": {\"what\": \"dense payload MB/s through push_row -> seal -> append\", \"better\": \"higher\", \"tolerance\": 0.5},\n    \"backpressure\": \"peak_pending: max unconsumed sealed chunks under --max-pending (asserted <= budget); throughput_ratio: bounded/unbounded MB/s with a keeping-up consumer (asserted >= 0.9)\",\n    \"resume\": \"bytes: container size after kill+resume (asserted == uninterrupted)\",\n    \"csv\": \"per preset, csv::read_all of a >= 2 MB toc-gen-format file, best of 7 reads\",\n    \"read_mb_s\": {\"what\": \"csv: MB/s of text\", \"better\": \"higher\", \"tolerance\": 0.5},\n    \"rows_per_s\": {\"what\": \"csv: rows/s\", \"better\": \"higher\", \"tolerance\": 0.5}\n  },\n";

struct ScalePoint {
    rows: usize,
    stats: IngestStats,
    mb_s: f64,
}

/// Stream `rows` synthetic rows through a fresh live store and return
/// the ingest stats plus dense-payload throughput.
fn run_scale(rows: usize, chunk_rows: usize, shards: usize) -> ScalePoint {
    let m = drifting_matrix(rows, COLS, DISTINCT, SEED);
    let config = StoreConfig::new(Scheme::Toc, chunk_rows, 0).with_shards(shards);
    let store = ShardedSpillStore::open_streaming(COLS, &config).expect("open streaming store");
    let mut ing = StoreIngest::new(&store, chunk_rows, None, EncodeOptions::default());
    let t0 = Instant::now();
    for r in 0..rows {
        ing.push_row(m.row(r), (r % 2) as f64).expect("push row");
    }
    let stats = ing.finish().expect("finish ingest");
    let elapsed = t0.elapsed();
    ScalePoint {
        rows,
        mb_s: (rows * COLS * 8) as f64 / 1e6 / elapsed.as_secs_f64().max(1e-12),
        stats,
    }
}

/// The liveness leg: ingest the largest stream on one thread while a
/// trainer follows the store online. Returns
/// (windows, windows_during_ingest, consumed, chunks).
fn run_liveness(
    rows: usize,
    chunk_rows: usize,
    shards: usize,
    window: usize,
) -> (usize, usize, usize, u64) {
    let m = drifting_matrix(rows, COLS, DISTINCT, SEED);
    let config = StoreConfig::new(Scheme::Toc, chunk_rows, 0).with_shards(shards);
    let store = ShardedSpillStore::open_streaming(COLS, &config).expect("open streaming store");
    let trainer = Trainer::new(MgdConfig {
        epochs: 1,
        lr: 0.2,
        seed: SEED,
        record_curve: false,
        shuffle_batches: false,
    });
    let spec = ModelSpec::Linear(LossKind::Logistic);
    let done = AtomicBool::new(false);

    let (report, stats) = std::thread::scope(|s| {
        let store_ref = &store;
        let done_ref = &done;
        let m_ref = &m;
        let ingest = s.spawn(move || {
            let run = || -> std::io::Result<IngestStats> {
                let mut ing =
                    StoreIngest::new(store_ref, chunk_rows, None, EncodeOptions::default());
                for r in 0..rows {
                    ing.push_row(m_ref.row(r), (r % 2) as f64)?;
                    // Stretch the stream so "trainer keeps up with a
                    // producer" is actually exercised, not a no-op
                    // because ingest finished before the first window.
                    if r % chunk_rows == chunk_rows - 1 {
                        std::thread::sleep(std::time::Duration::from_micros(400));
                    }
                }
                ing.finish()
            };
            let out = run();
            done_ref.store(true, Ordering::Release);
            out
        });
        let report =
            trainer.train_online(&spec, &store, window, &mut || !done.load(Ordering::Acquire));
        let stats = ingest
            .join()
            .expect("ingest thread panicked")
            .expect("ingest failed");
        (report, stats)
    });

    (
        report.windows.len(),
        report.windows_during_ingest,
        report.consumed,
        stats.chunks,
    )
}

/// Gate-3 helper: stream `rows` through a live store with an optional
/// pending budget while a consumer thread drains sealed chunks in order,
/// sleeping `consumer_lag` between visits. Returns (MB/s, peak pending,
/// stall ns).
fn run_backpressure(
    rows: usize,
    chunk_rows: usize,
    shards: usize,
    budget: usize,
    consumer_lag: std::time::Duration,
) -> (f64, usize, u64) {
    let m = drifting_matrix(rows, COLS, DISTINCT, SEED);
    let mut config = StoreConfig::new(Scheme::Toc, chunk_rows, 0).with_shards(shards);
    if budget > 0 {
        config = config.with_max_pending(budget);
    }
    let store = ShardedSpillStore::open_streaming(COLS, &config).expect("open streaming store");
    let done = AtomicBool::new(false);
    let mut mb_s = 0.0;
    std::thread::scope(|s| {
        let store_ref = &store;
        let done_ref = &done;
        let m_ref = &m;
        let producer = s.spawn(move || {
            let mut ing = StoreIngest::new(store_ref, chunk_rows, None, EncodeOptions::default());
            let t0 = Instant::now();
            for r in 0..rows {
                ing.push_row(m_ref.row(r), (r % 2) as f64)
                    .expect("push row");
            }
            ing.finish().expect("finish ingest");
            let dt = t0.elapsed().as_secs_f64().max(1e-12);
            done_ref.store(true, Ordering::Release);
            (rows * COLS * 8) as f64 / 1e6 / dt
        });
        use toc_ml::mgd::BatchProvider;
        let mut next = 0usize;
        loop {
            if next < store_ref.num_batches() {
                store_ref.visit(next, &mut |_, _| {});
                next += 1;
                if !consumer_lag.is_zero() {
                    std::thread::sleep(consumer_lag);
                }
            } else if done_ref.load(Ordering::Acquire) && next >= store_ref.num_batches() {
                break;
            } else {
                std::thread::yield_now();
            }
        }
        mb_s = producer.join().expect("producer panicked");
    });
    let stall = store.stats().snapshot_stable().ingest_stall_ns;
    (mb_s, store.peak_pending_appends(), stall)
}

/// Gate-4 helper: write a CSV, ingest it uninterrupted, then kill a
/// checkpointing run mid-stream and resume. Returns (uninterrupted
/// bytes, resumed bytes, chunks restored from the checkpoint).
fn run_resume_gate(rows: usize, chunk_rows: usize) -> (u64, u64, u64) {
    use std::io::Write as _;
    use toc_data::ingest::{ingest_csv_container_killable, KillPoint};
    use toc_data::{ingest_csv_container, sidecar_path, CsvContainerJob};

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let csv = dir.join(format!("toc-bench-resume-{pid}.csv"));
    let full = dir.join(format!("toc-bench-resume-full-{pid}.tocz"));
    let killed = dir.join(format!("toc-bench-resume-killed-{pid}.tocz"));

    let m = drifting_matrix(rows, COLS, DISTINCT, SEED);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&csv).expect("create csv"));
    for r in 0..rows {
        let line = m
            .row(r)
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",");
        writeln!(f, "{line}").expect("write csv row");
    }
    f.into_inner().expect("flush csv").sync_all().ok();

    let job = |out: &std::path::Path| CsvContainerJob {
        csv: csv.clone(),
        out: out.to_path_buf(),
        chunk_rows,
        scheme: None,
        encode: EncodeOptions::default(),
        checkpoint_every: 2,
    };
    let baseline = ingest_csv_container(&job(&full), false).expect("uninterrupted ingest");
    let chunks = baseline.stats.chunks;
    let kill_at = (chunks / 2).max(1);
    let outcome = ingest_csv_container_killable(
        &job(&killed),
        false,
        Some(KillPoint::AfterSealedChunk { chunks: kill_at }),
    )
    .expect("killable ingest");
    assert!(outcome.killed.is_some(), "kill point never fired");
    let resumed = ingest_csv_container(&job(&killed), true).expect("resumed ingest");
    assert!(
        !sidecar_path(&killed).exists(),
        "sidecar survived a successful resume"
    );
    let full_bytes = std::fs::metadata(&full).expect("stat full").len();
    let killed_bytes = std::fs::metadata(&killed).expect("stat resumed").len();
    let identical =
        std::fs::read(&full).expect("read full") == std::fs::read(&killed).expect("read resumed");
    for p in [&csv, &full, &killed] {
        std::fs::remove_file(p).ok();
    }
    assert!(
        identical,
        "resumed container ({killed_bytes} B) differs from uninterrupted ({full_bytes} B)"
    );
    (full_bytes, killed_bytes, resumed.resumed_chunks)
}

/// One preset of the `csv` leg.
struct CsvPoint {
    preset: &'static str,
    bytes: u64,
    rows: usize,
    mb_s: f64,
    rows_s: f64,
}

/// The `csv` leg: write each preset the way `toc gen` does (features,
/// then the label; shortest round-trip numbers), at least
/// [`CSV_MIN_BYTES`] of it, and time `csv::read_all` over the file — best
/// of 7 reads, the file in the page cache.
fn run_csv_leg() -> Vec<CsvPoint> {
    use std::fmt::Write as _;
    let path = std::env::temp_dir().join(format!("toc-bench-csv-{}.csv", std::process::id()));
    let mut points = Vec::new();
    for preset in DatasetPreset::ALL {
        // Size the table from the text of a few rows.
        let mut rows = 32usize;
        let text = loop {
            let ds = generate_preset(preset, rows, SEED);
            let mut text = String::new();
            for r in 0..rows {
                for v in ds.x.row(r) {
                    write!(text, "{v},").expect("format cell");
                }
                writeln!(text, "{}", ds.labels[r]).expect("format label");
            }
            if text.len() as u64 >= CSV_MIN_BYTES {
                break text;
            }
            rows = (rows as u64 * CSV_MIN_BYTES / text.len() as u64) as usize * 21 / 20 + 1;
        };
        std::fs::write(&path, &text).expect("write csv");
        let mut best = f64::INFINITY;
        for _ in 0..7 {
            let t0 = Instant::now();
            let (parsed, ..) = toc_data::csv::read_all(&path).expect("parse csv");
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(parsed, rows);
        }
        points.push(CsvPoint {
            preset: preset.name(),
            bytes: text.len() as u64,
            rows,
            mb_s: text.len() as f64 / 1e6 / best,
            rows_s: rows as f64 / best,
        });
    }
    std::fs::remove_file(&path).ok();
    points
}

fn main() {
    let mut args = Args::from_env();
    let rows: usize = args.get("rows", 1500);
    let chunk_rows: usize = args.get("chunk-rows", 100);
    let shards: usize = args.get("shards", 3);
    let window: usize = args.get("window", 4);
    let budget: usize = args.get("max-pending", 4);
    let history = History::from_args(&mut args, "BENCH_ingest.json");
    args.finish();

    println!(
        "ingest_scaling: base {rows} rows x {COLS} cols, chunk {chunk_rows}, {shards} shards, \
         scales {GROWTH:?}"
    );

    let mut table = Table::new(vec![
        "scale",
        "rows",
        "chunks",
        "encoded KB",
        "peak ws KB",
        "MB/s",
        "schemes",
    ]);
    let mut points: Vec<ScalePoint> = Vec::new();
    for &g in GROWTH {
        let p = run_scale(rows * g, chunk_rows, shards);
        table.row(vec![
            format!("{g}x"),
            p.rows.to_string(),
            p.stats.chunks.to_string(),
            (p.stats.encoded_bytes / 1024).to_string(),
            format!("{:.1}", p.stats.peak_workspace_bytes as f64 / 1024.0),
            format!("{:.1}", p.mb_s),
            p.stats.scheme_summary(),
        ]);
        points.push(p);
    }
    table.print();

    // Gate 1: bounded memory. The workspace high-water mark is set by
    // chunk geometry, never by how many rows flow through it.
    let peak_small = points.first().unwrap().stats.peak_workspace_bytes;
    let peak_large = points.last().unwrap().stats.peak_workspace_bytes;
    let peak_ratio = peak_large as f64 / peak_small as f64;
    println!(
        "gate: peak workspace {peak_small} B at 1x vs {peak_large} B at 16x -> {}",
        fmt_ratio(peak_ratio),
    );
    assert!(
        peak_ratio <= 1.1,
        "encode workspace grew {peak_ratio:.3}x while rows grew 16x (need <= 1.1x)"
    );

    // Gate 2: liveness. The online trainer must make progress while
    // ingestion is still appending, and drain every sealed chunk.
    let largest = rows * GROWTH.last().unwrap();
    let (windows, during, consumed, chunks) = run_liveness(largest, chunk_rows, shards, window);
    println!(
        "gate: online trainer closed {during}/{windows} windows during ingest, \
         consumed {consumed}/{chunks} chunks"
    );
    assert!(
        during >= 1,
        "trainer closed no windows while ingestion was live (windows={windows})"
    );
    assert_eq!(
        consumed, chunks as usize,
        "trainer consumed {consumed} of {chunks} sealed chunks"
    );

    // Gate 3: backpressure. Against a consumer an order of magnitude
    // slower than the producer the pending window must be capped at the
    // budget (with observable stall time); against a consumer that keeps
    // up, the bound must cost < 10% throughput (best of 3 runs to damp
    // noise).
    let lag = std::time::Duration::from_millis(10);
    let (_, peak_pending, stall_ns) = run_backpressure(rows, chunk_rows, shards, budget, lag);
    println!(
        "gate: backpressure budget {budget} -> peak pending {peak_pending}, \
         stalled {:.1} ms against a slow consumer",
        stall_ns as f64 / 1e6,
    );
    assert!(
        peak_pending <= budget,
        "producer held {peak_pending} unconsumed chunks past the budget of {budget}"
    );
    assert!(
        stall_ns > 0,
        "a producer racing a 10ms/chunk consumer never stalled — the bound is not engaging"
    );
    let mut bp_ratio: f64 = 0.0;
    for _ in 0..3 {
        let (free_mb_s, _, _) =
            run_backpressure(rows, chunk_rows, shards, 0, std::time::Duration::ZERO);
        let (bound_mb_s, _, _) =
            run_backpressure(rows, chunk_rows, shards, budget, std::time::Duration::ZERO);
        bp_ratio = bp_ratio.max(bound_mb_s / free_mb_s);
        if bp_ratio >= 0.9 {
            break;
        }
    }
    println!(
        "gate: bounded/unbounded throughput with a keeping-up consumer -> {}",
        fmt_ratio(bp_ratio),
    );
    assert!(
        bp_ratio >= 0.9,
        "max-pending={budget} cost {:.1}% throughput against a consumer that keeps up",
        (1.0 - bp_ratio) * 100.0,
    );

    // Gate 4: crash-safe resume. Kill a checkpointing CSV ingest halfway
    // and resume it; the container must be byte-identical.
    let (resume_bytes, _, restored) = run_resume_gate(rows, chunk_rows);
    println!(
        "gate: kill+resume reproduced the {resume_bytes}-byte container bit-exactly \
         ({restored} chunks restored from the checkpoint)"
    );

    // The parser alone, per preset (ungated: a throughput, not a ratio).
    let csv_points = run_csv_leg();
    let mut csv_table = Table::new(vec!["csv preset", "rows", "KB", "MB/s", "rows/s"]);
    for p in &csv_points {
        csv_table.row(vec![
            p.preset.to_string(),
            p.rows.to_string(),
            (p.bytes / 1024).to_string(),
            format!("{:.1}", p.mb_s),
            format!("{:.0}", p.rows_s),
        ]);
    }
    csv_table.print();
    let csv_json: Vec<String> = csv_points
        .iter()
        .map(|p| {
            format!(
                "        {{\"preset\": \"{}\", \"bytes\": {}, \"rows\": {}, \"read_mb_s\": {:.1}, \"rows_per_s\": {:.0}}}",
                p.preset, p.bytes, p.rows, p.mb_s, p.rows_s
            )
        })
        .collect();
    let csv_json = csv_json.join(",\n");

    // Append this run to the per-PR history baseline.
    let mut sweep = String::new();
    for (i, p) in points.iter().enumerate() {
        sweep.push_str(&format!(
            "        {{\"scale\": {}, \"rows\": {}, \"chunks\": {}, \"encoded_bytes\": {}, \"peak_workspace_bytes\": {}, \"ingest_mb_s\": {:.1}}}{}\n",
            GROWTH[i], p.rows, p.stats.chunks, p.stats.encoded_bytes,
            p.stats.peak_workspace_bytes, p.mb_s,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    let payload = format!(
        "      \"rows_base\": {rows},\n      \"cols\": {COLS},\n      \"chunk_rows\": {chunk_rows},\n      \"shards\": {shards},\n      \"peak_ratio\": {peak_ratio:.3},\n      \"liveness\": {{\"window\": {window}, \"windows\": {windows}, \"windows_during_ingest\": {during}, \"consumed\": {consumed}}},\n      \"backpressure\": {{\"budget\": {budget}, \"peak_pending\": {peak_pending}, \"stall_ms\": {:.1}, \"throughput_ratio\": {bp_ratio:.3}}},\n      \"resume\": {{\"bytes\": {resume_bytes}, \"restored_chunks\": {restored}, \"identical\": true}},\n      \"sweep\": [\n{sweep}      ],\n      \"csv\": [\n{csv_json}\n      ]",
        stall_ns as f64 / 1e6,
    );
    history.append(HEADER, &payload);
}
