#![forbid(unsafe_code)]
//! `toc` — command-line front end for tuple-oriented compression.
//!
//! ```text
//! toc gen --preset census --rows 1000 data.csv     generate synthetic data
//! toc compress data.csv data.tocz [--scheme toc]   CSV -> compressed batches
//! toc decompress data.tocz back.csv                compressed -> CSV
//! toc inspect data.tocz                            per-batch statistics
//! toc bench data.csv                               compare all schemes
//! toc train data.csv --model lr --epochs 10        MGD training (last column = label)
//! ```
//!
//! Every command is one entry of [`COMMANDS`]: its positionals and exactly
//! the flags it honours. [`args::parse`] checks argv against that entry
//! and `toc help` / `toc <cmd> --help` are generated from it.

mod args;
#[cfg(test)]
mod container;
mod csv;
#[cfg(test)]
mod testutil;

use args::{Args, Command, Flag, Group};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use toc_data::csv::RowSink;
use toc_data::store::{split_label, ShardedSpillStore, StoreBuilder, StoreConfig};
use toc_data::{CsvError, CsvIngestOutcome, CsvStream, SeekableContainer};
use toc_formats::container::Container;
use toc_formats::{AnyBatch, ClaOptions, EncodeOptions, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec, TrainedModel, Trainer};
use toc_ml::LossKind;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatch `toc <command> ...` through the command table.
fn run(argv: &[String]) -> Result<(), String> {
    let name = match argv.first().map(String::as_str) {
        Some("help" | "--help" | "-h") | None => {
            print!("{}", args::overview(COMMANDS));
            return Ok(());
        }
        Some(name) => name,
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; see `toc help`"))?;
    match args::parse(cmd, &argv[1..])? {
        Some(parsed) => (cmd.run)(&parsed),
        None => {
            print!("{}", cmd.help());
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// The flag table: every flag is declared here once and read through its
// entry; a command accepts exactly the flags its `COMMANDS` row lists.
// An empty metavar makes a flag boolean.

macro_rules! flags {
    ($($id:ident = $name:literal $metavar:literal $help:literal;)*) => {
        $(static $id: Flag = Flag { name: $name, metavar: $metavar, help: $help };)*
    };
}

flags! {
    PRESET = "--preset" "<name>" "census|imagenet|mnist|kdd99|rcv1|deep1b (required)";
    GEN_ROWS = "--rows" "<n>" "rows to generate (required)";
    SEED = "--seed" "<n>" "RNG seed (default 42); serve: job i trains with seed+i";
    ROW_RANGE = "--rows" "<a..b>" "decode only rows a..b (v2 reads just the overlapping segments)";
    PARALLEL = "--parallel" "<n>" "decode touched segments on n threads (default 1)";
    SEGMENT_ROWS = "--segment-rows" "<n>" "rows per seekable segment (default 250)";
    CHUNK_ROWS = "--chunk-rows" "<n>" "rows per streamed chunk = segment, >= 1 (default 250)";
    CHECKPOINT_EVERY = "--checkpoint-every" "<chunks>"
        "write a resumable <out>.ckpt sidecar every N sealed chunks (default 0; resuming: 8)";
    RESUME = "--resume" "" "continue a checkpointed ingest to a byte-identical container";
    SCHEME = "--scheme" "<s>"
        "den|csr|cvi|dvi|cla|snappy|gzip|ans|toc|toc-varint (default toc); ingest/compress: + auto";
    BATCH_ROWS = "--batch-rows" "<n>" "rows per mini-batch (default 250)";
    CLA_PLANNER = "--cla-planner" "<greedy|sample>" "CLA column-grouping planner (default sample)";
    CLA_SAMPLE = "--cla-sample" "<rows>" "CLA planner sample size, >= 1 (default 256)";
    MODEL = "--model" "<lr|svm|linreg>" "linear model (default lr)";
    EPOCHS = "--epochs" "<n>" "training epochs (default 10; serve: 3)";
    LR = "--lr" "<f>" "learning rate (default 0.05)";
    BUDGET = "--budget" "<bytes>"
        "in-memory budget, the rest spills (train: turns the spill store on; serve: default 0)";
    SHARDS = "--shards" "<n>" "spill files (default 0 = auto)";
    MBPS = "--mbps" "<f>" "simulated per-shard disk bandwidth, finite and > 0";
    PLACEMENT = "--placement" "<stripe|pack|adaptive>"
        "spill layout; adaptive re-packs hot batches onto fast shards per epoch (default stripe)";
    PREFETCH = "--prefetch" "<k>" "prefetch depth (default 0 = off)";
    IO = "--io" "<sync|ring>"
        "who reads: the decode workers, or ring IO threads that coalesce adjacent reads (default sync)";
    IO_THREADS = "--io-threads" "<n>" "ring IO threads (default 0 = auto)";
    DECODE_WORKERS = "--decode-workers" "<n>" "decode workers (default 0 = auto)";
    FOLLOW = "--follow" "" "tail the CSV as it grows; an online-SGD pass trains as segments seal";
    WINDOW = "--window" "<batches>" "prequential-error window, >= 1 (default 8)";
    MAX_PENDING = "--max-pending" "<chunks>"
        "block ingest this many sealed chunks ahead of the trainer (default 0 = unbounded)";
    POLL_MS = "--poll-ms" "<n>" "file poll interval (default 10)";
    IDLE_MS = "--idle-ms" "<n>" "end the stream after this long without growth, >= 1 (default 400)";
    JOBS = "--jobs" "<n>" "concurrent jobs, >= 1 (default 4)";
    SCRIPT = "--script" "<file>"
        "one job per line: name= model= epochs= lr= seed= share= tokens ('#' comments)";
    MAX_CONCURRENT = "--max-concurrent" "<n>" "admission gate (default 0 = unlimited)";
    CACHE_BUDGET = "--cache-budget" "<bytes>"
        "shared compressed-batch cache (default: a quarter of the spilled bytes)";
    SHARES = "--shares" "<s0,s1,...>" "QoS share of job i is s[i mod len] (default 1)";
}

/// Encode knobs of every command that encodes.
static CLA: Group = &[&CLA_PLANNER, &CLA_SAMPLE];
/// How `train` and `serve` encode their mini-batches.
static ENCODE: Group = &[&SCHEME, &BATCH_ROWS, &CLA_PLANNER, &CLA_SAMPLE];
/// The model trained by `train` and by each `serve` job.
static MODEL_GROUP: Group = &[&MODEL, &EPOCHS, &LR];
/// Layout of the out-of-core sharded spill store.
static STORE: Group = &[&SHARDS, &MBPS, &PLACEMENT];
/// The background prefetch/decode pipeline over the spilled batches.
static PIPELINE: Group = &[&PREFETCH, &IO, &IO_THREADS, &DECODE_WORKERS];
/// Knobs of `train --follow`, which tails a growing CSV into a live store.
static FOLLOW_KNOBS: Group = &[&WINDOW, &MAX_PENDING, &POLL_MS, &IDLE_MS];
/// `serve`: the job list and what the jobs share (besides the seed).
static SERVE: Group = &[&JOBS, &SCRIPT, &MAX_CONCURRENT, &CACHE_BUDGET, &SHARES];

/// One row per command: name, positionals, handler, flag groups, summary.
macro_rules! commands {
    ($($name:literal $pos:tt $run:ident $groups:tt $about:literal;)*) => {
        static COMMANDS: &[Command] = &[$(Command {
            name: $name, positionals: &$pos, about: $about, groups: &$groups, run: $run,
        }),*];
    };
}

commands! {
    "gen" ["<out.csv>"] cmd_gen [&[&PRESET, &GEN_ROWS, &SEED]]
        "generate a synthetic dataset (features, then the label as the last column)";
    "ingest" ["<in.csv>", "<out.tocz>"] cmd_ingest
        [&[&CHUNK_ROWS, &SCHEME, &CHECKPOINT_EVERY, &RESUME], CLA]
        "bounded-memory streaming encode, one v2 segment per sealed chunk (default: auto)";
    "compress" ["<in.csv>", "<out.tocz>"] cmd_compress [&[&SCHEME, &SEGMENT_ROWS], CLA]
        "encode a CSV into a seekable v2 container";
    "decompress" ["<in.tocz>", "<out.csv>"] cmd_decompress [&[&ROW_RANGE, &PARALLEL]]
        "decode a container (v1 or v2) back to CSV";
    "inspect" ["<in.tocz>"] cmd_inspect []
        "per-batch statistics; v2: the footer's layout tree and zone maps";
    "bench" ["<in.csv>"] cmd_bench [&[&BATCH_ROWS], CLA]
        "size, encode time and A*v time of every scheme on the first batch";
    "train" ["<in.csv|in.tocz>"] cmd_train
        [ENCODE, MODEL_GROUP, &[&BUDGET], STORE, PIPELINE, &[&FOLLOW], FOLLOW_KNOBS]
        "MGD training; the last column is the +-1 label";
    "serve" ["<in.csv|in.tocz>"] cmd_serve
        [ENCODE, MODEL_GROUP, &[&BUDGET], STORE, SERVE, &[&SEED]]
        "concurrent training jobs over one shared spill store and compressed-batch cache";
}

// ---------------------------------------------------------------------------
// Readers shared by the commands.

/// The CLA planner knobs.
fn encode_options(a: &Args) -> Result<EncodeOptions, String> {
    let defaults = ClaOptions::default();
    Ok(EncodeOptions {
        cla: ClaOptions {
            planner: a.get(&CLA_PLANNER, defaults.planner)?,
            // An empty sample estimates every column as incompressible and
            // silently produces an uncompressed CLA plan; reject it.
            sample_rows: a.at_least_one(&CLA_SAMPLE, defaults.sample_rows)?,
        },
    })
}

fn parse_scheme(s: &str) -> Result<Scheme, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "den" => Scheme::Den,
        "csr" => Scheme::Csr,
        "cvi" => Scheme::Cvi,
        "dvi" => Scheme::Dvi,
        "cla" => Scheme::Cla,
        "snappy" => Scheme::Snappy,
        "gzip" => Scheme::Gzip,
        "toc" => Scheme::Toc,
        "toc-varint" => Scheme::TocVarint,
        "ans" => Scheme::GcAns,
        other => return Err(format!("unknown scheme {other:?}")),
    })
}

/// `--scheme`, where `auto` (`None`) is also allowed.
fn scheme_or_auto(a: &Args, default: &str) -> Result<Option<Scheme>, String> {
    let s = a.raw(&SCHEME).unwrap_or(default);
    if s.eq_ignore_ascii_case("auto") {
        return Ok(None);
    }
    parse_scheme(s).map(Some)
}

fn loss_kind(model: &str) -> Result<LossKind, String> {
    match model {
        "lr" => Ok(LossKind::Logistic),
        "svm" => Ok(LossKind::Hinge),
        "linreg" => Ok(LossKind::Squared),
        other => Err(format!("unknown model {other:?}")),
    }
}

/// A CSV reader's error, with the path on the IO failures that lack it.
fn csv_error(path: &Path, e: CsvError) -> String {
    match e {
        CsvError::Io(e) => format!("open {}: {e}", path.display()),
        other => other.to_string(),
    }
}

/// Every row of a `.tocz` container in order, one decoded segment in
/// memory at a time: a v2 file through the seekable reader; the legacy v1
/// format has no footer to seek by and is parsed whole, as it always was.
fn container_rows(path: &Path, f: RowSink<'_>) -> Result<(), String> {
    if container_version(path)? == 2 {
        return SeekableContainer::open(path)?.for_each_row(f);
    }
    toc_data::io::batch_rows(Container::read(path)?.batches.into_iter().map(Ok), f)
}

/// The one way `train` and `serve` fill their store: every row of a `.csv`
/// or a `.tocz` streams into the builder, the last column as the label, so
/// no more of the input is ever held than the chunk being staged.
fn build_store(input: &str, config: &StoreConfig) -> Result<ShardedSpillStore, String> {
    let too_narrow = "need at least one feature column plus the label column";
    let mut builder: Option<StoreBuilder> = None;
    let mut fill = |_: usize, row: &[f64]| {
        if row.len() < 2 {
            return Err(too_narrow.to_string());
        }
        let (features, label) = split_label(row);
        builder
            .get_or_insert_with(|| StoreBuilder::new(features.len(), config))
            .push_row(features, label)
            .map_err(|e| e.to_string())
    };
    let path = Path::new(input);
    if input.ends_with(".tocz") {
        container_rows(path, &mut fill)?;
    } else {
        toc_data::stream_rows(path, &mut fill).map_err(|e| csv_error(path, e))?;
    }
    let store = builder.ok_or(too_narrow)?.finish();
    store.map_err(|e| e.to_string())
}

/// The one store configuration of `train` and `serve`, from the encode,
/// store-layout, pipeline and follow groups (a group the command does not
/// declare reads as its defaults).
fn store_config(a: &Args, budget: usize) -> Result<StoreConfig, String> {
    use toc_data::{IoEngineKind, SchedulerConfig, ShardPlacement};
    let scheme = parse_scheme(a.raw(&SCHEME).unwrap_or("toc"))?;
    let mut config = StoreConfig::new(scheme, a.at_least_one(&BATCH_ROWS, 250)?, budget)
        .with_shards(a.get(&SHARDS, 0)?)
        .with_prefetch(a.get(&PREFETCH, 0)?)
        .with_io(a.get(&IO, IoEngineKind::Sync)?)
        .with_placement(a.get(&PLACEMENT, ShardPlacement::Stripe)?)
        .with_scheduler(SchedulerConfig {
            io_threads: a.get(&IO_THREADS, 0)?,
            decode_workers: a.get(&DECODE_WORKERS, 0)?,
            ..SchedulerConfig::default()
        })
        .with_encode_options(encode_options(a)?)
        .with_max_pending(a.get(&MAX_PENDING, 0)?);
    if let Some(mbps) = a.value::<f64>(&MBPS)? {
        if !(mbps.is_finite() && mbps > 0.0) {
            return Err(format!("{} must be > 0, got {mbps}", MBPS.name));
        }
        config = config.with_disk_mbps(mbps);
    }
    Ok(config)
}

/// The rows of `store` and the share of them `model` misclassifies, one
/// batch at a time off the store itself, so no dense copy of the dataset
/// is ever made for it. Misclassified rows are summed as integers: the
/// share is the one a single pass over all the rows would report.
fn training_error(store: &ShardedSpillStore, model: &mut TrainedModel) -> (usize, f64) {
    let mut ws = toc_ml::ExecWorkspace::new();
    let (mut rows, mut wrong) = (0usize, 0usize);
    for i in 0..store.num_batches() {
        store.visit(i, &mut |batch, labels| {
            let n = labels.len();
            wrong += (model.error_rate_ws(batch, labels, &mut ws) * n as f64).round() as usize;
            rows += n;
        });
    }
    (rows, wrong as f64 / rows as f64)
}

fn print_store_line(store: &ShardedSpillStore) {
    println!(
        "store: {} in-memory + {} spilled batches across {} shards ({} KB spilled)",
        store.in_memory_batches(),
        store.spilled_batches(),
        store.num_shards(),
        store.spilled_bytes() / 1024,
    );
}

fn cmd_gen(a: &Args) -> Result<(), String> {
    use toc_data::synth::{generate_preset, DatasetPreset};
    let missing = |f: &Flag| format!("{} required", f.name);
    let preset_name = a.raw(&PRESET).ok_or_else(|| missing(&PRESET))?;
    let preset = DatasetPreset::ALL
        .into_iter()
        .find(|p| p.name() == preset_name)
        .ok_or_else(|| format!("unknown preset {preset_name:?}"))?;
    let rows: usize = a.value(&GEN_ROWS)?.ok_or_else(|| missing(&GEN_ROWS))?;
    let seed: u64 = a.get(&SEED, 42)?;
    let out = Path::new(a.pos(0));
    let ds = generate_preset(preset, rows, seed);
    // Emit features plus the label as the last column, a row at a time.
    let mut w = csv::CsvWriter::create(out, None)?;
    for (r, &label) in ds.labels.iter().enumerate() {
        w.row(&[ds.x.row(r), &[label]].concat())?;
    }
    w.finish()?;
    println!(
        "wrote {} rows x {} cols (+label) to {}",
        ds.x.rows(),
        ds.x.cols(),
        out.display()
    );
    Ok(())
}

/// An output being written piece by piece: removed on drop while `armed`,
/// so a command that errors *or panics* half way never leaves a truncated
/// file behind. Disarm once the output is complete.
struct Unfinished<'a> {
    path: &'a Path,
    armed: bool,
}

impl Drop for Unfinished<'_> {
    fn drop(&mut self) {
        if self.armed {
            std::fs::remove_file(self.path).ok();
        }
    }
}

/// `<in.csv>` → `<out.tocz>` through the one streaming encoder, for
/// `ingest` and `compress`; `scheme` is `None` for the per-chunk pick over
/// `Scheme::AUTO_SET`. Returns the outcome and the wall time.
fn ingest_container(
    a: &Args,
    chunk_rows: usize,
    scheme: Option<Scheme>,
    checkpoint_every: u64,
    resume: bool,
) -> Result<(CsvIngestOutcome, Duration), String> {
    let out_path = Path::new(a.pos(1));
    let job = toc_data::CsvContainerJob {
        csv: Path::new(a.pos(0)).to_path_buf(),
        out: out_path.to_path_buf(),
        chunk_rows,
        scheme,
        encode: encode_options(a)?,
        checkpoint_every,
    };
    let t0 = Instant::now();
    // With checkpointing, the partial output plus its sidecar IS the
    // resume artifact and must survive.
    let mut guard = Unfinished {
        path: out_path,
        armed: checkpoint_every == 0,
    };
    let outcome = toc_data::ingest_csv_container(&job, resume).map_err(|e| match e {
        toc_data::IngestError::Csv(e) => csv_error(&job.csv, e),
        other => other.to_string(),
    })?;
    guard.armed = false;
    Ok((outcome, t0.elapsed()))
}

fn cmd_ingest(a: &Args) -> Result<(), String> {
    let chunk_rows: usize = a.at_least_one(&CHUNK_ROWS, 250)?;
    let resume = a.has(&RESUME);
    // --resume implies periodic checkpointing (a resumed run must stay
    // resumable); --checkpoint-every alone makes a fresh run resumable.
    let checkpoint_every: u64 = a.get(&CHECKPOINT_EVERY, if resume { 8 } else { 0 })?;
    if resume && checkpoint_every == 0 {
        let every = CHECKPOINT_EVERY.name;
        return Err(format!(
            "{RESUME} needs checkpointing; {every} must be >= 1"
        ));
    }
    let scheme = scheme_or_auto(a, "auto")?;
    let (outcome, elapsed) = ingest_container(a, chunk_rows, scheme, checkpoint_every, resume)?;
    let stats = &outcome.stats;
    // Machine-parseable counters (the CLI smoke tests parse this line):
    // key=value pairs only.
    println!(
        "ingest: rows={} cols={} chunks={} chunk-rows={chunk_rows} bytes={} \
         peak-workspace-bytes={} schemes={} resumed-chunks={}",
        stats.rows,
        outcome.cols,
        stats.chunks,
        outcome.total_bytes,
        stats.peak_workspace_bytes,
        stats.scheme_summary(),
        outcome.resumed_chunks,
    );
    println!(
        "wrote {} in {elapsed:.1?}: {} rows x {} cols as {} segments \
         ({} KB wire, peak workspace {} KB)",
        a.pos(1),
        stats.rows,
        outcome.cols,
        stats.chunks,
        outcome.total_bytes / 1024,
        stats.peak_workspace_bytes / 1024,
    );
    Ok(())
}

/// `ingest` without a sidecar, and with TOC where `ingest` defaults to
/// `auto`.
fn cmd_compress(a: &Args) -> Result<(), String> {
    let segment_rows: usize = a.at_least_one(&SEGMENT_ROWS, 250)?;
    let scheme = scheme_or_auto(a, "toc")?;
    let (outcome, elapsed) = ingest_container(a, segment_rows, scheme, 0, false)?;
    let stats = &outcome.stats;
    if scheme.is_none() {
        println!("auto: schemes={}", stats.scheme_summary());
    }
    let name = scheme.map_or("auto", Scheme::name);
    let den = 16 + 8 * stats.rows * outcome.cols as u64;
    println!(
        "{name}: {} rows x {} cols -> {} batches, {den} -> {} bytes ({:.1}x) in {elapsed:.1?}",
        stats.rows,
        outcome.cols,
        stats.chunks,
        stats.encoded_bytes,
        den as f64 / stats.encoded_bytes as f64,
    );
    Ok(())
}

/// Parse a row range `a..b` (start may be omitted: `..b` means `0..b`).
fn parse_row_range(s: &str) -> Result<(usize, usize), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("expected <start>..<end>, got {s:?}"))?;
    let a: usize = if a.is_empty() {
        0
    } else {
        a.parse().map_err(|e| format!("start: {e}"))?
    };
    let b: usize = b.parse().map_err(|e| format!("end: {e}"))?;
    if a > b {
        return Err(format!("start {a} exceeds end {b}"));
    }
    Ok((a, b))
}

/// The version byte of a `.tocz` file (offset 4), without parsing it.
/// Checks the magic first so a non-`.tocz` input is reported as such
/// instead of whatever its fifth byte happens to be.
fn container_version(path: &Path) -> Result<u8, String> {
    use std::io::Read;
    let mut head = [0u8; 5];
    let mut f = std::fs::File::open(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    f.read_exact(&mut head)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    if u32::from_le_bytes(head[0..4].try_into().unwrap()) != toc_formats::container::MAGIC {
        return Err(format!("{}: not a .tocz container", path.display()));
    }
    Ok(head[4])
}

fn cmd_decompress(a: &Args) -> Result<(), String> {
    let (input, output) = (a.pos(0), a.pos(1));
    let rows = a.raw(&ROW_RANGE).map(parse_row_range).transpose();
    let rows = rows.map_err(|e| format!("{}: {e}", ROW_RANGE.name))?;
    let parallel: usize = a.get(&PARALLEL, 1)?;
    let path = Path::new(input);
    let mut out = csv::CsvWriter::create(Path::new(output), None)?;
    let mut guard = Unfinished {
        path: Path::new(output),
        armed: true,
    };
    let (n_rows, n_cols) = match rows {
        None => {
            let (mut n_rows, mut n_cols) = (0, 0);
            container_rows(path, &mut |_, row| {
                (n_rows, n_cols) = (n_rows + 1, row.len());
                out.row(row)
            })?;
            (n_rows, n_cols)
        }
        Some((r0, r1)) => {
            let m = if container_version(path)? == 2 {
                // Seekable projection: only the segments overlapping the
                // range are read from disk at all.
                let sc = SeekableContainer::open(path)?;
                let m = sc.decode_rows_parallel(r0, r1, parallel)?;
                let s = sc.stats().snapshot();
                println!(
                    "seek: {} reads, {} of {} payload bytes",
                    s.disk_reads,
                    s.bytes_read,
                    sc.payload_bytes(),
                );
                m
            } else {
                Container::read(path)?.decode_rows(r0, r1)?
            };
            for r in 0..m.rows() {
                out.row(m.row(r))?;
            }
            (m.rows(), m.cols())
        }
    };
    out.finish()?;
    guard.armed = false;
    println!("decoded {n_rows} rows x {n_cols} cols to {output}");
    Ok(())
}

/// Print one layout-tree node (and children) with box-drawing indent,
/// spending from a shared line budget so giant containers stay readable.
fn print_layout_node(node: &toc_formats::container::LayoutNode, depth: usize, budget: &mut isize) {
    if *budget <= 0 {
        if *budget == 0 {
            println!("  {}...", "  ".repeat(depth));
            *budget -= 1;
        }
        return;
    }
    *budget -= 1;
    let kind = match node.scheme {
        Some(tag) => {
            let name = Scheme::ALL
                .iter()
                .find(|s| s.tag() == tag)
                .map(|s| s.name())
                .unwrap_or("?");
            format!("seg[{name}]")
        }
        None => "tree".to_string(),
    };
    println!(
        "  {}{kind} rows {}..{} bytes {}..{} zone[min={} max={} nnz={} distinct~{}]",
        "  ".repeat(depth),
        node.row_start,
        node.row_end,
        node.begin,
        node.end,
        node.zone.min,
        node.zone.max,
        node.zone.nnz,
        node.zone.distinct,
    );
    for c in &node.children {
        print_layout_node(c, depth + 1, budget);
    }
}

/// The `inspect` line of one decoded batch.
fn print_batch(i: usize, b: &AnyBatch) {
    let extra = if let AnyBatch::Toc(t) = b {
        let s = t.toc().stats();
        format!(
            " |I|={} uniq={} |D|={} nodes={}",
            s.first_layer_len, s.unique_values, s.codes_len, s.n_nodes
        )
    } else {
        String::new()
    };
    println!(
        "  batch {i}: {}x{} {} bytes{extra}",
        b.rows(),
        b.cols(),
        b.size_bytes()
    );
}

fn cmd_inspect(a: &Args) -> Result<(), String> {
    /// Batches printed in full; the rest are counted.
    const SHOWN: usize = 8;
    let input = a.pos(0);
    let path = Path::new(input);
    // (batches, rows, cols, encoded bytes). A v2 file answers from its
    // footer and the segments shown; v1 has to be parsed whole.
    let (batches, rows, cols, total) = if container_version(path)? == 2 {
        let sc = SeekableContainer::open(path)?;
        let (footer, ps) = (sc.footer(), sc.postscript());
        println!(
            "{}: v2, {} segments, {} rows x {} cols, footer {} bytes at {} (tree depth {})",
            input,
            sc.num_segments(),
            sc.total_rows(),
            sc.cols(),
            ps.footer_len,
            ps.footer_offset,
            footer.root.depth(),
        );
        println!("layout:");
        let mut budget: isize = 40;
        print_layout_node(&footer.root, 0, &mut budget);
        println!("{}: {} batches", input, sc.num_segments());
        for i in 0..sc.num_segments().min(SHOWN) {
            print_batch(i, &sc.decode_segment(i)?);
        }
        let total = sc.payload_bytes() as usize;
        (sc.num_segments(), sc.total_rows(), sc.cols(), total)
    } else {
        let container = Container::read(path)?;
        println!("{}: {} batches", input, container.batches.len());
        for (i, b) in container.batches.iter().take(SHOWN).enumerate() {
            print_batch(i, b);
        }
        let rows = container.batches.iter().map(|b| b.rows()).sum();
        let cols = container.batches.first().map_or(0, |b| b.cols());
        let total = container.payload_bytes();
        (container.batches.len(), rows, cols, total)
    };
    if batches > SHOWN {
        println!("  ... ({} more)", batches - SHOWN);
    }
    let den = 16 * batches + 8 * rows * cols;
    println!(
        "total: {rows} rows, {total} bytes encoded ({:.1}x vs DEN)",
        den as f64 / total as f64
    );
    Ok(())
}

/// The first `n` rows of a CSV (all of them when it is shorter); the rest
/// of the file is never read.
fn first_rows(path: &Path, n: usize) -> Result<DenseMatrix, String> {
    let err = |e| csv_error(path, e);
    let mut stream = CsvStream::open(path).map_err(err)?;
    let (mut rows, mut data) = (0, Vec::new());
    while rows < n {
        match stream.next_row().map_err(err)? {
            Some((_, row)) => data.extend_from_slice(row),
            // The end of the file: a last line without its newline counts.
            None => match stream.finish_partial().map_err(err)? {
                Some((_, row)) => data.extend_from_slice(row),
                None => break,
            },
        }
        rows += 1;
    }
    if rows == 0 {
        return Err("empty CSV".into());
    }
    Ok(DenseMatrix::from_vec(rows, data.len() / rows, data))
}

fn cmd_bench(a: &Args) -> Result<(), String> {
    let input = a.pos(0);
    let batch_rows: usize = a.at_least_one(&BATCH_ROWS, 250)?;
    let opts = encode_options(a)?;
    let batch = first_rows(Path::new(input), batch_rows)?;
    let den = batch.den_size_bytes();
    let v: Vec<f64> = (0..batch.cols())
        .map(|i| (i % 5) as f64 * 0.5 - 1.0)
        .collect();
    println!(
        "{}: first {} rows x {} cols (density {:.3})",
        input,
        batch.rows(),
        batch.cols(),
        batch.density()
    );
    println!(
        "{:>8} {:>10} {:>8} {:>12} {:>12}",
        "scheme", "bytes", "ratio", "encode", "A*v"
    );
    for scheme in Scheme::PAPER_SET {
        let t0 = Instant::now();
        let encoded = scheme.encode_with(&batch, &opts);
        let enc_time = t0.elapsed();
        let _ = encoded.matvec(&v);
        let t1 = Instant::now();
        let iters = 10;
        for _ in 0..iters {
            std::hint::black_box(encoded.matvec(&v));
        }
        let op = t1.elapsed() / iters;
        println!(
            "{:>8} {:>10} {:>7.1}x {:>12.1?} {:>12.1?}",
            scheme.name(),
            encoded.size_bytes(),
            den as f64 / encoded.size_bytes() as f64,
            enc_time,
            op,
        );
    }
    Ok(())
}

fn cmd_train(a: &Args) -> Result<(), String> {
    let input = a.pos(0);
    let model = a.raw(&MODEL).unwrap_or("lr");
    let spec = ModelSpec::Linear(loss_kind(model)?);
    let epochs: usize = a.get(&EPOCHS, 10)?;
    let trainer = Trainer::new(MgdConfig {
        epochs,
        lr: a.get(&LR, 0.05)?,
        ..Default::default()
    });
    let budget: Option<usize> = a.value(&BUDGET)?;
    let follow = a.has(&FOLLOW);

    let given = |group: Group| group.iter().find(|f| a.has(f)).map(|f| f.name);
    if budget.is_none() {
        if let Some(f) = given(STORE).or_else(|| given(PIPELINE)) {
            return Err(format!(
                "{f} configures the out-of-core store; pass {BUDGET} to enable it"
            ));
        }
        if follow {
            return Err(format!(
                "{FOLLOW} streams rows into the live out-of-core store; pass {BUDGET}"
            ));
        }
    }
    if !follow {
        if let Some(f) = given(FOLLOW_KNOBS) {
            return Err(format!("{f} only applies with {FOLLOW}"));
        }
    }
    let config = store_config(a, budget.unwrap_or(usize::MAX))?;
    if follow {
        // A streaming store has no build-time spilled entries, so the
        // prefetch pipeline never starts over it.
        if let Some(f) = given(PIPELINE) {
            return Err(format!("{f} has no effect with {FOLLOW}"));
        }
        if input.ends_with(".tocz") {
            return Err(format!(
                "{FOLLOW} tails a growing CSV; a .tocz container is already finished"
            ));
        }
        return train_follow(a, &trainer, &spec, &config, model);
    }

    // Without --budget everything stays in memory: the same store, no
    // spill files and no IO report.
    let out_of_core = budget.is_some();
    let t0 = Instant::now();
    let store = build_store(input, &config)?;
    let encode_time = t0.elapsed();
    if out_of_core {
        print_store_line(&store);
    }
    let mut report = trainer.train(&spec, &store, None);
    if out_of_core {
        let s = store.stats().snapshot_stable();
        println!(
            "io: {} reads ({} KB), prefetch {} hits / {} misses, simulated delay {:.1?}",
            s.disk_reads,
            s.bytes_read / 1024,
            s.prefetch_hits,
            s.prefetch_misses,
            Duration::from_nanos(s.throttle_ns),
        );
        // Machine-parseable engine stats (the CLI smoke tests parse this
        // line): key=value pairs only, one per field.
        println!(
            "io-engine: kind={} placement={} submitted={} completed={} \
             coalesced={} max-in-flight={} lat-p50-us={} lat-p99-us={}",
            config.io,
            config.placement,
            s.submitted,
            s.completed,
            s.coalesced_reads,
            s.max_in_flight,
            s.latency_percentile_us(50),
            s.latency_percentile_us(99),
        );
        // Machine-parseable placement/scheduling stats (the CLI smoke
        // tests parse this line too): key=value pairs, list values joined
        // with '/'.
        let p = store.placement_report();
        let join = |it: Vec<String>| {
            if it.is_empty() {
                "-".to_string()
            } else {
                it.join("/")
            }
        };
        println!(
            "placement: policy={} io-threads={} decode-workers={} rebalances={} \
             migrated={} migrated-kb={} ewma-mbps={} shard-kb={}",
            p.policy,
            p.io_threads,
            p.decode_workers,
            p.rebalances,
            p.migrated_batches,
            p.migrated_bytes / 1024,
            join(
                p.shard_ewma_mbps
                    .iter()
                    .map(|m| format!("{m:.1}"))
                    .collect()
            ),
            join(
                p.shard_bytes
                    .iter()
                    .map(|b| (b / 1024).to_string())
                    .collect()
            ),
        );
    }
    // After the stats lines: the evaluation sweep is not training IO.
    let (rows, err) = training_error(&store, &mut report.model);
    println!(
        "{model} on {rows} rows x {} features [{}]: encode {:.1?} ({} KB), train {:.1?} ({epochs} epochs), training error {:.2}%",
        store.num_features(),
        config.scheme.name(),
        encode_time,
        store.total_bytes() / 1024,
        report.train_time,
        err * 100.0,
    );
    Ok(())
}

/// `toc train --follow`: tail the CSV *file itself* — which may still be
/// growing under a concurrent writer — through
/// [`toc_data::follow_rows`] into a *live* streaming store on one
/// thread, while a single online-SGD pass
/// ([`toc_ml::mgd::Trainer::train_online`]) runs concurrently over
/// segments as they seal, reporting prequential error per window. The
/// follower only commits newline-terminated lines (a torn tail mid-write
/// is retried, never half-parsed), re-opens from the top if the file is
/// truncated beneath it, and ends the stream once no new bytes appear
/// for `--idle-ms`. The trainer consumes batches in index order, so the loss
/// curve is deterministic in the seed regardless of ingest timing.
fn train_follow(
    a: &Args,
    trainer: &Trainer,
    spec: &ModelSpec,
    config: &StoreConfig,
    model: &str,
) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use toc_data::{follow_rows, CsvStream, FollowOptions, StoreIngest};

    let input = Path::new(a.pos(0));
    let window: usize = a.at_least_one(&WINDOW, 8)?;
    let poll = Duration::from_millis(a.get(&POLL_MS, 10)?);
    let idle = Duration::from_millis(a.at_least_one(&IDLE_MS, 400)?);
    let (scheme, batch_rows, encode_opts) = (config.scheme, config.batch_rows, config.encode);

    // The store needs the feature count up front, so wait (up to the
    // idle timeout) for the first complete row to pin the width.
    let cols = {
        let t0 = Instant::now();
        loop {
            let mut s = CsvStream::open(input).map_err(|e| e.to_string())?;
            if let Some((_, row)) = s.next_row().map_err(|e| e.to_string())? {
                break row.len();
            }
            if t0.elapsed() >= idle {
                // True end of a writer-less file: a final unterminated
                // line still counts as a row.
                if let Some((_, row)) = s.finish_partial().map_err(|e| e.to_string())? {
                    break row.len();
                }
                return Err(format!(
                    "{}: no rows appeared within the idle timeout ({idle:?})",
                    input.display()
                ));
            }
            std::thread::sleep(poll);
        }
    };
    if cols < 2 {
        return Err("need at least one feature column plus the label column".into());
    }
    let d = cols - 1;

    let store = ShardedSpillStore::open_streaming(d, config).map_err(|e| format!("{e}"))?;
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let (mut report, ingested) = std::thread::scope(|s| {
        let store_ref = &store;
        let done_ref = &done;
        let ingest = s.spawn(move || {
            let run = || -> Result<toc_data::IngestStats, String> {
                let mut ing = StoreIngest::new(store_ref, batch_rows, Some(scheme), encode_opts);
                let opts = FollowOptions {
                    poll,
                    idle_timeout: idle,
                };
                follow_rows(input, &opts, &mut || false, &mut |_, row| {
                    let (features, label) = split_label(row);
                    ing.push_row(features, label).map_err(|e| e.to_string())
                })
                .map_err(|e| e.to_string())?;
                ing.finish().map_err(|e| e.to_string())
            };
            let out = run();
            // Always release the trainer, success or failure — it polls
            // this flag to learn the stream has ended.
            done_ref.store(true, Ordering::Release);
            out
        });
        let report =
            trainer.train_online(spec, &store, window, &mut || !done.load(Ordering::Acquire));
        (report, ingest.join())
    });
    let stats = ingested
        .map_err(|_| "ingest thread panicked".to_string())?
        .map_err(|e| format!("ingest: {e}"))?;
    let wall = t0.elapsed();
    // Machine-parseable counters (the CLI smoke tests parse these
    // lines): key=value pairs only.
    println!(
        "ingest: rows={} cols={cols} chunks={} chunk-rows={batch_rows} bytes={} \
         peak-workspace-bytes={} schemes={}",
        stats.rows,
        stats.chunks,
        stats.encoded_bytes,
        stats.peak_workspace_bytes,
        stats.scheme_summary(),
    );
    let snap = store.stats().snapshot_stable();
    println!(
        "backpressure: max-pending={} peak-pending={} stall-ms={}",
        config.max_pending,
        store.peak_pending_appends(),
        snap.ingest_stall_ns / 1_000_000,
    );
    for w in &report.windows {
        println!(
            "window: idx={} batches={}..{} error={:.4} elapsed-ms={}",
            w.window,
            w.start,
            w.end,
            w.error_rate,
            w.elapsed.as_millis(),
        );
    }
    println!(
        "online: windows={} consumed={} windows-during-ingest={} train-ms={} wall-ms={}",
        report.windows.len(),
        report.consumed,
        report.windows_during_ingest,
        report.train_time.as_millis(),
        wall.as_millis(),
    );
    // The final training-error evaluation over every row that sealed.
    let (rows, err) = training_error(&store, &mut report.model);
    println!(
        "{model} on {rows} rows x {d} features [{}]: streamed {} segments, online pass {:.1?} \
         ({} windows of {window}), training error {:.2}%",
        scheme.name(),
        stats.chunks,
        report.train_time,
        report.windows.len(),
        err * 100.0,
    );
    Ok(())
}

/// Parse one `--script` line (`key=value` tokens) into a job, on top of
/// the command-line defaults.
fn parse_script_job(
    line: &str,
    index: usize,
    defaults: &toc_ml::MgdConfig,
) -> Result<(String, String, toc_ml::MgdConfig, f64), String> {
    let mut name = format!("j{index}");
    let mut model = "lr".to_string();
    let mut config = defaults.clone();
    let mut share = 1.0f64;
    for tok in line.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("script line {}: expected key=value, got {tok:?}", index + 1))?;
        let bad = |e| format!("script line {}: {k}: {e}", index + 1);
        match k {
            "name" => name = v.to_string(),
            "model" => model = v.to_string(),
            "epochs" => config.epochs = v.parse().map_err(|e| bad(format!("{e}")))?,
            "lr" => config.lr = v.parse().map_err(|e| bad(format!("{e}")))?,
            "seed" => config.seed = v.parse().map_err(|e| bad(format!("{e}")))?,
            "share" => share = v.parse().map_err(|e| bad(format!("{e}")))?,
            other => {
                return Err(format!(
                "script line {}: unknown key {other:?} (expected name/model/epochs/lr/seed/share)",
                index + 1
            ))
            }
        }
    }
    Ok((name, model, config, share))
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    use toc_data::serve::{JobServer, JobSpec, ServeConfig};

    let input = a.pos(0);
    let max_concurrent: usize = a.get(&MAX_CONCURRENT, 0)?;
    let base_seed: u64 = a.get(&SEED, 42)?;
    let shares: Vec<f64> = a.list(&SHARES)?.unwrap_or_else(|| vec![1.0]);
    if shares.is_empty() || shares.iter().any(|&s| !(s.is_finite() && s > 0.0)) {
        return Err(format!("{} entries must be finite and > 0", SHARES.name));
    }
    let defaults = MgdConfig {
        epochs: a.get(&EPOCHS, 3)?,
        lr: a.get(&LR, 0.05)?,
        seed: base_seed,
        ..Default::default()
    };
    // (name, model-name, config, share) per job: either --jobs clones of
    // the command-line job with consecutive seeds, or one job per
    // non-comment script line.
    let protos: Vec<(String, String, MgdConfig, f64)> = match a.raw(&SCRIPT) {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let lines: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            if lines.is_empty() {
                return Err(format!("{path}: no jobs defined"));
            }
            lines
                .iter()
                .enumerate()
                .map(|(i, l)| parse_script_job(l, i, &defaults))
                .collect::<Result<_, String>>()?
        }
        None => {
            let jobs: usize = a.at_least_one(&JOBS, 4)?;
            let model = a.raw(&MODEL).unwrap_or("lr");
            (0..jobs)
                .map(|i| {
                    let mut config = defaults.clone();
                    config.seed = base_seed + i as u64;
                    (
                        format!("j{i}"),
                        model.to_string(),
                        config,
                        shares[i % shares.len()],
                    )
                })
                .collect()
        }
    };

    // Every job's model resolves before the data is loaded and the store
    // built: a bad script line must not cost that work first.
    let losses: Vec<LossKind> = protos
        .iter()
        .map(|(_, model, ..)| loss_kind(model))
        .collect::<Result<_, String>>()?;

    // Serve is the out-of-core mode: the budget defaults to 0, so every
    // batch spills and the shared cache is what keeps hot ones close.
    let config = store_config(a, a.get(&BUDGET, 0)?)?;
    let store = std::sync::Arc::new(build_store(input, &config)?);
    print_store_line(&store);

    let cache_bytes: usize = a.get(&CACHE_BUDGET, store.spilled_bytes() / 4)?;
    let server = JobServer::new(
        std::sync::Arc::clone(&store),
        ServeConfig {
            max_concurrent,
            cache_bytes,
        },
    );

    let jobs: Vec<JobSpec> = protos
        .iter()
        .zip(losses)
        .map(|((name, _, config, share), loss)| {
            JobSpec::new(name.clone(), ModelSpec::Linear(loss), config.clone()).with_share(*share)
        })
        .collect();

    let t0 = Instant::now();
    let mut outcomes = server.run(jobs);
    let wall = t0.elapsed();
    // Before the evaluation sweeps below: they are not the jobs' IO.
    let s = store.stats().snapshot_stable();
    s.assert_consistent();

    // Machine-parseable per-job stats (the CLI smoke tests parse these
    // lines): key=value pairs only, one per field.
    for ((_, model, config, _), o) in protos.iter().zip(&mut outcomes) {
        let (_, err) = training_error(&store, &mut o.model);
        println!(
            "job: name={} model={model} seed={} share={} epochs={} train-ms={} queue-ms={} \
             qos-ms={} cache-hits={} cache-misses={} batches={} err-pct={:.2}",
            o.name,
            o.seed,
            o.share,
            config.epochs,
            o.train_time.as_millis(),
            o.queue_wait.as_millis(),
            o.qos_wait.as_millis(),
            o.cache_hits,
            o.cache_misses,
            o.batches_visited,
            err * 100.0,
        );
    }
    let cache = server.cache();
    println!(
        "serve: jobs={} max-concurrent={} peak-concurrent={} cache-budget-kb={} cache-kb={} \
         cache-hits={} cache-misses={} insertions={} evictions={} qos-throttle-ms={} wall-ms={}",
        outcomes.len(),
        max_concurrent,
        server.peak_concurrency(),
        cache_bytes / 1024,
        cache.bytes() / 1024,
        s.cache_hits,
        s.cache_misses,
        cache.insertions(),
        cache.evictions(),
        s.qos_throttle_ns / 1_000_000,
        wall.as_millis(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{TempPath, GOLDEN_V1};

    /// `toc <argv>` through the parser and the real command table.
    fn toc(argv: &[&str]) -> Result<(), String> {
        run(&strings(argv))
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    /// Parse `argv` against the real table of `cmd`, expecting a runnable
    /// command line.
    fn parsed<'a>(cmd: &str, argv: &'a [String]) -> Args<'a> {
        args::parse(command(cmd), argv)
            .unwrap()
            .expect("not a help request")
    }

    fn strings(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|s| s.to_string()).collect()
    }

    fn gen_census(label: &str, rows: usize) -> TempPath {
        let csv = TempPath::new(label, "csv");
        let rows = rows.to_string();
        toc(&["gen", "--preset", "census", "--rows", &rows, &csv.arg()]).unwrap();
        csv
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(parse_scheme("toc").unwrap(), Scheme::Toc);
        assert_eq!(parse_scheme("GZIP").unwrap(), Scheme::Gzip);
        assert_eq!(parse_scheme("ans").unwrap(), Scheme::GcAns);
        assert!(parse_scheme("zstd").is_err());
    }

    #[test]
    fn parser_reads_flags_and_positionals_in_any_order() {
        let argv = strings(&["a.csv", "--scheme", "toc", "b.tocz"]);
        let a = parsed("compress", &argv);
        assert_eq!(a.raw(&SCHEME), Some("toc"));
        assert_eq!((a.pos(0), a.pos(1)), ("a.csv", "b.tocz"));
        assert!(!a.has(&SEGMENT_ROWS));
        assert_eq!(a.get(&SEGMENT_ROWS, 250usize).unwrap(), 250);
    }

    #[test]
    fn a_boolean_flag_never_swallows_a_positional() {
        // `--follow` takes no value: the token after it is still
        // positional.
        let argv = strings(&["--follow", "a.csv", "--epochs", "3"]);
        let a = parsed("train", &argv);
        assert!(a.has(&FOLLOW));
        assert_eq!(a.pos(0), "a.csv");
        assert_eq!(a.get(&EPOCHS, 10usize).unwrap(), 3);
        assert!(!parsed("train", &strings(&["a.csv"])).has(&FOLLOW));
    }

    #[test]
    fn parser_rejects_what_the_table_does_not_declare() {
        let err = |cmd: &str, argv: &[&str]| match args::parse(command(cmd), &strings(argv)) {
            Err(e) => e,
            Ok(_) => panic!("toc {cmd} {argv:?} was accepted"),
        };
        // Unknown flag (a typo of --epochs), named with its command.
        let e = err("train", &["d.csv", "--epoch", "1"]);
        assert!(
            e.contains("toc train") && e.contains("unknown flag --epoch"),
            "{e}"
        );
        // A flag another command owns is unknown here.
        assert!(err("ingest", &["a", "b", "--epochs", "3"]).contains("--epochs"));
        assert!(err("serve", &["d.csv", "--io", "ring"]).contains("unknown flag --io"));
        // Value flag at the end, or followed by another flag.
        assert!(err("train", &["d.csv", "--epochs"]).contains("--epochs needs a value"));
        assert!(err("train", &["d.csv", "--epochs", "--follow"]).contains("needs a value"));
        // The pinning flags went with the lanes they configured.
        for flag in ["--pin", "--pin-map"] {
            let e = err("train", &["d.csv", "--budget", "0", flag]);
            assert!(e.contains(&format!("unknown flag {flag}")), "{e}");
        }
        // Repeated flag.
        let e = err("train", &["d.csv", "--epochs", "1", "--epochs", "7"]);
        assert!(e.contains("--epochs given more than once"), "{e}");
        // Wrong positional count, both ways.
        assert!(err("train", &[]).contains("expected 1 positional"));
        assert!(err("inspect", &["a.tocz", "b.tocz"]).contains("got 2"));
        // A value that does not parse names its flag.
        let argv = strings(&["d.csv", "--epochs", "abc"]);
        let e = parsed("train", &argv).get(&EPOCHS, 10usize).unwrap_err();
        assert!(e.starts_with("--epochs:"), "{e}");
    }

    #[test]
    fn help_is_generated_from_the_table() {
        for cmd in COMMANDS {
            let help = cmd.help();
            let mut names: Vec<&str> = cmd.flags().map(|f| f.name).collect();
            for name in &names {
                assert!(help.contains(name), "toc {} --help lacks {name}", cmd.name);
            }
            names.sort_unstable();
            let declared = names.len();
            names.dedup();
            assert_eq!(names.len(), declared, "toc {} repeats a flag", cmd.name);
            assert!(matches!(args::parse(cmd, &strings(&["-h"])), Ok(None)));
            assert!(args::overview(COMMANDS).contains(&cmd.usage()));
        }
        let count = |name: &str| command(name).flags().count();
        assert_eq!(
            (count("compress"), count("serve"), count("train")),
            (4, 17, 20)
        );
    }

    #[test]
    fn placement_and_scheduler_flag_combinations() {
        let csv = gen_census("cli-adaptive", 300);
        let train = |extra: &[&str]| {
            let path = csv.arg();
            let mut argv = vec!["train", &path, "--epochs", "2", "--budget", "0"];
            argv.extend(["--shards", "2"]);
            argv.extend(extra);
            toc(&argv)
        };
        train(&["--placement", "adaptive"]).unwrap();
        train(&[
            "--prefetch",
            "2",
            "--io",
            "ring",
            "--io-threads",
            "2",
            "--decode-workers",
            "2",
        ])
        .unwrap();
        // Out-of-core flags still demand --budget, and the error names
        // the flag that needs it.
        let e = toc(&["train", "d.csv", "--io-threads", "2"]).unwrap_err();
        assert!(
            e.contains("--io-threads configures") && e.contains("--budget <bytes>"),
            "{e}"
        );
        let e = toc(&["train", "d.csv", "--shards", "2"]).unwrap_err();
        assert!(e.contains("--shards configures"), "{e}");
        // Follow-only and pipeline-only flags name themselves too.
        let e = train(&["--window", "4"]).unwrap_err();
        assert!(e.contains("--window only applies with --follow"), "{e}");
        let e = train(&["--follow", "--prefetch", "4"]).unwrap_err();
        assert!(e.contains("--prefetch has no effect with --follow"), "{e}");
    }

    #[test]
    fn end_to_end_compress_decompress() {
        let csv_in = TempPath::new("cli-e2e", "csv");
        let tocz = TempPath::new("cli-e2e", "tocz");
        let csv_out = TempPath::new("cli-e2e-out", "csv");
        let m = DenseMatrix::from_rows(
            (0..80)
                .map(|r| {
                    (0..6)
                        .map(|c| if (r + c) % 2 == 0 { 1.5 } else { 0.0 })
                        .collect()
                })
                .collect(),
        );
        crate::csv::write_matrix(csv_in.path(), &m, None).unwrap();
        let (in_arg, tocz_arg, out_arg) = (csv_in.arg(), tocz.arg(), csv_out.arg());
        toc(&["compress", &in_arg, &tocz_arg, "--segment-rows", "32"]).unwrap();
        toc(&["inspect", &tocz_arg]).unwrap();
        toc(&["decompress", &tocz_arg, &out_arg]).unwrap();
        let text = |p: &TempPath| std::fs::read_to_string(p.path()).unwrap();
        assert_eq!(text(&csv_out), text(&csv_in));
    }

    #[test]
    fn row_range_projection_matches_full_decode() {
        let csv_in = TempPath::new("cli-rows", "csv");
        let tocz = TempPath::new("cli-rows", "tocz");
        let full_out = TempPath::new("cli-rows-full", "csv");
        let part_out = TempPath::new("cli-rows-part", "csv");
        let m = DenseMatrix::from_rows(
            (0..90)
                .map(|r| (0..4).map(|c| ((r + c) % 5) as f64).collect())
                .collect(),
        );
        crate::csv::write_matrix(csv_in.path(), &m, None).unwrap();
        toc(&[
            "compress",
            &csv_in.arg(),
            &tocz.arg(),
            "--segment-rows",
            "16",
        ])
        .unwrap();
        // The seekable v2 path, and the committed legacy v1 container
        // (57 rows in 16-row segments) through the decode-everything path.
        for (version, input) in [("2", tocz.arg()), ("1", GOLDEN_V1.to_string())] {
            toc(&["inspect", &input]).unwrap();
            toc(&["decompress", &input, &full_out.arg()]).unwrap();
            let part = part_out.arg();
            toc(&[
                "decompress",
                &input,
                &part,
                "--rows",
                "20..53",
                "--parallel",
                "3",
            ])
            .unwrap();
            let full = std::fs::read_to_string(full_out.path()).unwrap();
            let part = std::fs::read_to_string(part_out.path()).unwrap();
            let want: Vec<&str> = full.lines().skip(20).take(33).collect();
            assert_eq!(want.len(), 33, "v{version}");
            assert_eq!(part.lines().collect::<Vec<_>>(), want, "v{version}");
        }
        assert!(parse_row_range("5..3").is_err());
        assert!(parse_row_range("x..3").is_err());
        assert_eq!(parse_row_range("..7").unwrap(), (0, 7));
    }

    #[test]
    fn gen_then_train() {
        let csv = gen_census("cli-train", 400);
        toc(&["train", &csv.arg(), "--epochs", "4", "--lr", "0.1"]).unwrap();
        // Out-of-core path: zero budget spills every batch across two
        // shards with the prefetch pipeline on.
        toc(&[
            "train",
            &csv.arg(),
            "--epochs",
            "2",
            "--budget",
            "0",
            "--shards",
            "2",
            "--prefetch",
            "2",
        ])
        .unwrap();
        toc(&["bench", &csv.arg()]).unwrap();
    }

    #[test]
    fn train_from_container() {
        let csv = gen_census("cli-train-cz", 300);
        let tocz = TempPath::new("cli-train-cz", "tocz");
        toc(&["compress", &csv.arg(), &tocz.arg(), "--segment-rows", "64"]).unwrap();
        // In-memory and out-of-core (streaming build) paths both accept
        // the container directly.
        toc(&["train", &tocz.arg(), "--epochs", "2"]).unwrap();
        toc(&[
            "train",
            &tocz.arg(),
            "--epochs",
            "2",
            "--budget",
            "0",
            "--shards",
            "2",
        ])
        .unwrap();
    }

    #[test]
    fn cla_planner_flags_and_auto_scheme() {
        let csv_in = TempPath::new("cli-cla", "csv");
        let tocz = TempPath::new("cli-cla", "tocz");
        let csv_out = TempPath::new("cli-cla-out", "csv");
        let m = toc_data::synth::correlated_matrix(120, 8, 4, 3);
        crate::csv::write_matrix(csv_in.path(), &m, None).unwrap();
        let compress = |extra: &[&str]| {
            let (csv_in, tocz) = (csv_in.arg(), tocz.arg());
            let mut argv = vec!["compress", &csv_in, &tocz];
            argv.extend(extra);
            toc(&argv)
        };
        let legs: [&[&str]; 4] = [
            &["--scheme", "cla"],
            &["--scheme", "cla", "--cla-planner", "greedy"],
            &[
                "--scheme",
                "cla",
                "--cla-planner",
                "sample",
                "--cla-sample",
                "32",
            ],
            &["--scheme", "auto"],
        ];
        for extra in legs {
            compress(extra).unwrap();
            toc(&["decompress", &tocz.arg(), &csv_out.arg()]).unwrap();
            let text = |p: &TempPath| std::fs::read_to_string(p.path()).unwrap();
            assert_eq!(text(&csv_out), text(&csv_in));
        }
        assert!(compress(&["--cla-planner", "nope"]).is_err());
        assert!(compress(&["--cla-sample", "0"]).is_err());
    }
}
