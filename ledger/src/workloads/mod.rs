//! The six workloads and what they share: input sizes, the set-up and
//! op loops, IO-counter reporting and the kernel probe.

mod follow;
mod ingest;
mod serve;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use toc_data::synth::{generate_preset, Dataset, DatasetPreset};
use toc_data::IoSnapshot;
use toc_formats::{AnyBatch, ExecScratch, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

use crate::metrics::Layers;
use crate::stats::median;
use crate::trace::Span;

/// Rows per mini-batch and per ingest chunk: the paper's mini-batch size.
pub const BATCH_ROWS: usize = 250;
/// Rows of `census`, the table four of the workloads share.
pub const CENSUS_ROWS: usize = 200_000;
/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Kernel and codec probes run on every this-many-th chunk or batch.
pub const PROBE_EVERY: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestAuto,
    IngestToc,
    TrainSpillLr,
    TrainMemNn,
    ServeShared,
    FollowOnline,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::IngestAuto,
        Workload::IngestToc,
        Workload::TrainSpillLr,
        Workload::TrainMemNn,
        Workload::ServeShared,
        Workload::FollowOnline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestAuto => "ingest-auto",
            Workload::IngestToc => "ingest-toc",
            Workload::TrainSpillLr => "train-spill-lr",
            Workload::TrainMemNn => "train-mem-nn",
            Workload::ServeShared => "serve-shared",
            Workload::FollowOnline => "follow-online",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every span of the traced run lies on one thread, so the
    /// layers' self times must add up to the traced wall.
    pub fn single_threaded(self) -> bool {
        matches!(
            self,
            Workload::IngestAuto | Workload::IngestToc | Workload::TrainMemNn
        )
    }

    pub fn run(self, ctx: &Ctx) -> Outcome {
        match self {
            Workload::IngestAuto => ingest::run(ctx, None),
            Workload::IngestToc => ingest::run(ctx, Some(Scheme::Toc)),
            Workload::TrainSpillLr => train::run(ctx, train::Kind::SpillLr),
            Workload::TrainMemNn => train::run(ctx, train::Kind::MemNn),
            Workload::ServeShared => serve::run(ctx),
            Workload::FollowOnline => follow::run(ctx),
        }
    }
}

/// One run's arguments and its private scratch directory.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tmp: PathBuf,
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds each set-up repetition took.
    pub setup_s: Vec<f64>,
    /// Wall of every untraced op, in ms. What an op is depends on the
    /// workload: an ingest call, an epoch, a job-server run, a follow
    /// session.
    pub op_ms: Vec<f64>,
    /// Rows the untraced ops processed, and their summed wall.
    pub rows: u64,
    pub wall_s: f64,
    /// Encoded bytes of the workload's artifact over its dense size.
    pub stored_bytes: u64,
    pub dense_bytes: u64,
    /// Units of work: sealed chunks, batch visits or jobs.
    pub attempted: u64,
    /// Failed output checks; any one fails every unit of the run.
    pub failures: Vec<String>,
    /// `VmHWM` when the last op ended, before the output checks.
    pub peak_rss_mb: f64,
    pub layers: Layers,
    pub spans: Vec<Span>,
}

/// `rows` rows of `preset` as `parts` independently seeded parts,
/// interleaved one mini-batch at a time. One `generate_preset` call
/// draws every row from a dozen motifs, so its size, sparsity and speed
/// swing by ±6 % from seed to seed; sixteen parts average that out while
/// every mini-batch still looks like the preset, and any prefix of the
/// table is the same mix as the whole.
pub fn mixed_preset(preset: DatasetPreset, rows: usize, parts: usize, seed: u64) -> Dataset {
    let part_rows = rows / parts;
    assert!(
        part_rows * parts == rows && part_rows.is_multiple_of(BATCH_ROWS),
        "{rows} rows do not split into {parts} parts of whole mini-batches"
    );
    let blocks_per_part = part_rows / BATCH_ROWS;
    let mut x = DenseMatrix::default();
    let mut labels = vec![0.0; rows];
    let mut classes = 0;
    // One part at a time: the process holds the table and one part, not
    // two copies of the table.
    for i in 0..parts {
        let sub_seed = seed.wrapping_mul(1 << 16).wrapping_add(i as u64);
        let part = generate_preset(preset, part_rows, sub_seed);
        if i == 0 {
            x.reset(rows, part.x.cols());
            classes = part.classes;
        }
        let cols = x.cols();
        for j in 0..blocks_per_part {
            let (from, to) = (j * BATCH_ROWS, (j * parts + i) * BATCH_ROWS);
            x.data_mut()[to * cols..(to + BATCH_ROWS) * cols]
                .copy_from_slice(&part.x.data()[from * cols..(from + BATCH_ROWS) * cols]);
            labels[to..to + BATCH_ROWS].copy_from_slice(&part.labels[from..from + BATCH_ROWS]);
        }
    }
    Dataset { x, labels, classes }
}

/// The census-like table: 68 features and a ±1 label.
pub fn census(rows: usize, seed: u64) -> Dataset {
    mixed_preset(DatasetPreset::CensusLike, rows, 16, seed)
}

pub fn dense_bytes(rows: usize, cols: usize) -> u64 {
    (rows * cols * std::mem::size_of::<f64>()) as u64
}

/// Run `setup` [`SETUP_REPS`] times and keep the last product. Each
/// product is dropped before the next is made, so the process never
/// holds two.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut product = None;
    for _ in 0..SETUP_REPS {
        drop(product.take());
        let t0 = Instant::now();
        product = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (product.expect("SETUP_REPS > 0"), secs)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untimed first op: page cache, allocator and lazy state settle.
    WarmUp,
    Plain,
    Traced,
}

/// The closed loop: one warm-up op, then ops back to back until
/// `ctx.seconds` have passed. A traced run alternates plain and traced
/// ops, so the tracing overhead is measured against plain ops that saw
/// the same machine.
pub fn run_ops(ctx: &Ctx, mut op: impl FnMut(Mode)) {
    op(Mode::WarmUp);
    let t0 = Instant::now();
    let mut done = 0usize;
    while t0.elapsed().as_secs_f64() < ctx.seconds || (ctx.trace && done < 2) {
        op(if ctx.trace && done % 2 == 1 {
            Mode::Traced
        } else {
            Mode::Plain
        });
        done += 1;
    }
}

/// `trace.overhead_share`: median traced op over median plain op, − 1.
pub fn overhead_share(plain_ms: &[f64], traced_ms: &[f64]) -> f64 {
    median(traced_ms) / median(plain_ms) - 1.0
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Report the read-path counters a store accumulated between two
/// snapshots, per epoch.
pub fn io_layers(layers: &mut Layers, before: &IoSnapshot, after: &IoSnapshot, epochs: f64) {
    let d = |f: fn(&IoSnapshot) -> u64| (f(after) - f(before)) as f64;
    let bytes = d(|s| s.bytes_read) / epochs;
    layers.set("io.disk_reads_per_epoch", d(|s| s.disk_reads) / epochs);
    layers.set("io.bytes_read_per_epoch", bytes);
    // Arithmetic, never slept: what the epoch's bytes cost a 100 MB/s device.
    layers.set("io.modeled_read_ms_per_epoch_100mbps", bytes / 100e6 * 1e3);
    let (hits, misses) = (d(|s| s.prefetch_hits), d(|s| s.prefetch_misses));
    if hits + misses > 0.0 {
        layers.set("io.prefetch_hit_ratio", hits / (hits + misses));
    }
    layers.set(
        "io.coalesced_reads_per_epoch",
        d(|s| s.coalesced_reads) / epochs,
    );
    layers.set("io.max_in_flight", after.max_in_flight as f64);
    layers.set("io.latency_p50_us", after.latency_percentile_us(50) as f64);
    layers.set("io.latency_p99_us", after.latency_percentile_us(99) as f64);
    layers.set_ns("io.ingest_stall_ms", d(|s| s.ingest_stall_ns));
    layers.set("io.throttle_ns", d(|s| s.throttle_ns));
}

/// The store-side output checks every workload with a store shares: the
/// counters are consistent and no bandwidth model ever slept.
pub fn check_io(snap: &IoSnapshot, failures: &mut Vec<String>) {
    let snap = *snap;
    if std::panic::catch_unwind(move || snap.assert_consistent()).is_err() {
        failures.push("IoSnapshot::assert_consistent failed".into());
    }
    if snap.throttle_ns != 0 {
        failures.push(format!(
            "throttle_ns = {} without a bandwidth model",
            snap.throttle_ns
        ));
    }
}

/// Which kernels a model's step calls on a batch.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kernels {
    /// `matvec` + `vecmat` (linear models).
    Vector,
    /// `matmat` + `matmat_left` (the neural net's first layer).
    Matrix,
}

/// Width of the dense operand of the `matmat` probes: the first hidden
/// layer of `train-mem-nn`.
pub const PROBE_HIDDEN: usize = 32;

/// Times the compressed-domain kernels, the decode, the dense kernel on
/// the decoded batch and the wire parse in isolation on one batch, with
/// warm caller-owned buffers, and accumulates per-kernel totals.
pub struct KernelProbe {
    kernels: Kernels,
    scratch: ExecScratch,
    v: Vec<f64>,
    out_v: Vec<f64>,
    m: DenseMatrix,
    out_m: DenseMatrix,
    dense: DenseMatrix,
    /// name → (summed ns, calls).
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl KernelProbe {
    pub fn new(kernels: Kernels) -> Self {
        Self {
            kernels,
            scratch: ExecScratch::default(),
            v: Vec::new(),
            out_v: Vec::new(),
            m: DenseMatrix::default(),
            out_m: DenseMatrix::default(),
            dense: DenseMatrix::default(),
            totals: BTreeMap::new(),
        }
    }

    fn timed(&mut self, name: &'static str, f: impl FnOnce(&mut Self)) {
        let t0 = Instant::now();
        f(self);
        let ns = t0.elapsed().as_nanos() as u64;
        let e = self.totals.entry(name).or_insert((0, 0));
        e.0 += ns;
        e.1 += 1;
    }

    fn fill_v(&mut self, n: usize) {
        self.v.clear();
        self.v.resize(n, 0.01);
    }

    fn fill_m(&mut self, rows: usize, cols: usize) {
        self.m.reset(rows, cols);
        self.m.data_mut().fill(0.01);
    }

    /// Probe `batch`; returns the nanoseconds the probe took in all, so
    /// the caller can take them out of the traced wall.
    pub fn run(&mut self, batch: &AnyBatch) -> u64 {
        let t0 = Instant::now();
        let (rows, cols) = (batch.rows(), batch.cols());
        match self.kernels {
            Kernels::Vector => {
                self.fill_v(cols);
                self.timed("kernel.matvec_us_per_batch", |p| {
                    batch.matvec_into_ws(&p.v, &mut p.out_v, &mut p.scratch)
                });
                self.fill_v(rows);
                self.timed("kernel.vecmat_us_per_batch", |p| {
                    batch.vecmat_into_ws(&p.v, &mut p.out_v, &mut p.scratch)
                });
            }
            Kernels::Matrix => {
                self.fill_m(cols, PROBE_HIDDEN);
                self.timed("kernel.matmat_us_per_batch", |p| {
                    batch.matmat_into_ws(&p.m, &mut p.out_m, &mut p.scratch)
                });
                self.fill_m(PROBE_HIDDEN, rows);
                self.timed("kernel.matmat_left_us_per_batch", |p| {
                    batch.matmat_left_into_ws(&p.m, &mut p.out_m, &mut p.scratch)
                });
            }
        }
        self.timed("kernel.decode_us_per_batch", |p| {
            batch.decode_into_ws(&mut p.dense, &mut p.scratch)
        });
        self.fill_v(cols);
        self.timed("kernel.dense_matvec_us_per_batch", |p| {
            p.dense.matvec_into(&p.v, &mut p.out_v)
        });
        let bytes = batch.to_bytes();
        self.timed("formats.from_bytes_us_per_batch", |_| {
            std::hint::black_box(Scheme::from_bytes(&bytes).expect("re-parse a batch's own bytes"));
        });
        std::hint::black_box((&self.out_v, &self.out_m));
        t0.elapsed().as_nanos() as u64
    }

    pub fn report(&self, layers: &mut Layers) {
        for (name, &(ns, calls)) in &self.totals {
            layers.set_ns(name, ns as f64 / calls as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_preset_is_seeded_and_interleaves_whole_mini_batches() {
        let rows = 4 * BATCH_ROWS;
        let a = mixed_preset(DatasetPreset::CensusLike, rows, 2, 9);
        let b = mixed_preset(DatasetPreset::CensusLike, rows, 2, 9);
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(a.labels, b.labels);
        let other = mixed_preset(DatasetPreset::CensusLike, rows, 2, 10);
        assert_ne!(a.x.data(), other.x.data());
        // Blocks 0 and 2 are the first part's two mini-batches, in order.
        let part0 = generate_preset(DatasetPreset::CensusLike, rows / 2, 9 << 16);
        assert_eq!(a.x.row(0), part0.x.row(0));
        assert_eq!(a.x.row(2 * BATCH_ROWS), part0.x.row(BATCH_ROWS));
        assert_eq!(a.labels[2 * BATCH_ROWS], part0.labels[BATCH_ROWS]);
        assert_eq!((a.x.rows(), a.labels.len()), (rows, rows));
    }
}
