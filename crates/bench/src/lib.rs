#![forbid(unsafe_code)]
//! # toc-bench — the experiment harness
//!
//! `--bin paper` runs the paper's evaluation (Figures 2, 5–12, Tables
//! 6–7) from one figure table, [`figures::figures`], checks every
//! figure's expected shape and appends one entry per figure to
//! `BENCH_paper.json`; `store_scaling`, `seek_bench`, `tenant_scaling`
//! and `ingest_scaling` are the system gates; `bench_compare` reads the
//! histories back. This library holds what they share: timing, aligned
//! table printing, strict `--key=value` arguments, the history writer and
//! reader, and the end-to-end MGD runner.

pub mod figures;
pub mod history;
pub mod json;
pub mod paper;

pub use history::History;

use std::time::{Duration, Instant};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::Dataset;
use toc_formats::Scheme;
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

/// Average wall time of `f` over enough iterations to exceed ~20 ms
/// (bounded by `max_iters`), after one warm-up call.
pub fn time_avg<R>(max_iters: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut iters = 0usize;
    let t0 = Instant::now();
    while iters < max_iters && (iters < 3 || t0.elapsed() < Duration::from_millis(20)) {
        std::hint::black_box(f());
        iters += 1;
    }
    t0.elapsed() / iters.max(1) as u32
}

/// The `--key=value` arguments of a harness binary. Anything else on the
/// command line — a bare word, `--out path`, a key given twice, a value
/// that does not parse, a key the binary never asks for — ends the run
/// with exit status 2 naming the argument: read every key, then call
/// [`Args::finish`], before measuring anything.
pub struct Args {
    pairs: Vec<(String, String)>,
    asked: Vec<String>,
}

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for a in argv {
            let (key, value) = a
                .strip_prefix("--")
                .and_then(|rest| rest.split_once('='))
                .ok_or_else(|| format!("{a}: expected --key=value"))?;
            if pairs.iter().any(|(seen, _)| seen == key) {
                return Err(format!("--{key}: given twice"));
            }
            pairs.push((key.to_string(), value.to_string()));
        }
        Ok(Self {
            pairs,
            asked: Vec::new(),
        })
    }

    /// The value of `--name=`, or `default` when it was not given.
    pub fn try_get<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        self.asked.push(name.to_string());
        match self.pairs.iter().find(|(key, _)| key == name) {
            Some((_, value)) => value
                .parse()
                .map_err(|_| format!("--{name}={value}: not a valid value")),
            None => Ok(default),
        }
    }

    /// `Err` naming the first key given that no `try_get` asked for.
    pub fn try_finish(&self) -> Result<(), String> {
        match self.pairs.iter().find(|(key, _)| !self.asked.contains(key)) {
            Some((key, _)) => Err(format!(
                "--{key}: unknown key (this binary takes --{})",
                self.asked.join(", --")
            )),
            None => Ok(()),
        }
    }

    pub fn from_env() -> Self {
        or_exit(Self::parse(std::env::args().skip(1)))
    }

    pub fn get<T: std::str::FromStr>(&mut self, name: &str, default: T) -> T {
        or_exit(self.try_get(name, default))
    }

    pub fn finish(self) {
        or_exit(self.try_finish())
    }
}

fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Minimal aligned-table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{c:>w$}  ", w = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Human-friendly duration (matches the unit scales in the paper's plots).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}us")
    } else if us < 1e6 {
        format!("{:.1}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// Format a ratio with one decimal.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.1}x")
}

/// Throughput in MB/s for `bytes` moved in `d`.
pub fn mb_per_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64().max(1e-12)
}

/// The three end-to-end workloads of §5.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Nn,
    Lr,
    Svm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Nn, Workload::Lr, Workload::Svm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Nn => "NN",
            Workload::Lr => "LR",
            Workload::Svm => "SVM",
        }
    }

    /// Model spec for a dataset with `classes` classes. The NN uses two
    /// hidden layers, [`HIDDEN`].
    pub fn spec(self, classes: usize) -> ModelSpec {
        let loss = match self {
            Workload::Nn => {
                return ModelSpec::NeuralNet {
                    hidden: HIDDEN.to_vec(),
                    outputs: if classes == 2 { 1 } else { classes },
                }
            }
            Workload::Lr => LossKind::Logistic,
            Workload::Svm => LossKind::Hinge,
        };
        match classes {
            2 => ModelSpec::Linear(loss),
            _ => ModelSpec::OneVsRest { loss, classes },
        }
    }
}

/// Hidden-layer widths of the harness NN (scaled down from the paper's
/// 200 / 50 to keep a full scoreboard run near 100 s).
pub const HIDDEN: [usize; 2] = [32, 16];

/// Bandwidth of the one modelled spill disk of the end-to-end runs, MB/s.
pub const DISK_MBPS: f64 = 150.0;

/// Result of one end-to-end MGD run.
pub struct EndToEndResult {
    pub train_time: Duration,
    pub spilled_batches: usize,
    pub total_batches: usize,
}

/// Build a store for `scheme` and train `workload` on it for two epochs
/// (the Tables 6–7 / Figures 9–10 inner loop). `memory_budget` mimics the
/// machine RAM of the paper's setups; training time includes the disk IO
/// of spilled batches but not the one-time encoding cost, matching §5.3.
pub fn end_to_end(
    ds: &Dataset,
    scheme: Scheme,
    workload: Workload,
    memory_budget: usize,
) -> EndToEndResult {
    let store = end_to_end_store(ds, scheme, memory_budget);
    let trainer = Trainer::new(MgdConfig {
        epochs: 2,
        lr: 0.05,
        ..Default::default()
    });
    let report = trainer.train(&workload.spec(ds.classes), &store, None);
    EndToEndResult {
        train_time: report.train_time,
        spilled_batches: store.spilled_batches(),
        total_batches: store.num_batches(),
    }
}

/// The store behind [`end_to_end`]: 250-row batches on one shard, because
/// [`DISK_MBPS`] is a per-shard clock and the paper's setups spill to a
/// single disk.
pub fn end_to_end_store(ds: &Dataset, scheme: Scheme, memory_budget: usize) -> ShardedSpillStore {
    let config = StoreConfig::new(scheme, 250, memory_budget)
        .with_shards(1)
        .with_disk_mbps(DISK_MBPS);
    ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("store build")
}

/// Wall-clock time for `threads` concurrent visitors to sweep every batch
/// of `provider` once (batch indices striped across visitors). This is
/// the read-path microbenchmark behind the `store_scaling` binary: on a
/// spilled store it measures exactly how much the visitors serialize on
/// the spill IO.
pub fn sweep_store(provider: &(dyn BatchProvider + Sync), threads: usize) -> Duration {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut i = t;
                while i < provider.num_batches() {
                    provider.visit(i, &mut |b, _| {
                        use toc_formats::MatrixBatch;
                        std::hint::black_box(b.size_bytes());
                    });
                    i += threads;
                }
            });
        }
    });
    t0.elapsed()
}

/// Compression ratio of `scheme` on a dense batch (DEN bytes / encoded
/// bytes), as defined in §5.1.
pub fn compression_ratio(batch: &toc_linalg::DenseMatrix, scheme: Scheme) -> f64 {
    use toc_formats::MatrixBatch;
    let encoded = scheme.encode(batch);
    batch.den_size_bytes() as f64 / encoded.size_bytes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use toc_data::synth::{generate_preset, DatasetPreset};

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["1", "2"]);
        t.print();
    }

    fn argv(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_take_key_value_pairs_and_defaults() {
        let mut args = argv(&["--rows=40", "--out=/tmp/x.json"]).unwrap();
        assert_eq!(args.try_get("rows", 3000usize), Ok(40));
        assert_eq!(args.try_get("mbps", 150.0f64), Ok(150.0));
        assert_eq!(
            args.try_get("out", String::new()),
            Ok("/tmp/x.json".to_string())
        );
        assert_eq!(args.try_finish(), Ok(()));
    }

    #[test]
    fn args_reject_what_they_cannot_honour_naming_it() {
        // `--out path`: the space form is not silently the default file.
        let e = argv(&["--out", "/tmp/x.json"]).err().unwrap();
        assert!(e.contains("--out: expected --key=value"), "{e}");
        let e = argv(&["extra"]).err().unwrap();
        assert!(e.contains("extra: expected --key=value"), "{e}");
        let e = argv(&["--rows=1", "--rows=2"]).err().unwrap();
        assert!(e.contains("--rows: given twice"), "{e}");
        // A value that does not parse is an error, not the default.
        let mut args = argv(&["--rows=many"]).unwrap();
        let e = args.try_get("rows", 3000usize).unwrap_err();
        assert!(e.contains("--rows=many"), "{e}");
        // A key no `get` asked for.
        let mut args = argv(&["--row=40"]).unwrap();
        assert_eq!(args.try_get("rows", 3000usize), Ok(3000));
        let e = args.try_finish().unwrap_err();
        assert!(
            e.contains("--row: unknown key") && e.contains("--rows"),
            "{e}"
        );
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.0us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
        assert_eq!(fmt_ratio(12.34), "12.3x");
    }

    #[test]
    fn end_to_end_smoke() {
        let ds = generate_preset(DatasetPreset::Kdd99Like, 500, 1);
        let r = end_to_end(&ds, Scheme::Toc, Workload::Lr, usize::MAX);
        assert_eq!(r.spilled_batches, 0);
        assert_eq!(r.total_batches, 2);
        assert!(r.train_time > Duration::ZERO);
        // The modelled disk is one device however many cores the host has.
        let spilled = end_to_end_store(&ds, Scheme::Toc, 0);
        assert_eq!(spilled.spilled_batches(), 2);
        assert_eq!(spilled.num_shards(), 1);
    }

    #[test]
    fn workload_specs() {
        assert!(matches!(
            Workload::Lr.spec(2),
            ModelSpec::Linear(LossKind::Logistic)
        ));
        assert!(matches!(
            Workload::Svm.spec(10),
            ModelSpec::OneVsRest {
                loss: LossKind::Hinge,
                classes: 10
            }
        ));
        assert!(matches!(
            Workload::Nn.spec(10),
            ModelSpec::NeuralNet { outputs: 10, .. }
        ));
    }

    #[test]
    fn sweep_store_reads_every_spilled_batch_once() {
        let ds = generate_preset(DatasetPreset::CensusLike, 500, 9);
        let store =
            ShardedSpillStore::build(&ds.x, &ds.labels, &StoreConfig::new(Scheme::Toc, 100, 0))
                .expect("store build");
        let d = sweep_store(&store, 4);
        assert!(d > Duration::ZERO);
        assert_eq!(
            store.stats().snapshot().disk_reads,
            store.num_batches() as u64
        );
    }

    #[test]
    fn compression_ratio_sane() {
        let ds = generate_preset(DatasetPreset::Kdd99Like, 250, 2);
        assert!(compression_ratio(&ds.x, Scheme::Toc) > 10.0);
        assert!((compression_ratio(&ds.x, Scheme::Den) - 1.0).abs() < 1e-9);
    }
}
