//! `train-spill-lr` / `train-mem-nn`: `Trainer::train` over a store that
//! is all on disk (logistic regression; store, io, parse and the vector
//! kernels on the blocking path) or all in memory (the neural net; the
//! matrix kernels and the optimizer only — the control for every
//! IO-side change).

use std::cell::RefCell;
use std::time::Instant;

use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::DatasetPreset;
use toc_data::{IoEngineKind, Pinning, SchedulerConfig};
use toc_formats::{AnyBatch, Scheme};
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

use super::{
    census, check_io, dense_bytes, io_layers, mixed_preset, overhead_share, peak_rss_mb,
    repeat_setup, run_ops, Ctx, KernelProbe, Kernels, Mode, Outcome, BATCH_ROWS, CENSUS_ROWS,
    PROBE_EVERY, PROBE_HIDDEN,
};
use crate::metrics::Layers;
use crate::stats::{median, percentile};
use crate::trace::{self, Recorder, ROOT};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SpillLr,
    MemNn,
}

const MNIST_ROWS: usize = 5_000;

impl Kind {
    /// Epochs per `Trainer::train` call; the first is warm-up (the
    /// trainer's workspace and the prefetch pipeline fill) and is not
    /// timed. Sized so one call takes about a second.
    fn epochs_per_call(self) -> usize {
        match self {
            Kind::SpillLr => 21,
            Kind::MemNn => 11,
        }
    }

    fn kernels(self) -> Kernels {
        match self {
            Kind::SpillLr => Kernels::Vector,
            Kind::MemNn => Kernels::Matrix,
        }
    }
}

pub fn mgd(epochs: usize, seed: u64, shuffle_batches: bool) -> MgdConfig {
    MgdConfig {
        epochs,
        lr: 0.1,
        seed,
        record_curve: false,
        shuffle_batches,
    }
}

/// Pass-through provider that stamps the clock at every epoch boundary.
struct EpochClock<'a> {
    inner: &'a ShardedSpillStore,
    marks: RefCell<Vec<Instant>>,
}

impl BatchProvider for EpochClock<'_> {
    fn num_batches(&self) -> usize {
        self.inner.num_batches()
    }
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }
    fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64])) {
        self.inner.visit(idx, f)
    }
    fn end_epoch(&self) {
        self.inner.end_epoch();
        self.marks.borrow_mut().push(Instant::now());
    }
}

/// What a [`TracedProvider`] records. Visits hang under a parent span —
/// an epoch, or a window of an online run — that `end_epoch` closes.
pub struct VisitTrace {
    pub rec: Recorder,
    pub probe: KernelProbe,
    pub op: u32,
    /// Span of the op the parents hang under.
    pub op_id: u32,
    parent_name: &'static str,
    parent: u32,
    parent_start: u64,
    visits: usize,
    /// Probe time inside the current parent, to take out of its wall.
    parent_probe_ns: u64,
    /// Finished parents' walls with the probes taken out, in ms.
    pub parent_ms: Vec<f64>,
}

impl VisitTrace {
    pub fn new(rec: Recorder, kernels: Kernels, parent_name: &'static str) -> Self {
        Self {
            rec,
            probe: KernelProbe::new(kernels),
            op: 0,
            op_id: ROOT,
            parent_name,
            parent: ROOT,
            parent_start: 0,
            visits: 0,
            parent_probe_ns: 0,
            parent_ms: Vec::new(),
        }
    }

    /// Start an op and the first parent span under it; returns the op's
    /// start time.
    pub fn open_op(&mut self, op: u32) -> u64 {
        self.op = op;
        self.op_id = self.rec.open();
        let start = self.rec.now();
        self.open_parent();
        start
    }

    /// Record the op [`VisitTrace::open_op`] started at `start`.
    pub fn close_op(&mut self, start: u64) {
        let end = self.rec.now();
        self.rec
            .close(self.op_id, "op", ROOT, self.op, (start, end));
    }

    fn open_parent(&mut self) {
        self.parent = self.rec.open();
        self.parent_start = self.rec.now();
        self.parent_probe_ns = 0;
    }

    fn close_parent(&mut self) {
        let end = self.rec.now();
        let t = (self.parent_start, end);
        self.rec
            .close(self.parent, self.parent_name, self.op_id, self.op, t);
        self.parent_ms
            .push((end - self.parent_start - self.parent_probe_ns) as f64 / 1e6);
    }
}

/// Pass-through provider that records a `store.visit` span per visit
/// with the model's callback as its `ml.step` child — the difference is
/// the time the step waited for data — and probes the kernels on every
/// [`PROBE_EVERY`]-th visited batch.
pub struct TracedProvider<'a> {
    pub inner: &'a ShardedSpillStore,
    pub t: &'a RefCell<VisitTrace>,
}

impl BatchProvider for TracedProvider<'_> {
    fn num_batches(&self) -> usize {
        self.inner.num_batches()
    }
    fn num_features(&self) -> usize {
        self.inner.num_features()
    }
    fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64])) {
        let mut t = self.t.borrow_mut();
        let t = &mut *t;
        let visit_id = t.rec.open();
        let v0 = t.rec.now();
        self.inner.visit(idx, &mut |batch, labels| {
            let s0 = t.rec.now();
            f(batch, labels);
            let s1 = t.rec.now();
            t.rec.leaf("ml.step", visit_id, t.op, (s0, s1));
            if t.visits.is_multiple_of(PROBE_EVERY) {
                let ns = t.probe.run(batch);
                t.rec.leaf("probe", visit_id, t.op, (s1, s1 + ns));
                t.parent_probe_ns += ns;
            }
            t.visits += 1;
        });
        let v1 = t.rec.now();
        t.rec
            .close(visit_id, "store.visit", t.parent, t.op, (v0, v1));
    }
    fn end_epoch(&self) {
        let mut t = self.t.borrow_mut();
        let e0 = t.rec.now();
        self.inner.end_epoch();
        let e1 = t.rec.now();
        let (parent, op) = (t.parent, t.op);
        t.rec.leaf("store.end_epoch", parent, op, (e0, e1));
        t.close_parent();
        // The parent of whatever comes next; left unrecorded if nothing
        // does.
        t.open_parent();
    }
}

/// Per-layer numbers every traced provider run reports: the store's
/// share of a visit, the step, and their sum over `traced_wall_ms`, the
/// wall of the parents those spans lie in.
pub fn visit_layers(l: &mut Layers, t: &VisitTrace, traced_wall_ms: f64) {
    let spans = &t.rec.spans;
    let own = trace::self_times(spans);
    let self_ns = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64)
            .collect()
    };
    let (wait, step, end) = (
        self_ns("store.visit"),
        self_ns("ml.step"),
        self_ns("store.end_epoch"),
    );
    l.set_ns("store.visit_self_us_p50", median(&wait));
    l.set_ns("store.visit_self_us_p99", percentile(&wait, 99.0));
    l.set_ns("ml.step_us_per_batch_p50", median(&step));
    l.set_ns("ml.step_us_per_batch_p99", percentile(&step, 99.0));
    l.set_ns("store.end_epoch_us", median(&end));
    let sum_ms = |v: &[f64]| v.iter().sum::<f64>() / 1e6;
    l.set("ml.step_share", sum_ms(&step) / traced_wall_ms);
    l.set(
        "trace.layer_sum_share",
        (sum_ms(&wait) + sum_ms(&step) + sum_ms(&end)) / traced_wall_ms,
    );
    t.probe.report(l);
}

struct Prepared {
    store: ShardedSpillStore,
    spec: ModelSpec,
    rows: usize,
    cols: usize,
    build_s: f64,
}

fn spill_config(ctx: &Ctx) -> StoreConfig {
    StoreConfig::new(Scheme::Toc, BATCH_ROWS, 0)
        .with_shards(2)
        .with_prefetch(4)
        .with_io(IoEngineKind::Ring)
        .with_scheduler(SchedulerConfig {
            io_threads: 1,
            decode_workers: 1,
            pinning: Pinning::Off,
        })
        .with_spill_dir(ctx.tmp.join("spill"))
}

fn prepare(ctx: &Ctx, kind: Kind) -> Prepared {
    let (ds, spec, config) = match kind {
        Kind::SpillLr => (
            census(CENSUS_ROWS, ctx.seed),
            ModelSpec::Linear(LossKind::Logistic),
            spill_config(ctx),
        ),
        Kind::MemNn => {
            let ds = mixed_preset(DatasetPreset::MnistLike, MNIST_ROWS, 10, ctx.seed);
            let spec = ModelSpec::NeuralNet {
                hidden: vec![PROBE_HIDDEN, 16],
                outputs: ds.classes,
            };
            (
                ds,
                spec,
                StoreConfig::new(Scheme::Toc, BATCH_ROWS, usize::MAX),
            )
        }
    };
    let t0 = Instant::now();
    let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("build store");
    Prepared {
        store,
        spec,
        rows: ds.x.rows(),
        cols: ds.x.cols(),
        build_s: t0.elapsed().as_secs_f64(),
    }
}

pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let (p, setup_s) = repeat_setup(|| prepare(ctx, kind));
    let epochs = kind.epochs_per_call();
    let trainer = Trainer::new(mgd(epochs, ctx.seed, false));
    let batches = p.store.num_batches() as u64;

    let mut o = Outcome {
        setup_s,
        stored_bytes: p.store.total_bytes() as u64,
        dense_bytes: dense_bytes(p.rows, p.cols),
        ..Outcome::default()
    };
    let io_before = p.store.stats().snapshot_stable();
    let vt = RefCell::new(VisitTrace::new(
        Recorder::new(Instant::now(), 1),
        kind.kernels(),
        "epoch",
    ));
    // Walls of the traced calls' warm-up epochs: in the traced wall the
    // layer sum is held against, not in the timings.
    let mut traced_warmup_ms = 0.0;
    let mut weights: Vec<Vec<f64>> = Vec::new();
    let mut calls = 0u32;
    run_ops(ctx, |mode| {
        calls += 1;
        if mode == Mode::Traced {
            let first = vt.borrow().parent_ms.len();
            let op_start = vt.borrow_mut().open_op(calls);
            let provider = TracedProvider {
                inner: &p.store,
                t: &vt,
            };
            let report = trainer.train(&p.spec, &provider, None);
            let mut t = vt.borrow_mut();
            t.close_op(op_start);
            traced_warmup_ms += t.parent_ms.remove(first);
            weights.push(report.model.weights());
            return;
        }
        let clock = EpochClock {
            inner: &p.store,
            marks: RefCell::new(vec![Instant::now()]),
        };
        let report = trainer.train(&p.spec, &clock, None);
        weights.push(report.model.weights());
        if mode == Mode::Plain {
            let marks = clock.marks.into_inner();
            // marks[0] is the call's start, so the first window is the
            // warm-up epoch.
            for w in marks.windows(2).skip(1) {
                let wall = (w[1] - w[0]).as_secs_f64();
                o.op_ms.push(wall * 1e3);
                o.wall_s += wall;
                o.rows += p.rows as u64;
            }
            o.attempted += batches * epochs as u64;
        }
    });
    o.peak_rss_mb = peak_rss_mb();
    let io_after = p.store.stats().snapshot_stable();

    // Output checks: every call trained the same model, bit for bit; for
    // the spilled store that model is also the one the same data gives
    // from memory.
    if weights.iter().any(|w| w != &weights[0]) {
        o.failures.push("weights differ between calls".into());
    }
    if kind == Kind::SpillLr {
        let ds = census(CENSUS_ROWS, ctx.seed);
        let config = StoreConfig::new(Scheme::Toc, BATCH_ROWS, usize::MAX);
        let mem = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("build store");
        if trainer.train(&p.spec, &mem, None).model.weights() != weights[0] {
            o.failures
                .push("spilled weights differ from the in-memory run".into());
        }
    }
    check_io(&io_after, &mut o.failures);

    if ctx.trace {
        let vt = vt.into_inner();
        let l = &mut o.layers;
        l.set("store.build_s", p.build_s);
        io_layers(l, &io_before, &io_after, (calls as usize * epochs) as f64);
        let timed_ms: f64 = vt.parent_ms.iter().sum();
        visit_layers(l, &vt, timed_ms + traced_warmup_ms);
        l.set(
            "trace.overhead_share",
            overhead_share(&o.op_ms, &vt.parent_ms),
        );
        o.spans = vt.rec.spans;
    }
    o
}
