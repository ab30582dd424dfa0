//! The MGD training engine (§2.1.2): mini-batch stochastic gradient descent
//! over a sequence of (possibly compressed) mini-batches.
//!
//! Shuffle-once (§2.1.3): providers are built from data shuffled once
//! upfront; every epoch then visits the mini-batches in the same order, as
//! in Bismarck and the paper's harness.

use crate::losses::LossKind;
use crate::models::{LinearModel, NeuralNet, OneVsRest};
use crate::workspace::ExecWorkspace;
use std::time::{Duration, Instant};
use toc_formats::AnyBatch;
use toc_linalg::DenseMatrix;

/// Source of labeled mini-batches. The callback style lets in-memory
/// providers lend borrowed batches while out-of-core providers materialize
/// them from disk per visit (the IO cost the paper measures).
pub trait BatchProvider {
    /// Number of mini-batches per epoch.
    fn num_batches(&self) -> usize;
    /// Number of feature columns.
    fn num_features(&self) -> usize;
    /// Visit batch `idx`. Labels are `±1` for binary tasks and the class
    /// index (as `f64`) for multiclass tasks.
    fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64]));

    /// Epoch-boundary feedback: the trainer calls this after every full
    /// pass over the batches, once all of that epoch's visits have
    /// returned. Out-of-core providers use it to act on what the epoch's
    /// visit stream taught them — the adaptive spill store re-packs hot
    /// batches onto the shards it measured fastest. Must not change any
    /// batch's *content*: training results are compared bit-identically
    /// across providers. Default: no-op.
    fn end_epoch(&self) {}
}

/// Trivial in-memory provider over pre-encoded batches.
pub struct MemoryProvider {
    pub batches: Vec<(AnyBatch, Vec<f64>)>,
    pub features: usize,
}

impl BatchProvider for MemoryProvider {
    fn num_batches(&self) -> usize {
        self.batches.len()
    }
    fn num_features(&self) -> usize {
        self.features
    }
    fn visit(&self, idx: usize, f: &mut dyn FnMut(&AnyBatch, &[f64])) {
        let (b, y) = &self.batches[idx];
        f(b, y);
    }
}

/// Model family to train (the paper's three workloads, §5.3).
#[derive(Clone, Debug)]
pub enum ModelSpec {
    /// Generalized linear model with the given loss (LR = Logistic,
    /// SVM = Hinge, Linear regression = Squared).
    Linear(LossKind),
    /// One-vs-rest multiclass linear models.
    OneVsRest { loss: LossKind, classes: usize },
    /// Feed-forward NN with the given hidden layers and output units.
    NeuralNet { hidden: Vec<usize>, outputs: usize },
}

impl ModelSpec {
    /// Deterministic fresh-model construction for `features` input
    /// columns. Shared by [`Trainer::train`] and the multi-tenant job
    /// server so a job's model starts from bit-identical parameters no
    /// matter which entry point built it (`seed` only matters for the NN
    /// family; linear models start at zero).
    pub fn init(&self, features: usize, seed: u64) -> TrainedModel {
        match self {
            ModelSpec::Linear(loss) => TrainedModel::Linear(LinearModel::new(features, *loss)),
            ModelSpec::OneVsRest { loss, classes } => {
                TrainedModel::OneVsRest(OneVsRest::new(features, *classes, *loss))
            }
            ModelSpec::NeuralNet { hidden, outputs } => {
                TrainedModel::NeuralNet(NeuralNet::new(features, hidden, *outputs, seed))
            }
        }
    }
}

/// A trained model of any family.
#[derive(Clone, Debug)]
pub enum TrainedModel {
    Linear(LinearModel),
    OneVsRest(OneVsRest),
    NeuralNet(NeuralNet),
}

impl TrainedModel {
    /// Every learned parameter, flattened in a deterministic order. Two
    /// runs trained on byte-identical batch streams must produce
    /// *bit-identical* vectors here — the cross-store determinism and
    /// fault-injection suites compare training runs with `==`, not with a
    /// tolerance, because out-of-core reads must never perturb the math.
    pub fn weights(&self) -> Vec<f64> {
        match self {
            TrainedModel::Linear(m) => m.w.clone(),
            TrainedModel::OneVsRest(m) => m
                .models
                .iter()
                .flat_map(|lm| lm.w.iter().copied())
                .collect(),
            TrainedModel::NeuralNet(nn) => nn
                .weights
                .iter()
                .flat_map(|w| w.data().iter().copied())
                .chain(nn.biases.iter().flat_map(|b| b.iter().copied()))
                .collect(),
        }
    }

    /// Classification error rate on a labeled batch (1 − accuracy).
    ///
    /// Thin wrapper over [`Self::error_rate_ws`] with a throwaway
    /// workspace.
    pub fn error_rate(&mut self, batch: &AnyBatch, labels: &[f64]) -> f64 {
        self.error_rate_ws(batch, labels, &mut ExecWorkspace::new())
    }

    /// [`Self::error_rate`] with caller-owned scratch. Called with the
    /// workspace that then steps on the same batch (test-then-train), the
    /// prediction and the step share what the kernels prepared for it.
    pub fn error_rate_ws(
        &mut self,
        batch: &AnyBatch,
        labels: &[f64],
        ws: &mut ExecWorkspace,
    ) -> f64 {
        let accuracy = match self {
            TrainedModel::Linear(m) => m.accuracy_ws(batch, labels, ws),
            TrainedModel::OneVsRest(m) => {
                // Take the staging buffer out so `ws` can be lent onward.
                let mut pred = std::mem::take(&mut ws.class_idx);
                m.predict_into(batch, &mut pred, ws);
                let ok = pred
                    .iter()
                    .zip(labels)
                    .filter(|(&p, &l)| p == l as usize)
                    .count();
                ws.class_idx = pred;
                ok as f64 / labels.len() as f64
            }
            TrainedModel::NeuralNet(nn) => {
                let mut targets = std::mem::take(&mut ws.targets);
                targets_for_nn_into(labels, nn.outputs, &mut targets);
                let accuracy = nn.accuracy_ws(batch, &targets, ws);
                ws.targets = targets;
                accuracy
            }
        };
        1.0 - accuracy
    }
}

/// Build the NN target matrix from provider labels.
pub fn targets_for_nn(labels: &[f64], outputs: usize) -> DenseMatrix {
    let mut out = DenseMatrix::default();
    targets_for_nn_into(labels, outputs, &mut out);
    out
}

/// [`targets_for_nn`] into a caller-owned matrix (reshaped as needed).
pub fn targets_for_nn_into(labels: &[f64], outputs: usize, out: &mut DenseMatrix) {
    out.reset(labels.len(), outputs);
    if outputs == 1 {
        // ±1 -> {0, 1} probability of the positive class.
        for (o, &y) in out.data_mut().iter_mut().zip(labels) {
            *o = (y + 1.0) / 2.0;
        }
    } else {
        for (r, &l) in labels.iter().enumerate() {
            out.set(r, l as usize, 1.0);
        }
    }
}

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct MgdConfig {
    /// Number of passes over all mini-batches.
    pub epochs: usize,
    /// Learning rate λ.
    pub lr: f64,
    /// Seed for model initialization.
    pub seed: u64,
    /// If true, record the error rate on the evaluation set after every
    /// epoch (costs one extra pass over `eval`).
    pub record_curve: bool,
    /// If true, visit mini-batches in a fresh pseudo-random order each
    /// epoch. This is the cheap middle ground between shuffle-once and
    /// shuffle-always (§2.1.3): batch *contents* are fixed at encode time,
    /// but the visit order is re-randomized per epoch at zero IO cost.
    pub shuffle_batches: bool,
}

impl Default for MgdConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            lr: 0.1,
            seed: 42,
            record_curve: false,
            shuffle_batches: false,
        }
    }
}

/// One recorded point of the training trajectory.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    pub epoch: usize,
    pub elapsed: Duration,
    pub error_rate: f64,
}

/// Result of a training run.
pub struct TrainReport {
    pub model: TrainedModel,
    /// Total wall-clock training time (excludes curve evaluation, matching
    /// the paper's "training time does not include compression time").
    pub train_time: Duration,
    /// Error-rate trajectory (only when `record_curve`).
    pub curve: Vec<CurvePoint>,
}

/// One completed window of an online training run
/// ([`Trainer::train_online`]).
#[derive(Clone, Debug)]
pub struct WindowPoint {
    /// Window ordinal, starting at 1.
    pub window: usize,
    /// Batch indices this window consumed: `[start, end)`.
    pub start: usize,
    pub end: usize,
    /// Row-weighted prequential (test-then-train) error: every batch is
    /// evaluated *before* the model steps on it, so the window measures
    /// generalization to data the model had not seen at that point.
    pub error_rate: f64,
    /// Cumulative compute time when the window closed.
    pub elapsed: Duration,
}

/// Result of an online training run ([`Trainer::train_online`]).
pub struct OnlineReport {
    pub model: TrainedModel,
    /// One point per closed window (the final, possibly partial window
    /// included).
    pub windows: Vec<WindowPoint>,
    /// Batches consumed in total.
    pub consumed: usize,
    /// Windows that closed while the stream was still live (`more()`
    /// true at the boundary) — the trainer-kept-up liveness signal the
    /// `ingest_scaling` bench gates on. Timing-dependent by nature;
    /// never feeds back into training.
    pub windows_during_ingest: usize,
    /// Total compute time (batch evaluation + gradient steps; excludes
    /// time spent waiting for the stream to grow).
    pub train_time: Duration,
}

/// The MGD trainer.
pub struct Trainer {
    pub config: MgdConfig,
}

impl Trainer {
    pub fn new(config: MgdConfig) -> Self {
        Self { config }
    }

    /// Run MGD for `spec` over `data`. `eval` (batch, labels) is used for
    /// the error curve when `record_curve` is set.
    pub fn train(
        &self,
        spec: &ModelSpec,
        data: &dyn BatchProvider,
        eval: Option<(&AnyBatch, &[f64])>,
    ) -> TrainReport {
        let mut model = spec.init(data.num_features(), self.config.seed);

        let mut curve = Vec::new();
        let mut train_time = Duration::ZERO;
        let mut order: Vec<usize> = (0..data.num_batches()).collect();
        // One workspace for the whole run: after the first epoch warms the
        // buffers up, the steady-state gradient path allocates nothing.
        let mut ws = ExecWorkspace::new();
        for epoch in 0..self.config.epochs {
            if self.config.shuffle_batches {
                permute(
                    &mut order,
                    self.config.seed ^ (epoch as u64).wrapping_mul(0x9E37),
                );
            }
            let t0 = Instant::now();
            run_epoch(&mut model, data, &order, self.config.lr, &mut ws);
            train_time += t0.elapsed();
            // Visit-order feedback to the provider (adaptive spill stores
            // rebalance here). Excluded from `train_time` like the curve
            // evaluation: it is maintenance between epochs, not the
            // gradient path the paper times.
            data.end_epoch();
            if self.config.record_curve {
                if let Some((eb, ey)) = eval {
                    curve.push(CurvePoint {
                        epoch: epoch + 1,
                        elapsed: train_time,
                        error_rate: model.error_rate(eb, ey),
                    });
                }
            }
        }
        TrainReport {
            model,
            train_time,
            curve,
        }
    }

    /// Online MGD over a *growing* provider: batches are consumed in
    /// arrival (index) order — for a streaming store that is exactly the
    /// order ingest sealed them — each stepped on once, with prequential
    /// loss reported per fixed-size window of `window_batches`. `more()`
    /// answers "may the stream still grow?": while it returns true the
    /// trainer polls [`BatchProvider::num_batches`] for newly sealed
    /// batches instead of stopping; once false, the remaining sealed
    /// batches drain and training ends (a final partial window is
    /// recorded). Every window boundary fires
    /// [`BatchProvider::end_epoch`] — a window is the online analog of
    /// an epoch — so an adaptive streaming store rebalances mid-stream.
    ///
    /// Deterministic in the consumed batch sequence: arrival *timing*
    /// (how consumption interleaves with ingest, how often the loop
    /// polls) affects only the `windows_during_ingest` liveness counter,
    /// never which batch is consumed when — so an online run over a
    /// streaming store lands bit-identically with one over the same
    /// batches fully materialized (the determinism suite's streaming
    /// leg).
    pub fn train_online(
        &self,
        spec: &ModelSpec,
        data: &dyn BatchProvider,
        window_batches: usize,
        more: &mut dyn FnMut() -> bool,
    ) -> OnlineReport {
        assert!(window_batches > 0, "window must hold at least one batch");
        let mut model = spec.init(data.num_features(), self.config.seed);
        let mut ws = ExecWorkspace::new();
        let mut windows = Vec::new();
        let mut train_time = Duration::ZERO;
        let mut windows_during_ingest = 0usize;
        let mut next = 0usize;
        let mut window_start = 0usize;
        let mut err_rows = 0.0f64;
        let mut rows = 0usize;
        let close_window = |next: usize,
                            window_start: &mut usize,
                            err_rows: &mut f64,
                            rows: &mut usize,
                            train_time: Duration,
                            windows: &mut Vec<WindowPoint>,
                            windows_during_ingest: &mut usize,
                            live: bool| {
            windows.push(WindowPoint {
                window: windows.len() + 1,
                start: *window_start,
                end: next,
                error_rate: if *rows > 0 {
                    *err_rows / *rows as f64
                } else {
                    0.0
                },
                elapsed: train_time,
            });
            if live {
                *windows_during_ingest += 1;
            }
            *window_start = next;
            *err_rows = 0.0;
            *rows = 0;
            data.end_epoch();
        };
        loop {
            if next < data.num_batches() {
                let t0 = Instant::now();
                data.visit(next, &mut |batch, labels| {
                    // Test-then-train: evaluate before stepping.
                    err_rows += model.error_rate_ws(batch, labels, &mut ws) * labels.len() as f64;
                    rows += labels.len();
                    step_ws(&mut model, batch, labels, self.config.lr, &mut ws);
                });
                train_time += t0.elapsed();
                next += 1;
                if next - window_start == window_batches {
                    let live = more();
                    close_window(
                        next,
                        &mut window_start,
                        &mut err_rows,
                        &mut rows,
                        train_time,
                        &mut windows,
                        &mut windows_during_ingest,
                        live,
                    );
                }
                continue;
            }
            if more() {
                // Caught up with a live stream: wait for the next seal.
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            // Stream ended; one last check catches batches sealed between
            // the num_batches poll and the more() answer.
            if next >= data.num_batches() {
                break;
            }
        }
        if next > window_start {
            close_window(
                next,
                &mut window_start,
                &mut err_rows,
                &mut rows,
                train_time,
                &mut windows,
                &mut windows_during_ingest,
                false,
            );
        }
        OnlineReport {
            model,
            windows,
            consumed: next,
            windows_during_ingest,
            train_time,
        }
    }
}

/// One pass of [`Trainer::train`] over `order`: a step per visited batch,
/// all through `ws`.
fn run_epoch(
    model: &mut TrainedModel,
    data: &dyn BatchProvider,
    order: &[usize],
    lr: f64,
    ws: &mut ExecWorkspace,
) {
    for &i in order {
        data.visit(i, &mut |batch, labels| {
            step_ws(model, batch, labels, lr, ws)
        });
    }
}

/// Fisher–Yates shuffle driven by a splitmix-style generator (no RNG crate
/// needed in the hot path; determinism per (seed, epoch) keeps runs
/// reproducible).
fn permute(order: &mut [usize], seed: u64) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// Apply one mini-batch update to any model family.
pub fn step(model: &mut TrainedModel, batch: &AnyBatch, labels: &[f64], lr: f64) {
    step_ws(model, batch, labels, lr, &mut ExecWorkspace::new());
}

/// [`step`] with caller-owned scratch: label/target staging and every
/// model-level buffer come from `ws`, so the per-batch gradient path is
/// allocation-free in steady state.
pub fn step_ws(
    model: &mut TrainedModel,
    batch: &AnyBatch,
    labels: &[f64],
    lr: f64,
    ws: &mut ExecWorkspace,
) {
    match model {
        TrainedModel::Linear(m) => m.update_batch_ws(batch, labels, lr, ws),
        TrainedModel::OneVsRest(m) => {
            // Take the staging buffer out so `ws` can be lent onward.
            let mut idx = std::mem::take(&mut ws.class_idx);
            idx.clear();
            idx.extend(labels.iter().map(|&l| l as usize));
            m.update_batch_ws(batch, &idx, lr, ws);
            ws.class_idx = idx;
        }
        TrainedModel::NeuralNet(nn) => {
            let mut targets = std::mem::take(&mut ws.targets);
            targets_for_nn_into(labels, nn.outputs, &mut targets);
            nn.update_batch_ws(batch, &targets, lr, ws);
            ws.targets = targets;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use toc_formats::Scheme;

    fn make_provider(
        scheme: Scheme,
        n: usize,
        d: usize,
        batch_rows: usize,
        seed: u64,
    ) -> (MemoryProvider, AnyBatch, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = DenseMatrix::zeros(n, d);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let mut f = 0.0;
            #[allow(clippy::needless_range_loop)] // c indexes x, truth in lockstep
            for c in 0..d {
                let v = if rng.gen::<f64>() < 0.5 {
                    (rng.gen_range(0..3) as f64) * 0.5 + 0.5
                } else {
                    0.0
                };
                x.set(r, c, v);
                f += v * truth[c];
            }
            y.push(if f >= 0.0 { 1.0 } else { -1.0 });
        }
        let mut batches = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + batch_rows).min(n);
            let xb = x.slice_rows(start, end);
            batches.push((scheme.encode(&xb), y[start..end].to_vec()));
            start = end;
        }
        let full = scheme.encode(&x);
        (
            MemoryProvider {
                batches,
                features: d,
            },
            full,
            y,
        )
    }

    #[test]
    fn mgd_trains_logistic_regression() {
        let (provider, eval_b, eval_y) = make_provider(Scheme::Toc, 500, 12, 50, 3);
        let trainer = Trainer::new(MgdConfig {
            epochs: 30,
            lr: 0.3,
            ..Default::default()
        });
        let mut report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &provider, None);
        let err = report.model.error_rate(&eval_b, &eval_y);
        assert!(err < 0.1, "error {err}");
    }

    #[test]
    fn curve_is_recorded_and_monotone_ish() {
        let (provider, eval_b, eval_y) = make_provider(Scheme::Csr, 400, 10, 40, 5);
        let trainer = Trainer::new(MgdConfig {
            epochs: 15,
            lr: 0.3,
            record_curve: true,
            ..Default::default()
        });
        let report = trainer.train(
            &ModelSpec::Linear(LossKind::Hinge),
            &provider,
            Some((&eval_b, &eval_y)),
        );
        assert_eq!(report.curve.len(), 15);
        let first = report.curve.first().unwrap().error_rate;
        let last = report.curve.last().unwrap().error_rate;
        assert!(last <= first + 0.02, "no improvement: {first} -> {last}");
    }

    #[test]
    fn identical_models_across_schemes() {
        // MGD is format-agnostic: same batches, different encodings, same
        // trained model (up to fp tolerance).
        let mut finals: Vec<Vec<f64>> = Vec::new();
        for scheme in [
            Scheme::Den,
            Scheme::Toc,
            Scheme::Cvi,
            Scheme::Gzip,
            Scheme::Cla,
        ] {
            let (provider, _, _) = make_provider(scheme, 200, 8, 25, 7);
            let trainer = Trainer::new(MgdConfig {
                epochs: 5,
                lr: 0.2,
                ..Default::default()
            });
            let report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &provider, None);
            match report.model {
                TrainedModel::Linear(m) => finals.push(m.w),
                _ => unreachable!(),
            }
        }
        for other in &finals[1..] {
            for (a, b) in finals[0].iter().zip(other) {
                assert!((a - b).abs() < 1e-8, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn nn_trains_through_engine() {
        let (provider, eval_b, eval_y) = make_provider(Scheme::Toc, 300, 6, 30, 13);
        let trainer = Trainer::new(MgdConfig {
            epochs: 60,
            lr: 0.5,
            ..Default::default()
        });
        let mut report = trainer.train(
            &ModelSpec::NeuralNet {
                hidden: vec![16, 8],
                outputs: 1,
            },
            &provider,
            None,
        );
        let err = report.model.error_rate(&eval_b, &eval_y);
        assert!(err < 0.15, "error {err}");
    }

    #[test]
    fn shuffled_batch_order_still_learns_and_is_deterministic() {
        let (provider, eval_b, eval_y) = make_provider(Scheme::Toc, 300, 8, 30, 23);
        let config = MgdConfig {
            epochs: 10,
            lr: 0.3,
            shuffle_batches: true,
            ..Default::default()
        };
        let run = |cfg: &MgdConfig| {
            let trainer = Trainer::new(cfg.clone());
            let report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &provider, None);
            match report.model {
                TrainedModel::Linear(m) => m.w,
                _ => unreachable!(),
            }
        };
        let w1 = run(&config);
        let w2 = run(&config);
        assert_eq!(w1, w2, "same seed must give identical runs");
        let mut m = TrainedModel::Linear(crate::models::LinearModel::new(8, LossKind::Logistic));
        if let TrainedModel::Linear(lm) = &mut m {
            lm.w = w1.clone();
        }
        let err = m.error_rate(&eval_b, &eval_y);
        assert!(err < 0.15, "error {err}");
        // A different seed gives a different (but also working) model.
        let w3 = run(&MgdConfig { seed: 7, ..config });
        assert_ne!(w1, w3);
    }

    #[test]
    fn weights_are_deterministic_and_cover_every_family() {
        let (provider, _, _) = make_provider(Scheme::Toc, 200, 6, 25, 11);
        let trainer = Trainer::new(MgdConfig {
            epochs: 3,
            lr: 0.2,
            ..Default::default()
        });
        // Linear: weights == w.
        let r = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &provider, None);
        assert_eq!(r.model.weights().len(), 6);
        let r2 = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &provider, None);
        assert_eq!(r.model.weights(), r2.model.weights());
        // NN: weights covers every layer matrix and bias.
        let spec = ModelSpec::NeuralNet {
            hidden: vec![4],
            outputs: 1,
        };
        let r = trainer.train(&spec, &provider, None);
        assert_eq!(r.model.weights().len(), (6 * 4 + 4) + (4 + 1));
        let r2 = trainer.train(&spec, &provider, None);
        assert_eq!(r.model.weights(), r2.model.weights());
    }

    #[test]
    fn an_epoch_builds_one_tree_per_distinct_batch_and_test_then_train_no_more() {
        let (provider, _, _) = make_provider(Scheme::Toc, 300, 8, 50, 29); // 6 batches
        let order: Vec<usize> = (0..provider.num_batches()).collect();
        let builds = |ws: &ExecWorkspace| ws.exec.toc.builds();
        for spec in [
            ModelSpec::Linear(LossKind::Logistic),
            ModelSpec::NeuralNet {
                hidden: vec![5],
                outputs: 1,
            },
        ] {
            let mut model = spec.init(8, 1);
            let mut ws = ExecWorkspace::new();
            run_epoch(&mut model, &provider, &order, 0.1, &mut ws);
            assert_eq!(builds(&ws), 6);
            run_epoch(&mut model, &provider, &order, 0.1, &mut ws);
            assert_eq!(builds(&ws), 12);
            // The online loop's visit: predict, then step, one build.
            let mut ws = ExecWorkspace::new();
            for (batch, labels) in &provider.batches {
                let with_ws = model.clone().error_rate_ws(batch, labels, &mut ws);
                assert_eq!(with_ws, model.error_rate(batch, labels));
                step_ws(&mut model, batch, labels, 0.1, &mut ws);
            }
            assert_eq!(builds(&ws), 6);
        }
        // Batch gradient descent: one batch, however many epochs.
        let (provider, _, _) = make_provider(Scheme::Toc, 120, 8, 120, 31);
        let mut model = ModelSpec::Linear(LossKind::Hinge).init(8, 1);
        let mut ws = ExecWorkspace::new();
        for _ in 0..5 {
            run_epoch(&mut model, &provider, &[0], 0.1, &mut ws);
        }
        assert_eq!(builds(&ws), 1);
    }

    #[test]
    fn online_pass_matches_offline_epoch_and_windows_tile_the_stream() {
        let (provider, _, _) = make_provider(Scheme::Toc, 300, 8, 30, 23); // 10 batches
        let trainer = Trainer::new(MgdConfig {
            epochs: 1,
            lr: 0.2,
            ..Default::default()
        });
        let spec = ModelSpec::Linear(LossKind::Logistic);
        let online = trainer.train_online(&spec, &provider, 4, &mut || false);
        assert_eq!(online.consumed, 10);
        assert_eq!(online.windows.len(), 3); // 4 + 4 + partial 2
        assert_eq!(online.windows[0].start, 0);
        assert_eq!(online.windows[0].end, 4);
        assert_eq!(online.windows.last().unwrap().end, 10);
        assert!(online
            .windows
            .iter()
            .all(|w| (0.0..=1.0).contains(&w.error_rate)));
        assert_eq!(online.windows_during_ingest, 0);
        // A fixed provider consumed once in index order is exactly one
        // unshuffled offline epoch: bit-identical weights.
        let offline = trainer.train(&spec, &provider, None);
        assert_eq!(online.model.weights(), offline.model.weights());
        // Same seed, same stream: bit-identical replay.
        let again = trainer.train_online(&spec, &provider, 4, &mut || false);
        assert_eq!(online.model.weights(), again.model.weights());
        let curve = |r: &OnlineReport| r.windows.iter().map(|w| w.error_rate).collect::<Vec<_>>();
        assert_eq!(curve(&online), curve(&again));
    }

    #[test]
    fn sgd_and_bgd_are_batch_size_extremes() {
        // |B| = 1 (SGD) and |B| = n (BGD) must both run through the same
        // engine (§2.1.2: MGD covers the spectrum).
        for batch_rows in [1, 200] {
            let (provider, eval_b, eval_y) = make_provider(Scheme::Csr, 200, 6, batch_rows, 17);
            let trainer = Trainer::new(MgdConfig {
                epochs: 10,
                lr: 0.2,
                ..Default::default()
            });
            let mut report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &provider, None);
            let err = report.model.error_rate(&eval_b, &eval_y);
            assert!(err < 0.25, "batch_rows={batch_rows} error {err}");
        }
    }
}
