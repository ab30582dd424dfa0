//! ML models trained by MGD over compressed mini-batches.
//!
//! Each model consumes batches through the [`MatrixBatch`] trait, so the
//! same training code runs on DEN, CSR, CVI, DVI, CLA, GC and TOC batches.
//! The matrix operations used per model reproduce Table 1 of the paper:
//!
//! | model | ops |
//! |-------|-----|
//! | Linear/Logistic regression, SVM | `A·v`, `v·A` |
//! | Neural network | `A·M`, `M·A` |

use crate::losses::{sigmoid, softmax_inplace, LossKind};
use crate::workspace::ExecWorkspace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use toc_formats::MatrixBatch;
use toc_linalg::dense::reset_vec;
use toc_linalg::DenseMatrix;

/// Which core matrix operations a model invoked (used by the Table 1
/// conformance test and by harness instrumentation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTrace {
    pub matvec: usize,
    pub vecmat: usize,
    pub matmat: usize,
    /// Algorithm 8 calls: `M·A`, or its transposed form `Aᵀ·D`, which is
    /// how the neural net takes its first-layer gradient.
    pub matmat_left: usize,
}

/// A generalized linear model: linear regression, logistic regression, or
/// SVM depending on [`LossKind`].
#[derive(Clone, Debug)]
pub struct LinearModel {
    /// Weight vector (`d` features; no intercept — generators emit a bias
    /// column when one is wanted).
    pub w: Vec<f64>,
    pub loss: LossKind,
    pub trace: OpTrace,
}

impl LinearModel {
    /// Zero-initialized model for `d` features.
    pub fn new(d: usize, loss: LossKind) -> Self {
        Self {
            w: vec![0.0; d],
            loss,
            trace: OpTrace::default(),
        }
    }

    /// One MGD step (Equation 2): `h ← h − λ (1/|B|) Σ ∂ℓ/∂h`, evaluated
    /// with one `A·v` and one `v·A` (Equation 3).
    ///
    /// Thin wrapper over [`Self::update_batch_ws`] with a throwaway
    /// workspace; steady-state training should hold an [`ExecWorkspace`]
    /// and call the `_ws` variant directly.
    pub fn update_batch(&mut self, batch: &dyn MatrixBatch, y: &[f64], lr: f64) {
        self.update_batch_ws(batch, y, lr, &mut ExecWorkspace::new());
    }

    /// [`Self::update_batch`] with caller-owned scratch: the prediction,
    /// coefficient and gradient buffers (plus the kernels' internal
    /// staging) come from `ws`, so repeated steps allocate nothing.
    pub fn update_batch_ws(
        &mut self,
        batch: &dyn MatrixBatch,
        y: &[f64],
        lr: f64,
        ws: &mut ExecWorkspace,
    ) {
        debug_assert_eq!(batch.rows(), y.len());
        debug_assert_eq!(batch.cols(), self.w.len());
        batch.matvec_into_ws(&self.w, &mut ws.pred, &mut ws.exec);
        self.trace.matvec += 1;
        let inv = 1.0 / y.len() as f64;
        reset_vec(&mut ws.coef, y.len());
        for ((c, &f), &yy) in ws.coef.iter_mut().zip(&ws.pred).zip(y) {
            *c = self.loss.dloss(f, yy) * inv;
        }
        batch.vecmat_into_ws(&ws.coef, &mut ws.grad, &mut ws.exec);
        self.trace.vecmat += 1;
        for (w, d) in self.w.iter_mut().zip(&ws.grad) {
            *w -= lr * d;
        }
    }

    /// Decision values `A·w`.
    pub fn decision(&self, batch: &dyn MatrixBatch) -> Vec<f64> {
        batch.matvec(&self.w)
    }

    /// Mean loss over a batch.
    pub fn mean_loss(&self, batch: &dyn MatrixBatch, y: &[f64]) -> f64 {
        let preds = batch.matvec(&self.w);
        preds
            .iter()
            .zip(y)
            .map(|(&f, &yy)| self.loss.loss(f, yy))
            .sum::<f64>()
            / y.len() as f64
    }

    /// Binary accuracy with ±1 labels (sign rule).
    pub fn accuracy(&self, batch: &dyn MatrixBatch, y: &[f64]) -> f64 {
        self.accuracy_ws(batch, y, &mut ExecWorkspace::new())
    }

    /// [`Self::accuracy`] with caller-owned scratch: a step on the same
    /// batch through the same `ws` reuses what the kernel prepared here.
    pub fn accuracy_ws(&self, batch: &dyn MatrixBatch, y: &[f64], ws: &mut ExecWorkspace) -> f64 {
        batch.matvec_into_ws(&self.w, &mut ws.pred, &mut ws.exec);
        let correct = ws
            .pred
            .iter()
            .zip(y)
            .filter(|(&f, &yy)| (f >= 0.0 && yy > 0.0) || (f < 0.0 && yy < 0.0))
            .count();
        correct as f64 / y.len() as f64
    }
}

/// One-versus-rest multiclass wrapper (§5.3 uses it for LR and SVM on
/// multi-class outputs).
#[derive(Clone, Debug)]
pub struct OneVsRest {
    pub models: Vec<LinearModel>,
}

impl OneVsRest {
    pub fn new(d: usize, classes: usize, loss: LossKind) -> Self {
        Self {
            models: (0..classes).map(|_| LinearModel::new(d, loss)).collect(),
        }
    }

    /// Update all per-class models on one batch. `labels[i]` is the class
    /// index of row `i`.
    pub fn update_batch(&mut self, batch: &dyn MatrixBatch, labels: &[usize], lr: f64) {
        self.update_batch_ws(batch, labels, lr, &mut ExecWorkspace::new());
    }

    /// [`Self::update_batch`] with caller-owned scratch (see
    /// [`LinearModel::update_batch_ws`]).
    pub fn update_batch_ws(
        &mut self,
        batch: &dyn MatrixBatch,
        labels: &[usize],
        lr: f64,
        ws: &mut ExecWorkspace,
    ) {
        // Take the ±1 staging buffer out so `ws` can be lent to the
        // per-class updates.
        let mut y = std::mem::take(&mut ws.ovr_y);
        reset_vec(&mut y, labels.len());
        for (k, model) in self.models.iter_mut().enumerate() {
            for (yy, &l) in y.iter_mut().zip(labels) {
                *yy = if l == k { 1.0 } else { -1.0 };
            }
            model.update_batch_ws(batch, &y, lr, ws);
        }
        ws.ovr_y = y;
    }

    /// Argmax prediction.
    pub fn predict(&self, batch: &dyn MatrixBatch) -> Vec<usize> {
        let mut out = Vec::new();
        self.predict_into(batch, &mut out, &mut ExecWorkspace::new());
        out
    }

    /// [`Self::predict`] into a caller-owned buffer, with caller-owned
    /// scratch: `ws.pred` holds the current class's scores, `ws.coef` the
    /// best score per row so far (ties stay with the earlier class).
    pub fn predict_into(
        &self,
        batch: &dyn MatrixBatch,
        out: &mut Vec<usize>,
        ws: &mut ExecWorkspace,
    ) {
        out.clear();
        out.resize(batch.rows(), 0);
        for (k, model) in self.models.iter().enumerate() {
            batch.matvec_into_ws(&model.w, &mut ws.pred, &mut ws.exec);
            if k == 0 {
                std::mem::swap(&mut ws.coef, &mut ws.pred);
                continue;
            }
            for ((best, top), &score) in out.iter_mut().zip(&mut ws.coef).zip(&ws.pred) {
                if score > *top {
                    *top = score;
                    *best = k;
                }
            }
        }
    }

    /// Multiclass accuracy.
    pub fn accuracy(&self, batch: &dyn MatrixBatch, labels: &[usize]) -> f64 {
        let preds = self.predict(batch);
        let ok = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        ok as f64 / labels.len() as f64
    }
}

/// Feed-forward neural network (§5.3: two hidden layers of 200 and 50
/// sigmoid units by default; sigmoid output for binary targets, softmax for
/// multi-class), trained with cross-entropy.
///
/// Only the input layer touches the (compressed) mini-batch: `A·W1` forward
/// and `δ1ᵀ·A` backward — the `A·M` and `M·A` operations of Table 1.
#[derive(Clone, Debug)]
pub struct NeuralNet {
    /// Layer weight matrices; `weights[l]` maps layer `l` to `l+1`.
    pub weights: Vec<DenseMatrix>,
    /// Per-layer bias vectors.
    pub biases: Vec<Vec<f64>>,
    /// Output units (1 = binary sigmoid; >1 = softmax).
    pub outputs: usize,
    pub trace: OpTrace,
}

/// Activations captured during a forward pass.
pub struct Forward {
    /// Post-activation values per hidden layer.
    pub hidden: Vec<DenseMatrix>,
    /// Output probabilities (`rows × outputs`).
    pub probs: DenseMatrix,
}

impl NeuralNet {
    /// Xavier-style random initialization.
    pub fn new(d: usize, hidden: &[usize], outputs: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sizes = vec![d];
        sizes.extend_from_slice(hidden);
        sizes.push(outputs);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for win in sizes.windows(2) {
            let (fan_in, fan_out) = (win[0], win[1]);
            let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
            weights.push(DenseMatrix::from_vec(
                fan_in,
                fan_out,
                (0..fan_in * fan_out)
                    .map(|_| rng.gen_range(-bound..bound))
                    .collect(),
            ));
            biases.push(vec![0.0; fan_out]);
        }
        Self {
            weights,
            biases,
            outputs,
            trace: OpTrace::default(),
        }
    }

    fn add_bias_sigmoid(z: &mut DenseMatrix, b: &[f64]) {
        for r in 0..z.rows() {
            for (v, &bb) in z.row_mut(r).iter_mut().zip(b) {
                *v = sigmoid(*v + bb);
            }
        }
    }

    /// Forward pass over a (compressed) batch.
    ///
    /// Thin wrapper over [`Self::forward_ws`] with a throwaway workspace;
    /// the returned [`Forward`] owns its activations.
    pub fn forward(&mut self, batch: &dyn MatrixBatch) -> Forward {
        let mut ws = ExecWorkspace::new();
        self.forward_ws(batch, &mut ws);
        let n_layers = self.weights.len();
        let probs = ws.acts[n_layers - 1].clone();
        let hidden = ws.acts[..n_layers - 1].to_vec();
        Forward { hidden, probs }
    }

    /// Forward pass into the workspace: after the call, `ws.acts[l]` holds
    /// the post-activation values of layer `l` and `ws.acts[n_layers - 1]`
    /// the output probabilities. No allocation in steady state.
    pub fn forward_ws(&mut self, batch: &dyn MatrixBatch, ws: &mut ExecWorkspace) {
        let n_layers = self.weights.len();
        ws.ensure_layers(n_layers);
        // Input layer: A · W1 runs on the compressed representation.
        batch.matmat_into_ws(&self.weights[0], &mut ws.acts[0], &mut ws.exec);
        self.trace.matmat += 1;
        Self::add_bias_sigmoid(&mut ws.acts[0], &self.biases[0]);
        for l in 1..n_layers - 1 {
            let (prev, rest) = ws.acts.split_at_mut(l);
            prev[l - 1].matmat_into(&self.weights[l], &mut rest[0]);
            Self::add_bias_sigmoid(&mut rest[0], &self.biases[l]);
        }
        // Output layer.
        let (prev, rest) = ws.acts.split_at_mut(n_layers - 1);
        let last_hidden = &prev[n_layers - 2];
        let out = &mut rest[0];
        last_hidden.matmat_into(&self.weights[n_layers - 1], out);
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (v, &bb) in row.iter_mut().zip(&self.biases[n_layers - 1]) {
                *v += bb;
            }
            if self.outputs == 1 {
                row[0] = sigmoid(row[0]);
            } else {
                softmax_inplace(row);
            }
        }
    }

    /// One MGD step with cross-entropy loss. For binary targets
    /// (`outputs == 1`) labels are 0/1 probabilities of the positive class;
    /// for multiclass they are class indexes encoded as one-hot in
    /// `targets` (`rows × outputs`).
    ///
    /// Thin wrapper over [`Self::update_batch_ws`] with a throwaway
    /// workspace.
    pub fn update_batch(&mut self, batch: &dyn MatrixBatch, targets: &DenseMatrix, lr: f64) {
        self.update_batch_ws(batch, targets, lr, &mut ExecWorkspace::new());
    }

    /// [`Self::update_batch`] with caller-owned scratch: activations,
    /// deltas, gradients and transposition staging all live in `ws`, so a
    /// steady-state epoch performs zero per-batch heap allocation.
    pub fn update_batch_ws(
        &mut self,
        batch: &dyn MatrixBatch,
        targets: &DenseMatrix,
        lr: f64,
        ws: &mut ExecWorkspace,
    ) {
        let n = batch.rows();
        debug_assert_eq!(targets.rows(), n);
        debug_assert_eq!(targets.cols(), self.outputs);
        self.forward_ws(batch, ws);
        let n_layers = self.weights.len();
        let inv = 1.0 / n as f64;

        // Output delta: (p - t) / n for sigmoid+logloss and softmax+CE.
        ws.delta.reset(n, self.outputs);
        {
            let probs = &ws.acts[n_layers - 1];
            for r in 0..n {
                for c in 0..self.outputs {
                    ws.delta
                        .set(r, c, (probs.get(r, c) - targets.get(r, c)) * inv);
                }
            }
        }

        // Walk layers backwards, accumulating weight/bias gradients into
        // the workspace; apply them only after the walk (gradients must be
        // taken at the pre-step weights).
        for l in (0..n_layers).rev() {
            // Gradient for W_l = activationsᵀ · delta.
            if l == 0 {
                // Aᵀ · δ1 on the compressed batch (Algorithm 8).
                batch.matmat_t_into_ws(&ws.delta, &mut ws.grads_w[l], &mut ws.exec);
                self.trace.matmat_left += 1;
            } else {
                ws.acts[l - 1].matmat_t_into(&ws.delta, &mut ws.grads_w[l]);
            }
            let grad_b = &mut ws.grads_b[l];
            reset_vec(grad_b, ws.delta.cols());
            for r in 0..ws.delta.rows() {
                for (gb, &d) in grad_b.iter_mut().zip(ws.delta.row(r)) {
                    *gb += d;
                }
            }
            if l > 0 {
                // delta_{l} = (delta_{l+1} · W_lᵀ) ∘ σ'(hidden_{l-1}).
                self.weights[l].transpose_into(&mut ws.trans);
                ws.delta.matmat_into(&ws.trans, &mut ws.delta2);
                let act = &ws.acts[l - 1];
                for (d, &a) in ws.delta2.data_mut().iter_mut().zip(act.data()) {
                    *d *= a * (1.0 - a);
                }
                std::mem::swap(&mut ws.delta, &mut ws.delta2);
            }
        }
        for l in 0..n_layers {
            let w = self.weights[l].data_mut();
            for (wv, gv) in w.iter_mut().zip(ws.grads_w[l].data()) {
                *wv -= lr * gv;
            }
            for (bv, gv) in self.biases[l].iter_mut().zip(&ws.grads_b[l]) {
                *bv -= lr * gv;
            }
        }
    }

    /// Mean cross-entropy loss.
    pub fn mean_loss(&mut self, batch: &dyn MatrixBatch, targets: &DenseMatrix) -> f64 {
        let fwd = self.forward(batch);
        let n = batch.rows();
        let mut total = 0.0;
        for r in 0..n {
            for c in 0..self.outputs {
                let t = targets.get(r, c);
                let p = fwd.probs.get(r, c).clamp(1e-12, 1.0 - 1e-12);
                if self.outputs == 1 {
                    total -= t * p.ln() + (1.0 - t) * (1.0 - p).ln();
                } else if t > 0.0 {
                    total -= t * p.ln();
                }
            }
        }
        total / n as f64
    }

    /// Classification accuracy. For binary outputs, threshold 0.5; for
    /// multiclass, argmax against the one-hot targets.
    pub fn accuracy(&mut self, batch: &dyn MatrixBatch, targets: &DenseMatrix) -> f64 {
        self.accuracy_ws(batch, targets, &mut ExecWorkspace::new())
    }

    /// [`Self::accuracy`] with caller-owned scratch (see
    /// [`Self::forward_ws`]).
    pub fn accuracy_ws(
        &mut self,
        batch: &dyn MatrixBatch,
        targets: &DenseMatrix,
        ws: &mut ExecWorkspace,
    ) -> f64 {
        self.forward_ws(batch, ws);
        let probs = &ws.acts[self.weights.len() - 1];
        let n = batch.rows();
        let mut ok = 0usize;
        for r in 0..n {
            if self.outputs == 1 {
                let pred = probs.get(r, 0) >= 0.5;
                let truth = targets.get(r, 0) >= 0.5;
                if pred == truth {
                    ok += 1;
                }
            } else {
                let row = probs.row(r);
                let mut best = 0;
                for c in 1..self.outputs {
                    if row[c] > row[best] {
                        best = c;
                    }
                }
                if targets.get(r, best) >= 0.5 {
                    ok += 1;
                }
            }
        }
        ok as f64 / n as f64
    }

    /// Encode class labels as a one-hot target matrix.
    pub fn one_hot(labels: &[usize], classes: usize) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(labels.len(), classes);
        for (r, &l) in labels.iter().enumerate() {
            t.set(r, l, 1.0);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toc_formats::Scheme;

    fn separable_data(n: usize, d: usize, seed: u64) -> (DenseMatrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = DenseMatrix::zeros(n, d);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let mut f = 0.0;
            #[allow(clippy::needless_range_loop)] // c indexes x, truth in lockstep
            for c in 0..d {
                // Small value pool keeps TOC happy.
                let v = if rng.gen::<f64>() < 0.4 {
                    (rng.gen_range(0..4) as f64) * 0.5
                } else {
                    0.0
                };
                x.set(r, c, v);
                f += v * truth[c];
            }
            y.push(if f >= 0.0 { 1.0 } else { -1.0 });
        }
        (x, y)
    }

    #[test]
    fn linear_gradient_matches_numeric() {
        let (x, y) = separable_data(12, 6, 3);
        let batch = Scheme::Den.encode(&x);
        for loss in [LossKind::Squared, LossKind::Logistic] {
            let mut m = LinearModel::new(6, loss);
            for w in m.w.iter_mut() {
                *w = 0.1;
            }
            // Analytic gradient via one update with lr=1.
            let mut stepped = m.clone();
            stepped.update_batch(&batch, &y, 1.0);
            let analytic: Vec<f64> = m.w.iter().zip(&stepped.w).map(|(a, b)| a - b).collect();
            // Numeric gradient of the mean loss.
            let eps = 1e-6;
            #[allow(clippy::needless_range_loop)] // k indexes weights and analytic
            for k in 0..6 {
                let mut mp = m.clone();
                mp.w[k] += eps;
                let mut mm = m.clone();
                mm.w[k] -= eps;
                let num = (mp.mean_loss(&batch, &y) - mm.mean_loss(&batch, &y)) / (2.0 * eps);
                assert!(
                    (num - analytic[k]).abs() < 1e-5,
                    "{loss:?} dim {k}: {num} vs {}",
                    analytic[k]
                );
            }
        }
    }

    #[test]
    fn linear_models_learn_separable_data() {
        let (x, y) = separable_data(400, 10, 7);
        for loss in [LossKind::Logistic, LossKind::Hinge, LossKind::Squared] {
            let mut m = LinearModel::new(10, loss);
            let batch = Scheme::Toc.encode(&x);
            for _ in 0..300 {
                m.update_batch(&batch, &y, 0.1);
            }
            let acc = m.accuracy(&batch, &y);
            assert!(acc > 0.9, "{loss:?} accuracy {acc}");
        }
    }

    #[test]
    fn training_on_toc_equals_training_on_den() {
        let (x, y) = separable_data(100, 8, 11);
        let den = Scheme::Den.encode(&x);
        let toc = Scheme::Toc.encode(&x);
        let mut m1 = LinearModel::new(8, LossKind::Logistic);
        let mut m2 = LinearModel::new(8, LossKind::Logistic);
        for _ in 0..50 {
            m1.update_batch(&den, &y, 0.2);
            m2.update_batch(&toc, &y, 0.2);
        }
        for (a, b) in m1.w.iter().zip(&m2.w) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn table1_op_usage() {
        // Table 1: GLMs use A·v and v·A; the NN input layer uses A·M and M·A.
        let (x, y) = separable_data(20, 5, 1);
        let batch = Scheme::Den.encode(&x);
        let mut lm = LinearModel::new(5, LossKind::Logistic);
        lm.update_batch(&batch, &y, 0.1);
        assert_eq!(
            lm.trace,
            OpTrace {
                matvec: 1,
                vecmat: 1,
                matmat: 0,
                matmat_left: 0
            }
        );

        let mut nn = NeuralNet::new(5, &[8, 4], 1, 0);
        let targets = DenseMatrix::from_vec(20, 1, y.iter().map(|&v| (v + 1.0) / 2.0).collect());
        nn.update_batch(&batch, &targets, 0.1);
        assert_eq!(nn.trace.matmat, 1);
        assert_eq!(nn.trace.matmat_left, 1);
        assert_eq!(nn.trace.matvec, 0);
    }

    #[test]
    fn a_step_prepares_its_toc_batch_once() {
        // However many kernels a step runs on its batch, they share one
        // C' build — and, for the matrix kernels, one live plan.
        let (x, y) = separable_data(60, 7, 4);
        let batch = Scheme::Toc.encode(&x);
        let prepared = |ws: &ExecWorkspace| (ws.exec.toc.builds(), ws.exec.toc.plans());

        let mut ws = ExecWorkspace::new();
        let mut lm = LinearModel::new(7, LossKind::Logistic);
        lm.update_batch_ws(&batch, &y, 0.1, &mut ws);
        assert_eq!(prepared(&ws), (1, 0));
        // Predicting first (test-then-train) adds a kernel, not a build.
        lm.accuracy_ws(&batch, &y, &mut ws);
        lm.update_batch_ws(&batch, &y, 0.1, &mut ws);
        assert_eq!(prepared(&ws), (1, 0));

        let mut ws = ExecWorkspace::new();
        let labels: Vec<usize> = (0..60).map(|r| r % 10).collect();
        let mut ovr = OneVsRest::new(7, 10, LossKind::Hinge);
        ovr.update_batch_ws(&batch, &labels, 0.1, &mut ws);
        assert_eq!(ovr.models.iter().map(|m| m.trace.matvec).sum::<usize>(), 10);
        assert_eq!(prepared(&ws), (1, 0));

        let mut ws = ExecWorkspace::new();
        let targets = DenseMatrix::from_vec(60, 1, y.iter().map(|&v| (v + 1.0) / 2.0).collect());
        let mut nn = NeuralNet::new(7, &[9, 4], 1, 0);
        nn.update_batch_ws(&batch, &targets, 0.1, &mut ws);
        assert_eq!(prepared(&ws), (1, 1));
        nn.accuracy_ws(&batch, &targets, &mut ws);
        nn.update_batch_ws(&batch, &targets, 0.1, &mut ws);
        assert_eq!(prepared(&ws), (1, 1));
    }

    #[test]
    fn nn_first_layer_gradient_is_one_compressed_call_per_step() {
        // `Aᵀ·δ` counts as the step's one Algorithm 8 call, whether the
        // scheme runs it natively (TOC) or through the provided `M·A`.
        let (x, y) = separable_data(40, 6, 9);
        let targets = DenseMatrix::from_vec(40, 1, y.iter().map(|&v| (v + 1.0) / 2.0).collect());
        let mut weights = Vec::new();
        for scheme in [
            Scheme::Den,
            Scheme::Csr,
            Scheme::Toc,
            Scheme::TocSparseLogical,
        ] {
            let batch = scheme.encode(&x);
            let mut nn = NeuralNet::new(6, &[10, 5], 1, 3);
            let mut ws = ExecWorkspace::new();
            for _ in 0..3 {
                nn.update_batch_ws(&batch, &targets, 0.2, &mut ws);
            }
            assert_eq!(
                (nn.trace.matmat, nn.trace.matmat_left),
                (3, 3),
                "{scheme:?}"
            );
            weights.push(nn.weights[0].clone());
        }
        for w in &weights[1..] {
            assert!(w.max_abs_diff(&weights[0]) < 1e-12);
        }
    }

    #[test]
    fn ws_predictions_equal_the_allocating_ones() {
        let (x, y) = separable_data(80, 6, 8);
        let batch = Scheme::Toc.encode(&x);
        let mut ws = ExecWorkspace::new();
        let labels: Vec<usize> = (0..80).map(|r| r % 3).collect();
        let mut ovr = OneVsRest::new(6, 3, LossKind::Logistic);
        for _ in 0..5 {
            ovr.update_batch_ws(&batch, &labels, 0.3, &mut ws);
        }
        // The argmax as it was written over all classes' scores at once.
        let scores: Vec<Vec<f64>> = ovr.models.iter().map(|m| m.decision(&batch)).collect();
        let want: Vec<usize> = (0..80)
            .map(|r| {
                (1..3).fold(0, |best, k| {
                    if scores[k][r] > scores[best][r] {
                        k
                    } else {
                        best
                    }
                })
            })
            .collect();
        let mut got = vec![7; 3];
        ovr.predict_into(&batch, &mut got, &mut ws);
        assert_eq!(got, want);
        assert_eq!(ovr.predict(&batch), want);

        let mut lm = LinearModel::new(6, LossKind::Hinge);
        lm.update_batch_ws(&batch, &y, 0.2, &mut ws);
        assert_eq!(lm.accuracy_ws(&batch, &y, &mut ws), lm.accuracy(&batch, &y));
        let targets = NeuralNet::one_hot(&labels, 3);
        let mut nn = NeuralNet::new(6, &[5], 3, 1);
        nn.update_batch_ws(&batch, &targets, 0.2, &mut ws);
        assert_eq!(
            nn.accuracy_ws(&batch, &targets, &mut ws),
            nn.clone().accuracy(&batch, &targets)
        );
    }

    #[test]
    fn nn_gradient_matches_numeric() {
        let (x, y) = separable_data(10, 4, 5);
        let batch = Scheme::Den.encode(&x);
        let targets = DenseMatrix::from_vec(10, 1, y.iter().map(|&v| (v + 1.0) / 2.0).collect());
        let base = NeuralNet::new(4, &[5], 1, 42);
        // Analytic via one lr=1 step.
        let mut stepped = base.clone();
        stepped.update_batch(&batch, &targets, 1.0);
        let eps = 1e-6;
        for l in 0..base.weights.len() {
            for k in 0..base.weights[l].data().len().min(8) {
                let mut p = base.clone();
                p.weights[l].data_mut()[k] += eps;
                let mut m = base.clone();
                m.weights[l].data_mut()[k] -= eps;
                let num =
                    (p.mean_loss(&batch, &targets) - m.mean_loss(&batch, &targets)) / (2.0 * eps);
                let ana = base.weights[l].data()[k] - stepped.weights[l].data()[k];
                assert!(
                    (num - ana).abs() < 1e-4,
                    "layer {l} weight {k}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn nn_learns_binary_problem() {
        let (x, y) = separable_data(300, 8, 21);
        let targets = DenseMatrix::from_vec(300, 1, y.iter().map(|&v| (v + 1.0) / 2.0).collect());
        let batch = Scheme::Toc.encode(&x);
        let mut nn = NeuralNet::new(8, &[16, 8], 1, 2);
        for _ in 0..400 {
            nn.update_batch(&batch, &targets, 0.5);
        }
        let acc = nn.accuracy(&batch, &targets);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn ovr_multiclass_learns() {
        // Three linearly separable clusters on a small value grid.
        let mut rng = StdRng::seed_from_u64(9);
        let n = 300;
        let mut x = DenseMatrix::zeros(n, 3);
        let mut labels = Vec::with_capacity(n);
        for r in 0..n {
            let k = r % 3;
            x.set(r, k, 2.0 + (rng.gen_range(0..3) as f64) * 0.5);
            labels.push(k);
        }
        let batch = Scheme::Cvi.encode(&x);
        let mut ovr = OneVsRest::new(3, 3, LossKind::Logistic);
        for _ in 0..200 {
            ovr.update_batch(&batch, &labels, 0.3);
        }
        assert!(ovr.accuracy(&batch, &labels) > 0.95);
    }

    #[test]
    fn softmax_nn_multiclass() {
        let n = 240;
        let mut x = DenseMatrix::zeros(n, 4);
        let mut labels = Vec::with_capacity(n);
        for r in 0..n {
            let k = r % 4;
            x.set(r, k, 1.5);
            labels.push(k);
        }
        let targets = NeuralNet::one_hot(&labels, 4);
        let batch = Scheme::Den.encode(&x);
        let mut nn = NeuralNet::new(4, &[12], 4, 3);
        for _ in 0..300 {
            nn.update_batch(&batch, &targets, 0.8);
        }
        assert!(nn.accuracy(&batch, &targets) > 0.95);
    }
}
