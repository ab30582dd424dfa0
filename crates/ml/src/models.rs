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
use crate::workspace::{ExecWorkspace, GroupBufs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::panic;
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread;
use std::time::{Duration, Instant};
use toc_formats::{ExecScratch, MatrixBatch};
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

/// The least `size_bytes × p` — a batch's encoded bytes times the width
/// of the first hidden layer — at which a step splits its first layer
/// across cores (see [`NeuralNet::update_batch_ws`]). Below it the split's
/// fixed cost, a thread spawned every step and the hand-offs, outweighs
/// half the first layer's work. A constant, not a knob. Measured on a
/// 2-vCPU Xeon with 250-row batches and `[32, 16]` hidden units, serial
/// against split µs per step over two alternated passes: census-like TOC
/// (`size_bytes × p` = 140 k) 645–657 vs 871–1 563 and kdd99-like TOC
/// (56 k) 487–512 vs 487–496 stay serial, as do rcv1-like TOC (689 k,
/// 1 211–1 241 vs 1 096–1 332) and CSR (608 k, 859–1 185 vs 960–1 244),
/// a wash; kdd99-like CSR (1.53 M) 699–756 vs 625, mnist-like TOC
/// (1.97 M) 2 368–2 790 vs 1 992–2 006 and imagenet-like TOC (2.43 M)
/// 3 197–3 330 vs 2 785–3 069 split.
pub const SPLIT_WORK: usize = 1 << 20;

/// Column groups are whole multiples of this many hidden units: the TOC
/// matrix kernels sweep their dense operand in blocks of 8 columns
/// (`toc_core::ops::BLOCK`) and pad a tail block to full width, so a group
/// boundary inside a block would pay for one block twice.
const GROUP_COLS: usize = 8;

/// How many column groups a step splits a `p`-unit first layer into over
/// a batch of `size_bytes` encoded bytes: one per core, at most one per
/// [`GROUP_COLS`] units, and `1` (serial) below [`SPLIT_WORK`].
fn split_groups(size_bytes: usize, p: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if size_bytes.saturating_mul(p) < SPLIT_WORK {
        return 1;
    }
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    cores.min(p.div_ceil(GROUP_COLS))
}

/// The hidden units of column group `g` of `groups`: whole blocks of
/// [`GROUP_COLS`], the earlier groups — the caller's first — taking the
/// extra block when they do not divide evenly.
fn group_cols(p: usize, groups: usize, g: usize) -> Range<usize> {
    let blocks = p.div_ceil(GROUP_COLS);
    let start = |g: usize| ((g * blocks).div_ceil(groups) * GROUP_COLS).min(p);
    start(g)..start(g + 1)
}

/// How long a hand-off between the threads of a split step polls before
/// it blocks. Blocking costs a wake-up, which on a virtualised host takes
/// from a few µs to a few hundred, and it falls on the step's critical
/// path; the longest wait, a helper's for `δ2` while the caller runs the
/// dense layers, was 0.15–0.6 ms on the presets measured at `[32, 16]`
/// hidden units. The poll yields the core between tries, so a store's IO
/// and decode threads still get it. A constant, not a knob.
const SPIN: Duration = Duration::from_millis(1);

/// Which end of a split step's groups a thread starts from.
#[derive(Clone, Copy)]
enum Order {
    FromFirst,
    FromLast,
}

/// Thread `me` (0 the caller, `h + 1` helper `h`) brings the groups to
/// `done >= phase`, running `work` on each that is not there yet, from the
/// `order` end. A group another thread holds is being worked on: the
/// caller, which needs every group done, waits for it ([`lock`]); a helper
/// passes it by. A helper takes a group's backward half only if it ran
/// its forward half: its kernel scratch has prepared the batch then, where
/// a first touch could cost a TOC batch its `C'` and live plan on the
/// step's critical path; the caller takes whatever is left. `None` if a
/// group's lock is poisoned: a helper panicked on it.
fn work_through(
    groups: &[Mutex<GroupBufs>],
    order: Order,
    phase: u8,
    me: usize,
    mut work: impl FnMut(usize, &mut GroupBufs),
) -> Option<()> {
    let n = groups.len();
    for k in 0..n {
        let g = match order {
            Order::FromFirst => k,
            Order::FromLast => n - 1 - k,
        };
        let mut bufs = match groups[g].try_lock() {
            Ok(bufs) => bufs,
            Err(TryLockError::WouldBlock) if me > 0 => continue,
            Err(TryLockError::WouldBlock) => lock(&groups[g])?,
            Err(TryLockError::Poisoned(_)) => return None,
        };
        let mine = me == 0 || phase == 1 || bufs.by == me;
        if bufs.done < phase && mine {
            work(g, &mut bufs);
            (bufs.done, bufs.by) = (phase, me);
        }
    }
    Some(())
}

/// `group`'s lock, polled: the thread that holds it is working on the
/// group and lets go when it is done, and blocking on it would cost a
/// wake-up. `None` if the lock is poisoned.
fn lock(group: &Mutex<GroupBufs>) -> Option<MutexGuard<'_, GroupBufs>> {
    loop {
        match group.try_lock() {
            Ok(bufs) => return Some(bufs),
            Err(TryLockError::Poisoned(_)) => return None,
            Err(TryLockError::WouldBlock) => thread::yield_now(),
        }
    }
}

/// The next message on `rx`, polling for up to [`SPIN`] before it blocks;
/// `None` once the sender has hung up.
fn receive<T>(rx: &Receiver<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(message) => return Some(message),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() < SPIN => thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv().ok(),
        }
    }
}

impl GroupBufs {
    /// The forward half of column group `range`: `act = σ(A·W_g + b_g)`,
    /// the serial step's columns `range` of the first layer's activations.
    fn forward(
        &mut self,
        batch: &dyn MatrixBatch,
        w1: &DenseMatrix,
        b1: &[f64],
        range: Range<usize>,
        exec: &mut ExecScratch,
    ) {
        w1.columns_into(range.clone(), &mut self.w);
        batch.matmat_into_ws(&self.w, &mut self.act, exec);
        add_bias_sigmoid(&mut self.act, &b1[range]);
    }

    /// The backward half, from the second layer's delta `delta2` and
    /// `W2ᵀ` (`trans2`): the serial step's columns `range` of `δ1 = (δ2 ·
    /// W2ᵀ) ∘ σ'(act)`, of the first layer's bias gradient (`grad_b`) and
    /// of `Aᵀ·δ1` (`grad`).
    fn backward(
        &mut self,
        batch: &dyn MatrixBatch,
        delta2: &DenseMatrix,
        trans2: &DenseMatrix,
        range: Range<usize>,
        exec: &mut ExecScratch,
    ) {
        trans2.columns_into(range, &mut self.trans);
        delta2.matmat_into(&self.trans, &mut self.delta);
        sigmoid_grad_and_sums(&mut self.delta, &self.act, &mut self.grad_b);
        batch.matmat_t_into_ws(&self.delta, &mut self.grad, exec);
    }
}

/// `z = σ(z + b)`, `b` added to every row.
fn add_bias_sigmoid(z: &mut DenseMatrix, b: &[f64]) {
    for r in 0..z.rows() {
        for (v, &bb) in z.row_mut(r).iter_mut().zip(b) {
            *v = sigmoid(*v + bb);
        }
    }
}

/// `σ'` of the first layer's activations `act` into `delta` in place
/// (`delta ∘= act ∘ (1 − act)`), and `delta`'s column sums — the first
/// layer's bias gradient — into `sums`.
fn sigmoid_grad_and_sums(delta: &mut DenseMatrix, act: &DenseMatrix, sums: &mut Vec<f64>) {
    for (d, &a) in delta.data_mut().iter_mut().zip(act.data()) {
        *d *= a * (1.0 - a);
    }
    reset_vec(sums, delta.cols());
    for r in 0..delta.rows() {
        for (s, &d) in sums.iter_mut().zip(delta.row(r)) {
            *s += d;
        }
    }
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
        ws.ensure_layers(self.weights.len());
        // Input layer: A · W1 runs on the compressed representation.
        batch.matmat_into_ws(&self.weights[0], &mut ws.acts[0], &mut ws.exec);
        self.trace.matmat += 1;
        add_bias_sigmoid(&mut ws.acts[0], &self.biases[0]);
        self.forward_dense(ws);
    }

    /// The forward pass after the first layer, whose activations
    /// `ws.acts[0]` holds on entry.
    fn forward_dense(&self, ws: &mut ExecWorkspace) {
        let n_layers = self.weights.len();
        for l in 1..n_layers - 1 {
            let (prev, rest) = ws.acts.split_at_mut(l);
            prev[l - 1].matmat_into(&self.weights[l], &mut rest[0]);
            add_bias_sigmoid(&mut rest[0], &self.biases[l]);
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
    /// deltas, gradients and transposition staging all live in `ws`, so in
    /// a steady-state epoch no buffer grows.
    ///
    /// When the first layer is worth it ([`SPLIT_WORK`]) and the host has
    /// more than one core, the step splits it by hidden units: one column
    /// group of `W1` per core, the caller's thread running the first group
    /// and a scoped helper thread each of the others. A group computes its
    /// columns of the first layer's activations (`σ(A·W_g + b_g)`), of its
    /// delta and of its two gradients (`Aᵀ·δ_g` and the bias's); the
    /// caller runs the dense layers in between. Every output column of
    /// `A·W1`, of `Aᵀ·δ1` and of the element-wise and dense steps around
    /// them is computed in the same order whatever the other columns are,
    /// so the weights are the serial step's, bit for bit.
    pub fn update_batch_ws(
        &mut self,
        batch: &dyn MatrixBatch,
        targets: &DenseMatrix,
        lr: f64,
        ws: &mut ExecWorkspace,
    ) {
        let groups = split_groups(batch.size_bytes(), self.weights[0].cols());
        self.step(batch, targets, lr, ws, groups);
    }

    /// [`Self::update_batch_ws`] with the first layer split into `groups`
    /// column groups (`1`: serial).
    fn step(
        &mut self,
        batch: &dyn MatrixBatch,
        targets: &DenseMatrix,
        lr: f64,
        ws: &mut ExecWorkspace,
        groups: usize,
    ) {
        debug_assert_eq!(targets.rows(), batch.rows());
        debug_assert_eq!(targets.cols(), self.outputs);
        ws.ensure_layers(self.weights.len());
        if groups > 1 {
            self.split_first_layer(batch, targets, ws, groups);
        } else {
            batch.matmat_into_ws(&self.weights[0], &mut ws.acts[0], &mut ws.exec);
            add_bias_sigmoid(&mut ws.acts[0], &self.biases[0]);
            self.forward_dense(ws);
            self.backward_dense(targets, ws);
            // δ1 = (δ2 · W2ᵀ) ∘ σ'(hidden_1), and its bias gradient.
            ws.delta.matmat_into(&ws.trans, &mut ws.delta2);
            std::mem::swap(&mut ws.delta, &mut ws.delta2);
            sigmoid_grad_and_sums(&mut ws.delta, &ws.acts[0], &mut ws.grads_b[0]);
            // Aᵀ · δ1 on the compressed batch (Algorithm 8).
            batch.matmat_t_into_ws(&ws.delta, &mut ws.grads_w[0], &mut ws.exec);
        }
        self.trace.matmat += 1;
        self.trace.matmat_left += 1;
        for l in 0..self.weights.len() {
            let w = self.weights[l].data_mut();
            for (wv, gv) in w.iter_mut().zip(ws.grads_w[l].data()) {
                *wv -= lr * gv;
            }
            for (bv, gv) in self.biases[l].iter_mut().zip(&ws.grads_b[l]) {
                *bv -= lr * gv;
            }
        }
    }

    /// The backward pass down to the second layer: every gradient of the
    /// layers after the first, taken at the pre-step weights (they are
    /// applied after the step). Leaves the second layer's delta `δ2` in
    /// `ws.delta` and `W2ᵀ` in `ws.trans`: what the first layer's delta is
    /// made of.
    fn backward_dense(&self, targets: &DenseMatrix, ws: &mut ExecWorkspace) {
        let n = targets.rows();
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

        for l in (1..n_layers).rev() {
            let grad_b = &mut ws.grads_b[l];
            reset_vec(grad_b, ws.delta.cols());
            for r in 0..ws.delta.rows() {
                for (gb, &d) in grad_b.iter_mut().zip(ws.delta.row(r)) {
                    *gb += d;
                }
            }
            // Gradient for W_l = activationsᵀ · delta.
            ws.acts[l - 1].matmat_t_into(&ws.delta, &mut ws.grads_w[l]);
            self.weights[l].transpose_into(&mut ws.trans);
            if l > 1 {
                // delta_{l} = (delta_{l+1} · W_lᵀ) ∘ σ'(hidden_{l-1}).
                ws.delta.matmat_into(&ws.trans, &mut ws.delta2);
                let act = &ws.acts[l - 1];
                for (d, &a) in ws.delta2.data_mut().iter_mut().zip(act.data()) {
                    *d *= a * (1.0 - a);
                }
                std::mem::swap(&mut ws.delta, &mut ws.delta2);
            }
        }
    }

    /// The first layer split into `groups` column groups of `W1` (see
    /// [`Self::update_batch_ws`]): afterwards `ws` holds the activations
    /// and gradients the serial step leaves.
    ///
    /// Each group has a forward half ([`GroupBufs::forward`]) and a
    /// backward half ([`GroupBufs::backward`]), and a lock that whichever
    /// thread works on it holds. The caller takes the groups in order and
    /// the helpers from the last, each skipping what is done
    /// ([`work_through`]): a helper that starts late, or not at all before
    /// the caller gets there, leaves its groups to the caller instead of
    /// stalling it. Between the halves the caller gathers the activations,
    /// runs the dense layers and lends the helpers `δ2` and `W2ᵀ`.
    ///
    /// Every buffer a helper writes is grown here, before it starts
    /// ([`MatrixBatch::reserve_scratch`] for its kernels' scratch): what a
    /// thread allocates comes from an allocator arena of its own, and a
    /// helper's would stay resident. A helper's panic comes back through
    /// its join, and the caller raises it again, payload and all.
    fn split_first_layer(
        &self,
        batch: &dyn MatrixBatch,
        targets: &DenseMatrix,
        ws: &mut ExecWorkspace,
        groups: usize,
    ) {
        let (rows, cols) = (batch.rows(), batch.cols());
        let (w1, b1) = (&self.weights[0], &self.biases[0][..]);
        let (p, next) = (w1.cols(), self.weights[1].cols());
        // Out of `ws` while the helpers hold them, so that the dense
        // layers can have the rest of it meanwhile.
        let mut split = std::mem::take(&mut ws.groups);
        let mut helper_exec = std::mem::take(&mut ws.helper_exec);
        split.resize_with(split.len().max(groups), Mutex::default);
        helper_exec.resize_with(helper_exec.len().max(groups - 1), ExecScratch::default);
        for (g, group) in split[..groups].iter_mut().enumerate() {
            let bufs = group.get_mut().expect("a lock no thread holds yet");
            bufs.reserve(rows, cols, next, group_cols(p, groups, g).len());
            bufs.done = 0;
        }
        let widest = group_cols(p, groups, 0).len();
        for exec in &mut helper_exec[..groups - 1] {
            batch.reserve_scratch(widest, exec);
        }
        let split_groups = &split[..groups];
        let forward = |g: usize, bufs: &mut GroupBufs, exec: &mut ExecScratch| {
            bufs.forward(batch, w1, b1, group_cols(p, groups, g), exec)
        };
        std::thread::scope(|scope| {
            let (go, helpers): (Vec<_>, Vec<_>) = (1..)
                .zip(&mut helper_exec[..groups - 1])
                .map(|(me, exec)| {
                    let (go_tx, go_rx) = mpsc::sync_channel(1);
                    let helper = scope.spawn(move || {
                        work_through(split_groups, Order::FromLast, 1, me, |g, bufs| {
                            forward(g, bufs, exec)
                        })?;
                        let (delta2, trans2) = receive(&go_rx)?;
                        work_through(split_groups, Order::FromLast, 2, me, |g, bufs| {
                            bufs.backward(batch, delta2, trans2, group_cols(p, groups, g), exec)
                        })
                    });
                    (go_tx, helper)
                })
                .unzip();
            // Each half is `None` once a group is poisoned: a helper
            // panicked on it.
            let forward_half = (|| {
                let exec = &mut ws.exec;
                work_through(split_groups, Order::FromFirst, 1, 0, |g, bufs| {
                    forward(g, bufs, exec)
                })?;
                ws.acts[0].reset(rows, p);
                for (g, group) in split_groups.iter().enumerate() {
                    ws.acts[0].set_columns(group_cols(p, groups, g).start, &lock(group)?.act);
                }
                Some(())
            })();
            if forward_half.is_some() {
                self.forward_dense(ws);
                self.backward_dense(targets, ws);
                let (delta2, trans2) = (&ws.delta, &ws.trans);
                for go_tx in &go {
                    // A helper that hung up has panicked.
                    let _ = go_tx.send((delta2, trans2));
                }
                let _ = (|| {
                    let exec = &mut ws.exec;
                    work_through(split_groups, Order::FromFirst, 2, 0, |g, bufs| {
                        bufs.backward(batch, delta2, trans2, group_cols(p, groups, g), exec)
                    })?;
                    ws.grads_w[0].reset(cols, p);
                    ws.grads_b[0].clear();
                    for (g, group) in split_groups.iter().enumerate() {
                        let bufs = lock(group)?;
                        ws.grads_w[0].set_columns(group_cols(p, groups, g).start, &bufs.grad);
                        ws.grads_b[0].extend_from_slice(&bufs.grad_b);
                    }
                    Some(())
                })();
            }
            // A helper still waiting for `δ2` returns once `go` hangs up.
            drop(go);
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    panic::resume_unwind(payload);
                }
            }
        });
        ws.groups = split;
        ws.helper_exec = helper_exec;
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
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU8, Ordering};
    use toc_data::synth::{generate_preset, Dataset, DatasetPreset};
    use toc_formats::{AnyBatch, ExecScratch, Scheme};

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

    /// `ds`'s labels as the trainer hands them to the net: `outputs` units.
    fn nn_targets(ds: &Dataset) -> (usize, DenseMatrix) {
        let outputs = if ds.classes == 2 { 1 } else { ds.classes };
        let mut targets = DenseMatrix::default();
        crate::mgd::targets_for_nn_into(&ds.labels, outputs, &mut targets);
        (outputs, targets)
    }

    /// Every weight and bias of `nn`, as bits.
    fn bits(nn: &NeuralNet) -> Vec<u64> {
        let weights = nn.weights.iter().flat_map(|w| w.data());
        let biases = nn.biases.iter().flatten();
        weights.chain(biases).map(|x| x.to_bits()).collect()
    }

    /// `nn` after `steps` steps on `batch` through one workspace, its first
    /// layer split into `groups` column groups.
    fn stepped(
        nn: &NeuralNet,
        batch: &dyn MatrixBatch,
        targets: &DenseMatrix,
        groups: usize,
    ) -> NeuralNet {
        let mut nn = nn.clone();
        let mut ws = ExecWorkspace::new();
        for _ in 0..2 {
            nn.step(batch, targets, 0.3, &mut ws, groups);
        }
        nn
    }

    #[test]
    fn a_split_step_is_the_serial_step_bit_for_bit() {
        // Every scheme, resident, parsed (carrying its own tree, holding no
        // plan) and, for the TOC family, holding its plan; first layers
        // narrower than, as wide as and wider than one, two and four
        // column groups, split in two and in three (an empty group
        // included).
        for (preset, rows) in [
            (DatasetPreset::CensusLike, 40),
            (DatasetPreset::MnistLike, 24),
        ] {
            let ds = generate_preset(preset, rows, 5);
            let (outputs, targets) = nn_targets(&ds);
            for scheme in Scheme::ALL {
                let resident = scheme.encode(&ds.x);
                let parsed = Scheme::from_bytes(&resident.to_bytes()).unwrap();
                let mut forms = vec![("resident", resident.clone()), ("parsed", parsed)];
                let mut held = resident;
                if let Some(toc) = held.toc_mut() {
                    toc.hold_plan();
                    forms.push(("held", held));
                }
                for (form, batch) in &forms {
                    for p in [8, 9, 16, 17, 20, 32, 33] {
                        let nn = NeuralNet::new(ds.x.cols(), &[p, 5], outputs, 3);
                        let serial = bits(&stepped(&nn, batch, &targets, 1));
                        for groups in [2, 3] {
                            let split = stepped(&nn, batch, &targets, groups);
                            assert!(
                                split.trace.matmat == 2 && split.trace.matmat_left == 2,
                                "one A·M and one Aᵀ·δ per step, however split"
                            );
                            assert!(
                                bits(&split) == serial,
                                "{} {} {form} p={p} groups={groups}",
                                preset.name(),
                                scheme.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_groups_are_whole_blocks_the_callers_first_and_widest() {
        for p in [8, 9, 16, 17, 20, 32, 33] {
            for groups in [2, 3, 4] {
                let ranges: Vec<_> = (0..groups).map(|g| group_cols(p, groups, g)).collect();
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[groups - 1].end, p);
                // More groups than blocks leaves some empty; otherwise no
                // group is wider than one before it.
                let even = groups <= p.div_ceil(GROUP_COLS);
                for (a, b) in ranges.iter().zip(&ranges[1..]) {
                    assert_eq!(a.end, b.start);
                    assert!(a.start % GROUP_COLS == 0 || a.is_empty(), "{p}/{groups}");
                    assert!(!even || a.len() >= b.len(), "{p}/{groups}");
                }
            }
        }
        assert_eq!(group_cols(20, 2, 0), 0..16);
        assert_eq!(group_cols(20, 2, 1), 16..20);
        assert_eq!(split_groups(usize::MAX, 8), 1, "one block is never split");
    }

    #[test]
    fn census_and_kdd99_like_toc_stay_below_the_work_constant() {
        // 250-row batches with the harness's 32-unit first layer: the two
        // presets with the smallest TOC batches step serially, mnist-like
        // splits.
        let work = |preset| {
            let x = generate_preset(preset, 250, 42).x;
            Scheme::Toc.encode(&x).size_bytes() * 32
        };
        for preset in [DatasetPreset::CensusLike, DatasetPreset::Kdd99Like] {
            assert!(work(preset) < SPLIT_WORK / 4, "{}", preset.name());
            assert_eq!(split_groups(work(preset) / 32, 32), 1);
        }
        assert!(work(DatasetPreset::MnistLike) > SPLIT_WORK * 3 / 2);
    }

    /// A batch that panics in the kernel a helper thread runs, forward or
    /// backward, and runs `inner` on every other call.
    struct PanicsOffThread {
        inner: AnyBatch,
        owner: thread::ThreadId,
        /// Which helper kernel panics: [`NO_PANIC`], [`FORWARD`] or
        /// [`BACKWARD`].
        panics: AtomicU8,
        /// The last kernel a helper has entered.
        reached: AtomicU8,
    }

    const NO_PANIC: u8 = 0;
    const FORWARD: u8 = 1;
    const BACKWARD: u8 = 2;

    impl PanicsOffThread {
        fn check(&self, kernel: u8) {
            let panics = self.panics.load(Ordering::Relaxed);
            if kernel > panics {
                return;
            }
            if thread::current().id() != self.owner {
                self.reached.fetch_max(kernel, Ordering::Release);
                assert!(kernel != panics, "a helper's kernel failed");
                return;
            }
            // Keep the caller inside its own group until a helper is
            // inside another, so that the caller does not take them all.
            let start = Instant::now();
            while self.reached.load(Ordering::Acquire) < kernel && start.elapsed().as_secs() < 10 {
                thread::yield_now();
            }
        }
    }

    impl MatrixBatch for PanicsOffThread {
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn size_bytes(&self) -> usize {
            self.inner.size_bytes()
        }
        fn matvec_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
            self.inner.matvec_into_ws(v, out, ws)
        }
        fn vecmat_into_ws(&self, v: &[f64], out: &mut Vec<f64>, ws: &mut ExecScratch) {
            self.inner.vecmat_into_ws(v, out, ws)
        }
        fn matmat_into_ws(&self, m: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
            self.check(FORWARD);
            self.inner.matmat_into_ws(m, out, ws)
        }
        fn matmat_left_into_ws(
            &self,
            m: &DenseMatrix,
            out: &mut DenseMatrix,
            ws: &mut ExecScratch,
        ) {
            self.inner.matmat_left_into_ws(m, out, ws)
        }
        fn matmat_t_into_ws(&self, d: &DenseMatrix, out: &mut DenseMatrix, ws: &mut ExecScratch) {
            self.check(BACKWARD);
            self.inner.matmat_t_into_ws(d, out, ws)
        }
        fn reserve_scratch(&self, p: usize, ws: &mut ExecScratch) {
            self.inner.reserve_scratch(p, ws)
        }
        fn decode_into_ws(&self, out: &mut DenseMatrix, ws: &mut ExecScratch) {
            self.inner.decode_into_ws(out, ws)
        }
        fn scale(&mut self, c: f64) {
            self.inner.scale(c)
        }
        fn to_bytes(&self) -> Vec<u8> {
            self.inner.to_bytes()
        }
    }

    #[test]
    fn a_helper_panic_is_raised_on_the_caller_and_the_next_step_is_sound() {
        let ds = generate_preset(DatasetPreset::MnistLike, 24, 6);
        let (outputs, targets) = nn_targets(&ds);
        let batch = PanicsOffThread {
            inner: Scheme::Toc.encode(&ds.x),
            owner: thread::current().id(),
            panics: AtomicU8::new(NO_PANIC),
            reached: AtomicU8::new(NO_PANIC),
        };
        let start = NeuralNet::new(ds.x.cols(), &[20, 5], outputs, 4);
        let want = bits(&stepped(&start, &batch, &targets, 1));
        for kernel in [FORWARD, BACKWARD] {
            let mut nn = start.clone();
            let mut ws = ExecWorkspace::new();
            nn.step(&batch, &targets, 0.3, &mut ws, 2);
            let before = bits(&nn);
            batch.reached.store(NO_PANIC, Ordering::Relaxed);
            batch.panics.store(kernel, Ordering::Relaxed);
            let panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
                nn.step(&batch, &targets, 0.3, &mut ws, 2)
            }))
            .expect_err("the helper's panic reaches the caller");
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"a helper's kernel failed"),
                "the helper's own payload"
            );
            assert_eq!(bits(&nn), before, "a step that panicked applied nothing");
            batch.panics.store(NO_PANIC, Ordering::Relaxed);
            nn.step(&batch, &targets, 0.3, &mut ws, 2);
            assert!(
                bits(&nn) == want,
                "kernel {kernel}: the step after the panic"
            );
        }
    }
}
