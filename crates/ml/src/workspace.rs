//! The MGD execution workspace: every scratch buffer a training step
//! needs, owned by the caller and reused across batches and epochs.
//!
//! With one [`ExecWorkspace`] threaded through the trainer, a steady-state
//! epoch performs **zero per-batch heap allocation** in the gradient path:
//! predictions, loss-derivative coefficients, gradients, NN activations,
//! deltas and transposition staging all live here, and the format-level
//! [`toc_formats::ExecScratch`] covers the kernels' internal needs (GC
//! decompression staging, the TOC decode tree — built once per visited
//! batch, because every kernel of a step goes through this one scratch).
//! Buffers grow to the high-water mark of the shapes seen and are reused
//! thereafter. (A neural-net step that splits its first layer across
//! cores spawns its helper threads each step: what it still allocates
//! is those spawns and the channels that hand each helper `δ2`, a few
//! small objects on the calling thread, and no buffer grows.)

use std::sync::Mutex;
use toc_formats::ExecScratch;
use toc_linalg::DenseMatrix;

/// Reusable scratch buffers for one training thread.
///
/// Create once (e.g. per [`crate::mgd::Trainer`] run) and pass to the
/// `*_ws` update methods. A neural-net step that splits its first layer
/// across cores (see [`crate::NeuralNet::update_batch_ws`]) keeps its
/// helper threads' buffers and kernel scratch here too, one column group
/// each, grown on the calling thread before the helpers start. All fields
/// are plain buffers: dropping or recreating the workspace only costs
/// allocations (and one more TOC tree build), never correctness.
#[derive(Debug, Default)]
pub struct ExecWorkspace {
    /// Format-level scratch (GC decompression staging, the TOC decode
    /// tree of the batch being stepped on).
    pub exec: ExecScratch,
    /// Model predictions / decision values per batch row (`A·w`).
    pub pred: Vec<f64>,
    /// Per-row loss-derivative coefficients (`∂ℓ/∂f / |B|`).
    pub coef: Vec<f64>,
    /// Weight-space gradient (`g·A`).
    pub grad: Vec<f64>,
    /// Per-class ±1 label staging for one-vs-rest updates.
    pub ovr_y: Vec<f64>,
    /// Class-index staging (labels cast from `f64`).
    pub class_idx: Vec<usize>,
    /// NN target matrix staging (one-hot / ±1-to-probability).
    pub targets: DenseMatrix,
    /// NN backward delta (double-buffered with `delta2`).
    pub delta: DenseMatrix,
    /// Second NN delta buffer.
    pub delta2: DenseMatrix,
    /// Transposition staging (`Wᵀ`).
    pub trans: DenseMatrix,
    /// NN forward activations, one per layer; the last entry holds the
    /// output probabilities.
    pub acts: Vec<DenseMatrix>,
    /// NN per-layer weight-gradient buffers.
    pub grads_w: Vec<DenseMatrix>,
    /// NN per-layer bias-gradient buffers.
    pub grads_b: Vec<Vec<f64>>,
    /// The column groups of a first layer the step splits across cores
    /// (see [`crate::NeuralNet::update_batch_ws`]), each behind a lock
    /// that whichever thread works on it holds.
    pub(crate) groups: Vec<Mutex<GroupBufs>>,
    /// The helper threads' kernel scratch, one per helper.
    pub(crate) helper_exec: Vec<ExecScratch>,
}

/// One column group's buffers in a split first layer, for `g` the group's
/// hidden units. Whichever thread works on the group writes them, so the
/// caller grows every one of them before the helpers start.
#[derive(Debug, Default)]
pub(crate) struct GroupBufs {
    /// How far this step got on the group: 0 nothing, 1 its forward half,
    /// 2 its backward half too.
    pub(crate) done: u8,
    /// The thread that ran its forward half: 0 the caller, `h + 1`
    /// helper `h`.
    pub(crate) by: usize,
    /// `W1`'s columns `g`.
    pub(crate) w: DenseMatrix,
    /// The group's activations, `σ(A·W_g + b_g)`.
    pub(crate) act: DenseMatrix,
    /// `W2ᵀ`'s columns `g`.
    pub(crate) trans: DenseMatrix,
    /// The group's columns of `δ1`.
    pub(crate) delta: DenseMatrix,
    /// `Aᵀ·δ_g`: `∇W1`'s columns `g`.
    pub(crate) grad: DenseMatrix,
    /// The group's entries of the first layer's bias gradient.
    pub(crate) grad_b: Vec<f64>,
}

impl GroupBufs {
    /// Grow every buffer for a `rows × cols` batch, `next` units in the
    /// second layer and `width` in the group, writing nothing.
    pub(crate) fn reserve(&mut self, rows: usize, cols: usize, next: usize, width: usize) {
        self.w.reserve(cols, width);
        self.act.reserve(rows, width);
        self.trans.reserve(next, width);
        self.delta.reserve(rows, width);
        self.grad.reserve(cols, width);
        self.grad_b.reserve(width.saturating_sub(self.grad_b.len()));
    }
}

impl ExecWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure the per-layer buffer vectors hold at least `n_layers`
    /// entries (empty matrices/vectors; the kernels reshape them).
    pub(crate) fn ensure_layers(&mut self, n_layers: usize) {
        while self.acts.len() < n_layers {
            self.acts.push(DenseMatrix::default());
        }
        while self.grads_w.len() < n_layers {
            self.grads_w.push(DenseMatrix::default());
        }
        while self.grads_b.len() < n_layers {
            self.grads_b.push(Vec::new());
        }
    }
}
