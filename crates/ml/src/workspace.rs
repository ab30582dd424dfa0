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
//! thereafter.

use toc_formats::ExecScratch;
use toc_linalg::DenseMatrix;

/// Reusable scratch buffers for one training thread.
///
/// Create once (e.g. per [`crate::mgd::Trainer`] run or per data-parallel
/// worker) and pass to the `*_ws` update methods. All fields are plain
/// buffers: dropping or recreating the workspace only costs allocations
/// (and one more TOC tree build), never correctness.
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
    /// Transposition staging (`δᵀ`, `Wᵀ`, `actᵀ`).
    pub trans: DenseMatrix,
    /// Second transposition staging buffer (`δᵀ·A` before re-transposing).
    pub trans2: DenseMatrix,
    /// NN forward activations, one per layer; the last entry holds the
    /// output probabilities.
    pub acts: Vec<DenseMatrix>,
    /// NN per-layer weight-gradient buffers.
    pub grads_w: Vec<DenseMatrix>,
    /// NN per-layer bias-gradient buffers.
    pub grads_b: Vec<Vec<f64>>,
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
