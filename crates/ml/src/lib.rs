#![forbid(unsafe_code)]
//! # toc-ml — MGD training over compressed mini-batches
//!
//! The machine-learning side of the reproduction: loss functions
//! ([`losses`]), the three model families of the paper's evaluation
//! ([`models`]: linear models with logistic/hinge/squared loss, one-vs-rest
//! multiclass, and a feed-forward neural network) and the mini-batch SGD
//! engine ([`mgd`]).
//!
//! All training consumes mini-batches through
//! [`toc_formats::MatrixBatch`], so any encoding — DEN, CSR, CVI, DVI,
//! CLA, Snappy*, Gzip*, or TOC — plugs into the same engine, which is how
//! the end-to-end experiments (Tables 6–7, Figures 9–11) are run.

pub mod losses;
pub mod mgd;
pub mod models;
pub mod workspace;

pub use losses::LossKind;
pub use mgd::{BatchProvider, MemoryProvider, MgdConfig, ModelSpec, TrainReport, Trainer};
pub use models::{LinearModel, NeuralNet, OneVsRest};
pub use workspace::ExecWorkspace;

// Re-export for downstream convenience: `models::LossKind` is used in
// `ModelSpec`.
pub mod prelude {
    pub use crate::losses::LossKind;
    pub use crate::mgd::{
        BatchProvider, MemoryProvider, MgdConfig, ModelSpec, TrainedModel, Trainer,
    };
    pub use crate::models::{LinearModel, NeuralNet, OneVsRest};
}
