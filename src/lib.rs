//! Umbrella crate for the TOC reproduction workspace.
//!
//! Re-exports the public APIs of the member crates so that examples and
//! downstream users need a single dependency:
//!
//! ```
//! use toc_repro::prelude::*;
//! let dense = DenseMatrix::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
//! let toc = TocBatch::encode(&dense);
//! assert_eq!(toc.decode(), dense);
//! ```

pub use toc_core as core;
pub use toc_data as data;
pub use toc_formats as formats;
pub use toc_gc as gc;
pub use toc_linalg as linalg;
pub use toc_ml as ml;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use toc_core::TocBatch;
    pub use toc_data::store::ShardedSpillStore;
    pub use toc_data::synth::{DatasetPreset, SynthConfig};
    pub use toc_formats::{AnyBatch, MatrixBatch, Scheme};
    pub use toc_linalg::DenseMatrix;
    pub use toc_ml::mgd::{MgdConfig, ModelSpec, Trainer};
    pub use toc_ml::models::{LinearModel, NeuralNet};
    pub use toc_ml::LossKind;
}
