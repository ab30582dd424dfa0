#![forbid(unsafe_code)]
//! # toc-core — Tuple-Oriented Compression
//!
//! Implementation of the TOC lossless matrix compression scheme and its
//! decompression-free compressed matrix kernels, after Li et al.,
//! *Tuple-oriented Compression for Large-scale Mini-batch Stochastic
//! Gradient Descent*, SIGMOD 2019.
//!
//! The pipeline has three layers (paper §3, Figure 3):
//!
//! 1. **Sparse encoding** ([`toc_linalg::SparseRows`]): zeros are elided and
//!    each cell becomes a column index:value pair.
//! 2. **Logical encoding** ([`encode::logical_encode`]): an LZW-inspired
//!    prefix-tree dictionary over *sequences of pairs*, respecting tuple
//!    boundaries; each tuple becomes a short vector of tree-node indexes.
//! 3. **Physical encoding** ([`batch::TocBatch`]): bit packing and value
//!    indexing compress the integers and doubles into one byte buffer.
//!
//! Matrix operations (`A·v`, `v·A`, `A·M`, `M·A`, `A.*c`) execute directly
//! on the compressed buffer ([`ops`], paper §4) after rebuilding the
//! parent-pointer decode tree `C'` ([`tree::DecodeTree`]) — once per
//! mini-batch when the kernels share a [`KernelScratch`], which is how a
//! training step calls them, and not at all for a batch that
//! [`TocBatch::from_bytes`] parsed: validating it built the tree.
//!
//! ```
//! use toc_core::TocBatch;
//! use toc_linalg::DenseMatrix;
//!
//! let batch = DenseMatrix::from_rows(vec![
//!     vec![1.1, 2.0, 3.0, 1.4],
//!     vec![1.1, 2.0, 3.0, 0.0],
//!     vec![0.0, 1.1, 3.0, 1.4],
//!     vec![1.1, 2.0, 0.0, 0.0],
//! ]);
//! let toc = TocBatch::encode(&batch);
//! // Lossless:
//! assert_eq!(toc.decode(), batch);
//! // Decompression-free matrix ops:
//! let y = toc.matvec(&[1.0, 1.0, 1.0, 1.0]).unwrap();
//! assert_eq!(y, batch.matvec(&[1.0, 1.0, 1.0, 1.0]));
//! ```

pub mod batch;
pub mod encode;
pub mod error;
pub mod hash;
pub mod ops;
pub mod physical;
pub mod tree;

pub use batch::{KernelScratch, PhysicalCodec, TocBatch, TocStats, TocView};
pub use encode::{logical_encode, LogicalEncoded};
pub use error::TocError;
pub use tree::{DecodeTree, LivePlan, TreeScratch};
