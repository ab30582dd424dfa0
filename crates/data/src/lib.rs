#![forbid(unsafe_code)]
//! # toc-data — synthetic datasets and the out-of-core mini-batch store
//!
//! [`synth`] generates datasets whose sparsity, distinct-value counts and
//! cross-row redundancy match the profiles of the paper's six evaluation
//! datasets (Table 5). [`store`] holds the memory-budgeted batch store
//! with real disk spill that reproduces the in-memory/out-of-core regimes
//! of the end-to-end experiments (Tables 6–7, Figures 9–11): the
//! sharded, prefetching [`ShardedSpillStore`] (one shard = the paper's
//! single disk). [`io`] is the spill-IO seam underneath — a
//! submission/completion [`SpillIo`] trait with an inline and a
//! coalescing ring engine — and [`testing`] provides a fault-injecting
//! engine double for adversarial scheduling tests.
//! [`serve`] layers the multi-tenant job server on top: many concurrent
//! training jobs over one shared store and one fill-once compressed
//! batch cache.

pub mod csv;
pub mod ingest;
pub mod io;
mod prefetch;
pub mod serve;
pub mod store;
pub mod synth;
pub mod testing;

pub use csv::{follow_rows, stream_rows, CellError, CsvError, CsvStream, FollowOptions, SinkError};
pub use ingest::{
    beside, commit, ingest_csv_container, sidecar_path, ContainerIngest, CsvContainerJob,
    CsvIngestOutcome, EncodeWorkspace, IngestCheckpoint, IngestError, IngestStats, StoreIngest,
};

pub use io::{
    BandwidthProfile, IoEngineKind, IoSnapshot, IoStats, LatencyHistogram, Pinning,
    SchedulerConfig, SpillIo, LATENCY_BUCKETS,
};
pub use serve::{BatchCache, JobOutcome, JobServer, JobSpec, ServeConfig, TenantProvider};
pub use store::{PlacementReport, ShardedSpillStore, StoreConfig};
pub use synth::{
    drifting_matrix, generate, generate_preset, Dataset, DatasetPreset, SynthConfig, TaskKind,
};
pub use testing::{FaultPlan, FaultStats};
