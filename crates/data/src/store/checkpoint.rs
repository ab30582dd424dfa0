//! Crash checkpoints of a streaming store: the serializable snapshot of
//! its append state ([`StoreCheckpoint`]) and the two ends of a resume,
//! [`ShardedSpillStore::streaming_checkpoint`] and
//! [`ShardedSpillStore::open_streaming_resume`].

use std::fs::OpenOptions;
use std::path::PathBuf;
use std::sync::Arc;

use toc_formats::wire::Rd;
use toc_formats::FormatError;

use super::{DiskLoc, Entry, ShardFiles, ShardedSpillStore, StoreConfig};
use crate::io::{lock, rlock};

/// One sealed segment recorded in a [`StoreCheckpoint`]: its current
/// shard extent and its labels.
#[derive(Clone, Debug, PartialEq)]
struct CheckpointEntry {
    shard: u32,
    offset: u64,
    len: u64,
    labels: Vec<f64>,
}

/// Serializable snapshot of a streaming store's append state
/// ([`ShardedSpillStore::streaming_checkpoint`] /
/// [`ShardedSpillStore::open_streaming_resume`]): shard file paths,
/// per-shard cursors, and every sealed segment's extent + labels.
/// Integrity (checksums) is the enclosing sidecar's job — see
/// `toc_data::ingest`.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreCheckpoint {
    shard_paths: Vec<PathBuf>,
    cursors: Vec<u64>,
    entries: Vec<CheckpointEntry>,
}

const STORE_CKPT_V1: u8 = 1;

impl StoreCheckpoint {
    /// Segments recorded in this checkpoint.
    pub fn num_segments(&self) -> usize {
        self.entries.len()
    }

    /// Total encoded bytes across the recorded segments.
    pub fn encoded_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }

    /// The shard files this checkpoint expects to find on disk.
    pub fn shard_paths(&self) -> &[PathBuf] {
        &self.shard_paths
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STORE_CKPT_V1);
        out.extend_from_slice(&(self.shard_paths.len() as u32).to_le_bytes());
        for (path, cursor) in self.shard_paths.iter().zip(&self.cursors) {
            let p = path.to_string_lossy();
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p.as_bytes());
            out.extend_from_slice(&cursor.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.shard.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&(e.labels.len() as u64).to_le_bytes());
            for l in &e.labels {
                out.extend_from_slice(&l.to_le_bytes());
            }
        }
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        Self::parse(bytes).map_err(|e| match e {
            FormatError::Corrupt(m) => format!("store checkpoint {m}"),
            other => other.to_string(),
        })
    }

    fn parse(bytes: &[u8]) -> Result<Self, FormatError> {
        let corrupt = |m: String| FormatError::Corrupt(m);
        let mut rd = Rd::new(bytes);
        if rd.u8()? != STORE_CKPT_V1 {
            return Err(corrupt("version is unknown".into()));
        }
        let n_shards = rd.u32()? as usize;
        if n_shards == 0 || n_shards > 4096 {
            return Err(corrupt(format!("has implausible shard count {n_shards}")));
        }
        let mut shard_paths = Vec::with_capacity(n_shards);
        let mut cursors = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let plen = rd.u32()? as usize;
            let p = std::str::from_utf8(rd.take(plen)?)
                .map_err(|_| corrupt("has a bad shard path encoding".into()))?;
            shard_paths.push(PathBuf::from(p));
            cursors.push(rd.u64()?);
        }
        let n_entries = rd.u64()?;
        if n_entries > bytes.len() as u64 {
            return Err(corrupt("claims more entries than it carries".into()));
        }
        let mut entries = Vec::with_capacity(n_entries as usize);
        for _ in 0..n_entries {
            let shard = rd.u32()?;
            let offset = rd.u64()?;
            let len = rd.u64()?;
            let n_labels = rd.u64()?;
            if n_labels > bytes.len() as u64 {
                return Err(corrupt("claims more labels than it carries".into()));
            }
            let mut labels = Vec::with_capacity(n_labels as usize);
            for _ in 0..n_labels {
                labels.push(rd.f64()?);
            }
            entries.push(CheckpointEntry {
                shard,
                offset,
                len,
                labels,
            });
        }
        rd.done()?;
        Ok(Self {
            shard_paths,
            cursors,
            entries,
        })
    }
}

impl ShardedSpillStore {
    /// Snapshot the streaming-append state for a checkpoint sidecar:
    /// shard file paths and cursors plus every sealed segment's current
    /// extent and labels (post-migration locations — a checkpoint taken
    /// after a rebalance restores the rebalanced layout). Taken under
    /// the append lock, so it can never capture a half-appended
    /// segment. Panics on a non-streaming store: build-time entries are
    /// reproducible from their source and have no business in a crash
    /// checkpoint.
    pub fn streaming_checkpoint(&self) -> StoreCheckpoint {
        let inner = &self.inner;
        assert!(
            inner.built == 0 && !inner.shard_meta.is_empty(),
            "streaming_checkpoint needs a store opened with open_streaming"
        );
        let append = lock(&inner.append);
        let entries = rlock(&inner.entries)
            .iter()
            .take(append.seq)
            .map(|e| {
                let loc = e.loc().expect("appended segments are disk-resident");
                CheckpointEntry {
                    shard: loc.shard as u32,
                    offset: loc.offset,
                    len: loc.len as u64,
                    labels: e.labels.clone(),
                }
            })
            .collect();
        StoreCheckpoint {
            shard_paths: inner.shard_meta.iter().map(|m| m.path.clone()).collect(),
            cursors: append.cursors.clone(),
            entries,
        }
    }

    /// Re-open a streaming store from a [`StoreCheckpoint`] after a
    /// crash: the shard files named by the checkpoint are opened in
    /// place (never truncated below the recorded cursors — a file
    /// shorter than its cursor means the checkpoint outran the data and
    /// is rejected), any torn bytes past the cursors are truncated
    /// away, and every checkpointed segment becomes visible again.
    /// Appending continues exactly where the crashed run left off.
    pub fn open_streaming_resume(
        features: usize,
        config: &StoreConfig,
        ckpt: &StoreCheckpoint,
    ) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let n_shards = ckpt.shard_paths.len();
        if n_shards == 0 || ckpt.cursors.len() != n_shards {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "checkpoint has no shards or mismatched cursor count",
            ));
        }
        for (i, e) in ckpt.entries.iter().enumerate() {
            let s = e.shard as usize;
            if s >= n_shards || e.offset + e.len > ckpt.cursors[s] {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("checkpoint entry {i} extends past its shard cursor"),
                ));
            }
        }
        let mut shards = Vec::with_capacity(n_shards);
        for (s, (path, &cursor)) in ckpt.shard_paths.iter().zip(&ckpt.cursors).enumerate() {
            let f = OpenOptions::new().write(true).read(true).open(path)?;
            let len = f.metadata()?.len();
            if len < cursor {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "shard {s} is {len} bytes but the checkpoint says {cursor}: \
                         the sidecar outran the data and cannot be resumed from"
                    ),
                ));
            }
            // Drop any torn tail past the checkpointed watermark.
            if len > cursor {
                f.set_len(cursor)?;
            }
            shards.push((f, path.clone()));
        }
        let entries: Vec<Arc<Entry>> = ckpt
            .entries
            .iter()
            .map(|e| {
                let loc = DiskLoc {
                    shard: e.shard as usize,
                    offset: e.offset,
                    len: e.len as usize,
                };
                Entry::spilled(loc, e.labels.clone())
            })
            .collect();
        let appended = entries.len();
        let shards = ShardFiles {
            files: shards,
            cursors: ckpt.cursors.clone(),
            home: None,
            owned_dir: None,
        };
        Ok(Self::assemble(
            config, features, entries, appended, shards, 0,
        ))
    }
}
