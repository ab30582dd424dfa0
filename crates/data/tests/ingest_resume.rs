//! Crash-safe ingestion: the kill-point matrix.
//!
//! The resumable CSV → container driver is interrupted at every modeled
//! crash window — rows staged but unsealed, a chunk sealed but not yet
//! checkpointed, a checkpoint just persisted, the footer written but the
//! sidecar not yet cleaned up — at *every* chunk boundary, plus
//! fault-injected torn writes past the watermark. In every case the
//! resumed run must produce a container **byte-identical** to an
//! uninterrupted run over the same source. The backpressure seam and
//! appender serialization of a live store are exercised end to end.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use toc_data::ingest::{
    ingest_csv_container, ingest_csv_container_killable, sidecar_path, CsvContainerJob,
    IngestError, KillPoint, StoreIngest,
};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::drifting_matrix;
use toc_formats::container::fnv1a64;
use toc_formats::{EncodeOptions, MatrixBatch, Scheme};
use toc_ml::mgd::BatchProvider;

/// Self-cleaning scratch directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!(
            "toc-ingest-resume-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::create_dir_all(&d).unwrap();
        Self(d)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Deterministic numeric CSV with a header, mild value drift (so
/// auto-pick changes its mind across chunks), and a torn-looking but
/// newline-terminated final row.
fn write_csv(path: &Path, rows: usize, cols: usize) {
    let m = drifting_matrix(rows, cols, 4, 13);
    let mut out = String::new();
    out.push_str(
        &(0..cols)
            .map(|c| format!("f{c}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in 0..rows {
        let line = m
            .row(r)
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(path, out).unwrap();
}

fn job(csv: &Path, out: &Path, checkpoint_every: u64) -> CsvContainerJob {
    CsvContainerJob {
        csv: csv.to_path_buf(),
        out: out.to_path_buf(),
        chunk_rows: 20,
        scheme: None, // per-chunk auto-pick: deterministic in the staged rows
        encode: EncodeOptions::default(),
        checkpoint_every,
    }
}

/// Reference bytes from an uninterrupted run (checkpointing on, so the
/// sidecar lifecycle is part of what's being compared).
fn baseline(dir: &TempDir, csv: &Path) -> Vec<u8> {
    let out = dir.path("baseline.tocz");
    let outcome = ingest_csv_container(&job(csv, &out, 2), false).unwrap();
    assert!(outcome.killed.is_none());
    assert!(
        !sidecar_path(&out).exists(),
        "sidecar must be cleaned up on success"
    );
    std::fs::read(&out).unwrap()
}

#[test]
fn checkpointing_does_not_change_the_container_bytes() {
    let dir = TempDir::new("plain");
    let csv = dir.path("in.csv");
    write_csv(&csv, 137, 6);
    let with_ckpt = baseline(&dir, &csv);
    let out = dir.path("nockpt.tocz");
    ingest_csv_container(&job(&csv, &out, 0), false).unwrap();
    assert_eq!(std::fs::read(&out).unwrap(), with_ckpt);
    assert!(!sidecar_path(&out).exists());
}

/// Kill at a given point, then resume; the result must be byte-identical
/// to the uninterrupted baseline. Optionally smears garbage past the
/// file's kill-time length first (a torn write racing the crash).
fn kill_and_resume(dir: &TempDir, csv: &Path, tag: &str, kp: KillPoint, torn: Option<&[u8]>) {
    let expect = baseline(dir, csv);
    let out = dir.path(&format!("killed-{tag}.tocz"));
    let j = job(csv, &out, 2);
    let outcome = ingest_csv_container_killable(&j, false, Some(kp)).unwrap();
    assert_eq!(outcome.killed, Some(kp), "kill point {kp:?} did not fire");
    if let Some(garbage) = torn {
        let mut f = std::fs::OpenOptions::new().append(true).open(&out).unwrap();
        f.write_all(garbage).unwrap();
    }
    let resumed = ingest_csv_container(&j, true).unwrap();
    assert!(resumed.killed.is_none());
    assert_eq!(
        std::fs::read(&out).unwrap(),
        expect,
        "resume after {kp:?} (torn: {}) is not byte-identical",
        torn.is_some(),
    );
    assert_eq!(resumed.stats.rows, 137);
    assert_eq!(resumed.stats.chunks, 7); // 6 × 20 + 17
    assert!(
        !sidecar_path(&out).exists(),
        "sidecar survived a successful resume after {kp:?}"
    );
}

#[test]
fn resume_is_byte_identical_after_kill_at_every_chunk_boundary() {
    let dir = TempDir::new("matrix");
    let csv = dir.path("in.csv");
    write_csv(&csv, 137, 6);
    // 137 rows / 20-row chunks = 7 chunks; checkpoints land after chunks
    // 2, 4, 6. Kill right after every seal (sidecar lags the file) and
    // right after every checkpoint (sidecar exactly matches the file).
    for chunks in 1..=6 {
        kill_and_resume(
            &dir,
            &csv,
            &format!("seal{chunks}"),
            KillPoint::AfterSealedChunk { chunks },
            None,
        );
    }
    for chunks in [2, 4, 6] {
        kill_and_resume(
            &dir,
            &csv,
            &format!("ckpt{chunks}"),
            KillPoint::AfterCheckpoint { chunks },
            None,
        );
    }
}

#[test]
fn resume_is_byte_identical_after_staged_rows_and_footer_kills() {
    let dir = TempDir::new("edges");
    let csv = dir.path("in.csv");
    write_csv(&csv, 137, 6);
    // Rows staged past the last seal live only in the workspace; the
    // resume re-reads them from the CSV.
    kill_and_resume(
        &dir,
        &csv,
        "staged",
        KillPoint::AfterStagedRows {
            chunks: 3,
            staged: 7,
        },
        None,
    );
    // Crash between footer write and sidecar cleanup: the output is
    // already complete and must be recognized as such, not re-ingested.
    kill_and_resume(&dir, &csv, "footer", KillPoint::AfterFooter, None);
}

#[test]
fn resume_truncates_fault_injected_torn_writes_past_the_watermark() {
    let dir = TempDir::new("torn");
    let csv = dir.path("in.csv");
    write_csv(&csv, 137, 6);
    // Garbage past the sealed watermark models a chunk write that was
    // racing the crash: a partial segment prefix, pure noise, and a
    // single stray byte.
    kill_and_resume(
        &dir,
        &csv,
        "torn-a",
        KillPoint::AfterCheckpoint { chunks: 2 },
        Some(&[0xAB; 97]),
    );
    kill_and_resume(
        &dir,
        &csv,
        "torn-b",
        KillPoint::AfterCheckpoint { chunks: 4 },
        Some(&[0x00; 1]),
    );
    // After a seal *without* a checkpoint the sidecar is stale: both the
    // torn garbage and the un-checkpointed sealed chunk must be
    // truncated and re-ingested.
    kill_and_resume(
        &dir,
        &csv,
        "torn-c",
        KillPoint::AfterSealedChunk { chunks: 3 },
        Some(&[0x5A; 33]),
    );
}

#[test]
fn resume_without_sidecar_restarts_cleanly() {
    let dir = TempDir::new("nosidecar");
    let csv = dir.path("in.csv");
    write_csv(&csv, 137, 6);
    let expect = baseline(&dir, &csv);
    let out = dir.path("out.tocz");
    let j = job(&csv, &out, 2);
    // Killed after chunk 1: no checkpoint has been written yet, so the
    // partial file has no sidecar — resume must restart from scratch.
    let outcome =
        ingest_csv_container_killable(&j, false, Some(KillPoint::AfterSealedChunk { chunks: 1 }))
            .unwrap();
    assert!(outcome.killed.is_some());
    assert!(!sidecar_path(&out).exists());
    let resumed = ingest_csv_container(&j, true).unwrap();
    assert_eq!(resumed.resumed_chunks, 0, "nothing was resumable");
    assert_eq!(std::fs::read(&out).unwrap(), expect);
}

#[test]
fn resume_rejects_corrupt_sidecar_and_changed_config() {
    let dir = TempDir::new("reject");
    let csv = dir.path("in.csv");
    write_csv(&csv, 137, 6);
    let out = dir.path("out.tocz");
    let j = job(&csv, &out, 2);
    ingest_csv_container_killable(&j, false, Some(KillPoint::AfterCheckpoint { chunks: 4 }))
        .unwrap();
    let sc = sidecar_path(&out);

    // Changed chunk size: the config hash no longer matches.
    let mut changed = job(&csv, &out, 2);
    changed.chunk_rows = 25;
    match ingest_csv_container(&changed, true) {
        Err(IngestError::Checkpoint(m)) => assert!(m.contains("config hash"), "{m}"),
        other => panic!("changed config must be rejected, got {other:?}"),
    }

    // A flipped bit fails the sidecar checksum.
    let mut bytes = std::fs::read(&sc).unwrap();
    bytes[10] ^= 0x20;
    std::fs::write(&sc, &bytes).unwrap();
    match ingest_csv_container(&j, true) {
        Err(IngestError::Checkpoint(m)) => assert!(m.contains("checksum"), "{m}"),
        other => panic!("corrupt sidecar must be rejected, got {other:?}"),
    }

    // A file shorter than the watermark cannot be resumed.
    bytes[10] ^= 0x20;
    std::fs::write(&sc, &bytes).unwrap();
    let keep = std::fs::read(&out).unwrap();
    std::fs::write(&out, &keep[..40]).unwrap();
    match ingest_csv_container(&j, true) {
        Err(IngestError::Checkpoint(m)) => assert!(m.contains("watermark"), "{m}"),
        other => panic!("short output must be rejected, got {other:?}"),
    }

    // Kind byte 1 under a valid checksum is refused: a container ingest
    // (kind 0) is the only kind a sidecar holds.
    bytes[5] = 1;
    let body = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&sc, &bytes).unwrap();
    match ingest_csv_container(&j, true) {
        Err(IngestError::Checkpoint(m)) => assert!(m.contains("kind 1"), "{m}"),
        other => panic!("a kind-1 sidecar must be rejected, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Backpressure and appender serialization.

#[test]
fn backpressure_bounds_pending_chunks_and_records_stall_time() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let cols = 4;
    let chunk = 8;
    let chunks = 40usize;
    let budget = 4usize;
    let m = drifting_matrix(chunks * chunk, cols, 3, 9);
    let config = StoreConfig::new(Scheme::Toc, chunk, 0)
        .with_shards(2)
        .with_max_pending(budget);
    let store = ShardedSpillStore::open_streaming(cols, &config).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let store_ref = &store;
        let done_ref = &done;
        s.spawn(move || {
            let mut ing = StoreIngest::new(
                store_ref,
                chunk,
                Some(Scheme::Toc),
                EncodeOptions::default(),
            );
            for r in 0..chunks * chunk {
                ing.push_row(m.row(r), 1.0).unwrap();
            }
            ing.finish().unwrap();
            done_ref.store(true, Ordering::Release);
        });
        // Slow consumer: visit batches in order as they appear, pausing
        // between visits so the producer runs ahead and hits the budget.
        let mut next = 0usize;
        loop {
            if next < store_ref.num_batches() {
                store_ref.visit(next, &mut |_, _| {});
                next += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            } else if done_ref.load(Ordering::Acquire) && next >= store_ref.num_batches() {
                break;
            } else {
                std::thread::yield_now();
            }
        }
    });
    assert_eq!(store.num_batches(), chunks);
    assert!(
        store.peak_pending_appends() <= budget,
        "peak pending {} exceeded the budget {budget}",
        store.peak_pending_appends()
    );
    let snap = store.stats().snapshot_stable();
    assert!(
        snap.ingest_stall_ns > 0,
        "a producer 10× faster than the consumer never stalled"
    );
    assert_eq!(store.pending_appends(), 0, "all chunks consumed");
}

#[test]
fn concurrent_raw_appends_serialize_without_losing_batches() {
    let cols = 3;
    let config = StoreConfig::new(Scheme::Toc, 4, 0).with_shards(2);
    let store = ShardedSpillStore::open_streaming(cols, &config).unwrap();
    let m = drifting_matrix(4, cols, 2, 3);
    let batch = Scheme::Toc.encode(&m).to_bytes();
    let per_thread = 32usize;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let store_ref = &store;
            let batch_ref = &batch;
            s.spawn(move || {
                for _ in 0..per_thread {
                    store_ref.append_sealed(batch_ref, vec![1.0; 4]).unwrap();
                }
            });
        }
    });
    assert_eq!(store.num_batches(), 4 * per_thread);
    let (batches, bytes) = store.appended_snapshot();
    assert_eq!(batches, 4 * per_thread);
    assert_eq!(bytes, (batch.len() * 4 * per_thread) as u64);
    // Every appended batch decodes from its recorded extent.
    for i in 0..store.num_batches() {
        store.visit(i, &mut |b, _| {
            assert_eq!(b.decode().rows(), 4);
        });
    }
}

#[test]
fn stats_snapshot_never_reports_bytes_ahead_of_batches() {
    // `appended_snapshot` pairs the counters under the append lock: a
    // racing sampler must never see bytes from an append whose batch
    // count it did not see.
    let cols = 3;
    let config = StoreConfig::new(Scheme::Toc, 4, 0).with_shards(2);
    let store = ShardedSpillStore::open_streaming(cols, &config).unwrap();
    let m = drifting_matrix(4, cols, 2, 3);
    let batch = Scheme::Toc.encode(&m).to_bytes();
    let total = 64usize;
    std::thread::scope(|s| {
        let store_ref = &store;
        let batch_ref = &batch;
        let writer = s.spawn(move || {
            for _ in 0..total {
                store_ref.append_sealed(batch_ref, vec![1.0; 4]).unwrap();
            }
        });
        let mut last = (0usize, 0u64);
        while !writer.is_finished() {
            let (n, b) = store_ref.appended_snapshot();
            assert_eq!(
                b,
                (n * batch.len()) as u64,
                "snapshot tore: {n} batches but {b} bytes"
            );
            assert!(n >= last.0 && b >= last.1, "counters went backwards");
            last = (n, b);
        }
        writer.join().unwrap();
    });
    let (n, b) = store.appended_snapshot();
    assert_eq!(n, total);
    assert_eq!(b, (total * batch.len()) as u64);
}
