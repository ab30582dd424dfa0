//! The one `.tocz` reader, [`SeekableContainer`], over files: random
//! access must be cheap (positional reads bounded by the touched segment,
//! asserted via its own read counters), projected decodes must match the
//! full decode bit for bit, the legacy v1 format reads through it too, and
//! streaming a container into a [`ShardedSpillStore`] must train
//! identically to building from the materialized matrix.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_formats::container::{Container, SeekableContainer};
use toc_formats::{EncodeOptions, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::{BatchProvider, MgdConfig, ModelSpec, Trainer};
use toc_ml::LossKind;

static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// Unique temp path that removes itself on drop (pid alone is not
/// unique within one test binary).
struct TempPath(PathBuf);

impl TempPath {
    fn new(label: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "toc-seek-{label}-{}-{}.tocz",
            std::process::id(),
            NEXT_ID.fetch_add(1, Ordering::Relaxed),
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Deterministic pseudo-random matrix drawn from a small value pool.
fn test_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let pool = [0.0, 0.5, 1.5, -2.0, 3.25, 0.0];
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| pool[(next() % pool.len() as u64) as usize])
        .collect();
    DenseMatrix::from_vec(rows, cols, data)
}

fn write_container(m: &DenseMatrix, scheme: Scheme, seg_rows: usize, label: &str) -> TempPath {
    let p = TempPath::new(label);
    Container::encode_with(m, scheme, seg_rows, &EncodeOptions::default())
        .write(&p.0)
        .unwrap();
    p
}

/// The random-access acceptance gate: decoding one segment of a
/// 64-segment container — including opening the file (header,
/// postscript, footer) — must read at most 2× that segment's bytes.
#[test]
fn one_segment_read_is_bounded_by_segment_bytes() {
    let m = test_matrix(64 * 64, 16, 7);
    let p = write_container(&m, Scheme::Den, 64, "gate");

    let sc = SeekableContainer::open(&p.0).unwrap();
    assert_eq!(sc.num_segments(), 64);
    let leaf = &sc.footer().leaves()[37];
    let seg_bytes = leaf.end - leaf.begin;

    let part = sc
        .decode_rows(leaf.row_start as usize, leaf.row_end as usize)
        .unwrap();
    assert_eq!(part.rows(), 64);

    let snap = sc.stats().snapshot();
    assert!(
        snap.bytes_read <= 2 * seg_bytes,
        "read {} bytes to decode a {seg_bytes}-byte segment (gate: 2x)",
        snap.bytes_read
    );
    // Open is exactly 3 positional reads; the decode adds 1 per segment.
    assert_eq!(snap.disk_reads, 4);
}

/// Zone-map pruning gate: a selective row-range query over a 64-segment
/// container must skip at least 90% of the segments.
#[test]
fn selective_row_query_prunes_segments() {
    let m = test_matrix(64 * 32, 6, 11);
    let p = write_container(&m, Scheme::Toc, 32, "prune");
    let sc = SeekableContainer::open(&p.0).unwrap();
    let picked = sc.footer().segments_overlapping_rows(40, 90); // 2 of 64
    assert!(
        picked.len() * 10 <= sc.num_segments(),
        "selective query touched {} of {} segments",
        picked.len(),
        sc.num_segments()
    );
}

/// Projected decodes agree with the in-memory container
/// decode exactly, across schemes and awkward (segment-straddling) row
/// ranges.
#[test]
fn seek_decode_matches_in_memory_decode() {
    for scheme in [Scheme::Toc, Scheme::Den, Scheme::Csr, Scheme::Cla] {
        let m = test_matrix(333, 9, 5);
        let p = write_container(&m, scheme, 37, "eq");
        let sc = SeekableContainer::open(&p.0).unwrap();
        assert_eq!(sc.total_rows(), 333);
        assert_eq!(sc.cols(), 9);

        let full = sc.decode_rows(0, 333).unwrap();
        assert_eq!(full, m, "{scheme:?}: full seek decode drifted");

        for (r0, r1) in [(0, 1), (36, 38), (100, 300), (332, 333), (50, 50)] {
            let part = sc.decode_rows(r0, r1).unwrap();
            assert_eq!(part.rows(), r1 - r0);
            for r in r0..r1 {
                assert_eq!(part.row(r - r0), m.row(r), "{scheme:?}: row {r}");
            }
        }
    }
}

/// Streaming build ([`ShardedSpillStore::build_from_container`]) must
/// produce the same batch boundaries as [`ShardedSpillStore::build`] on
/// the decoded matrix — so training on either store is bit-identical.
#[test]
fn container_build_trains_bit_identical_to_matrix_build() {
    // Features plus a ±1 label in the last column, segment size chosen to
    // straddle the store's batch_rows so the re-chunking carry-over path
    // is exercised.
    let rows = 420;
    let x = test_matrix(rows, 8, 13);
    let labels: Vec<f64> = (0..rows)
        .map(|r| if x.row(r)[0] > 0.0 { 1.0 } else { -1.0 })
        .collect();
    let mut joined = Vec::with_capacity(rows * 9);
    for (r, &label) in labels.iter().enumerate() {
        joined.extend_from_slice(x.row(r));
        joined.push(label);
    }
    let full = DenseMatrix::from_vec(rows, 9, joined);
    let p = write_container(&full, Scheme::Toc, 50, "train");

    let train = |store: &ShardedSpillStore| {
        let trainer = Trainer::new(MgdConfig {
            epochs: 4,
            lr: 0.2,
            shuffle_batches: true,
            ..Default::default()
        });
        trainer
            .train(&ModelSpec::Linear(LossKind::Logistic), store, None)
            .model
            .weights()
    };

    for config in [
        StoreConfig::new(Scheme::Toc, 60, usize::MAX), // all in memory
        StoreConfig::new(Scheme::Toc, 60, 0).with_shards(2), // all spilled
    ] {
        let a = ShardedSpillStore::build(&x, &labels, &config).unwrap();
        let b = ShardedSpillStore::build_from_container(&p.0, &config).unwrap();
        assert_eq!(a.num_batches(), b.num_batches());
        assert_eq!(
            train(&a),
            train(&b),
            "container-built store trained different weights"
        );
    }
}

/// The legacy v1 format has no footer, but the one reader opens it by
/// walking its length prefixes: the committed golden fixture opens and
/// decodes — whole, by projection and row by row — to what
/// `Container::read` gives.
#[test]
fn v1_golden_opens_and_decodes_equal_to_read() {
    // The library only reads v1; the committed golden fixture is one.
    let v1 = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../formats/tests/golden/container_v1.tocz"
    ));
    let want = Container::read(v1).unwrap().decode().unwrap();
    let sc = SeekableContainer::open(v1).unwrap();
    assert_eq!((sc.version(), sc.total_rows(), sc.cols()), (1, 57, 6));
    assert!(sc.postscript().is_none(), "v1 has no postscript");
    assert_eq!(sc.decode_rows(0, 57).unwrap(), want);
    let part = sc.decode_rows(20, 53).unwrap();
    assert_eq!(part.data(), &want.data()[20 * 6..53 * 6]);
    let mut rows = Vec::new();
    sc.for_each_row(&mut |_, row| {
        rows.extend_from_slice(row);
        Ok::<_, String>(())
    })
    .unwrap();
    assert_eq!(rows, want.data());
}
