//! Property tests for streaming ingestion: chunking a row stream through
//! the reusable [`toc_data::EncodeWorkspace`] must produce *exactly* the
//! bytes a one-shot encode of the same rows would — for arbitrary chunk
//! sizes, schemes and shard counts — and the workspace's high-water mark
//! must be a function of the chunk shape alone, never of how many rows
//! ever flowed through it (the bounded-memory property `toc ingest` and
//! `toc train --follow` are built on).

use proptest::prelude::*;
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::drifting_matrix;
use toc_data::{ContainerIngest, EncodeWorkspace, IngestStats, StoreIngest};
use toc_formats::container::{Container, ContainerStreamWriter};
use toc_formats::{EncodeOptions, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::BatchProvider;

/// `m` through a [`ContainerIngest`]: the sink, the container size and
/// the counters.
fn pipelined(
    m: &DenseMatrix,
    chunk_rows: usize,
    scheme: Option<Scheme>,
) -> (Vec<u8>, u64, IngestStats) {
    let mut sink = Vec::new();
    let mut ing = ContainerIngest::new(
        &mut sink,
        m.cols(),
        chunk_rows,
        scheme,
        EncodeOptions::default(),
    )
    .unwrap();
    for r in 0..m.rows() {
        ing.push_row(m.row(r)).unwrap();
    }
    let (total, stats) = ing.finish().unwrap();
    (sink, total, stats)
}

/// The serial reference: every chunk sealed by one [`EncodeWorkspace`]
/// and appended before the next row is staged.
fn serial(m: &DenseMatrix, chunk_rows: usize, scheme: Option<Scheme>) -> (Vec<u8>, IngestStats) {
    let opts = EncodeOptions::default();
    let mut ws = EncodeWorkspace::new(m.cols(), chunk_rows);
    let mut sink = Vec::new();
    let mut writer = ContainerStreamWriter::new(&mut sink).unwrap();
    let mut stats = IngestStats::default();
    for r in 0..m.rows() {
        ws.push_row(m.row(r));
        let last = r + 1 == m.rows();
        if !(ws.is_full() || last) {
            continue;
        }
        let sealed = ws.seal(scheme, &opts).unwrap();
        let before = writer.bytes_written();
        writer.append(&sealed.batch, sealed.zone).unwrap();
        stats.encoded_bytes += writer.bytes_written() - before;
        match stats
            .scheme_counts
            .iter_mut()
            .find(|(s, _)| *s == sealed.scheme)
        {
            Some((_, n)) => *n += 1,
            None => stats.scheme_counts.push((sealed.scheme, 1)),
        }
    }
    writer.finish().unwrap();
    (sink, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming rows through [`ContainerIngest`] chunk by chunk yields a
    /// container bit-identical to the one-shot
    /// [`Container::encode_with`] of the same matrix with the same
    /// segment size — chunking decides *where* boundaries fall, never
    /// what a segment encodes to. Both legs, a fixed scheme and per-chunk
    /// auto (`None`), also equal a serial seal-then-append of the same
    /// rows, stats included, at row counts that give 1, W, W + 1 and
    /// W + 2 chunks (W = seal workers) with a partial last chunk.
    #[test]
    fn streamed_container_bit_identical_to_one_shot(
        scheme_idx in 0usize..Scheme::AUTO_SET.len(),
        auto_sel in 0usize..2,
        rows in 1usize..260,
        cols in 1usize..8,
        chunk_rows in 1usize..97,
        seed in 0u64..1000,
    ) {
        let fixed = Scheme::AUTO_SET[scheme_idx];
        let scheme = if auto_sel == 1 { None } else { Some(fixed) };
        let opts = EncodeOptions::default();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let tail = 1 + seed as usize % chunk_rows;
        let pipeline_rows = [1, workers, workers + 1, workers + 2].map(|n| (n - 1) * chunk_rows + tail);
        for rows in std::iter::once(rows).chain(pipeline_rows) {
            let m = drifting_matrix(rows, cols, 4, seed);
            let (sink, total, stats) = pipelined(&m, chunk_rows, scheme);
            prop_assert_eq!(total as usize, sink.len());
            prop_assert_eq!(stats.rows as usize, rows);
            prop_assert_eq!(stats.chunks as usize, rows.div_ceil(chunk_rows));
            let (serial_sink, serial_stats) = serial(&m, chunk_rows, scheme);
            prop_assert!(sink == serial_sink, "{} rows: pipelined != serial bytes", rows);
            prop_assert_eq!(&stats.scheme_counts, &serial_stats.scheme_counts);
            prop_assert_eq!(stats.encoded_bytes, serial_stats.encoded_bytes);
            if let Some(s) = scheme {
                let one_shot = Container::encode_with(&m, s, chunk_rows, &opts)
                    .to_bytes()
                    .unwrap();
                prop_assert!(sink == one_shot, "{} rows: streamed != one-shot", rows);
            }
        }
    }

    /// Streaming the same rows into a live [`ShardedSpillStore`] across
    /// arbitrary shard counts: every appended segment reads back through
    /// the visit path with exact decode- and label-equality, and (for a
    /// fixed scheme) with bytes bit-identical to the one-shot chunk
    /// encode — the shard files hold exactly what a non-streaming encode
    /// of each chunk would have produced.
    #[test]
    fn store_ingest_bit_identical_across_shard_counts(
        scheme_idx in 0usize..Scheme::AUTO_SET.len(),
        auto_sel in 0usize..2,
        rows in 1usize..240,
        chunk_rows in 1usize..97,
        shards in 1usize..6,
        seed in 0u64..1000,
    ) {
        let fixed = Scheme::AUTO_SET[scheme_idx];
        let scheme = if auto_sel == 1 { None } else { Some(fixed) };
        let cols = 5usize;
        let m = drifting_matrix(rows, cols, 3, seed);
        let labels: Vec<f64> = (0..rows).map(|r| if r % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let opts = EncodeOptions::default();

        let config = StoreConfig::new(fixed, chunk_rows, 0).with_shards(shards);
        let store = ShardedSpillStore::open_streaming(cols, &config).unwrap();
        let mut ing = StoreIngest::new(&store, chunk_rows, scheme, opts);
        for (r, &label) in labels.iter().enumerate() {
            ing.push_row(m.row(r), label).unwrap();
        }
        let stats = ing.finish().unwrap();

        let n_chunks = rows.div_ceil(chunk_rows);
        prop_assert_eq!(stats.chunks as usize, n_chunks);
        prop_assert_eq!(store.num_batches(), n_chunks);
        prop_assert_eq!(store.appended_batches(), n_chunks);
        prop_assert_eq!(store.appended_bytes(), stats.encoded_bytes);

        let mut seen = 0usize;
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, y| {
                let d = b.decode();
                let end = seen + d.rows();
                assert_eq!(d, m.slice_rows(seen, end), "chunk {i}");
                assert_eq!(y, &labels[seen..end], "labels {i}");
                if let Some(s) = scheme {
                    // Bit-identity, not just decode-equality: the bytes
                    // appended to the shard file are exactly the one-shot
                    // encode of this chunk.
                    let expect = s.encode_with(&m.slice_rows(seen, end), &opts).to_bytes();
                    assert_eq!(b.to_bytes(), expect, "chunk {i} wire bytes");
                }
                seen = end;
            });
        }
        prop_assert_eq!(seen, rows);
    }

    /// The workspace-bytes accounting: pushing `growth`× more rows
    /// through the same workspace shape leaves the peak within 10% —
    /// peak encode memory is independent of the total row count.
    #[test]
    fn workspace_peak_independent_of_total_rows(
        cols in 1usize..8,
        chunk_rows in 8usize..64,
        growth in 2usize..9,
        seed in 0u64..1000,
    ) {
        let peak_for = |rows: usize| {
            let m = drifting_matrix(rows, cols, 3, seed);
            let mut ws = EncodeWorkspace::new(cols, chunk_rows);
            let opts = EncodeOptions::default();
            for r in 0..m.rows() {
                ws.push_row(m.row(r));
                if ws.is_full() {
                    ws.seal(None, &opts).unwrap();
                }
            }
            ws.seal(None, &opts);
            ws.peak_bytes()
        };
        let small = peak_for(chunk_rows * 2);
        let large = peak_for(chunk_rows * 2 * growth);
        prop_assert!(small > 0);
        prop_assert!(
            (large as f64) <= 1.1 * small as f64,
            "workspace peak grew with total rows: {} -> {} ({}x rows)",
            small, large, growth
        );
    }
}

/// A sink whose `fail_at`-th write (counting from 1) fails. The
/// container header takes two writes and every segment one more.
struct FailingSink {
    writes: usize,
    fail_at: usize,
    bytes: Vec<u8>,
}

impl std::io::Write for FailingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.writes == self.fail_at {
            return Err(std::io::Error::other("injected write failure"));
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A sink that fails on its k-th write surfaces the error from
/// `push_row`, `flush` or `finish` — never a hang or a panic — and from
/// then on every call returns it; `stats()` counts exactly the chunks
/// appended before the failure, and the sink holds exactly their bytes.
#[test]
fn failing_sink_surfaces_err_and_stats_count_only_appended_chunks() {
    let (cols, chunk, chunks) = (5, 16, 9);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let m = drifting_matrix(chunk * chunks + 7, cols, 4, 21);
    let (good, _, _) = pipelined(&m, chunk, None);
    for fail_at in 3..=3 + chunks {
        let mut sink = FailingSink {
            writes: 0,
            fail_at,
            bytes: Vec::new(),
        };
        let mut ing =
            ContainerIngest::new(&mut sink, cols, chunk, None, EncodeOptions::default()).unwrap();
        let mut pushed_err = false;
        for r in 0..m.rows() {
            if ing.push_row(m.row(r)).is_err() {
                pushed_err = true;
                break;
            }
        }
        // The partial last chunk is handed off by `finish` alone.
        let appended = (fail_at - 3) as u64;
        assert_eq!(
            ing.flush().is_err(),
            appended < chunks as u64,
            "fail_at {fail_at}: flush after a failed append"
        );
        assert_eq!(ing.stats().chunks, appended, "fail_at {fail_at}");
        assert_eq!(
            ing.stats().rows,
            appended * chunk as u64,
            "fail_at {fail_at}"
        );
        let watermark = ing.bytes_written() as usize;
        assert!(
            ing.finish().is_err(),
            "fail_at {fail_at}: finish after a failed append"
        );
        assert_eq!(sink.bytes, good[..watermark], "fail_at {fail_at}");
        // Chunk j is appended by the time chunk j + W + 1 is handed off,
        // so its failure comes out of `push_row` when that happens there.
        if fail_at - 3 + workers + 1 < chunks {
            assert!(
                pushed_err,
                "fail_at {fail_at}: push_row never saw the error"
            );
        }
    }
}

/// Dropping an unfinished ingest with chunks in flight and a chunk half
/// staged returns (its workers are joined; the pool's own unit tests
/// check that) and leaves the sink holding whole segments only.
#[test]
fn dropping_an_ingest_mid_chunk_with_chunks_in_flight_returns() {
    let (cols, chunk) = (6, 40);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let m = drifting_matrix(chunk * (workers + 2) + chunk / 2, cols, 4, 3);
    let (good, _, _) = pipelined(&m, chunk, None);
    let mut sink = Vec::new();
    let mut ing =
        ContainerIngest::new(&mut sink, cols, chunk, None, EncodeOptions::default()).unwrap();
    for r in 0..m.rows() {
        ing.push_row(m.row(r)).unwrap();
    }
    assert_eq!(ing.staged_rows(), chunk / 2);
    assert_eq!(ing.handed_off(), workers as u64 + 2);
    let watermark = ing.bytes_written() as usize;
    drop(ing);
    assert_eq!(sink, good[..watermark]);
}
