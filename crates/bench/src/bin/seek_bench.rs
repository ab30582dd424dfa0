//! Random-access read path of the seekable `.tocz` v2 container:
//! full-scan vs. one-segment vs. selective row-range decode, single
//! worker vs. parallel, with the bytes actually read reported from the
//! reader's own [`toc_data::IoStats`].
//!
//! Ends with the PR's two acceptance gates (both assert, so CI fails
//! loudly on a regression):
//!
//! 1. **Random access**: decoding one segment of a 64-segment container
//!    — including opening the file — must read at most 2× that
//!    segment's bytes. A reader that drags in neighbours or rescans the
//!    payload to find a segment fails this immediately.
//! 2. **Zone-map pruning**: a selective row-range query must skip at
//!    least 90% of the segments via the layout-tree footer alone.
//!
//! ```text
//! cargo run -p toc-bench --release --bin seek_bench -- \
//!     --rows=65536 --cols=16 --segments=64 --scheme=toc
//! ```

use std::time::Instant;
use toc_bench::{fmt_duration, mb_per_s, Args, Table};
use toc_data::SeekableContainer;
use toc_formats::container::Container;
use toc_formats::{EncodeOptions, Scheme};
use toc_linalg::DenseMatrix;

/// Deterministic pool-valued matrix (no rand dependency in bins).
fn synth(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let pool = [0.0, 0.5, 1.5, -2.0, 3.25, 0.0, 7.5, 0.0];
    let data = (0..rows * cols)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            pool[(s % pool.len() as u64) as usize]
        })
        .collect();
    DenseMatrix::from_vec(rows, cols, data)
}

fn main() {
    let mut args = Args::from_env();
    let rows: usize = args.get("rows", 65_536);
    let cols: usize = args.get("cols", 16);
    let segments: usize = args.get("segments", 64);
    let workers: usize = args.get("workers", 4);
    let scheme_name: String = args.get("scheme", "toc".to_string());
    args.finish();
    let scheme = match scheme_name.as_str() {
        "toc" => Scheme::Toc,
        "den" => Scheme::Den,
        "csr" => Scheme::Csr,
        "cla" => Scheme::Cla,
        other => panic!("--scheme={other}: expected toc|den|csr|cla"),
    };
    let seg_rows = rows.div_ceil(segments);

    let m = synth(rows, cols, 42);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("toc-seek-bench-{}.tocz", std::process::id()));
    let t = Instant::now();
    Container::encode_with(&m, scheme, seg_rows, &EncodeOptions::default())
        .write(&path)
        .unwrap();
    let write_t = t.elapsed();
    let file_len = std::fs::metadata(&path).unwrap().len();
    println!(
        "seek_bench: {rows} rows x {cols} cols, {segments} segments of {seg_rows} rows, \
         scheme={scheme:?}, file {file_len} bytes (written in {})",
        fmt_duration(write_t)
    );

    let mut table = Table::new(vec![
        "access",
        "rows",
        "bytes read",
        "of file",
        "time",
        "MB/s",
    ]);
    let mut run = |name: &str, r0: usize, r1: usize, workers: usize| -> (u64, u64) {
        let t = Instant::now();
        let sc = SeekableContainer::open(&path).unwrap();
        let part = sc.decode_rows_parallel(r0, r1, workers).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(part.rows(), r1 - r0);
        let snap = sc.stats().snapshot();
        table.row(vec![
            name.to_string(),
            format!("{}..{}", r0, r1),
            format!("{}", snap.bytes_read),
            format!("{:.1}%", snap.bytes_read as f64 * 100.0 / file_len as f64),
            fmt_duration(elapsed),
            format!("{:.0}", mb_per_s(snap.bytes_read as usize, elapsed)),
        ]);
        (snap.bytes_read, snap.disk_reads)
    };

    run("full scan", 0, rows, 1);
    run(&format!("full scan x{workers}"), 0, rows, workers);
    let mid = segments / 2;
    let (one_seg_bytes, one_seg_reads) = run(
        "one segment",
        mid * seg_rows,
        ((mid + 1) * seg_rows).min(rows),
        1,
    );
    run("128-row slice", rows / 3, rows / 3 + 128, 1);
    table.print();

    // Gate 1: random access is bounded by the touched segment.
    let sc = SeekableContainer::open(&path).unwrap();
    let leaf = &sc.footer().leaves()[mid];
    let seg_bytes = leaf.end - leaf.begin;
    println!(
        "\ngate 1 (random access): one-segment decode read {one_seg_bytes} bytes \
         in {one_seg_reads} reads; segment is {seg_bytes} bytes (limit 2x)"
    );
    assert!(
        one_seg_bytes <= 2 * seg_bytes,
        "random-access gate failed: {one_seg_bytes} > 2 * {seg_bytes}"
    );

    // Gate 2: a selective row range prunes >= 90% of segments in the
    // footer, before any payload IO.
    let r0 = (mid * seg_rows) as u64;
    let touched = sc.footer().segments_overlapping_rows(r0, r0 + 128);
    let skipped = segments - touched.len();
    println!(
        "gate 2 (zone pruning): 128-row query touches {} of {segments} segments \
         ({skipped} skipped; limit >= 90%)",
        touched.len()
    );
    assert!(
        skipped * 10 >= segments * 9,
        "pruning gate failed: only {skipped} of {segments} segments skipped"
    );

    println!("seek_bench: all acceptance gates passed");
    std::fs::remove_file(&path).ok();
}
