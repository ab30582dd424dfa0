//! Figure 12: compression and decompression times of Snappy*, Gzip*, TOC
//! and ANS on 250-row mini-batches from each dataset.
//!
//! Expected shape: TOC compresses faster than Gzip* but slower than
//! Snappy*; TOC decompresses faster than both.
//!
//! The binary ends with the **decode throughput gate**: the chunked /
//! table-driven decode kernels (word-refill BitReader + LUT Huffman in
//! Gzip*, lane-unpacked CVI/DVI) must reach >= `--gate=2.0` times the
//! aggregate throughput of the scalar reference kernels retained in the
//! same binary (`decompress_into_scalar`, `decode_into_scalar`,
//! `matvec_into_scalar`) on the seeded CVI/GC-heavy workload below. CI
//! runs this in release; a kernel regression fails the step and the full
//! comparison table lands in the job log. ANS has no pre-existing scalar
//! reference, so it is reported but excluded from the gate ratio.

use std::time::Duration;
use toc_bench::{arg, fmt_duration, mb_per_s, time_avg, Table};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::cvi::{CviBatch, DviBatch};
use toc_formats::{ExecScratch, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

fn main() {
    let rows: usize = arg("rows", 250);
    let iters: usize = arg("iters", 20);
    let seed: u64 = arg("seed", 42);
    let gate: f64 = arg("gate", 2.0);
    const CODECS: [Scheme; 4] = [Scheme::Snappy, Scheme::Gzip, Scheme::Toc, Scheme::GcAns];
    println!("# Figure 12 — compression / decompression time of a {rows}-row mini-batch\n");
    let mut comp = Table::new(vec!["dataset", "Snappy*", "Gzip*", "TOC", "ANS"]);
    let mut decomp = Table::new(vec!["dataset", "Snappy*", "Gzip*", "TOC", "ANS"]);
    for preset in DatasetPreset::ALL {
        let ds = generate_preset(preset, rows, seed);
        let mut crow = vec![preset.name().to_string()];
        let mut drow = vec![preset.name().to_string()];
        for scheme in CODECS {
            let c = time_avg(iters, || std::hint::black_box(scheme.encode(&ds.x)));
            crow.push(fmt_duration(c));
            let encoded = scheme.encode(&ds.x);
            let d = time_avg(iters, || std::hint::black_box(encoded.decode()));
            drow.push(fmt_duration(d));
        }
        comp.row(crow);
        decomp.row(drow);
    }
    println!("## compression time");
    comp.print();
    println!("\n## decompression time");
    decomp.print();

    decode_gate(rows, iters, seed, gate);
}

/// One fast-vs-scalar comparison leg of the gate workload.
struct Leg {
    name: String,
    bytes: usize,
    fast: Duration,
    scalar: Duration,
}

/// The decode throughput gate: aggregate wall time of the scalar
/// reference kernels divided by the chunked/table-driven kernels, over
/// every preset's mini-batch. Gzip* decompression of the dense payload is
/// the heaviest leg by design (the LUT-Huffman + word-refill win), with
/// CVI/DVI decode and matvec alongside.
fn decode_gate(rows: usize, iters: usize, seed: u64, gate: f64) {
    println!("\n## decode throughput gate (chunked/table kernels vs scalar reference)");
    let mut legs: Vec<Leg> = Vec::new();
    let mut ans_bytes = 0usize;
    let mut ans_time = Duration::ZERO;
    for preset in DatasetPreset::ALL {
        let ds = generate_preset(preset, rows, seed);
        let payload: Vec<u8> = ds.x.data().iter().flat_map(|v| v.to_le_bytes()).collect();

        // Gzip*: full deflate stream of the dense batch payload.
        let deflated = toc_gc::deflate::compress(&payload);
        let mut out = Vec::new();
        let fast = time_avg(iters, || {
            toc_gc::deflate::decompress_into(std::hint::black_box(&deflated), &mut out).unwrap();
        });
        let scalar = time_avg(iters, || {
            toc_gc::deflate::decompress_into_scalar(std::hint::black_box(&deflated), &mut out)
                .unwrap();
        });
        assert_eq!(
            out,
            payload,
            "{}: deflate fast/scalar disagree",
            preset.name()
        );
        legs.push(Leg {
            name: format!("{}/gzip*", preset.name()),
            bytes: payload.len(),
            fast,
            scalar,
        });

        // ANS decode throughput on the same payload (informational: the
        // codec is new in this revision, so there is no scalar reference
        // to gate against).
        let ansed = toc_gc::ans::compress(&payload);
        ans_time += time_avg(iters, || {
            toc_gc::ans::decompress_into(std::hint::black_box(&ansed), &mut out).unwrap();
        });
        ans_bytes += payload.len();

        // CVI / DVI: full decode and matvec, chunked lane kernels vs the
        // per-element scalar references.
        let cvi = CviBatch::encode(&ds.x);
        let dvi = DviBatch::encode(&ds.x);
        let v: Vec<f64> = (0..ds.x.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut m = DenseMatrix::default();
        let mut mv = Vec::new();
        let mut ws = ExecScratch::default();
        let den_bytes = ds.x.den_size_bytes();
        let checks: [(&str, usize, Duration, Duration); 4] = [
            (
                "cvi-decode",
                den_bytes,
                time_avg(iters, || cvi.decode_into_ws(&mut m, &mut ws)),
                time_avg(iters, || cvi.decode_into_scalar(&mut m)),
            ),
            (
                "cvi-matvec",
                den_bytes,
                time_avg(iters, || cvi.matvec_into_ws(&v, &mut mv, &mut ws)),
                time_avg(iters, || cvi.matvec_into_scalar(&v, &mut mv)),
            ),
            (
                "dvi-decode",
                den_bytes,
                time_avg(iters, || dvi.decode_into_ws(&mut m, &mut ws)),
                time_avg(iters, || dvi.decode_into_scalar(&mut m)),
            ),
            (
                "dvi-matvec",
                den_bytes,
                time_avg(iters, || dvi.matvec_into_ws(&v, &mut mv, &mut ws)),
                time_avg(iters, || dvi.matvec_into_scalar(&v, &mut mv)),
            ),
        ];
        for (kind, bytes, fast, scalar) in checks {
            legs.push(Leg {
                name: format!("{}/{kind}", preset.name()),
                bytes,
                fast,
                scalar,
            });
        }
    }

    let mut t = Table::new(vec!["leg", "scalar", "fast", "speedup", "fast MB/s"]);
    let mut fast_total = Duration::ZERO;
    let mut scalar_total = Duration::ZERO;
    for leg in &legs {
        fast_total += leg.fast;
        scalar_total += leg.scalar;
        t.row(vec![
            leg.name.clone(),
            fmt_duration(leg.scalar),
            fmt_duration(leg.fast),
            format!(
                "{:.2}x",
                leg.scalar.as_secs_f64() / leg.fast.as_secs_f64().max(1e-12)
            ),
            format!("{:.0}", mb_per_s(leg.bytes, leg.fast)),
        ]);
    }
    t.print();
    let speedup = scalar_total.as_secs_f64() / fast_total.as_secs_f64().max(1e-12);
    println!(
        "\naggregate decode speedup: {speedup:.2}x (scalar {} -> fast {}); \
         ANS decode {:.0} MB/s (informational)",
        fmt_duration(scalar_total),
        fmt_duration(fast_total),
        mb_per_s(ans_bytes, ans_time),
    );
    assert!(
        speedup >= gate,
        "decode gate FAILED: aggregate speedup {speedup:.2}x < required {gate:.1}x"
    );
    println!("decode gate PASSED (>= {gate:.1}x)");
}
