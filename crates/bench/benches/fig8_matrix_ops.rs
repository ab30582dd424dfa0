//! Criterion version of Figure 8: matrix-operation latency on compressed
//! 250-row mini-batches. Three representative datasets (census-like =
//! TOC's home turf, mnist-like = weak logical gains, deep-like = dense
//! incompressible) × all eight schemes × five operation classes.
//!
//! Like the `fig8_matrix_ops` binary, the kernels run in their
//! `*_into_ws` form through one warm `ExecScratch`, alternating between
//! two batches of the preset, so that each call pays what a step's first
//! kernel on a batch pays (TOC prepares its decode tree once per batch).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{ExecScratch, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

fn bench_ops(c: &mut Criterion) {
    let rows = 250usize;
    for preset in [
        DatasetPreset::CensusLike,
        DatasetPreset::MnistLike,
        DatasetPreset::DeepLike,
    ] {
        let ds = generate_preset(preset, 2 * rows, 42);
        let halves = [ds.x.slice_rows(0, rows), ds.x.slice_rows(rows, 2 * rows)];
        let cols = ds.x.cols();
        let v: Vec<f64> = (0..cols).map(|i| ((i % 7) as f64) - 3.0).collect();
        let w: Vec<f64> = (0..rows).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mr = DenseMatrix::from_vec(
            cols,
            20,
            (0..cols * 20).map(|i| ((i % 11) as f64) * 0.25).collect(),
        );
        let ml = DenseMatrix::from_vec(
            20,
            rows,
            (0..rows * 20)
                .map(|i| ((i % 13) as f64) * 0.5 - 3.0)
                .collect(),
        );

        let mut group = c.benchmark_group(format!("fig8/{}", preset.name()));
        group
            .sample_size(10)
            .measurement_time(Duration::from_millis(400))
            .warm_up_time(Duration::from_millis(100));
        let mut ws = ExecScratch::default();
        let mut out_v: Vec<f64> = Vec::new();
        let mut out_m = DenseMatrix::default();
        for scheme in Scheme::PAPER_SET {
            let pair = [scheme.encode(&halves[0]), scheme.encode(&halves[1])];
            let mut flip = 0;
            let mut next = || {
                flip ^= 1;
                &pair[flip]
            };
            group.bench_function(BenchmarkId::new("A_mul_c", scheme.name()), |b| {
                b.iter(|| {
                    let mut bb = next().clone();
                    bb.scale(1.000001);
                    bb
                })
            });
            group.bench_function(BenchmarkId::new("A_mul_v", scheme.name()), |b| {
                b.iter(|| next().matvec_into_ws(&v, &mut out_v, &mut ws))
            });
            group.bench_function(BenchmarkId::new("v_mul_A", scheme.name()), |b| {
                b.iter(|| next().vecmat_into_ws(&w, &mut out_v, &mut ws))
            });
            group.bench_function(BenchmarkId::new("A_mul_M", scheme.name()), |b| {
                b.iter(|| next().matmat_into_ws(&mr, &mut out_m, &mut ws))
            });
            group.bench_function(BenchmarkId::new("M_mul_A", scheme.name()), |b| {
                b.iter(|| next().matmat_left_into_ws(&ml, &mut out_m, &mut ws))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_ops);
criterion_main!(benches);
