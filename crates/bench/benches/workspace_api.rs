//! Allocating vs. workspace (`*_into_ws`) kernel API comparison.
//!
//! Two levels:
//!
//! * **Kernel level** — `matvec` / `matmat` per scheme, allocating output
//!   per call vs. reusing caller-owned buffers (plus format-level scratch:
//!   GC decompression staging, the TOC decode tree — one batch in a loop,
//!   so the workspace side finds its tree prepared on every call but the
//!   first).
//! * **Epoch level** — one full MGD epoch of logistic regression through
//!   `step` (throwaway workspace per batch) vs. `step_ws` (one workspace
//!   for the run), the configuration `Trainer` uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{ExecScratch, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;
use toc_ml::mgd::{step, step_ws, MemoryProvider, TrainedModel};
use toc_ml::workspace::ExecWorkspace;
use toc_ml::{LinearModel, LossKind};

fn bench_kernels(c: &mut Criterion) {
    let ds = generate_preset(DatasetPreset::CensusLike, 250, 42);
    let cols = ds.x.cols();
    let v: Vec<f64> = (0..cols).map(|i| ((i % 7) as f64) - 3.0).collect();
    let mr = DenseMatrix::from_vec(
        cols,
        16,
        (0..cols * 16).map(|i| ((i % 11) as f64) * 0.25).collect(),
    );

    let mut group = c.benchmark_group("workspace_api/kernels");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100));
    for scheme in [Scheme::Den, Scheme::Csr, Scheme::Toc, Scheme::Gzip] {
        let batch = scheme.encode(&ds.x);
        group.bench_function(BenchmarkId::new("matvec_alloc", scheme.name()), |b| {
            b.iter(|| batch.matvec(&v))
        });
        let mut out = Vec::new();
        let mut ws = ExecScratch::default();
        group.bench_function(BenchmarkId::new("matvec_into_ws", scheme.name()), |b| {
            b.iter(|| {
                batch.matvec_into_ws(&v, &mut out, &mut ws);
                out.len()
            })
        });
        group.bench_function(BenchmarkId::new("matmat_alloc", scheme.name()), |b| {
            b.iter(|| batch.matmat(&mr))
        });
        let mut mout = DenseMatrix::default();
        group.bench_function(BenchmarkId::new("matmat_into_ws", scheme.name()), |b| {
            b.iter(|| {
                batch.matmat_into_ws(&mr, &mut mout, &mut ws);
                mout.rows()
            })
        });
    }
    group.finish();
}

fn bench_epoch(c: &mut Criterion) {
    let ds = generate_preset(DatasetPreset::CensusLike, 1000, 7);
    let d = ds.x.cols();
    let batch_rows = 100;
    let mut group = c.benchmark_group("workspace_api/epoch_lr");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(500))
        .warm_up_time(Duration::from_millis(100));
    for scheme in [Scheme::Den, Scheme::Toc, Scheme::Gzip] {
        let mut batches = Vec::new();
        let mut start = 0;
        while start < ds.x.rows() {
            let end = (start + batch_rows).min(ds.x.rows());
            batches.push((
                scheme.encode(&ds.x.slice_rows(start, end)),
                ds.labels[start..end].to_vec(),
            ));
            start = end;
        }
        let provider = MemoryProvider {
            batches,
            features: d,
        };
        group.bench_function(BenchmarkId::new("step_alloc", scheme.name()), |b| {
            let mut model = TrainedModel::Linear(LinearModel::new(d, LossKind::Logistic));
            b.iter(|| {
                for (batch, y) in &provider.batches {
                    step(&mut model, batch, y, 0.05);
                }
            })
        });
        group.bench_function(BenchmarkId::new("step_ws", scheme.name()), |b| {
            let mut model = TrainedModel::Linear(LinearModel::new(d, LossKind::Logistic));
            let mut ws = ExecWorkspace::new();
            b.iter(|| {
                for (batch, y) in &provider.batches {
                    step_ws(&mut model, batch, y, 0.05, &mut ws);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_epoch);
criterion_main!(benches);
