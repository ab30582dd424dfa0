//! The paper scoreboard: one table of (figure, measurement, expected
//! shapes) for Figures 2, 5–12 and Tables 6–7 of the evaluation, all on
//! the six synthetic presets at one seed, and for the system behind its
//! runtimes: the spill store's read path (`store`), many jobs on one store
//! (`tenant`) and streaming ingest (`ingest`). Sizes, epochs, `p`, widths
//! and the modelled devices are constants here: every committed entry and
//! CI run the same values. A shape's text is the claim the paper (or the
//! system) makes; where a preset is known not to reproduce it the shape
//! carries the reason, and `paper` reports `deviates` instead of failing.

use crate::paper::{on, Figure, Grid, Unit};
use crate::{
    compression_ratio, end_to_end, end_to_end_store, mb_per_s, sweep_store, time_avg, Workload,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use toc_core::{logical_encode, PhysicalCodec, TocBatch};
use toc_data::serve::{JobServer, JobSpec, ServeConfig};
use toc_data::store::{IoEngineKind, SchedulerConfig, ShardedSpillStore, StoreConfig};
use toc_data::synth::{drifting_matrix, generate_preset, Dataset, DatasetPreset};
use toc_data::StoreIngest;
use toc_formats::cvi::{CviBatch, DviBatch};
use toc_formats::{AnyBatch, EncodeOptions, ExecScratch, MatrixBatch, Scheme};
use toc_linalg::{DenseMatrix, SparseRows};
use toc_ml::mgd::{targets_for_nn, MemoryProvider, MgdConfig, ModelSpec, Trainer};
use toc_ml::models::NeuralNet;
use toc_ml::{BatchProvider, LossKind};

pub const SEED: u64 = 42;

/// The rows of the end-to-end comparisons (the paper's exclude CLA).
const END_TO_END_SET: [Scheme; 7] = [
    Scheme::Den,
    Scheme::Csr,
    Scheme::Cvi,
    Scheme::Dvi,
    Scheme::Snappy,
    Scheme::Gzip,
    Scheme::Toc,
];

/// The memory budget rule of every out-of-core figure: `tenths / 10` ×
/// the TOC footprint of `ds` in 250-row batches, so TOC stays resident
/// and the wider formats spill — the regime of the paper's 15 GB machine.
fn toc_budget(ds: &Dataset, tenths: usize) -> usize {
    let toc_bytes: usize = ds
        .minibatches(250)
        .iter()
        .map(|(x, _)| Scheme::Toc.encode(x).size_bytes())
        .sum();
    toc_bytes * tenths / 10
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------
// Measurements.

/// Figure 2: accuracy per epoch of a one-hidden-layer NN on mnist-like
/// under SGD, MGD at four batch sizes and BGD, one fixed learning rate.
fn fig2() -> Vec<Grid> {
    const ROWS: usize = 1500;
    let ds = generate_preset(DatasetPreset::MnistLike, ROWS, SEED);
    let eval = Scheme::Den.encode(&ds.x);
    let targets = targets_for_nn(&ds.labels, ds.classes);
    let mut accuracy = Grid::new("accuracy", "preset", "epoch", Unit::Accuracy);
    for (name, batch_rows) in [
        ("SGD", 1),
        ("MGD-250", 250),
        ("MGD-20%", ROWS / 5),
        ("MGD-50%", ROWS / 2),
        ("MGD-80%", ROWS * 4 / 5),
        ("BGD", ROWS),
    ] {
        let provider = MemoryProvider {
            batches: ds
                .minibatches(batch_rows)
                .into_iter()
                .map(|(x, y)| (Scheme::Toc.encode(&x), y))
                .collect(),
            features: ds.x.cols(),
        };
        let mut nn = NeuralNet::new(ds.x.cols(), &[32], ds.classes, SEED);
        for epoch in 1..=12 {
            for i in 0..provider.num_batches() {
                provider.visit(i, &mut |batch, labels| {
                    let t = targets_for_nn(labels, nn.outputs);
                    nn.update_batch(batch, &t, 0.35);
                });
            }
            accuracy.push("mnist", epoch, name, nn.accuracy(&eval, &targets));
        }
    }
    vec![accuracy]
}

/// Figures 5 and 6: ratios of `schemes` on the first 50–250 rows of each
/// preset.
fn small_batch_ratios(schemes: &[Scheme]) -> Grid {
    let mut ratio = Grid::new("ratio", "preset", "rows", Unit::Ratio);
    for preset in DatasetPreset::ALL {
        let ds = generate_preset(preset, 250, SEED);
        for rows in [50, 100, 150, 200, 250] {
            let batch = ds.x.slice_rows(0, rows);
            for &scheme in schemes {
                ratio.push(
                    preset.name(),
                    rows,
                    scheme.name(),
                    compression_ratio(&batch, scheme),
                );
            }
        }
    }
    ratio
}

/// Figure 6, plus what each stage of the encoder costs and what the
/// physical integer codec trades (census-like, 250 rows).
fn fig6() -> Vec<Grid> {
    let x = generate_preset(DatasetPreset::CensusLike, 250, SEED).x;
    let logical = logical_encode(&SparseRows::encode(&x));
    let mut stages = Grid::new("stages", "preset", "stage", Unit::Plain);
    let v: Vec<f64> = (0..x.cols()).map(|i| (i % 7) as f64).collect();
    let time = |f: &mut dyn FnMut()| us(time_avg(200, f));
    let sparse = time(&mut || drop(SparseRows::encode(&x)));
    stages.push("census", "sparse", "encode_us", sparse);
    let both = time(&mut || drop(logical_encode(&SparseRows::encode(&x))));
    stages.push("census", "sparse+logical", "encode_us", both);
    let physical = time(&mut || drop(TocBatch::from_logical(&logical, PhysicalCodec::BitPack)));
    stages.push("census", "physical only", "encode_us", physical);
    for (name, codec) in [
        ("full, BitPack", PhysicalCodec::BitPack),
        ("full, Varint", PhysicalCodec::Varint),
    ] {
        let batch = TocBatch::encode_with(&x, codec);
        let encode = time(&mut || drop(TocBatch::encode_with(&x, codec)));
        stages.push("census", name, "encode_us", encode);
        stages.push("census", name, "bytes", batch.size_bytes() as f64);
        let matvec = time(&mut || drop(batch.matvec(&v).expect("A*v")));
        stages.push("census", name, "A*v_us", matvec);
    }
    vec![small_batch_ratios(&Scheme::ABLATION_SET), stages]
}

/// Figure 7: the batch is a growing share of a 4 000-row dataset.
fn fig7() -> Vec<Grid> {
    const ROWS: usize = 4000;
    let mut ratio = Grid::new("ratio", "preset", "pct", Unit::Ratio);
    for preset in DatasetPreset::MODERATE {
        let ds = generate_preset(preset, ROWS, SEED);
        for pct in [5, 10, 20, 40, 80, 100] {
            let batch = ds.x.slice_rows(0, ROWS * pct / 100);
            for scheme in Scheme::PAPER_SET {
                ratio.push(
                    preset.name(),
                    format!("{pct}%"),
                    scheme.name(),
                    compression_ratio(&batch, scheme),
                );
            }
        }
    }
    vec![ratio]
}

/// Median of five [`time_avg`] samples of `f` alternating between the two
/// batches of `pair`.
fn time_alternating(pair: &[AnyBatch; 2], mut f: impl FnMut(&AnyBatch)) -> Duration {
    let mut flip = 0;
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            time_avg(200, || {
                flip ^= 1;
                f(&pair[flip]);
            })
        })
        .collect();
    samples.sort();
    samples[2]
}

/// Figure 8: the five matrix-operation classes on compressed 250-row
/// batches. A cell times one kernel as a training step's *first* kernel
/// on a batch pays for it: the `*_into_ws` form with one warm
/// `ExecScratch` and warm outputs (no allocation), alternating between
/// two batches of the preset, so whatever a scheme prepares once per
/// batch (TOC: the decode tree, for `A*M` / `M*A` also the live plan) is
/// inside every timed call — one batch in a loop would only ever find it
/// prepared. The `TOC>DEN` row times the alternative the paper argues
/// against: `decode_into_ws`, then the DEN kernel, through the same
/// scratch.
fn fig8() -> Vec<Grid> {
    const OPS: [&str; 5] = ["A*c", "A*v", "A*M", "v*A", "M*A"];
    const ROWS: usize = 250;
    /// Columns of the right operand and rows of the left one, per §5.2.
    const P: usize = 20;
    let mut grid = Grid::new("us", "preset", "scheme", Unit::Micros).by_rows();
    for preset in DatasetPreset::ALL {
        let ds = generate_preset(preset, 2 * ROWS, SEED);
        let halves = [ds.x.slice_rows(0, ROWS), ds.x.slice_rows(ROWS, 2 * ROWS)];
        let cols = ds.x.cols();
        let v: Vec<f64> = (0..cols).map(|i| ((i % 7) as f64) - 3.0).collect();
        let w: Vec<f64> = (0..ROWS).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mr: Vec<f64> = (0..cols * P).map(|i| ((i % 11) as f64) * 0.25).collect();
        let ml: Vec<f64> = (0..ROWS * P)
            .map(|i| ((i % 13) as f64) * 0.5 - 3.0)
            .collect();
        let (mr, ml) = (
            DenseMatrix::from_vec(cols, P, mr),
            DenseMatrix::from_vec(P, ROWS, ml),
        );
        // Caller-owned outputs and one scratch, warm across every call.
        let (mut out_v, mut out_m) = (Vec::new(), DenseMatrix::default());
        let (mut dense, mut ws) = (DenseMatrix::default(), ExecScratch::default());
        let mut run = |batch: &AnyBatch, op: &str, decode_first: bool| {
            if decode_first {
                batch.decode_into_ws(&mut dense, &mut ws);
            }
            match (op, decode_first) {
                ("A*c", false) => {
                    let mut scaled = batch.clone();
                    scaled.scale(1.000001);
                    std::hint::black_box(scaled);
                }
                ("A*v", false) => batch.matvec_into_ws(&v, &mut out_v, &mut ws),
                ("A*M", false) => batch.matmat_into_ws(&mr, &mut out_m, &mut ws),
                ("v*A", false) => batch.vecmat_into_ws(&w, &mut out_v, &mut ws),
                ("M*A", false) => batch.matmat_left_into_ws(&ml, &mut out_m, &mut ws),
                ("A*c", true) => dense.scale(1.000001),
                ("A*v", true) => dense.matvec_into(&v, &mut out_v),
                ("A*M", true) => dense.matmat_into(&mr, &mut out_m),
                ("v*A", true) => dense.vecmat_into(&w, &mut out_v),
                ("M*A", true) => dense.matmat_left_into(&ml, &mut out_m),
                _ => unreachable!(),
            }
            std::hint::black_box((&dense, &out_v, &out_m));
        };
        for scheme in Scheme::PAPER_SET {
            let pair = [scheme.encode(&halves[0]), scheme.encode(&halves[1])];
            for op in OPS {
                let direct = time_alternating(&pair, |b| run(b, op, false));
                grid.push(preset.name(), scheme.name(), op, us(direct));
            }
            if scheme == Scheme::Toc {
                for op in OPS {
                    let decoded = time_alternating(&pair, |b| run(b, op, true));
                    grid.push(preset.name(), "TOC>DEN", op, us(decoded));
                }
            }
        }
    }
    vec![grid]
}

/// Figures 9 and 10: two MGD epochs over 1 000–8 000 imagenet-like rows
/// under one fixed budget, 4 × the TOC footprint at 4 000 rows — the wide
/// formats spill at the large sizes, TOC never does.
fn scaling(schemes: &[Scheme]) -> Vec<Grid> {
    let budget = toc_budget(
        &generate_preset(DatasetPreset::ImagenetLike, 4000, SEED),
        40,
    );
    let mut ms = Grid::new("ms", "workload", "rows", Unit::Millis);
    let mut spilled = Grid::new("spilled", "preset", "rows", Unit::Count);
    for rows in [1000, 2000, 4000, 8000] {
        let ds = generate_preset(DatasetPreset::ImagenetLike, rows, SEED);
        for &scheme in schemes {
            for workload in [Workload::Nn, Workload::Lr] {
                let run = end_to_end(&ds, scheme, workload, budget);
                ms.push(
                    workload.name(),
                    rows,
                    scheme.name(),
                    run.train_time.as_secs_f64() * 1e3,
                );
                if workload == Workload::Nn {
                    spilled.push("imagenet", rows, scheme.name(), run.spilled_batches as f64);
                }
            }
        }
    }
    vec![ms, spilled]
}

/// Figure 11: held-out error against training time on mnist-like, DEN and
/// CSR against TOC with the budget at 2.2 × the TOC footprint.
fn fig11() -> Vec<Grid> {
    const ROWS: usize = 4000;
    // Train and held-out rows come from one generation: they must share
    // its motifs and labelling scorers.
    let full = generate_preset(DatasetPreset::MnistLike, ROWS + ROWS / 5, SEED);
    let split = |start: usize, end: usize| Dataset {
        x: full.x.slice_rows(start, end),
        labels: full.labels[start..end].to_vec(),
        classes: full.classes,
    };
    let (ds, eval) = (split(0, ROWS), split(ROWS, ROWS + ROWS / 5));
    let eval_batch = Scheme::Den.encode(&eval.x);
    let budget = toc_budget(&ds, 22);
    let mut time_s = Grid::new("time_s", "workload", "epoch", Unit::Seconds);
    let mut error = Grid::new("error_pct", "workload", "epoch", Unit::Percent);
    let mut spilled = Grid::new("spilled", "preset", "scheme", Unit::Count);
    for workload in [Workload::Lr, Workload::Nn] {
        for scheme in [Scheme::Den, Scheme::Csr, Scheme::Toc] {
            let store = end_to_end_store(&ds, scheme, budget);
            let trainer = Trainer::new(MgdConfig {
                epochs: 6,
                lr: 0.2,
                record_curve: true,
                ..Default::default()
            });
            let report = trainer.train(
                &workload.spec(ds.classes),
                &store,
                Some((&eval_batch, &eval.labels)),
            );
            for point in &report.curve {
                let (group, col) = (workload.name(), scheme.name());
                time_s.push(group, point.epoch, col, point.elapsed.as_secs_f64());
                error.push(group, point.epoch, col, point.error_rate * 100.0);
            }
            if workload == Workload::Lr {
                let batches = store.spilled_batches() as f64;
                spilled.push("mnist", scheme.name(), "spilled", batches);
                spilled.push("mnist", scheme.name(), "total", store.num_batches() as f64);
            }
        }
    }
    vec![time_s, error, spilled]
}

/// Tables 6 and 7: NN / LR / SVM on two presets at an in-memory scale
/// (unbounded budget) and an out-of-core one (2.2 × the TOC footprint:
/// TOC and Gzip* stay resident, DEN / CSR / CVI / DVI spill).
fn end_to_end_table(presets: [DatasetPreset; 2], small: usize, large: usize) -> Vec<Grid> {
    let mut ms = Grid::new("ms", "scale", "scheme", Unit::Millis).by_rows();
    let mut spilled = Grid::new("spilled", "scale", "scheme", Unit::Count);
    for preset in presets {
        for (scale, rows) in [("small", small), ("large", large)] {
            let ds = generate_preset(preset, rows, SEED);
            let budget = match scale {
                "small" => usize::MAX,
                _ => toc_budget(&ds, 22),
            };
            let group = format!("{} {scale}", preset.name());
            for scheme in END_TO_END_SET {
                for workload in Workload::ALL {
                    let run = end_to_end(&ds, scheme, workload, budget);
                    let millis = run.train_time.as_secs_f64() * 1e3;
                    ms.push(&group, scheme.name(), workload.name(), millis);
                    if workload == Workload::Nn {
                        let batches = run.spilled_batches as f64;
                        spilled.push(&group, scheme.name(), "spilled", batches);
                        spilled.push(&group, scheme.name(), "total", run.total_batches as f64);
                    }
                }
            }
        }
    }
    vec![ms, spilled]
}

/// Figure 12: encode and decode time of one 250-row batch per scheme, and
/// the decode gate: the chunked / table-driven kernels (word-refill
/// BitReader + LUT Huffman in Gzip*, lane-unpacked CVI / DVI) against the
/// scalar reference kernels retained beside them, on every preset's
/// batch. Gzip* inflation of the dense payload is the heaviest leg by
/// design. The entry's `schemes` member continues the `codec_speed`
/// series: MB/s of dense payload and ratio per scheme, aggregated over
/// the presets (weighted by dense bytes) and per preset.
fn fig12() -> Vec<Grid> {
    const SCHEMES: [Scheme; 7] = [
        Scheme::Den,
        Scheme::Csr,
        Scheme::Cvi,
        Scheme::Snappy,
        Scheme::Gzip,
        Scheme::GcAns,
        Scheme::Toc,
    ];
    const ITERS: usize = 20;
    const BATCH: &str = "250 rows";
    let datasets: Vec<(&str, DenseMatrix)> = DatasetPreset::ALL
        .iter()
        .map(|&p| (p.name(), generate_preset(p, 250, SEED).x))
        .collect();
    let mut encode = Grid::new("encode_us", "batch", "dataset", Unit::Micros);
    let mut decode = Grid::new("decode_us", "batch", "dataset", Unit::Micros);
    let mut schemes_json = Vec::new();
    for scheme in SCHEMES {
        let (mut den_total, mut enc_total, mut e_total, mut d_total) = (0, 0, 0.0, 0.0);
        let mut per_dataset = Vec::new();
        for (name, x) in &datasets {
            let e = time_avg(ITERS, || std::hint::black_box(scheme.encode(x)));
            let encoded = scheme.encode(x);
            let d = time_avg(ITERS, || std::hint::black_box(encoded.decode()));
            encode.push(BATCH, name, scheme.name(), us(e));
            decode.push(BATCH, name, scheme.name(), us(d));
            let den = x.den_size_bytes();
            per_dataset.push(format!(
                "          {{\"dataset\": \"{name}\", \"encode_mb_s\": {:.1}, \"decode_mb_s\": {:.1}, \"ratio\": {:.3}}}",
                mb_per_s(den, e),
                mb_per_s(den, d),
                den as f64 / encoded.size_bytes() as f64,
            ));
            den_total += den;
            enc_total += encoded.size_bytes();
            e_total += e.as_secs_f64();
            d_total += d.as_secs_f64();
        }
        schemes_json.push(format!(
            "        {{\"scheme\": \"{}\", \"encode_mb_s\": {:.1}, \"decode_mb_s\": {:.1}, \"ratio\": {:.3}, \"per_dataset\": [\n{}\n        ]}}",
            scheme.name(),
            den_total as f64 / 1e6 / e_total,
            den_total as f64 / 1e6 / d_total,
            den_total as f64 / enc_total as f64,
            per_dataset.join(",\n"),
        ));
    }

    let mut gate = Grid::new("gate", "kernels", "leg", Unit::Plain);
    let (mut scalar_total, mut fast_total) = (0.0, 0.0);
    for (name, x) in &datasets {
        let payload: Vec<u8> = x.data().iter().flat_map(|v| v.to_le_bytes()).collect();
        let deflated = toc_gc::deflate::compress(&payload);
        let mut out = Vec::new();
        let cvi = CviBatch::encode(x);
        let dvi = DviBatch::encode(x);
        let v: Vec<f64> = (0..x.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let (mut m, mut mv, mut ws) = (DenseMatrix::default(), Vec::new(), ExecScratch::default());
        let legs = [
            (
                "gzip*",
                time_avg(ITERS, || {
                    toc_gc::deflate::decompress_into_scalar(&deflated, &mut out).expect("inflate")
                }),
                time_avg(ITERS, || {
                    toc_gc::deflate::decompress_into(&deflated, &mut out).expect("inflate")
                }),
            ),
            (
                "cvi-decode",
                time_avg(ITERS, || cvi.decode_into_scalar(&mut m)),
                time_avg(ITERS, || cvi.decode_into_ws(&mut m, &mut ws)),
            ),
            (
                "cvi-matvec",
                time_avg(ITERS, || cvi.matvec_into_scalar(&v, &mut mv)),
                time_avg(ITERS, || cvi.matvec_into_ws(&v, &mut mv, &mut ws)),
            ),
            (
                "dvi-decode",
                time_avg(ITERS, || dvi.decode_into_scalar(&mut m)),
                time_avg(ITERS, || dvi.decode_into_ws(&mut m, &mut ws)),
            ),
            (
                "dvi-matvec",
                time_avg(ITERS, || dvi.matvec_into_scalar(&v, &mut mv)),
                time_avg(ITERS, || dvi.matvec_into_ws(&v, &mut mv, &mut ws)),
            ),
        ];
        assert_eq!(out, payload, "{name}: deflate fast / scalar disagree");
        for (kind, scalar, fast) in legs {
            let leg = format!("{name}/{kind}");
            gate.push("decode", &leg, "scalar_us", us(scalar));
            gate.push("decode", &leg, "fast_us", us(fast));
            gate.push("decode", &leg, "speedup", us(scalar) / us(fast));
            scalar_total += us(scalar);
            fast_total += us(fast);
        }
    }
    gate.push("decode", "aggregate", "scalar_us", scalar_total);
    gate.push("decode", "aggregate", "fast_us", fast_total);
    gate.push("decode", "aggregate", "speedup", scalar_total / fast_total);

    let schemes = format!("[\n{}\n      ]", schemes_json.join(",\n"));
    vec![encode, decode, Grid::raw("schemes", schemes), gate]
}

/// The store figure's prefetch device: census-like 12 000 rows in DEN
/// batches of 250, every batch spilled over 4 modelled shards of 400 MB/s.
const OVERLAP: &str = "4 x 400 MB/s";

/// The store figure: what prefetch buys when IO is the wall.
/// `matrix`: no prefetch, then the sync and the ring engine at depth 8
/// with 1 / 2 / 4 / 8 decode workers (the ring with one IO thread per
/// shard), each cell the median of five sweeps by 1 and by 4 visitors;
/// `best_vs_none` is no prefetch over each engine's fastest 1-visitor
/// row.
fn store() -> Vec<Grid> {
    let ds = generate_preset(DatasetPreset::CensusLike, 12_000, SEED);
    let base = StoreConfig::new(Scheme::Den, 250, 0)
        .with_shards(4)
        .with_disk_mbps(400.0);
    let sweep_ms = |config: &StoreConfig| {
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, config).expect("store build");
        let medians = [1, 4].map(|visitors| {
            let mut ms: Vec<f64> = (0..5)
                .map(|_| sweep_store(&store, visitors).as_secs_f64() * 1e3)
                .collect();
            ms.sort_by(f64::total_cmp);
            ms[2]
        });
        store.stats().snapshot_stable().assert_consistent();
        medians
    };
    let mut matrix = Grid::new("matrix", "engine", "workers", Unit::Millis);
    let mut best = Grid::new("best_vs_none", "device", "engine", Unit::Plain).by_rows();
    let mut push = |engine: &str, workers: usize, [v1, v4]: [f64; 2]| {
        matrix.push(engine, workers, "sweep_1v_ms", v1);
        matrix.push(engine, workers, "sweep_4v_ms", v4);
        v1
    };
    let none = push("none", 0, sweep_ms(&base));
    for engine in [IoEngineKind::Sync, IoEngineKind::Ring] {
        let fastest = [1, 2, 4, 8]
            .map(|decode_workers| {
                let config = base
                    .clone()
                    .with_prefetch(8)
                    .with_io(engine)
                    .with_scheduler(SchedulerConfig {
                        decode_workers,
                        ..SchedulerConfig::default()
                    });
                push(engine.name(), decode_workers, sweep_ms(&config))
            })
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        best.push(OVERLAP, engine.name(), "best_vs_none", none / fastest);
    }
    vec![matrix, best]
}

/// The tenant figure's fleet: 8 logistic-regression jobs of 3 epochs
/// (seeds 42 + i) over one census-like store of 4 800 rows in DEN
/// batches of 100, every batch spilled over 4 modelled shards of 50 MB/s.
const FLEET: &str = "8 LR jobs";

/// The tenant figure: the fleet through one `JobServer` whose fill-once
/// batch cache holds a quarter of the spilled bytes, admitting 1, 2, 4 or
/// all 8 jobs at once; each fleet gets a fresh store, so every row starts
/// cold.
/// `gate_ratio` is the serial fleet's wall over the 8-concurrent one's,
/// and those two fleets must end with bit-identical weights per job.
fn tenant() -> Vec<Grid> {
    const JOBS: usize = 8;
    const EPOCHS: usize = 3;
    let ds = generate_preset(DatasetPreset::CensusLike, 4800, SEED);
    let config = StoreConfig::new(Scheme::Den, 100, 0)
        .with_shards(4)
        .with_disk_mbps(50.0);
    let build = || ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("store build");
    let cache_bytes = build().spilled_bytes() / 4;
    let mut fleet = Grid::new("fleet", "fleet", "concurrent", Unit::Plain).by_rows();
    let mut runs = Vec::new();
    for max_concurrent in [1, 2, 4, JOBS] {
        let store = Arc::new(build());
        let server = JobServer::new(
            Arc::clone(&store),
            ServeConfig {
                max_concurrent,
                cache_bytes,
            },
        );
        let jobs = (0..JOBS).map(|i| {
            let config = MgdConfig {
                epochs: EPOCHS,
                lr: 0.2,
                seed: 42 + i as u64,
                record_curve: false,
                shuffle_batches: true,
            };
            JobSpec::new(
                format!("j{i}"),
                ModelSpec::Linear(LossKind::Logistic),
                config,
            )
        });
        let t0 = Instant::now();
        let outcomes = server.run(jobs.collect());
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        store.stats().snapshot_stable().assert_consistent();
        let hits: u64 = outcomes.iter().map(|o| o.cache_hits).sum();
        let misses: u64 = outcomes.iter().map(|o| o.cache_misses).sum();
        let row = max_concurrent;
        fleet.push(FLEET, row, "wall_ms", wall_ms);
        fleet.push(
            FLEET,
            row,
            "agg_epochs_s",
            (JOBS * EPOCHS) as f64 * 1e3 / wall_ms,
        );
        let hit_pct = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
        fleet.push(FLEET, row, "cache_hit_pct", hit_pct.round());
        runs.push((wall_ms, outcomes));
    }
    let (serial, concurrent) = (&runs[0], &runs[runs.len() - 1]);
    for (s, c) in serial.1.iter().zip(&concurrent.1) {
        assert!(
            s.weights == c.weights,
            "job {}: serial and concurrent weights differ",
            s.name
        );
    }
    let mut gate = Grid::new("gate_ratio", "fleet", "fleets", Unit::Plain);
    gate.push(
        FLEET,
        "1 / 8 concurrent",
        "gate_ratio",
        serial.0 / concurrent.0,
    );
    vec![fleet, gate]
}

/// The ingest figure's stream: `drifting_matrix` rows of 12 columns with 6
/// distinct values each, auto-selected schemes, 100-row chunks into a live
/// streaming store of 3 shards with every chunk spilled.
const STREAM: &str = "drifting, 12 cols";

/// The ingest figure: `StoreIngest` at 1 500 rows and 4 and 16 times
/// that (`workspace`, whose high-water mark must not grow with the
/// rows); at 24 000 rows with an online trainer following the store
/// (`liveness`; it must consume every sealed chunk); and the 1 500 rows
/// against a consumer that keeps up, with a pending budget of 4 chunks
/// and without (`throughput_ratio`, the best of up to three pairs).
fn ingest() -> Vec<Grid> {
    const COLS: usize = 12;
    const CHUNK: usize = 100;
    const BASE: usize = 1500;
    let live_store = |budget: Option<usize>| {
        let config = StoreConfig::new(Scheme::Toc, CHUNK, 0).with_shards(3);
        let config = match budget {
            Some(n) => config.with_max_pending(n),
            None => config,
        };
        ShardedSpillStore::open_streaming(COLS, &config).expect("open streaming store")
    };
    // Push `rows` of the stream into `store`, then seal; `per_chunk` runs
    // after every full chunk. Returns the stats and the dense MB/s.
    let ingest_into = |store: &ShardedSpillStore, rows: usize, per_chunk: &dyn Fn()| {
        let m = drifting_matrix(rows, COLS, 6, SEED);
        let mut ing = StoreIngest::new(store, CHUNK, None, EncodeOptions::default());
        let t0 = Instant::now();
        for r in 0..rows {
            ing.push_row(m.row(r), (r % 2) as f64).expect("push row");
            if r % CHUNK == CHUNK - 1 {
                per_chunk();
            }
        }
        let stats = ing.finish().expect("finish ingest");
        (stats, mb_per_s(rows * COLS * 8, t0.elapsed()))
    };

    let mut workspace = Grid::new("workspace", "stream", "scale", Unit::Plain);
    for growth in [1, 4, 16] {
        let (stats, mb_s) = ingest_into(&live_store(None), BASE * growth, &|| {});
        let scale = format!("{growth}x");
        workspace.push(STREAM, &scale, "rows", (BASE * growth) as f64);
        workspace.push(STREAM, &scale, "chunks", stats.chunks as f64);
        workspace.push(STREAM, &scale, "encoded_bytes", stats.encoded_bytes as f64);
        let peak = stats.peak_workspace_bytes as f64;
        workspace.push(STREAM, &scale, "peak_workspace_bytes", peak);
        workspace.push(STREAM, &scale, "ingest_mb_s", mb_s);
    }
    let peak = |scale| workspace.get(STREAM, scale, "peak_workspace_bytes");
    let mut peak_ratio = Grid::new("peak_ratio", "stream", "scales", Unit::Plain);
    peak_ratio.push(STREAM, "16x / 1x", "peak_ratio", peak("16x") / peak("1x"));

    // The producer sleeps 0.4 ms per chunk, so the trainer has a stream
    // to follow rather than a store that is complete before it starts.
    let store = live_store(None);
    let trainer = Trainer::new(MgdConfig {
        epochs: 1,
        lr: 0.2,
        ..Default::default()
    });
    let spec = ModelSpec::Linear(LossKind::Logistic);
    let pause = || std::thread::sleep(Duration::from_micros(400));
    let (report, stats) = toc_data::beside(
        || ingest_into(&store, BASE * 16, &pause).0,
        |more| trainer.train_online(&spec, &store, 4, &mut || more()),
    );
    let stats = stats.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    assert_eq!(
        report.consumed as u64, stats.chunks,
        "sealed chunks the trainer missed"
    );
    let mut liveness = Grid::new("liveness", "stream", "trainer", Unit::Count);
    let online = "window of 4";
    liveness.push(STREAM, online, "windows", report.windows.len() as f64);
    liveness.push(
        STREAM,
        online,
        "windows_during_ingest",
        report.windows_during_ingest as f64,
    );
    liveness.push(STREAM, online, "consumed", report.consumed as f64);

    // A consumer that visits every sealed chunk in order as it appears.
    let drained_mb_s = |budget| {
        let store = live_store(budget);
        let visit_all = |more: &dyn Fn() -> bool| {
            let mut next = 0;
            loop {
                // `more` first: once it is false, every chunk is appended.
                let finished = !more();
                if next < store.num_batches() {
                    store.visit(next, &mut |_, _| {});
                    next += 1;
                } else if finished {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
        };
        let (_, mb_s) = toc_data::beside(|| ingest_into(&store, BASE, &|| {}).1, visit_all);
        mb_s.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    };
    let mut ratio: f64 = 0.0;
    for _ in 0..3 {
        let free = drained_mb_s(None);
        ratio = ratio.max(drained_mb_s(Some(4)) / free);
        if ratio >= 0.9 {
            break;
        }
    }
    let mut throughput = Grid::new("throughput_ratio", "stream", "budget", Unit::Plain);
    throughput.push(STREAM, "4 pending", "throughput_ratio", ratio);
    vec![workspace, peak_ratio, liveness, throughput]
}

// ---------------------------------------------------------------------
// The table.

const MODERATE: [&str; 4] = ["census", "imagenet", "mnist", "kdd99"];
const REPEATING: [&str; 5] = ["census", "imagenet", "mnist", "kdd99", "rcv1"];
const PRODUCTS: [&str; 4] = ["A*v", "A*M", "v*A", "M*A"];
const SPARSE: &str = "TOC_SPARSE";
const LOGICAL: &str = "TOC_SPARSE_AND_LOGICAL";
const LARGE6: [&str; 2] = ["imagenet large", "mnist large"];
const SMALL6: [&str; 2] = ["imagenet small", "mnist small"];
const LARGE7: [&str; 2] = ["census large", "kdd99 large"];
const SOME: f64 = f64::INFINITY;

/// Every figure and table of the paper's evaluation, in its order. In a
/// check, an empty list of groups, points or lines means all of them.
pub fn figures() -> Vec<Figure> {
    vec![
        Figure {
            id: "fig2",
            title: "Fig 2 — BGD vs SGD vs MGD: accuracy per epoch, one-hidden-layer NN on mnist-like",
            measure: fig2,
            headline: &[("accuracy", "mnist", "12", &["MGD-250", "MGD-50%", "BGD", "SGD"])],
            shapes: vec![
                on("accuracy", "MGD with a few hundred rows converges in the fewest epochs: MGD-250 is ahead of every other variant after each of the first three epochs and ends highest")
                    .beats(&[], &["1", "2", "3", "12"], "MGD-250", &[], 1.0),
                on("accuracy", "MGD is stabler than SGD: SGD ends below where it stood after three epochs, MGD-250 10 % above")
                    .beats(&[], &["SGD"], "3", &["12"], 1.0)
                    .across()
                    .beats(&[], &["MGD-250"], "12", &["3"], 1.1)
                    .across(),
                on("accuracy", "BGD converges slowest per epoch: every MGD variant is above it after the last epoch")
                    .beats(&[], &["12"], "MGD-250", &["BGD"], 1.0)
                    .beats(&[], &["12"], "MGD-20%", &["BGD"], 1.0)
                    .beats(&[], &["12"], "MGD-50%", &["BGD"], 1.0)
                    .beats(&[], &["12"], "MGD-80%", &["BGD"], 1.0),
            ],
        },
        Figure {
            id: "fig5",
            title: "Fig 5 — compression ratios of the eight schemes on 50–250-row mini-batches",
            measure: || vec![small_batch_ratios(&Scheme::PAPER_SET)],
            headline: &[
                ("ratio", "census", "250", &["TOC", "Gzip*", "CLA"]),
                ("ratio", "imagenet", "250", &["TOC", "Gzip*", "CLA"]),
            ],
            shapes: vec![
                on("ratio", "TOC beats every light-weight scheme and Snappy* on census, imagenet and kdd99 at every batch size")
                    .beats(&["census", "imagenet", "kdd99"], &[], "TOC", &["DEN", "CSR", "CVI", "DVI", "CLA", "Snappy*"], 1.0),
                on("ratio", "TOC is best on imagenet: it also beats Gzip* at 250 rows")
                    .beats(&["imagenet"], &["250"], "TOC", &["Gzip*"], 1.0),
                on("ratio", "TOC is best on census and kdd99: it also beats Gzip* at 250 rows")
                    .beats(&["census", "kdd99"], &["250"], "TOC", &["Gzip*"], 1.0)
                    .deviates("Gzip* beats TOC on census- and kdd99-like at <= 250 rows and is overtaken from 20 % batches (Fig 7): these presets draw rows from a small pool of categorical values, so LZ77 + Huffman codes a repeated run in a few bits, while a 250-row prefix tree has not yet amortised its first-layer nodes"),
                on("ratio", "Gzip* is best on mnist at 250 rows")
                    .beats(&["mnist"], &["250"], "Gzip*", &[], 1.0),
                on("ratio", "CSR and TOC are within 20 % of each other on rcv1, 5 x above DEN, DVI, CLA and Snappy*")
                    .beats(&["rcv1"], &["250"], "TOC", &["CSR"], 0.8)
                    .beats(&["rcv1"], &["250"], "TOC", &["DEN", "DVI", "CLA", "Snappy*"], 5.0),
                on("ratio", "nobody compresses deep1b: no ratio above 1.1")
                    .within(&["deep1b"], &[], &[], 0.0, 1.1),
            ],
        },
        Figure {
            id: "fig6",
            title: "Fig 6 — ablation of TOC's encoding components: ratios on 50–250-row mini-batches",
            measure: fig6,
            headline: &[("ratio", "kdd99", "250", &[SPARSE, LOGICAL, "TOC"])],
            shapes: vec![
                on("ratio", "each added component improves the ratio on the moderate-sparsity presets, at every batch size")
                    .beats(&MODERATE, &[], LOGICAL, &[SPARSE], 1.0)
                    .beats(&MODERATE, &[], "TOC", &[LOGICAL], 1.0),
                on("ratio", "each added component improves the ratio on rcv1 and deep1b too")
                    .beats(&["rcv1", "deep1b"], &["250"], LOGICAL, &[SPARSE], 1.0)
                    .deviates("on rcv1-like (one non-zero per thousand cells) and deep1b-like (no repeated value) the logical step lowers the ratio (421 -> 320 and 0.7 -> 0.5 at 250 rows): there is no repeated pair sequence for the prefix tree to share, so its per-node fields cost more than the pairs they replace; physical encoding wins part of it back"),
                on("ratio", "the logical step's gain at 250 rows is large on kdd99 and census (over 6 x), small on mnist (under 6 x)")
                    .beats(&["kdd99", "census"], &["250"], LOGICAL, &[SPARSE], 6.0)
                    .beats(&["mnist"], &["250"], SPARSE, &[LOGICAL], 1.0 / 6.0),
            ],
        },
        Figure {
            id: "fig7",
            title: "Fig 7 — compression ratios as the batch grows to 100 % of 4 000 rows",
            measure: fig7,
            headline: &[
                ("ratio", "census", "100%", &["TOC", "Gzip*", "CLA"]),
                ("ratio", "census", "5%", &["TOC", "Gzip*", "CLA"]),
            ],
            shapes: vec![
                on("ratio", "TOC overtakes everything at 100 % on the moderate-sparsity presets")
                    .beats(&[], &["100%"], "TOC", &[], 1.0),
                on("ratio", "TOC becomes more competitive as batches grow: from 5 % to 100 % its ratio grows at least 1.8 x on every preset, Gzip*'s less than 1.4 x")
                    .beats(&[], &["TOC"], "100%", &["5%"], 1.8)
                    .across()
                    .beats(&[], &["Gzip*"], "5%", &["100%"], 1.0 / 1.4)
                    .across(),
                on("ratio", "TOC is ahead of Gzip* on census and kdd99 from 20 % batches up (the other half of Fig 5's deviation)")
                    .beats(&["census", "kdd99"], &["20%", "40%", "80%", "100%"], "TOC", &["Gzip*"], 1.0),
            ],
        },
        Figure {
            id: "fig8",
            title: "Fig 8 — matrix-operation runtimes on compressed 250-row batches (p = 20)",
            measure: fig8,
            headline: &[
                ("us", "census", "A*M", &["TOC", "TOC>DEN", "CSR", "CLA"]),
                ("us", "mnist", "A*M", &["TOC", "TOC>DEN", "CSR"]),
            ],
            shapes: vec![
                on("us", "value-indexed schemes make A*c nearly free: DVI, CVI and TOC at least 3 x cheaper than DEN on the moderate-sparsity presets")
                    .beats(&MODERATE, &["A*c"], "DVI", &["DEN"], 3.0)
                    .beats(&MODERATE, &["A*c"], "CVI", &["DEN"], 3.0)
                    .beats(&MODERATE, &["A*c"], "TOC", &["DEN"], 3.0),
                on("us", "the GC schemes decompress for every operation: Snappy* and Gzip* are slower than DEN on all five ops, at least 3 x on A*v, on the moderate-sparsity presets")
                    .beats(&MODERATE, &[], "DEN", &["Snappy*", "Gzip*"], 1.0)
                    .beats(&MODERATE, &["A*v"], "DEN", &["Snappy*", "Gzip*"], 3.0),
                on("us", "executing on TOC beats decode + DEN wherever there is repetition: every product op on every preset but deep1b")
                    .beats(&REPEATING, &PRODUCTS, "TOC", &["TOC>DEN"], 1.0),
                on("us", "CSR wins on rcv1 and DEN on deep1b: each is faster than TOC on every product op there")
                    .beats(&["rcv1"], &PRODUCTS, "CSR", &["TOC"], 1.0)
                    .beats(&["deep1b"], &PRODUCTS, "DEN", &["TOC"], 1.0),
                on("us", "TOC is the fastest scheme on A*M and M*A on census and kdd99")
                    .beats(&["census", "kdd99"], &["A*M", "M*A"], "TOC", &[], 1.0)
                    .deviates("CLA beats TOC on census- and kdd99-like A*M / M*A (and CSR / CVI tie it on census A*M): CLA co-codes these presets' few categorical columns into a handful of groups whose dictionaries hold tens of tuples, so its kernels touch less than TOC's tree, which is rebuilt for every batch a kernel meets first; TOC does beat DEN, CSR, CVI and DVI on M*A there"),
                on("us", "TOC is at least as fast as CSR on the product ops on imagenet and mnist")
                    .beats(&["imagenet", "mnist"], &PRODUCTS, "TOC", &["CSR"], 1.0)
                    .deviates("CSR beats TOC on every mnist-like kernel (and most imagenet-like ones) at p = 20 because these presets have weak sequence repetition: the prefix tree of a 250-row batch has nearly as many nodes as the batch has non-zeros, so TOC does CSR's work plus the tree build"),
            ],
        },
        Figure {
            id: "fig9",
            title: "Fig 9 — MGD runtime against dataset size under a fixed memory budget (imagenet-like)",
            measure: || scaling(&END_TO_END_SET),
            headline: &[
                ("ms", "NN", "8000", &["TOC", "CVI", "Gzip*", "DEN"]),
                ("ms", "LR", "8000", &["TOC", "DVI", "Gzip*", "DEN"]),
            ],
            shapes: vec![
                on("spilled", "TOC bends last: it never spills within the sweep while DEN spills at every size")
                    .within(&[], &[], &["TOC"], 0.0, 0.0)
                    .within(&[], &[], &["DEN"], 1.0, SOME),
                on("ms", "once a scheme's footprint crosses the budget its curve bends up sharply: the doubling at which CSR (to 2 000 rows), CVI (to 4 000) and DVI (to 8 000) first spill costs LR more than 3 x")
                    .beats(&["LR"], &["CSR"], "1000", &["2000"], 3.0)
                    .across()
                    .beats(&["LR"], &["CVI"], "2000", &["4000"], 3.0)
                    .across()
                    .beats(&["LR"], &["DVI"], "4000", &["8000"], 3.0)
                    .across(),
                on("ms", "all schemes track each other while resident: at 1 000 rows TOC is within 5 x of CSR, CVI and DVI")
                    .beats(&[], &["1000"], "TOC", &["CSR", "CVI", "DVI"], 0.2),
                on("ms", "at 8 000 rows TOC is at least 1.5 x faster than every other scheme, NN and LR")
                    .beats(&[], &["8000"], "TOC", &[], 1.5),
            ],
        },
        Figure {
            id: "fig10",
            title: "Fig 10 — ablation of TOC's components in the end-to-end MGD loop (imagenet-like, Fig 9's budget)",
            measure: || scaling(&[Scheme::Den, Scheme::TocSparse, Scheme::TocSparseLogical, Scheme::Toc]),
            headline: &[("ms", "NN", "8000", &["DEN", SPARSE, LOGICAL, "TOC"])],
            shapes: vec![
                on("spilled", "each encoding component shifts the spill point further right: DEN spills from 1 000 rows, TOC_SPARSE from 2 000, TOC_SPARSE_AND_LOGICAL only at 8 000, TOC never")
                    .within(&[], &[], &["DEN"], 1.0, SOME)
                    .within(&[], &["1000"], &[SPARSE], 0.0, 0.0)
                    .within(&[], &["2000", "4000", "8000"], &[SPARSE], 1.0, SOME)
                    .within(&[], &["1000", "2000", "4000"], &[LOGICAL], 0.0, 0.0)
                    .within(&[], &["8000"], &[LOGICAL], 1.0, SOME)
                    .within(&[], &[], &["TOC"], 0.0, 0.0),
                on("ms", "each encoding component lowers the runtime at scale (8 000 rows, NN and LR)")
                    .beats(&[], &["8000"], SPARSE, &["DEN"], 1.0)
                    .beats(&[], &["8000"], LOGICAL, &[SPARSE], 1.0)
                    .beats(&[], &["8000"], "TOC", &[LOGICAL], 1.0),
            ],
        },
        Figure {
            id: "fig11",
            title: "Fig 11 — held-out error against training time with the budget binding (mnist-like)",
            measure: fig11,
            headline: &[
                ("time_s", "NN", "6", &["TOC", "CSR", "DEN"]),
                ("error_pct", "NN", "6", &["TOC", "CSR", "DEN"]),
            ],
            shapes: vec![
                on("spilled", "the budget binds: TOC's batches stay in memory while DEN and CSR spill")
                    .within(&[], &["TOC"], &["spilled"], 0.0, 0.0)
                    .within(&[], &["DEN", "CSR"], &["spilled"], 1.0, SOME),
                on("time_s", "the TOC curve reaches any given error level first: every epoch (the same model state on every scheme) ends earlier than on CSR and DEN")
                    .beats(&[], &[], "TOC", &["CSR", "DEN"], 1.0),
            ],
        },
        Figure {
            id: "fig12",
            title: "Fig 12 — compression and decompression time of a 250-row batch; decode-kernel gate",
            measure: fig12,
            headline: &[
                ("encode_us", "250 rows", "census", &["TOC", "Snappy*", "Gzip*"]),
                ("decode_us", "250 rows", "census", &["TOC", "Snappy*", "Gzip*"]),
                ("gate", "decode", "aggregate", &["speedup"]),
            ],
            shapes: vec![
                on("encode_us", "TOC compresses faster than Gzip* on every preset")
                    .beats(&[], &[], "TOC", &["Gzip*"], 1.0),
                on("encode_us", "TOC compresses slower than Snappy* on every preset")
                    .beats(&[], &[], "Snappy*", &["TOC"], 1.0)
                    .deviates("TOC encodes faster than Snappy* on four of six presets and ties it on mnist-like since PR 18 keyed Algorithm 1 by pair id: one hash probe per non-zero pair is less work than Snappy*'s match search over the 8-byte doubles, even now that PR 24 extends Snappy*'s matches a word at a time (census-like TOC 99 us vs Snappy* 231-240 -> 161-217 us, rcv1-like 0.9 vs 7.6 -> 2.2 ms, mnist-like 1.0 vs 1.9 -> 1.0-1.1 ms); deep1b-like, where nothing repeats, is the one preset Snappy* still wins"),
                on("decode_us", "TOC decompresses faster than Snappy* on every preset with repetition (all but deep1b, which Snappy* stores as literals)")
                    .beats(&[], &REPEATING, "TOC", &["Snappy*"], 1.0),
                on("decode_us", "TOC decompresses faster than Gzip* on imagenet, mnist, rcv1 and deep1b")
                    .beats(&[], &["imagenet", "mnist", "rcv1", "deep1b"], "TOC", &["Gzip*"], 1.0),
                on("decode_us", "TOC decompresses faster than Gzip* on census and kdd99")
                    .beats(&[], &["census", "kdd99"], "TOC", &["Gzip*"], 1.0)
                    .deviates("Gzip* and TOC decode census- and kdd99-like batches at parity, either side ahead by less than 1.5 x from run to run (Gzip* 49 vs TOC 67 us and 24 vs 26 us at PR 20): such a batch deflates 40-60 x, so the LUT-Huffman inflate reads ~3 KB and mostly copies matches, while TOC walks its tree value by value"),
                on("gate", "decode gate: the chunked / table-driven kernels reach >= 2.0 x the aggregate throughput of the scalar reference kernels")
                    .within(&[], &["aggregate"], &["speedup"], 2.0, SOME),
            ],
        },
        Figure {
            id: "table6",
            title: "Table 6 — end-to-end MGD runtimes, imagenet- and mnist-like, in memory (1 500 rows) and out of core (6 000)",
            measure: || end_to_end_table([DatasetPreset::ImagenetLike, DatasetPreset::MnistLike], 1500, 6000),
            headline: &[
                ("ms", "imagenet large", "LR", &["TOC", "Gzip*", "DEN"]),
                ("spilled", "imagenet large", "DEN", &["spilled", "total"]),
            ],
            shapes: vec![
                on("ms", "large scale: TOC is clearly fastest (by 1.3 x) on NN on both presets and on LR / SVM on imagenet")
                    .beats(&LARGE6, &["NN"], "TOC", &[], 1.3)
                    .beats(&["imagenet large"], &["LR", "SVM"], "TOC", &[], 1.3),
                on("ms", "large scale: TOC is fastest on LR / SVM on mnist too")
                    .beats(&["mnist large"], &["LR", "SVM"], "TOC", &[], 1.0)
                    .deviates("CVI, with 9 of 24 batches spilled, runs level with resident TOC on mnist-like one-vs-rest LR / SVM, either side ahead by less than 1.2 x from run to run (CVI 84 vs TOC 90 ms at PR 20): ten classes mean ten A*v + ten v*A per batch, and on this preset's weak sequence repetition CVI's kernels are 7 x cheaper than TOC's (Fig 8), which pays for most of its 150 MB/s reads"),
                on("ms", "large scale: DEN is the slowest of DEN, CSR, CVI, DVI and TOC on every workload")
                    .beats(&LARGE6, &[], "CSR", &["DEN"], 1.0)
                    .beats(&LARGE6, &[], "CVI", &["DEN"], 1.0)
                    .beats(&LARGE6, &[], "DVI", &["DEN"], 1.0)
                    .beats(&LARGE6, &[], "TOC", &["DEN"], 1.0),
                on("spilled", "large scale: Gzip*, like TOC, stays resident")
                    .within(&LARGE6, &["Gzip*", "TOC"], &["spilled"], 0.0, 0.0),
                on("ms", "large scale: resident Gzip* is still slower than TOC on every workload (decompression per batch)")
                    .beats(&LARGE6, &[], "TOC", &["Gzip*"], 1.0),
                on("ms", "small scale: TOC is among the fastest on NN (within 1.25 x of the best scheme)")
                    .beats(&SMALL6, &["NN"], "TOC", &[], 0.8),
                on("ms", "small scale: TOC is among the fastest on LR and SVM too (within 1.25 x)")
                    .beats(&SMALL6, &["LR", "SVM"], "TOC", &[], 0.8)
                    .deviates("at the in-memory scale CSR and CVI beat TOC on LR / SVM by 2-4 x: these are one A*v and one v*A per batch and class, where CSR's and CVI's kernels are 3-8 x cheaper than TOC's (Fig 8: TOC rebuilds C' for each batch it meets); TOC's advantage is the bytes it does not read, and at this scale nothing is read"),
            ],
        },
        Figure {
            id: "table7",
            title: "Table 7 — end-to-end MGD runtimes, census- and kdd99-like, in memory (2 000 rows) and out of core (10 000)",
            measure: || end_to_end_table([DatasetPreset::CensusLike, DatasetPreset::Kdd99Like], 2000, 10_000),
            headline: &[
                ("ms", "census large", "LR", &["TOC", "Gzip*", "DEN"]),
                ("spilled", "census large", "DEN", &["spilled", "total"]),
            ],
            shapes: vec![
                on("ms", "out-of-core scale: TOC is the fastest scheme on every workload on both presets")
                    .beats(&LARGE7, &[], "TOC", &[], 1.0),
                on("ms", "out-of-core scale: TOC's LR / SVM speedup over DEN is of the paper's order (it reports up to 17.8 x / 18.3 x on kdd99): at least 10 x on both presets")
                    .beats(&LARGE7, &["LR", "SVM"], "TOC", &["DEN"], 10.0),
                on("spilled", "out-of-core scale: TOC and Gzip* stay resident, DEN spills at least nine batches in ten")
                    .within(&LARGE7, &["TOC", "Gzip*"], &["spilled"], 0.0, 0.0)
                    .beats(&LARGE7, &["DEN"], "total", &["spilled"], 0.9),
            ],
        },
        Figure {
            id: "store",
            title: "Store — prefetch overlap with every batch spilled to modelled devices (census-like, DEN)",
            measure: store,
            headline: &[
                ("best_vs_none", OVERLAP, "best_vs_none", &["sync", "ring"]),
            ],
            shapes: vec![
                on("best_vs_none", "prefetch overlaps reads with decode: the best row of each engine sweeps the spilled store >= 1.3 x faster than no prefetch")
                    .within(&[], &[], &[], 1.3, SOME),
            ],
        },
        Figure {
            id: "tenant",
            title: "Tenant — 8 training jobs sharing one spilled store and batch cache, concurrent against serial",
            measure: tenant,
            headline: &[
                ("fleet", FLEET, "wall_ms", &["1", "8"]),
                ("gate_ratio", FLEET, "1 / 8 concurrent", &["gate_ratio"]),
            ],
            shapes: vec![
                on("gate_ratio", "compress once, serve many: 8 concurrent jobs finish >= 2 x faster than the same jobs one at a time, with bit-identical weights")
                    .within(&[], &[], &["gate_ratio"], 2.0, SOME),
            ],
        },
        Figure {
            id: "ingest",
            title: "Ingest — streaming encode into a live store: flat workspace, online training alongside, bounded pending chunks",
            measure: ingest,
            headline: &[
                ("peak_ratio", STREAM, "16x / 1x", &["peak_ratio"]),
                ("liveness", STREAM, "window of 4", &["windows_during_ingest", "windows"]),
                ("throughput_ratio", STREAM, "4 pending", &["throughput_ratio"]),
            ],
            shapes: vec![
                on("peak_ratio", "encoder memory is set by the chunk, not the stream: the workspace peak at 16 x the rows is <= 1.1 x the peak at 1 x")
                    .within(&[], &[], &["peak_ratio"], 0.0, 1.1),
                on("liveness", "training follows ingest live: at least one prequential window closes while rows are still arriving")
                    .within(&[], &[], &["windows_during_ingest"], 1.0, SOME),
                on("throughput_ratio", "a pending-chunk budget costs a consumer that keeps up under 10 %: bounded / unbounded MB/s >= 0.9 (best of three pairs)")
                    .within(&[], &[], &["throughput_ratio"], 0.9, SOME),
            ],
        },
    ]
}
