//! Cross-crate integration tests: the full pipeline from synthetic data
//! through compression, the out-of-core store, and MGD training.

use toc_repro::data::store::StoreConfig;
use toc_repro::data::synth::{generate_preset, DatasetPreset};
use toc_repro::formats::MatrixBatch;
use toc_repro::ml::mgd::{BatchProvider, ModelSpec};
use toc_repro::prelude::*;

/// Training with any encoding must produce the same model as training with
/// DEN: compression is lossless and the kernels are exact (up to fp
/// reassociation).
#[test]
fn training_parity_across_all_schemes_through_the_store() {
    let ds = generate_preset(DatasetPreset::CensusLike, 800, 3);
    let reference = train_weights(&ds, Scheme::Den, usize::MAX);
    for scheme in [
        Scheme::Csr,
        Scheme::Cvi,
        Scheme::Dvi,
        Scheme::Cla,
        Scheme::Snappy,
        Scheme::Gzip,
        Scheme::Toc,
        Scheme::TocVarint,
    ] {
        let got = train_weights(&ds, scheme, usize::MAX);
        let max_diff = reference
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff < 1e-8,
            "{}: max weight diff {max_diff}",
            scheme.name()
        );
    }
}

/// Spilling to disk must not change the trained model at all: the bytes
/// read back are identical to the bytes written, whichever path reads
/// them — the visitor itself, the prefetch pipeline over either engine,
/// or the pipeline over the fault-injecting engine double.
#[test]
fn spilled_training_is_bit_identical_to_resident_training() {
    use toc_repro::data::{FaultPlan, IoEngineKind};
    let ds = generate_preset(DatasetPreset::Kdd99Like, 1000, 9);
    let resident = train_weights(&ds, Scheme::Toc, usize::MAX);
    let spilled = || StoreConfig::new(Scheme::Toc, 100, 0).with_shards(2);
    let read_paths = [
        ("no prefetch", spilled()),
        ("sync", spilled().with_prefetch(3)),
        (
            "ring",
            spilled().with_prefetch(3).with_io(IoEngineKind::Ring),
        ),
        (
            "faulty",
            spilled()
                .with_prefetch(3)
                .with_fault_plan(FaultPlan::seeded(9)),
        ),
    ];
    for (path, config) in read_paths {
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("store");
        assert_eq!(store.spilled_batches(), 10, "{path}");
        assert_eq!(weights(&store), resident, "{path}");
        store.stats().snapshot_stable().assert_consistent();
    }
}

fn train_weights(ds: &toc_repro::data::synth::Dataset, scheme: Scheme, budget: usize) -> Vec<f64> {
    let store = ShardedSpillStore::build(&ds.x, &ds.labels, &StoreConfig::new(scheme, 100, budget))
        .expect("store");
    weights(&store)
}

/// Final weights of 3 epochs of logistic regression over `provider`.
fn weights(provider: &dyn BatchProvider) -> Vec<f64> {
    let trainer = Trainer::new(MgdConfig {
        epochs: 3,
        lr: 0.1,
        ..Default::default()
    });
    trainer
        .train(&ModelSpec::Linear(LossKind::Logistic), provider, None)
        .model
        .weights()
}

/// The streaming path shares the store's one entry table: rows ingested
/// chunk by chunk into a live store train to exactly the weights of a
/// store built in one shot, and a tenant view over the appended segments
/// serves every batch.
#[test]
fn streamed_store_trains_bit_identically_to_built_store() {
    use std::sync::Arc;
    use toc_repro::data::{BatchCache, StoreIngest, TenantProvider};
    let ds = generate_preset(DatasetPreset::CensusLike, 450, 11);
    let config = StoreConfig::new(Scheme::Toc, 100, usize::MAX).with_shards(2);
    let built = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("store");

    let live = Arc::new(ShardedSpillStore::open_streaming(ds.x.cols(), &config).expect("store"));
    let mut ingest = StoreIngest::new(&live, 100, Some(Scheme::Toc), Default::default());
    for r in 0..ds.x.rows() {
        ingest.push_row(ds.x.row(r), ds.labels[r]).expect("append");
    }
    assert_eq!(ingest.finish().expect("seal").chunks, 5);
    assert_eq!(live.num_batches(), built.num_batches());
    assert_eq!(weights(&*live), weights(&built));

    let tenant = TenantProvider::new(Arc::clone(&live), Arc::new(BatchCache::new(1 << 20)), 1.0);
    assert_eq!(weights(&tenant), weights(&built));
    assert_eq!(tenant.cache_misses(), 5);
}

/// The crash-safety guarantees, end to end: a checkpointing CSV ingest
/// killed mid-file and resumed writes the bytes of an uninterrupted run,
/// and a spill store streamed off that container trains bit for bit like
/// the in-memory store over the same rows.
#[test]
fn killed_and_resumed_ingest_trains_bit_identically_to_in_memory() {
    use toc_repro::data::ingest::{ingest_csv_container_killable, KillPoint};
    use toc_repro::data::{ingest_csv_container, sidecar_path, CsvContainerJob};

    let ds = generate_preset(DatasetPreset::CensusLike, 450, 13);
    let dir = std::env::temp_dir().join(format!("toc-it-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = write_csv(&dir, &ds);
    let job = |out: &str| CsvContainerJob {
        csv: csv.clone(),
        out: dir.join(out),
        chunk_rows: 64,
        scheme: None,
        encode: Default::default(),
        checkpoint_every: 2,
    };
    let (full, killed) = (job("full.tocz"), job("killed.tocz"));
    ingest_csv_container(&full, false).expect("uninterrupted ingest");
    let kill = KillPoint::AfterSealedChunk { chunks: 3 };
    let outcome = ingest_csv_container_killable(&killed, false, Some(kill)).expect("killed ingest");
    assert!(outcome.killed.is_some(), "kill point did not fire");
    let resumed = ingest_csv_container(&killed, true).expect("resume");
    // Killed after chunk 3, last checkpoint at chunk 2.
    assert_eq!(resumed.resumed_chunks, 2);
    assert_eq!(
        std::fs::read(&killed.out).unwrap(),
        std::fs::read(&full.out).unwrap(),
        "resumed container differs from the uninterrupted one"
    );
    assert!(!sidecar_path(&killed.out).exists(), "sidecar survived");

    let spilled = StoreConfig::new(Scheme::Toc, 100, 0).with_shards(2);
    let from_container =
        ShardedSpillStore::build_from_container(&killed.out, &spilled).expect("container store");
    assert_eq!(
        weights(&from_container),
        train_weights(&ds, Scheme::Toc, usize::MAX)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One way in: a CSV on disk streamed row by row through `StoreBuilder`
/// is the store `build` makes of the same file read whole — and both are
/// the plain statement of it, `encode_with` on every `batch_rows` slice —
/// batch for batch in bytes and labels, so LR trains to the same bits,
/// spilled or resident, with a last batch that is not full.
#[test]
fn csv_streamed_store_is_the_built_store_batch_for_batch() {
    use toc_repro::data::csv::{read_all, stream_rows};
    use toc_repro::data::store::{split_label, StoreBuilder};

    let dir = std::env::temp_dir().join(format!("toc-it-one-way-in-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = write_csv(&dir, &generate_preset(DatasetPreset::CensusLike, 430, 17));
    let (rows, cols, data, _) = read_all(&csv).expect("parse csv");
    let full = DenseMatrix::from_vec(rows, cols, data);
    let mut x = DenseMatrix::zeros(rows, cols - 1);
    let mut y = Vec::new();
    for r in 0..rows {
        let (label, features) = full.row(r).split_last().unwrap();
        x.row_mut(r).copy_from_slice(features);
        y.push(if *label >= 0.0 { 1.0 } else { -1.0 });
    }

    let batches = |store: &ShardedSpillStore| {
        let mut out = Vec::new();
        for i in 0..store.num_batches() {
            store.visit(i, &mut |b, labels| {
                out.push((b.to_bytes(), labels.to_vec()))
            });
        }
        out
    };
    let batch_rows = 100;
    let by_definition: Vec<_> = (0..rows)
        .step_by(batch_rows)
        .map(|start| {
            let end = (start + batch_rows).min(rows);
            let batch = Scheme::Toc.encode(&x.slice_rows(start, end));
            (batch.to_bytes(), y[start..end].to_vec())
        })
        .collect();
    assert_eq!(by_definition.len(), 5);

    for budget in [0, usize::MAX] {
        let config = StoreConfig::new(Scheme::Toc, batch_rows, budget).with_shards(2);
        let built = ShardedSpillStore::build(&x, &y, &config).expect("built store");
        let mut builder = None;
        stream_rows(&csv, &mut |_, row| {
            let (features, label) = split_label(row);
            builder
                .get_or_insert_with(|| StoreBuilder::new(features.len(), &config))
                .push_row(features, label)
                .map_err(|e| e.to_string())
        })
        .expect("stream csv");
        let streamed = builder.expect("rows").finish().expect("streamed store");

        let spilled = if budget == 0 { 5 } else { 0 };
        assert_eq!(streamed.spilled_batches(), spilled);
        assert_eq!(built.spilled_batches(), spilled);
        assert!(batches(&built) == by_definition, "budget {budget}: built");
        assert!(
            batches(&streamed) == by_definition,
            "budget {budget}: streamed"
        );
        assert_eq!(weights(&streamed), weights(&built), "budget {budget}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `dir/rows.csv`: features then the label, one row per line.
fn write_csv(dir: &std::path::Path, ds: &toc_repro::data::synth::Dataset) -> std::path::PathBuf {
    use std::fmt::Write as _;
    let mut text = String::new();
    for r in 0..ds.x.rows() {
        for v in ds.x.row(r) {
            write!(text, "{v},").unwrap();
        }
        writeln!(text, "{}", ds.labels[r]).unwrap();
    }
    let csv = dir.join("rows.csv");
    std::fs::write(&csv, text).expect("write csv");
    csv
}

/// Auto-scheme ingest is its definition applied chunk by chunk: the file
/// `ingest_csv_container` writes is the container assembled from the
/// argmin of `Scheme::estimate_encoded_size` (first smallest wins —
/// what `pick_scheme` must return) + `encode_with` on each chunk of the
/// parsed CSV. Selection may find that argmin with less work; if it ever
/// finds a different one, or hands over different bytes, this fails.
#[test]
fn auto_ingest_is_argmin_estimate_plus_encode_chunk_by_chunk() {
    use toc_repro::data::{csv::read_all, ingest_csv_container, CsvContainerJob};
    use toc_repro::formats::container::{ContainerStreamWriter, ZoneMap};
    use toc_repro::formats::{pick_scheme, EncodeOptions};

    let opts = EncodeOptions::default();
    let chunk_rows = 120;
    for preset in [DatasetPreset::CensusLike, DatasetPreset::Kdd99Like] {
        let dir = std::env::temp_dir().join(format!(
            "toc-it-select-{}-{}",
            preset.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = write_csv(&dir, &generate_preset(preset, 400, 29));
        let job = CsvContainerJob {
            csv: csv.clone(),
            out: dir.join("auto.tocz"),
            chunk_rows,
            scheme: None,
            encode: opts,
            checkpoint_every: 0,
        };
        ingest_csv_container(&job, false).expect("auto ingest");

        let (rows, cols, data, _) = read_all(&csv).expect("parse csv");
        let m = DenseMatrix::from_vec(rows, cols, data);
        let mut by_definition = Vec::new();
        let mut writer = ContainerStreamWriter::new(&mut by_definition).expect("header");
        let mut picks = Vec::new();
        for start in (0..rows).step_by(chunk_rows) {
            let chunk = m.slice_rows(start, (start + chunk_rows).min(rows));
            let zone = ZoneMap::compute(&chunk, opts.cla.sample_rows);
            let scheme = Scheme::AUTO_SET
                .into_iter()
                .min_by_key(|s| s.estimate_encoded_size(&chunk, &opts))
                .unwrap();
            assert_eq!(pick_scheme(&chunk, &Scheme::AUTO_SET, &opts), scheme);
            writer
                .append(&scheme.encode_with(&chunk, &opts), zone)
                .expect("append");
            picks.push(scheme.name());
        }
        writer.finish().expect("footer");
        assert!(
            std::fs::read(&job.out).expect("read container") == by_definition,
            "{}: ingested container differs from argmin-estimate + encode_with (picks {picks:?})",
            preset.name()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Forced-TOC ingest against the plainest statement of it: every cell of
/// the CSV through `str::parse`, the rows cut into chunks and each chunk
/// encoded by `Container::encode_with`. The byte scanner's fast number
/// path and the pair-id encoder both sit under `ingest_csv_container`;
/// neither may change a byte of the file.
#[test]
fn toc_ingest_is_plain_parse_plus_encode_chunk_by_chunk() {
    use toc_repro::data::{ingest_csv_container, CsvContainerJob};
    use toc_repro::formats::container::Container;
    use toc_repro::formats::EncodeOptions;

    let dir = std::env::temp_dir().join(format!("toc-it-toc-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = write_csv(&dir, &generate_preset(DatasetPreset::CensusLike, 700, 31));
    let opts = EncodeOptions::default();
    let chunk_rows = 250;
    let job = CsvContainerJob {
        csv: csv.clone(),
        out: dir.join("toc.tocz"),
        chunk_rows,
        scheme: Some(Scheme::Toc),
        encode: opts,
        checkpoint_every: 0,
    };
    let done = ingest_csv_container(&job, false).expect("toc ingest");
    assert_eq!(done.stats.chunks, 3);

    let text = std::fs::read_to_string(&csv).expect("read csv");
    let rows: Vec<Vec<f64>> = text
        .lines()
        .map(|l| l.split(',').map(|c| c.parse().expect("number")).collect())
        .collect();
    let by_definition = Container::encode_with(
        &DenseMatrix::from_rows(rows),
        Scheme::Toc,
        chunk_rows,
        &opts,
    );
    assert!(
        std::fs::read(&job.out).expect("read container")
            == by_definition.to_bytes().expect("serialize"),
        "ingested container differs from str::parse + Container::encode_with"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every preset's batches survive store spill bit-exactly for every scheme.
#[test]
fn store_roundtrip_is_bit_exact_for_all_presets() {
    for preset in DatasetPreset::ALL {
        // Keep the sparse/dense extremes small: their batches are big.
        let rows = 300;
        let ds = generate_preset(preset, rows, 17);
        for scheme in [Scheme::Toc, Scheme::Gzip, Scheme::Cla] {
            let store =
                ShardedSpillStore::build(&ds.x, &ds.labels, &StoreConfig::new(scheme, 100, 0))
                    .expect("store");
            for i in 0..store.num_batches() {
                store.visit(i, &mut |b, _| {
                    let want = ds.x.slice_rows(i * 100, ((i + 1) * 100).min(rows));
                    assert_eq!(b.decode(), want, "{} {}", preset.name(), scheme.name());
                });
            }
        }
    }
}

/// The NN trains through compressed batches and reaches a sane error on a
/// learnable multiclass task.
#[test]
fn nn_multiclass_end_to_end() {
    let ds = generate_preset(DatasetPreset::MnistLike, 600, 5);
    let store = ShardedSpillStore::build(
        &ds.x,
        &ds.labels,
        &StoreConfig::new(Scheme::Toc, 100, usize::MAX),
    )
    .expect("store");
    let trainer = Trainer::new(MgdConfig {
        epochs: 12,
        lr: 0.3,
        ..Default::default()
    });
    let spec = ModelSpec::NeuralNet {
        hidden: vec![32],
        outputs: ds.classes,
    };
    let mut report = trainer.train(&spec, &store, None);
    let eval = Scheme::Den.encode(&ds.x);
    let err = report.model.error_rate(&eval, &ds.labels);
    // 10 classes, random = 0.9 error; require clear learning.
    assert!(err < 0.45, "error {err}");
}

/// MGD epoch-wise error must improve over a recorded curve (Figure 11
/// machinery).
#[test]
fn error_curve_improves() {
    let ds = generate_preset(DatasetPreset::ImagenetLike, 500, 21);
    let store = ShardedSpillStore::build(
        &ds.x,
        &ds.labels,
        &StoreConfig::new(Scheme::Toc, 125, usize::MAX),
    )
    .expect("store");
    let trainer = Trainer::new(MgdConfig {
        epochs: 10,
        lr: 0.05,
        record_curve: true,
        ..Default::default()
    });
    let eval = Scheme::Den.encode(&ds.x);
    let report = trainer.train(
        &ModelSpec::Linear(LossKind::Hinge),
        &store,
        Some((&eval, &ds.labels)),
    );
    assert_eq!(report.curve.len(), 10);
    let first = report.curve[0].error_rate;
    let last = report.curve[9].error_rate;
    assert!(last <= first, "curve went {first} -> {last}");
    assert!(report
        .curve
        .windows(2)
        .all(|w| w[1].elapsed >= w[0].elapsed));
}

/// Umbrella prelude exposes the advertised API surface.
#[test]
fn prelude_api_surface() {
    let m = DenseMatrix::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
    let toc = TocBatch::encode(&m);
    assert_eq!(toc.decode(), m);
    let any: AnyBatch = Scheme::Toc.encode(&m);
    assert_eq!(any.rows(), 2);
    let _cfg = MgdConfig::default();
    let _lin = LinearModel::new(2, LossKind::Squared);
    let _nn = NeuralNet::new(2, &[4], 1, 0);
}

/// Corrupt spill data must surface as an error, not a panic, when loaded
/// through the deserialization layer.
#[test]
fn corrupt_serialized_batches_error() {
    let ds = generate_preset(DatasetPreset::CensusLike, 100, 2);
    for scheme in [Scheme::Toc, Scheme::Gzip, Scheme::Cla, Scheme::Cvi] {
        let bytes = scheme.encode(&ds.x).to_bytes();
        // Truncations.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let _ = toc_repro::formats::Scheme::from_bytes(&bytes[..cut]);
        }
        // Bit flips in the header region.
        for i in 1..bytes.len().min(24) {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            if let Ok(batch) = toc_repro::formats::Scheme::from_bytes(&b) {
                let _ = batch.size_bytes();
            }
        }
    }
}

/// The compression-ratio landscape that drives every result in the paper
/// (asserted here so regressions in any layer show up as a test failure).
#[test]
fn figure5_landscape_holds() {
    let ratios = |preset: DatasetPreset| {
        let ds = generate_preset(preset, 250, 42);
        let den = ds.x.den_size_bytes() as f64;
        move |s: Scheme| den / s.encode(&ds.x).size_bytes() as f64
    };
    // TOC wins against all LMC baselines on the moderate presets.
    for preset in DatasetPreset::MODERATE {
        let r = ratios(preset);
        for lmc in [Scheme::Csr, Scheme::Cvi, Scheme::Dvi, Scheme::Cla] {
            assert!(
                r(Scheme::Toc) > r(lmc),
                "{}: TOC {:.1} vs {} {:.1}",
                preset.name(),
                r(Scheme::Toc),
                lmc.name(),
                r(lmc)
            );
        }
    }
    // Gzip-class beats TOC on mnist-like (the paper's stated exception).
    let r = ratios(DatasetPreset::MnistLike);
    assert!(r(Scheme::Gzip) > r(Scheme::Toc));
    // CSR is the right choice on rcv1-like; TOC is within 40%.
    let r = ratios(DatasetPreset::Rcv1Like);
    assert!(r(Scheme::Csr) >= r(Scheme::Toc) * 0.95);
    // Nothing compresses deep-like meaningfully.
    let r = ratios(DatasetPreset::DeepLike);
    for s in Scheme::PAPER_SET {
        assert!(r(s) < 1.5, "{}", s.name());
    }
}
