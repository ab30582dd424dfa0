//! `follow-online`: one thread pushes rows through `StoreIngest` into a
//! live streaming store while `Trainer::train_online` follows the same
//! store — writes beside reads, with backpressure between them.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::Dataset;
use toc_data::{EncodeWorkspace, StoreIngest};
use toc_formats::{EncodeOptions, MatrixBatch, Scheme};
use toc_ml::mgd::{BatchProvider, ModelSpec, Trainer};
use toc_ml::LossKind;

use super::train::{mgd, visit_layers, TracedProvider, VisitTrace};
use super::{
    census, check_io, dense_bytes, io_layers, overhead_share, peak_rss_mb, repeat_setup, run_ops,
    Ctx, Kernels, Mode, Outcome, BATCH_ROWS,
};
use crate::stats::{median, percentile};
use crate::trace::{self, Recorder, ROOT};

const FOLLOW_ROWS: usize = 400_000;
const WINDOW_BATCHES: usize = 8;
const MAX_PENDING: usize = 8;
/// First span id of the producer thread's recorder.
const PRODUCER_IDS: u32 = 1 << 31;

/// What the traced producer accumulates besides its spans.
#[derive(Default)]
struct Produced {
    rows: u64,
    pending: Vec<f64>,
    peak_workspace_bytes: usize,
}

/// The traced producer: `StoreIngest::push_row`, recomposed from
/// `EncodeWorkspace::push_row` → `seal` → `to_bytes` →
/// `ShardedSpillStore::append_sealed` under the store's appender slot.
fn traced_producer(
    store: &ShardedSpillStore,
    ds: &Dataset,
    op: u32,
    rec: &mut Recorder,
    acc: &mut Produced,
) {
    let _slot = store
        .try_acquire_appender()
        .expect("the appender slot is free");
    let opts = EncodeOptions::default();
    let mut ws = EncodeWorkspace::new(ds.x.cols(), BATCH_ROWS);
    let mut labels = Vec::with_capacity(BATCH_ROWS);
    let mut chunk_start = rec.now();
    let mut stage_ns = 0u64;
    for r in 0..ds.x.rows() {
        let t0 = Instant::now();
        ws.push_row(ds.x.row(r));
        labels.push(ds.labels[r]);
        stage_ns += t0.elapsed().as_nanos() as u64;
        if !ws.is_full() && r + 1 < ds.x.rows() {
            continue;
        }
        let chunk_id = rec.open();
        let s0 = rec.now();
        let sealed = ws.seal(Some(Scheme::Toc), &opts).expect("rows are staged");
        let s1 = rec.now();
        let bytes = sealed.batch.to_bytes();
        let s2 = rec.now();
        store
            .append_sealed(&bytes, std::mem::take(&mut labels))
            .expect("append chunk");
        let s3 = rec.now();
        rec.leaf(
            "ingest.stage",
            chunk_id,
            op,
            (chunk_start, chunk_start + stage_ns),
        );
        rec.leaf("ingest.seal", chunk_id, op, (s0, s1));
        rec.leaf("formats.to_bytes", chunk_id, op, (s1, s2));
        rec.leaf("store.append", chunk_id, op, (s2, s3));
        rec.close(chunk_id, "chunk", ROOT, op, (chunk_start, s3));
        acc.rows += sealed.rows as u64;
        acc.pending.push(store.pending_appends() as f64);
        stage_ns = 0;
        chunk_start = rec.now();
    }
    acc.peak_workspace_bytes = acc.peak_workspace_bytes.max(ws.peak_bytes());
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (ds, setup_s) = repeat_setup(|| census(FOLLOW_ROWS, ctx.seed));
    let spec = ModelSpec::Linear(LossKind::Logistic);
    let trainer = Trainer::new(mgd(1, ctx.seed, false));
    let config = StoreConfig::new(Scheme::Toc, BATCH_ROWS, 0)
        .with_shards(2)
        .with_max_pending(MAX_PENDING)
        .with_spill_dir(ctx.tmp.join("spill"));
    let chunks = FOLLOW_ROWS.div_ceil(BATCH_ROWS);

    let mut o = Outcome {
        setup_s,
        dense_bytes: dense_bytes(FOLLOW_ROWS, ds.x.cols()),
        ..Outcome::default()
    };
    let origin = Instant::now();
    let vt = RefCell::new(VisitTrace::new(
        Recorder::new(origin, 1),
        Kernels::Vector,
        "window",
    ));
    let mut producer_rec = Recorder::new(origin, PRODUCER_IDS);
    let mut produced = Produced::default();
    let mut traced_ms = Vec::new();
    let mut io_sum = toc_data::IoSnapshot::default();
    let mut peak_pending = 0usize;
    let mut weights: Vec<Vec<f64>> = Vec::new();
    let mut ops = 0u32;
    run_ops(ctx, |mode| {
        ops += 1;
        let store = ShardedSpillStore::open_streaming(ds.x.cols(), &config).expect("open store");
        let producing = AtomicBool::new(true);
        let mut more = || producing.load(Ordering::Acquire);
        let t0 = Instant::now();
        let report = std::thread::scope(|s| {
            if mode == Mode::Traced {
                let (rec, acc) = (&mut producer_rec, &mut produced);
                let (store, ds, producing) = (&store, &ds, &producing);
                s.spawn(move || {
                    traced_producer(store, ds, ops, rec, acc);
                    producing.store(false, Ordering::Release);
                });
                let op_start = vt.borrow_mut().open_op(ops);
                let provider = TracedProvider {
                    inner: store,
                    t: &vt,
                };
                let report = trainer.train_online(&spec, &provider, WINDOW_BATCHES, &mut more);
                vt.borrow_mut().close_op(op_start);
                report
            } else {
                s.spawn(|| {
                    let mut ingest = StoreIngest::new(
                        &store,
                        BATCH_ROWS,
                        Some(Scheme::Toc),
                        EncodeOptions::default(),
                    );
                    for r in 0..ds.x.rows() {
                        ingest
                            .push_row(ds.x.row(r), ds.labels[r])
                            .expect("push row");
                    }
                    ingest.finish().expect("finish ingest");
                    producing.store(false, Ordering::Release);
                });
                trainer.train_online(&spec, &store, WINDOW_BATCHES, &mut more)
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        match mode {
            Mode::WarmUp => {}
            Mode::Plain => {
                o.op_ms.push(wall * 1e3);
                o.wall_s += wall;
                o.rows += FOLLOW_ROWS as u64;
                o.attempted += chunks as u64;
            }
            Mode::Traced => traced_ms.push(wall * 1e3),
        }
        // Output checks that need the live store: the trainer consumed
        // every sealed chunk, and the counters are consistent.
        if report.consumed != chunks || store.num_batches() != chunks {
            o.failures.push(format!(
                "consumed {} of {} sealed chunks, expected {chunks}",
                report.consumed,
                store.num_batches()
            ));
        }
        let snap = store.stats().snapshot_stable();
        check_io(&snap, &mut o.failures);
        io_sum.disk_reads += snap.disk_reads;
        io_sum.bytes_read += snap.bytes_read;
        io_sum.ingest_stall_ns += snap.ingest_stall_ns;
        peak_pending = peak_pending.max(store.peak_pending_appends());
        o.stored_bytes = store.appended_bytes();
        weights.push(report.model.weights());
    });
    o.peak_rss_mb = peak_rss_mb();

    // Output check: the followed run trained exactly the model the same
    // online pass trains over the materialised store.
    let config = StoreConfig::new(Scheme::Toc, BATCH_ROWS, usize::MAX);
    let mem = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("build store");
    let solo = trainer.train_online(&spec, &mem, WINDOW_BATCHES, &mut || false);
    if weights.iter().any(|w| w != &solo.model.weights()) {
        o.failures
            .push("followed weights differ from the materialised run".into());
    }

    if ctx.trace {
        let vt = vt.into_inner();
        let l = &mut o.layers;
        // One op = one pass over the stream = one epoch.
        io_layers(l, &toc_data::IoSnapshot::default(), &io_sum, ops as f64);
        let traced_wall_ms: f64 = traced_ms.iter().sum();
        // Both threads' layers over one wall: up to 2 by design.
        visit_layers(l, &vt, traced_wall_ms);
        let own = trace::self_by_name(&producer_rec.spans);
        let producer_ms: f64 = [
            "ingest.stage",
            "ingest.seal",
            "formats.to_bytes",
            "store.append",
        ]
        .iter()
        .map(|n| own.get(n).copied().unwrap_or(0) as f64 / 1e6)
        .sum();
        let consumer_share = l.get("trace.layer_sum_share");
        l.set(
            "trace.layer_sum_share",
            consumer_share + producer_ms / traced_wall_ms,
        );
        l.set("trace.overhead_share", overhead_share(&o.op_ms, &traced_ms));

        let total_ns = |name: &str| {
            trace::durations(&producer_rec.spans, name)
                .iter()
                .sum::<f64>()
        };
        let sealed = (traced_ms.len() * chunks) as f64;
        let seal_ns = trace::durations(&producer_rec.spans, "ingest.seal");
        l.set(
            "ingest.stage_ns_per_row",
            total_ns("ingest.stage") / produced.rows as f64,
        );
        l.set_ns("ingest.seal_ms_per_chunk_p50", median(&seal_ns));
        l.set_ns("ingest.seal_ms_per_chunk_p99", percentile(&seal_ns, 99.0));
        l.set(
            "ingest.peak_workspace_bytes",
            produced.peak_workspace_bytes as f64,
        );
        l.set("ingest.chunks", chunks as f64);
        l.set_ns(
            "formats.to_bytes_us_per_chunk",
            total_ns("formats.to_bytes") / sealed,
        );
        l.set_ns(
            "store.append_us_per_chunk",
            total_ns("store.append") / sealed,
        );
        l.set("store.pending_p90", percentile(&produced.pending, 90.0));
        l.set("store.peak_pending", peak_pending as f64);
        o.spans = vt.rec.spans;
        o.spans.extend(producer_rec.spans);
    }
    o
}
