//! `serve-shared`: four training jobs, two at a time, over one
//! all-spilled store through `JobServer` — tenant reads go through the
//! shared `BatchCache`, QoS and admission instead of the prefetcher,
//! with a working set four times the cache.

use std::sync::Arc;
use std::time::Instant;

use toc_data::serve::{JobServer, JobSpec, ServeConfig};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_formats::Scheme;
use toc_ml::mgd::{BatchProvider, ModelSpec, Trainer};
use toc_ml::LossKind;

use super::train::mgd;
use super::{
    census, check_io, dense_bytes, io_layers, overhead_share, peak_rss_mb, repeat_setup, run_ops,
    Ctx, KernelProbe, Kernels, Mode, Outcome, BATCH_ROWS, CENSUS_ROWS, PROBE_EVERY,
};
use crate::stats::median;
use crate::trace::{Recorder, ROOT};

const JOBS: usize = 4;
const MAX_CONCURRENT: usize = 2;
/// Epochs per job, sized so one `JobServer::run` takes about a second.
const EPOCHS: usize = 10;

fn jobs(seed: u64) -> Vec<JobSpec> {
    (0..JOBS)
        .map(|i| {
            let loss = if i % 2 == 0 {
                LossKind::Logistic
            } else {
                LossKind::Hinge
            };
            JobSpec::new(
                format!("job{i}"),
                ModelSpec::Linear(loss),
                mgd(EPOCHS, seed.wrapping_add(i as u64), true),
            )
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let ((store, build_s), setup_s) = repeat_setup(|| {
        let ds = census(CENSUS_ROWS, ctx.seed);
        let config = StoreConfig::new(Scheme::Toc, BATCH_ROWS, 0)
            .with_shards(2)
            .with_spill_dir(ctx.tmp.join("spill"));
        let t0 = Instant::now();
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("build store");
        (Arc::new(store), t0.elapsed().as_secs_f64())
    });
    let serve_config = ServeConfig {
        max_concurrent: MAX_CONCURRENT,
        cache_bytes: store.spilled_bytes() / 4,
    };

    let mut o = Outcome {
        setup_s,
        stored_bytes: store.total_bytes() as u64,
        dense_bytes: dense_bytes(CENSUS_ROWS, store.num_features()),
        ..Outcome::default()
    };
    let io_before = store.stats().snapshot_stable();
    let mut rec = Recorder::new(Instant::now(), 1);
    let mut traced_ms = Vec::new();
    // Per traced op: cache counters and the jobs' own clocks.
    let mut hit_ratio = Vec::new();
    let (mut evictions, mut rejected) = (Vec::new(), Vec::new());
    let (mut queue_ms, mut qos_ms) = (Vec::new(), Vec::new());
    let (mut train_min, mut train_max) = (Vec::new(), Vec::new());
    let mut peak_concurrency = 0usize;
    let mut weights: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut ops = 0u32;
    run_ops(ctx, |mode| {
        ops += 1;
        // A fresh server per op: every op starts with a cold cache.
        let server = JobServer::new(Arc::clone(&store), serve_config);
        let t0 = rec.now();
        let outcomes = server.run(jobs(ctx.seed));
        let t1 = rec.now();
        let wall = (t1 - t0) as f64 / 1e9;
        match mode {
            Mode::WarmUp => {}
            Mode::Plain => {
                o.op_ms.push(wall * 1e3);
                o.wall_s += wall;
                o.rows += (JOBS * EPOCHS * CENSUS_ROWS) as u64;
                o.attempted += JOBS as u64;
            }
            Mode::Traced => {
                traced_ms.push(wall * 1e3);
                // The server runs the jobs on its own threads; what it
                // reports of them becomes one span per job, laid from
                // the op's start: queued, then training.
                let op_id = rec.open();
                for j in &outcomes {
                    let job_id = rec.open();
                    let queued = t0 + j.queue_wait.as_nanos() as u64;
                    let trained = queued + j.train_time.as_nanos() as u64;
                    rec.leaf("serve.queue", job_id, ops, (t0, queued));
                    rec.leaf("serve.train", job_id, ops, (queued, trained));
                    rec.close(job_id, "serve.job", op_id, ops, (t0, trained));
                }
                rec.close(op_id, "op", ROOT, ops, (t0, t1));
                let hits: u64 = outcomes.iter().map(|j| j.cache_hits).sum();
                let misses: u64 = outcomes.iter().map(|j| j.cache_misses).sum();
                hit_ratio.push(hits as f64 / (hits + misses) as f64);
                evictions.push(server.cache().evictions() as f64);
                rejected.push(server.cache().rejected() as f64);
                let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                queue_ms.push(outcomes.iter().map(|j| ms(j.queue_wait)).sum());
                qos_ms.push(outcomes.iter().map(|j| ms(j.qos_wait)).sum());
                let train_s = outcomes.iter().map(|j| j.train_time.as_secs_f64());
                train_min.push(train_s.clone().fold(f64::INFINITY, f64::min));
                train_max.push(train_s.fold(0.0, f64::max));
                peak_concurrency = peak_concurrency.max(server.peak_concurrency());
            }
        }
        weights.push(outcomes.into_iter().map(|j| j.weights).collect());
    });
    o.peak_rss_mb = peak_rss_mb();
    let io_after = store.stats().snapshot_stable();

    // Output checks: every job, in every op, trained exactly the model
    // its solo run over an in-memory store trains.
    let ds = census(CENSUS_ROWS, ctx.seed);
    let config = StoreConfig::new(Scheme::Toc, BATCH_ROWS, usize::MAX);
    let mem = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("build store");
    for (i, job) in jobs(ctx.seed).iter().enumerate() {
        let solo = Trainer::new(job.config.clone())
            .train(&job.model, &mem, None)
            .model
            .weights();
        if weights.iter().any(|op| op[i] != solo) {
            o.failures
                .push(format!("{} differs from its solo run", job.name));
        }
    }
    check_io(&io_after, &mut o.failures);

    if ctx.trace {
        let l = &mut o.layers;
        l.set("store.build_s", build_s);
        io_layers(
            l,
            &io_before,
            &io_after,
            (ops as usize * JOBS * EPOCHS) as f64,
        );
        l.set("serve.cache_hit_ratio", median(&hit_ratio));
        l.set("serve.cache_evictions", median(&evictions));
        l.set("serve.cache_rejected", median(&rejected));
        l.set("serve.queue_wait_ms", median(&queue_ms));
        l.set("serve.qos_wait_ms", median(&qos_ms));
        l.set("serve.job_train_s_min", median(&train_min));
        l.set("serve.job_train_s_max", median(&train_max));
        l.set("serve.peak_concurrency", peak_concurrency as f64);
        // The jobs' queue and train time, summed over concurrent jobs,
        // over the wall: above 1 by design.
        let job_ms: f64 = crate::trace::durations(&rec.spans, "serve.job")
            .iter()
            .sum::<f64>()
            / 1e6;
        l.set(
            "trace.layer_sum_share",
            job_ms / traced_ms.iter().sum::<f64>(),
        );
        l.set("trace.overhead_share", overhead_share(&o.op_ms, &traced_ms));
        // The tenants' batches are the store's: probe the kernels and
        // the wire parse on every PROBE_EVERY-th of them, outside the ops.
        let mut probe = KernelProbe::new(Kernels::Vector);
        for idx in (0..store.num_batches()).step_by(PROBE_EVERY) {
            store.visit(idx, &mut |batch, _| {
                probe.run(batch);
            });
        }
        probe.report(l);
        o.spans = rec.spans;
    }
    o
}
