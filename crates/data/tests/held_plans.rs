//! Held live plans: a built store lets its resident TOC batches hold the
//! live plan their matrix kernels run on, in the slack its memory budget
//! leaves. Across four budgets — nothing resident, everything resident with
//! no slack, slack for about half the plans, and no limit — a neural net
//! trains to bit-identical weights; after the first epoch a held batch
//! costs its visitor's scratch no tree and no plan; the reserve fits the
//! slack and the filled plans fit the reserve; and the shard files hold
//! exactly the batches placement on encoded bytes spills.

use std::fs;
use std::path::Path;

use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, Dataset, DatasetPreset};
use toc_formats::{MatrixBatch, Scheme};
use toc_ml::mgd::{step_ws, BatchProvider, ModelSpec};
use toc_ml::ExecWorkspace;

const BATCH_ROWS: usize = 100;
const EPOCHS: usize = 3;

fn dataset() -> Dataset {
    generate_preset(DatasetPreset::MnistLike, 600, 29)
}

/// What a budget's run left behind.
struct Run {
    weights: Vec<u64>,
    /// `(builds, plans)` of the trainer's scratch after each epoch.
    prepared: Vec<(u64, u64)>,
    resident: usize,
    held: usize,
}

/// Train `EPOCHS` epochs of a neural net over `store` the way
/// `Trainer::train` does, through one workspace, and check the plan
/// accounting on the way.
fn train(store: &ShardedSpillStore, ds: &Dataset, budget: usize) -> Run {
    let spec = ModelSpec::NeuralNet {
        hidden: vec![16],
        outputs: ds.classes,
    };
    let mut model = spec.init(store.num_features(), 5);
    let mut ws = ExecWorkspace::new();
    let reserved = store.plan_bytes_reserved();
    assert!(
        store.memory_bytes() + reserved <= budget,
        "budget {budget}: {} resident + {reserved} reserved",
        store.memory_bytes()
    );
    // Nothing is derived while the store is built.
    assert_eq!(store.plan_bytes_held(), 0, "budget {budget}");
    let mut prepared = Vec::new();
    for _ in 0..EPOCHS {
        for idx in 0..store.num_batches() {
            store.visit(idx, &mut |batch, labels| {
                step_ws(&mut model, batch, labels, 0.1, &mut ws)
            });
        }
        prepared.push((ws.exec.toc.builds(), ws.exec.toc.plans()));
        assert!(
            store.plan_bytes_held() <= reserved,
            "budget {budget}: {} held of {reserved} reserved",
            store.plan_bytes_held()
        );
    }
    let mut held = 0;
    for idx in 0..store.num_batches() {
        store.visit(idx, &mut |batch, _| {
            held += usize::from(batch.toc().unwrap().held_plan_bytes() > 0);
        });
    }
    Run {
        weights: model.weights().iter().map(|w| w.to_bits()).collect(),
        prepared,
        resident: store.in_memory_batches(),
        held,
    }
}

/// The bytes of the one shard file under `dir`; none if no batch spilled
/// (a shard file is made when its first batch arrives).
fn shard_file(dir: &Path) -> Vec<u8> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let files: Vec<_> = entries.map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "{files:?}");
    fs::read(&files[0]).unwrap()
}

/// What placement on encoded bytes spills under `budget`: every batch
/// past what fits, in order, as its bytes.
fn spill_oracle(ds: &Dataset, budget: usize) -> Vec<u8> {
    let (mut memory, mut spilled) = (0usize, Vec::new());
    for r0 in (0..ds.x.rows()).step_by(BATCH_ROWS) {
        let r1 = (r0 + BATCH_ROWS).min(ds.x.rows());
        let batch = Scheme::Toc.encode(&ds.x.slice_rows(r0, r1));
        if memory + batch.size_bytes() <= budget {
            memory += batch.size_bytes();
        } else {
            spilled.extend(batch.to_bytes());
        }
    }
    spilled
}

#[test]
fn held_plans_change_no_weight_and_no_spill_and_stay_inside_the_budget() {
    let ds = dataset();
    let dir = std::env::temp_dir().join(format!("toc-held-plans-{}", std::process::id()));
    let build = |budget: usize| {
        let spill_dir = dir.join(format!("b{budget}"));
        let config = StoreConfig::new(Scheme::Toc, BATCH_ROWS, budget)
            .with_shards(1)
            .with_spill_dir(spill_dir);
        ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap()
    };
    let (footprint, bounds) = {
        let all = build(usize::MAX);
        (all.memory_bytes(), all.plan_bytes_reserved())
    };
    let batches = ds.x.rows().div_ceil(BATCH_ROWS);

    let budgets = [0, footprint, footprint + bounds / 2, usize::MAX];
    let mut runs = Vec::new();
    for budget in budgets {
        let store = build(budget);
        let run = train(&store, &ds, budget);
        let files = shard_file(&dir.join(format!("b{budget}")));
        assert!(files == spill_oracle(&ds, budget), "budget {budget}");
        drop(store);
        let _ = fs::remove_dir(dir.join(format!("b{budget}")));

        // After epoch 1 a held batch adds no build and no plan; every
        // other resident batch is rebuilt and replanned each epoch, and a
        // spilled one replanned from the tree its parse carries.
        let grown = |i: usize| {
            let ((b0, p0), (b1, p1)) = (run.prepared[0], run.prepared[i]);
            (b1 - b0, p1 - p0)
        };
        let epochs = (EPOCHS - 1) as u64;
        let per_epoch_builds = (run.resident - run.held) as u64;
        let per_epoch_plans = (batches - run.held) as u64;
        assert_eq!(
            grown(EPOCHS - 1),
            (epochs * per_epoch_builds, epochs * per_epoch_plans),
            "budget {budget}: {} resident, {} held",
            run.resident,
            run.held
        );
        runs.push((budget, run));
    }
    let _ = fs::remove_dir(&dir);

    let held: Vec<usize> = runs.iter().map(|(_, r)| r.held).collect();
    assert_eq!(held[..2], [0, 0]);
    assert!(
        0 < held[2] && held[2] < batches,
        "half the bounds held {}",
        held[2]
    );
    assert_eq!(held[3], batches);
    for (budget, run) in &runs[1..] {
        assert!(
            run.weights == runs[0].1.weights,
            "budget {budget} trained other weights than budget 0"
        );
    }
}
