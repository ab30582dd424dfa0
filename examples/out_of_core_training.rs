//! The paper's headline scenario (Figure 1D, Table 6): train a logistic
//! regression with MGD when the dataset does not fit in memory.
//!
//! We generate a census-like dataset, cap the in-memory budget at the TOC
//! footprint, and train the identical model through a DEN store (which
//! spills to disk and pays IO every epoch) and a TOC store (which stays
//! resident).
//!
//! ```text
//! cargo run --release --example out_of_core_training
//! ```

use toc_repro::data::store::StoreConfig;
use toc_repro::data::synth::generate_preset;
use toc_repro::ml::mgd::ModelSpec;
use toc_repro::prelude::*;

fn main() {
    let rows = 6000;
    let ds = generate_preset(DatasetPreset::CensusLike, rows, 7);
    println!(
        "dataset: census-like, {} rows x {} cols, density {:.2}",
        rows,
        ds.x.cols(),
        ds.x.density()
    );

    // Memory budget: 2x the TOC footprint — roomy for TOC, far too small
    // for DEN.
    let toc_bytes: usize = ds
        .minibatches(250)
        .iter()
        .map(|(x, _)| Scheme::Toc.encode(x).size_bytes())
        .sum();
    let budget = toc_bytes * 2;
    println!("memory budget: {} KB\n", budget / 1024);

    let eval = Scheme::Den.encode(&ds.x);
    for scheme in [Scheme::Den, Scheme::Csr, Scheme::Toc] {
        // One shard: the spill goes to a single disk, as in the paper.
        let config = StoreConfig::new(scheme, 250, budget).with_shards(1);
        let store = ShardedSpillStore::build(&ds.x, &ds.labels, &config).expect("store build");
        let trainer = Trainer::new(MgdConfig {
            epochs: 5,
            lr: 0.05,
            ..Default::default()
        });
        let mut report = trainer.train(&ModelSpec::Linear(LossKind::Logistic), &store, None);
        let err = report.model.error_rate(&eval, &ds.labels);
        println!(
            "{:>4}: train {:>8.1?}  error {:>5.1}%  resident {}/{} batches  ({} KB encoded)",
            scheme.name(),
            report.train_time,
            err * 100.0,
            store.in_memory_batches(),
            store.in_memory_batches() + store.spilled_batches(),
            store.total_bytes() / 1024,
        );
    }
}
