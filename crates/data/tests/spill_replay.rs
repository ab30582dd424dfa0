//! One replay per spilled visit: whichever way a spilled TOC batch reaches
//! its visitor — a synchronous read, the prefetch pipeline over either IO
//! engine, a tenant's cache hit or miss — it arrives with the decode tree
//! its parse built, and the kernels of the visit build none of their own.

use std::sync::Arc;

use toc_data::io::IoEngineKind;
use toc_data::serve::{BatchCache, TenantProvider};
use toc_data::store::{ShardedSpillStore, StoreConfig};
use toc_data::synth::{generate_preset, Dataset, DatasetPreset};
use toc_formats::{ExecScratch, MatrixBatch, Scheme};
use toc_ml::mgd::BatchProvider;

const BATCH_ROWS: usize = 60;

fn dataset() -> Dataset {
    generate_preset(DatasetPreset::CensusLike, 600, 11)
}

/// `passes` epochs of what a linear model's step runs on each batch, through
/// one scratch: the bits of every `A·v` and `v·A`, and how many trees the
/// scratch built.
fn epochs(provider: &dyn BatchProvider, passes: usize) -> (Vec<u64>, u64) {
    let v: Vec<f64> = (0..provider.num_features())
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let mut ws = ExecScratch::default();
    let (mut av, mut va) = (Vec::new(), Vec::new());
    let mut bits = Vec::new();
    for _ in 0..passes {
        for idx in 0..provider.num_batches() {
            provider.visit(idx, &mut |batch, labels| {
                batch.matvec_into_ws(&v, &mut av, &mut ws);
                batch.vecmat_into_ws(labels, &mut va, &mut ws);
                bits.extend(av.iter().chain(&va).map(|x| x.to_bits()));
            });
        }
    }
    (bits, ws.toc.builds())
}

#[test]
fn a_spilled_visit_builds_no_tree_whichever_way_the_batch_arrives() {
    let ds = dataset();
    let build = |config: StoreConfig| ShardedSpillStore::build(&ds.x, &ds.labels, &config).unwrap();
    let spilled = |budget| StoreConfig::new(Scheme::Toc, BATCH_ROWS, budget).with_shards(2);

    // The control: resident batches carry no tree, the scratch builds one
    // per batch it meets.
    let resident = build(spilled(usize::MAX));
    assert_eq!(resident.spilled_batches(), 0);
    let (want, builds) = epochs(&resident, 1);
    assert_eq!(builds, resident.num_batches() as u64);

    let stores = [
        ("no prefetch", build(spilled(0))),
        (
            "ring",
            build(spilled(0).with_prefetch(3).with_io(IoEngineKind::Ring)),
        ),
        (
            "inline",
            build(spilled(0).with_prefetch(3).with_io(IoEngineKind::Sync)),
        ),
    ];
    for (name, store) in stores {
        assert_eq!(store.in_memory_batches(), 0, "{name}");
        assert_eq!(store.prefetch_enabled(), name != "no prefetch", "{name}");
        let (got, builds) = epochs(&store, 1);
        assert_eq!(got, want, "{name}");
        assert_eq!(builds, 0, "{name}");
    }

    // A tenant over a cache that holds a third of the spill: two passes
    // make both hits and misses, and both parse.
    let store = Arc::new(build(spilled(0)));
    let cache = Arc::new(BatchCache::new(store.spilled_bytes() / 3));
    let tenant = TenantProvider::new(Arc::clone(&store), cache, 1.0);
    let (got, builds) = epochs(&tenant, 2);
    assert_eq!(got, [want.clone(), want].concat());
    assert_eq!(builds, 0);
    assert!(tenant.cache_hits() > 0 && tenant.cache_misses() > store.num_batches() as u64);
}
