//! The benchmark's vocabulary: every metric it can print, by name, with
//! its unit and direction. `BENCHMARK.json` lists the same names (a
//! unit test holds the two together); the regression bounds live only
//! there.

use std::collections::BTreeMap;

use toc_formats::Scheme;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these from its untraced run; none of them can be zero.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("rows_per_s", "rows/s", Higher),
        def("op_ms_p50", "ms", Lower),
        def("stored_bytes_per_dense_byte", "ratio", Lower),
        def("peak_rss_mb", "MB", Lower),
        def("setup_s", "s", Lower),
    ]
}

/// Metric-name suffix of a scheme in `Scheme::AUTO_SET` (`Scheme::name`
/// has characters a metric name may not).
pub fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Den => "den",
        Scheme::Csr => "csr",
        Scheme::Cvi => "cvi",
        Scheme::Dvi => "dvi",
        Scheme::Cla => "cla",
        Scheme::Snappy => "snappy",
        Scheme::Gzip => "gzip",
        Scheme::Toc => "toc",
        Scheme::GcAns => "ans",
        other => panic!("{other:?} is not an auto-pick candidate"),
    }
}

/// Single-layer metrics of the traced run, layer = module of the
/// program. A workload that does not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        def("csv.parse_ns_per_row", "ns", Lower),
        def("csv.parse_mb_per_s", "MB/s", Higher),
        def("ingest.stage_ns_per_row", "ns", Lower),
        def("ingest.seal_ms_per_chunk_p50", "ms", Lower),
        def("ingest.seal_ms_per_chunk_p99", "ms", Lower),
        def("ingest.peak_workspace_bytes", "bytes", Lower),
        def("ingest.chunks", "count", Higher),
        def("formats.pick_ms_per_chunk", "ms", Lower),
    ];
    for s in Scheme::AUTO_SET {
        let k = scheme_key(s);
        v.push(def(
            &format!("formats.estimate_ms_per_chunk.{k}"),
            "ms",
            Lower,
        ));
    }
    for s in Scheme::AUTO_SET {
        let k = scheme_key(s);
        v.push(def(&format!("formats.picked.{k}"), "count", Higher));
    }
    v.extend([
        def("formats.encode_ms_per_chunk", "ms", Lower),
        def("formats.encode_mb_per_s", "MB/s", Higher),
        def("formats.to_bytes_us_per_chunk", "us", Lower),
        def("formats.from_bytes_us_per_batch", "us", Lower),
        def("container.zone_ms_per_chunk", "ms", Lower),
        def("container.append_us_per_chunk", "us", Lower),
        def("container.finish_ms", "ms", Lower),
        def("container.bytes_written", "bytes", Lower),
        def("store.build_s", "s", Lower),
        def("store.append_us_per_chunk", "us", Lower),
        def("store.visit_self_us_p50", "us", Lower),
        def("store.visit_self_us_p99", "us", Lower),
        def("store.pending_p90", "count", Lower),
        def("store.peak_pending", "count", Lower),
        def("store.end_epoch_us", "us", Lower),
        def("io.disk_reads_per_epoch", "count", Lower),
        def("io.bytes_read_per_epoch", "bytes", Lower),
        def("io.modeled_read_ms_per_epoch_100mbps", "ms", Lower),
        def("io.prefetch_hit_ratio", "ratio", Higher),
        def("io.coalesced_reads_per_epoch", "count", Higher),
        def("io.max_in_flight", "count", Higher),
        def("io.latency_p50_us", "us", Lower),
        def("io.latency_p99_us", "us", Lower),
        def("io.ingest_stall_ms", "ms", Lower),
        def("io.throttle_ns", "ns", Lower),
        def("kernel.matvec_us_per_batch", "us", Lower),
        def("kernel.vecmat_us_per_batch", "us", Lower),
        def("kernel.matmat_us_per_batch", "us", Lower),
        def("kernel.matmat_left_us_per_batch", "us", Lower),
        def("kernel.decode_us_per_batch", "us", Lower),
        def("kernel.dense_matvec_us_per_batch", "us", Lower),
        def("ml.step_us_per_batch_p50", "us", Lower),
        def("ml.step_us_per_batch_p99", "us", Lower),
        def("ml.step_share", "ratio", Lower),
        def("serve.cache_hit_ratio", "ratio", Higher),
        def("serve.cache_evictions", "count", Lower),
        def("serve.cache_rejected", "count", Lower),
        def("serve.queue_wait_ms", "ms", Lower),
        def("serve.qos_wait_ms", "ms", Lower),
        def("serve.job_train_s_min", "s", Lower),
        def("serve.job_train_s_max", "s", Lower),
        def("serve.peak_concurrency", "count", Higher),
        def("trace.layer_sum_share", "ratio", Higher),
        def("trace.overhead_share", "ratio", Lower),
        def("trace.op_ms_p90", "ms", Lower),
    ]);
    v
}

/// Per-layer values one traced run collected. Setting a name that
/// [`per_layer`] does not define is a bug in the benchmark and panics.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn unit_of(name: &str) -> &'static str {
        per_layer()
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("undefined per-layer metric {name}"))
            .unit
    }

    pub fn set(&mut self, name: &str, value: f64) {
        Self::unit_of(name);
        self.0.insert(name.to_string(), value);
    }

    /// Set a time metric from nanoseconds, in the unit it is defined in.
    pub fn set_ns(&mut self, name: &str, ns: f64) {
        let per_unit = match Self::unit_of(name) {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            "s" => 1e9,
            unit => panic!("{name} is not a time metric (unit {unit})"),
        };
        self.0.insert(name.to_string(), ns / per_unit);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn check_section(doc: &Json, section: &str, defs: &[MetricDef], bounded: bool) {
        let listed = doc.get(section).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{section}: metric count");
        for d in defs {
            let m = listed
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(d.name.as_str()))
                .unwrap_or_else(|| panic!("{section}: {} missing from BENCHMARK.json", d.name));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                d.name
            );
            let bound = m.get("bound").and_then(Json::as_f64);
            assert_eq!(bound.is_some(), bounded, "{}: bound", d.name);
            if let Some(b) = bound {
                assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        check_section(&doc, "end_to_end", &end_to_end(), true);
        check_section(&doc, "per_layer", &per_layer(), false);
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
        }
    }
}
