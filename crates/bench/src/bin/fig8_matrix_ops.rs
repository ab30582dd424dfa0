//! Figure 8: average runtimes of the five matrix-operation classes on
//! compressed 250-row mini-batches, per scheme and dataset.
//!
//! Expected shape: value-indexed schemes (DVI/CVI/TOC) make `A*c` nearly
//! free; GC schemes are orders of magnitude slower on everything (full
//! decompression per op); TOC is fastest on `A*M`/`M*A` for the
//! moderate-sparsity datasets; CSR/DEN win on rcv1/deep1b.
//!
//! What a cell times is one kernel as a training step's *first* kernel on
//! a batch pays for it: the `*_into_ws` form with one warm `ExecScratch`
//! and warm outputs (no allocation), alternating between two batches of
//! the preset, so whatever a scheme prepares once per batch (TOC: the
//! decode tree, for `A*M` / `M*A` also the live plan) is inside every
//! timed call — one batch in a loop would only ever find it prepared.
//! Under every TOC row a `TOC>DEN` row times the alternative the paper
//! argues against, `decode_into_ws` followed by the DEN kernel on the
//! decoded batch, through the same scratch.
//!
//! Each run appends one dated entry (`pr`, `date`, `git`, `host`, and
//! microseconds per preset x scheme x op) to the `BENCH_paper.json`
//! history at the repo root (override with `--out=`, label with `--pr=`
//! and `--note=`).

use std::time::Duration;
use toc_bench::{
    append_history, arg, cpu_model, fmt_duration, git_head, json_escape, time_avg, today_utc, Table,
};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{AnyBatch, ExecScratch, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

const OPS: [&str; 5] = ["A*c", "A*v", "A*M", "v*A", "M*A"];

/// Columns of the right operand and rows of the left one, per §5.2.
const P: usize = 20;

/// Dense operands and caller-owned outputs of one preset.
struct Operands {
    v: Vec<f64>,
    w: Vec<f64>,
    mr: DenseMatrix,
    ml: DenseMatrix,
    out_v: Vec<f64>,
    out_m: DenseMatrix,
    dense: DenseMatrix,
    ws: ExecScratch,
}

impl Operands {
    fn run(&mut self, batch: &AnyBatch, op: &str) {
        match op {
            "A*c" => {
                let mut b = batch.clone();
                b.scale(1.000001);
                std::hint::black_box(b);
            }
            "A*v" => batch.matvec_into_ws(&self.v, &mut self.out_v, &mut self.ws),
            "A*M" => batch.matmat_into_ws(&self.mr, &mut self.out_m, &mut self.ws),
            "v*A" => batch.vecmat_into_ws(&self.w, &mut self.out_v, &mut self.ws),
            "M*A" => batch.matmat_left_into_ws(&self.ml, &mut self.out_m, &mut self.ws),
            _ => unreachable!(),
        }
        std::hint::black_box((&self.out_v, &self.out_m));
    }

    /// Decode, then the DEN kernel on the decoded batch.
    fn run_decoded(&mut self, batch: &AnyBatch, op: &str) {
        batch.decode_into_ws(&mut self.dense, &mut self.ws);
        match op {
            "A*c" => self.dense.scale(1.000001),
            "A*v" => self.dense.matvec_into(&self.v, &mut self.out_v),
            "A*M" => self.dense.matmat_into(&self.mr, &mut self.out_m),
            "v*A" => self.dense.vecmat_into(&self.w, &mut self.out_v),
            "M*A" => self.dense.matmat_left_into(&self.ml, &mut self.out_m),
            _ => unreachable!(),
        }
        std::hint::black_box((&self.dense, &self.out_v, &self.out_m));
    }
}

/// Median of five [`time_avg`] samples of `f` alternating between the two
/// batches of `pair`.
fn time_alternating(iters: usize, pair: &[AnyBatch; 2], mut f: impl FnMut(&AnyBatch)) -> Duration {
    let mut flip = 0;
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            time_avg(iters, || {
                flip ^= 1;
                f(&pair[flip]);
            })
        })
        .collect();
    samples.sort();
    samples[2]
}

fn main() {
    let rows: usize = arg("rows", 250);
    let iters: usize = arg("iters", 200);
    let seed: u64 = arg("seed", 42);
    let pr: u32 = arg("pr", 0);
    let note: String = arg("note", String::new());
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    let out_path: String = arg("out", default_out.to_string());
    println!("# Figure 8 — matrix operation runtimes on compressed {rows}-row batches\n");
    let mut cells_json: Vec<String> = Vec::new();
    for preset in DatasetPreset::ALL {
        let ds = generate_preset(preset, 2 * rows, seed);
        let halves = [ds.x.slice_rows(0, rows), ds.x.slice_rows(rows, 2 * rows)];
        let cols = ds.x.cols();
        let mut operands = Operands {
            v: (0..cols).map(|i| ((i % 7) as f64) - 3.0).collect(),
            w: (0..rows).map(|i| ((i % 5) as f64) - 2.0).collect(),
            mr: DenseMatrix::from_vec(
                cols,
                P,
                (0..cols * P).map(|i| ((i % 11) as f64) * 0.25).collect(),
            ),
            ml: DenseMatrix::from_vec(
                P,
                rows,
                (0..rows * P)
                    .map(|i| ((i % 13) as f64) * 0.5 - 3.0)
                    .collect(),
            ),
            out_v: Vec::new(),
            out_m: DenseMatrix::default(),
            dense: DenseMatrix::default(),
            ws: ExecScratch::default(),
        };
        println!("## dataset: {} ({} cols)", preset.name(), cols);
        let mut table = Table::new(
            std::iter::once("scheme".to_string())
                .chain(OPS.iter().map(|o| o.to_string()))
                .collect(),
        );
        for scheme in Scheme::PAPER_SET {
            let pair = [scheme.encode(&halves[0]), scheme.encode(&halves[1])];
            let mut record = |name: &str, times: Vec<Duration>| {
                let us: Vec<String> = OPS
                    .iter()
                    .zip(&times)
                    .map(|(op, d)| format!("\"{op}\": {:.2}", d.as_secs_f64() * 1e6))
                    .collect();
                cells_json.push(format!(
                    "        {{\"preset\": \"{}\", \"scheme\": \"{name}\", {}}}",
                    preset.name(),
                    us.join(", ")
                ));
                table.row(
                    std::iter::once(name.to_string())
                        .chain(times.into_iter().map(fmt_duration))
                        .collect(),
                );
            };
            // CLA in SystemML does not support A*M (paper footnote);
            // ours does, so no exclusions are needed.
            let times = OPS
                .iter()
                .map(|op| time_alternating(iters, &pair, |b| operands.run(b, op)))
                .collect();
            record(scheme.name(), times);
            if scheme == Scheme::Toc {
                let times = OPS
                    .iter()
                    .map(|op| time_alternating(iters, &pair, |b| operands.run_decoded(b, op)))
                    .collect();
                record("TOC>DEN", times);
            }
        }
        table.print();
        println!();
    }

    let header = "{\n  \"bench\": \"paper\",\n  \"units\": {\n    \"fig8_matrix_ops.us\": \"microseconds per kernel call (*_into_ws, one warm ExecScratch, alternating between two batches of the preset); scheme TOC>DEN is decode_into_ws + the DEN kernel\"\n  },\n";
    let entry = format!(
        "    {{\n      \"pr\": {pr},\n      \"date\": \"{}\",\n      \"git\": \"{}\",\n      \"host\": {{\"cores\": {}, \"model\": \"{}\"}},\n      \"note\": \"{}\",\n      \"figure\": \"fig8_matrix_ops\",\n      \"rows\": {rows},\n      \"p\": {P},\n      \"seed\": {seed},\n      \"us\": [\n{}\n      ]\n    }}",
        today_utc(),
        json_escape(&git_head()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_escape(&cpu_model()),
        json_escape(&note),
        cells_json.join(",\n"),
    );
    append_history(&out_path, header, &entry)
        .unwrap_or_else(|e| panic!("append to {out_path}: {e}"));
    println!("appended entry to {out_path}");
}
