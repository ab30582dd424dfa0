//! `ingest-auto` / `ingest-toc`: CSV → `.tocz` through
//! `ingest_csv_container`, with per-chunk auto scheme selection or with
//! TOC forced. The traced op recomposes the same pipeline from its
//! public parts so each part can carry a span.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use toc_data::csv::read_all;
use toc_data::synth::Dataset;
use toc_data::{ingest_csv_container, CsvContainerJob, CsvStream, EncodeWorkspace};
use toc_formats::container::{fnv1a64, Container, ContainerStreamWriter, ZoneMap};
use toc_formats::{pick_scheme, EncodeOptions, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

use super::{
    census, dense_bytes, overhead_share, peak_rss_mb, repeat_setup, run_ops, Ctx, Mode, Outcome,
    BATCH_ROWS, CENSUS_ROWS, PROBE_EVERY,
};
use crate::metrics::{scheme_key, Layers};
use crate::stats::{median, percentile};
use crate::trace::{self, Recorder, ROOT};

/// The CSV holds the first this-many rows of `census`.
const INGEST_ROWS: usize = 120_000;

/// Features then the label, one row per line, shortest round-trip
/// number formatting (what `toc gen` writes).
fn write_csv(path: &Path, ds: &Dataset, rows: usize) {
    let mut w = std::io::BufWriter::new(File::create(path).expect("create csv"));
    let mut line = String::new();
    for r in 0..rows {
        line.clear();
        for v in ds.x.row(r) {
            write!(line, "{v},").unwrap();
        }
        writeln!(line, "{}", ds.labels[r]).unwrap();
        w.write_all(line.as_bytes()).expect("write csv");
    }
    w.flush().expect("flush csv");
}

/// Sums the isolation probes of the traced op keep, by metric name.
#[derive(Default)]
struct ProbeTotals {
    chunks: u64,
    ns: std::collections::BTreeMap<String, u64>,
    dense_bytes: u64,
}

impl ProbeTotals {
    fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        *self.ns.entry(name.to_string()).or_insert(0) += ns;
        r
    }

    /// Time every stage of `seal` in isolation on one dense chunk.
    fn run(&mut self, dense: &DenseMatrix, scheme: Option<Scheme>, opts: &EncodeOptions) {
        self.chunks += 1;
        self.dense_bytes += dense_bytes(dense.rows(), dense.cols());
        self.timed("container.zone_ms_per_chunk", || {
            std::hint::black_box(ZoneMap::compute(dense, opts.cla.sample_rows))
        });
        let picked = scheme.unwrap_or_else(|| {
            for s in Scheme::AUTO_SET {
                let name = format!("formats.estimate_ms_per_chunk.{}", scheme_key(s));
                self.timed(&name, || {
                    std::hint::black_box(s.estimate_encoded_size(dense, opts))
                });
            }
            self.timed("formats.pick_ms_per_chunk", || {
                pick_scheme(dense, &Scheme::AUTO_SET, opts)
            })
        });
        let batch = self.timed("formats.encode_ms_per_chunk", || {
            picked.encode_with(dense, opts)
        });
        self.timed("formats.to_bytes_us_per_chunk", || {
            std::hint::black_box(batch.to_bytes())
        });
    }

    fn report(&self, layers: &mut Layers) {
        if self.chunks == 0 {
            return;
        }
        for (name, &ns) in &self.ns {
            layers.set_ns(name, ns as f64 / self.chunks as f64);
        }
        let encode_s = self.ns["formats.encode_ms_per_chunk"] as f64 / 1e9;
        layers.set(
            "formats.encode_mb_per_s",
            self.dense_bytes as f64 / 1e6 / encode_s,
        );
    }
}

/// What the traced ops accumulate besides their spans.
#[derive(Default)]
struct Traced {
    rows: u64,
    picked: std::collections::BTreeMap<&'static str, u64>,
    peak_workspace_bytes: usize,
    bytes_written: u64,
    probe: ProbeTotals,
    /// Traced op walls with the probes taken out, in ms.
    op_ms: Vec<f64>,
}

/// One traced op: `ingest_csv_container`'s pipeline, recomposed from
/// `CsvStream::next_row` → `EncodeWorkspace::push_row` → `seal` →
/// `ContainerStreamWriter::append` → `finish`. Row-level timings
/// accumulate into their chunk; every [`PROBE_EVERY`]-th chunk is also
/// copied aside and put through [`ProbeTotals::run`].
struct TracedIngest<'a> {
    scheme: Option<Scheme>,
    opts: EncodeOptions,
    op: u32,
    op_id: u32,
    rec: &'a mut Recorder,
    acc: &'a mut Traced,
    writer: ContainerStreamWriter<File>,
    /// Copy of the current chunk's rows when it is a probed chunk.
    side: Vec<f64>,
    chunk_idx: usize,
    chunk_start: u64,
    parse_ns: u64,
    stage_ns: u64,
    probe_ns: u64,
}

impl TracedIngest<'_> {
    fn seal_chunk(&mut self, ws: &mut EncodeWorkspace) {
        let rows = ws.staged_rows();
        if rows == 0 {
            return;
        }
        let (op, rec) = (self.op, &mut *self.rec);
        let chunk_id = rec.open();
        let s0 = rec.now();
        let sealed = ws.seal(self.scheme, &self.opts).expect("rows are staged");
        let s1 = rec.now();
        self.writer
            .append(&sealed.batch, sealed.zone)
            .expect("append segment");
        let s2 = rec.now();
        // Row-level time is laid end to end from the chunk's start.
        let parsed = self.chunk_start + self.parse_ns;
        rec.leaf("csv.parse", chunk_id, op, (self.chunk_start, parsed));
        rec.leaf(
            "ingest.stage",
            chunk_id,
            op,
            (parsed, parsed + self.stage_ns),
        );
        rec.leaf("ingest.seal", chunk_id, op, (s0, s1));
        rec.leaf("container.append", chunk_id, op, (s1, s2));
        rec.close(chunk_id, "chunk", self.op_id, op, (self.chunk_start, s2));
        self.acc.rows += rows as u64;
        *self
            .acc
            .picked
            .entry(scheme_key(sealed.scheme))
            .or_insert(0) += 1;
        if !self.side.is_empty() {
            let cols = self.side.len() / rows;
            let dense = DenseMatrix::from_vec(rows, cols, std::mem::take(&mut self.side));
            self.acc.probe.run(&dense, self.scheme, &self.opts);
            self.side = dense.into_data();
            self.side.clear();
            let p1 = rec.now();
            rec.leaf("probe", self.op_id, op, (s2, p1));
            self.probe_ns += p1 - s2;
        }
        self.chunk_idx += 1;
        (self.parse_ns, self.stage_ns) = (0, 0);
        self.chunk_start = rec.now();
    }
}

fn traced_ingest(
    csv: &Path,
    out: &Path,
    scheme: Option<Scheme>,
    op: u32,
    rec: &mut Recorder,
    acc: &mut Traced,
) {
    let op_id = rec.open();
    let op_start = rec.now();
    let mut stream = CsvStream::open(csv).expect("open csv");
    let writer = ContainerStreamWriter::new(File::create(out).expect("create output"))
        .expect("write container header");
    let mut ws: Option<EncodeWorkspace> = None;
    let mut t = TracedIngest {
        scheme,
        opts: EncodeOptions::default(),
        op,
        op_id,
        chunk_start: rec.now(),
        rec,
        acc,
        writer,
        side: Vec::new(),
        chunk_idx: 0,
        parse_ns: 0,
        stage_ns: 0,
        probe_ns: 0,
    };
    loop {
        let t0 = Instant::now();
        let next = match stream.next_row().expect("parse csv") {
            Some(row) => Some(row),
            None => stream.finish_partial().expect("parse csv tail"),
        };
        let t1 = Instant::now();
        t.parse_ns += (t1 - t0).as_nanos() as u64;
        let Some((_, row)) = next else { break };
        let ws = ws.get_or_insert_with(|| EncodeWorkspace::new(row.len(), BATCH_ROWS));
        ws.push_row(row);
        t.stage_ns += t1.elapsed().as_nanos() as u64;
        if t.chunk_idx.is_multiple_of(PROBE_EVERY) {
            t.side.extend_from_slice(row);
        }
        if ws.is_full() {
            t.seal_chunk(ws);
        }
    }
    let mut ws = ws.expect("csv has rows");
    t.seal_chunk(&mut ws);
    let f0 = t.rec.now();
    t.acc.bytes_written = t.writer.finish().expect("write footer");
    let f1 = t.rec.now();
    t.rec.leaf("container.finish", op_id, op, (f0, f1));
    t.rec.close(op_id, "op", ROOT, op, (op_start, f1));
    t.acc.peak_workspace_bytes = t.acc.peak_workspace_bytes.max(ws.peak_bytes());
    t.acc.op_ms.push((f1 - op_start - t.probe_ns) as f64 / 1e6);
}

pub fn run(ctx: &Ctx, scheme: Option<Scheme>) -> Outcome {
    let csv = ctx.tmp.join("census.csv");
    let out = ctx.tmp.join("census.tocz");
    let ((), setup_s) =
        repeat_setup(|| write_csv(&csv, &census(CENSUS_ROWS, ctx.seed), INGEST_ROWS));
    let csv_bytes = std::fs::metadata(&csv).expect("stat csv").len();
    let job = CsvContainerJob {
        csv: csv.clone(),
        out: out.clone(),
        chunk_rows: BATCH_ROWS,
        scheme,
        encode: EncodeOptions::default(),
        checkpoint_every: 0,
    };

    let mut o = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut rec = Recorder::new(Instant::now(), 1);
    let mut traced = Traced::default();
    // Hash of every op's output file, traced ops included: the outputs
    // must all be the same bytes.
    let mut hashes = Vec::new();
    let mut cols = 0usize;
    run_ops(ctx, |mode| {
        // A fresh output file each op.
        let _ = std::fs::remove_file(&out);
        if mode == Mode::Traced {
            traced_ingest(
                &csv,
                &out,
                scheme,
                hashes.len() as u32,
                &mut rec,
                &mut traced,
            );
        } else {
            let t0 = Instant::now();
            let done = ingest_csv_container(&job, false).expect("ingest");
            let wall = t0.elapsed().as_secs_f64();
            if mode == Mode::Plain {
                o.op_ms.push(wall * 1e3);
                o.wall_s += wall;
                o.rows += done.stats.rows;
                o.attempted += done.stats.chunks;
            }
            o.stored_bytes = done.total_bytes;
            cols = done.cols;
        }
        hashes.push(fnv1a64(&std::fs::read(&out).expect("read output")));
    });
    o.peak_rss_mb = peak_rss_mb();
    o.dense_bytes = dense_bytes(INGEST_ROWS, cols);

    // Output checks: every op wrote the same bytes, and they decode to
    // exactly the values the CSV parses to.
    if hashes.iter().any(|&h| h != hashes[0]) {
        o.failures.push("output bytes differ between ops".into());
    }
    let (rows, csv_cols, parsed, _) = read_all(&csv).expect("re-read csv");
    match Container::read(&out).and_then(|c| c.decode()) {
        Ok(m) => {
            let same = m.rows() == rows
                && m.cols() == csv_cols
                && m.data()
                    .iter()
                    .zip(&parsed)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                o.failures
                    .push("container does not decode to the parsed CSV".into());
            }
        }
        Err(e) => o.failures.push(format!("container unreadable: {e}")),
    }

    if ctx.trace {
        let l = &mut o.layers;
        let rows = traced.rows as f64;
        let chunks = trace::durations(&rec.spans, "chunk").len() as f64;
        let ops = traced.op_ms.len() as f64;
        let total_ns = |name: &str| trace::durations(&rec.spans, name).iter().sum::<f64>();
        let parse_ns = total_ns("csv.parse");
        l.set("csv.parse_ns_per_row", parse_ns / rows);
        l.set(
            "csv.parse_mb_per_s",
            csv_bytes as f64 * ops / 1e6 / (parse_ns / 1e9),
        );
        l.set("ingest.stage_ns_per_row", total_ns("ingest.stage") / rows);
        let seal_ns = trace::durations(&rec.spans, "ingest.seal");
        l.set_ns("ingest.seal_ms_per_chunk_p50", median(&seal_ns));
        l.set_ns("ingest.seal_ms_per_chunk_p99", percentile(&seal_ns, 99.0));
        l.set(
            "ingest.peak_workspace_bytes",
            traced.peak_workspace_bytes as f64,
        );
        l.set("ingest.chunks", chunks / ops);
        for (key, &n) in &traced.picked {
            l.set(&format!("formats.picked.{key}"), n as f64 / ops);
        }
        l.set_ns(
            "container.append_us_per_chunk",
            total_ns("container.append") / chunks,
        );
        let finish_ns = trace::durations(&rec.spans, "container.finish");
        l.set_ns("container.finish_ms", median(&finish_ns));
        l.set("container.bytes_written", traced.bytes_written as f64);
        traced.probe.report(l);

        // Σ self time of the program's layers over the traced wall (the
        // rest is the chunk loop and the timers themselves).
        let own = trace::self_by_name(&rec.spans);
        let layer_ns: u64 = [
            "csv.parse",
            "ingest.stage",
            "ingest.seal",
            "container.append",
            "container.finish",
        ]
        .iter()
        .map(|n| own.get(n).copied().unwrap_or(0))
        .sum();
        let traced_wall_ns = traced.op_ms.iter().sum::<f64>() * 1e6;
        l.set("trace.layer_sum_share", layer_ns as f64 / traced_wall_ns);
        l.set(
            "trace.overhead_share",
            overhead_share(&o.op_ms, &traced.op_ms),
        );
        o.spans = rec.spans;
    }
    o
}
