//! Machine-readable codec benchmark: per-scheme encode/decode throughput
//! and compression ratio over the seeded preset mini-batches, appended
//! as one dated entry to the `BENCH_codec.json` history at the repo root
//! (override with `--out=`).
//!
//! The committed copy of that file is the recorded baseline for this
//! machine class — one entry per PR that ran the bench, so codec-speed
//! movement is visible over time instead of each run overwriting the
//! last. Add an entry with
//!
//! ```text
//! cargo run -p toc-bench --release --bin codec_speed
//! ```
//!
//! whenever a codec change moves the numbers. The JSON is hand-rolled
//! (no serde in the workspace): per entry, a flat object per scheme with
//! MB/s and ratio aggregated over every preset (throughput weighted by
//! dense bytes), plus the per-preset breakdown.

use toc_bench::{append_history, arg, json_escape, mb_per_s, time_avg, today_utc};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::{MatrixBatch, Scheme};

/// Schemes worth tracking over time: the paper's headline formats plus
/// the byte-compressed baselines and the ANS entropy coder.
const SCHEMES: [Scheme; 7] = [
    Scheme::Den,
    Scheme::Csr,
    Scheme::Cvi,
    Scheme::Snappy,
    Scheme::Gzip,
    Scheme::GcAns,
    Scheme::Toc,
];

const HEADER: &str = "{\n  \"bench\": \"codec_speed\",\n  \"units\": {\"throughput\": \"MB/s of dense payload\", \"ratio\": \"dense bytes / encoded bytes\"},\n";

struct Measurement {
    preset: &'static str,
    encode_mb_s: f64,
    decode_mb_s: f64,
    ratio: f64,
}

fn main() {
    let rows: usize = arg("rows", 250);
    let iters: usize = arg("iters", 20);
    let seed: u64 = arg("seed", 42);
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");
    let out_path: String = arg("out", default_out.to_string());

    let datasets: Vec<_> = DatasetPreset::ALL
        .iter()
        .map(|&p| (p.name(), generate_preset(p, rows, seed)))
        .collect();

    let mut entry = String::new();
    entry.push_str(&format!(
        "    {{\"date\": \"{}\", \"rows\": {rows}, \"seed\": {seed}, \"schemes\": [\n",
        today_utc()
    ));

    for (si, scheme) in SCHEMES.iter().enumerate() {
        let mut per: Vec<Measurement> = Vec::new();
        let mut total_bytes = 0usize;
        let mut enc_time = 0.0f64;
        let mut dec_time = 0.0f64;
        let mut enc_bytes = 0usize;
        for (name, ds) in &datasets {
            let den_bytes = ds.x.den_size_bytes();
            let e = time_avg(iters, || std::hint::black_box(scheme.encode(&ds.x)));
            let encoded = scheme.encode(&ds.x);
            let d = time_avg(iters, || std::hint::black_box(encoded.decode()));
            per.push(Measurement {
                preset: name,
                encode_mb_s: mb_per_s(den_bytes, e),
                decode_mb_s: mb_per_s(den_bytes, d),
                ratio: den_bytes as f64 / encoded.size_bytes() as f64,
            });
            total_bytes += den_bytes;
            enc_time += e.as_secs_f64();
            dec_time += d.as_secs_f64();
            enc_bytes += encoded.size_bytes();
        }
        let agg_enc = total_bytes as f64 / 1e6 / enc_time.max(1e-12);
        let agg_dec = total_bytes as f64 / 1e6 / dec_time.max(1e-12);
        let agg_ratio = total_bytes as f64 / enc_bytes as f64;
        println!(
            "{:8}  encode {agg_enc:8.1} MB/s  decode {agg_dec:8.1} MB/s  ratio {agg_ratio:6.2}x",
            scheme.name()
        );
        entry.push_str(&format!(
            "      {{\"scheme\": \"{}\", \"encode_mb_s\": {:.1}, \"decode_mb_s\": {:.1}, \"ratio\": {:.3}, \"per_dataset\": [\n",
            json_escape(scheme.name()),
            agg_enc,
            agg_dec,
            agg_ratio
        ));
        for (pi, m) in per.iter().enumerate() {
            entry.push_str(&format!(
                "        {{\"dataset\": \"{}\", \"encode_mb_s\": {:.1}, \"decode_mb_s\": {:.1}, \"ratio\": {:.3}}}{}\n",
                json_escape(m.preset),
                m.encode_mb_s,
                m.decode_mb_s,
                m.ratio,
                if pi + 1 < per.len() { "," } else { "" }
            ));
        }
        entry.push_str(&format!(
            "      ]}}{}\n",
            if si + 1 < SCHEMES.len() { "," } else { "" }
        ));
    }
    entry.push_str("    ]}");

    append_history(&out_path, HEADER, &entry)
        .unwrap_or_else(|e| panic!("append to {out_path}: {e}"));
    println!("\nappended entry to {out_path}");
}
