//! `ledger` — the repo's benchmark: six workloads over the program's
//! public API (CSV ingest → spill store → MGD training), end-to-end
//! metrics from untraced runs and per-layer metrics from traced ones.
//! See `README.md` beside this package for the metric and workload
//! definitions.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//! ledger [--seed <n>] [--seconds <s>] [--rounds <n>] [--trace <0|1>] [--check-repeat]
//!     every workload, one child process per (round, workload)
//! ```

mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Better, MetricDef};
use stats::{median, percentile, supports_percentile, worse_by};
use workloads::{Ctx, Outcome, Workload};

/// On the single-threaded workloads the layers' self times must add up
/// to the traced wall within this range.
const LAYER_SUM_RANGE: (f64, f64) = (0.90, 1.05);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        rounds: 3,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::from_name(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--rounds" => {
                let v = value()?;
                a.rounds = v.parse().map_err(|_| bad(&v))?;
                if a.rounds == 0 {
                    return Err(bad(&v));
                }
            }
            "--check-repeat" => a.check_repeat = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

/// Where build outputs go, and so where the benchmark keeps its own
/// files: `$CARGO_TARGET_DIR/ledger`, or `target/ledger` under the
/// current directory.
fn ledger_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("ledger")
}

/// A run's private scratch directory, removed when the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The end-to-end values of one run.
fn end_to_end_values(o: &Outcome) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("rows_per_s", o.rows as f64 / o.wall_s),
        ("op_ms_p50", median(&o.op_ms)),
        (
            "stored_bytes_per_dense_byte",
            o.stored_bytes as f64 / o.dense_bytes as f64,
        ),
        ("peak_rss_mb", o.peak_rss_mb),
        ("setup_s", median(&o.setup_s)),
    ])
}

/// One run of one workload, as the driver invokes it.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let dir = ledger_dir();
    let tmp = TmpDir(dir.join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("ledger: cannot create {}: {e}", tmp.0.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp: tmp.0.clone(),
    };
    let mut o = workload.run(&ctx);

    let defs = if args.trace {
        let path = dir.join(format!("trace-{}.json", workload.name()));
        if let Err(e) = trace::write_file(&path, workload.name(), args.seed, &o.spans) {
            o.failures
                .push(format!("cannot write {}: {e}", path.display()));
        }
        let share = o.layers.get("trace.layer_sum_share");
        if workload.single_threaded() && !(LAYER_SUM_RANGE.0..=LAYER_SUM_RANGE.1).contains(&share) {
            o.failures.push(format!(
                "trace.layer_sum_share {share:.3} outside {LAYER_SUM_RANGE:?}"
            ));
        }
        // The tail of the run's untraced ops: reported here, where no
        // bound hangs on it (see README, Steadiness).
        o.layers.set("trace.op_ms_p90", percentile(&o.op_ms, 90.0));
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let e2e = end_to_end_values(&o);
    let value = |d: &MetricDef| {
        if args.trace {
            o.layers.get(&d.name)
        } else {
            e2e[d.name.as_str()]
        }
    };

    for f in &o.failures {
        eprintln!("ledger: {}: check failed: {f}", workload.name());
    }
    if !args.trace {
        eprintln!(
            "ledger: {}: {} ops; their p90 is {:.3} ms, with {} samples beyond it{}",
            workload.name(),
            o.op_ms.len(),
            percentile(&o.op_ms, 90.0),
            stats::samples_beyond(o.op_ms.len(), 90.0),
            if supports_percentile(o.op_ms.len(), 90.0) {
                ""
            } else {
                " (fewer than ten: read it as a near-maximum)"
            }
        );
    }
    let correct = o.failures.is_empty();
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&d.name),
                json::num(value(d)),
                json::quote(d.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        if correct { 0 } else { o.attempted },
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one child run reported.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run this binary again as `--workload w` and read its result line.
fn spawn_child(w: Workload, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line =
        stdout
            .lines()
            .last()
            .ok_or(format!("{}: no result line ({})", w.name(), out.status))?;
    let doc = json::parse(line)?;
    let field = |k: &str| doc.get(k).ok_or(format!("result has no {k:?}"));
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?.as_obj().ok_or("metrics is no object")? {
        let v = m.get("value").and_then(Json::as_f64);
        metrics.insert(name.clone(), v.ok_or(format!("{name} has no value"))?);
    }
    Ok(ChildResult {
        correct: field("correct")?.as_bool().ok_or("correct is no bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is no number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is no number")? as u64,
        metrics,
    })
}

/// One workload's numbers over a set of rounds.
#[derive(Default)]
struct WorkloadSet {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// metric → one value per round.
    rounds: BTreeMap<String, Vec<f64>>,
}

impl WorkloadSet {
    fn add(&mut self, r: ChildResult) {
        self.correct &= r.correct;
        self.attempted += r.attempted;
        self.failed += r.failed;
        for (k, v) in r.metrics {
            self.rounds.entry(k).or_default().push(v);
        }
    }
}

/// A full set: `rounds` × workloads in interleaved order, so slow drift
/// of the shared machine spreads over all workloads.
fn run_set(args: &Args) -> Result<BTreeMap<&'static str, WorkloadSet>, String> {
    let mut set: BTreeMap<&'static str, WorkloadSet> = BTreeMap::new();
    for round in 0..args.rounds {
        for w in Workload::ALL {
            eprintln!("ledger: round {}/{} {}", round + 1, args.rounds, w.name());
            let s = set.entry(w.name()).or_insert_with(|| WorkloadSet {
                correct: true,
                ..WorkloadSet::default()
            });
            s.add(spawn_child(w, args, false)?);
            if args.trace {
                s.add(spawn_child(w, args, true)?);
            }
        }
    }
    Ok(set)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and toolchain a set of results belongs to.
fn host() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", command_line("rustc", &["-V"])),
        ("git", command_line("git", &["rev-parse", "HEAD"])),
    ]
}

fn print_set(args: &Args, set: &BTreeMap<&'static str, WorkloadSet>) {
    let defs: Vec<MetricDef> = metrics::end_to_end()
        .into_iter()
        .chain(if args.trace {
            metrics::per_layer()
        } else {
            Vec::new()
        })
        .collect();
    for w in Workload::ALL {
        let s = &set[w.name()];
        println!(
            "\n{} — {}, attempted {}, failed {} (ops_failed_share {})",
            w.name(),
            if s.correct {
                "correct"
            } else {
                "CHECKS FAILED"
            },
            s.attempted,
            s.failed,
            s.failed as f64 / s.attempted.max(1) as f64
        );
        for d in &defs {
            // A per-layer 0 means the workload does not exercise the layer.
            match s.rounds.get(&d.name).map(|v| median(v)) {
                Some(v) if v != 0.0 => println!("  {:<44} {v:>16.4} {}", d.name, d.unit),
                _ => {}
            }
        }
    }
}

/// `results.json`: the host, the arguments and every round's value of
/// every metric (the printed figure is their median).
fn write_results(
    path: &Path,
    args: &Args,
    host: &[(&'static str, String)],
    set: &BTreeMap<&'static str, WorkloadSet>,
) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"claim\": null,\n");
    for (k, v) in host {
        out += &format!("  {}: {},\n", json::quote(k), json::quote(v));
    }
    out += &format!(
        "  \"seed\": {}, \"seconds\": {}, \"rounds\": {},\n  \"workloads\": {{\n",
        args.seed, args.seconds, args.rounds
    );
    let n = set.len();
    for (i, w) in Workload::ALL.iter().enumerate() {
        let s = &set[w.name()];
        out += &format!(
            "    {}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n",
            json::quote(w.name()),
            s.correct,
            s.attempted,
            s.failed
        );
        let m = s.rounds.len();
        for (j, (name, vals)) in s.rounds.iter().enumerate() {
            let each: Vec<String> = vals.iter().map(|&v| json::num(v)).collect();
            out += &format!(
                "      {}: {{\"median\": {}, \"rounds\": [{}]}}{}\n",
                json::quote(name),
                json::num(median(vals)),
                each.join(", "),
                if j + 1 < m { "," } else { "" }
            );
        }
        out += &format!("    }}}}{}\n", if i + 1 < n { "," } else { "" });
    }
    out += "  }\n}\n";
    std::fs::write(path, out)
}

/// The regression bound of every end-to-end metric, from
/// `BENCHMARK.json` in the current directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("--check-repeat reads ./BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let name = m.get("name").and_then(Json::as_str);
        let bound = m.get("bound").and_then(Json::as_f64);
        let (Some(name), Some(bound)) = (name, bound) else {
            return Err("end_to_end entry without name or bound".into());
        };
        out.insert(name.to_string(), bound);
    }
    Ok(out)
}

/// Compare two sets of the same code: no end-to-end median of the second
/// may be worse than the first's by more than the metric's bound.
fn check_repeat(
    first: &BTreeMap<&'static str, WorkloadSet>,
    second: &BTreeMap<&'static str, WorkloadSet>,
) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!("\ncheck-repeat: second set against the first");
    for w in Workload::ALL {
        for d in metrics::end_to_end() {
            let a = median(&first[w.name()].rounds[&d.name]);
            let b = median(&second[w.name()].rounds[&d.name]);
            let worse = worse_by(a, b, d.better == Better::Lower);
            let bound = *bounds
                .get(&d.name)
                .ok_or(format!("BENCHMARK.json has no bound for {}", d.name))?;
            let verdict = if worse > bound { "FAIL" } else { "ok" };
            ok &= worse <= bound;
            println!(
                "  {:<15} {:<28} {:>14.4} -> {:>14.4}  {:+.2}% (bound {:.0}%) {verdict}",
                w.name(),
                d.name,
                a,
                b,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// Every workload, `--rounds` times, one child process per run.
fn run_all(args: &Args) -> Result<bool, String> {
    let host = host();
    println!(
        "ledger: seed {}, {} rounds x {} workloads, {} s per run{}",
        args.seed,
        args.rounds,
        Workload::ALL.len(),
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for (k, v) in &host {
        println!("  {k}: {v}");
    }
    let first = run_set(args)?;
    print_set(args, &first);
    let dir = ledger_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("results.json");
    write_results(&path, args, &host, &first).map_err(|e| e.to_string())?;
    println!("\nresults written to {}", path.display());
    let mut ok = first.values().all(|s| s.correct);
    if args.check_repeat {
        let second = run_set(args)?;
        ok &= second.values().all(|s| s.correct);
        ok &= check_repeat(&first, &second)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        },
    }
}
