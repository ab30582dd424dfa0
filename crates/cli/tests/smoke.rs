//! CLI smoke tests: drive the real `toc` binary over a temp dir and
//! assert exit codes plus that the printed `IoStats` lines parse. These
//! are the checks a packaging pipeline would run — everything goes
//! through `std::process::Command`, not library calls.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Output;
use std::sync::atomic::{AtomicU64, Ordering};

/// The committed legacy v1 container fixture.
const GOLDEN_V1: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../formats/tests/golden/container_v1.tocz"
);

fn toc(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_toc"))
        .args(args)
        .output()
        .expect("spawn toc binary")
}

fn assert_ok(out: &Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed (status {:?}):\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn assert_fails(out: &Output, what: &str) {
    assert!(
        !out.status.success(),
        "{what} unexpectedly succeeded:\n{}",
        String::from_utf8_lossy(&out.stdout),
    );
    assert!(
        !out.stderr.is_empty(),
        "{what} failed without an error message"
    );
}

static NEXT: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "toc-smoke-{}-{}-{tag}.{ext}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Parse a `key=value key=value ...` stats line emitted by `toc train`.
fn parse_kv(line: &str) -> HashMap<String, String> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn gen_csv(rows: usize) -> PathBuf {
    let csv = temp_path("data", "csv");
    let out = toc(&[
        "gen",
        "--preset",
        "census",
        "--rows",
        &rows.to_string(),
        csv.to_str().unwrap(),
    ]);
    assert_ok(&out, "toc gen");
    csv
}

#[test]
fn compress_roundtrip_with_planner_flags() {
    let csv = gen_csv(300);
    let tocz = temp_path("compressed", "tocz");
    let back = temp_path("back", "csv");
    let out = toc(&[
        "compress",
        csv.to_str().unwrap(),
        tocz.to_str().unwrap(),
        "--scheme",
        "cla",
        "--cla-planner",
        "sample",
        "--cla-sample",
        "64",
        "--segment-rows",
        "100",
    ]);
    let stdout = assert_ok(&out, "toc compress");
    assert!(stdout.contains("CLA:"), "unexpected output: {stdout}");
    assert_ok(
        &toc(&["decompress", tocz.to_str().unwrap(), back.to_str().unwrap()]),
        "toc decompress",
    );
    assert_ok(&toc(&["inspect", tocz.to_str().unwrap()]), "toc inspect");
    for p in [csv, tocz, back] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn train_over_async_engines_prints_parseable_io_stats() {
    let csv = gen_csv(400);
    for (io, placement) in [("ring", "stripe"), ("ring", "pack"), ("sync", "stripe")] {
        let out = toc(&[
            "train",
            csv.to_str().unwrap(),
            "--epochs",
            "2",
            "--budget",
            "0",
            "--shards",
            "2",
            "--prefetch",
            "3",
            "--mbps",
            "2000",
            "--io",
            io,
            "--placement",
            placement,
            "--cla-planner",
            "greedy",
        ]);
        let stdout = assert_ok(&out, &format!("toc train --io {io}"));
        assert!(
            stdout.contains("spilled batches across 2 shards"),
            "missing store line: {stdout}"
        );
        // The human io line and the machine io-engine line both parse.
        let io_line = stdout
            .lines()
            .find(|l| l.starts_with("io:"))
            .unwrap_or_else(|| panic!("no io: line in {stdout}"));
        let reads: u64 = io_line
            .split_whitespace()
            .nth(1)
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| panic!("unparseable reads in {io_line:?}"));
        assert!(reads >= 1, "no spill reads counted: {io_line}");

        let engine_line = stdout
            .lines()
            .find(|l| l.starts_with("io-engine:"))
            .unwrap_or_else(|| panic!("no io-engine: line in {stdout}"));
        let kv = parse_kv(engine_line);
        assert_eq!(kv["kind"], io);
        assert_eq!(kv["placement"], placement);
        let submitted: u64 = kv["submitted"].parse().expect("submitted parses");
        let completed: u64 = kv["completed"].parse().expect("completed parses");
        let coalesced: u64 = kv["coalesced"].parse().expect("coalesced parses");
        let max_in_flight: u64 = kv["max-in-flight"].parse().expect("max-in-flight parses");
        let p50: u64 = kv["lat-p50-us"].parse().expect("p50 parses");
        let p99: u64 = kv["lat-p99-us"].parse().expect("p99 parses");
        assert!(completed <= submitted, "{engine_line}");
        assert!(p50 <= p99, "{engine_line}");
        if io == "sync" {
            assert_eq!(submitted, 0, "sync engine must not submit: {engine_line}");
        } else {
            assert!(submitted >= 1, "async engine unused: {engine_line}");
            assert!(max_in_flight >= 1, "{engine_line}");
        }
        let _ = coalesced; // may legitimately be 0 under stripe
    }
    std::fs::remove_file(csv).ok();
}

#[test]
fn adaptive_and_static_training_print_parseable_placement_stats() {
    let csv = gen_csv(400);
    // Legs: adaptive placement with automatic and with explicit thread
    // counts on the ring engine, and a non-adaptive run (placement line
    // must still appear).
    let legs: [(&str, Vec<&str>); 3] = [
        ("adaptive", vec!["--placement", "adaptive", "--io", "ring"]),
        (
            "adaptive+threads",
            vec![
                "--placement",
                "adaptive",
                "--io",
                "ring",
                "--io-threads",
                "2",
                "--decode-workers",
                "2",
            ],
        ),
        ("pack", vec!["--placement", "pack", "--io", "ring"]),
    ];
    for (leg, extra) in legs {
        let mut args = vec![
            "train",
            csv.to_str().unwrap(),
            "--epochs",
            "3",
            "--budget",
            "0",
            "--shards",
            "2",
            "--prefetch",
            "3",
            "--mbps",
            "2000",
        ];
        args.extend(extra.iter());
        let stdout = assert_ok(&toc(&args), &format!("toc train [{leg}]"));
        let line = stdout
            .lines()
            .find(|l| l.starts_with("placement:"))
            .unwrap_or_else(|| panic!("[{leg}] no placement: line in {stdout}"));
        let kv = parse_kv(line);
        let adaptive = leg.starts_with("adaptive");
        assert_eq!(kv["policy"], if adaptive { "adaptive" } else { "pack" });
        assert!(!kv.contains_key("pin"), "{line}");
        let io_threads: u64 = kv["io-threads"].parse().expect("io-threads parses");
        let decode_workers: u64 = kv["decode-workers"].parse().expect("decode-workers parses");
        assert!(io_threads >= 1, "{line}");
        assert!(decode_workers >= 1, "{line}");
        let rebalances: u64 = kv["rebalances"].parse().expect("rebalances parses");
        let migrated: u64 = kv["migrated"].parse().expect("migrated parses");
        let _migrated_kb: u64 = kv["migrated-kb"].parse().expect("migrated-kb parses");
        if adaptive {
            // 3 epochs over a spilled store with uniform --mbps: every
            // boundary has profiler signal, so passes must have run (the
            // flat profile makes actual migration legitimately rare).
            assert!(rebalances >= 1, "{line}");
        } else {
            assert_eq!(rebalances, 0, "{line}");
            assert_eq!(migrated, 0, "{line}");
        }
        // Slash-separated per-shard lists parse as floats/ints and cover
        // both shards.
        let ewma: Vec<f64> = kv["ewma-mbps"]
            .split('/')
            .map(|t| t.parse().expect("ewma parses"))
            .collect();
        assert_eq!(ewma.len(), 2, "{line}");
        assert!(ewma.iter().all(|&m| m > 0.0), "unobserved shard: {line}");
        let shard_kb: Vec<u64> = kv["shard-kb"]
            .split('/')
            .map(|t| t.parse().expect("shard-kb parses"))
            .collect();
        assert_eq!(shard_kb.len(), 2, "{line}");
    }
    std::fs::remove_file(csv).ok();
}

#[test]
fn seekable_v2_containers_project_inspect_and_train() {
    let csv = gen_csv(300);
    let v2 = temp_path("v2", "tocz");
    let back = temp_path("projected", "csv");

    // v2 is the default; --segment-rows sets the seekable unit.
    assert_ok(
        &toc(&[
            "compress",
            csv.to_str().unwrap(),
            v2.to_str().unwrap(),
            "--scheme",
            "toc",
            "--segment-rows",
            "64",
        ]),
        "toc compress --segment-rows",
    );

    // Inspect prints the footer summary and the layout tree.
    let stdout = assert_ok(&toc(&["inspect", v2.to_str().unwrap()]), "toc inspect v2");
    assert!(stdout.contains(": v2,"), "no v2 summary line: {stdout}");
    assert!(stdout.contains("layout:"), "no layout tree: {stdout}");
    assert!(stdout.contains("seg["), "no leaf lines: {stdout}");

    // A row projection must go through the seek path and read only a
    // fraction of the payload; the seek: line is machine-parseable.
    let stdout = assert_ok(
        &toc(&[
            "decompress",
            v2.to_str().unwrap(),
            back.to_str().unwrap(),
            "--rows",
            "64..128",
            "--parallel",
            "2",
        ]),
        "toc decompress --rows",
    );
    let seek = stdout
        .lines()
        .find(|l| l.starts_with("seek:"))
        .unwrap_or_else(|| panic!("no seek: line in {stdout}"));
    let nums: Vec<u64> = seek
        .split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().unwrap())
        .collect();
    let [reads, bytes_read, payload] = nums[..] else {
        panic!("unparseable seek line: {seek:?}");
    };
    assert!(reads >= 4, "{seek}"); // open is 3 reads + >=1 segment
    assert!(
        bytes_read < payload / 2,
        "projection read most of the payload: {seek}"
    );
    assert!(stdout.contains("decoded 64 rows"), "{stdout}");

    // Training straight off the v2 container exercises the streaming
    // store build (budget 0 => everything re-spills across shards).
    let stdout = assert_ok(
        &toc(&[
            "train",
            v2.to_str().unwrap(),
            "--epochs",
            "1",
            "--budget",
            "0",
            "--shards",
            "2",
            "--prefetch",
            "2",
        ]),
        "toc train <in.tocz>",
    );
    assert!(
        stdout.contains("spilled batches across 2 shards"),
        "missing store line: {stdout}"
    );

    // The committed legacy v1 container (57 rows in 16-row segments; the
    // tool only reads v1) still inspects and projects, without a footer.
    let stdout = assert_ok(&toc(&["inspect", GOLDEN_V1]), "toc inspect v1");
    assert!(!stdout.contains(": v2,"), "v1 claimed a footer: {stdout}");
    let stdout = assert_ok(
        &toc(&[
            "decompress",
            GOLDEN_V1,
            back.to_str().unwrap(),
            "--rows",
            "16..40",
        ]),
        "toc decompress v1 --rows",
    );
    assert!(!stdout.contains("seek:"), "v1 has no seek path: {stdout}");
    assert!(stdout.contains("decoded 24 rows"), "{stdout}");

    // Bad flag values exit nonzero.
    assert_fails(
        &toc(&[
            "decompress",
            v2.to_str().unwrap(),
            back.to_str().unwrap(),
            "--rows",
            "9..3",
        ]),
        "inverted row range",
    );
    for p in [csv, v2, back] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn out_of_core_flags_require_budget_and_reject_bad_values() {
    let csv = gen_csv(120);
    assert_fails(
        &toc(&["train", csv.to_str().unwrap(), "--io", "ring"]),
        "--io without --budget",
    );
    assert_fails(
        &toc(&["train", csv.to_str().unwrap(), "--placement", "adaptive"]),
        "--placement adaptive without --budget",
    );
    assert_fails(
        &toc(&[
            "train",
            csv.to_str().unwrap(),
            "--budget",
            "0",
            "--io",
            "uring",
        ]),
        "unknown io engine",
    );
    assert_fails(
        &toc(&[
            "train",
            csv.to_str().unwrap(),
            "--budget",
            "0",
            "--placement",
            "scatter",
        ]),
        "unknown placement",
    );
    assert_fails(
        &toc(&["train", csv.to_str().unwrap(), "--budget", "x"]),
        "unparseable budget",
    );
    assert_fails(
        &toc(&[
            "compress",
            csv.to_str().unwrap(),
            "/tmp/unused.tocz",
            "--scheme",
            "cla",
            "--cla-sample",
            "0",
        ]),
        "zero planner sample",
    );
    // A chunk of zero rows never fills: rejected, not looped on.
    let path = csv.to_str().unwrap();
    let zero_row_chunks: [&[&str]; 3] = [
        &["train", path, "--batch-rows", "0"],
        &["bench", path, "--batch-rows", "0"],
        &["compress", path, "/tmp/unused.tocz", "--segment-rows", "0"],
    ];
    for argv in zero_row_chunks {
        let out = toc(argv);
        assert_fails(&out, "zero rows per chunk");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("must be >= 1"), "{argv:?}: {stderr}");
    }
    // The worker-pool engine is gone; the error names what remains.
    let out = toc(&[
        "train",
        csv.to_str().unwrap(),
        "--budget",
        "0",
        "--io",
        "pool",
    ]);
    assert_fails(&out, "removed io engine");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown io engine \"pool\" (sync|ring)"),
        "{stderr}"
    );
    // A malformed number is an error naming its flag, not a silent default.
    let out = toc(&["train", csv.to_str().unwrap(), "--epochs", "abc"]);
    assert_fails(&out, "unparseable epochs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--epochs"), "{stderr}");
    assert_fails(&toc(&["frobnicate"]), "unknown subcommand");
    std::fs::remove_file(csv).ok();
}

/// `toc serve`: N jobs over one shared store, per-job `job:` stats lines
/// plus the `serve:` aggregate, all machine-parseable. Admission gating
/// is observable through `peak-concurrent`.
#[test]
fn serve_emits_parseable_job_stats() {
    let csv = gen_csv(400);
    let out = toc(&[
        "serve",
        csv.to_str().unwrap(),
        "--jobs",
        "3",
        "--max-concurrent",
        "2",
        "--shards",
        "2",
        "--batch-rows",
        "50",
        "--mbps",
        "800",
        "--epochs",
        "2",
        "--shares",
        "1,2",
    ]);
    let stdout = assert_ok(&out, "toc serve");
    let jobs: Vec<HashMap<String, String>> = stdout
        .lines()
        .filter(|l| l.starts_with("job: "))
        .map(parse_kv)
        .collect();
    assert_eq!(jobs.len(), 3, "expected 3 job lines:\n{stdout}");
    for (i, j) in jobs.iter().enumerate() {
        assert_eq!(j["name"], format!("j{i}"));
        assert_eq!(j["seed"], (42 + i as u64).to_string(), "seeds are base+i");
        let visited: u64 = j["batches"].parse().expect("batches");
        assert_eq!(visited, 16, "2 epochs x 8 batches:\n{stdout}");
        let hits: u64 = j["cache-hits"].parse().expect("cache-hits");
        let misses: u64 = j["cache-misses"].parse().expect("cache-misses");
        assert_eq!(hits + misses, visited, "every spilled visit is hit or miss");
        let err: f64 = j["err-pct"].parse().expect("err-pct");
        assert!((0.0..=100.0).contains(&err));
    }
    // Shares cycle through --shares.
    assert_eq!(jobs[0]["share"], "1");
    assert_eq!(jobs[1]["share"], "2");

    let serve = stdout
        .lines()
        .find(|l| l.starts_with("serve: "))
        .unwrap_or_else(|| panic!("no serve line:\n{stdout}"));
    let s = parse_kv(serve);
    assert_eq!(s["jobs"], "3");
    let peak: usize = s["peak-concurrent"].parse().expect("peak-concurrent");
    assert!(
        (1..=2).contains(&peak),
        "admission must cap concurrency at 2:\n{stdout}"
    );
    let hits: u64 = s["cache-hits"].parse().expect("serve cache-hits");
    let misses: u64 = s["cache-misses"].parse().expect("serve cache-misses");
    assert_eq!(hits + misses, 3 * 16, "aggregate = sum of per-job visits");
}

/// One way in: the CSV, the v2 container made of it and, for its own
/// rows, the legacy v1 fixture all fill the store through the same
/// streaming build, resident or spilled — the same training error — and
/// `serve` evaluates a job's model the way `train` does. A multi-segment
/// v2 container decompresses back to the CSV's bytes.
#[test]
fn every_input_kind_trains_to_the_same_error() {
    let csv = gen_csv(330);
    let v2 = temp_path("one-way-in", "tocz");
    let back = temp_path("one-way-in-back", "csv");
    let (csv_arg, v2_arg) = (csv.to_str().unwrap(), v2.to_str().unwrap());
    assert_ok(
        &toc(&["compress", csv_arg, v2_arg, "--segment-rows", "64"]),
        "toc compress",
    );
    assert_ok(
        &toc(&["decompress", v2_arg, back.to_str().unwrap()]),
        "toc decompress",
    );
    assert_eq!(
        std::fs::read(&back).unwrap(),
        std::fs::read(&csv).unwrap(),
        "decompress did not give the CSV back"
    );

    // The `12.34` of `training error 12.34%`.
    let error = |input: &str, extra: &[&str]| -> String {
        let mut argv = vec!["train", input, "--epochs", "3", "--batch-rows", "50"];
        argv.extend(extra);
        let stdout = assert_ok(&toc(&argv), "toc train");
        let (_, tail) = stdout
            .rsplit_once("training error ")
            .unwrap_or_else(|| panic!("no training error in {stdout}"));
        tail.trim().trim_end_matches('%').to_string()
    };
    let spilled = ["--budget", "0", "--shards", "2"];
    let want = error(csv_arg, &[]);
    assert_eq!(error(csv_arg, &spilled), want, "csv, spilled");
    assert_eq!(error(v2_arg, &[]), want, "v2");
    assert_eq!(error(v2_arg, &spilled), want, "v2, spilled");
    assert_eq!(error(GOLDEN_V1, &spilled), error(GOLDEN_V1, &[]), "v1");

    let stdout = assert_ok(
        &toc(&[
            "serve",
            csv_arg,
            "--jobs",
            "1",
            "--epochs",
            "3",
            "--batch-rows",
            "50",
        ]),
        "toc serve",
    );
    let job = stdout.lines().find(|l| l.starts_with("job: ")).unwrap();
    assert_eq!(parse_kv(job)["err-pct"], want, "{job}");
    for p in [csv, v2, back] {
        std::fs::remove_file(p).ok();
    }
}

/// `toc serve --script`: one job per line with per-job overrides.
#[test]
fn serve_script_mode() {
    let csv = gen_csv(300);
    let script = temp_path("jobs", "txt");
    std::fs::write(
        &script,
        "# two jobs, different models and shares\n\
         name=alpha model=lr epochs=2 seed=7 share=2\n\
         name=beta model=svm epochs=1 lr=0.1\n",
    )
    .unwrap();
    let out = toc(&[
        "serve",
        csv.to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
        "--batch-rows",
        "100",
        "--shards",
        "2",
    ]);
    let stdout = assert_ok(&out, "toc serve --script");
    let jobs: Vec<HashMap<String, String>> = stdout
        .lines()
        .filter(|l| l.starts_with("job: "))
        .map(parse_kv)
        .collect();
    assert_eq!(jobs.len(), 2, "one job per script line:\n{stdout}");
    assert_eq!(jobs[0]["name"], "alpha");
    assert_eq!(jobs[0]["seed"], "7");
    assert_eq!(jobs[0]["share"], "2");
    assert_eq!(jobs[1]["name"], "beta");
    assert_eq!(jobs[1]["model"], "svm");
    assert_eq!(jobs[1]["epochs"], "1");

    // A bad script line is a clean error, not a bogus run.
    std::fs::write(&script, "name=x bogus-key=1\n").unwrap();
    assert_fails(
        &toc(&[
            "serve",
            csv.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
        ]),
        "serve with unknown script key",
    );
    // So is an unknown model, before any data is loaded or spilled.
    std::fs::write(&script, "name=a model=lr\nname=b model=nn\n").unwrap();
    let out = toc(&[
        "serve",
        csv.to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
    ]);
    assert_fails(&out, "serve with unknown script model");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown model \"nn\""), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("store:"), "store built first: {stdout}");
}

/// `toc ingest`: stream a CSV through the bounded-memory chunked encoder
/// into a seekable v2 container. The `ingest:` stats line parses, the
/// result is a normal container (`inspect`/`decompress`/`train` all
/// work), and with a fixed scheme the streamed file is byte-identical to
/// the one `toc compress` writes with the same segment size.
#[test]
fn ingest_streams_csv_into_seekable_container() {
    let csv = gen_csv(300);
    let streamed = temp_path("streamed", "tocz");
    let compressed = temp_path("oneshot", "tocz");
    let back = temp_path("ingest-back", "csv");

    let stdout = assert_ok(
        &toc(&[
            "ingest",
            csv.to_str().unwrap(),
            streamed.to_str().unwrap(),
            "--chunk-rows",
            "64",
        ]),
        "toc ingest",
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("ingest:"))
        .unwrap_or_else(|| panic!("no ingest: line in {stdout}"));
    let kv = parse_kv(line);
    assert_eq!(kv["rows"], "300", "{line}");
    assert_eq!(kv["chunks"], "5", "{line}"); // ceil(300/64)
    assert_eq!(kv["chunk-rows"], "64", "{line}");
    let cols: usize = kv["cols"].parse().expect("cols parses");
    assert!(cols >= 2, "{line}");
    let bytes: u64 = kv["bytes"].parse().expect("bytes parses");
    assert_eq!(bytes, std::fs::metadata(&streamed).unwrap().len(), "{line}");
    let peak: u64 = kv["peak-workspace-bytes"].parse().expect("peak parses");
    // Bounded: the workspace held ~one chunk, nowhere near the dataset.
    assert!(peak >= 1, "{line}");
    assert!(
        peak < 300 * cols as u64 * 8,
        "workspace held the dataset: {line}"
    );
    assert!(!kv["schemes"].is_empty(), "{line}");

    // The streamed file is a first-class container.
    let stdout = assert_ok(
        &toc(&["inspect", streamed.to_str().unwrap()]),
        "inspect streamed",
    );
    assert!(
        stdout.contains(": v2,"),
        "streamed file is not v2: {stdout}"
    );
    assert_ok(
        &toc(&[
            "decompress",
            streamed.to_str().unwrap(),
            back.to_str().unwrap(),
        ]),
        "decompress streamed",
    );
    assert_ok(
        &toc(&["train", streamed.to_str().unwrap(), "--epochs", "1"]),
        "train off streamed container",
    );

    // `compress` is `ingest` without a sidecar: same scheme, same chunk
    // rows, same bytes.
    for scheme in ["toc", "csr", "gzip"] {
        assert_ok(
            &toc(&[
                "ingest",
                csv.to_str().unwrap(),
                streamed.to_str().unwrap(),
                "--chunk-rows",
                "64",
                "--scheme",
                scheme,
            ]),
            "toc ingest --scheme",
        );
        assert_ok(
            &toc(&[
                "compress",
                csv.to_str().unwrap(),
                compressed.to_str().unwrap(),
                "--scheme",
                scheme,
                "--segment-rows",
                "64",
            ]),
            "toc compress --segment-rows 64",
        );
        assert_eq!(
            std::fs::read(&streamed).unwrap(),
            std::fs::read(&compressed).unwrap(),
            "{scheme}: ingest and compress wrote different containers"
        );
    }
    for p in [csv, streamed, compressed, back] {
        std::fs::remove_file(p).ok();
    }
}

/// Malformed CSV input to `toc ingest` exits nonzero with the structured
/// row-level error and leaves no truncated output file behind.
#[test]
fn ingest_rejects_malformed_csv_and_removes_partial_output() {
    let bad = temp_path("bad", "csv");
    let out_path = temp_path("bad-out", "tocz");
    // Row 2 has a non-numeric cell; with --chunk-rows 1 the first row has
    // already been sealed and written when the error hits.
    std::fs::write(&bad, "1,2\n3,x\n").unwrap();
    let out = toc(&[
        "ingest",
        bad.to_str().unwrap(),
        out_path.to_str().unwrap(),
        "--chunk-rows",
        "1",
    ]);
    assert_fails(&out, "ingest of malformed CSV");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("row 2") && stderr.contains("bad number"),
        "expected the structured row error, got: {stderr}"
    );
    assert!(
        !out_path.exists(),
        "a truncated container was left behind on error"
    );

    // Ragged rows report the offending row and shape.
    std::fs::write(&bad, "1,2,3\n4,5\n").unwrap();
    let out = toc(&["ingest", bad.to_str().unwrap(), out_path.to_str().unwrap()]);
    assert_fails(&out, "ingest of ragged CSV");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("row 2 has 2 fields, expected 3"),
        "expected the shape error, got: {stderr}"
    );
    assert!(!out_path.exists(), "partial output survived a shape error");
    std::fs::remove_file(&bad).ok();
}

/// `toc ingest --resume`: kill a checkpointing run mid-stream (via the
/// library's kill seam — same code path the binary runs), then let the
/// real binary resume it. The resumed container must be byte-identical
/// to an uninterrupted binary run and the sidecar must be gone.
#[test]
fn ingest_resume_completes_killed_run_byte_identically() {
    use toc_data::ingest::{ingest_csv_container_killable, KillPoint};
    use toc_data::{sidecar_path, CsvContainerJob};

    let csv = gen_csv(300);
    let full = temp_path("full", "tocz");
    let killed = temp_path("killed", "tocz");

    assert_ok(
        &toc(&[
            "ingest",
            csv.to_str().unwrap(),
            full.to_str().unwrap(),
            "--chunk-rows",
            "64",
            "--checkpoint-every",
            "2",
        ]),
        "uninterrupted checkpointing ingest",
    );
    assert!(!sidecar_path(&full).exists(), "sidecar survived success");
    let expect = std::fs::read(&full).unwrap();

    // Same configuration the binary derives from these flags.
    let job = CsvContainerJob {
        csv: csv.clone(),
        out: killed.clone(),
        chunk_rows: 64,
        scheme: None,
        encode: Default::default(),
        checkpoint_every: 2,
    };
    let outcome =
        ingest_csv_container_killable(&job, false, Some(KillPoint::AfterSealedChunk { chunks: 3 }))
            .unwrap();
    assert!(outcome.killed.is_some(), "kill point did not fire");
    assert!(sidecar_path(&killed).exists(), "no sidecar to resume from");

    let stdout = assert_ok(
        &toc(&[
            "ingest",
            csv.to_str().unwrap(),
            killed.to_str().unwrap(),
            "--chunk-rows",
            "64",
            "--checkpoint-every",
            "2",
            "--resume",
        ]),
        "toc ingest --resume",
    );
    let kv = parse_kv(
        stdout
            .lines()
            .find(|l| l.starts_with("ingest:"))
            .unwrap_or_else(|| panic!("no ingest: line in {stdout}")),
    );
    assert_eq!(kv["rows"], "300", "{stdout}");
    assert_eq!(kv["chunks"], "5", "{stdout}");
    let resumed: u64 = kv["resumed-chunks"].parse().expect("resumed-chunks parses");
    // Killed after chunk 3, last checkpoint at chunk 2: two chunks survive.
    assert_eq!(resumed, 2, "{stdout}");
    assert_eq!(
        std::fs::read(&killed).unwrap(),
        expect,
        "resumed container differs from the uninterrupted one"
    );
    assert!(!sidecar_path(&killed).exists(), "sidecar survived resume");

    // --resume with checkpointing explicitly disabled is a flag error.
    assert_fails(
        &toc(&[
            "ingest",
            csv.to_str().unwrap(),
            killed.to_str().unwrap(),
            "--resume",
            "--checkpoint-every",
            "0",
        ]),
        "--resume with --checkpoint-every 0",
    );
    for p in [csv, full, killed] {
        std::fs::remove_file(p).ok();
    }
}

/// With checkpointing active, a mid-stream error must *keep* the partial
/// output and sidecar (they are the resume artifact); fixing the source
/// past the checkpoint and rerunning with --resume completes the
/// container without re-reading the already-ingested prefix.
#[test]
fn ingest_error_with_checkpointing_leaves_resumable_state() {
    use toc_data::sidecar_path;

    let csv = temp_path("fixable", "csv");
    let out_path = temp_path("fixable-out", "tocz");
    let fresh = temp_path("fixable-fresh", "tocz");
    // Rows 1–2 each seal a chunk and checkpoint; row 3 is garbage.
    std::fs::write(&csv, "1,2\n3,4\n5,x\n7,8\n").unwrap();
    let out = toc(&[
        "ingest",
        csv.to_str().unwrap(),
        out_path.to_str().unwrap(),
        "--chunk-rows",
        "1",
        "--checkpoint-every",
        "1",
    ]);
    assert_fails(&out, "ingest of broken CSV with checkpointing");
    assert!(
        out_path.exists(),
        "checkpointed partial output must survive the error"
    );
    assert!(
        sidecar_path(&out_path).exists(),
        "sidecar must survive the error"
    );

    // Fix the bad cell. Bytes before the checkpointed source offset are
    // untouched, so the resume continues instead of restarting.
    std::fs::write(&csv, "1,2\n3,4\n5,6\n7,8\n").unwrap();
    let stdout = assert_ok(
        &toc(&[
            "ingest",
            csv.to_str().unwrap(),
            out_path.to_str().unwrap(),
            "--chunk-rows",
            "1",
            "--resume",
            "--checkpoint-every",
            "1",
        ]),
        "resume after fixing the CSV",
    );
    let kv = parse_kv(
        stdout
            .lines()
            .find(|l| l.starts_with("ingest:"))
            .unwrap_or_else(|| panic!("no ingest: line in {stdout}")),
    );
    assert_eq!(kv["rows"], "4", "{stdout}");
    let resumed: u64 = kv["resumed-chunks"].parse().expect("resumed-chunks");
    assert_eq!(resumed, 2, "both pre-error chunks restored: {stdout}");
    assert!(!sidecar_path(&out_path).exists());

    // The repaired file matches a from-scratch ingest of the fixed CSV.
    assert_ok(
        &toc(&[
            "ingest",
            csv.to_str().unwrap(),
            fresh.to_str().unwrap(),
            "--chunk-rows",
            "1",
        ]),
        "fresh ingest of the fixed CSV",
    );
    assert_eq!(
        std::fs::read(&out_path).unwrap(),
        std::fs::read(&fresh).unwrap(),
        "resumed-after-fix container differs from a fresh ingest"
    );
    for p in [csv, out_path, fresh] {
        std::fs::remove_file(p).ok();
    }
}

/// `toc train --follow` against a file another process is appending to:
/// the trainer tails the CSV on disk, ingests rows as they land, and the
/// final summary covers everything that was ever written.
#[test]
fn train_follow_tails_a_file_grown_by_another_process() {
    use std::io::Write as _;

    let csv = temp_path("tail", "csv");
    let total = 400usize;
    let row = |r: usize| {
        let y = if r.is_multiple_of(3) { 1 } else { -1 };
        format!(
            "{},{},{},{y}\n",
            (r % 7) as f64 * 0.5,
            (r % 11) as f64 - 5.0,
            (r % 3) as f64,
        )
    };
    let mut head = String::from("f0,f1,f2,y\n");
    for r in 0..150 {
        head.push_str(&row(r));
    }
    std::fs::write(&csv, &head).unwrap();

    let child = std::process::Command::new(env!("CARGO_BIN_EXE_toc"))
        .args([
            "train",
            csv.to_str().unwrap(),
            "--follow",
            "--budget",
            "0",
            "--shards",
            "2",
            "--batch-rows",
            "50",
            "--window",
            "2",
            "--max-pending",
            "2",
            "--poll-ms",
            "2",
            "--idle-ms",
            "400",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn toc train --follow");

    // Grow the file from this process while the trainer tails it.
    let mut f = std::fs::OpenOptions::new().append(true).open(&csv).unwrap();
    for burst in 0..5 {
        std::thread::sleep(std::time::Duration::from_millis(40));
        let lo = 150 + burst * 50;
        for r in lo..lo + 50 {
            f.write_all(row(r).as_bytes()).unwrap();
        }
        f.flush().unwrap();
    }
    drop(f);

    let out = child.wait_with_output().expect("toc train --follow exits");
    let stdout = assert_ok(&out, "toc train --follow (live tail)");
    let ingest = parse_kv(
        stdout
            .lines()
            .find(|l| l.starts_with("ingest:"))
            .unwrap_or_else(|| panic!("no ingest: line in {stdout}")),
    );
    assert_eq!(ingest["rows"], total.to_string(), "{stdout}");
    assert_eq!(ingest["chunks"], "8", "{stdout}"); // 400 / 50
    let bp = parse_kv(
        stdout
            .lines()
            .find(|l| l.starts_with("backpressure:"))
            .unwrap_or_else(|| panic!("no backpressure: line in {stdout}")),
    );
    assert_eq!(bp["max-pending"], "2", "{stdout}");
    let peak: usize = bp["peak-pending"].parse().expect("peak-pending parses");
    assert!(peak <= 2, "producer outran its budget: {stdout}");
    let _stall: u64 = bp["stall-ms"].parse().expect("stall-ms parses");
    let online = parse_kv(
        stdout
            .lines()
            .find(|l| l.starts_with("online:"))
            .unwrap_or_else(|| panic!("no online: line in {stdout}")),
    );
    assert_eq!(online["consumed"], "8", "{stdout}");
    assert!(stdout.contains("training error"), "{stdout}");

    // Follow-only flags are rejected without --follow, and a finished
    // container cannot be tailed.
    assert_fails(
        &toc(&[
            "train",
            csv.to_str().unwrap(),
            "--budget",
            "0",
            "--max-pending",
            "2",
        ]),
        "--max-pending without --follow",
    );
    std::fs::remove_file(csv).ok();
}

/// `toc train --follow`: rows stream into a live store while the online
/// pass trains concurrently; the ingest:/window:/online: lines parse and
/// tile the stream, and the flag interacts correctly with --budget.
#[test]
fn train_follow_streams_and_reports_windows() {
    let csv = gen_csv(400);
    let stdout = assert_ok(
        &toc(&[
            "train",
            csv.to_str().unwrap(),
            "--follow",
            "--budget",
            "0",
            "--shards",
            "2",
            "--batch-rows",
            "50",
            "--window",
            "3",
        ]),
        "toc train --follow",
    );
    let ingest = parse_kv(
        stdout
            .lines()
            .find(|l| l.starts_with("ingest:"))
            .unwrap_or_else(|| panic!("no ingest: line in {stdout}")),
    );
    assert_eq!(ingest["rows"], "400", "{stdout}");
    assert_eq!(ingest["chunks"], "8", "{stdout}"); // 400 / 50
    let windows: Vec<HashMap<String, String>> = stdout
        .lines()
        .filter(|l| l.starts_with("window:"))
        .map(parse_kv)
        .collect();
    assert_eq!(windows.len(), 3, "8 batches / window 3 => 3+3+2:\n{stdout}");
    // Windows tile the batch stream back to back.
    let mut expect_start = 0usize;
    for (i, w) in windows.iter().enumerate() {
        let (start, end) = w["batches"]
            .split_once("..")
            .unwrap_or_else(|| panic!("unparseable window range: {w:?}"));
        assert_eq!(start.parse::<usize>().unwrap(), expect_start, "window {i}");
        expect_start = end.parse().unwrap();
        let err: f64 = w["error"].parse().expect("window error parses");
        assert!((0.0..=1.0).contains(&err), "window {i}: {err}");
    }
    assert_eq!(expect_start, 8, "windows did not cover the stream");
    let online = parse_kv(
        stdout
            .lines()
            .find(|l| l.starts_with("online:"))
            .unwrap_or_else(|| panic!("no online: line in {stdout}")),
    );
    assert_eq!(online["windows"], "3", "{stdout}");
    assert_eq!(online["consumed"], "8", "{stdout}");
    let during: usize = online["windows-during-ingest"].parse().expect("during");
    assert!(during <= 3, "{stdout}");
    assert!(
        stdout.contains("training error"),
        "no final summary line: {stdout}"
    );

    // The follower always reports its backpressure counters (unbounded
    // here: max-pending=0).
    let bp = parse_kv(
        stdout
            .lines()
            .find(|l| l.starts_with("backpressure:"))
            .unwrap_or_else(|| panic!("no backpressure: line in {stdout}")),
    );
    assert_eq!(bp["max-pending"], "0", "{stdout}");
    let _peak: usize = bp["peak-pending"].parse().expect("peak-pending parses");

    // Flag plumbing: --follow needs --budget, --window needs --follow,
    // and a finished .tocz container cannot be tailed.
    assert_fails(
        &toc(&["train", csv.to_str().unwrap(), "--follow"]),
        "--follow without --budget",
    );
    assert_fails(
        &toc(&[
            "train",
            csv.to_str().unwrap(),
            "--budget",
            "0",
            "--window",
            "4",
        ]),
        "--window without --follow",
    );
    let tocz = temp_path("follow", "tocz");
    assert_ok(
        &toc(&["compress", csv.to_str().unwrap(), tocz.to_str().unwrap()]),
        "compress for follow rejection",
    );
    assert_fails(
        &toc(&["train", tocz.to_str().unwrap(), "--follow", "--budget", "0"]),
        "--follow on a .tocz container",
    );
    for p in [csv, tocz] {
        std::fs::remove_file(p).ok();
    }
}

/// A non-`.tocz` input to a container-reading path must be reported as
/// "not a .tocz container", not as a bogus "unsupported version N" taken
/// from whatever its fifth byte happens to be.
#[test]
fn non_container_input_reports_bad_magic() {
    let csv = gen_csv(50);
    let out = toc(&["inspect", csv.to_str().unwrap()]);
    assert_fails(&out, "inspect on a CSV");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a .tocz container"),
        "expected a magic-check error, got: {stderr}"
    );
    assert!(
        !stderr.contains("unsupported"),
        "must not misreport a CSV as an unsupported container version: {stderr}"
    );
    // `decompress` writes rows as it decodes them; an input that fails
    // part of the way leaves no truncated CSV behind.
    let tocz = temp_path("torn", "tocz");
    let back = temp_path("torn-back", "csv");
    assert_ok(
        &toc(&[
            "compress",
            csv.to_str().unwrap(),
            tocz.to_str().unwrap(),
            "--segment-rows",
            "10",
        ]),
        "toc compress",
    );
    let mut bytes = std::fs::read(&tocz).unwrap();
    bytes[100] ^= 0xff; // inside an early segment; the footer still parses
    std::fs::write(&tocz, bytes).unwrap();
    let out = toc(&["decompress", tocz.to_str().unwrap(), back.to_str().unwrap()]);
    assert_fails(&out, "decompress of a corrupt segment");
    assert!(!back.exists(), "a truncated CSV was left behind");
    for p in [csv, tocz] {
        std::fs::remove_file(p).ok();
    }
}

/// stderr of a run that must exit 1.
fn stderr_of_failure(args: &[&str]) -> String {
    let out = toc(args);
    assert_fails(&out, &format!("toc {args:?}"));
    assert_eq!(out.status.code(), Some(1), "toc {args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The parser rejects what a command's flag table does not declare —
/// where the old front end silently fell back to a default, kept the
/// first of two values, or accepted a flag nothing read — and the error
/// names the flag and the command.
#[test]
fn undeclared_misspelt_repeated_and_inert_flags_exit_1_naming_the_flag() {
    let csv = gen_csv(120);
    let d = csv.to_str().unwrap();
    let err = stderr_of_failure(&["train", d, "--epoch", "1"]);
    assert!(
        err.contains("toc train") && err.contains("unknown flag --epoch"),
        "{err}"
    );
    let err = stderr_of_failure(&["train", d, "--epochs"]);
    assert!(err.contains("--epochs needs a value"), "{err}");
    let err = stderr_of_failure(&["train", d, "--epochs", "1", "--epochs", "7"]);
    assert!(err.contains("--epochs given more than once"), "{err}");
    // Flags another command owns.
    let err = stderr_of_failure(&["ingest", d, "/tmp/unused.tocz", "--epochs", "3"]);
    assert!(err.contains("unknown flag --epochs"), "{err}");
    let err = stderr_of_failure(&["serve", d, "--prefetch", "8"]);
    assert!(err.contains("unknown flag --prefetch"), "{err}");
    // Inert flags: serve never starts a prefetch engine, and a streaming
    // store has nothing for the pipeline to prefetch.
    let err = stderr_of_failure(&["serve", d, "--io", "ring"]);
    assert!(err.contains("toc serve") && err.contains("--io"), "{err}");
    let err = stderr_of_failure(&["train", d, "--follow", "--budget", "0", "--prefetch", "4"]);
    assert!(
        err.contains("--prefetch has no effect with --follow"),
        "{err}"
    );
    // The removed aliases and the pinning flags are unknown flags now.
    for flag in ["--adaptive", "--pin", "--pin-map"] {
        let err = stderr_of_failure(&["train", d, "--budget", "0", flag]);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
    let err = stderr_of_failure(&["compress", d, "/tmp/unused.tocz", "--codec", "ans"]);
    assert!(err.contains("unknown flag --codec"), "{err}");
    // Wrong positional count.
    let err = stderr_of_failure(&["train"]);
    assert!(err.contains("expected 1 positional"), "{err}");
    std::fs::remove_file(csv).ok();
}

/// `toc <cmd> --help` exits 0 for every command and lists exactly the
/// flags that command accepts (which also pins the per-command counts).
#[test]
fn every_command_prints_generated_help_listing_its_flags() {
    let cla = ["--cla-planner", "--cla-sample"];
    let encode = ["--scheme", "--batch-rows"];
    let model = ["--model", "--epochs", "--lr"];
    let store = ["--budget", "--shards", "--mbps", "--placement"];
    let pipeline = ["--prefetch", "--io", "--io-threads", "--decode-workers"];
    let follow = [
        "--follow",
        "--window",
        "--max-pending",
        "--poll-ms",
        "--idle-ms",
    ];
    let serve = [
        "--jobs",
        "--script",
        "--max-concurrent",
        "--cache-budget",
        "--shares",
        "--seed",
    ];
    let table: [(&str, Vec<&str>); 8] = [
        ("gen", vec!["--preset", "--rows", "--seed"]),
        (
            "ingest",
            [
                &["--chunk-rows", "--scheme", "--checkpoint-every", "--resume"][..],
                &cla,
            ]
            .concat(),
        ),
        (
            "compress",
            [&["--scheme", "--segment-rows"][..], &cla].concat(),
        ),
        ("decompress", vec!["--rows", "--parallel"]),
        ("inspect", vec![]),
        ("bench", [&["--batch-rows"][..], &cla].concat()),
        (
            "train",
            [&encode[..], &cla, &model, &store, &pipeline, &follow].concat(),
        ),
        (
            "serve",
            [&encode[..], &cla, &model, &store, &serve].concat(),
        ),
    ];
    for (cmd, flags) in table {
        for help in ["--help", "-h"] {
            let stdout = assert_ok(&toc(&[cmd, help]), &format!("toc {cmd} {help}"));
            assert!(stdout.starts_with(&format!("toc {cmd}")), "{stdout}");
            let listed: Vec<&str> = stdout
                .lines()
                .filter_map(|l| l.split_whitespace().next())
                .filter(|t| t.starts_with("--"))
                .collect();
            let mut want = flags.clone();
            let mut got = listed.clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "toc {cmd} {help}");
        }
    }
    // `toc help` names every command.
    let stdout = assert_ok(&toc(&["help"]), "toc help");
    for cmd in [
        "gen",
        "ingest",
        "compress",
        "decompress",
        "inspect",
        "bench",
        "train",
        "serve",
    ] {
        assert!(stdout.contains(&format!("toc {cmd} ")), "{stdout}");
    }
}
