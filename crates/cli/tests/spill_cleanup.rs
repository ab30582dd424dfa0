//! A `toc train` that fails while its store is being built leaves no
//! spill behind: batches reach their shard files as they seal, so an
//! error on the input's last line arrives with the spill already written.

use std::process::Command;

#[test]
fn failed_spilled_build_removes_its_shard_files() {
    let dir = std::env::temp_dir().join(format!("toc-spill-cleanup-{}", std::process::id()));
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    let csv = dir.join("bad.csv");
    let toc = |args: &[&str]| {
        // The spill directory goes under the child's temp dir.
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_toc"));
        cmd.args(args).env("TMPDIR", &tmp);
        cmd.output().expect("spawn toc binary")
    };
    let out = toc(&[
        "gen",
        "--preset",
        "census",
        "--rows",
        "700",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "toc gen: {out:?}");
    let mut text = std::fs::read_to_string(&csv).unwrap();
    text.push_str("1,2,oops\n");
    std::fs::write(&csv, text).unwrap();

    let out = toc(&["train", csv.to_str().unwrap(), "--budget", "0"]);
    assert!(!out.status.success(), "a malformed last line must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("row 701"), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().collect();
    assert!(left.is_empty(), "spill left behind: {left:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
