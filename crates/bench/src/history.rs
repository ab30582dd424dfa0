//! `BENCH_*.json` history files: a static header object whose LAST key is
//! `"history": [ ... ]`, one entry per benchmark run, so committed
//! baselines accumulate per PR instead of being overwritten. Every entry
//! is the same envelope (`pr`, `date`, `git`, `host`, `note`) around the
//! binary's own payload, rendered in one place: [`envelope`]. The JSON is
//! hand-rolled (no serde in the workspace); [`crate::json`] reads it back.

use crate::Args;
use std::io::Write;

/// Today's UTC date as `YYYY-MM-DD`, computed straight from the system
/// clock (no chrono in the workspace). Days-to-civil conversion follows
/// the standard era-based algorithm.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Escape `s` for the inside of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `git describe --always --dirty` of the working directory.
fn git_head() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host's CPU model name.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One history entry: the envelope every `BENCH_*.json` shares around
/// `payload`, the caller's own `"key": value` lines (indented six spaces,
/// joined by `,\n`, no trailing comma).
pub fn envelope(pr: u32, note: &str, payload: &str) -> String {
    format!(
        "    {{\n      \"pr\": {pr},\n      \"date\": \"{}\",\n      \"git\": \"{}\",\n      \"host\": {{\"cores\": {}, \"model\": \"{}\"}},\n      \"note\": \"{}\",\n{}\n    }}",
        today_utc(),
        json_escape(&git_head()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_escape(&cpu_model()),
        json_escape(note),
        payload.trim_end(),
    )
}

/// Append `entry` to the history file at `path`.
///
/// If `path` already holds a history file, `entry` is spliced in before
/// the array's closing bracket (the two-space-indented `]` that closes
/// the top-level array — deeper-nested arrays inside entries are
/// indented further and never match). Otherwise the file is created as
/// `fresh_header` + the one-entry history. `entry` must be the complete
/// JSON object for this run, indented four spaces, no trailing newline
/// or comma; `fresh_header` must open the top-level object and end just
/// before the `"history"` key (trailing `,\n` included).
///
/// The new contents go to `<path>.tmp`, are synced, and replace `path`
/// by rename, so a run killed mid-write leaves the committed history
/// whole (and at most a stale `.tmp`, which the next run overwrites).
pub fn append_history(path: &str, fresh_header: &str, entry: &str) -> std::io::Result<()> {
    const CLOSE: &str = "\n  ]\n}";
    let entry = entry.trim_end();
    let out = match std::fs::read_to_string(path) {
        Ok(existing) if existing.contains("\"history\": [") => {
            let i = existing.rfind(CLOSE).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{path}: history file has no closing bracket"),
                )
            })?;
            format!("{},\n{entry}{}", &existing[..i], &existing[i..])
        }
        _ => format!("{fresh_header}  \"history\": [\n{entry}\n  ]\n}}\n"),
    };
    let tmp = format!("{path}.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(out.as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()
}

/// Where and how a binary records its run: `--out=` (default: the
/// committed file at the repo root), `--pr=` and `--note=`. Read from the
/// arguments before anything is measured, used once at the end.
pub struct History {
    pub out: String,
    pr: u32,
    note: String,
}

impl History {
    pub fn from_args(args: &mut Args, file: &str) -> Self {
        let default = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        Self {
            out: args.get("out", default),
            pr: args.get("pr", 0),
            note: args.get("note", String::new()),
        }
    }

    /// Append one enveloped entry (see [`envelope`] for `payload`).
    pub fn append(&self, fresh_header: &str, payload: &str) {
        append_history(
            &self.out,
            fresh_header,
            &envelope(self.pr, &self.note, payload),
        )
        .unwrap_or_else(|e| panic!("append to {}: {e}", self.out));
        println!("appended entry to {}", self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn today_is_iso_shaped() {
        let d = today_utc();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
        let year: i64 = d[..4].parse().unwrap();
        assert!(year >= 2024, "{d}");
        let month: u32 = d[5..7].parse().unwrap();
        assert!((1..=12).contains(&month), "{d}");
        let day: u32 = d[8..10].parse().unwrap();
        assert!((1..=31).contains(&day), "{d}");
    }

    #[test]
    fn history_appends_without_clobbering() {
        let path = std::env::temp_dir().join(format!("toc-bench-hist-{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::remove_file(&path).ok();
        let header = "{\n  \"bench\": \"t\",\n";
        // First run creates the file; nested arrays in an entry must not
        // confuse the splice point.
        append_history(
            &path,
            header,
            "    {\"run\": 1, \"sweep\": [\n      {\"x\": 1}\n    ]}",
        )
        .unwrap();
        // A run killed mid-write left half an entry in `.tmp`: the next
        // append starts from the whole committed file, not from it.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, "{\n  \"bench\": \"t\",\n  \"history\": [\n    {\"ru").unwrap();
        append_history(&path, header, "    {\"run\": 2}").unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            got,
            "{\n  \"bench\": \"t\",\n  \"history\": [\n    {\"run\": 1, \"sweep\": [\n      {\"x\": 1}\n    ]},\n    {\"run\": 2}\n  ]\n}\n"
        );
        assert!(!std::path::Path::new(&tmp).exists(), "tmp must be renamed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn envelope_is_one_json_object_around_the_payload() {
        let entry = envelope(
            21,
            "a \"quoted\" note",
            "      \"figure\": \"fig5\",\n      \"x\": 1.5",
        );
        let v = crate::json::parse(&entry).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["pr", "date", "git", "host", "note", "figure", "x"]);
        assert_eq!(v.get("pr").and_then(|p| p.as_f64()), Some(21.0));
        assert_eq!(
            v.get("note").and_then(|n| n.as_str()),
            Some("a \"quoted\" note")
        );
        assert!(v.get("host").and_then(|h| h.get("cores")).is_some());
    }
}
