//! `bench_compare <BENCH_*.json>…`: for every file, and within
//! `BENCH_paper.json` for every `figure`, hold the newest history entry
//! to the one before it. A number is compared when the file's `units`
//! block has an object — `{"what", "better": higher | lower | same,
//! "tolerance"}` — under the name of one of the keys on the number's path
//! (innermost first); `tolerance` is the relative change in the worse
//! direction that passes. Prints which
//! entries were paired (`pr`, `git`, `date`) and every number outside its
//! tolerance; exits 1 if there was one, 2 on a file it cannot read.

use toc_bench::json::{self, Json};

/// One number of an entry: where it sits (array elements named by their
/// string members), the object keys on the way there, and its value.
struct Leaf {
    id: String,
    keys: Vec<String>,
    value: f64,
}

fn flatten(v: &Json, id: &str, keys: &mut Vec<String>, out: &mut Vec<Leaf>) {
    match v {
        Json::Num(value) => out.push(Leaf {
            id: id.to_string(),
            keys: keys.clone(),
            value: *value,
        }),
        Json::Obj(members) => {
            for (key, child) in members {
                keys.push(key.clone());
                flatten(child, &format!("{id}.{key}"), keys, out);
                keys.pop();
            }
        }
        Json::Arr(items) => {
            // An element is named by its string members (`census/DEN`);
            // where that does not tell the elements apart, by position too.
            let names: Vec<String> = items
                .iter()
                .map(|item| {
                    let strings: Vec<&str> = item
                        .as_obj()
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|(_, v)| v.as_str())
                        .collect();
                    strings.join("/")
                })
                .collect();
            let unique = names
                .iter()
                .all(|n| !n.is_empty() && names.iter().filter(|m| *m == n).count() == 1);
            for (i, (item, name)) in items.iter().zip(&names).enumerate() {
                let label = match unique {
                    true => name.clone(),
                    false => format!("{name}#{i}"),
                };
                flatten(item, &format!("{id}[{label}]"), keys, out);
            }
        }
        _ => {}
    }
}

/// The tolerance object that governs `leaf`, if the file states one.
fn unit<'a>(units: &'a Json, leaf: &Leaf) -> Option<&'a Json> {
    let stated = leaf.keys.iter().rev().filter_map(|key| units.get(key));
    stated.into_iter().find(|u| u.get("tolerance").is_some())
}

/// Compare the two newest entries of every figure of one parsed history
/// file; returns the report lines and how many numbers were outside
/// their tolerance.
fn compare(file: &str, doc: &Json) -> (Vec<String>, usize) {
    let units = doc.get("units").cloned().unwrap_or(Json::Null);
    let entries = doc.get("history").and_then(Json::as_arr).unwrap_or(&[]);
    let figure_of = |e: &Json| {
        e.get("figure")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let mut figures: Vec<String> = Vec::new();
    for entry in entries {
        if !figures.contains(&figure_of(entry)) {
            figures.push(figure_of(entry));
        }
    }
    let describe = |e: &Json| {
        let text = |key| match e.get(key) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => format!("{n}"),
            _ => "?".to_string(),
        };
        format!("pr {} ({}, {})", text("pr"), text("git"), text("date"))
    };
    let (mut report, mut outside) = (Vec::new(), 0);
    for figure in figures {
        let series: Vec<&Json> = entries.iter().filter(|e| figure_of(e) == figure).collect();
        let name = format!("{file} {figure}");
        let [.., before, newest] = series[..] else {
            report.push(format!(
                "{}: one entry, nothing to compare",
                name.trim_end()
            ));
            continue;
        };
        let (mut old, mut new) = (Vec::new(), Vec::new());
        flatten(before, "", &mut Vec::new(), &mut old);
        flatten(newest, "", &mut Vec::new(), &mut new);
        let (mut compared, mut lines) = (0, Vec::new());
        for leaf in &new {
            let Some(was) = old.iter().find(|o| o.id == leaf.id) else {
                continue;
            };
            let Some(u) = unit(&units, leaf) else {
                continue;
            };
            compared += 1;
            let better = u.get("better").and_then(Json::as_str).unwrap_or("same");
            let tolerance = u.get("tolerance").and_then(Json::as_f64).unwrap_or(0.0);
            let change = (leaf.value - was.value) / was.value.abs().max(f64::MIN_POSITIVE);
            let worse = match better {
                "higher" => -change,
                "lower" => change,
                _ => change.abs(),
            };
            if worse > tolerance {
                lines.push(format!(
                    "  {}: {} -> {} ({:+.1} %; {better} is better, tolerance {:.1} %)",
                    leaf.id.trim_start_matches('.'),
                    was.value,
                    leaf.value,
                    change * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        report.push(format!(
            "{}: {} -> {}: {compared} numbers compared, {} outside tolerance",
            name.trim_end(),
            describe(before),
            describe(newest),
            lines.len()
        ));
        outside += lines.len();
        report.extend(lines);
    }
    (report, outside)
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: bench_compare <BENCH_*.json>...");
        std::process::exit(2);
    }
    let mut outside = 0;
    for file in &files {
        let doc = std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .unwrap_or_else(|e| {
                eprintln!("error: {file}: {e}");
                std::process::exit(2)
            });
        let (report, n) = compare(file, &doc);
        println!("{}", report.join("\n"));
        outside += n;
    }
    if outside > 0 {
        eprintln!("bench_compare: {outside} numbers outside tolerance");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
      "units": {
        "us": {"what": "kernel time", "better": "lower", "tolerance": 0.5},
        "ratio": {"what": "ratio", "better": "same", "tolerance": 0.001},
        "rows": "documented, not compared",
        "speedup": {"what": "gate", "better": "higher", "tolerance": 0.25}
      },
      "history": [
        {"pr": 1, "git": "aaa", "date": "d1", "figure": "fig8", "speedup": 4.0,
         "us": [{"preset": "census", "scheme": "TOC", "A*M": 10.0, "M*A": 20.0},
                {"preset": "census", "scheme": "DEN", "A*M": 50.0, "M*A": 50.0}]},
        {"pr": 1, "git": "aaa", "date": "d1", "figure": "fig5", "ratio": [{"preset": "census", "rows": "250", "TOC": 31.1}]},
        {"pr": 2, "git": "bbb", "date": "d2", "figure": "fig5", "ratio": [{"preset": "census", "rows": "250", "TOC": 31.1}]},
        {"pr": 2, "git": "bbb", "date": "d2", "figure": "fig8", "speedup": 2.9,
         "us": [{"preset": "census", "scheme": "DEN", "A*M": 74.0, "M*A": 76.0},
                {"preset": "census", "scheme": "TOC", "A*M": 14.0, "M*A": 9.0},
                {"preset": "census", "scheme": "CLA", "A*M": 1.0, "M*A": 1.0}]},
        {"pr": 2, "git": "bbb", "date": "d2", "figure": "fig9", "us": [{"x": 1.0}]}
      ]
    }"#;

    #[test]
    fn newest_entry_is_held_to_the_one_before_per_figure_and_unit() {
        let (report, outside) = compare("f.json", &json::parse(DOC).unwrap());
        let text = report.join("\n");
        // fig8: matched by name, not position; DEN M*A +52 % and the gate
        // -27.5 % are out, DEN A*M +48 % and TOC (faster, +40 %) are in;
        // CLA has no counterpart.
        assert!(
            text.contains(
                "f.json fig8: pr 1 (aaa, d1) -> pr 2 (bbb, d2): 5 numbers compared, 2 outside"
            ),
            "{text}"
        );
        assert!(
            text.contains("us[census/DEN].M*A: 50 -> 76 (+52.0 %; lower"),
            "{text}"
        );
        assert!(
            text.contains("speedup: 4 -> 2.9 (-27.5 %; higher"),
            "{text}"
        );
        assert!(
            text.contains(
                "f.json fig5: pr 1 (aaa, d1) -> pr 2 (bbb, d2): 1 numbers compared, 0 outside"
            ),
            "{text}"
        );
        assert!(
            text.contains("f.json fig9: one entry, nothing to compare"),
            "{text}"
        );
        assert_eq!(outside, 2);
    }

    #[test]
    fn elements_without_distinct_names_pair_by_position() {
        let doc = r#"{"units": {"ms": {"better": "lower", "tolerance": 0.1}},
          "history": [
            {"matrix": [{"engine": "sync", "workers": 1, "ms": 10.0}, {"engine": "sync", "workers": 2, "ms": 5.0}]},
            {"matrix": [{"engine": "sync", "workers": 1, "ms": 10.5}, {"engine": "sync", "workers": 2, "ms": 9.0}]}
          ]}"#;
        let (report, outside) = compare("s.json", &json::parse(doc).unwrap());
        assert_eq!(outside, 1, "{report:?}");
        assert!(
            report[1].contains("matrix[sync#1].ms: 5 -> 9"),
            "{report:?}"
        );
    }
}
