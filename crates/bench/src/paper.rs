//! What a paper figure is: an id, a seeded measurement that fills grids
//! of cells, and the shapes the paper expects of those cells, each a
//! predicate — or, where the synthetic presets do not reproduce it, a
//! *known deviation* with its reason. [`run`] measures, prints, judges
//! and appends one `BENCH_paper.json` entry per figure; the table itself
//! is [`crate::figures::figures`].

use crate::history::{json_escape, History};
use crate::json::Json;
use crate::{fmt_duration, Table};
use std::time::Duration;

/// What a grid's values are: how they print and which way is better.
#[derive(Clone, Copy)]
pub enum Unit {
    Ratio,
    Accuracy,
    /// Unitless or mixed columns; higher is better where a shape compares.
    Plain,
    Count,
    Micros,
    Millis,
    Seconds,
    Percent,
}

impl Unit {
    fn higher_is_better(self) -> bool {
        matches!(self, Unit::Ratio | Unit::Accuracy | Unit::Plain)
    }

    fn show(self, v: f64) -> String {
        match self {
            Unit::Ratio | Unit::Percent => format!("{v:.1}"),
            Unit::Accuracy => format!("{v:.3}"),
            Unit::Plain | Unit::Seconds => format!("{v:.2}"),
            Unit::Count => format!("{v:.0}"),
            Unit::Micros => fmt_duration(Duration::from_secs_f64(v / 1e6)),
            Unit::Millis => fmt_duration(Duration::from_secs_f64(v / 1e3)),
        }
    }
}

type Line<'a> = (&'a str, &'a str, Vec<(&'a str, f64)>);

/// One table of a figure: values keyed by (group, row, column), printed
/// as one [`Table`] per group and written as one payload array of flat
/// `{group, row, column: value, …}` objects.
pub struct Grid {
    /// Payload key, and the `units` key `bench_compare` looks up.
    pub key: &'static str,
    /// What a group is (`"preset"`, `"workload"`) and what a row is
    /// (`"scheme"`, `"rows"`): the JSON member names and the row header.
    group: &'static str,
    row: &'static str,
    unit: Unit,
    /// Whether the lines a shape compares (schemes, mostly) are this
    /// grid's rows; otherwise they are its columns.
    lines_are_rows: bool,
    cells: Vec<(String, String, String, f64)>,
    /// A payload member in an older series' own shape, written as is in
    /// place of the cells (there are none, and nothing prints).
    raw: Option<String>,
}

impl Grid {
    /// A grid whose columns are the lines shapes compare.
    pub fn new(key: &'static str, group: &'static str, row: &'static str, unit: Unit) -> Self {
        Self {
            key,
            group,
            row,
            unit,
            lines_are_rows: false,
            cells: Vec::new(),
            raw: None,
        }
    }

    /// Payload member `key` with the JSON value `value`, no cells.
    pub fn raw(key: &'static str, value: String) -> Self {
        Self {
            raw: Some(value),
            ..Self::new(key, "", "", Unit::Plain)
        }
    }

    /// The same with the lines as rows (Fig 8 and the tables list schemes
    /// downwards).
    pub fn by_rows(mut self) -> Self {
        self.lines_are_rows = true;
        self
    }

    pub fn push(&mut self, group: impl ToString, row: impl ToString, col: impl ToString, v: f64) {
        self.cells
            .push((group.to_string(), row.to_string(), col.to_string(), v));
    }

    /// The cell at (group, row, col); a shape that names a cell the
    /// measurement did not fill is a bug in the figure table.
    pub fn get(&self, group: &str, row: &str, col: &str) -> f64 {
        self.cells
            .iter()
            .find(|(g, r, c, _)| g == group && r == row && c == col)
            .map(|cell| cell.3)
            .unwrap_or_else(|| panic!("{}: no cell {group} / {row} / {col}", self.key))
    }

    /// The cell of `line` at `point`, the lines being rows or columns.
    fn cell(&self, by_rows: bool, group: &str, line: &str, point: &str) -> f64 {
        match by_rows {
            true => self.get(group, line, point),
            false => self.get(group, point, line),
        }
    }

    /// Distinct values of one key position, in first-seen order.
    fn distinct(&self, pick: fn(&(String, String, String, f64)) -> &String) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !seen.contains(&pick(cell).as_str()) {
                seen.push(pick(cell));
            }
        }
        seen
    }

    /// Every (group, row) with its filled (column, value) cells, in order.
    fn lines(&self) -> Vec<Line<'_>> {
        let mut lines: Vec<Line> = Vec::new();
        for (g, r, c, v) in &self.cells {
            match lines.iter_mut().find(|(lg, lr, _)| lg == g && lr == r) {
                Some(line) => line.2.push((c, *v)),
                None => lines.push((g, r, vec![(c, *v)])),
            }
        }
        lines
    }

    fn print(&self) {
        let (cols, lines) = (self.distinct(|c| &c.2), self.lines());
        for group in self.distinct(|c| &c.0) {
            println!("## {} — {}: {group}", self.key, self.group);
            let header = std::iter::once(self.row).chain(cols.iter().copied());
            let mut table = Table::new(header.collect());
            for (_, row, line) in lines.iter().filter(|l| l.0 == group) {
                let cells = cols.iter().map(|col| {
                    let cell = line.iter().find(|(c, _)| c == col);
                    cell.map_or("-".to_string(), |(_, v)| self.unit.show(*v))
                });
                table.row(std::iter::once(row.to_string()).chain(cells).collect());
            }
            table.print();
            println!();
        }
    }

    fn json(&self) -> String {
        if let Some(value) = &self.raw {
            return format!("      \"{}\": {value}", self.key);
        }
        let objects: Vec<String> = self
            .lines()
            .iter()
            .map(|(group, row, line)| {
                // Counts print whole, measurements with three decimals.
                let values: Vec<String> = line
                    .iter()
                    .map(|(c, v)| match v.fract() == 0.0 {
                        true => format!("\"{}\": {v:.0}", json_escape(c)),
                        false => format!("\"{}\": {v:.3}", json_escape(c)),
                    })
                    .collect();
                format!(
                    "        {{\"{}\": \"{}\", \"{}\": \"{}\", {}}}",
                    self.group,
                    json_escape(group),
                    self.row,
                    json_escape(row),
                    values.join(", ")
                )
            })
            .collect();
        format!(
            "      \"{}\": [\n{}\n      ]",
            self.key,
            objects.join(",\n")
        )
    }
}

/// The grid `key` of a figure's measurement.
fn grid<'a>(grids: &'a [Grid], key: &str) -> &'a Grid {
    let found = grids.iter().find(|g| g.key == key);
    found.unwrap_or_else(|| panic!("no grid {key}"))
}

type Names = &'static [&'static str];

/// One predicate over a grid. `groups` and `points` empty mean all of
/// them; a point is a row where the lines are columns, and the reverse.
struct Check {
    groups: Names,
    points: Names,
    /// Compare along the grid's other axis: its points become the lines.
    across: bool,
    kind: Kind,
}

enum Kind {
    /// Line `a` is at least `factor` × better than each line of `over`
    /// (empty: every other line).
    Beats {
        a: &'static str,
        over: Names,
        factor: f64,
    },
    /// Every one of `lines` (empty: every line) lies in `min ..= max`.
    Within { lines: Names, min: f64, max: f64 },
}

/// `names`, or `all` of them where the table left the list empty.
fn or_all<'a>(names: Names, all: &[&'a str]) -> Vec<&'a str> {
    match names.is_empty() {
        true => all.to_vec(),
        false => names.to_vec(),
    }
}

impl Check {
    /// The cells of `g` that contradict this check, with their values.
    fn against(&self, g: &Grid) -> Vec<String> {
        let by_rows = g.lines_are_rows != self.across;
        let (rows, cols) = (g.distinct(|c| &c.1), g.distinct(|c| &c.2));
        let (all_lines, all_points) = if by_rows { (rows, cols) } else { (cols, rows) };
        let groups = or_all(self.groups, &g.distinct(|c| &c.0));
        let points = or_all(self.points, &all_points);
        let mut found = Vec::new();
        for group in &groups {
            for point in &points {
                match &self.kind {
                    Kind::Beats { a, over, factor } => {
                        for b in or_all(over, &all_lines).into_iter().filter(|b| b != a) {
                            let va = g.cell(by_rows, group, a, point);
                            let vb = g.cell(by_rows, group, b, point);
                            let ok = match g.unit.higher_is_better() {
                                true => va >= vb * factor,
                                false => va * factor <= vb,
                            };
                            if !ok {
                                let (va, vb) = (g.unit.show(va), g.unit.show(vb));
                                found.push(format!("{group} {point}: {a} {va} vs {b} {vb}"));
                            }
                        }
                    }
                    Kind::Within { lines, min, max } => {
                        for line in or_all(lines, &all_lines) {
                            let v = g.cell(by_rows, group, line, point);
                            if !(*min..=*max).contains(&v) {
                                found.push(format!("{group} {point}: {line} {}", g.unit.show(v)));
                            }
                        }
                    }
                }
            }
        }
        found
    }
}

/// One expected shape of a figure: a claim, in the words of the paper's
/// evaluation, and the checks on one grid that make it a predicate.
pub struct Shape {
    pub expect: &'static str,
    grid: &'static str,
    checks: Vec<Check>,
    /// Why the synthetic presets are known not to reproduce the claim: a
    /// failing check then reads `deviates`, not `fails`.
    known: Option<&'static str>,
}

/// A shape over grid `grid`; add its checks with the builder methods.
pub fn on(grid: &'static str, expect: &'static str) -> Shape {
    Shape {
        expect,
        grid,
        checks: Vec::new(),
        known: None,
    }
}

impl Shape {
    fn check(mut self, groups: Names, points: Names, kind: Kind) -> Self {
        self.checks.push(Check {
            groups,
            points,
            across: false,
            kind,
        });
        self
    }

    /// At `groups` × `points`, line `a` is at least `factor` × better
    /// than each line of `over` (empty: than every other line).
    pub fn beats(
        self,
        groups: Names,
        points: Names,
        a: &'static str,
        over: Names,
        factor: f64,
    ) -> Self {
        self.check(groups, points, Kind::Beats { a, over, factor })
    }

    /// At `groups` × `points`, every one of `lines` is in `min ..= max`.
    pub fn within(self, groups: Names, points: Names, lines: Names, min: f64, max: f64) -> Self {
        self.check(groups, points, Kind::Within { lines, min, max })
    }

    /// The check just added compares along the other axis (one scheme at
    /// two sizes, say, where the grid's lines are the schemes).
    pub fn across(mut self) -> Self {
        self.checks.last_mut().expect("a check to turn").across = true;
        self
    }

    /// List the shape as a known deviation, with its reason.
    pub fn deviates(mut self, because: &'static str) -> Self {
        self.known = Some(because);
        self
    }
}

/// One (grid, group, point, lines) the README's fidelity table quotes.
pub type Quote = (&'static str, &'static str, &'static str, Names);

pub struct Figure {
    /// `--figure=` value and the entry's `figure` member: `fig5`, `table6`.
    pub id: &'static str,
    pub title: &'static str,
    pub measure: fn() -> Vec<Grid>,
    pub headline: &'static [Quote],
    pub shapes: Vec<Shape>,
}

/// A shape that did not hold: the cells against it, and the reason if it
/// is a known deviation.
pub struct Failed {
    pub expect: &'static str,
    pub measured: String,
    pub known: Option<&'static str>,
}

/// `holds`, `deviates` (only known deviations failed) or `fails`.
pub fn verdict(failed: &[Failed]) -> &'static str {
    if failed.is_empty() {
        "holds"
    } else if failed.iter().all(|f| f.known.is_some()) {
        "deviates"
    } else {
        "fails"
    }
}

pub fn judge(figure: &Figure, measured: &[Grid]) -> Vec<Failed> {
    let mut failed = Vec::new();
    for shape in &figure.shapes {
        let g = grid(measured, shape.grid);
        let against: Vec<String> = shape.checks.iter().flat_map(|c| c.against(g)).collect();
        if !against.is_empty() {
            failed.push(Failed {
                expect: shape.expect,
                measured: against.join("; "),
                known: shape.known,
            });
        }
    }
    failed
}

fn headline(figure: &Figure, measured: &[Grid]) -> String {
    let quotes = figure.headline.iter().map(|(key, group, point, lines)| {
        let g = grid(measured, key);
        let values: Vec<String> = lines
            .iter()
            .map(|line| {
                let v = g.cell(g.lines_are_rows, group, line, point);
                format!("{line} {}", g.unit.show(v))
            })
            .collect();
        format!("{key} {group} {point}: {}", values.join(", "))
    });
    quotes.collect::<Vec<_>>().join("; ")
}

/// Header of a fresh `BENCH_paper.json`. A `units` member that is an
/// object is what `bench_compare` holds the newest entry of a figure to:
/// `better` is `higher`, `lower` or `same`, `tolerance` the relative
/// change in the worse direction it lets pass. Timings get 1.0 (twice as
/// slow) because the sandbox this history is taken on moves by × 1.5
/// between runs; seeded counts and ratios get none.
pub const HEADER: &str = r#"{
  "bench": "paper",
  "units": {
    "seed": "every figure generates its presets at this seed; sizes, epochs, p = 20, hidden 32 / 16 and the 150 MB/s modelled disk are constants of crates/bench/src/figures.rs",
    "verdict": "holds: every expected shape held; deviates: only shapes listed as known deviations failed (each with its reason); fails: a shape with no listed deviation failed and the run exited non-zero",
    "accuracy": {"what": "fig2: training accuracy after each epoch", "better": "same", "tolerance": 0.0005},
    "ratio": {"what": "DEN bytes / encoded bytes of one batch (fig5, fig6: the first n rows of 250; fig7: the first pct of 4000)", "better": "same", "tolerance": 0.0005},
    "stages": "fig6, census-like at 250 rows: encode microseconds of each pipeline stage, encoded bytes and A*v microseconds under BitPack and Varint (ungated timings)",
    "us": {"what": "fig8: microseconds per kernel call (*_into_ws, one warm ExecScratch, alternating between two batches of the preset); scheme TOC>DEN is decode_into_ws + the DEN kernel", "better": "lower", "tolerance": 1.0},
    "ms": {"what": "fig9, fig10, table6, table7: train_time of two MGD epochs over a one-shard store with a 150 MB/s modelled disk, encoding excluded", "better": "lower", "tolerance": 1.0},
    "threads_ms": {"what": "fig9: train_time of four NN epochs over 4 000 resident mnist-like rows as TOC, serial Trainer::train against train_nn_parallel with 1 and 2 workers, median of five runs; meaningful on >= 2 cores only", "better": "lower", "tolerance": 1.0},
    "spilled": {"what": "batches of the store that did not fit the memory budget (a multiple of the TOC footprint) and are read from the modelled disk", "better": "same", "tolerance": 0},
    "time_s": {"what": "fig11: seconds of training elapsed at the end of each epoch", "better": "lower", "tolerance": 1.0},
    "error_pct": {"what": "fig11: error rate on the held-out fifth after each epoch", "better": "same", "tolerance": 0.02},
    "encode_mb_s": {"what": "fig12: MB/s of dense payload through Scheme::encode of one 250-row batch", "better": "higher", "tolerance": 0.5},
    "decode_mb_s": {"what": "fig12: MB/s of dense payload out of MatrixBatch::decode", "better": "higher", "tolerance": 0.5},
    "gate": "fig12: per leg, the chunked / table-driven decode kernel against the retained *_scalar reference kernel, microseconds; the aggregate speedup is asserted >= 2.0"
  },
"#;

fn entry_payload(figure: &Figure, measured: &[Grid], failed: &[Failed]) -> String {
    let items: Vec<String> = failed
        .iter()
        .map(|f| {
            format!(
                "        {{\"shape\": \"{}\", \"measured\": \"{}\", \"known\": {}}}",
                json_escape(f.expect),
                json_escape(&f.measured),
                f.known
                    .map_or("null".to_string(), |k| format!("\"{}\"", json_escape(k)))
            )
        })
        .collect();
    let list = match items.is_empty() {
        true => "[]".to_string(),
        false => format!("[\n{}\n      ]", items.join(",\n")),
    };
    format!(
        "      \"figure\": \"{}\",\n      \"seed\": {},\n      \"headline\": \"{}\",\n      \"verdict\": \"{}\",\n      \"failed\": {list},\n{}",
        figure.id,
        crate::figures::SEED,
        json_escape(&headline(figure, measured)),
        verdict(failed),
        measured.iter().map(Grid::json).collect::<Vec<_>>().join(",\n")
    )
}

/// Run `only` (or every figure): measure, print, judge, append one entry.
/// The process exit status: 0, 1 when a shape failed that is not a known
/// deviation, 2 for an id the table does not have (before anything is
/// measured).
pub fn run(figures: &[Figure], only: Option<&str>, history: &History) -> i32 {
    let selected: Vec<&Figure> = figures
        .iter()
        .filter(|f| only.is_none_or(|id| id == f.id))
        .collect();
    if selected.is_empty() {
        let ids: Vec<&str> = figures.iter().map(|f| f.id).collect();
        eprintln!(
            "error: --figure={}: expected one of {}",
            only.unwrap_or(""),
            ids.join(", ")
        );
        return 2;
    }
    let mut status = 0;
    for figure in selected {
        println!("# {} (--figure={})\n", figure.title, figure.id);
        let measured = (figure.measure)();
        for grid in &measured {
            grid.print();
        }
        let failed = judge(figure, &measured);
        println!(
            "{} verdict: {} ({} of {} shapes hold)",
            figure.id,
            verdict(&failed),
            figure.shapes.len() - failed.len(),
            figure.shapes.len()
        );
        for f in &failed {
            let tag = f.known.map_or("FAILS", |_| "deviates");
            println!("  {tag}: {}\n    measured: {}", f.expect, f.measured);
            if let Some(because) = f.known {
                println!("    because: {because}");
            }
        }
        history.append(HEADER, &entry_payload(figure, &measured, &failed));
        println!();
        if verdict(&failed) == "fails" {
            status = 1;
        }
    }
    if only.is_none() {
        let text = std::fs::read_to_string(&history.out).expect("history just written");
        let doc = crate::json::parse(&text).expect("history just written");
        println!("{}", fidelity(figures, &doc));
    }
    status
}

/// The README's fidelity table: one row per figure, from the newest
/// entry of `history` (a parsed `BENCH_paper.json`) that carries a
/// verdict.
pub fn fidelity(figures: &[Figure], history: &Json) -> String {
    let entries = history.get("history").and_then(Json::as_arr).unwrap_or(&[]);
    let text = |entry: &Json, key: &str| {
        let member = entry.get(key).and_then(Json::as_str);
        // `|` ends a table cell and `*` (Gzip*, A*M) opens emphasis.
        member.unwrap_or("").replace('|', "\\|").replace('*', "\\*")
    };
    let mut out = String::from(
        "| figure | verdict | headline (seed 42, synthetic presets) | where it deviates, and why |\n|---|---|---|---|\n",
    );
    for figure in figures {
        let newest = entries.iter().rev().find(|e| {
            e.get("figure").and_then(Json::as_str) == Some(figure.id) && e.get("verdict").is_some()
        });
        let Some(entry) = newest else {
            out.push_str(&format!("| {} | not run | | |\n", figure.title));
            continue;
        };
        // A known deviation's reason already says what deviates; any
        // other failed shape is quoted with the cells against it.
        let failed = entry.get("failed").and_then(Json::as_arr).unwrap_or(&[]);
        let notes: Vec<String> = failed
            .iter()
            .map(|item| match item.get("known") {
                Some(Json::Str(_)) => text(item, "known"),
                _ => format!("FAILS {}: {}", text(item, "shape"), text(item, "measured")),
            })
            .collect();
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            figure.title,
            text(entry, "verdict"),
            text(entry, "headline"),
            notes.join("<br>")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::figures;
    use crate::Args;

    const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    const README: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");

    fn committed() -> Json {
        crate::json::parse(&std::fs::read_to_string(COMMITTED).unwrap()).unwrap()
    }

    /// The newest committed entry of `id`.
    fn newest<'a>(doc: &'a Json, id: &str) -> &'a Json {
        let entries = doc.get("history").and_then(Json::as_arr).unwrap();
        entries
            .iter()
            .rev()
            .find(|e| e.get("figure").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("BENCH_paper.json has no {id} entry"))
    }

    #[test]
    fn table_covers_the_evaluation_once() {
        let ids: Vec<&str> = figures().iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            [
                "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                "table6", "table7"
            ]
        );
        for figure in figures() {
            assert!(!figure.shapes.is_empty(), "{} asserts nothing", figure.id);
        }
    }

    /// Figures 5–7 are seeded ratios, no timing: a codec change that
    /// flips one of their shapes must fail here, not only in CI's bench
    /// step. (Fig 6's stage timings carry no shape.) One test each, so
    /// the debug profile runs them side by side.
    fn judges_as_its_newest_committed_entry(id: &str) {
        let figure = figures().into_iter().find(|f| f.id == id).unwrap();
        let failed = judge(&figure, &(figure.measure)());
        let doc = committed();
        let entry = newest(&doc, id);
        let committed: Vec<&str> = entry
            .get("failed")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|i| i.get("shape").and_then(Json::as_str).unwrap())
            .collect();
        let now: Vec<&str> = failed.iter().map(|f| f.expect).collect();
        assert_eq!(committed, now);
        assert_eq!(
            entry.get("verdict").and_then(Json::as_str),
            Some(verdict(&failed))
        );
    }

    #[test]
    fn fig5_judges_as_its_newest_committed_entry() {
        judges_as_its_newest_committed_entry("fig5");
    }

    #[test]
    fn fig6_judges_as_its_newest_committed_entry() {
        judges_as_its_newest_committed_entry("fig6");
    }

    #[test]
    fn fig7_judges_as_its_newest_committed_entry() {
        judges_as_its_newest_committed_entry("fig7");
    }

    /// One cell and one shape over it (TOC compresses: ratio >= 1.2);
    /// the measurement is chosen by the test, not by breaking a codec.
    fn stub_figure(measure: fn() -> Vec<Grid>, known: Option<&'static str>) -> Figure {
        let shape = on("ratio", "TOC compresses").within(&[], &["250"], &["TOC"], 1.2, 1e9);
        Figure {
            id: "stub",
            title: "Stub — one cell",
            measure,
            headline: &[("ratio", "p", "250", &["TOC"])],
            shapes: vec![match known {
                Some(because) => shape.deviates(because),
                None => shape,
            }],
        }
    }

    fn stub_measured(toc: f64) -> Vec<Grid> {
        let mut grid = Grid::new("ratio", "preset", "rows", Unit::Ratio);
        grid.push("p", 250, "TOC", toc);
        vec![grid]
    }

    #[test]
    fn a_failed_shape_fails_the_run_unless_it_is_a_listed_deviation() {
        let out = std::env::temp_dir().join(format!("toc-bench-stub-{}.json", std::process::id()));
        let out = out.to_str().unwrap().to_string();
        std::fs::remove_file(&out).ok();
        let mut args = Args::parse([format!("--out={out}"), "--pr=21".to_string()]).unwrap();
        let history = History::from_args(&mut args, "unused.json");
        args.try_finish().unwrap();

        let good: fn() -> Vec<Grid> = || stub_measured(2.0);
        let bad: fn() -> Vec<Grid> = || stub_measured(0.5);
        assert_eq!(run(&[stub_figure(good, None)], None, &history), 0);
        assert_eq!(run(&[stub_figure(bad, Some("known"))], None, &history), 0);
        assert_eq!(run(&[stub_figure(bad, None)], Some("stub"), &history), 1);
        assert_eq!(run(&[stub_figure(good, None)], Some("fig5"), &history), 2);

        let doc = crate::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let entries = doc.get("history").and_then(Json::as_arr).unwrap();
        let verdicts: Vec<&str> = entries
            .iter()
            .map(|e| e.get("verdict").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(verdicts, ["holds", "deviates", "fails"]);
        let last = &entries[2];
        for key in [
            "pr", "date", "git", "host", "note", "figure", "headline", "ratio",
        ] {
            assert!(last.get(key).is_some(), "entry lacks {key}");
        }
        let failed = last.get("failed").and_then(Json::as_arr).unwrap();
        assert_eq!(
            failed[0].get("shape").and_then(Json::as_str),
            Some("TOC compresses")
        );
        assert_eq!(
            failed[0].get("measured").and_then(Json::as_str),
            Some("p 250: TOC 0.5")
        );
        assert_eq!(failed[0].get("known"), Some(&Json::Null));
        let known = entries[1].get("failed").and_then(Json::as_arr).unwrap();
        assert_eq!(known[0].get("known").and_then(Json::as_str), Some("known"));
        let table = fidelity(&[stub_figure(bad, None)], &doc);
        assert!(
            table.ends_with(
                "| Stub — one cell | fails | ratio p 250: TOC 0.5 | FAILS TOC compresses: p 250: TOC 0.5 |\n"
            ),
            "{table}"
        );
        std::fs::remove_file(&out).ok();
    }

    /// The README's fidelity block is generated: it must be what the
    /// newest committed entries render to, and the committed file's
    /// header what a fresh file would get.
    #[test]
    fn readme_fidelity_block_is_the_committed_history_rendered() {
        let readme = std::fs::read_to_string(README).unwrap();
        let (begin, end) = ("<!-- fidelity:begin -->\n", "<!-- fidelity:end -->");
        let start = readme.find(begin).expect("README has the fidelity block") + begin.len();
        let block = &readme[start..start + readme[start..].find(end).unwrap()];
        assert_eq!(
            block,
            fidelity(&figures(), &committed()),
            "regenerate the block: `paper` prints it after a full run"
        );
        let text = std::fs::read_to_string(COMMITTED).unwrap();
        assert!(
            text.starts_with(HEADER),
            "BENCH_paper.json header differs from paper::HEADER"
        );
    }
}
