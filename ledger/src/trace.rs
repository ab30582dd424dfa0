//! Span recorder for the traced run. Spans are recorded from the
//! benchmark's side of the public API, around the calls into each layer:
//! name, start, end, the span that caused it, and the op (one repetition
//! of the workload) they all belong to. They stay in memory until the
//! run ends, then go to `<target>/ledger/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

/// Parent id of a span nothing caused.
pub const ROOT: u32 = 0;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one ([`ROOT`] for none).
    pub parent: u32,
    /// Shared by every span of one op.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Timestamps are nanoseconds since `origin`,
/// which recorders on different threads share so their spans line up.
pub struct Recorder {
    origin: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `first_id` keeps ids of recorders on different threads disjoint.
    pub fn new(origin: Instant, first_id: u32) -> Self {
        assert!(first_id > ROOT);
        Self {
            origin,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserve the id of a span that will be closed later, so children
    /// recorded meanwhile can name it as their parent.
    pub fn open(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record the span reserved as `id`.
    pub fn close(&mut self, id: u32, name: &'static str, parent: u32, op: u32, t: (u64, u64)) {
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: t.0,
            end_ns: t.1,
        });
    }

    /// Record a finished span with no children of its own.
    pub fn leaf(&mut self, name: &'static str, parent: u32, op: u32, t: (u64, u64)) {
        let id = self.open();
        self.close(id, name, parent, op, t);
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of that interval its child spans cover (children are
/// clipped to the parent and overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// Summed self time per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// A trace file keeps at most this many spans (the first ops of the
/// run); `spans_total` in its header says how many the run recorded.
const MAX_SPANS_WRITTEN: usize = 100_000;

/// Write the trace file for one run.
pub fn write_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_spans(&mut w, workload, seed, spans)?;
    w.flush()
}

fn write_spans(
    w: &mut impl Write,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    write!(
        w,
        "{{\"workload\": {}, \"seed\": {seed}, \"spans_total\": {}, \"spans\": [",
        quote(workload),
        spans.len()
    )?;
    for (i, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
        write!(
            w,
            "{}\n{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.parent,
            s.op,
            quote(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(w, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, ROOT, "op", 0, 100),
            span(2, 1, "chunk", 10, 60),
            span(3, 2, "seal", 20, 50),
            span(4, 1, "chunk", 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        let by = self_by_name(&spans);
        assert_eq!(by["op"], 20);
        assert_eq!(by["chunk"], 50);
        assert_eq!(by["seal"], 30);
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(by.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = [
            span(1, ROOT, "visit", 100, 200),
            span(2, 1, "a", 110, 150),
            span(3, 1, "b", 140, 170), // overlaps a by 10
            span(4, 1, "c", 190, 250), // runs 50 past the parent
            span(5, 1, "d", 120, 130), // inside a
        ];
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_recorded_before_their_parent_still_attach() {
        // `open` reserves the parent's id; the parent is pushed last.
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 1);
        let parent = rec.open();
        rec.leaf("step", parent, 7, (5, 25));
        rec.close(parent, "visit", ROOT, 7, (0, 40));
        assert_eq!(rec.spans[1].id, parent);
        assert_eq!(self_by_name(&rec.spans)["visit"], 20);
        assert_eq!(durations(&rec.spans, "step"), vec![20.0]);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let spans = [span(1, ROOT, "op", 0, 9), span(2, 1, "seal", 1, 4)];
        let mut out = Vec::new();
        write_spans(&mut out, "ingest-toc", 42, &spans).unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(doc.get("spans_total").and_then(|v| v.as_f64()), Some(2.0));
        let written = doc.get("spans").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(written.len(), 2);
        assert_eq!(
            written[1].get("name").and_then(|v| v.as_str()),
            Some("seal")
        );
        assert_eq!(written[1].get("parent").and_then(|v| v.as_f64()), Some(1.0));
    }
}
