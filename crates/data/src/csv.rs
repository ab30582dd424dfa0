//! Streaming numeric CSV: offset-tracked row iteration, resumable from
//! a byte offset, and a tail-follow mode over a growing file.
//!
//! Deliberately small: comma-separated `f64` cells, optional header line
//! (auto-detected: a first line with any non-numeric field is treated as
//! a header), one matrix row per line. The reader exists in this crate —
//! not the CLI — because the ingestion pipeline needs two properties a
//! plain line loop cannot give it:
//!
//! * **Byte offsets per row.** A checkpoint sidecar records the source
//!   offset of the last *sealed* chunk so `toc ingest --resume` can seek
//!   straight back to it and re-read only the rows that were staged but
//!   not yet durable ([`CsvStream::offset`], [`CsvStream::open_at`]).
//! * **Tail-follow.** `toc train --follow` consumes a log that another
//!   process is still appending: poll for growth, never parse a torn
//!   (unterminated) final line until the stream actually ends, re-open
//!   from the top when the file is truncated under us, and keep
//!   EOF-versus-error structurally distinct ([`follow_rows`],
//!   [`CsvError`]).

use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `(rows, cols, header)` summary returned by the streaming readers.
pub type StreamSummary = (usize, usize, Option<Vec<String>>);

/// Per-row callback: `(row_index, fields)`; an `Err` aborts the stream.
pub type RowSink<'a> = &'a mut dyn FnMut(usize, &[f64]) -> Result<(), String>;

/// Structured CSV stream error: IO failures are distinct from parse
/// failures and from sink aborts, so a follower can tell "the file went
/// away" from "the file contains garbage" (EOF itself is not an error —
/// the streaming APIs report it as `Ok(None)` / a normal return).
#[derive(Debug)]
pub enum CsvError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A line was structurally bad: ragged width, unparsable number,
    /// or an empty stream.
    Parse(String),
    /// The per-row sink aborted the stream.
    Sink(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "{e}"),
            CsvError::Parse(m) | CsvError::Sink(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// An incremental CSV reader over one open file, tracking the byte
/// offset of everything consumed so far. [`CsvStream::next_row`] only
/// commits newline-terminated lines; a trailing unterminated line is
/// carried across calls (the torn tail of a file that is still being
/// appended) until [`CsvStream::finish_partial`] flushes it at true end
/// of stream.
pub struct CsvStream {
    reader: BufReader<std::fs::File>,
    /// Byte offset one past the last *committed* line (header or row).
    offset: u64,
    /// Carried bytes of an unterminated final line, not yet committed.
    carry: String,
    cols: usize,
    header: Option<Vec<String>>,
    rows: usize,
    /// Header auto-detection is pending (fresh stream, nothing read).
    at_start: bool,
    row_buf: Vec<f64>,
}

impl CsvStream {
    /// Open a fresh stream at the top of the file (header auto-detect).
    pub fn open(path: &Path) -> Result<Self, CsvError> {
        Self::open_at(path, 0, 0)
    }

    /// Open positioned at `offset` with a known column count — the
    /// resume path: the checkpoint already consumed the header and
    /// `offset` bytes of rows. With `offset == 0` the stream is fresh
    /// and `cols` (if nonzero) is enforced on the first data line.
    pub fn open_at(path: &Path, offset: u64, cols: usize) -> Result<Self, CsvError> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if offset > len {
            return Err(CsvError::Parse(format!(
                "resume offset {offset} past end of {} ({len} bytes)",
                path.display()
            )));
        }
        if offset > 0 {
            file.seek(SeekFrom::Start(offset))?;
        }
        Ok(Self {
            reader: BufReader::new(file),
            offset,
            carry: String::new(),
            cols,
            header: None,
            rows: 0,
            at_start: offset == 0,
            row_buf: Vec::new(),
        })
    }

    /// Byte offset one past the last committed line. After `next_row`
    /// returns a row, this is exactly the offset to store in a
    /// checkpoint for re-opening with [`CsvStream::open_at`].
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Data rows committed so far.
    pub fn rows_read(&self) -> usize {
        self.rows
    }

    /// Column count (0 until the first data line commits).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The auto-detected header, if one was seen.
    pub fn header(&self) -> Option<&[String]> {
        self.header.as_deref()
    }

    fn parse_fields(&mut self, trimmed: &str) -> Result<bool, CsvError> {
        // Returns true when the line committed a data row (false:
        // header or blank).
        if trimmed.is_empty() {
            return Ok(false);
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if self.at_start {
            self.at_start = false;
            if fields.iter().any(|f| f.parse::<f64>().is_err()) {
                self.header = Some(fields.iter().map(|s| s.to_string()).collect());
                if self.cols == 0 {
                    self.cols = fields.len();
                }
                return Ok(false);
            }
            if self.cols == 0 {
                self.cols = fields.len();
            }
        }
        if fields.len() != self.cols {
            return Err(CsvError::Parse(format!(
                "row {} has {} fields, expected {}",
                self.rows + 1,
                fields.len(),
                self.cols
            )));
        }
        self.row_buf.clear();
        for fld in &fields {
            self.row_buf.push(fld.parse::<f64>().map_err(|e| {
                CsvError::Parse(format!("row {}: bad number {fld:?}: {e}", self.rows + 1))
            })?);
        }
        self.rows += 1;
        Ok(true)
    }

    /// Read the next newline-terminated data row. `Ok(None)` means the
    /// reader is at (possibly temporary) end of stream — any
    /// unterminated trailing bytes stay carried, uncommitted, so a
    /// follower can retry after the writer finishes the line.
    pub fn next_row(&mut self) -> Result<Option<(usize, &[f64])>, CsvError> {
        loop {
            let n = self.reader.read_line(&mut self.carry)?;
            if n == 0 {
                return Ok(None);
            }
            if !self.carry.ends_with('\n') {
                // Torn tail: the writer has not finished this line yet.
                // Keep it carried; nothing is committed.
                return Ok(None);
            }
            let line = std::mem::take(&mut self.carry);
            self.offset += line.len() as u64;
            let trimmed = line.trim_end_matches(['\n', '\r']);
            let committed = self.parse_fields(trimmed)?;
            if committed {
                let idx = self.rows - 1;
                // The borrow of row_buf ends the loop.
                return Ok(Some((idx, &self.row_buf)));
            }
        }
    }

    /// Commit a trailing unterminated line, if any — called exactly once
    /// when the stream has truly ended (the writer is done, so the torn
    /// tail is actually a complete final row without a newline).
    pub fn finish_partial(&mut self) -> Result<Option<(usize, &[f64])>, CsvError> {
        if self.carry.is_empty() {
            return Ok(None);
        }
        let line = std::mem::take(&mut self.carry);
        self.offset += line.len() as u64;
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if self.parse_fields(trimmed)? {
            return Ok(Some((self.rows - 1, &self.row_buf)));
        }
        Ok(None)
    }

    /// Bytes currently carried as a torn (unterminated) tail.
    pub fn carried_bytes(&self) -> usize {
        self.carry.len()
    }
}

/// Stream a numeric CSV row by row without materializing the matrix:
/// `f(row_index, values)` is called once per data row with a reused
/// buffer, so peak memory is one row. Returns `(rows, cols, header)`;
/// an empty stream is a [`CsvError::Parse`] ("empty CSV").
pub fn stream_rows(path: &Path, f: RowSink<'_>) -> Result<StreamSummary, CsvError> {
    let mut s = CsvStream::open(path)?;
    loop {
        let done = match s.next_row()? {
            Some((i, row)) => {
                let r = f(i, row);
                r.map_err(CsvError::Sink)?;
                false
            }
            None => true,
        };
        if done {
            break;
        }
    }
    if let Some((i, row)) = s.finish_partial()? {
        f(i, row).map_err(CsvError::Sink)?;
    }
    if s.rows_read() == 0 {
        return Err(CsvError::Parse("empty CSV".into()));
    }
    Ok((s.rows_read(), s.cols(), s.header().map(|h| h.to_vec())))
}

/// Knobs for [`follow_rows`]: how often to poll a quiet file for
/// growth, and how long it must stay quiet before the stream is
/// declared over.
#[derive(Clone, Copy, Debug)]
pub struct FollowOptions {
    /// Sleep between polls when no new complete line is available.
    pub poll: Duration,
    /// End the stream after this long with no growth (and commit a
    /// trailing unterminated line, if any).
    pub idle_timeout: Duration,
}

impl Default for FollowOptions {
    fn default() -> Self {
        Self {
            poll: Duration::from_millis(10),
            idle_timeout: Duration::from_millis(400),
        }
    }
}

/// Follow a growing CSV file: stream every committed row as it appears,
/// polling for growth, and keep going until the file has been idle for
/// `opts.idle_timeout` **and** `more()` has returned false (pass
/// `&mut || false` to rely on the idle timeout alone). Torn final lines
/// are never parsed mid-stream; when the file shrinks (log rotation /
/// truncation) the reader re-opens from the top and continues — row
/// indices stay monotonic across the re-open. Returns the same summary
/// as [`stream_rows`], except that an empty stream is reported as
/// `(0, 0, None)` rather than an error (a follower outliving an empty
/// log is normal, not malformed input).
pub fn follow_rows(
    path: &Path,
    opts: &FollowOptions,
    more: &mut dyn FnMut() -> bool,
    f: RowSink<'_>,
) -> Result<StreamSummary, CsvError> {
    let mut s = CsvStream::open(path)?;
    let mut rows_total = 0usize;
    let mut cols = 0usize;
    let mut header: Option<Vec<String>> = None;
    let mut last_progress = Instant::now();
    loop {
        match s.next_row() {
            Ok(Some((_, row))) => {
                let owned_idx = rows_total;
                f(owned_idx, row).map_err(CsvError::Sink)?;
                rows_total += 1;
                cols = s.cols();
                if header.is_none() {
                    header = s.header().map(|h| h.to_vec());
                }
                last_progress = Instant::now();
                continue;
            }
            Ok(None) => {}
            Err(e) => return Err(e),
        }
        // No complete line available. Truncated under us?
        let len = std::fs::metadata(path)?.len();
        if len < s.offset() + s.carried_bytes() as u64 {
            // Rotation: start over from the top of the new file, fresh
            // header detection, same expected width once known.
            s = CsvStream::open_at(path, 0, cols)?;
            last_progress = Instant::now();
            continue;
        }
        let idle = last_progress.elapsed() >= opts.idle_timeout;
        if idle && !more() {
            break;
        }
        std::thread::sleep(opts.poll);
    }
    if let Some((_, row)) = s.finish_partial()? {
        f(rows_total, row).map_err(CsvError::Sink)?;
        rows_total += 1;
        cols = s.cols();
    }
    if header.is_none() {
        header = s.header().map(|h| h.to_vec());
    }
    Ok((rows_total, cols, header))
}

/// A fully materialized CSV: `(rows, cols, row-major data, header)`.
pub type CsvContents = (usize, usize, Vec<f64>, Option<Vec<String>>);

/// Read a numeric CSV into `(rows, cols, data, header)` — the
/// materializing convenience on top of [`stream_rows`].
pub fn read_all(path: &Path) -> Result<CsvContents, CsvError> {
    let mut data: Vec<f64> = Vec::new();
    let (rows, cols, header) = stream_rows(path, &mut |_, row| {
        data.extend_from_slice(row);
        Ok(())
    })?;
    Ok((rows, cols, data, header))
}

/// Owned path + position of a follower, for re-opening (exposed for
/// checkpoint plumbing and tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourcePosition {
    pub path: PathBuf,
    pub offset: u64,
    pub cols: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "toc-data-csv-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn offsets_resume_mid_file() {
        let p = tmp("resume.csv");
        std::fs::write(&p, "a,b\n1,2\n3,4\n5,6\n").unwrap();
        let mut s = CsvStream::open(&p).unwrap();
        let (i, row) = s.next_row().unwrap().unwrap();
        assert_eq!((i, row), (0, &[1.0, 2.0][..]));
        let mark = s.offset();
        let cols = s.cols();
        drop(s);
        // Re-open at the recorded offset: the remaining rows stream with
        // no header re-detection.
        let mut s = CsvStream::open_at(&p, mark, cols).unwrap();
        let mut seen = Vec::new();
        while let Some((_, row)) = s.next_row().unwrap() {
            seen.push(row.to_vec());
        }
        assert_eq!(seen, vec![vec![3.0, 4.0], vec![5.0, 6.0]]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_tail_is_not_committed_until_finish() {
        let p = tmp("torn.csv");
        std::fs::write(&p, "1,2\n3,").unwrap();
        let mut s = CsvStream::open(&p).unwrap();
        assert_eq!(s.next_row().unwrap().unwrap().1, &[1.0, 2.0][..]);
        assert!(s.next_row().unwrap().is_none());
        assert_eq!(s.rows_read(), 1);
        // The writer "finishes" the line; the reader picks it up whole.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(b"4\n").unwrap();
        }
        assert_eq!(s.next_row().unwrap().unwrap().1, &[3.0, 4.0][..]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn finish_partial_commits_unterminated_final_row() {
        let p = tmp("partial.csv");
        std::fs::write(&p, "1,2\n3,4").unwrap();
        let (rows, cols, _) = stream_rows(&p, &mut |_, _| Ok(())).unwrap();
        assert_eq!((rows, cols), (2, 2));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn follow_streams_rows_appended_by_a_writer_thread() {
        let p = tmp("follow.csv");
        std::fs::write(&p, "x,y\n").unwrap();
        let path = p.clone();
        let writer = std::thread::spawn(move || {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            for i in 0..20 {
                // Torn writes on purpose: the line lands in two pieces.
                let line = format!("{i},{}\n", i * 2);
                let (a, b) = line.split_at(line.len() / 2);
                f.write_all(a.as_bytes()).unwrap();
                f.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
                f.write_all(b.as_bytes()).unwrap();
                f.flush().unwrap();
            }
        });
        let mut seen = Vec::new();
        let opts = FollowOptions {
            poll: Duration::from_millis(2),
            idle_timeout: Duration::from_millis(200),
        };
        let (rows, cols, header) = follow_rows(&p, &opts, &mut || false, &mut |i, row| {
            seen.push((i, row.to_vec()));
            Ok(())
        })
        .unwrap();
        writer.join().unwrap();
        assert_eq!((rows, cols), (20, 2));
        assert_eq!(header.unwrap(), vec!["x", "y"]);
        for (i, (idx, row)) in seen.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(row, &vec![i as f64, (i * 2) as f64]);
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn follow_reopens_after_truncation() {
        let p = tmp("trunc.csv");
        std::fs::write(&p, "1,1\n2,2\n").unwrap();
        let path = p.clone();
        let truncated = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let t2 = truncated.clone();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            // Log rotation: replace the file with fresh, shorter content.
            std::fs::write(&path, "7,7\n").unwrap();
            t2.store(true, std::sync::atomic::Ordering::Release);
            std::thread::sleep(Duration::from_millis(30));
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"8,8\n").unwrap();
        });
        let mut seen = Vec::new();
        let opts = FollowOptions {
            poll: Duration::from_millis(5),
            idle_timeout: Duration::from_millis(250),
        };
        let (rows, _, _) = follow_rows(&p, &opts, &mut || false, &mut |i, row| {
            seen.push((i, row.to_vec()));
            Ok(())
        })
        .unwrap();
        writer.join().unwrap();
        assert!(truncated.load(std::sync::atomic::Ordering::Acquire));
        // Rows before rotation plus the rewritten file's rows, indices
        // monotonic throughout.
        assert_eq!(rows, seen.len());
        assert!(seen.iter().enumerate().all(|(i, (idx, _))| i == *idx));
        assert!(seen.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        let tail: Vec<Vec<f64>> = seen
            .iter()
            .rev()
            .take(2)
            .rev()
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(tail, vec![vec![7.0, 7.0], vec![8.0, 8.0]]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn read_all_detects_header_and_rejects_malformed_input() {
        let p = tmp("read-all.csv");
        std::fs::write(&p, "a,b\n1,2\n3,4\n5,6\n").unwrap();
        let mut seen = Vec::new();
        let summary = stream_rows(&p, &mut |i, row| {
            seen.push((i, row.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(summary, (3, 2, Some(vec!["a".into(), "b".into()])));
        assert_eq!(seen[2], (2, vec![5.0, 6.0]));
        let (rows, cols, data, header) = read_all(&p).unwrap();
        assert_eq!((rows, cols), (3, 2));
        assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(header.unwrap(), vec!["a", "b"]);
        // An all-numeric first line is data, not a header.
        std::fs::write(&p, "1.5,0,-2.25\n0,3,0.125\n").unwrap();
        let (rows, cols, _, header) = read_all(&p).unwrap();
        assert_eq!((rows, cols, header), (2, 3, None));
        for (text, want) in [
            ("1,2,3\n4,5\n", "row 2 has 2 fields, expected 3"),
            ("1,2\n3,x\n", "row 2: bad number \"x\""),
            ("", "empty CSV"),
        ] {
            std::fs::write(&p, text).unwrap();
            match read_all(&p) {
                Err(CsvError::Parse(msg)) => assert!(msg.starts_with(want), "{msg}"),
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn io_parse_and_sink_errors_are_distinct() {
        let missing = tmp("missing.csv");
        assert!(matches!(
            stream_rows(&missing, &mut |_, _| Ok(())),
            Err(CsvError::Io(_))
        ));
        let ragged = tmp("ragged.csv");
        std::fs::write(&ragged, "1,2,3\n4,5\n").unwrap();
        assert!(matches!(
            stream_rows(&ragged, &mut |_, _| Ok(())),
            Err(CsvError::Parse(_))
        ));
        let fine = tmp("fine.csv");
        std::fs::write(&fine, "1,2\n").unwrap();
        assert!(matches!(
            stream_rows(&fine, &mut |_, _| Err("stop".into())),
            Err(CsvError::Sink(_))
        ));
        std::fs::remove_file(&ragged).ok();
        std::fs::remove_file(&fine).ok();
    }
}
