//! Streaming numeric CSV: offset-tracked row iteration, resumable from
//! a byte offset, a tail-follow mode over a growing file, and framing:
//! whole lines cut into blocks to be parsed elsewhere.
//!
//! Deliberately small: comma-separated `f64` cells, optional header line
//! (auto-detected: a first non-blank line with any non-numeric field is
//! treated as a header), one matrix row per line; blank lines (`\r*\n`)
//! are skipped and not counted. The reader exists in this crate — not the
//! CLI — because the ingestion pipeline needs what a plain line loop
//! cannot give it:
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
//! * **Framing.** The CSV → container ingest
//!   ([`crate::ingest::ingest_csv_container`]) parses on its seal
//!   workers. Its caller only *frames*: `CsvStream::frame_rows` appends
//!   the whole lines of up to `n` data rows to a text block as they lie in
//!   the file, finding each line's end eight bytes at a time and looking
//!   at no cell (only a fresh stream's first non-blank line, for the
//!   header, which it leaves out of the block). It advances
//!   [`CsvStream::offset`] and [`CsvStream::rows_read`] exactly as
//!   [`CsvStream::next_row`] would over the same rows, so a block's end is
//!   the offset a checkpoint records, and an unterminated last line is
//!   framed at true end of stream with a newline lent to the block, as
//!   [`CsvStream::finish_partial`] commits it. A worker parses the block
//!   with the scan `next_row` runs, numbering rows from the stream's count
//!   before the block, so its error is the one `next_row` would give.
//!
//! # What a cell is, and how it is converted
//!
//! One grammar, wherever a line is parsed. A cell's value is, by
//! definition, `str::trim` followed by `str::parse::<f64>` on the bytes
//! between two delimiters; a cell that is not UTF-8 or does not parse is
//! a [`CsvError::BadNumber`]. The reader scans bytes where the read buffer
//! (or a framed block) holds them (no `String`, no per-row or per-field
//! allocation) and converts most cells without calling `parse` at all:
//!
//! * **Fast path grammar** — after trimming spaces and tabs:
//!   `[+-]? digit* ('.' digit*)?` with 1 to 15 digits in total and at
//!   most 17 bytes. No exponent, no `inf` / `nan`.
//! * **Why the result is exact** — the digits read as an integer
//!   `m < 10^15 < 2^53` and the power `10^k` (`k <= 15` fraction digits)
//!   are both exactly representable doubles, the cell's value is exactly
//!   `m / 10^k`, and IEEE-754 division rounds the exact quotient
//!   correctly: the same bits the correctly rounded `parse` returns
//!   (Clinger 1990's exact case). Multiplying by `10^-k` would round
//!   twice and is not equivalent.
//! * **Everything else** — a longer cell (decided on length before a
//!   digit is looked at), an exponent, `inf`, `nan`, a second `.`, no
//!   digit, whitespace other than space / tab, any non-ASCII byte — is
//!   handed to the definition itself, so the language accepted and every
//!   value produced are those of `trim` + `parse`. The fast path only
//!   ever *declines*; it has no error of its own.
//!
//! Errors keep their order: a line with the wrong number of fields is
//! [`CsvError::Ragged`] ("row N has X fields, expected Y") even if it also
//! holds a bad number. Any line the scan finds irregular is re-read by the
//! whole-line routine, which checks the width first and the numbers
//! second.

use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `(rows, cols, header)` summary returned by the streaming readers.
pub type StreamSummary = (usize, usize, Option<Vec<String>>);

/// Per-row callback: `(row_index, fields)`; an `Err` aborts the stream.
pub type RowSink<'a> = &'a mut dyn FnMut(usize, &[f64]) -> Result<(), SinkError>;

/// Why a [`RowSink`] aborted the stream.
#[derive(Debug)]
pub enum SinkError {
    /// Storing the row failed: a store's spill or shard write.
    Io(std::io::Error),
    /// The row has no feature column beside the label.
    NoFeatures {
        /// Fields in the row.
        fields: usize,
    },
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Io(e) => write!(f, "{e}"),
            SinkError::NoFeatures { fields } => write!(
                f,
                "a row of {fields} field(s): need at least one feature column plus the label column"
            ),
        }
    }
}

impl std::error::Error for SinkError {}

impl From<std::io::Error> for SinkError {
    fn from(e: std::io::Error) -> Self {
        SinkError::Io(e)
    }
}

/// A cell that is not a number, by the definition (`str::trim` +
/// `str::parse::<f64>`). Displays as the cell quoted and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell's bytes are not UTF-8; `cell` is their lossy text.
    NotUtf8 {
        cell: String,
        source: std::str::Utf8Error,
    },
    /// `str::parse::<f64>` refused the trimmed `cell`.
    NotANumber {
        cell: String,
        source: std::num::ParseFloatError,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::NotUtf8 { cell, source } => write!(f, "{cell:?}: {source}"),
            CellError::NotANumber { cell, source } => write!(f, "{cell:?}: {source}"),
        }
    }
}

impl std::error::Error for CellError {}

/// Structured CSV stream error: IO failures are distinct from parse
/// failures and from sink aborts, so a follower can tell "the file went
/// away" from "the file contains garbage" (EOF itself is not an error —
/// the streaming APIs report it as `Ok(None)` / a normal return).
#[derive(Debug)]
pub enum CsvError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// Data row `row` (1-based) has `fields` cells where the first line
    /// fixed `expected`.
    Ragged {
        row: usize,
        fields: usize,
        expected: usize,
    },
    /// The first non-blank line holds a non-numeric cell, so it is a
    /// header, but it is not UTF-8 text.
    HeaderNotText(std::str::Utf8Error),
    /// A resume offset lies past the end of the file.
    OffsetPastEnd {
        offset: u64,
        path: PathBuf,
        len: u64,
    },
    /// The stream holds no data row.
    Empty,
    /// A cell of data row `row` (1-based) is not a number.
    BadNumber { row: usize, cell: CellError },
    /// The per-row sink aborted the stream.
    Sink(SinkError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "{e}"),
            CsvError::Ragged {
                row,
                fields,
                expected,
            } => write!(f, "row {row} has {fields} fields, expected {expected}"),
            CsvError::HeaderNotText(e) => write!(f, "row 1: header is not text: {e}"),
            CsvError::OffsetPastEnd { offset, path, len } => write!(
                f,
                "resume offset {offset} past end of {} ({len} bytes)",
                path.display()
            ),
            CsvError::Empty => write!(f, "empty CSV"),
            CsvError::BadNumber { row, cell } => write!(f, "row {row}: bad number {cell}"),
            CsvError::Sink(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Capacity of the read buffer. A line that lies inside one fill is
/// scanned where it is; 64 KiB holds some 300 census-like rows, so the
/// one line per fill that straddles a refill (and is copied to `carry`)
/// is noise, and the buffer still fits in L2 beside a staged chunk.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Most digits the fast path converts. `10^15 < 2^53`, so a 15-digit
/// integer and every `10^k` with `k <= 15` are exact doubles; a 16-digit
/// one can exceed `2^53` (`9007199254740993`) and has to be rounded by
/// `parse`.
const FAST_MAX_DIGITS: usize = 15;

/// Longest trimmed cell the fast path looks at: a sign, 15 digits and
/// one `.`. A longer cell cannot match its grammar, so it is declined
/// on length alone — 17-significant-digit data (deep1b-like) never pays
/// for a digit loop that is bound to fail — and the cap keeps the digit
/// accumulator far below `u64::MAX`.
const FAST_MAX_BYTES: usize = FAST_MAX_DIGITS + 2;

/// `POW10[k] == 10^k`, exact for every `k <= FAST_MAX_DIGITS`.
const POW10: [f64; FAST_MAX_DIGITS + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// The definition of a cell's value: `str::trim` + `str::parse::<f64>`.
fn parse_text(field: &[u8]) -> Result<f64, CellError> {
    match std::str::from_utf8(field) {
        Ok(s) => {
            let t = s.trim();
            t.parse().map_err(|source| CellError::NotANumber {
                cell: t.to_string(),
                source,
            })
        }
        Err(source) => Err(CellError::NotUtf8 {
            cell: String::from_utf8_lossy(field).into_owned(),
            source,
        }),
    }
}

/// The exact fast path (module docs): `Some(value)` with the bits
/// `parse` returns, or `None` to decline. `field` is already trimmed of
/// spaces and tabs.
#[inline]
fn parse_decimal(field: &[u8]) -> Option<f64> {
    if field.len() > FAST_MAX_BYTES {
        return None;
    }
    let (negative, body) = match field {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, field),
    };
    // At most 17 digits: `m` cannot overflow.
    let mut m = 0u64;
    let digit = |i: usize| {
        body.get(i)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
    };
    let mut i = 0usize;
    while let Some(d) = digit(i) {
        m = m * 10 + u64::from(d);
        i += 1;
    }
    let mut digits = i;
    let mut fraction = 0usize;
    if body.get(i) == Some(&b'.') {
        i += 1;
        while let Some(d) = digit(i) {
            m = m * 10 + u64::from(d);
            i += 1;
            fraction += 1;
        }
        digits += fraction;
    }
    if i != body.len() || digits == 0 || digits > FAST_MAX_DIGITS {
        return None;
    }
    let v = m as f64 / POW10[fraction];
    Some(if negative { -v } else { v })
}

/// A cell the fast path declined, through the definition.
#[cold]
fn slow_field(field: &[u8], declined: &mut u64) -> Option<f64> {
    *declined += 1;
    parse_text(field).ok()
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `w` that is `byte`. A borrow only
/// travels upward from a true match, so bytes above one may be flagged
/// too, but the lowest flagged byte is exact.
#[inline]
fn bytes_equal(w: u64, byte: u8) -> u64 {
    let x = w ^ (LO * byte as u64);
    x.wrapping_sub(LO) & !x & HI
}

/// Index of the first byte at or after `from` that `flags` marks, or
/// `buf.len()`. Eight bytes at a time: a cell of 17-digit text is three
/// words, not twenty compares, and a short cell's end falls out of one
/// word without a data-dependent loop exit.
#[inline]
fn find_first(buf: &[u8], from: usize, flags: impl Fn(u64) -> u64) -> usize {
    let mut p = from;
    while let Some(word) = buf.get(p..p + 8) {
        let hit = flags(u64::from_le_bytes(word.try_into().expect("8-byte slice")));
        if hit != 0 {
            return p + (hit.trailing_zeros() / 8) as usize;
        }
        p += 8;
    }
    // The last bytes one at a time, each as the low byte of a word: that
    // byte's flag is exact.
    while p < buf.len() && flags(u64::from(buf[p])) & 0x80 == 0 {
        p += 1;
    }
    p
}

/// Index of the first `,` or `\n` at or after `from`, or `buf.len()`.
#[inline]
fn field_end(buf: &[u8], from: usize) -> usize {
    find_first(buf, from, |w| bytes_equal(w, b',') | bytes_equal(w, b'\n'))
}

/// Index of the first `\n` at or after `from`, or `buf.len()`.
#[inline]
fn line_end(buf: &[u8], from: usize) -> usize {
    find_first(buf, from, |w| bytes_equal(w, b'\n'))
}

/// `line` without the `\r`s at its end.
fn strip_cr(mut line: &[u8]) -> &[u8] {
    while let [rest @ .., b'\r'] = line {
        line = rest;
    }
    line
}

/// What [`RowParser::scan`] found at the front of a buffer.
enum Scan {
    /// No newline yet: the line continues past the buffer.
    Partial,
    /// One whole line of `len` bytes, newline included. `Ok(true)`: a
    /// data row is in `row_buf`; `Ok(false)`: blank line or header.
    Line {
        len: usize,
        row: Result<bool, CsvError>,
    },
}

/// What framing makes of one whole line.
enum LineKind {
    /// Nothing but `\r`s before the newline.
    Blank,
    /// A fresh stream's first non-blank line, found to be a header.
    Header,
    /// A data row, counted but not converted.
    Row,
}

/// The half of [`CsvStream`] that does not touch the file, so a line
/// can be scanned while the reader's buffer is borrowed.
struct RowParser {
    cols: usize,
    header: Option<Vec<String>>,
    rows: usize,
    /// Header auto-detection is pending (fresh stream, nothing read).
    at_start: bool,
    row_buf: Vec<f64>,
    /// Cells of committed rows that `parse_decimal` declined.
    slow_fields: u64,
}

impl RowParser {
    /// A parser for a stream at data row `rows`, `cols` wide (0: fixed by
    /// the first line), that detects a header first when `at_start`.
    fn new(cols: usize, rows: usize, at_start: bool) -> Self {
        Self {
            cols,
            header: None,
            rows,
            at_start,
            row_buf: Vec::new(),
            slow_fields: 0,
        }
    }

    /// Classify one whole line, its newline left out, converting no cell
    /// of a data row: only a fresh stream's first non-blank line is
    /// looked into ([`RowParser::detect_header`]).
    fn frame(&mut self, line: &[u8]) -> Result<LineKind, CsvError> {
        let line = strip_cr(line);
        if line.is_empty() {
            return Ok(LineKind::Blank);
        }
        if self.at_start && self.detect_header(line)? {
            return Ok(LineKind::Header);
        }
        self.rows += 1;
        Ok(LineKind::Row)
    }

    /// Scan the line that starts at `buf[0]`: one pass that finds each
    /// cell's end, trims it and converts it straight into `row_buf`.
    fn scan(&mut self, buf: &[u8]) -> Scan {
        // Blank line: nothing but `\r`s before the newline.
        let blank = buf.iter().take_while(|&&b| b == b'\r').count();
        match buf.get(blank) {
            None => return Scan::Partial,
            Some(b'\n') => {
                return Scan::Line {
                    len: blank + 1,
                    row: Ok(false),
                }
            }
            Some(_) => {}
        }
        if self.at_start {
            let Some(end) = buf.iter().position(|&b| b == b'\n') else {
                return Scan::Partial;
            };
            match self.detect_header(strip_cr(&buf[..end])) {
                // A data line: scanned below like every other.
                Ok(false) => {}
                header => {
                    return Scan::Line {
                        len: end + 1,
                        row: header.map(|_| false),
                    }
                }
            }
        }
        if self.row_buf.len() != self.cols {
            self.row_buf.resize(self.cols, 0.0);
        }
        let mut filled = 0usize;
        let mut declined = 0u64;
        let mut start = 0usize;
        loop {
            let end = field_end(buf, start);
            let Some(&delimiter) = buf.get(end) else {
                return Scan::Partial;
            };
            let last = delimiter == b'\n';
            let mut field = &buf[start..end];
            if last {
                field = strip_cr(field);
            }
            while let [b' ' | b'\t', rest @ ..] = field {
                field = rest;
            }
            while let [rest @ .., b' ' | b'\t'] = field {
                field = rest;
            }
            let value = match parse_decimal(field) {
                Some(v) => Some(v),
                None => slow_field(field, &mut declined),
            };
            // A bad number, or one cell more than the width.
            let (Some(v), Some(slot)) = (value, self.row_buf.get_mut(filled)) else {
                return self.irregular(buf, end);
            };
            *slot = v;
            filled += 1;
            if last {
                if filled != self.cols {
                    return self.irregular(buf, end);
                }
                self.rows += 1;
                self.slow_fields += declined;
                return Scan::Line {
                    len: end + 1,
                    row: Ok(true),
                };
            }
            start = end + 1;
        }
    }

    /// The first non-blank line of a fresh stream: a header iff any of
    /// its cells fails [`parse_text`]. Fixes `cols` if the caller did
    /// not.
    fn detect_header(&mut self, line: &[u8]) -> Result<bool, CsvError> {
        self.at_start = false;
        let fields = || line.split(|&b| b == b',');
        let is_header = fields().any(|f| parse_text(f).is_err());
        if is_header {
            // A header must be text.
            let text = std::str::from_utf8(line).map_err(CsvError::HeaderNotText)?;
            self.header = Some(text.split(',').map(|f| f.trim().to_string()).collect());
        }
        if self.cols == 0 {
            self.cols = fields().count();
        }
        Ok(is_header)
    }

    /// The scan met a cell it could not place in the line whose newline
    /// is at or after `from`: the whole line goes to
    /// [`RowParser::parse_fields`].
    #[cold]
    fn irregular(&mut self, buf: &[u8], from: usize) -> Scan {
        match buf[from..].iter().position(|&b| b == b'\n') {
            // A torn line is never judged before it is whole.
            None => Scan::Partial,
            Some(i) => Scan::Line {
                len: from + i + 1,
                row: self.parse_fields(strip_cr(&buf[..from + i])),
            },
        }
    }

    /// One line, without its terminator, by the definition alone: split
    /// at the commas, counted, then every cell through [`parse_text`].
    /// This is where an irregular line's error comes from, in the
    /// documented order — the width first, then the first bad number.
    fn parse_fields(&mut self, line: &[u8]) -> Result<bool, CsvError> {
        let fields = || line.split(|&b| b == b',');
        let width = fields().count();
        if width != self.cols {
            return Err(CsvError::Ragged {
                row: self.rows + 1,
                fields: width,
                expected: self.cols,
            });
        }
        self.row_buf.clear();
        for f in fields() {
            self.row_buf
                .push(parse_text(f).map_err(|cell| CsvError::BadNumber {
                    row: self.rows + 1,
                    cell,
                })?);
        }
        self.rows += 1;
        Ok(true)
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
    /// Bytes of a line that did not end inside one buffer fill — it
    /// straddles a refill, or is the unterminated tail of the file —
    /// read but not yet committed. Cleared after use, never taken.
    /// Whenever `next_row` returns `None`, every byte read from the
    /// file is either committed or here.
    carry: Vec<u8>,
    parser: RowParser,
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
            return Err(CsvError::OffsetPastEnd {
                offset,
                path: path.to_path_buf(),
                len,
            });
        }
        if offset > 0 {
            file.seek(SeekFrom::Start(offset))?;
        }
        Ok(Self {
            reader: BufReader::with_capacity(READ_BUF_BYTES, file),
            offset,
            carry: Vec::new(),
            parser: RowParser::new(cols, 0, offset == 0),
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
        self.parser.rows
    }

    /// Column count (0 until the first data line commits).
    pub fn cols(&self) -> usize {
        self.parser.cols
    }

    /// The auto-detected header, if one was seen.
    pub fn header(&self) -> Option<&[String]> {
        self.parser.header.as_deref()
    }

    /// Cells of the rows read so far that went through `str::parse`
    /// because the exact fast path declined them (instrumentation for
    /// the `csv_parse` suite).
    #[doc(hidden)]
    pub fn slow_fields(&self) -> u64 {
        self.parser.slow_fields
    }

    /// Read the next newline-terminated data row. `Ok(None)` means the
    /// reader is at (possibly temporary) end of stream — any
    /// unterminated trailing bytes stay carried, uncommitted, so a
    /// follower can retry after the writer finishes the line.
    pub fn next_row(&mut self) -> Result<Option<(usize, &[f64])>, CsvError> {
        loop {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                // End of file, for now; a torn tail waits in `carry`.
                return Ok(None);
            }
            let in_place = if self.carry.is_empty() {
                self.parser.scan(buf)
            } else {
                // The line began in an earlier fill.
                Scan::Partial
            };
            let committed = match in_place {
                // The common case: the line was scanned where it lies.
                Scan::Line { len, row } => {
                    self.reader.consume(len);
                    self.offset += len as u64;
                    row?
                }
                // Gather the line in `carry`, up to its newline if this
                // fill holds it.
                Scan::Partial => {
                    let newline = buf.iter().position(|&b| b == b'\n');
                    let take = newline.map_or(buf.len(), |i| i + 1);
                    self.carry.extend_from_slice(&buf[..take]);
                    self.reader.consume(take);
                    newline.is_some() && self.commit_carry()?
                }
            };
            if committed {
                return Ok(Some((self.parser.rows - 1, &self.parser.row_buf)));
            }
        }
    }

    /// Scan and commit `carry`, which holds exactly one terminated line.
    fn commit_carry(&mut self) -> Result<bool, CsvError> {
        let scan = self.parser.scan(&self.carry);
        self.offset += self.carry.len() as u64;
        self.carry.clear();
        match scan {
            Scan::Line { row, .. } => row,
            Scan::Partial => unreachable!("a carried line ends in its newline"),
        }
    }

    /// Commit a trailing unterminated line, if any — called exactly once
    /// when the stream has truly ended (the writer is done, so the torn
    /// tail is actually a complete final row without a newline).
    pub fn finish_partial(&mut self) -> Result<Option<(usize, &[f64])>, CsvError> {
        if self.carry.is_empty() {
            return Ok(None);
        }
        // Lend the tail the newline it lacks; the offset counts only
        // the file's own bytes.
        self.carry.push(b'\n');
        let row = self.commit_carry();
        self.offset -= 1;
        if row? {
            return Ok(Some((self.parser.rows - 1, &self.parser.row_buf)));
        }
        Ok(None)
    }

    /// Bytes currently carried as a torn (unterminated) tail.
    pub fn carried_bytes(&self) -> usize {
        self.carry.len()
    }

    /// Frame up to `rows` data rows without converting a cell: append
    /// their lines, and the blank lines among them, to `text` as they lie
    /// in the file, and advance [`CsvStream::offset`] and
    /// [`CsvStream::rows_read`] exactly as `next_row` would over them. A
    /// header is detected as `next_row` detects it and left out of
    /// `text`. Returns the rows framed: fewer than `rows` means end of
    /// file, with an unterminated tail carried as `next_row` leaves it
    /// (see [`CsvStream::frame_partial`]). [`parse_block`] turns `text`
    /// into the rows `next_row` would have returned.
    pub(crate) fn frame_rows(
        &mut self,
        text: &mut Vec<u8>,
        rows: usize,
    ) -> Result<usize, CsvError> {
        let mut framed = 0;
        while framed < rows {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                break;
            }
            if !self.carry.is_empty() {
                // The line began in an earlier fill.
                let newline = line_end(buf, 0);
                let take = buf.len().min(newline + 1);
                self.carry.extend_from_slice(&buf[..take]);
                self.reader.consume(take);
                if newline < take {
                    framed += usize::from(self.frame_carry(text)?);
                }
                continue;
            }
            // Whole lines where the fill holds them; `kept..end` goes to
            // `text` (a header moves `kept` past itself).
            let (mut kept, mut end) = (0, 0);
            while framed < rows {
                let newline = line_end(buf, end);
                if newline == buf.len() {
                    break;
                }
                match self.parser.frame(&buf[end..newline])? {
                    LineKind::Row => framed += 1,
                    LineKind::Blank => {}
                    LineKind::Header => {
                        text.extend_from_slice(&buf[kept..end]);
                        kept = newline + 1;
                    }
                }
                end = newline + 1;
            }
            text.extend_from_slice(&buf[kept..end]);
            self.offset += end as u64;
            let take = if framed < rows {
                // The rest of the fill is the start of a line.
                self.carry.extend_from_slice(&buf[end..]);
                buf.len()
            } else {
                end
            };
            self.reader.consume(take);
        }
        Ok(framed)
    }

    /// Frame `carry`, which holds exactly one terminated line, into
    /// `text`: true if it is a data row.
    fn frame_carry(&mut self, text: &mut Vec<u8>) -> Result<bool, CsvError> {
        let kind = self.parser.frame(&self.carry[..self.carry.len() - 1]);
        if let Ok(LineKind::Blank | LineKind::Row) = kind {
            text.extend_from_slice(&self.carry);
        }
        self.offset += self.carry.len() as u64;
        self.carry.clear();
        Ok(matches!(kind?, LineKind::Row))
    }

    /// [`CsvStream::finish_partial`] for framing: at true end of stream,
    /// frame a trailing unterminated line, lending it in `text` the
    /// newline it lacks. True if it is a data row.
    pub(crate) fn frame_partial(&mut self, text: &mut Vec<u8>) -> Result<bool, CsvError> {
        if self.carry.is_empty() {
            return Ok(false);
        }
        self.carry.push(b'\n');
        let row = self.frame_carry(text);
        self.offset -= 1;
        row
    }
}

/// Parse a block of whole lines that [`CsvStream::frame_rows`] framed,
/// appending each data row's `cols` values to `stage`: the scan
/// `next_row` runs, so there is one cell grammar wherever a line is
/// parsed. `first_row` is [`CsvStream::rows_read`] before the block was
/// framed, so an error names the row the serial reader names. Returns the
/// rows parsed.
pub(crate) fn parse_block(
    text: &[u8],
    cols: usize,
    first_row: usize,
    stage: &mut Vec<f64>,
) -> Result<usize, CsvError> {
    let mut parser = RowParser::new(cols, first_row, false);
    let mut rest = text;
    while !rest.is_empty() {
        let Scan::Line { len, row } = parser.scan(rest) else {
            unreachable!("a framed block ends in a newline");
        };
        if row? {
            stage.extend_from_slice(&parser.row_buf);
        }
        rest = &rest[len..];
    }
    Ok(parser.rows - first_row)
}

/// Stream a numeric CSV row by row without materializing the matrix:
/// `f(row_index, values)` is called once per data row with a reused
/// buffer, so peak memory is one row. Returns `(rows, cols, header)`;
/// an empty stream is [`CsvError::Empty`].
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
        return Err(CsvError::Empty);
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

    /// Framing advances `offset` and `rows_read` exactly as `next_row`
    /// does over the same rows, whatever the block size: a header, blank
    /// and CRLF lines, a line that straddles a refill and an unterminated
    /// tail included. Each block parses to the rows `next_row` returns.
    #[test]
    fn framing_advances_as_next_row_does() {
        let p = tmp("frame.csv");
        let mut text = String::from("\r\r\nx,y\n1,2\r\n\n3,4\n");
        while text.len() < READ_BUF_BYTES - 3 {
            text.push_str("5,6\n");
        }
        text.push_str("7,8888888888\n\r\n9,10");
        std::fs::write(&p, &text).unwrap();
        for n in [1, 2, 5, 1000] {
            let mut serial = CsvStream::open(&p).unwrap();
            let mut framed = CsvStream::open(&p).unwrap();
            let mut block = Vec::new();
            loop {
                let first = framed.rows_read();
                block.clear();
                let mut got = framed.frame_rows(&mut block, n).unwrap();
                let end = got < n;
                if end {
                    got += usize::from(framed.frame_partial(&mut block).unwrap());
                }
                let mut want = Vec::new();
                for _ in 0..got {
                    let row = match serial.next_row().unwrap() {
                        Some((_, row)) => row.to_vec(),
                        None => serial.finish_partial().unwrap().unwrap().1.to_vec(),
                    };
                    want.extend(row);
                }
                let at = |s: &CsvStream| (s.offset(), s.rows_read(), s.header().map(<[_]>::to_vec));
                assert_eq!(at(&framed), at(&serial), "{n} rows a block");
                let mut rows = Vec::new();
                let parsed = parse_block(&block, framed.cols(), first, &mut rows).unwrap();
                assert_eq!((parsed, rows), (got, want), "{n} rows a block");
                if end {
                    break;
                }
            }
            assert_eq!(framed.offset(), text.len() as u64);
        }
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
                Err(
                    e @ (CsvError::Ragged { .. } | CsvError::BadNumber { .. } | CsvError::Empty),
                ) => {
                    let msg = e.to_string();
                    assert!(msg.starts_with(want), "{msg}")
                }
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
            Err(CsvError::Ragged {
                row: 2,
                fields: 2,
                expected: 3
            })
        ));
        let fine = tmp("fine.csv");
        std::fs::write(&fine, "1,2\n").unwrap();
        assert!(matches!(
            stream_rows(&fine, &mut |_, row| Err(SinkError::NoFeatures {
                fields: row.len()
            })),
            Err(CsvError::Sink(SinkError::NoFeatures { fields: 2 }))
        ));
        // Bytes that are not UTF-8 are garbage in the file, not a failing
        // disk: a parse error that names the row, from a cell ...
        let garbage = tmp("garbage.csv");
        std::fs::write(&garbage, b"1,2\n3,\xff\xfe4\n").unwrap();
        match stream_rows(&garbage, &mut |_, _| Ok(())) {
            Err(
                e @ CsvError::BadNumber {
                    row: 2,
                    cell: CellError::NotUtf8 { .. },
                },
            ) => {
                let msg = e.to_string();
                assert!(
                    msg.starts_with("row 2: bad number \"\u{fffd}\u{fffd}4\""),
                    "{msg}"
                )
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // ... from the first line (a header must be text) ...
        std::fs::write(&garbage, b"a,\xc3\x28\n1,2\n").unwrap();
        match stream_rows(&garbage, &mut |_, _| Ok(())) {
            Err(e @ CsvError::HeaderNotText(_)) => {
                let msg = e.to_string();
                assert!(msg.starts_with("row 1: header is not text: "), "{msg}")
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // ... and to a follower, which must not mistake it for IO trouble.
        std::fs::write(&garbage, b"x,y\n1,2\n\x80,4\n").unwrap();
        let opts = FollowOptions {
            poll: Duration::from_millis(1),
            idle_timeout: Duration::from_millis(20),
        };
        let mut seen = 0;
        let followed = follow_rows(&garbage, &opts, &mut || false, &mut |_, _| {
            seen += 1;
            Ok(())
        });
        assert!(
            matches!(followed, Err(CsvError::BadNumber { row: 2, .. })),
            "{followed:?}"
        );
        assert_eq!(seen, 1);
        std::fs::remove_file(&ragged).ok();
        std::fs::remove_file(&fine).ok();
        std::fs::remove_file(&garbage).ok();
    }
}
