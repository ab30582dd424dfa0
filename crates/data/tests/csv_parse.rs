//! The CSV reader against its definition.
//!
//! `toc_data::csv` scans bytes in place and converts most cells on an
//! exact fast path; what it must produce is defined by something much
//! simpler, restated here as [`reference`]: lines split at `\n`, trailing
//! `\r`s dropped, blank lines skipped, cells split at `,` and each put
//! through `str::trim` + `str::parse::<f64>`, a first line with any
//! unparsable cell taken as the header, the width checked before the
//! numbers. Every test feeds the same bytes to both and demands the same
//! rows — every value `to_bits()`-equal — or the same error text.
//!
//! The ledger's ingest check ("the container decodes to what
//! `csv::read_all` parses") is self-referential for the parser; this
//! suite is what stands behind it.
//!
//! The first test is also the CI gate on the mechanism (`release-test`
//! runs this binary with `--nocapture`): per preset, the share of cells
//! the fast path converted. Counts, not timings.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use toc_data::csv::{read_all, CsvContents};
use toc_data::synth::{generate_preset, DatasetPreset};
use toc_data::{CsvError, CsvStream};

/// The reader's capacity (`READ_BUF_BYTES` in `csv.rs`); the boundary
/// cases below sweep a window around it, so they keep their point if it
/// moves by a few bytes and only lose it if it changes altogether.
const READ_BUF: usize = 64 * 1024;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("toc-csv-parse-{}-{name}", std::process::id()))
}

/// The definition (module docs), with the reader's error texts.
fn reference(bytes: &[u8]) -> Result<CsvContents, String> {
    let text = std::str::from_utf8(bytes).expect("reference inputs are UTF-8");
    let mut lines: Vec<&str> = text.split('\n').collect();
    if lines.last() == Some(&"") {
        lines.pop(); // the file ended in a newline
    }
    let (mut rows, mut cols, mut data, mut header) = (0usize, 0usize, Vec::new(), None);
    let mut at_start = true;
    for line in lines {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if at_start {
            at_start = false;
            cols = fields.len();
            if fields.iter().any(|f| f.parse::<f64>().is_err()) {
                header = Some(fields.iter().map(|f| f.to_string()).collect());
                continue;
            }
        }
        if fields.len() != cols {
            return Err(format!(
                "row {} has {} fields, expected {cols}",
                rows + 1,
                fields.len()
            ));
        }
        for f in fields {
            let v = f
                .parse::<f64>()
                .map_err(|e| format!("row {}: bad number {f:?}: {e}", rows + 1))?;
            data.push(v);
        }
        rows += 1;
    }
    if rows == 0 {
        return Err("empty CSV".into());
    }
    Ok((rows, cols, data, header))
}

/// `read_all` of `bytes` must be what [`reference`] makes of them.
fn assert_reads_as_defined(name: &str, bytes: &[u8]) {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let got = read_all(&path);
    std::fs::remove_file(&path).ok();
    let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(120)]).into_owned();
    match (got, reference(bytes)) {
        (Ok((rows, cols, data, header)), Ok((want_rows, want_cols, want, want_header))) => {
            assert_eq!((rows, cols), (want_rows, want_cols), "{name}: {shown:?}");
            assert_eq!(header, want_header, "{name}: {shown:?}");
            for (i, (g, w)) in data.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{name}: value {i} (row {}, col {}): {g:e} != {w:e}",
                    i / cols,
                    i % cols
                );
            }
        }
        (
            Err(got @ (CsvError::Ragged { .. } | CsvError::BadNumber { .. } | CsvError::Empty)),
            Err(want),
        ) => {
            assert_eq!(got.to_string(), want, "{name}: {shown:?}")
        }
        (got, want) => panic!(
            "{name}: {shown:?}: reader {:?}, definition {:?}",
            got.map(|(r, c, ..)| (r, c)),
            want.map(|(r, c, ..)| (r, c))
        ),
    }
}

/// Features then the label, shortest round-trip formatting: the text
/// `toc gen` (and the ledger) writes for a preset.
fn preset_csv(preset: DatasetPreset, rows: usize) -> Vec<u8> {
    use std::fmt::Write as _;
    let ds = generate_preset(preset, rows, 42);
    let mut text = String::new();
    for r in 0..rows {
        for v in ds.x.row(r) {
            write!(text, "{v},").unwrap();
        }
        writeln!(text, "{}", ds.labels[r]).unwrap();
    }
    text.into_bytes()
}

/// Every row of `path` through one stream, and the cells that missed the
/// fast path.
fn stream_all(path: &Path) -> (Vec<Vec<f64>>, u64) {
    let mut s = CsvStream::open(path).unwrap();
    let mut rows = Vec::new();
    while let Some((i, row)) = s.next_row().unwrap() {
        assert_eq!(i, rows.len());
        rows.push(row.to_vec());
    }
    if let Some((_, row)) = s.finish_partial().unwrap() {
        rows.push(row.to_vec());
    }
    (rows, s.slow_fields())
}

/// The fast path's grammar (`csv.rs` module docs), stated independently:
/// `[+-]? digit* ('.' digit*)?`, 1 to 15 digits, at most 17 bytes.
fn fast_path_admits(cell: &str) -> bool {
    let body = cell.strip_prefix(['+', '-']).unwrap_or(cell);
    let (int, frac) = body.split_once('.').unwrap_or((body, ""));
    let all_digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    cell.len() <= 17
        && all_digits(int)
        && all_digits(frac)
        && (1..=15).contains(&(int.len() + frac.len()))
}

#[test]
fn presets_parse_as_defined_and_on_the_fast_path() {
    // (preset, rows, least share of cells on the fast path in %)
    let legs = [
        (DatasetPreset::CensusLike, 400, 100.0),
        (DatasetPreset::ImagenetLike, 60, 100.0),
        (DatasetPreset::MnistLike, 60, 100.0),
        (DatasetPreset::Kdd99Like, 400, 100.0),
        // 4 001 columns: lines of several KB, straddling most refills.
        // The one non-zero in a thousand is a unique 17-digit double.
        (DatasetPreset::Rcv1Like, 40, 99.0),
        // 17 significant digits in every cell: declined on length. Not
        // floored.
        (DatasetPreset::DeepLike, 100, 0.0),
    ];
    for (preset, rows, floor) in legs {
        let bytes = preset_csv(preset, rows);
        assert_reads_as_defined(preset.name(), &bytes);
        let path = tmp(&format!("share-{}.csv", preset.name()));
        std::fs::write(&path, &bytes).unwrap();
        let (parsed, slow) = stream_all(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed.len(), rows);
        let cells = (rows * parsed[0].len()) as u64;
        let share = 100.0 * (cells - slow) as f64 / cells as f64;
        println!(
            "csv fast path {:10} {:7} of {cells:7} cells ({share:6.2} %), {} bytes",
            preset.name(),
            cells - slow,
            bytes.len()
        );
        // Exactly the cells outside the grammar were declined ...
        let text = std::str::from_utf8(&bytes).unwrap();
        let outside = text
            .lines()
            .flat_map(|l| l.split(','))
            .filter(|c| !fast_path_admits(c))
            .count() as u64;
        assert_eq!(slow, outside, "{}", preset.name());
        // ... and on these presets that is (next to) none of them.
        assert!(
            share >= floor,
            "{}: {share:.2} % < {floor} %",
            preset.name()
        );
    }
}

/// One decimal cell: sign, leading zeros, up to 19 digits, up to 24
/// fraction digits, padding. No digits at all is possible (`.`, `-`, ``).
fn cell_strategy() -> impl Strategy<Value = String> {
    let digits = |max: usize| prop::collection::vec(0u8..10, 0..=max);
    let pad = || {
        prop_oneof![
            6 => Just(""),
            1 => Just(" "),
            1 => Just("\t"),
            1 => Just(" \t "),
        ]
    };
    (
        (pad(), pad()),
        prop_oneof![Just(""), Just("-"), Just("+")],
        0usize..4,
        digits(19),
        prop_oneof![Just(false), Just(true)],
        digits(24),
    )
        .prop_map(|((left, right), sign, zeros, int, dot, frac)| {
            let mut s = format!("{left}{sign}{}", "0".repeat(zeros));
            s.extend(int.iter().map(|d| char::from(b'0' + d)));
            if dot || !frac.is_empty() {
                s.push('.');
            }
            s.extend(frac.iter().map(|d| char::from(b'0' + d)));
            s + right
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rows of random decimal cells (after a first numeric row, so no
    /// header is detected): the same doubles, or the same first error.
    #[test]
    fn random_decimals_parse_as_defined(
        cells in prop::collection::vec(cell_strategy(), 40),
        crlf in prop_oneof![Just(false), Just(true)],
    ) {
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut text = format!("0,0,0,0{eol}");
        for row in cells.chunks(4) {
            text += &row.join(",");
            text += eol;
        }
        assert_reads_as_defined("proptest.csv", text.as_bytes());
    }
}

#[test]
fn the_cell_table_parses_as_defined() {
    let nines = "9".repeat(15);
    let cells = [
        "0",
        "-0",
        "+0",
        "1.",
        ".5",
        ".",
        "",
        "-",
        "+.",
        "+.5",
        "-.5",
        "1e5",
        "1E-3",
        "inf",
        "-inf",
        "NaN",
        "infinity",
        "0x10",
        "1_000",
        "1..2",
        "1.2.3",
        "--1",
        "9007199254740993", // 2^53 + 1: must be rounded by `parse`
        "9007199254740992",
        &nines,
        "1000000000000000",  // 16 digits
        "0.000000000000001", // 15 fraction digits
        "0.123456789012345",
        "123456789.012345",
        "1234567890.12345", // 15 digits, 17 bytes with the sign below
        "-1234567890.12345",
        "-12345678901.2345", // 18 bytes
        "0.1234567890123456",
        "0000000000000001", // 16 digits, leading zeros
        "000000000000001",
        "0.30000000000000004",
        "179769313486231570000000000000000000000",
        " 7 ",
        "\t7",
        "7\t ",
        "7\u{a0}", // NBSP: `str::trim` strips it, the fast path must decline
        "\u{2003}7",
        "7\x0b",
        "\x0c7",
        "7 8",
        "7\r",
        "\r7",
        "٧", // a digit, but not an ASCII one
    ];
    for (i, cell) in cells.iter().enumerate() {
        // First and last position, `\n` and `\r\n` endings. The first
        // row is numeric so that no header is detected.
        for text in [
            format!("0,0\n{cell},1\n"),
            format!("0,0\n1,{cell}\n"),
            format!("0,0\r\n1,{cell}\r\n"),
            format!("0,0\n1,{cell}"),
        ] {
            assert_reads_as_defined(&format!("cell-{i}.csv"), text.as_bytes());
        }
    }
    // A sign is not lost on zero.
    let path = tmp("minus-zero.csv");
    std::fs::write(&path, "0,-0\n-0.0,+0\n").unwrap();
    let (_, _, data, _) = read_all(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let bits: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
    let (pos, neg) = (0f64.to_bits(), (-0f64).to_bits());
    assert_eq!(bits, [pos, neg, neg, pos]);
}

#[test]
fn line_shapes_parse_as_defined() {
    for (name, text) in [
        ("trailing-comma-ragged", "1,2\n3,4,\n"),
        ("trailing-comma-empty-cell", "1,2,3\n4,5,\n"),
        ("one-column", "1\n2\n\n3\n"),
        ("one-column-no-newline", "1\n2\n3"),
        ("one-column-header", "x\n1\n2\n"),
        ("crlf", "a,b\r\n1,2\r\n3,4\r\n"),
        ("cr-cr-lf", "1,2\r\r\n3,4\r\r\n\r\r\n5,6"),
        ("cr-inside", "1,2\n3\r,\r4\n"),
        ("blank-lines", "\n\r\n1,2\n\n\r\r\n3,4\n\n"),
        ("blank-before-header", "\n\nx,y\n1,2\n"),
        ("spaces-only-line", "1,2\n  \n3,4\n"),
        ("spaces-only-line-one-column", "1\n  \n3\n"),
        // Ragged wins over the bad number in the same row.
        ("ragged-and-bad", "1,2,3\n4,x\n"),
        ("ragged-and-bad-long", "1,2,3\n4,x,5,6\n"),
        ("bad-then-ragged-rows", "1,2,3\n4,x,5\n6,7\n"),
        ("too-many", "1,2\n3,4,5\n"),
        ("too-few", "1,2,3\n4,5\n"),
        ("bad-in-tail", "1,2\n3,x"),
        ("ragged-tail", "1,2\n3"),
        ("header-only", "a,b\n"),
        ("numeric-header-mix", "1,b\n2,3\n"),
        ("empty", ""),
        ("only-blank", "\n\r\n\n"),
    ] {
        assert_reads_as_defined(&format!("{name}.csv"), text.as_bytes());
    }
}

#[test]
fn lines_longer_than_the_read_buffer_parse_as_defined() {
    // One 200 KB line between two short ones, and 200 KB without an end.
    let long: Vec<String> = (0..40_000).map(|i| format!("{}.25", i % 7)).collect();
    let long = long.join(",");
    assert!(long.len() > 3 * READ_BUF);
    let short = vec!["1"; 40_000].join(",");
    let text = format!("{short}\n{long}\n{short}\n");
    assert_reads_as_defined("long-line.csv", text.as_bytes());
    let text = format!("{short}\n{long}");
    assert_reads_as_defined("long-tail.csv", text.as_bytes());
    // The error of a long line is still derived from the whole line.
    let text = format!("{short}\n{long},x\n");
    assert_reads_as_defined("long-ragged.csv", text.as_bytes());
    let text = format!("{short}\n{},x\n", &long[..long.len() - 5]);
    assert_reads_as_defined("long-bad.csv", text.as_bytes());
}

#[test]
fn lines_ending_around_the_buffer_boundary_parse_as_defined() {
    // The first line's newline lands on every offset in a window around
    // the end of the first fill: before it, exactly on its last byte,
    // on the first byte of the next fill; with `\r\n` the pair is split
    // across the two. The cell at the boundary is also cut in every way.
    let row = "12.5,0,-3,0.125";
    for eol in ["\n", "\r\n"] {
        for first_len in READ_BUF - 12..=READ_BUF + 12 {
            // `first_len` bytes, terminator included, four cells.
            let pad = first_len - eol.len() - "1,2,3,".len();
            let mut text = format!("1,2,3,{}{eol}", "7".repeat(pad));
            assert_eq!(text.len(), first_len);
            for _ in 0..3 {
                text += row;
                text += eol;
            }
            assert_reads_as_defined("boundary.csv", text.as_bytes());
        }
    }
    // The same window with many short rows before it, so that it is a
    // short row — cut at every byte — that straddles the refill.
    let body = format!("{row}\n").repeat(READ_BUF / (row.len() + 1) + 4);
    for shift in 0..=row.len() + 1 {
        let text = format!("{}\n{body}", "8".repeat(shift));
        assert_reads_as_defined("straddle.csv", text.as_bytes());
    }
}

#[test]
fn a_torn_tail_split_across_a_refill_is_completed_later() {
    use std::io::Write as _;
    let row = "1.5,2,3\n";
    // Whole rows up to a few bytes before the end of the first fill,
    // then an unterminated line that reaches past it.
    let whole = (READ_BUF - 5) / row.len();
    let torn = "4.25,55555555,6";
    let path = tmp("torn-refill.csv");
    std::fs::write(&path, row.repeat(whole) + torn).unwrap();
    assert!(whole * row.len() < READ_BUF && whole * row.len() + torn.len() > READ_BUF);

    let mut s = CsvStream::open(&path).unwrap();
    let mut seen = 0;
    while let Some((_, r)) = s.next_row().unwrap() {
        assert_eq!(r, [1.5, 2.0, 3.0]);
        seen += 1;
    }
    assert_eq!(seen, whole);
    // Every byte read is either committed or carried: the follower's
    // truncation test relies on it.
    assert_eq!(s.offset(), (whole * row.len()) as u64);
    assert_eq!(s.carried_bytes(), torn.len());
    assert!(s.next_row().unwrap().is_none());
    assert_eq!(s.carried_bytes(), torn.len());

    // The writer finishes the line, in two pieces, and adds one more.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"6").unwrap();
    assert!(s.next_row().unwrap().is_none());
    assert_eq!(s.carried_bytes(), torn.len() + 1);
    f.write_all(b"6\n7,8,9\n10,11,").unwrap();
    assert_eq!(s.next_row().unwrap().unwrap().1, [4.25, 55555555.0, 666.0]);
    assert_eq!(s.next_row().unwrap().unwrap().1, [7.0, 8.0, 9.0]);
    assert!(s.next_row().unwrap().is_none());
    assert_eq!(s.carried_bytes(), "10,11,".len());
    // End of stream: the tail is a whole (and here, bad) last line.
    match s.finish_partial() {
        Err(e @ CsvError::BadNumber { .. }) => assert!(e.to_string().starts_with("row"), "{e}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert_eq!(s.carried_bytes(), 0);
    assert_eq!(
        s.offset(),
        std::fs::metadata(&path).unwrap().len(),
        "the offset counts the file's bytes, not the lent newline"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn reopening_at_any_offset_yields_the_remaining_rows() {
    // A small file with everything in it, resumed after every row; a
    // file of several fills, resumed after every 97th.
    let small = "a,b,c\r\n1,2,3\r\n\r\n4.5,5,6\n\n7,8,9\r\r\n10,11,12\n 13 ,\t14,15\n16,17,18";
    let big = preset_csv(DatasetPreset::CensusLike, 1500);
    assert!(big.len() > 3 * READ_BUF);
    for (name, bytes, stride) in [("small", small.as_bytes(), 1), ("big", &big[..], 97)] {
        let path = tmp(&format!("reopen-{name}.csv"));
        std::fs::write(&path, bytes).unwrap();
        let (all, _) = stream_all(&path);
        let mut fresh = CsvStream::open(&path).unwrap();
        let mut done = 0usize;
        while let Some((i, _)) = fresh.next_row().unwrap() {
            done = i + 1;
            if !done.is_multiple_of(stride) {
                continue;
            }
            let mut resumed = CsvStream::open_at(&path, fresh.offset(), fresh.cols()).unwrap();
            let mut rest = Vec::new();
            while let Some((_, row)) = resumed.next_row().unwrap() {
                rest.push(row.to_vec());
            }
            if let Some((_, row)) = resumed.finish_partial().unwrap() {
                rest.push(row.to_vec());
            }
            assert_eq!(rest, all[done..], "{name}: resumed after row {done}");
            assert_eq!(resumed.offset(), bytes.len() as u64);
        }
        assert!(done + 1 >= all.len());
        std::fs::remove_file(&path).ok();
    }
}
