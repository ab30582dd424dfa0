//! The CSV → container ingest frames lines on the caller and parses them
//! on the seal workers; it must be the serial reader all the same. Every
//! shape below goes through `ingest_csv_container` and through
//! `ContainerIngest::push_row` over `CsvStream::next_row` rows, and the
//! two containers and their `IngestStats` must be byte-equal; a bad line
//! must fail both with the same error, and the first one in file order.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use toc_data::ingest::{
    ingest_csv_container, sidecar_path, ContainerIngest, CsvContainerJob, IngestCheckpoint,
    IngestError, IngestStats,
};
use toc_data::synth::drifting_matrix;
use toc_data::{CsvError, CsvStream};
use toc_formats::{EncodeOptions, Scheme};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "toc-csv-ingest-{}-{:?}-{name}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The serial reference: every row `next_row` (then `finish_partial`)
/// returns, pushed through a `ContainerIngest` into memory. The container
/// bytes and the counters, or the reader's error.
fn serial(
    csv: &Path,
    chunk_rows: usize,
    scheme: Option<Scheme>,
) -> Result<(Vec<u8>, IngestStats), CsvError> {
    let mut s = CsvStream::open(csv)?;
    let mut next = || -> Result<Option<Vec<f64>>, CsvError> {
        let row = match s.next_row()? {
            Some((_, row)) => Some(row),
            None => s.finish_partial()?.map(|(_, row)| row),
        };
        Ok(row.map(<[f64]>::to_vec))
    };
    let first = next()?.ok_or(CsvError::Empty)?;
    let mut sink = Vec::new();
    let opts = EncodeOptions::default();
    let mut ing = ContainerIngest::new(&mut sink, first.len(), chunk_rows, scheme, opts).unwrap();
    ing.push_row(&first).unwrap();
    while let Some(row) = next()? {
        ing.push_row(&row).unwrap();
    }
    let (_, stats) = ing.finish().unwrap();
    Ok((sink, stats))
}

/// `csv` through `ingest_csv_container`: the output's bytes and the
/// counters.
fn framed(
    csv: &Path,
    chunk_rows: usize,
    scheme: Option<Scheme>,
    checkpoint_every: u64,
) -> Result<(Vec<u8>, IngestStats), IngestError> {
    let out = csv.with_extension("tocz");
    let job = CsvContainerJob {
        csv: csv.to_path_buf(),
        out: out.clone(),
        chunk_rows,
        scheme,
        encode: EncodeOptions::default(),
        checkpoint_every,
    };
    let done = ingest_csv_container(&job, false);
    let bytes = std::fs::read(&out).unwrap_or_default();
    std::fs::remove_file(&out).ok();
    Ok((bytes, done?.stats))
}

/// What a CSV file holds besides its numbers.
#[derive(Clone, Copy, Debug)]
struct Shape {
    header: bool,
    crlf: bool,
    /// The last line ends in a newline.
    terminated: bool,
}

/// `rows` data rows of drifting values, every 9th cell written with an
/// exponent and every 13th with 17 significant digits (both convert on
/// the slow path), blank lines (`\n` and `\r\r\n`) at the top, after row 2
/// and on both sides of every chunk boundary.
fn text(shape: Shape, rows: usize, cols: usize, chunk_rows: usize) -> String {
    let m = drifting_matrix(rows, cols, 5, 7);
    let eol = if shape.crlf { "\r\n" } else { "\n" };
    let mut t = String::from("\r\r\n");
    if shape.header {
        let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
        write!(t, "{}{eol}", names.join(",")).unwrap();
    }
    for r in 0..rows {
        let cells: Vec<String> = (0..cols)
            .map(|c| {
                let v = m.get(r, c) + r as f64 / 8.0;
                match (r * cols + c) % 117 {
                    k if k % 9 == 0 => format!("{v:e}"),
                    k if k % 13 == 0 => format!("{:.17}", v / 3.0),
                    _ => format!("{v}"),
                }
            })
            .collect();
        t.push_str(&cells.join(","));
        if r + 1 < rows || shape.terminated {
            t.push_str(eol);
        }
        if r + 1 < rows && (r == 1 || (r + 1) % chunk_rows == 0) {
            t.push_str(if r % 2 == 0 { "\n" } else { "\r\r\n" });
            t.push_str(eol);
        }
    }
    t
}

/// Several chunks, and a last chunk of one row.
fn rows_for(chunk_rows: usize) -> usize {
    (40 / chunk_rows).max(4) * chunk_rows + 1
}

#[test]
fn worker_parsed_ingest_is_the_serial_one() {
    let cols = 5;
    let path = tmp("shapes.csv");
    for header in [true, false] {
        for crlf in [false, true] {
            for terminated in [true, false] {
                let shape = Shape {
                    header,
                    crlf,
                    terminated,
                };
                for chunk_rows in [1, 7, 250] {
                    let rows = rows_for(chunk_rows);
                    std::fs::write(&path, text(shape, rows, cols, chunk_rows)).unwrap();
                    for scheme in [Some(Scheme::Toc), None] {
                        let at = format!("{shape:?}, chunk_rows {chunk_rows}, {scheme:?}");
                        let (want, mut want_stats) = serial(&path, chunk_rows, scheme).unwrap();
                        let (got, got_stats) = framed(&path, chunk_rows, scheme, 0).unwrap();
                        assert_eq!(got_stats.rows, rows as u64, "{at}");
                        assert!(got == want, "{at}: the containers differ");
                        // The peak reads how the seals overlapped; the
                        // counters of what was sealed must be equal.
                        want_stats.peak_workspace_bytes = got_stats.peak_workspace_bytes;
                        assert_eq!(got_stats, want_stats, "{at}");
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A bad line in chunk `bad` (0-based) and another in chunk `later`: the
/// ingest fails with the error the serial reader gives, the first in file
/// order, and no segment or sidecar gets as far as the bad chunk.
#[test]
fn the_first_bad_line_in_file_order_fails_the_ingest() {
    let (cols, chunk_rows) = (4, 7);
    let rows = 8 * chunk_rows;
    let shape = Shape {
        header: true,
        crlf: false,
        terminated: true,
    };
    let good = text(shape, rows, cols, chunk_rows);
    let ragged = |line: &str| format!("{line},1");
    let bad_number = |line: &str| line.replacen(',', ",x", 1);
    type Spoil<'a> = &'a dyn Fn(&str) -> String;
    let cases: [(usize, Spoil, usize, Spoil); 2] =
        [(2, &ragged, 4, &bad_number), (2, &bad_number, 4, &ragged)];
    let path = tmp("bad.csv");
    for (bad, spoil, later, spoil_later) in cases {
        // Data lines by row number; the row numbered `chunk * chunk_rows
        // + 3` is in the middle of its chunk.
        let mut row = 0usize;
        let lines: Vec<String> = good
            .split_inclusive('\n')
            .enumerate()
            .map(|(i, line)| {
                let body = line.trim_end_matches(['\r', '\n']);
                if body.is_empty() || (i <= 1 && shape.header) {
                    return line.to_string();
                }
                row += 1;
                let end = &line[body.len()..];
                if row == bad * chunk_rows + 3 {
                    spoil(body) + end
                } else if row == later * chunk_rows + 3 {
                    spoil_later(body) + end
                } else {
                    line.to_string()
                }
            })
            .collect();
        std::fs::write(&path, lines.concat()).unwrap();
        for scheme in [Some(Scheme::Toc), None] {
            let want = serial(&path, chunk_rows, scheme).unwrap_err();
            let got = match framed(&path, chunk_rows, scheme, 1) {
                Err(IngestError::Csv(e)) => e,
                other => panic!(
                    "{scheme:?}: expected a CSV error, got {:?}",
                    other.map(|_| ())
                ),
            };
            let row = bad * chunk_rows + 3;
            let variant_and_row = match (&got, &want) {
                (CsvError::Ragged { row: a, .. }, CsvError::Ragged { row: b, .. })
                | (CsvError::BadNumber { row: a, .. }, CsvError::BadNumber { row: b, .. }) => {
                    *a == row && *b == row
                }
                _ => false,
            };
            assert!(
                variant_and_row,
                "{scheme:?}: {got:?} vs {want:?}, row {row}"
            );
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{scheme:?}");
            assert_eq!(got.to_string(), want.to_string(), "{scheme:?}");

            // The sidecar left behind names only chunks before the bad one.
            let sidecar = sidecar_path(&path.with_extension("tocz"));
            if let Ok(ck) = IngestCheckpoint::read(&sidecar) {
                assert!(
                    ck.stats.chunks <= bad as u64,
                    "{scheme:?}: the sidecar names {} chunks, the bad one is chunk {bad}",
                    ck.stats.chunks
                );
            }
            std::fs::remove_file(&sidecar).ok();
        }
        // What was written is a prefix of the container of the chunks
        // before the bad one: nothing after it was appended.
        let out = path.with_extension("tocz");
        let job = CsvContainerJob {
            csv: path.clone(),
            out: out.clone(),
            chunk_rows,
            scheme: Some(Scheme::Toc),
            encode: EncodeOptions::default(),
            checkpoint_every: 0,
        };
        assert!(ingest_csv_container(&job, false).is_err());
        let partial = std::fs::read(&out).unwrap();
        let head: String = lines
            .iter()
            .scan(0usize, |data, line| {
                let body = line.trim_end_matches(['\r', '\n']);
                let is_row = !body.is_empty() && !body.starts_with('c');
                *data += usize::from(is_row);
                (*data <= bad * chunk_rows).then(|| line.clone())
            })
            .collect();
        let head_path = tmp("head.csv");
        std::fs::write(&head_path, head).unwrap();
        let (before, stats) = serial(&head_path, chunk_rows, Some(Scheme::Toc)).unwrap();
        assert_eq!(stats.chunks, bad as u64);
        assert!(
            before.starts_with(&partial),
            "{} bytes written, {} in the chunks before the bad one",
            partial.len(),
            before.len()
        );
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&head_path).ok();
    }
    std::fs::remove_file(&path).ok();
}
