//! CSV at the CLI boundary: the row-at-a-time writer. Reading goes
//! through the one reader in [`toc_data::csv`] (comma-separated `f64`
//! cells, auto-detected header line, one matrix row per line).

use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
#[cfg(test)]
use toc_linalg::DenseMatrix;

/// Writes numeric rows as CSV lines, one at a time, so a caller that
/// produces rows in pieces never has to hold the matrix.
pub struct CsvWriter {
    out: BufWriter<std::fs::File>,
    line: String,
}

impl CsvWriter {
    /// Create (truncating) `path` and write the header line, if any.
    pub fn create(path: &Path, header: Option<&[String]>) -> Result<Self, String> {
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut w = Self {
            out: BufWriter::new(file),
            line: String::new(),
        };
        if let Some(h) = header {
            w.line.push_str(&h.join(","));
            w.emit()?;
        }
        Ok(w)
    }

    pub fn row(&mut self, row: &[f64]) -> Result<(), String> {
        for (c, v) in row.iter().enumerate() {
            if c > 0 {
                self.line.push(',');
            }
            // Shortest roundtrip formatting.
            write!(self.line, "{v}").expect("writing to a String");
        }
        self.emit()
    }

    fn emit(&mut self) -> Result<(), String> {
        self.line.push('\n');
        let written = self.out.write_all(self.line.as_bytes());
        self.line.clear();
        written.map_err(|e| format!("write: {e}"))
    }

    /// Flush; dropping the writer instead would swallow a write error.
    pub fn finish(mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| format!("flush: {e}"))
    }
}

/// Write a dense matrix as CSV (optionally with a header).
#[cfg(test)]
pub fn write_matrix(path: &Path, m: &DenseMatrix, header: Option<&[String]>) -> Result<(), String> {
    let mut w = CsvWriter::create(path, header)?;
    for r in 0..m.rows() {
        w.row(m.row(r))?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempPath;
    use toc_data::csv::read_all;

    #[test]
    fn roundtrip_without_header() {
        let m = DenseMatrix::from_rows(vec![vec![1.5, 0.0, -2.25], vec![0.0, 3.0, 0.125]]);
        let p = TempPath::new("csv-rt", "csv");
        write_matrix(p.path(), &m, None).unwrap();
        let (rows, cols, data, header) = read_all(p.path()).unwrap();
        assert_eq!(DenseMatrix::from_vec(rows, cols, data), m);
        assert!(header.is_none());
    }

    #[test]
    fn roundtrip_with_header() {
        let m = DenseMatrix::from_rows(vec![vec![1.0, 2.0]]);
        let p = TempPath::new("csv-hdr", "csv");
        let hdr = vec!["a".to_string(), "b".to_string()];
        write_matrix(p.path(), &m, Some(&hdr)).unwrap();
        let (rows, cols, data, header) = read_all(p.path()).unwrap();
        assert_eq!(DenseMatrix::from_vec(rows, cols, data), m);
        assert_eq!(header.unwrap(), hdr);
    }
}
