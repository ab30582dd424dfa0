//! CSV at the CLI boundary: numeric matrices in through the one reader
//! in [`toc_data::csv`] (comma-separated `f64` cells, auto-detected
//! header line, one matrix row per line), and the matrix writer.

use std::io::{BufWriter, Write};
use std::path::Path;
use toc_linalg::DenseMatrix;

/// Read a numeric CSV into a dense matrix. Returns `(matrix, header)`.
pub fn read_matrix(path: &Path) -> Result<(DenseMatrix, Option<Vec<String>>), String> {
    let (rows, cols, data, header) = toc_data::csv::read_all(path).map_err(|e| match e {
        toc_data::CsvError::Io(e) => format!("open {}: {e}", path.display()),
        parse => parse.to_string(),
    })?;
    Ok((DenseMatrix::from_vec(rows, cols, data), header))
}

/// Write a dense matrix as CSV (optionally with a header).
pub fn write_matrix(path: &Path, m: &DenseMatrix, header: Option<&[String]>) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    let emit = |w: &mut BufWriter<std::fs::File>, s: &str| {
        w.write_all(s.as_bytes()).map_err(|e| format!("write: {e}"))
    };
    if let Some(h) = header {
        emit(&mut w, &h.join(","))?;
        emit(&mut w, "\n")?;
    }
    let mut buf = String::new();
    for r in 0..m.rows() {
        buf.clear();
        for (c, v) in m.row(r).iter().enumerate() {
            if c > 0 {
                buf.push(',');
            }
            // Shortest roundtrip formatting.
            buf.push_str(&format!("{v}"));
        }
        buf.push('\n');
        emit(&mut w, &buf)?;
    }
    w.flush().map_err(|e| format!("flush: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("toc-cli-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_without_header() {
        let m = DenseMatrix::from_rows(vec![vec![1.5, 0.0, -2.25], vec![0.0, 3.0, 0.125]]);
        let p = tmp("rt.csv");
        write_matrix(&p, &m, None).unwrap();
        let (back, header) = read_matrix(&p).unwrap();
        assert_eq!(back, m);
        assert!(header.is_none());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn roundtrip_with_header() {
        let m = DenseMatrix::from_rows(vec![vec![1.0, 2.0]]);
        let p = tmp("hdr.csv");
        let hdr = vec!["a".to_string(), "b".to_string()];
        write_matrix(&p, &m, Some(&hdr)).unwrap();
        let (back, header) = read_matrix(&p).unwrap();
        assert_eq!(back, m);
        assert_eq!(header.unwrap(), hdr);
        std::fs::remove_file(&p).ok();
    }
}
