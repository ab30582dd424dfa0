//! The CLI's file-level `.tocz` round-trip tests. The wire format, the v2
//! layout-tree footer and all parsing live in [`toc_formats::container`],
//! shared with the `toc-data` seekable reader.

mod tests {
    use crate::testutil::TempPath;
    use toc_formats::container::Container;
    use toc_formats::{EncodeOptions, Scheme};
    use toc_linalg::DenseMatrix;

    fn sample() -> DenseMatrix {
        let rows: Vec<Vec<f64>> = (0..130)
            .map(|r| {
                (0..12)
                    .map(|c| {
                        if (r + c) % 3 == 0 {
                            (c % 4) as f64
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        DenseMatrix::from_rows(rows)
    }

    #[test]
    fn file_roundtrip_v2() {
        let m = sample();
        let p = TempPath::new("container", "tocz");
        let c = Container::encode_with(&m, Scheme::Toc, 64, &EncodeOptions::default());
        c.write(p.path()).unwrap();
        let back = Container::read(p.path()).unwrap();
        assert_eq!(back.decode().unwrap(), m);
        assert!(back.zones().is_some(), "v2 read restores zone maps");
    }

    #[test]
    fn file_read_v1() {
        let back = Container::read(std::path::Path::new(crate::testutil::GOLDEN_V1)).unwrap();
        let m = back.decode().unwrap();
        assert_eq!((m.rows(), m.cols()), (57, 6), "the golden fixture's shape");
        assert!(back.zones().is_none(), "v1 has no footer to restore from");
    }

    #[test]
    fn corrupt_file_errors() {
        let m = sample();
        let c = Container::encode_with(&m, Scheme::Toc, 64, &EncodeOptions::default());
        let p = TempPath::new("container-bad", "tocz");
        c.write(p.path()).unwrap();
        let mut bytes = std::fs::read(p.path()).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(p.path(), &bytes).unwrap();
        assert!(Container::read(p.path()).is_err());
    }
}
