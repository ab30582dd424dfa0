//! Golden wire fixtures: small serialized containers for every scheme,
//! checked into `tests/golden/`. Each fixture must (a) still parse, (b)
//! survive `from_bytes` → `to_bytes` byte-identically, and (c) decode to
//! the matrix it was generated from — so future encoder changes can
//! change what *new* containers look like, but can never silently break
//! *old* spill files or `.tocz` archives.
//!
//! Regenerate after an intentional wire-format change with:
//!
//! ```text
//! TOC_BLESS=1 cargo test -p toc-formats --test golden
//! ```
//!
//! (and say so in the commit message: blessing rewrites history for every
//! reader of existing containers).

use std::path::PathBuf;
use toc_formats::{FormatError, MatrixBatch, Scheme};
use toc_linalg::DenseMatrix;

const ALL_SCHEMES: [(Scheme, &str); 11] = [
    (Scheme::Den, "den"),
    (Scheme::Csr, "csr"),
    (Scheme::Cvi, "cvi"),
    (Scheme::Dvi, "dvi"),
    (Scheme::Cla, "cla"),
    (Scheme::Snappy, "snappy"),
    (Scheme::Gzip, "gzip"),
    (Scheme::Toc, "toc"),
    (Scheme::TocSparse, "toc_sparse"),
    (Scheme::TocSparseLogical, "toc_sparse_logical"),
    (Scheme::GcAns, "ans"),
];

/// The fixture matrix. Frozen: changing it invalidates every fixture, so
/// don't — add a second generation instead.
fn fixture_matrix() -> DenseMatrix {
    let pool = [0.5, 1.5, -2.0, 3.25];
    let mut m = DenseMatrix::zeros(14, 9);
    let mut state = 7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for r in 0..14 {
        for c in 0..9 {
            if next() % 2 == 0 {
                m.set(r, c, pool[(next() % 4) as usize]);
            }
        }
    }
    m
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The name-paired fixture list must track `Scheme::ALL`: adding a
/// variant without a golden fixture fails here, not silently.
#[test]
fn fixture_list_covers_every_scheme() {
    assert_eq!(ALL_SCHEMES.len(), Scheme::ALL.len());
    for (i, (s, _)) in ALL_SCHEMES.iter().enumerate() {
        assert_eq!(*s, Scheme::ALL[i]);
    }
}

#[test]
fn golden_fixtures_parse_and_roundtrip_byte_identically() {
    let a = fixture_matrix();
    let bless = std::env::var_os("TOC_BLESS").is_some();
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    for (scheme, name) in ALL_SCHEMES {
        let path = dir.join(format!("{name}.bin"));
        if bless {
            std::fs::write(&path, scheme.encode(&a).to_bytes()).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(missing fixture? regenerate with TOC_BLESS=1)",
                path.display()
            )
        });
        assert_eq!(bytes[0], scheme.tag(), "{name}: tag byte");
        let batch = Scheme::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{name}: old container no longer parses: {e}"));
        assert_eq!(
            batch.to_bytes(),
            bytes,
            "{name}: from_bytes -> to_bytes is not byte-identical"
        );
        assert_eq!(batch.rows(), a.rows(), "{name}");
        assert_eq!(batch.cols(), a.cols(), "{name}");
        assert_eq!(batch.decode(), a, "{name}: decoded payload drifted");
    }
    if bless {
        std::fs::write(
            dir.join("checksum.txt"),
            format!("{}\n", matrix_checksum(&a)),
        )
        .unwrap();
    }
}

/// `toc_varint.bin` is the fixture matrix as TOC under the varint
/// physical codec, written under tag 10 before that tag was retired. It is
/// kept, byte for byte, as the old file a reader must now refuse: tag 10
/// is an unknown scheme, and the same varint body under TOC's tag 7 is
/// corrupt, so no tag names two physical forms.
#[test]
fn the_retired_varint_fixture_is_refused() {
    let bytes = std::fs::read(golden_dir().join("toc_varint.bin")).unwrap();
    assert_eq!(bytes[0], 10);
    assert_eq!(
        Scheme::from_bytes(&bytes).unwrap_err(),
        FormatError::WrongScheme {
            expected: "any",
            got: 10
        }
    );
    assert!(Scheme::ALL.iter().all(|s| s.tag() != 10));
    let mut under_toc = bytes;
    under_toc[0] = Scheme::Toc.tag();
    assert!(matches!(
        Scheme::from_bytes(&under_toc),
        Err(FormatError::Corrupt(_))
    ));
}

fn matrix_checksum(a: &DenseMatrix) -> u64 {
    a.data().iter().enumerate().fold(0u64, |acc, (i, v)| {
        acc.wrapping_mul(31).wrapping_add(v.to_bits() ^ i as u64)
    })
}

/// The fixture generator itself must stay frozen: this pins its output so
/// an accidental edit fails here rather than via confusing decode
/// mismatches above.
#[test]
fn fixture_matrix_is_frozen() {
    let a = fixture_matrix();
    let checksum = matrix_checksum(&a);
    assert_eq!(a.rows(), 14);
    assert_eq!(a.cols(), 9);
    assert_eq!(checksum, {
        // Recorded once at fixture-generation time.
        let recorded = std::fs::read_to_string(golden_dir().join("checksum.txt"))
            .expect("tests/golden/checksum.txt (regenerate with TOC_BLESS=1)");
        recorded.trim().parse::<u64>().unwrap()
    });
}
