//! Test-only helpers for the CLI crate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// The committed legacy v1 container (57 rows x 6 cols in 16-row TOC
/// segments). Nothing writes v1 any more, so the v1 read legs use it.
pub const GOLDEN_V1: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../formats/tests/golden/container_v1.tocz"
);

static NEXT_TEMP_ID: AtomicU32 = AtomicU32::new(0);

/// A uniquely named temp file path that removes itself on drop.
///
/// Names combine the process id with a process-global counter, so two
/// tests in one process (same pid!) never collide, and the RAII guard
/// cleans up even when the owning test panics mid-way.
pub struct TempPath {
    path: PathBuf,
}

impl TempPath {
    /// A fresh path `<tmp>/toc-<label>-<pid>-<n>.<ext>` (no file created).
    pub fn new(label: &str, ext: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "toc-{label}-{}-{}.{ext}",
            std::process::id(),
            NEXT_TEMP_ID.fetch_add(1, Ordering::Relaxed),
        ));
        Self { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The path as a `String`, for CLI argument lists.
    pub fn arg(&self) -> String {
        self.path.display().to_string()
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}
