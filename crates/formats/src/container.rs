//! The `.tocz` container: whole datasets as ordered encoded mini-batch
//! segments, seekable since v2.
//!
//! **v1** (legacy, read-only — nothing here writes it) is a
//! decode-everything blob:
//!
//! ```text
//! magic   u32 = 0x544F435A ("TOCZ")
//! version u8  = 1
//! batches u32
//! per batch: u32 byte length, then the tagged MatrixBatch bytes
//! ```
//!
//! **v2** is self-describing from the end of the file: a fixed-size
//! postscript at EOF points at a footer that holds a recursive layout
//! tree whose leaves record `(scheme tag, byte extent, row range, zone
//! map)` per encoded segment. Readers seek to the postscript, parse the
//! footer, and then read *only* the segments a mini-batch or row-range
//! projection touches:
//!
//! ```text
//! magic u32, version u8 = 2
//! segment 0 bytes | segment 1 bytes | ...          (tagged batch bytes)
//! footer:
//!   cols u64, segments u64
//!   layout node (recursive):
//!     kind u8 (0 = leaf, 1 = interior)
//!     row_start u64, row_end u64, begin u64, end u64
//!     zone map: min f64, max f64, nnz u64, distinct u64
//!     leaf: scheme u8 | interior: n_children u64, children...
//! postscript (last 29 bytes):
//!   footer_offset u64, footer_len u64, footer_fnv1a u64,
//!   version u8, magic u32
//! ```
//!
//! Every byte of the footer is covered by the FNV-1a checksum in the
//! postscript and the postscript fields are cross-validated against the
//! file length, so any single-byte corruption of either region is a
//! structured [`FormatError`], never a panic or a silently wrong read.
//! The layout-tree shape follows the Vortex footer design (a recursive
//! `(encoding, buffer-extent, children)` tree plus a postscript holding
//! `footer_offset`); zone maps estimate distinct values by the CLA
//! planner's Good–Turing rule.
//!
//! Both versions are read by one reader, [`SeekableContainer`], over any
//! positional [`Source`]: a file ([`SeekableContainer::open`]) or a byte
//! slice ([`Container::from_bytes`] / [`Container::read`] parse one).

use crate::cla::planner::estimate_distinct;
use crate::wire::{put_f64, put_u32, put_u64, Rd};
use crate::{AnyBatch, EncodeOptions, ExecScratch, FormatError, MatrixBatch, Scheme};
use std::borrow::Cow;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use toc_core::hash::{value_key, FxHashMap};
use toc_linalg::DenseMatrix;

/// `"TOCZ"` little-endian, leading and trailing.
pub const MAGIC: u32 = 0x544F_435A;
/// Leading header: magic + version byte.
pub const HEADER_LEN: usize = 5;
/// Fixed-size v2 postscript at EOF.
pub const POSTSCRIPT_LEN: usize = 29;
/// Layout-tree fanout: leaves are grouped bottom-up in runs of this many.
pub const FOOTER_FANOUT: usize = 8;
/// Serialized size of a leaf node (kind + row range + extent + zone + tag).
const LEAF_WIRE_LEN: usize = 66;
/// Recursion guard for adversarial footers.
const MAX_TREE_DEPTH: usize = 64;

const V1: u8 = 1;
const V2: u8 = 2;

fn corrupt(msg: impl Into<String>) -> FormatError {
    FormatError::Corrupt(msg.into())
}

/// FNV-1a 64-bit, the footer integrity checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Zone maps.

/// Per-segment statistics recorded in the footer so readers can prune
/// segments without touching their bytes: value bounds, non-zero count,
/// and a distinct-value estimate by the CLA planner's Good–Turing rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZoneMap {
    /// Smallest value in the segment (0.0 for an empty segment).
    pub min: f64,
    /// Largest value in the segment (0.0 for an empty segment).
    pub max: f64,
    /// Non-zero count.
    pub nnz: u64,
    /// Estimated distinct-value count.
    pub distinct: u64,
}

impl ZoneMap {
    /// Compute from a dense segment, sampling `sample_rows` rows for the
    /// distinct estimate.
    ///
    /// One hashing pass counts the values of the sampled rows (evenly
    /// spaced; every row once `sample_rows >= rows`). When the sample is
    /// every row those counts hold every value of the segment, so `min`,
    /// `max` and `nnz` come from them and no cell is read twice;
    /// otherwise a walk over the cells takes them (`bounds_of_cells`, which
    /// defines them in both cases).
    pub fn compute(dense: &DenseMatrix, sample_rows: usize) -> Self {
        let (rows, cols) = (dense.rows(), dense.cols());
        if rows == 0 || cols == 0 {
            return Self {
                min: 0.0,
                max: 0.0,
                nnz: 0,
                distinct: 0,
            };
        }
        let take = sample_rows.clamp(1, rows);
        // `value_key` of a bit pattern → (the bit pattern, its cells).
        let mut counts: FxHashMap<u64, (u64, u64)> = FxHashMap::default();
        for i in 0..take {
            for &v in dense.row(i * rows / take) {
                let bits = v.to_bits();
                counts.entry(value_key(bits)).or_insert((bits, 0)).1 += 1;
            }
        }
        let f1 = counts.values().filter(|&&(_, cells)| cells == 1).count();
        let distinct = estimate_distinct(counts.len(), f1, take * cols, rows * cols) as u64;
        let bounds = if take == rows {
            bounds_of_values(counts.values())
        } else {
            None
        };
        let (min, max, nnz) = bounds.unwrap_or_else(|| bounds_of_cells(dense.data()));
        Self {
            min,
            max,
            nnz,
            distinct,
        }
    }

    /// The merged zone of two sibling segments (interior tree nodes).
    /// `distinct` sums — an upper bound, exact when the children share no
    /// values.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            nnz: self.nnz + other.nnz,
            distinct: self.distinct.saturating_add(other.distinct),
        }
    }

    /// Whether the zone can contain a value in `[lo, hi]` (pruning keeps
    /// the segment iff this is true; `nnz == 0` segments can still match
    /// when the query range covers 0).
    pub fn may_contain_in(&self, lo: f64, hi: f64) -> bool {
        self.max >= lo && self.min <= hi
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        put_f64(out, self.min);
        put_f64(out, self.max);
        put_u64(out, self.nnz);
        put_u64(out, self.distinct);
    }

    fn parse(rd: &mut Rd) -> Result<Self, FormatError> {
        Ok(Self {
            min: rd.f64()?,
            max: rd.f64()?,
            nnz: rd.u64()?,
            distinct: rd.u64()?,
        })
    }
}

/// A zone's `(min, max, nnz)` by definition: the `f64::min` / `f64::max`
/// chains from `+∞` / `-∞` over the cells in row-major order, and the
/// cells with `v != 0.0` (NaN counts, `-0.0` does not).
fn bounds_of_cells(cells: &[f64]) -> (f64, f64, u64) {
    let (mut min, mut max, mut nnz) = (f64::INFINITY, f64::NEG_INFINITY, 0u64);
    for &v in cells {
        min = min.min(v);
        max = max.max(v);
        nnz += (v != 0.0) as u64;
    }
    (min, max, nnz)
}

/// [`bounds_of_cells`] from each distinct bit pattern and its cell count,
/// wherever the chains' result does not depend on the cells' order.
///
/// The rule, pinned: `f64::min` / `f64::max` return the other operand
/// when one is NaN, so a NaN never becomes a bound and an all-NaN segment
/// keeps `+∞` / `-∞`. Two distinct bit patterns that are not NaN compare
/// equal only if they are `0.0` and `-0.0`, and which of those two the
/// chains keep is not specified by `f64::min` / `f64::max` — it can
/// depend on which came first. So the result is order-free unless both
/// zeros occur and a bound is zero: then this returns `None` and the
/// caller walks the cells.
fn bounds_of_values<'a>(values: impl Iterator<Item = &'a (u64, u64)>) -> Option<(f64, f64, u64)> {
    let (mut min, mut max, mut nnz, mut zeros) = (f64::INFINITY, f64::NEG_INFINITY, 0u64, 0);
    for &(bits, cells) in values {
        let v = f64::from_bits(bits);
        min = min.min(v);
        max = max.max(v);
        if v != 0.0 {
            nnz += cells;
        } else {
            zeros += 1;
        }
    }
    let tied = zeros == 2 && (min == 0.0 || max == 0.0);
    (!tied).then_some((min, max, nnz))
}

// ---------------------------------------------------------------------------
// The layout tree.

/// One node of the recursive layout tree. Leaves describe one encoded
/// segment; interior nodes hold the hull of their children so a reader
/// can prune whole subtrees by row range or zone map.
#[derive(Clone, Debug, PartialEq)]
pub struct LayoutNode {
    /// Leaf: the segment's scheme tag. Interior: `None`.
    pub scheme: Option<u8>,
    /// First row covered (inclusive).
    pub row_start: u64,
    /// Last row covered (exclusive).
    pub row_end: u64,
    /// Byte extent `[begin, end)` as absolute file offsets.
    pub begin: u64,
    /// Byte extent end (exclusive).
    pub end: u64,
    /// Zone map of the covered rows (merged hull for interior nodes).
    pub zone: ZoneMap,
    /// Child nodes (empty for leaves).
    pub children: Vec<LayoutNode>,
}

impl LayoutNode {
    pub fn is_leaf(&self) -> bool {
        self.scheme.is_some()
    }

    /// Number of leaves under this node (1 for a leaf).
    pub fn leaf_count(&self) -> usize {
        if self.is_leaf() {
            1
        } else {
            self.children.iter().map(LayoutNode::leaf_count).sum()
        }
    }

    /// Tree height below this node (a leaf is 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LayoutNode::depth)
            .max()
            .unwrap_or(0)
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        out.push(if self.is_leaf() { 0 } else { 1 });
        put_u64(out, self.row_start);
        put_u64(out, self.row_end);
        put_u64(out, self.begin);
        put_u64(out, self.end);
        self.zone.write_to(out);
        match self.scheme {
            Some(tag) => out.push(tag),
            None => {
                put_u64(out, self.children.len() as u64);
                for c in &self.children {
                    c.write_to(out);
                }
            }
        }
    }

    fn parse(rd: &mut Rd, depth: usize) -> Result<Self, FormatError> {
        if depth > MAX_TREE_DEPTH {
            return Err(corrupt("layout tree deeper than the recursion bound"));
        }
        let kind = rd.u8()?;
        let row_start = rd.u64()?;
        let row_end = rd.u64()?;
        let begin = rd.u64()?;
        let end = rd.u64()?;
        let zone = ZoneMap::parse(rd)?;
        if row_start > row_end || begin > end {
            return Err(corrupt("layout node with inverted range"));
        }
        match kind {
            0 => {
                let tag = rd.u8()?;
                if !Scheme::is_valid_tag(tag) {
                    return Err(corrupt(format!(
                        "layout leaf with unknown scheme tag {tag}"
                    )));
                }
                if row_start == row_end || begin == end {
                    return Err(corrupt("empty layout leaf"));
                }
                Ok(Self {
                    scheme: Some(tag),
                    row_start,
                    row_end,
                    begin,
                    end,
                    zone,
                    children: Vec::new(),
                })
            }
            1 => {
                let n = rd.u64()? as usize;
                // A child needs at least a leaf's worth of bytes: bound
                // the declared count by what the remaining footer can
                // physically back before allocating (the PR 6
                // implausible-declared-length rule).
                if n > rd.remaining() / LEAF_WIRE_LEN {
                    return Err(corrupt("implausible layout child count"));
                }
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(LayoutNode::parse(rd, depth + 1)?);
                }
                // Interior hull must equal its children exactly: rows and
                // bytes contiguous, no gaps, no overlap.
                if let (Some(first), Some(last)) = (children.first(), children.last()) {
                    if first.row_start != row_start
                        || last.row_end != row_end
                        || first.begin != begin
                        || last.end != end
                    {
                        return Err(corrupt("interior node hull disagrees with children"));
                    }
                    for w in children.windows(2) {
                        if w[1].row_start != w[0].row_end || w[1].begin != w[0].end {
                            return Err(corrupt("layout children not contiguous"));
                        }
                    }
                } else if row_start != row_end || begin != end {
                    return Err(corrupt("childless interior node covers rows"));
                }
                Ok(Self {
                    scheme: None,
                    row_start,
                    row_end,
                    begin,
                    end,
                    zone,
                    children,
                })
            }
            k => Err(corrupt(format!("unknown layout node kind {k}"))),
        }
    }
}

/// The parsed v2 footer: column count plus the layout tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Footer {
    /// Columns of every segment.
    pub cols: u64,
    /// The layout tree (a single leaf for 1-segment containers, a
    /// childless interior node for empty ones).
    pub root: LayoutNode,
}

impl Footer {
    pub fn total_rows(&self) -> u64 {
        self.root.row_end
    }

    pub fn num_segments(&self) -> usize {
        self.root.leaf_count()
    }

    /// The leaves in segment order.
    pub fn leaves(&self) -> Vec<&LayoutNode> {
        let mut out = Vec::with_capacity(self.num_segments());
        fn walk<'a>(n: &'a LayoutNode, out: &mut Vec<&'a LayoutNode>) {
            if n.is_leaf() {
                out.push(n);
            } else {
                for c in &n.children {
                    walk(c, out);
                }
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// Segment indexes whose row range intersects `[r0, r1)`, found by
    /// pruning the tree (subtrees outside the range are skipped whole).
    pub fn segments_overlapping_rows(&self, r0: u64, r1: u64) -> Vec<usize> {
        let mut out = Vec::new();
        if r0 >= r1 {
            return out;
        }
        fn walk(n: &LayoutNode, r0: u64, r1: u64, idx: &mut usize, out: &mut Vec<usize>) {
            if n.row_end <= r0 || n.row_start >= r1 {
                *idx += n.leaf_count();
                return;
            }
            if n.is_leaf() {
                out.push(*idx);
                *idx += 1;
            } else {
                for c in &n.children {
                    walk(c, r0, r1, idx, out);
                }
            }
        }
        let mut idx = 0;
        walk(&self.root, r0, r1, &mut idx, &mut out);
        out
    }

    /// Segment indexes whose zone map may contain a value in `[lo, hi]`
    /// — zone-map pruning, hierarchical: an interior node whose merged
    /// zone misses the range skips its whole subtree.
    pub fn segments_with_values_in(&self, lo: f64, hi: f64) -> Vec<usize> {
        let mut out = Vec::new();
        fn walk(n: &LayoutNode, lo: f64, hi: f64, idx: &mut usize, out: &mut Vec<usize>) {
            if !n.zone.may_contain_in(lo, hi) {
                *idx += n.leaf_count();
                return;
            }
            if n.is_leaf() {
                out.push(*idx);
                *idx += 1;
            } else {
                for c in &n.children {
                    walk(c, lo, hi, idx, out);
                }
            }
        }
        let mut idx = 0;
        walk(&self.root, lo, hi, &mut idx, &mut out);
        out
    }

    /// Serialize (the byte range the postscript checksum covers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.cols);
        put_u64(&mut out, self.num_segments() as u64);
        self.root.write_to(&mut out);
        out
    }

    /// Parse and structurally validate a footer byte range.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        let mut rd = Rd::new(bytes);
        let cols = rd.u64()?;
        let segments = rd.u64()? as usize;
        // Each segment contributes one >= LEAF_WIRE_LEN leaf; reject a
        // declared count the footer can't physically hold.
        if segments > rd.remaining() / LEAF_WIRE_LEN {
            return Err(corrupt("implausible footer segment count"));
        }
        let root = LayoutNode::parse(&mut rd, 1)?;
        rd.done()?;
        if root.leaf_count() != segments {
            return Err(corrupt("footer segment count disagrees with the tree"));
        }
        if segments == 0 && (root.is_leaf() || root.row_start != root.row_end) {
            return Err(corrupt("empty footer with a non-empty tree"));
        }
        if root.row_start != 0 {
            return Err(corrupt("layout tree does not start at row 0"));
        }
        Ok(Self { cols, root })
    }
}

/// Build the layout tree bottom-up with [`FOOTER_FANOUT`]-wide interior
/// nodes. One leaf stays a bare leaf root; zero leaves become a childless
/// interior node anchored at `empty_offset`.
fn build_tree(mut level: Vec<LayoutNode>, empty_offset: u64) -> LayoutNode {
    if level.is_empty() {
        return LayoutNode {
            scheme: None,
            row_start: 0,
            row_end: 0,
            begin: empty_offset,
            end: empty_offset,
            zone: ZoneMap {
                min: 0.0,
                max: 0.0,
                nnz: 0,
                distinct: 0,
            },
            children: Vec::new(),
        };
    }
    while level.len() > 1 {
        level = level
            .chunks(FOOTER_FANOUT)
            .map(|run| {
                let zone = run[1..]
                    .iter()
                    .fold(run[0].zone, |acc, n| acc.merge(&n.zone));
                LayoutNode {
                    scheme: None,
                    row_start: run[0].row_start,
                    row_end: run[run.len() - 1].row_end,
                    begin: run[0].begin,
                    end: run[run.len() - 1].end,
                    zone,
                    children: run.to_vec(),
                }
            })
            .collect();
    }
    level.pop().unwrap()
}

// ---------------------------------------------------------------------------
// The postscript.

/// The fixed-size trailer at EOF: where the footer is and what protects it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Postscript {
    /// Absolute file offset of the footer.
    pub footer_offset: u64,
    /// Footer length in bytes.
    pub footer_len: u64,
    /// FNV-1a 64 of the footer bytes.
    pub footer_checksum: u64,
}

impl Postscript {
    fn write_to(&self, out: &mut Vec<u8>) {
        put_u64(out, self.footer_offset);
        put_u64(out, self.footer_len);
        put_u64(out, self.footer_checksum);
        out.push(V2);
        put_u32(out, MAGIC);
    }

    /// Parse the last [`POSTSCRIPT_LEN`] bytes of a v2 container.
    pub fn parse(tail: &[u8]) -> Result<Self, FormatError> {
        if tail.len() != POSTSCRIPT_LEN {
            return Err(corrupt("postscript length mismatch"));
        }
        let mut rd = Rd::new(tail);
        let footer_offset = rd.u64()?;
        let footer_len = rd.u64()?;
        let footer_checksum = rd.u64()?;
        let version = rd.u8()?;
        let magic = rd.u32()?;
        rd.done()?;
        if magic != MAGIC {
            return Err(corrupt("bad postscript magic"));
        }
        if version != V2 {
            return Err(corrupt("unsupported postscript version"));
        }
        Ok(Self {
            footer_offset,
            footer_len,
            footer_checksum,
        })
    }

    /// Cross-validate against the file length: the footer must sit flush
    /// between the segments and this postscript.
    pub fn validate(&self, file_len: u64) -> Result<(), FormatError> {
        if file_len < (HEADER_LEN + POSTSCRIPT_LEN) as u64 {
            return Err(corrupt("file too short for a v2 container"));
        }
        if self.footer_offset < HEADER_LEN as u64 {
            return Err(corrupt("footer offset inside the header"));
        }
        match self.footer_offset.checked_add(self.footer_len) {
            Some(end) if end == file_len - POSTSCRIPT_LEN as u64 => Ok(()),
            _ => Err(corrupt("footer extent does not reach the postscript")),
        }
    }
}

// ---------------------------------------------------------------------------
// The container.

/// A compressed dataset: an ordered list of encoded mini-batch segments,
/// plus (when known) their zone maps.
pub struct Container {
    pub batches: Vec<AnyBatch>,
    /// One zone map per batch. Populated by [`Container::encode_with`]
    /// and by v2 parses; `None` after a v1 parse (v1 has no footer —
    /// serializing such a container to v2 recomputes them by decoding).
    zones: Option<Vec<ZoneMap>>,
}

impl Container {
    /// Wrap pre-encoded batches (no zone maps yet).
    pub fn new(batches: Vec<AnyBatch>) -> Self {
        Self {
            batches,
            zones: None,
        }
    }

    /// Encode `m` into `segment_rows`-row segments with `scheme`,
    /// computing each segment's zone map as it goes (the distinct
    /// estimate samples `opts.cla.sample_rows` rows — the CLA planner's
    /// sampler knob).
    pub fn encode_with(
        m: &DenseMatrix,
        scheme: Scheme,
        segment_rows: usize,
        opts: &EncodeOptions,
    ) -> Self {
        let mut batches = Vec::new();
        let mut zones = Vec::new();
        let mut start = 0;
        while start < m.rows() {
            let end = (start + segment_rows).min(m.rows());
            let dense = m.slice_rows(start, end);
            zones.push(ZoneMap::compute(&dense, opts.cla.sample_rows));
            batches.push(scheme.encode_with(&dense, opts));
            start = end;
        }
        Self {
            batches,
            zones: Some(zones),
        }
    }

    /// The zone maps, when known.
    pub fn zones(&self) -> Option<&[ZoneMap]> {
        self.zones.as_deref()
    }

    /// Decode all batches back into one dense matrix.
    pub fn decode(&self) -> Result<DenseMatrix, String> {
        let total_rows: usize = self.batches.iter().map(|b| b.rows()).sum();
        let cols = self.batches.first().map(|b| b.cols()).unwrap_or(0);
        let mut out = DenseMatrix::zeros(total_rows, cols);
        let mut row = 0;
        for b in &self.batches {
            if b.cols() != cols {
                return Err("inconsistent batch widths".into());
            }
            let dense = b.decode();
            for r in 0..dense.rows() {
                out.row_mut(row).copy_from_slice(dense.row(r));
                row += 1;
            }
        }
        Ok(out)
    }

    /// Total encoded payload size (excluding container framing).
    pub fn payload_bytes(&self) -> usize {
        self.batches.iter().map(|b| b.size_bytes()).sum()
    }

    /// Serialize to a v2 `.tocz` file.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let bytes = self.to_bytes().map_err(|e| e.to_string())?;
        std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Load and validate a `.tocz` file (either version).
    pub fn read(path: &Path) -> Result<Self, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Serialize as v2 (segments, footer tree with zone maps, postscript)
    /// by driving a [`ContainerStreamWriter`] over a `Vec`. A batch
    /// without a stored zone map (a v1 parse, or one pushed onto
    /// `batches` afterwards) gets one recomputed by decoding it — the
    /// v1 → v2 upgrade path. Batches that disagree on column count are a
    /// [`FormatError::MixedCols`].
    pub fn to_bytes(&self) -> Result<Vec<u8>, FormatError> {
        let mut out = Vec::new();
        let mut w = ContainerStreamWriter::new(&mut out)?;
        for (i, b) in self.batches.iter().enumerate() {
            let stored = self.zones.as_ref().and_then(|z| z.get(i).copied());
            let zone = stored.unwrap_or_else(|| {
                ZoneMap::compute(&b.decode(), crate::ClaOptions::default().sample_rows)
            });
            w.append(b, zone)?;
        }
        w.finish()?;
        Ok(out)
    }

    /// Parse a whole container image of either version: the
    /// [`SeekableContainer`] over the slice, every segment parsed to keep.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        let reader = SeekableContainer::from_slice(bytes)?;
        let batches = (0..reader.num_segments())
            .map(|i| reader.parse_segment(i, parse_to_keep))
            .collect::<Result<_, _>>()?;
        // v1 records no zone maps; its layout's are placeholders.
        let zones =
            (reader.version() == V2).then(|| reader.leaves.iter().map(|l| l.zone).collect());
        Ok(Self { batches, zones })
    }
}

/// [`Scheme::from_bytes`] for a batch that stays in a [`Container`]: without
/// the decode tree a TOC parse carries for the visit that follows a spilled
/// read (see [`toc_core::TocBatch::from_bytes`]), or a whole-file read would
/// hold several times its encoded size.
fn parse_to_keep(bytes: &[u8]) -> Result<AnyBatch, FormatError> {
    let mut batch = Scheme::from_bytes(bytes)?;
    if let Some(toc) = batch.toc_mut() {
        toc.shed_tree();
    }
    Ok(batch)
}

/// Streaming v2 writer: segments are appended one at a time to any
/// [`std::io::Write`] sink, and only per-segment *metadata* (one
/// [`LayoutNode`] leaf, ~66 bytes) is retained in
/// memory until [`ContainerStreamWriter::finish`] emits the layout-tree
/// footer and postscript. A finished stream is a valid seekable v2
/// `.tocz` — this is the one v2 serializer, [`Container::to_bytes`] drives
/// it over a `Vec` — and the ingest pipeline's bounded-memory claim rests
/// on never holding more than the segment currently being written.
pub struct ContainerStreamWriter<W: std::io::Write> {
    sink: W,
    /// Column count fixed by the first segment (the v2 footer records a
    /// single `cols`, so a mixed-width append is rejected up front).
    cols: Option<usize>,
    leaves: Vec<LayoutNode>,
    /// Bytes written to `sink` so far (= the next segment's `begin`).
    offset: u64,
    rows: u64,
}

impl<W: std::io::Write> ContainerStreamWriter<W> {
    /// Start a stream: writes the 5-byte header immediately.
    pub fn new(mut sink: W) -> Result<Self, FormatError> {
        sink.write_all(&MAGIC.to_le_bytes())
            .and_then(|()| sink.write_all(&[V2]))
            .map_err(|e| FormatError::io("write container header", e))?;
        Ok(Self {
            sink,
            cols: None,
            leaves: Vec::new(),
            offset: HEADER_LEN as u64,
            rows: 0,
        })
    }

    /// Reconstruct a writer from a checkpointed [`WriterState`]: the
    /// header and every sealed segment up to `state.offset()` are assumed
    /// to already be in the file, and `sink` must be positioned exactly
    /// at `state.offset()` (the caller truncates any torn bytes past the
    /// watermark first). Nothing is written; the next
    /// [`ContainerStreamWriter::append`] continues the stream as if it
    /// had never stopped, so a resumed container is byte-identical to an
    /// uninterrupted one.
    pub fn resume(sink: W, state: WriterState) -> Result<Self, FormatError> {
        state.validate()?;
        Ok(Self {
            sink,
            cols: state.cols.map(|c| c as usize),
            leaves: state.leaves,
            offset: state.offset,
            rows: state.rows,
        })
    }

    /// Snapshot everything [`ContainerStreamWriter::finish`] will need —
    /// column count, byte/row watermarks and the per-segment leaf
    /// metadata — as a [`WriterState`] for a checkpoint sidecar. Cheap:
    /// one leaf is ~66 bytes.
    pub fn state(&self) -> WriterState {
        WriterState {
            cols: self.cols.map(|c| c as u64),
            offset: self.offset,
            rows: self.rows,
            leaves: self.leaves.clone(),
        }
    }

    /// Flush the sink (checkpointing must not record a watermark the
    /// file does not durably contain yet).
    pub fn flush(&mut self) -> Result<(), FormatError> {
        self.sink.flush().map_err(|e| FormatError::io("flush", e))
    }

    /// Append one encoded segment with its precomputed zone map (compute
    /// it from the dense chunk *before* encoding, exactly like
    /// [`Container::encode_with`] does).
    pub fn append(&mut self, batch: &AnyBatch, zone: ZoneMap) -> Result<(), FormatError> {
        let cols = *self.cols.get_or_insert(batch.cols());
        if batch.cols() != cols {
            return Err(FormatError::MixedCols {
                batch: self.leaves.len(),
                got: batch.cols(),
                expected: cols,
            });
        }
        let bytes = batch.to_bytes();
        self.sink
            .write_all(&bytes)
            .map_err(|e| FormatError::io("write segment", e))?;
        self.leaves.push(LayoutNode {
            scheme: Some(bytes[0]),
            row_start: self.rows,
            row_end: self.rows + batch.rows() as u64,
            begin: self.offset,
            end: self.offset + bytes.len() as u64,
            zone,
            children: Vec::new(),
        });
        self.offset += bytes.len() as u64;
        self.rows += batch.rows() as u64;
        Ok(())
    }

    /// Segments appended so far.
    pub fn num_segments(&self) -> usize {
        self.leaves.len()
    }

    /// Total rows appended so far.
    pub fn total_rows(&self) -> u64 {
        self.rows
    }

    /// Bytes written to the sink so far (header plus sealed segments; the
    /// footer is not included until [`ContainerStreamWriter::finish`]).
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Seal the stream: footer tree + postscript, then flush. Returns the
    /// total container size in bytes.
    pub fn finish(mut self) -> Result<u64, FormatError> {
        let footer_offset = self.offset;
        let footer = Footer {
            cols: self.cols.unwrap_or(0) as u64,
            root: build_tree(std::mem::take(&mut self.leaves), footer_offset),
        };
        let fbytes = footer.to_bytes();
        let ps = Postscript {
            footer_offset,
            footer_len: fbytes.len() as u64,
            footer_checksum: fnv1a64(&fbytes),
        };
        let mut tail = fbytes;
        ps.write_to(&mut tail);
        self.sink
            .write_all(&tail)
            .and_then(|()| self.sink.flush())
            .map_err(|e| FormatError::io("write container footer", e))?;
        Ok(footer_offset + tail.len() as u64)
    }
}

/// The resumable state of a [`ContainerStreamWriter`], serializable for
/// a checkpoint sidecar: the column count, the byte watermark (`offset`,
/// everything below it is sealed segments), the row watermark, and the
/// leaf metadata the footer will be built from. [`WriterState::to_bytes`]
/// / [`WriterState::from_bytes`] round-trip it; parsing re-validates the
/// structural invariants (contiguous leaf extents starting at
/// [`HEADER_LEN`] and ending at the watermark, contiguous row ranges) so
/// a corrupted sidecar is a structured error, never a writer that emits
/// a misframed footer.
#[derive(Clone, Debug, PartialEq)]
pub struct WriterState {
    cols: Option<u64>,
    offset: u64,
    rows: u64,
    leaves: Vec<LayoutNode>,
}

/// Version byte leading a serialized [`WriterState`].
const WRITER_STATE_V1: u8 = 1;

impl WriterState {
    /// Byte watermark: the file offset one past the last sealed segment.
    /// A resume validator truncates the partial file back to exactly this
    /// length before reopening.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Rows sealed so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Segments sealed so far.
    pub fn num_segments(&self) -> usize {
        self.leaves.len()
    }

    /// Column count pinned by the first sealed segment (`None` until one
    /// seals). A resume driver uses this to rebuild its staging workspace
    /// without re-reading any source rows.
    pub fn cols(&self) -> Option<u64> {
        self.cols
    }

    fn validate(&self) -> Result<(), FormatError> {
        let mut at = HEADER_LEN as u64;
        let mut row = 0u64;
        for (i, leaf) in self.leaves.iter().enumerate() {
            if !leaf.is_leaf() {
                return Err(corrupt(format!("writer state node {i} is not a leaf")));
            }
            if leaf.begin != at || leaf.row_start != row {
                return Err(corrupt(format!(
                    "writer state leaf {i} is not contiguous with its predecessor"
                )));
            }
            at = leaf.end;
            row = leaf.row_end;
        }
        if at != self.offset || row != self.rows {
            return Err(corrupt(
                "writer state watermark disagrees with its leaf extents",
            ));
        }
        if self.cols.is_none() && !self.leaves.is_empty() {
            return Err(corrupt("writer state has segments but no column count"));
        }
        Ok(())
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.leaves.len() * LEAF_WIRE_LEN);
        out.push(WRITER_STATE_V1);
        match self.cols {
            Some(c) => {
                out.push(1);
                put_u64(&mut out, c);
            }
            None => {
                out.push(0);
                put_u64(&mut out, 0);
            }
        }
        put_u64(&mut out, self.offset);
        put_u64(&mut out, self.rows);
        put_u64(&mut out, self.leaves.len() as u64);
        for leaf in &self.leaves {
            leaf.write_to(&mut out);
        }
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        let mut rd = Rd::new(bytes);
        if rd.u8()? != WRITER_STATE_V1 {
            return Err(corrupt("unknown writer-state version"));
        }
        let has_cols = rd.u8()?;
        let cols_raw = rd.u64()?;
        let cols = match has_cols {
            0 => None,
            1 => Some(cols_raw),
            _ => return Err(corrupt("bad writer-state cols flag")),
        };
        let offset = rd.u64()?;
        let rows = rd.u64()?;
        let n = rd.u64()? as usize;
        if n > rd.remaining() / LEAF_WIRE_LEN {
            return Err(corrupt("writer state claims more leaves than it carries"));
        }
        let mut leaves = Vec::with_capacity(n);
        for _ in 0..n {
            leaves.push(LayoutNode::parse(&mut rd, 0)?);
        }
        if rd.remaining() != 0 {
            return Err(corrupt("trailing bytes after writer state"));
        }
        let state = Self {
            cols,
            offset,
            rows,
            leaves,
        };
        state.validate()?;
        Ok(state)
    }
}

impl Footer {
    /// The leaves, additionally validated against the segment region of
    /// the container: the first segment starts right after the header and
    /// the last ends exactly where the footer begins, so the leaves tile
    /// `[HEADER_LEN, footer_offset)` with no gap for unaccounted bytes
    /// (leaf contiguity itself is enforced during parse).
    pub fn leaves_validated(&self, footer_offset: u64) -> Result<Vec<LayoutNode>, FormatError> {
        let leaves: Vec<LayoutNode> = self.leaves().into_iter().cloned().collect();
        match (leaves.first(), leaves.last()) {
            (Some(first), Some(last)) => {
                if first.begin != HEADER_LEN as u64 || last.end != footer_offset {
                    return Err(corrupt("segments do not tile the payload region"));
                }
            }
            _ => {
                if footer_offset != HEADER_LEN as u64 {
                    return Err(corrupt("segments do not tile the payload region"));
                }
            }
        }
        Ok(leaves)
    }
}

// ---------------------------------------------------------------------------
// The reader.

/// A file read at arbitrary offsets by any number of threads — under the
/// `.tocz` reader and the spill shards alike.
///
/// On unix the read path is positional (`pread` via
/// `std::os::unix::fs::FileExt::read_exact_at`): no seek, no lock, no
/// shared cursor. Elsewhere a portable fallback serializes seek+read
/// pairs behind a mutex.
#[derive(Debug)]
pub struct PositionalFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl PositionalFile {
    pub fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            Self { file }
        }
        #[cfg(not(unix))]
        {
            Self {
                file: std::sync::Mutex::new(file),
            }
        }
    }

    /// Read exactly `buf.len()` bytes at `offset`.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }

    /// Write all of `buf` at `offset` (a live store's streaming appends
    /// land at the end of their shard file through this).
    pub fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(buf)
        }
    }
}

/// What a [`SeekableContainer`] reads from: an image it can read at any
/// offset. The reader only asks for ranges it has checked against the
/// image length it was opened with.
pub trait Source: Sync {
    /// Bytes `[offset, offset + len)`.
    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Cow<'_, [u8]>>;
}

impl Source for &[u8] {
    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Cow<'_, [u8]>> {
        usize::try_from(offset)
            .ok()
            .and_then(|at| self.get(at..at.checked_add(len)?))
            .map(Cow::Borrowed)
            .ok_or_else(|| std::io::ErrorKind::UnexpectedEof.into())
    }
}

impl Source for PositionalFile {
    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Cow<'_, [u8]>> {
        let mut buf = vec![0u8; len];
        self.read_exact_at(&mut buf, offset)?;
        Ok(Cow::Owned(buf))
    }
}

/// The reads a [`SeekableContainer`] has made of its source, and their bytes.
#[derive(Debug, Default)]
pub struct ReadStats {
    reads: AtomicU64,
    bytes: AtomicU64,
}

/// A [`ReadStats`] reading.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadCounts {
    pub disk_reads: u64,
    pub bytes_read: u64,
}

impl ReadStats {
    pub fn snapshot(&self) -> ReadCounts {
        ReadCounts {
            disk_reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// One counted read of `src`.
    fn read<'s, S: Source>(
        &self,
        src: &'s S,
        offset: u64,
        len: usize,
    ) -> Result<Cow<'s, [u8]>, FormatError> {
        let bytes = src
            .read_at(offset, len)
            .map_err(|e| FormatError::io("read container", e))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        Ok(bytes)
    }
}

/// What [`SeekableContainer::for_each_row`] hands every row to:
/// `f(row_index, values)`.
pub type RowSink<'a, E> = &'a mut dyn FnMut(usize, &[f64]) -> Result<(), E>;

/// A v1 leaf's zone: v1 records none, so the hull that prunes nothing.
const NO_ZONE: ZoneMap = ZoneMap {
    min: f64::NEG_INFINITY,
    max: f64::INFINITY,
    nnz: 0,
    distinct: 0,
};

/// A `.tocz` container of either version opened for reading — the one
/// reader, over a file ([`SeekableContainer::open`]) or a byte slice
/// ([`SeekableContainer::from_slice`], what [`Container::from_bytes`]
/// parses through).
///
/// Opening never touches a v2 segment: it costs exactly three positional
/// reads — header, postscript, footer. A v1 file has no footer, so its
/// open walks the length prefixes and parses each record once for its
/// shape; its [`SeekableContainer::footer`] is the layout that walk
/// finds, with zones that prune nothing. After that, a
/// [`SeekableContainer::decode_rows`] projection reads only the segments
/// whose row ranges the layout tree says intersect the query, each with
/// one positional read of exactly its byte extent (safe from any number
/// of threads). Every read is counted in the reader's own
/// [`ReadStats`], so callers can assert byte-precise access patterns —
/// the random-access CI gate does.
pub struct SeekableContainer<S = PositionalFile> {
    src: S,
    stats: ReadStats,
    footer: Footer,
    /// The layout's leaves in segment order: what every segment read
    /// indexes.
    leaves: Vec<LayoutNode>,
    /// v2 only: what tells the versions apart once open.
    postscript: Option<Postscript>,
}

impl SeekableContainer {
    /// Open the `.tocz` file at `path`.
    pub fn open(path: &Path) -> Result<Self, FormatError> {
        let io = |e| FormatError::io("open container", e);
        let file = File::open(path).map_err(io)?;
        let len = file.metadata().map_err(io)?.len();
        Self::from_source(PositionalFile::new(file), len)
    }
}

impl<'a> SeekableContainer<&'a [u8]> {
    /// Open a container image held in memory.
    pub fn from_slice(bytes: &'a [u8]) -> Result<Self, FormatError> {
        Self::from_source(bytes, bytes.len() as u64)
    }
}

impl<S: Source> SeekableContainer<S> {
    /// Open the `len`-byte container image `src` holds.
    fn from_source(src: S, len: u64) -> Result<Self, FormatError> {
        if len < HEADER_LEN as u64 {
            return Err(corrupt(format!(
                "not a .tocz container: truncated to {len} bytes, \
                 inside the {HEADER_LEN}-byte header"
            )));
        }
        let stats = ReadStats::default();
        let header = stats.read(&src, 0, HEADER_LEN)?;
        if header[..4] != MAGIC.to_le_bytes() {
            return Err(corrupt("not a .tocz container (bad magic)"));
        }
        let (footer, leaves, postscript) = match header[4] {
            V1 => {
                let (footer, leaves) = open_v1(&src, len, &stats)?;
                (footer, leaves, None)
            }
            V2 => {
                let (footer, leaves, ps) = open_v2(&src, len, &stats)?;
                (footer, leaves, Some(ps))
            }
            v => return Err(corrupt(format!("unsupported container version {v}"))),
        };
        Ok(Self {
            src,
            stats,
            footer,
            leaves,
            postscript,
        })
    }

    /// The wire version, 1 or 2.
    pub fn version(&self) -> u8 {
        if self.postscript.is_some() {
            V2
        } else {
            V1
        }
    }

    /// The layout tree (v2: the parsed footer with its zone maps).
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Where the footer sits and what protects it (v2 only).
    pub fn postscript(&self) -> Option<&Postscript> {
        self.postscript.as_ref()
    }

    /// Counters of every read this handle has made.
    pub fn stats(&self) -> &ReadStats {
        &self.stats
    }

    pub fn num_segments(&self) -> usize {
        self.leaves.len()
    }

    pub fn total_rows(&self) -> usize {
        self.footer.total_rows() as usize
    }

    pub fn cols(&self) -> usize {
        self.footer.cols as usize
    }

    /// Encoded bytes of all segments (what a decode-everything reader
    /// fetches beyond the framing).
    pub fn payload_bytes(&self) -> u64 {
        self.leaves.iter().map(|l| l.end - l.begin).sum()
    }

    /// Read and parse segment `idx` (panics past [`Self::num_segments`]).
    pub fn segment(&self, idx: usize) -> Result<AnyBatch, FormatError> {
        self.parse_segment(idx, Scheme::from_bytes)
    }

    /// One positional read of segment `idx`'s extent, parsed by `parse`,
    /// its scheme tag and shape held to the layout.
    fn parse_segment(
        &self,
        idx: usize,
        parse: fn(&[u8]) -> Result<AnyBatch, FormatError>,
    ) -> Result<AnyBatch, FormatError> {
        let leaf = &self.leaves[idx];
        let bytes = self
            .stats
            .read(&self.src, leaf.begin, (leaf.end - leaf.begin) as usize)?;
        if bytes.first() != leaf.scheme.as_ref() {
            return Err(corrupt("segment scheme tag disagrees with the footer"));
        }
        let batch = parse(&bytes)?;
        if batch.rows() as u64 != leaf.row_end - leaf.row_start || batch.cols() != self.cols() {
            return Err(corrupt("segment shape disagrees with the footer"));
        }
        Ok(batch)
    }

    /// Decode rows `r0..r1`, reading only the segments the layout tree
    /// says intersect the range and trimming the partial segments at the
    /// edges.
    pub fn decode_rows(&self, r0: usize, r1: usize) -> Result<DenseMatrix, FormatError> {
        let rows = self.total_rows();
        if r0 > r1 || r1 > rows {
            return Err(FormatError::RowRange {
                start: r0,
                end: r1,
                rows,
            });
        }
        let cols = self.cols();
        let mut out = DenseMatrix::zeros(r1 - r0, cols);
        let mut part = DenseMatrix::default();
        // Each touched segment's rows in the range land in their own band
        // of `out`.
        for idx in self.footer.segments_overlapping_rows(r0 as u64, r1 as u64) {
            let leaf = &self.leaves[idx];
            let (seg_start, seg_end) = (leaf.row_start as usize, leaf.row_end as usize);
            let (lo, hi) = (r0.max(seg_start), r1.min(seg_end));
            self.segment(idx)?
                .decode_rows_into(lo - seg_start, hi - seg_start, &mut part);
            out.data_mut()[(lo - r0) * cols..(hi - r0) * cols].copy_from_slice(part.data());
        }
        Ok(out)
    }

    /// Every row of the container in order, one decoded segment in memory
    /// at a time.
    pub fn for_each_row<E: From<FormatError>>(&self, f: RowSink<'_, E>) -> Result<(), E> {
        let (mut dense, mut scratch) = (DenseMatrix::default(), ExecScratch::default());
        let mut row = 0;
        for i in 0..self.num_segments() {
            self.segment(i)?.decode_into_ws(&mut dense, &mut scratch);
            for r in 0..dense.rows() {
                f(row, dense.row(r))?;
                row += 1;
            }
        }
        Ok(())
    }
}

/// Open a v1 image: no footer, so walk the length prefixes, parsing each
/// record once for its shape.
fn open_v1<S: Source>(
    src: &S,
    len: u64,
    stats: &ReadStats,
) -> Result<(Footer, Vec<LayoutNode>), FormatError> {
    let truncated = || corrupt("truncated container");
    // Invariant: `pos <= len`.
    let u32_at = |pos: u64| -> Result<u64, FormatError> {
        if len - pos < 4 {
            return Err(truncated());
        }
        let b = stats.read(src, pos, 4)?;
        Ok(u32::from_le_bytes(b[..4].try_into().unwrap()) as u64)
    };
    let n = u32_at(HEADER_LEN as u64)?;
    let mut pos = HEADER_LEN as u64 + 4;
    // Every batch record is at least a 4-byte length prefix: a count the
    // remaining bytes can't back is rejected before the `with_capacity`
    // below can allocate for it.
    if n > (len - pos) / 4 {
        return Err(corrupt("implausible v1 batch count"));
    }
    let mut leaves = Vec::with_capacity(n as usize);
    let (mut rows, mut cols) = (0u64, None);
    for i in 0..n as usize {
        let extent = u32_at(pos)?;
        pos += 4;
        if extent > len - pos {
            return Err(truncated());
        }
        let bytes = stats.read(src, pos, extent as usize)?;
        let batch = Scheme::from_bytes(&bytes)?;
        let expected = *cols.get_or_insert(batch.cols());
        if batch.cols() != expected {
            return Err(FormatError::MixedCols {
                batch: i,
                got: batch.cols(),
                expected,
            });
        }
        leaves.push(LayoutNode {
            scheme: Some(bytes[0]),
            row_start: rows,
            row_end: rows + batch.rows() as u64,
            begin: pos,
            end: pos + extent,
            zone: NO_ZONE,
            children: Vec::new(),
        });
        rows += batch.rows() as u64;
        pos += extent;
    }
    if pos != len {
        return Err(corrupt("trailing container bytes"));
    }
    let footer = Footer {
        cols: cols.unwrap_or(0) as u64,
        root: build_tree(leaves.clone(), pos),
    };
    Ok((footer, leaves))
}

/// Open a v2 image: postscript → footer checksum → footer → leaves tiling
/// the segment region. The one place a postscript and its footer checksum
/// are checked.
fn open_v2<S: Source>(
    src: &S,
    len: u64,
    stats: &ReadStats,
) -> Result<(Footer, Vec<LayoutNode>, Postscript), FormatError> {
    if len < (HEADER_LEN + POSTSCRIPT_LEN) as u64 {
        return Err(corrupt("file too short for a v2 container"));
    }
    let tail = stats.read(src, len - POSTSCRIPT_LEN as u64, POSTSCRIPT_LEN)?;
    let ps = Postscript::parse(&tail)?;
    ps.validate(len)?;
    let fbytes = stats.read(src, ps.footer_offset, ps.footer_len as usize)?;
    if fnv1a64(&fbytes) != ps.footer_checksum {
        return Err(corrupt("footer checksum mismatch"));
    }
    let footer = Footer::from_bytes(&fbytes)?;
    // The tree's byte extents must stay inside the segment region.
    if footer.root.end > ps.footer_offset || footer.root.begin < HEADER_LEN as u64 {
        return Err(corrupt("layout tree extends outside the segment region"));
    }
    let leaves = footer.leaves_validated(ps.footer_offset)?;
    Ok((footer, leaves, ps))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn roundtrip_all_schemes() {
        let m = sample();
        for scheme in [Scheme::Toc, Scheme::Den, Scheme::Gzip, Scheme::Cla] {
            let c = Container::encode_with(&m, scheme, 50, &EncodeOptions::default());
            assert_eq!(c.batches.len(), 3);
            assert_eq!(c.decode().unwrap(), m, "{}", scheme.name());
            let v2 = Container::from_bytes(&c.to_bytes().unwrap()).unwrap();
            assert_eq!(v2.decode().unwrap(), m, "{} v2", scheme.name());
            assert_eq!(v2.zones().unwrap().len(), 3);
        }
    }

    #[test]
    fn v2_reserialize_is_byte_identical() {
        let m = sample();
        let c = Container::encode_with(&m, Scheme::Toc, 40, &EncodeOptions::default());
        let bytes = c.to_bytes().unwrap();
        let back = Container::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn empty_container_roundtrips() {
        let c = Container::new(Vec::new());
        let bytes = c.to_bytes().unwrap();
        let back = Container::from_bytes(&bytes).unwrap();
        assert!(back.batches.is_empty());
        let reader = SeekableContainer::from_slice(&bytes).unwrap();
        assert_eq!(reader.footer().num_segments(), 0);
        assert_eq!(reader.footer().total_rows(), 0);
    }

    #[test]
    fn footer_tree_shape_and_queries() {
        let m = sample();
        let c = Container::encode_with(&m, Scheme::Den, 10, &EncodeOptions::default());
        let bytes = c.to_bytes().unwrap();
        let reader = SeekableContainer::from_slice(&bytes).unwrap();
        let footer = reader.footer();
        assert_eq!(footer.num_segments(), 13);
        assert!(footer.root.depth() >= 2, "13 leaves need interior nodes");
        assert_eq!(footer.total_rows(), 130);
        assert_eq!(footer.segments_overlapping_rows(0, 10), vec![0]);
        assert_eq!(footer.segments_overlapping_rows(15, 25), vec![1, 2]);
        assert_eq!(footer.segments_overlapping_rows(125, 130), vec![12]);
        assert_eq!(footer.segments_overlapping_rows(4, 4), Vec::<usize>::new());
        // Values are 0..=3: a disjoint value range prunes every segment.
        assert_eq!(
            footer.segments_with_values_in(10.0, 20.0),
            Vec::<usize>::new()
        );
        assert_eq!(footer.segments_with_values_in(3.0, 3.0).len(), 13);
    }

    #[test]
    fn decode_rows_matches_full_decode() {
        let m = sample();
        for scheme in [Scheme::Toc, Scheme::Den, Scheme::Csr, Scheme::Gzip] {
            let c = Container::encode_with(&m, scheme, 17, &EncodeOptions::default());
            let full = c.decode().unwrap();
            let bytes = c.to_bytes().unwrap();
            let c = SeekableContainer::from_slice(&bytes).unwrap();
            for (r0, r1) in [(0, 130), (0, 1), (16, 18), (50, 90), (129, 130), (7, 7)] {
                let part = c.decode_rows(r0, r1).unwrap();
                assert_eq!(part.rows(), r1 - r0);
                for r in r0..r1 {
                    assert_eq!(
                        part.row(r - r0),
                        full.row(r),
                        "{} {r0}..{r1}",
                        scheme.name()
                    );
                }
            }
            assert!(c.decode_rows(100, 131).is_err());
            assert!(c.decode_rows(10, 9).is_err());
        }
    }

    #[test]
    fn implausible_declared_counts_are_rejected_before_allocating() {
        // v1: a header claiming u32::MAX batches in a tiny file.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC.to_le_bytes());
        v1.push(V1);
        v1.extend_from_slice(&u32::MAX.to_le_bytes());
        v1.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Container::from_bytes(&v1),
            Err(FormatError::Corrupt(m)) if m.contains("implausible")
        ));
        // v2: a footer claiming far more segments/children than it holds.
        let m = sample();
        let c = Container::encode_with(&m, Scheme::Den, 50, &EncodeOptions::default());
        let bytes = c.to_bytes().unwrap();
        let ps = *SeekableContainer::from_slice(&bytes)
            .unwrap()
            .postscript()
            .unwrap();
        let f0 = ps.footer_offset as usize;
        let mut mutated = bytes.clone();
        mutated[f0 + 8..f0 + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        // (checksum now also mismatches; both paths must be a clean Err.)
        assert!(Container::from_bytes(&mutated).is_err());
        let fbytes = &bytes[f0..f0 + ps.footer_len as usize];
        let mut raw_footer = fbytes.to_vec();
        raw_footer[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Footer::from_bytes(&raw_footer),
            Err(FormatError::Corrupt(m)) if m.contains("implausible")
        ));
    }

    #[test]
    fn stream_writer_is_byte_identical_to_one_shot() {
        let m = sample();
        for (scheme, seg_rows) in [(Scheme::Toc, 40), (Scheme::Den, 17), (Scheme::Cla, 130)] {
            let opts = EncodeOptions::default();
            let c = Container::encode_with(&m, scheme, seg_rows, &opts);
            let one_shot = c.to_bytes().unwrap();
            let mut sink = Vec::new();
            let mut w = ContainerStreamWriter::new(&mut sink).unwrap();
            let zones = c.zones().unwrap().to_vec();
            for (b, z) in c.batches.iter().zip(zones) {
                w.append(b, z).unwrap();
            }
            assert_eq!(w.total_rows(), 130);
            let total = w.finish().unwrap();
            assert_eq!(total as usize, sink.len());
            assert_eq!(sink, one_shot, "{} seg_rows={seg_rows}", scheme.name());
        }
    }

    #[test]
    fn stream_writer_empty_and_mixed_width() {
        // Zero appends still seal into a valid (empty) v2 container,
        // byte-identical to the one-shot empty serialization.
        let mut sink = Vec::new();
        let w = ContainerStreamWriter::new(&mut sink).unwrap();
        w.finish().unwrap();
        assert_eq!(sink, Container::new(Vec::new()).to_bytes().unwrap());
        // A second segment with a different width is a structured error.
        let a = Scheme::Den.encode(&DenseMatrix::zeros(4, 3));
        let b = Scheme::Den.encode(&DenseMatrix::zeros(4, 5));
        let zone = ZoneMap::compute(&DenseMatrix::zeros(4, 3), 16);
        let mut sink = Vec::new();
        let mut w = ContainerStreamWriter::new(&mut sink).unwrap();
        w.append(&a, zone).unwrap();
        let err = w.append(&b, zone).unwrap_err();
        assert!(
            matches!(
                err,
                FormatError::MixedCols {
                    got: 5,
                    expected: 3,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn writer_state_roundtrips_and_resumes_byte_identically() {
        let m = sample();
        let opts = EncodeOptions::default();
        let c = Container::encode_with(&m, Scheme::Toc, 40, &opts);
        let one_shot = c.to_bytes().unwrap();
        let zones = c.zones().unwrap().to_vec();

        // Stream the first two segments, checkpoint, and "crash".
        let mut sink = Vec::new();
        let mut w = ContainerStreamWriter::new(&mut sink).unwrap();
        for (b, z) in c.batches.iter().zip(&zones).take(2) {
            w.append(b, *z).unwrap();
        }
        let state_bytes = w.state().to_bytes();
        let watermark = w.bytes_written() as usize;
        drop(w);
        sink.truncate(watermark); // what a resume validator does to torn bytes

        // Resume from the round-tripped state and finish the stream.
        let state = WriterState::from_bytes(&state_bytes).unwrap();
        assert_eq!(state.offset(), watermark as u64);
        assert_eq!(state.num_segments(), 2);
        let mut w = ContainerStreamWriter::resume(&mut sink, state).unwrap();
        for (b, z) in c.batches.iter().zip(&zones).skip(2) {
            w.append(b, *z).unwrap();
        }
        let total = w.finish().unwrap();
        assert_eq!(total as usize, sink.len());
        assert_eq!(sink, one_shot);
    }

    #[test]
    fn corrupt_writer_state_is_rejected() {
        let m = sample();
        let opts = EncodeOptions::default();
        let c = Container::encode_with(&m, Scheme::Toc, 40, &opts);
        let mut sink = Vec::new();
        let mut w = ContainerStreamWriter::new(&mut sink).unwrap();
        for (b, z) in c.batches.iter().zip(c.zones().unwrap()).take(2) {
            w.append(b, *z).unwrap();
        }
        let good = w.state().to_bytes();
        assert!(WriterState::from_bytes(&good).is_ok());
        // Truncation and watermark tampering are structured errors.
        assert!(WriterState::from_bytes(&good[..good.len() - 4]).is_err());
        let mut tampered = good.clone();
        tampered[10] ^= 0x40; // offset field no longer matches the leaves
        assert!(matches!(
            WriterState::from_bytes(&tampered),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_container_errors() {
        let m = sample();
        let c = Container::encode_with(&m, Scheme::Toc, 64, &EncodeOptions::default());
        let bytes = c.to_bytes().unwrap();
        let mut t = bytes.clone();
        t.truncate(t.len() - 3);
        assert!(Container::from_bytes(&t).is_err());
        let mut flipped = bytes.clone();
        flipped[0] ^= 1;
        assert!(Container::from_bytes(&flipped).is_err());
    }

    /// `ZoneMap::compute` as it was when it walked the cells for min / max
    /// / nnz and then hashed the sample rows for the distinct estimate.
    fn zone_two_pass(dense: &DenseMatrix, sample_rows: usize) -> ZoneMap {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut nnz = 0u64;
        for &v in dense.data() {
            min = min.min(v);
            max = max.max(v);
            nnz += (v != 0.0) as u64;
        }
        if dense.data().is_empty() {
            min = 0.0;
            max = 0.0;
        }
        let distinct = if dense.rows() == 0 || dense.cols() == 0 {
            0
        } else {
            let take = sample_rows.clamp(1, dense.rows());
            let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
            for i in 0..take {
                for &v in dense.row(i * dense.rows() / take) {
                    *counts.entry(value_key(v.to_bits())).or_insert(0) += 1;
                }
            }
            let f1 = counts.values().filter(|&&c| c == 1).count();
            let (sampled, cells) = (take * dense.cols(), dense.data().len());
            estimate_distinct(counts.len(), f1, sampled, cells)
        };
        ZoneMap {
            min,
            max,
            nnz,
            distinct: distinct as u64,
        }
    }

    fn assert_zone_bits_equal(m: &DenseMatrix, sample_rows: usize, name: &str) {
        let (got, want) = (
            ZoneMap::compute(m, sample_rows),
            zone_two_pass(m, sample_rows),
        );
        let bits = |z: &ZoneMap| (z.min.to_bits(), z.max.to_bits(), z.nnz, z.distinct);
        assert_eq!(
            bits(&got),
            bits(&want),
            "{name}, {} x {}, sample {sample_rows}: {got:?} vs {want:?}",
            m.rows(),
            m.cols()
        );
    }

    #[test]
    fn zone_map_matches_the_two_pass_reference() {
        let (z, nz) = (0.0f64, -0.0f64);
        let nan = |payload: u64| f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        let cases: Vec<(&str, usize, Vec<f64>)> = vec![
            ("all -0.0", 3, vec![nz; 12]),
            ("all 0.0", 3, vec![z; 12]),
            ("0.0 then -0.0", 2, vec![z, 1.0, 2.0, nz, 3.0, z, nz, 4.0]),
            ("-0.0 then 0.0", 2, vec![nz, 1.0, 2.0, z, 3.0, nz, z, 4.0]),
            (
                "zeros under negatives",
                2,
                vec![-1.0, nz, z, -2.0, nz, -3.0],
            ),
            ("0.0 then -0.0 under negatives", 2, vec![-1.0, z, -2.0, nz]),
            ("both zeros, both signs", 2, vec![z, -1.0, nz, 1.0, z, nz]),
            (
                "NaN payloads",
                3,
                vec![nan(1), 2.0, nan(2), -nan(3), 1.5, nan(1)],
            ),
            ("all NaN", 2, vec![nan(0), nan(7), -nan(7), nan(0)]),
            ("NaN and both zeros", 2, vec![nan(4), z, nz, nan(5), z, nz]),
            ("infinities", 3, vec![inf, 0.5, ninf, z, inf, -0.5]),
            ("only infinities", 1, vec![inf, ninf, inf]),
            (
                "subnormals",
                2,
                vec![f64::from_bits(1), -f64::from_bits(1), nz, z],
            ),
            ("one cell", 1, vec![nz]),
        ];
        for (name, cols, data) in cases {
            let rows = data.len() / cols;
            let m = DenseMatrix::from_vec(rows, cols, data);
            for sample_rows in [0, 1, rows.saturating_sub(1), rows, rows + 3] {
                assert_zone_bits_equal(&m, sample_rows, name);
            }
        }
        for (rows, cols) in [(0, 4), (4, 0), (0, 0)] {
            assert_zone_bits_equal(&DenseMatrix::zeros(rows, cols), 16, "empty");
        }
        // Random shapes over a palette where ties, NaNs and infinities are
        // common, sampled below, at and above the row count.
        let palette = [
            z,
            nz,
            nan(0),
            nan(9),
            -nan(1),
            inf,
            ninf,
            1.0,
            -1.0,
            2.5,
            f64::from_bits(3),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let (rows, cols) = (1 + next() as usize % 12, 1 + next() as usize % 5);
            let width = 1 + next() as usize % palette.len();
            let data = (0..rows * cols)
                .map(|_| palette[next() as usize % width])
                .collect();
            let m = DenseMatrix::from_vec(rows, cols, data);
            for sample_rows in [1, rows / 2, rows, rows + 1, 256] {
                assert_zone_bits_equal(&m, sample_rows, "random");
            }
        }
    }
}
