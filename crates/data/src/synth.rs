//! Synthetic dataset generators matched to the six evaluation datasets of
//! Table 5.
//!
//! The real datasets are not redistributable here, so each preset controls
//! the three axes that drive every compression scheme in the comparison:
//!
//! 1. **sparsity** (zero fraction) — drives CSR/sparse encoding,
//! 2. **distinct-value count** — drives value indexing (CVI/DVI) and the
//!    TOC first layer,
//! 3. **cross-row repetition of column-value subsequences** ("motifs") —
//!    drives the TOC logical encoding, CLA co-coding and the GC schemes.
//!
//! The presets also cover the two regimes where TOC intentionally loses
//! (Figure 5): `Rcv1Like` (extreme sparsity, unique values → CSR wins) and
//! `DeepLike` (dense unique doubles → nothing compresses).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use toc_linalg::DenseMatrix;

/// Classification task attached to a generated dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskKind {
    /// Binary labels in `{-1, +1}` from a hidden linear model plus label
    /// noise.
    Binary { noise: f64 },
    /// `classes` labels from argmax of hidden linear scorers.
    MultiClass { classes: usize },
}

/// How non-verbatim motif rows are produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerturbKind {
    /// Re-randomize ~30% of the cells independently (kills subsequence
    /// repetition: the regime where TOC's logical encoding gains little,
    /// like Mnist).
    Random,
    /// Splice two motifs at a random cut point (rows still consist of
    /// shared column-value subsequences, like categorical enterprise data:
    /// Census / Kdd99).
    Crossover,
}

/// Full generator specification.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    pub rows: usize,
    pub cols: usize,
    /// Fraction of non-zero cells (Table 5 "sparsity").
    pub density: f64,
    /// Number of distinct non-zero values; 0 = fresh random doubles
    /// (incompressible by value indexing).
    pub value_pool: usize,
    /// Number of row templates; 0 = fully i.i.d. rows.
    pub motifs: usize,
    /// Probability that a motif row is copied verbatim.
    pub motif_fidelity: f64,
    /// What happens to the other rows.
    pub perturb: PerturbKind,
    /// Distinct values each column may take (0 = the whole pool).
    /// Small domains mimic categorical/quantized columns.
    pub column_domain: usize,
    /// Place non-zeros in contiguous runs (image-like "strokes") instead of
    /// i.i.d. cells. Long zero runs are what byte compressors exploit on
    /// pixel data.
    pub clustered: bool,
    pub task: TaskKind,
    pub seed: u64,
}

/// The six dataset presets of Table 5 (dimensions scaled to laptop size;
/// sparsity and redundancy structure preserved).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// US Census: 68 cols, moderate sparsity (0.43), heavily categorical
    /// (small value pool, strong row motifs).
    CensusLike,
    /// ImageNet features: 900 cols, sparsity 0.31, moderate redundancy.
    ImagenetLike,
    /// Mnist8m pixels: 784 cols, sparsity 0.25, weaker subsequence
    /// repetition (the dataset where Gzip beats TOC in Figure 5) and 10
    /// classes.
    MnistLike,
    /// Kdd99: 42 cols, sparsity 0.39, extremely repetitive (TOC's best
    /// case, ~51x).
    Kdd99Like,
    /// Rcv1: extremely sparse tf-idf vectors with unique values (CSR's
    /// best case). Column count scaled from 47236 to 4000.
    Rcv1Like,
    /// Deep1Billion descriptors: fully dense unique doubles (nothing
    /// compresses; Table 5 sparsity 1.0).
    DeepLike,
}

impl DatasetPreset {
    /// All six presets, in the paper's order.
    pub const ALL: [DatasetPreset; 6] = [
        DatasetPreset::CensusLike,
        DatasetPreset::ImagenetLike,
        DatasetPreset::MnistLike,
        DatasetPreset::Kdd99Like,
        DatasetPreset::Rcv1Like,
        DatasetPreset::DeepLike,
    ];

    /// The four moderate-sparsity presets used in the end-to-end runs.
    pub const MODERATE: [DatasetPreset; 4] = [
        DatasetPreset::CensusLike,
        DatasetPreset::ImagenetLike,
        DatasetPreset::MnistLike,
        DatasetPreset::Kdd99Like,
    ];

    pub fn name(self) -> &'static str {
        match self {
            DatasetPreset::CensusLike => "census",
            DatasetPreset::ImagenetLike => "imagenet",
            DatasetPreset::MnistLike => "mnist",
            DatasetPreset::Kdd99Like => "kdd99",
            DatasetPreset::Rcv1Like => "rcv1",
            DatasetPreset::DeepLike => "deep1b",
        }
    }

    /// Generator configuration for `rows` rows.
    pub fn config(self, rows: usize, seed: u64) -> SynthConfig {
        match self {
            DatasetPreset::CensusLike => SynthConfig {
                rows,
                cols: 68,
                density: 0.43,
                value_pool: 12,
                motifs: 12,
                motif_fidelity: 0.96,
                perturb: PerturbKind::Crossover,
                column_domain: 3,
                clustered: false,
                task: TaskKind::Binary { noise: 0.05 },
                seed,
            },
            DatasetPreset::ImagenetLike => SynthConfig {
                rows,
                cols: 900,
                density: 0.31,
                value_pool: 24,
                motifs: 48,
                motif_fidelity: 0.8,
                perturb: PerturbKind::Crossover,
                column_domain: 3,
                clustered: false,
                task: TaskKind::Binary { noise: 0.05 },
                seed,
            },
            DatasetPreset::MnistLike => SynthConfig {
                rows,
                cols: 784,
                density: 0.25,
                value_pool: 48,
                motifs: 90,
                motif_fidelity: 0.1,
                perturb: PerturbKind::Crossover,
                column_domain: 6,
                clustered: true,
                task: TaskKind::MultiClass { classes: 10 },
                seed,
            },
            DatasetPreset::Kdd99Like => SynthConfig {
                rows,
                cols: 42,
                density: 0.39,
                value_pool: 6,
                motifs: 5,
                motif_fidelity: 0.99,
                perturb: PerturbKind::Crossover,
                column_domain: 3,
                clustered: false,
                task: TaskKind::Binary { noise: 0.02 },
                seed,
            },
            DatasetPreset::Rcv1Like => SynthConfig {
                rows,
                cols: 4000,
                density: 0.0016,
                value_pool: 0,
                motifs: 0,
                motif_fidelity: 0.0,
                perturb: PerturbKind::Random,
                column_domain: 0,
                clustered: false,
                task: TaskKind::Binary { noise: 0.05 },
                seed,
            },
            DatasetPreset::DeepLike => SynthConfig {
                rows,
                cols: 96,
                density: 1.0,
                value_pool: 0,
                motifs: 0,
                motif_fidelity: 0.0,
                perturb: PerturbKind::Random,
                column_domain: 0,
                clustered: false,
                task: TaskKind::Binary { noise: 0.05 },
                seed,
            },
        }
    }
}

/// A generated dataset: features plus labels in the `toc-ml` convention
/// (binary `±1`, or class index as `f64`).
#[derive(Clone, Debug)]
pub struct Dataset {
    pub x: DenseMatrix,
    pub labels: Vec<f64>,
    /// 2 for binary, k for multiclass.
    pub classes: usize,
}

impl Dataset {
    /// Split into contiguous mini-batches of `batch_rows` (the data is
    /// generated i.i.d., so contiguous slicing is a valid shuffle-once).
    pub fn minibatches(&self, batch_rows: usize) -> Vec<(DenseMatrix, Vec<f64>)> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.x.rows() {
            let end = (start + batch_rows).min(self.x.rows());
            out.push((
                self.x.slice_rows(start, end),
                self.labels[start..end].to_vec(),
            ));
            start = end;
        }
        out
    }
}

/// Generate a dataset from a config.
pub fn generate(config: &SynthConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Value pool (empty = unique values per cell). Each column draws from
    // a small per-column domain, like categorical/quantized real data —
    // this keeps the distinct column:value pair count realistic.
    let pool: Vec<f64> = (0..config.value_pool)
        .map(|_| (rng.gen_range(1..64) as f64) * 0.25)
        .collect();
    let domain = if config.column_domain == 0 {
        pool.len().max(1)
    } else {
        config.column_domain.min(pool.len().max(1))
    };
    let mut draw_value = |rng: &mut StdRng, col: usize| -> f64 {
        if pool.is_empty() {
            rng.gen_range(-2.0..2.0)
        } else {
            pool[(col.wrapping_mul(31) + rng.gen_range(0..domain)) % pool.len()]
        }
    };

    // Row templates.
    let gen_row = |rng: &mut StdRng, draw: &mut dyn FnMut(&mut StdRng, usize) -> f64| -> Vec<f64> {
        if config.density < 0.02 {
            // Extreme sparsity: place ~density*cols non-zeros directly.
            let nnz = ((config.cols as f64 * config.density).round() as usize).max(1);
            let mut row = vec![0.0; config.cols];
            for _ in 0..nnz {
                let c = rng.gen_range(0..config.cols);
                row[c] = draw(rng, c);
            }
            row
        } else if config.clustered {
            // Stroke-like runs: contiguous non-zero segments separated
            // by long zero gaps, as in centered image data.
            let seg_len = 12usize.min(config.cols);
            let nnz_target = (config.cols as f64 * config.density) as usize;
            let n_segs = (nnz_target / seg_len).max(1);
            let mut row = vec![0.0; config.cols];
            for _ in 0..n_segs {
                let start = rng.gen_range(0..config.cols.saturating_sub(seg_len) + 1);
                #[allow(clippy::needless_range_loop)] // c feeds both row and draw
                for c in start..start + seg_len {
                    row[c] = draw(rng, c);
                }
            }
            row
        } else {
            (0..config.cols)
                .map(|c| {
                    if rng.gen::<f64>() < config.density {
                        draw(rng, c)
                    } else {
                        0.0
                    }
                })
                .collect()
        }
    };

    let motifs: Vec<Vec<f64>> = (0..config.motifs)
        .map(|_| gen_row(&mut rng, &mut draw_value))
        .collect();

    let mut x = DenseMatrix::zeros(config.rows, config.cols);
    for r in 0..config.rows {
        let row: Vec<f64> = if motifs.is_empty() {
            gen_row(&mut rng, &mut draw_value)
        } else {
            let base = &motifs[rng.gen_range(0..motifs.len())];
            if rng.gen::<f64>() < config.motif_fidelity {
                base.clone()
            } else {
                match config.perturb {
                    PerturbKind::Random => {
                        // Re-randomize ~30% of the cells, preserving the
                        // sparsity level.
                        base.iter()
                            .enumerate()
                            .map(|(c, &v)| {
                                if rng.gen::<f64>() < 0.3 {
                                    if rng.gen::<f64>() < config.density {
                                        draw_value(&mut rng, c)
                                    } else {
                                        0.0
                                    }
                                } else {
                                    v
                                }
                            })
                            .collect()
                    }
                    PerturbKind::Crossover => {
                        // Splice two motifs: the row is new, but every
                        // column-value subsequence in it is shared.
                        let other = &motifs[rng.gen_range(0..motifs.len())];
                        let cut = rng.gen_range(0..=config.cols);
                        let mut row = base.clone();
                        row[cut..].copy_from_slice(&other[cut..]);
                        row
                    }
                }
            }
        };
        x.row_mut(r).copy_from_slice(&row);
    }

    // Labels from hidden linear scorers.
    let (labels, classes) = match config.task {
        TaskKind::Binary { noise } => {
            let truth: Vec<f64> = (0..config.cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let scores = x.matvec(&truth);
            let median = {
                let mut s = scores.clone();
                s.sort_by(|a, b| a.partial_cmp(b).unwrap());
                s[s.len() / 2]
            };
            let labels = scores
                .iter()
                .map(|&s| {
                    let y = if s >= median { 1.0 } else { -1.0 };
                    if rng.gen::<f64>() < noise {
                        -y
                    } else {
                        y
                    }
                })
                .collect();
            (labels, 2)
        }
        TaskKind::MultiClass { classes } => {
            let scorers: Vec<Vec<f64>> = (0..classes)
                .map(|_| (0..config.cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let per_class: Vec<Vec<f64>> = scorers.iter().map(|s| x.matvec(s)).collect();
            let labels = (0..config.rows)
                .map(|r| {
                    let mut best = 0usize;
                    for k in 1..classes {
                        if per_class[k][r] > per_class[best][r] {
                            best = k;
                        }
                    }
                    best as f64
                })
                .collect();
            (labels, classes)
        }
    };

    Dataset { x, labels, classes }
}

/// Convenience: generate a preset at a given scale.
pub fn generate_preset(preset: DatasetPreset, rows: usize, seed: u64) -> Dataset {
    generate(&preset.config(rows, seed))
}

/// A wide matrix with *non-adjacent* correlated column pairs: column
/// `c + cols/2` is a deterministic function of column `c`, while columns
/// within each half are mutually independent draws from `distinct`-value
/// pools. This is the regime where CLA's sample-based co-coding planner
/// beats greedy left-to-right grouping (the paper's fig5/fig6 wide-matrix
/// setting): greedy can only merge neighbors — which are independent here,
/// so merging inflates the dictionary — while the planner pairs each
/// column with its distant partner.
///
/// `cols` must be even; `distinct` per-column values are drawn from a
/// seeded pool so the output is reproducible.
pub fn correlated_matrix(rows: usize, cols: usize, distinct: usize, seed: u64) -> DenseMatrix {
    assert!(
        cols.is_multiple_of(2),
        "correlated_matrix needs an even column count"
    );
    assert!(distinct >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let half = cols / 2;
    // Per-column value pools: distinct values, distinct across columns.
    let pools: Vec<Vec<f64>> = (0..half)
        .map(|c| {
            (0..distinct)
                .map(|k| (c * distinct + k) as f64 * 0.5 + rng.gen_range(0.0..0.25))
                .collect()
        })
        .collect();
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for (c, pool) in pools.iter().enumerate() {
            let k = rng.gen_range(0..distinct);
            m.set(r, c, pool[k]);
            // Partner column: a bijection of the left value (offset by a
            // column-specific constant), so the pair's joint cardinality
            // equals `distinct` while the columns' byte patterns differ.
            m.set(r, c + half, pool[k] + 1000.0 * (c + 1) as f64);
        }
    }
    m
}

/// A matrix whose compressibility *drifts* with row position: rows at
/// the head of the stream draw every value from tiny per-column pools
/// (`distinct` values each — dictionary schemes win), rows at the tail
/// draw mostly from a continuous range (dense wins), and the pool-vs-
/// noise mix slides linearly in between. A chunked ingester that picks a
/// scheme per chunk ([`crate::ingest`]) therefore sees its choice change
/// over one stream — the regime the per-chunk planner exists for.
/// Deterministic in `seed`.
pub fn drifting_matrix(rows: usize, cols: usize, distinct: usize, seed: u64) -> DenseMatrix {
    assert!(distinct >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    // Per-column value pools, distinct across columns (same construction
    // as `correlated_matrix`).
    let pools: Vec<Vec<f64>> = (0..cols)
        .map(|c| {
            (0..distinct)
                .map(|k| (c * distinct + k) as f64 * 0.5 + rng.gen_range(0.0..0.25))
                .collect()
        })
        .collect();
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        // Fraction of values drawn from the continuous range: 0 at the
        // head of the stream, ~1 at the tail.
        let drift = r as f64 / rows.max(1) as f64;
        for (c, pool) in pools.iter().enumerate() {
            let v = if rng.gen_range(0.0..1.0) < drift {
                rng.gen_range(-4.0..4.0)
            } else {
                pool[rng.gen_range(0..distinct)]
            };
            m.set(r, c, v);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use toc_formats::{MatrixBatch, Scheme};

    #[test]
    fn presets_hit_target_sparsity() {
        for preset in DatasetPreset::ALL {
            let cfg = preset.config(400, 1);
            let ds = generate(&cfg);
            let got = ds.x.density();
            let want = cfg.density;
            let tol = (want * 0.25).max(0.02);
            assert!(
                (got - want).abs() < tol,
                "{}: density {got} vs target {want}",
                preset.name()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_preset(DatasetPreset::CensusLike, 100, 7);
        let b = generate_preset(DatasetPreset::CensusLike, 100, 7);
        assert_eq!(a.x, b.x);
        assert_eq!(a.labels, b.labels);
        let c = generate_preset(DatasetPreset::CensusLike, 100, 8);
        assert_ne!(a.x, c.x);
    }

    #[test]
    fn labels_match_task() {
        let b = generate_preset(DatasetPreset::CensusLike, 200, 3);
        assert!(b.labels.iter().all(|&y| y == 1.0 || y == -1.0));
        assert_eq!(b.classes, 2);
        let m = generate_preset(DatasetPreset::MnistLike, 200, 3);
        assert!(m
            .labels
            .iter()
            .all(|&y| (0.0..10.0).contains(&y) && y.fract() == 0.0));
        assert_eq!(m.classes, 10);
        // Both classes / several classes must actually appear.
        assert!(b.labels.iter().any(|&y| y > 0.0) && b.labels.iter().any(|&y| y < 0.0));
    }

    #[test]
    fn minibatch_split_covers_all_rows() {
        let ds = generate_preset(DatasetPreset::Kdd99Like, 130, 9);
        let batches = ds.minibatches(50);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2].0.rows(), 30);
        let total: usize = batches.iter().map(|(x, _)| x.rows()).sum();
        assert_eq!(total, 130);
    }

    #[test]
    fn compression_landscape_matches_figure5_shape() {
        // The qualitative orderings the generators must reproduce.
        let batch_rows = 250;
        let ratio = |preset: DatasetPreset, scheme: Scheme| {
            let ds = generate_preset(preset, batch_rows, 11);
            ds.x.den_size_bytes() as f64 / scheme.encode(&ds.x).size_bytes() as f64
        };
        // kdd99-like: TOC >> CSR, strong absolute ratio.
        let kdd_toc = ratio(DatasetPreset::Kdd99Like, Scheme::Toc);
        let kdd_csr = ratio(DatasetPreset::Kdd99Like, Scheme::Csr);
        assert!(
            kdd_toc > 2.0 * kdd_csr,
            "kdd: TOC {kdd_toc} vs CSR {kdd_csr}"
        );
        assert!(kdd_toc > 20.0, "kdd TOC ratio {kdd_toc}");
        // census-like: TOC > CSR.
        let cen_toc = ratio(DatasetPreset::CensusLike, Scheme::Toc);
        let cen_csr = ratio(DatasetPreset::CensusLike, Scheme::Csr);
        assert!(cen_toc > cen_csr, "census: {cen_toc} vs {cen_csr}");
        // rcv1-like: CSR ≈ TOC (within 40%), both >> DEN.
        let rcv_toc = ratio(DatasetPreset::Rcv1Like, Scheme::Toc);
        let rcv_csr = ratio(DatasetPreset::Rcv1Like, Scheme::Csr);
        assert!(rcv_csr > 50.0);
        assert!(
            (rcv_toc / rcv_csr - 1.0).abs() < 0.4,
            "rcv1: {rcv_toc} vs {rcv_csr}"
        );
        // deep-like: nothing achieves a meaningful ratio.
        for scheme in [Scheme::Toc, Scheme::Csr, Scheme::Gzip] {
            let r = ratio(DatasetPreset::DeepLike, scheme);
            assert!(r < 1.3, "{}: {r}", scheme.name());
        }
    }

    #[test]
    fn sampled_cla_planner_beats_greedy_on_correlated_wide_matrix() {
        // The planner's acceptance matrix: 64 columns, each correlated
        // with its partner 32 columns away. The floor is the ratio the
        // greedy left-to-right co-coder reached on this matrix.
        const GREEDY_RATIO: f64 = 5.323;
        use toc_formats::MatrixBatch;
        let m = correlated_matrix(2048, 64, 16, 42);
        let b = Scheme::Cla.encode(&m);
        let ratio = m.den_size_bytes() as f64 / b.size_bytes() as f64;
        assert!(
            ratio > GREEDY_RATIO,
            "sampled ratio {ratio:.2} must beat greedy's {GREEDY_RATIO:.2}"
        );
        // And the decoded bytes agree with the input exactly.
        assert_eq!(b.decode(), m);
    }

    #[test]
    fn correlated_matrix_is_deterministic_and_paired() {
        let a = correlated_matrix(64, 8, 4, 7);
        assert_eq!(a, correlated_matrix(64, 8, 4, 7));
        for r in 0..64 {
            for c in 0..4 {
                assert_eq!(a.get(r, c + 4), a.get(r, c) + 1000.0 * (c + 1) as f64);
            }
        }
    }

    #[test]
    fn mnist_like_weaker_logical_gains_than_kdd() {
        // Fig. 6: logical encoding adds little on mnist, a lot on kdd.
        let gain = |preset: DatasetPreset| {
            let ds = generate_preset(preset, 250, 5);
            let sparse = Scheme::TocSparse.encode(&ds.x).size_bytes() as f64;
            let logical = Scheme::TocSparseLogical.encode(&ds.x).size_bytes() as f64;
            sparse / logical
        };
        let kdd = gain(DatasetPreset::Kdd99Like);
        let mnist = gain(DatasetPreset::MnistLike);
        assert!(kdd > mnist, "logical gain kdd {kdd} vs mnist {mnist}");
    }
}
