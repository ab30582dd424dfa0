//! Cross-format kernel conformance suite: one parameterized harness that
//! checks every scheme (plus both CLA planners) against the dense
//! reference for every kernel × API family on a grid of adversarial
//! shapes. This is the differential-testing guard against silent
//! divergence between the scheme implementations — in the spirit of
//! pcodec's codec conformance tests.
//!
//! Axes:
//! * **encoder** — the 11 `Scheme` tags, CLA with the greedy planner, and
//!   CLA with a deliberately tiny sample (exercising the inexact-estimate
//!   materialization fallbacks);
//! * **operation** — matvec, vecmat, matmat, matmat_left, decode;
//! * **API family** — allocating and `*_into_ws` (one shared
//!   `ExecScratch` and one set of output buffers reused across *all*
//!   encoders and shapes, so stale-state bugs between calls surface too);
//! * **shape** — 0 rows, 1 row, wide, tall, all-zero, single-distinct-
//!   value columns, and a mixed small-pool batch.
//!
//! Run with `-- --nocapture` to see the per-encoder timing summary (the
//! CI jobs do, so encode-cost regressions are visible in logs).

use std::time::{Duration, Instant};
use toc_formats::cla::{ClaBatch, ClaOptions, ClaPlanner};
use toc_formats::{AnyBatch, ExecScratch, MatrixBatch, Scheme};
use toc_linalg::dense::max_abs_diff_vec;
use toc_linalg::DenseMatrix;

mod common;
use common::pool_matrix;

const TOL: f64 = 1e-9;

/// The shape grid: every case a scheme has historically gotten wrong
/// somewhere (empty batches, degenerate dictionaries, extreme aspect
/// ratios).
fn shape_grid() -> Vec<(&'static str, DenseMatrix)> {
    let single_distinct = {
        // Each column holds one value everywhere (some zero): dictionary
        // cardinality 1 per column, the planner's best case.
        let mut m = DenseMatrix::zeros(12, 8);
        for c in 0..8 {
            let v = if c % 3 == 0 { 0.0 } else { c as f64 * 0.75 };
            for r in 0..12 {
                m.set(r, c, v);
            }
        }
        m
    };
    vec![
        ("zero_rows", DenseMatrix::zeros(0, 5)),
        ("zero_cols", DenseMatrix::zeros(5, 0)),
        ("one_row", pool_matrix(1, 7, 0.8, 11)),
        ("wide", pool_matrix(3, 40, 0.5, 12)),
        ("tall", pool_matrix(40, 3, 0.5, 13)),
        ("all_zero", DenseMatrix::zeros(10, 6)),
        ("single_distinct_cols", single_distinct),
        ("mixed", pool_matrix(30, 20, 0.3, 14)),
    ]
}

type Encoder = (String, Box<dyn Fn(&DenseMatrix) -> AnyBatch>);

/// All schemes plus the CLA planner variants.
fn encoders() -> Vec<Encoder> {
    let mut out: Vec<Encoder> = Scheme::ALL
        .iter()
        .map(|&s| {
            let f: Box<dyn Fn(&DenseMatrix) -> AnyBatch> = Box::new(move |a| s.encode(a));
            (s.name().to_string(), f)
        })
        .collect();
    out.push((
        "CLA(greedy)".into(),
        Box::new(|a| AnyBatch::Cla(ClaBatch::encode_with(a, &ClaOptions::greedy()))),
    ));
    out.push((
        "CLA(sample=2)".into(),
        Box::new(|a| {
            AnyBatch::Cla(ClaBatch::encode_with(
                a,
                &ClaOptions {
                    planner: ClaPlanner::SampleMerge,
                    sample_rows: 2,
                },
            ))
        }),
    ));
    out
}

/// Deterministic non-trivial vector of length `n`.
fn test_vec(n: usize, phase: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + phase * 13) % 9) as f64 * 0.5 - 2.0)
        .collect()
}

#[test]
fn every_scheme_op_and_api_family_matches_dense() {
    // One scratch + one set of output buffers shared across the whole
    // grid: the `*_into_ws` contract is "clear and refill", so reuse across
    // shapes and schemes must never leak state.
    let mut ws = ExecScratch::default();
    let mut out_v: Vec<f64> = Vec::new();
    let mut out_m = DenseMatrix::default();
    let mut timings: Vec<(String, Duration)> = Vec::new();

    for (enc_name, encode) in encoders() {
        let t0 = Instant::now();
        for (shape, a) in shape_grid() {
            let ctx = format!("{enc_name} on {shape}");
            let (rows, cols) = (a.rows(), a.cols());
            let v = test_vec(cols, 1);
            let w = test_vec(rows, 2);
            let mr = pool_matrix(cols, 3, 0.9, 21);
            let ml = pool_matrix(3, rows, 0.9, 22);

            let b = encode(&a);
            assert_eq!(b.rows(), rows, "{ctx}: rows");
            assert_eq!(b.cols(), cols, "{ctx}: cols");
            assert!(b.size_bytes() > 0, "{ctx}: size_bytes");

            // decode — both families are exact (lossless codecs).
            assert_eq!(b.decode(), a, "{ctx}: decode");
            b.decode_into_ws(&mut out_m, &mut ws);
            assert_eq!(out_m, a, "{ctx}: decode_into_ws");

            // matvec.
            let want = a.matvec(&v);
            assert!(
                max_abs_diff_vec(&b.matvec(&v), &want) < TOL,
                "{ctx}: matvec"
            );
            b.matvec_into_ws(&v, &mut out_v, &mut ws);
            assert!(
                max_abs_diff_vec(&out_v, &want) < TOL,
                "{ctx}: matvec_into_ws"
            );

            // vecmat.
            let want = a.vecmat(&w);
            assert!(
                max_abs_diff_vec(&b.vecmat(&w), &want) < TOL,
                "{ctx}: vecmat"
            );
            b.vecmat_into_ws(&w, &mut out_v, &mut ws);
            assert!(
                max_abs_diff_vec(&out_v, &want) < TOL,
                "{ctx}: vecmat_into_ws"
            );

            // matmat.
            let want = a.matmat(&mr);
            assert!(b.matmat(&mr).max_abs_diff(&want) < TOL, "{ctx}: matmat");
            b.matmat_into_ws(&mr, &mut out_m, &mut ws);
            assert!(out_m.max_abs_diff(&want) < TOL, "{ctx}: matmat_into_ws");

            // matmat_left.
            let want = a.matmat_left(&ml);
            assert!(
                b.matmat_left(&ml).max_abs_diff(&want) < TOL,
                "{ctx}: matmat_left"
            );
            b.matmat_left_into_ws(&ml, &mut out_m, &mut ws);
            assert!(
                out_m.max_abs_diff(&want) < TOL,
                "{ctx}: matmat_left_into_ws"
            );

            // Serialization survives the same grid.
            let restored = Scheme::from_bytes(&b.to_bytes())
                .unwrap_or_else(|e| panic!("{ctx}: from_bytes {e}"));
            assert_eq!(restored.decode(), a, "{ctx}: serialized decode");
        }
        timings.push((enc_name, t0.elapsed()));
    }

    println!("conformance timing (encode + 5 ops x 2 families x 8 shapes):");
    for (name, d) in &timings {
        println!("  {name:<24} {d:>10.1?}");
    }
}

#[test]
fn toc_kernels_interleaved_with_every_other_scheme_on_one_scratch() {
    // The grid above walks encoder by encoder; this leg walks shape by
    // shape, so the scratch that holds a TOC batch's prepared tree sees
    // every other scheme, the other TOC encodings of the same matrix and
    // — one round later — the same encoder on another shape in between.
    // Two rounds over a kernel order that differs, so each kernel is at
    // some point the first to meet a batch.
    let mut ws = ExecScratch::default();
    let mut out_v: Vec<f64> = Vec::new();
    let mut out_m = DenseMatrix::default();
    let encoders = encoders();
    for round in 0..2 {
        for (shape, a) in shape_grid() {
            let (rows, cols) = (a.rows(), a.cols());
            let v = test_vec(cols, 1);
            let w = test_vec(rows, 2);
            let mr = pool_matrix(cols, 9, 0.9, 21);
            let ml = pool_matrix(9, rows, 0.9, 22);
            for (enc_name, encode) in &encoders {
                let ctx = format!("{enc_name} on {shape}, round {round}");
                let b = encode(&a);
                for k in 0..4 {
                    match (k + round) % 4 {
                        0 => {
                            b.matmat_left_into_ws(&ml, &mut out_m, &mut ws);
                            let want = a.matmat_left(&ml);
                            assert!(out_m.max_abs_diff(&want) < TOL, "{ctx}: matmat_left");
                        }
                        1 => {
                            b.matvec_into_ws(&v, &mut out_v, &mut ws);
                            let want = a.matvec(&v);
                            assert!(max_abs_diff_vec(&out_v, &want) < TOL, "{ctx}: matvec");
                        }
                        2 => {
                            b.matmat_into_ws(&mr, &mut out_m, &mut ws);
                            let want = a.matmat(&mr);
                            assert!(out_m.max_abs_diff(&want) < TOL, "{ctx}: matmat");
                        }
                        _ => {
                            b.vecmat_into_ws(&w, &mut out_v, &mut ws);
                            let want = a.vecmat(&w);
                            assert!(max_abs_diff_vec(&out_v, &want) < TOL, "{ctx}: vecmat");
                        }
                    }
                }
                b.decode_into_ws(&mut out_m, &mut ws);
                assert_eq!(out_m, a, "{ctx}: decode");
            }
        }
    }
}

#[test]
fn scale_conforms_on_the_shape_grid() {
    for (enc_name, encode) in encoders() {
        for (shape, a) in shape_grid() {
            let mut want = a.clone();
            want.scale(-0.75);
            let mut b = encode(&a);
            b.scale(-0.75);
            assert!(
                b.decode().max_abs_diff(&want) < TOL,
                "{enc_name} on {shape}: scale"
            );
        }
    }
}

#[test]
fn planner_ratio_snapshot_for_logs() {
    // Not an assertion-heavy test: prints the greedy-vs-sampled CLA
    // ratios on a correlated matrix so CI logs (--nocapture) surface
    // ratio regressions at a glance. The strict ordering assertion lives
    // in toc-data's `sampled_cla_planner_beats_greedy_on_correlated_wide_matrix`.
    let mut m = DenseMatrix::zeros(512, 32);
    for r in 0..512 {
        for c in 0..16 {
            let v = (((r * 31 + c * 17) % 97) % 8) as f64;
            m.set(r, c, v);
            m.set(r, c + 16, v + 10.0 * (c + 1) as f64);
        }
    }
    let den = m.den_size_bytes() as f64;
    for (name, opts) in [
        ("greedy", ClaOptions::greedy()),
        ("sample", ClaOptions::default()),
    ] {
        let t0 = Instant::now();
        let b = ClaBatch::encode_with(&m, &opts);
        println!(
            "cla planner {name:<7} ratio {:>5.1}x  groups {:>3}  encode {:.1?}",
            den / b.size_bytes() as f64,
            b.num_groups(),
            t0.elapsed()
        );
        assert_eq!(b.decode(), m, "{name}");
    }
}
