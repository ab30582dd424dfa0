//! CLA's matrix kernels allocate nothing once their scratch has grown:
//! every per-group dictionary table or accumulator lives in
//! `ExecScratch::cla`, sized by `reserve_scratch`. A counting global
//! allocator (per thread, so the harness's other threads do not count)
//! holds `A·v`, `v·A`, `A·M`, `M·A` and `Aᵀ·D` to zero allocations after
//! one warm-up call each, and a scratch left dirty by another batch gives
//! the same bits as a fresh one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use toc_data::synth::{generate_preset, DatasetPreset};
use toc_formats::cla::{ClaBatch, Group};
use toc_formats::{ExecScratch, MatrixBatch};
use toc_linalg::DenseMatrix;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The five kernels' outputs for one batch.
#[derive(Debug, PartialEq)]
struct Outputs {
    av: Vec<f64>,
    va: Vec<f64>,
    am: DenseMatrix,
    ma: DenseMatrix,
    atd: DenseMatrix,
}

impl Default for Outputs {
    fn default() -> Self {
        Self {
            av: Vec::new(),
            va: Vec::new(),
            am: DenseMatrix::zeros(0, 0),
            ma: DenseMatrix::zeros(0, 0),
            atd: DenseMatrix::zeros(0, 0),
        }
    }
}

/// Operands for a `rows × cols` batch and `p`-wide products.
struct Operands {
    v: Vec<f64>,
    w: Vec<f64>,
    m: DenseMatrix,
    l: DenseMatrix,
    d: DenseMatrix,
}

fn operands(rows: usize, cols: usize, p: usize) -> Operands {
    let fill = |r: usize, c: usize, k: usize| {
        let mut m = DenseMatrix::zeros(r, c);
        for i in 0..r {
            for j in 0..c {
                m.set(i, j, ((i * 7 + j * 3 + k) % 11) as f64 / 4.0 - 1.0);
            }
        }
        m
    };
    Operands {
        v: (0..cols).map(|j| (j % 5) as f64 - 2.0).collect(),
        w: (0..rows).map(|i| (i % 3) as f64 * 0.5).collect(),
        m: fill(cols, p, 1),
        l: fill(p, rows, 2),
        d: fill(rows, p, 3),
    }
}

fn run(b: &ClaBatch, x: &Operands, out: &mut Outputs, ws: &mut ExecScratch) {
    b.matvec_into_ws(&x.v, &mut out.av, ws);
    b.vecmat_into_ws(&x.w, &mut out.va, ws);
    b.matmat_into_ws(&x.m, &mut out.am, ws);
    b.matmat_left_into_ws(&x.l, &mut out.ma, ws);
    b.matmat_t_into_ws(&x.d, &mut out.atd, ws);
}

fn batch(preset: DatasetPreset, rows: usize) -> ClaBatch {
    let ds = generate_preset(preset, rows, 5);
    let b = ClaBatch::encode(&ds.x);
    assert!(
        b.groups().iter().any(|g| matches!(g, Group::Ddc { .. })),
        "{preset:?}: no DDC group to build a table for"
    );
    b
}

#[test]
fn cla_kernels_allocate_nothing_after_warm_up() {
    let p = 32;
    for preset in [DatasetPreset::CensusLike, DatasetPreset::MnistLike] {
        let b = batch(preset, 250);
        let x = operands(b.rows(), b.cols(), p);
        let (mut out, mut ws) = (Outputs::default(), ExecScratch::default());
        run(&b, &x, &mut out, &mut ws);
        let n = allocations(|| run(&b, &x, &mut out, &mut ws));
        assert_eq!(
            n, 0,
            "{preset:?}: the CLA kernels allocated {n} times after warm-up"
        );

        // `reserve_scratch` alone is warm-up enough for the `p`-wide
        // kernels the neural net's helper thread runs.
        let mut ws = ExecScratch::default();
        let mut am = DenseMatrix::zeros(b.rows(), p);
        let mut atd = DenseMatrix::zeros(b.cols(), p);
        b.reserve_scratch(p, &mut ws);
        let n = allocations(|| {
            b.matmat_into_ws(&x.m, &mut am, &mut ws);
            b.matmat_t_into_ws(&x.d, &mut atd, &mut ws);
        });
        assert_eq!(
            n, 0,
            "{preset:?}: A·M and Aᵀ·D allocated {n} times after reserve_scratch"
        );
        assert_eq!((am, atd), (out.am, out.atd), "{preset:?}");
    }
}

#[test]
fn a_scratch_dirtied_by_another_batch_gives_the_same_bits() {
    let p = 6;
    let big = batch(DatasetPreset::Kdd99Like, 400);
    let small = batch(DatasetPreset::CensusLike, 120);
    let x = operands(small.rows(), small.cols(), p);

    let mut fresh = Outputs::default();
    run(&small, &x, &mut fresh, &mut ExecScratch::default());

    let mut ws = ExecScratch::default();
    let y = operands(big.rows(), big.cols(), p);
    run(&big, &y, &mut Outputs::default(), &mut ws);
    let mut reused = Outputs::default();
    run(&small, &x, &mut reused, &mut ws);
    assert_eq!(reused, fresh);
}
