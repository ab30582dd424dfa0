//! The paper scoreboard: runs Figures 2, 5–12 and Tables 6–7 (or the one
//! named by `--figure=fig5`), prints each table, checks its expected
//! shapes and appends one entry per figure to `BENCH_paper.json`
//! (`--out=` to write elsewhere, `--pr=` and `--note=` to label the
//! entries). Exits 1 when a shape fails that is not a known deviation.
//!
//! ```text
//! cargo run -p toc-bench --release --bin paper -- --figure=fig5 --out=/tmp/paper.json
//! ```

use toc_bench::{figures::figures, paper, Args, History};

fn main() {
    let mut args = Args::from_env();
    let only: String = args.get("figure", String::new());
    let history = History::from_args(&mut args, "BENCH_paper.json");
    args.finish();
    let only = Some(only.as_str()).filter(|id| !id.is_empty());
    std::process::exit(paper::run(&figures(), only, &history));
}
