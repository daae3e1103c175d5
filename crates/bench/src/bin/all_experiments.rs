//! Runs the full evaluation matrix once — every system of §V on every
//! workload of Table II — and prints the consolidated numbers behind
//! Figures 9–12, 14, 15 plus the paper's headline means. This is the
//! binary `EXPERIMENTS.md` is produced from.
//!
//! The whole (workload × system) matrix runs through the parallel
//! grid executor; `ZSSD_THREADS` pins the worker count.
//!
//! Run with `cargo run -p zssd-bench --release --bin all_experiments`
//! (`ZSSD_SCALE=0.1` for a quick pass). Pass `--timing` to also run
//! the matrix serially, verify the parallel run produced identical
//! reports, and write the wall-clock comparison to `BENCH_grid.json`.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    zssd_bench::run_matrix(std::env::args().any(|a| a == "--timing"))
}
