//! **Figure 12** — tail (99th percentile) latency improvement of the
//! 200 K-entry dead-value pool vs Baseline.
//!
//! Run with `cargo run -p zssd-bench --release --bin fig12_tail_latency`.

fn main() -> Result<(), zssd_ftl::SsdError> {
    zssd_bench::run_figure("fig12_tail_latency")
}
