//! **Figure 15** — mean latency improvement vs Baseline for DVP,
//! Dedup, and DVP+Dedup (§VII-A).
//!
//! Run with `cargo run -p zssd-bench --release --bin fig15_dedup_latency`.

fn main() -> Result<(), zssd_ftl::SsdError> {
    zssd_bench::run_figure("fig15_dedup_latency")
}
