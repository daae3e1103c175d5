//! **Figure 11** — mean latency improvement of the dead-value pool
//! (DVP, 200 K entries) and the prior-work LX-SSD recycler, vs
//! Baseline.
//!
//! Run with `cargo run -p zssd-bench --release --bin fig11_mean_latency`.

fn main() -> Result<(), zssd_ftl::SsdError> {
    zssd_bench::run_figure("fig11_mean_latency")
}
