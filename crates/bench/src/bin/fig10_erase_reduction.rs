//! **Figure 10** — reduction in erase counts for the 200 K-entry MQ
//! dead-value pool and the Ideal pool, normalized to Baseline.
//!
//! Run with `cargo run -p zssd-bench --release --bin fig10_erase_reduction`.

fn main() -> Result<(), zssd_ftl::SsdError> {
    zssd_bench::run_figure("fig10_erase_reduction")
}
