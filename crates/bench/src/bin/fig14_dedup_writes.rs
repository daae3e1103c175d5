//! **Figure 14** — number of writes normalized to Baseline for
//! Dedup alone, DVP alone, and DVP+Dedup (§VII).
//!
//! Run with `cargo run -p zssd-bench --release --bin fig14_dedup_writes`.

fn main() -> Result<(), zssd_ftl::SsdError> {
    zssd_bench::run_figure("fig14_dedup_writes")
}
