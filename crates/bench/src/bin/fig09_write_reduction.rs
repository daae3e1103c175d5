//! **Figure 9** — reduction in the number of writes (NAND programs),
//! normalized to the Baseline system, for MQ dead-value pools of
//! 100 K / 200 K / 300 K entries plus the Ideal (infinite) pool,
//! across the six workloads.
//!
//! Run with `cargo run -p zssd-bench --release --bin fig09_write_reduction`.
//! Scale down with `ZSSD_SCALE=0.1` for a quick pass (pool sizes scale
//! with the trace so the sweep stays meaningful). The whole sweep runs
//! through the parallel grid executor (`ZSSD_THREADS` to pin).

fn main() -> Result<(), zssd_ftl::SsdError> {
    zssd_bench::run_figure("fig09_write_reduction")
}
