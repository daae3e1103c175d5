//! The traced run: per-layer numbers, timed from this package around
//! calls into each crate's public functions.
//!
//! Per-call timing costs the replay tens of percent, so the run first
//! replays untraced, then replays the same trace traced and requires
//! identical model results; its timings never feed an end-to-end
//! metric. The ratio of the two replay times is reported as
//! `tracing_overhead`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use zssd_core::{DeadValuePool, MqDeadValuePool, PoolStats};
use zssd_dedup::DedupStore;
use zssd_ftl::{RunReport, Ssd};
use zssd_trace::{IoOp, SyntheticTrace, TraceRecord};
use zssd_types::{Fingerprint, ValueId};

use crate::shadow::{self, CallTimer};
use crate::{check_report, ratio, Metric, Model, Outcome, Workload};

/// How a host request was served, read off the drive's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A write that revived a zombie page.
    Revive,
    /// A write that shared a live copy through the dedup index.
    Dedup,
    /// A write programmed to flash without triggering GC.
    Program,
    /// A programmed write that triggered GC, and waited for it.
    Gc,
    /// A host read.
    Read,
}

/// Metric-name part of each [`Class`], indexed by the class.
const CLASS_NAMES: [&str; 5] = [
    "write_revive",
    "write_dedup",
    "write_program",
    "write_gc",
    "read",
];

/// Host nanoseconds of every call, per [`Class`].
type ClassTimes = [Vec<u64>; 5];

/// Nearest-rank quantile of sorted samples; 0 for none.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Replays `records` call by call through `Ssd::write`, `Ssd::read`
/// and `Ssd::trim`, with `Ssd::replay`'s arrival stamping, timing each
/// call and classifying it from the change in `Ssd::stats()`. Returns
/// the class timings, the whole loop's duration, and the reads that
/// returned content the trace did not record.
fn traced_replay(
    ssd: &mut Ssd,
    records: &[TraceRecord],
) -> Result<(ClassTimes, Duration, u64), String> {
    let mut times = ClassTimes::default();
    let mut mismatches = 0;
    let mut arrivals = ssd.config().arrival.times();
    let start = Instant::now();
    for record in records {
        let arrival = record.arrival.unwrap_or_else(|| arrivals.next_time());
        match record.op {
            IoOp::Write => {
                let before = ssd.stats();
                let (revived, deduped, collections) = (
                    before.revived_writes,
                    before.deduped_writes,
                    before.gc_collections,
                );
                let call = Instant::now();
                let done = ssd.write(record.lpn, record.value, arrival);
                let took = call.elapsed();
                done.map_err(|e| format!("write at seq {}: {e}", record.seq))?;
                let after = ssd.stats();
                let class = if after.revived_writes > revived {
                    Class::Revive
                } else if after.deduped_writes > deduped {
                    Class::Dedup
                } else if after.gc_collections > collections {
                    Class::Gc
                } else {
                    Class::Program
                };
                times[class as usize].push(took.as_nanos() as u64);
            }
            IoOp::Read => {
                let call = Instant::now();
                let read = ssd.read(record.lpn, arrival);
                let took = call.elapsed();
                let (value, _) = read.map_err(|e| format!("read at seq {}: {e}", record.seq))?;
                if value != record.value {
                    mismatches += 1;
                }
                times[Class::Read as usize].push(took.as_nanos() as u64);
            }
            IoOp::Trim => ssd
                .trim(record.lpn)
                .map_err(|e| format!("trim at seq {}: {e}", record.seq))?,
        }
    }
    Ok((times, start.elapsed(), mismatches))
}

/// The traced run of `workload` at `scale`: one untraced replay for
/// the model results to compare against, one traced replay, and the
/// shadow replays of the pool and dedup layers.
pub fn run_traced(workload: &Workload, seed: u64, scale: f64) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = traced_run(workload, seed, scale, &mut outcome) {
        outcome.fail(1, e);
    }
    outcome
}

fn traced_run(
    workload: &Workload,
    seed: u64,
    scale: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let profile = workload.profile(scale);
    let config = workload.config(&profile);

    let start = Instant::now();
    let trace = SyntheticTrace::generate(&profile, seed);
    let generate = start.elapsed();
    let records = trace.records();
    let requests = records.len() as u64;

    let values: Vec<ValueId> = records
        .iter()
        .filter(|r| r.is_write())
        .map(|r| r.value)
        .collect();
    let start = Instant::now();
    for &value in &values {
        black_box(Fingerprint::of_value(black_box(value)));
    }
    let fingerprint = start.elapsed();
    drop(values);

    // Untraced: the reference model results and the replay time the
    // tracing overhead is measured against.
    outcome.attempted += requests;
    let start = Instant::now();
    let mut ssd = Ssd::new(config.clone()).map_err(|e| format!("Ssd::new: {e}"))?;
    let precondition = start.elapsed();
    let start = Instant::now();
    ssd.replay(records)
        .map_err(|e| format!("untraced replay: {e}"))?;
    let untraced = start.elapsed();
    check_drive(&ssd, "untraced", outcome);
    let start = Instant::now();
    let report = ssd.into_report();
    let into_report = start.elapsed();
    for (count, why) in check_report(&report, requests) {
        outcome.fail(count, why);
    }
    let model = Model::of(&report);

    // Traced: same drive, same trace, every call timed.
    outcome.attempted += requests;
    let mut ssd = Ssd::new(config.clone()).map_err(|e| format!("Ssd::new: {e}"))?;
    let (mut classes, traced, mismatches) = traced_replay(&mut ssd, records)?;
    check_drive(&ssd, "traced", outcome);
    if mismatches > 0 {
        outcome.fail(
            mismatches,
            format!("{mismatches} traced reads returned content the trace did not record"),
        );
    }
    let traced_report = ssd.into_report();
    if Model::of(&traced_report) != model {
        outcome.fail(1, "the traced replay changed the model results".into());
    }
    drop(traced_report);

    // Shadow replay of the pool, mapping and, where the drive
    // deduplicates, dedup layers.
    let mut pool = MqDeadValuePool::new(config.mq);
    let mut dedup = workload
        .system
        .uses_dedup()
        .then(|| DedupStore::with_index_capacity(config.dedup_index_entries));
    let core = shadow::replay(records, profile.lpn_space, &mut pool, dedup.as_mut())?;
    let dedup_stats = dedup.map(|d| d.stats()).unwrap_or_default();
    if !workload.system.uses_dedup() {
        outcome.notes.push(format!(
            "{} does not deduplicate: dedup.* read 0 (n=0)",
            workload.system
        ));
    }
    compare_pools(&pool.stats(), &report, outcome);

    // Classes that are empty on some workload would print a constant 0
    // ns there, and quantiles of whole nanoseconds repeat from run to
    // run: those go to the log only, beside the sample counts.
    for (index, (name, samples)) in CLASS_NAMES.iter().zip(&mut classes).enumerate() {
        samples.sort_unstable();
        let n = samples.len() as u64;
        let total: u64 = samples.iter().sum();
        let mean = Metric::new(format!("ftl.{name}.mean_ns"), ratio(total, n), "ns");
        let p50 = Metric::new(format!("ftl.{name}.p50_ns"), quantile(samples, 0.50), "ns");
        let p99 = Metric::new(format!("ftl.{name}.p99_ns"), quantile(samples, 0.99), "ns");
        let [mean, p50, p99] = [mean, p50, p99].map(|m| m.with_samples(n));
        outcome
            .log_metrics
            .push(Metric::new(format!("ftl.{name}.n"), n as f64, "count"));
        if index == Class::Dedup as usize || index == Class::Gc as usize {
            outcome.log_metrics.push(mean);
        } else {
            outcome.metrics.push(mean);
        }
        outcome.log_metrics.extend([p50, p99]);
        outcome.metrics.push(Metric::new(
            format!("ftl.{name}.share"),
            total as f64 / traced.as_nanos() as f64,
            "ratio",
        ));
    }
    let m = &mut outcome.metrics;
    m.push(Metric::new(
        "ftl.precondition_s",
        precondition.as_secs_f64(),
        "s",
    ));
    m.push(Metric::new(
        "ftl.gc_collections",
        report.gc_collections as f64,
        "count",
    ));
    m.push(
        Metric::new(
            "ftl.gc_relocations_per_collection",
            ratio(report.gc_programs, report.gc_collections),
            "pages",
        )
        .with_samples(report.gc_collections),
    );
    m.push(timer("ftl.mapping_ns", &core.mapping));
    m.push(timer("core.take_match_ns", &core.take_match));
    m.push(timer("core.insert_dead_ns", &core.insert_dead));
    m.push(
        Metric::new("core.hit_ratio", pool.stats().hit_ratio(), "ratio").with_samples(core.writes),
    );
    m.push(Metric::new(
        "core.evictions",
        report.pool.evictions as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.gc_removals",
        report.pool.gc_removals as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.promotions",
        report.pool.promotions as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.demotions",
        report.pool.demotions as f64,
        "count",
    ));
    m.push(timer("dedup.reference_ns", &core.reference));
    m.push(timer("dedup.register_ns", &core.register));
    m.push(timer("dedup.release_ns", &core.release));
    m.push(
        Metric::new(
            "dedup.hit_ratio",
            ratio(
                dedup_stats.dedup_hits,
                dedup_stats.dedup_hits + dedup_stats.misses,
            ),
            "ratio",
        )
        .with_samples(dedup_stats.dedup_hits + dedup_stats.misses),
    );
    m.push(
        Metric::new(
            "types.fingerprint_ns",
            fingerprint.as_nanos() as f64 / report.host_writes.max(1) as f64,
            "ns",
        )
        .with_samples(report.host_writes),
    );
    m.push(
        Metric::new(
            "trace.generate_ns_per_req",
            generate.as_nanos() as f64 / requests.max(1) as f64,
            "ns",
        )
        .with_samples(requests),
    );
    m.push(Metric::new(
        "flash.programs",
        report.flash_programs as f64,
        "count",
    ));
    m.push(Metric::new(
        "flash.reads",
        report.flash_reads as f64,
        "count",
    ));
    m.push(Metric::new("flash.erases", report.erases as f64, "count"));
    m.push(Metric::new(
        "metrics.into_report_ms",
        into_report.as_secs_f64() * 1e3,
        "ms",
    ));
    m.push(Metric::new(
        "tracing_overhead",
        traced.as_secs_f64() / untraced.as_secs_f64(),
        "ratio",
    ));
    Ok(())
}

fn timer(name: &str, t: &CallTimer) -> Metric {
    Metric::new(name, t.mean_ns(), "ns").with_samples(t.calls)
}

fn check_drive(ssd: &Ssd, which: &str, outcome: &mut Outcome) {
    if let Err(e) = ssd.check_invariants() {
        outcome.fail(
            1,
            format!("invariant violated after the {which} replay: {e}"),
        );
    }
}

/// Without GC the shadow pool sees exactly the drive's calls, so its
/// counters must match; GC removes pages the shadow cannot know of, so
/// after GC the gap is only reported.
fn compare_pools(shadow: &PoolStats, report: &RunReport, outcome: &mut Outcome) {
    let drive = &report.pool;
    outcome
        .notes
        .push(format!("shadow pool: {shadow}\ndrive pool:  {drive}"));
    if report.gc_collections == 0 && shadow != drive {
        outcome.fail(
            1,
            "without GC the shadow pool must match the drive's".into(),
        );
    }
}
