//! Benchmark of the zombie-ssd simulator: named workloads replayed
//! through [`zssd_ftl::Ssd`], one drive at a time on one thread.
//!
//! An untraced run ([`run_untraced`]) measures what a user of the
//! simulator sees — host requests per second, set-up time, peak memory
//! — next to the modelled drive's results, and checks after every
//! replay that the simulation stayed correct. A separate traced run
//! ([`traced::run_traced`]) times calls into each crate's public
//! functions from this package, so no end-to-end number ever comes from
//! an instrumented replay.

mod shadow;
pub mod traced;

use std::time::{Duration, Instant};

use zssd_core::SystemKind;
use zssd_flash::FaultConfig;
use zssd_ftl::{RunReport, Ssd, SsdConfig};
use zssd_metrics::{Json, LatencySummary};
use zssd_trace::{SyntheticTrace, WorkloadProfile};
use zssd_types::SimDuration;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// Dead-value-pool capacity of every workload (the paper's headline
/// 200K-entry point, ~5 MB of RAM).
const POOL_ENTRIES: usize = 200_000;

/// Fingerprint-index budget of the dedup systems.
const DEDUP_INDEX_ENTRIES: usize = 200_000;

/// Untraced replays a run makes at least, however short its budget, so
/// the set-up median and the replay rate always rest on several.
const MIN_ITERATIONS: usize = 3;

/// Parts each untraced replay is cut into, with a reference run before
/// each: a part of mail's replay lasts tens of milliseconds, shorter
/// than the swings in the shared host's speed.
const REPLAY_PARTS: usize = 32;

/// Reference runs before and after each set-up.
const SETUP_REFERENCE_RUNS: u32 = 4;

/// A named benchmark workload: a paper trace profile and the system
/// that replays it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    profile: fn() -> WorkloadProfile,
    /// The evaluated system the drive is built as.
    pub system: SystemKind,
}

/// The benchmark's workloads. All run at paper scale, because the
/// footprint relative to the CPU caches is one of the axes measured.
pub const WORKLOADS: [Workload; 3] = [
    // Pool-bound: most writes revive a zombie page, GC never runs, and
    // the 2.1 M-page footprint dwarfs the CPU caches.
    Workload {
        name: "mail-dvp",
        profile: WorkloadProfile::mail,
        system: SystemKind::MqDvp {
            entries: POOL_ENTRIES,
        },
    },
    // GC-bound: a 30 K-page footprint that fits in cache, write
    // amplification ~4.6, few pool hits.
    Workload {
        name: "trans-dvp",
        profile: WorkloadProfile::trans,
        system: SystemKind::MqDvp {
            entries: POOL_ENTRIES,
        },
    },
    // The mail trace through the dedup index: most writes hit live
    // copies, so pool lookups mostly miss, and preconditioning
    // registers every initial page's fingerprint.
    Workload {
        name: "mail-dedup",
        profile: WorkloadProfile::mail,
        system: SystemKind::DvpPlusDedup {
            entries: POOL_ENTRIES,
        },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The trace profile, shrunk by `scale` (`1.0` is paper scale).
    pub fn profile(&self, scale: f64) -> WorkloadProfile {
        (self.profile)().scaled(scale)
    }

    /// The drive every replay of this workload starts from: sized to the
    /// trace footprint, default constant arrivals, no injected faults.
    pub fn config(&self, profile: &WorkloadProfile) -> SsdConfig {
        SsdConfig::for_footprint(profile.lpn_space)
            .with_system(self.system)
            .with_dedup_index_entries(DEDUP_INDEX_ENTRIES)
            .with_faults(FaultConfig::none())
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Samples behind the value, where it summarizes several.
    pub samples: Option<u64>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// Attaches the number of samples behind the value.
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = Some(samples);
        self
    }
}

/// What a benchmark run prints as its last line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Requests replayed (untraced and traced alike).
    pub attempted: u64,
    /// Requests that failed or read back wrong content, plus one per
    /// violated correctness check.
    pub failed: u64,
    /// Description of every failure, for the log.
    pub failures: Vec<String>,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Metrics printed to the log but left out of the result object,
    /// because on some workload they are empty or do not depend on the
    /// seed (quantized simulated latencies, classes that never occur).
    pub log_metrics: Vec<Metric>,
    /// Comparisons worth reading in the log, beside the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric's value and unit.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Json::Obj(vec![
                    ("value".to_owned(), Json::F64(m.value)),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            ("attempted".to_owned(), Json::U64(self.attempted)),
            ("failed".to_owned(), Json::U64(self.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
    }

    /// One human-readable line per metric, with its sample count.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        for m in self.metrics.iter().chain(&self.log_metrics) {
            out.push_str(&format!("{:<40} {:>16.4} {}", m.name, m.value, m.unit));
            if let Some(n) = m.samples {
                out.push_str(&format!("  (n={n})"));
            }
            out.push('\n');
        }
        out
    }

    pub(crate) fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }
}

/// The modelled drive's results: every counter of the run report and
/// the latency digest. A pure simulator-speed change leaves them
/// identical for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Model {
    /// Named counters of [`RunReport::counters`], minus the read
    /// mismatches, which are checked on their own.
    counters: Vec<(&'static str, u64)>,
    /// Latency over all requests.
    latency: LatencySummary,
    /// NAND programs per host write.
    write_amp: f64,
    /// Block erases.
    erases: u64,
}

impl Model {
    /// Extracts the model results of a finished run.
    pub(crate) fn of(report: &RunReport) -> Self {
        Model {
            counters: report
                .counters()
                .iter()
                .filter(|(name, _)| *name != "read_mismatches")
                .collect(),
            latency: report.all_latency,
            write_amp: ratio(report.flash_programs, report.host_writes),
            erases: report.erases,
        }
    }

    /// The `model_*` metrics: write amplification first, then erases
    /// and the latency digest.
    pub(crate) fn metrics(&self) -> [Metric; 5] {
        let n = self.latency.count;
        let us =
            |name: &str, d: SimDuration| Metric::new(name, d.as_micros_f64(), "us").with_samples(n);
        [
            Metric::new("model_write_amp", self.write_amp, "ratio"),
            Metric::new("model_erases", self.erases as f64, "count"),
            us("model_mean_latency_us", self.latency.mean),
            us("model_p50_latency_us", self.latency.p50),
            us("model_p99_latency_us", self.latency.p99),
        ]
    }
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The correctness checks every finished replay must pass, outside the
/// timed region: the drive's cross-structure invariants (checked by the
/// caller while it still holds the drive), the two conservation
/// identities, every request served, and every read returning the
/// content the trace recorded. Returns `(failed requests, description)`
/// per violation.
pub fn check_report(report: &RunReport, requests: u64) -> Vec<(u64, String)> {
    let mut violations = Vec::new();
    let r = report;
    if r.flash_programs != r.host_programs + r.gc_programs + r.scrub_programs {
        violations.push((
            1,
            format!(
                "flash_programs {} != host {} + gc {} + scrub {}",
                r.flash_programs, r.host_programs, r.gc_programs, r.scrub_programs
            ),
        ));
    }
    if r.host_writes != r.host_programs + r.revived_writes + r.deduped_writes {
        violations.push((
            1,
            format!(
                "host_writes {} != programs {} + revived {} + deduped {}",
                r.host_writes, r.host_programs, r.revived_writes, r.deduped_writes
            ),
        ));
    }
    let served = r.host_writes + r.host_reads + r.trims;
    if served != requests {
        violations.push((
            requests.abs_diff(served),
            format!("served {served} of {requests} requests"),
        ));
    }
    if r.read_mismatches > 0 {
        violations.push((
            r.read_mismatches,
            format!(
                "{} reads returned content the trace did not record",
                r.read_mismatches
            ),
        ));
    }
    violations
}

/// One untraced set-up and replay.
#[derive(Debug)]
struct Iteration {
    /// `SyntheticTrace::generate` + `Ssd::new`.
    setup: Duration,
    /// `Ssd::replay` + `Ssd::into_report`.
    replay: Duration,
    /// `setup` on a machine where the reference takes
    /// [`REFERENCE_NOMINAL_S`]: each of the two calls divided by the
    /// reference runs on either side of it.
    setup_scaled: f64,
    /// Mean [`Reference::seconds`] between the parts of the replay.
    replay_reference: f64,
    requests: u64,
    /// `None` if the drive could not be built or the replay failed.
    model: Option<Model>,
}

/// Generates the trace, builds the drive, replays it and checks the
/// result outside the timed regions. The reference computation runs
/// [`SETUP_REFERENCE_RUNS`] times before, between and after the two
/// calls of the set-up, and once
/// before each of [`REPLAY_PARTS`] parts of the replay and after the
/// last, so it samples the machine's speed over the same seconds the
/// simulator runs in. Failures are recorded in `outcome`.
fn untraced_iteration(
    workload: &Workload,
    profile: &WorkloadProfile,
    seed: u64,
    reference: &mut Reference,
    outcome: &mut Outcome,
) -> Iteration {
    let before_generate = reference.mean_seconds(SETUP_REFERENCE_RUNS);
    let start = Instant::now();
    let trace = SyntheticTrace::generate(profile, seed);
    let generate = start.elapsed();
    let before_new = reference.mean_seconds(SETUP_REFERENCE_RUNS);
    let start = Instant::now();
    let ssd = Ssd::new(workload.config(profile));
    let new = start.elapsed();
    let after_setup = reference.mean_seconds(SETUP_REFERENCE_RUNS);
    let scaled = |took: Duration, before: f64, after: f64| {
        took.as_secs_f64() * REFERENCE_NOMINAL_S * 2.0 / (before + after)
    };
    // Stamp every request with the arrival `Ssd::replay` would give it,
    // so that replaying the trace in parts gives the same model results.
    let mut records = trace.into_records();
    let mut arrivals = workload.config(profile).arrival.times();
    for record in &mut records {
        record.arrival.get_or_insert_with(|| arrivals.next_time());
    }
    let mut it = Iteration {
        setup: generate + new,
        replay: Duration::ZERO,
        setup_scaled: scaled(generate, before_generate, before_new)
            + scaled(new, before_new, after_setup),
        replay_reference: after_setup,
        requests: records.len() as u64,
        model: None,
    };
    outcome.attempted += it.requests;
    let mut ssd = match ssd {
        Ok(ssd) => ssd,
        Err(e) => {
            outcome.fail(it.requests, format!("Ssd::new failed: {e}"));
            return it;
        }
    };

    let mut reference_total = 0.0;
    let mut reference_runs = 0;
    for part in records.chunks(records.len().div_ceil(REPLAY_PARTS).max(1)) {
        reference_total += reference.seconds();
        reference_runs += 1;
        let start = Instant::now();
        let replayed = ssd.replay(part);
        it.replay += start.elapsed();
        if let Err(e) = replayed {
            // The failed request and every one after it.
            let s = ssd.stats();
            let served = (s.host_writes + s.host_reads + s.trims).saturating_sub(1);
            outcome.fail(it.requests - served, format!("replay failed: {e}"));
            return it;
        }
    }
    if let Err(e) = ssd.check_invariants() {
        outcome.fail(1, format!("invariant violated: {e}"));
    }
    let start = Instant::now();
    let report = ssd.into_report();
    it.replay += start.elapsed();
    reference_total += reference.seconds();
    it.replay_reference = reference_total / f64::from(reference_runs + 1);
    for (count, why) in check_report(&report, it.requests) {
        outcome.fail(count, why);
    }
    it.model = Some(Model::of(&report));
    it
}

/// The untraced run: replays `workload` from a fresh trace generation
/// and drive set-up each time, for about `budget` and at least
/// [`MIN_ITERATIONS`] times, and reports the host timings next to the
/// model results.
///
/// Host times are reported against the machine's speed at the time,
/// measured by the [`Reference`] computation run around every set-up
/// and between the parts of every replay: replay speed as requests per
/// reference run, set-up time in seconds of a machine on which the
/// reference takes [`REFERENCE_NOMINAL_S`]. A shared host's speed
/// varies by up to 2x from second to second and over minutes; raw
/// seconds follow it, the ratios cancel much of it. Raw requests per
/// second and set-up seconds go to the log.
///
/// Every replay of a run uses the same seed, so every replay must give
/// the same model results; a difference counts as a failure.
pub fn run_untraced(workload: &Workload, seed: u64, budget: Duration, scale: f64) -> Outcome {
    let profile = workload.profile(scale);
    let mut outcome = Outcome::default();
    let mut reference = Reference::new();
    let start = Instant::now();
    let mut iterations = Vec::new();
    let mut model: Option<Model> = None;
    // Stop before an iteration that would overrun the budget, judged by
    // the mean iteration so far.
    while iterations.len() < MIN_ITERATIONS
        || start.elapsed().as_secs_f64() * (1.0 + 1.0 / iterations.len() as f64)
            <= budget.as_secs_f64()
    {
        let mut it = untraced_iteration(workload, &profile, seed, &mut reference, &mut outcome);
        outcome.notes.push(format!(
            "replay {}: setup {:.3} s ({:.3} s scaled), replay {:.3} s, reference {:.2} ms",
            iterations.len() + 1,
            it.setup.as_secs_f64(),
            it.setup_scaled,
            it.replay.as_secs_f64(),
            it.replay_reference * 1e3,
        ));
        let failed = it.model.is_none();
        match (&model, it.model.take()) {
            (_, None) => {}
            (None, Some(m)) => model = Some(m),
            (Some(first), Some(m)) if *first != m => {
                outcome.fail(1, "replays of one seed gave different model results".into());
            }
            _ => {}
        }
        iterations.push(it);
        if failed {
            break;
        }
    }
    let n = iterations.len() as u64;
    let stat = |f: &dyn Fn(&Iteration) -> f64| {
        let mut values: Vec<f64> = iterations.iter().map(f).collect();
        median(&mut values)
    };
    let rate = |it: &Iteration| it.requests as f64 / it.replay.as_secs_f64();
    let per_ref = stat(&|it| rate(it) * it.replay_reference);
    let setup_s = stat(&|it| it.setup_scaled);
    let raw_rate = stat(&rate);
    let raw_setup = stat(&|it| it.setup.as_secs_f64());
    let reference_ms = stat(&|it| it.replay_reference * 1e3);
    outcome.metrics.extend([
        Metric::new("host_req_per_ref", per_ref, "req/ref").with_samples(n),
        Metric::new("setup_s", setup_s, "s").with_samples(n),
    ]);
    // The reference computation's buffers are not the simulator's.
    match peak_rss_mb() {
        Ok(mb) => outcome.metrics.push(Metric::new(
            "peak_rss_mb",
            mb - Reference::BYTES as f64 / f64::from(1 << 20),
            "MB",
        )),
        Err(e) => outcome.fail(1, e),
    }
    outcome.log_metrics.extend([
        Metric::new("host_req_per_s", raw_rate, "req/s").with_samples(n),
        Metric::new("setup_raw_s", raw_setup, "s").with_samples(n),
        Metric::new("reference_ms", reference_ms, "ms").with_samples(n),
    ]);
    match model {
        Some(model) => {
            let [amp, rest @ ..] = model.metrics();
            outcome.metrics.push(amp);
            outcome.log_metrics.extend(rest);
        }
        None => outcome.fail(1, "no replay finished".into()),
    }
    outcome.log_metrics.push(Metric::new(
        "failed_ops",
        ratio(outcome.failed, outcome.attempted),
        "share",
    ));
    outcome
}

/// Reference time that [`run_untraced`] scales set-up seconds to: about
/// what [`Reference::seconds`] takes on an unloaded 2-CPU host.
pub const REFERENCE_NOMINAL_S: f64 = 0.01;

/// A fixed computation that shares no code with the simulator, timed
/// around every set-up and replay to measure how fast the machine runs
/// at that moment. Half of it is arithmetic over the L2 cache (sorting
/// 64 Ki pseudo-random `u64`s), half dependent random accesses over a
/// 256 MiB table, larger than the last-level cache, so they wait on
/// DRAM: the two resources the simulator itself waits on. Both buffers are allocated and written once, before
/// any timing, and [`Reference::BYTES`] of them are taken back out of
/// `peak_rss_mb`.
#[derive(Debug)]
pub struct Reference {
    values: Vec<u64>,
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    const SORT_LEN: u64 = 1 << 16;
    const TABLE_LEN: usize = 1 << 25;
    const GATHERS: u64 = 1 << 15;

    /// Bytes the computation keeps resident for its whole life.
    pub const BYTES: usize = (Self::SORT_LEN as usize + Self::TABLE_LEN) * 8;

    /// Allocates and writes both buffers.
    pub fn new() -> Self {
        Reference {
            values: (0..Self::SORT_LEN).map(splitmix64).collect(),
            table: (0..Self::TABLE_LEN as u64).map(splitmix64).collect(),
        }
    }

    /// Mean host seconds of `runs` runs of the computation.
    pub fn mean_seconds(&mut self, runs: u32) -> f64 {
        (0..runs).map(|_| self.seconds()).sum::<f64>() / f64::from(runs)
    }

    /// Host seconds of one run of the computation.
    pub fn seconds(&mut self) -> f64 {
        let start = Instant::now();
        for (i, v) in (0..Self::SORT_LEN).zip(self.values.iter_mut()) {
            *v = splitmix64(i);
        }
        self.values.sort_unstable();
        std::hint::black_box(&mut self.values);
        let mut x = 0u64;
        for i in 0..Self::GATHERS {
            let slot = (splitmix64(x ^ i) % Self::TABLE_LEN as u64) as usize;
            x = x.wrapping_add(self.table[slot]);
            self.table[slot] = x;
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64()
    }
}

fn splitmix64(i: u64) -> u64 {
    let mut z = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `values` (sorted in place); 0 for none.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `(q1, q3)` of `values`, as Python's `statistics.quantiles(values,
/// n=4)` (the default, exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a description if `/proc/self/status` cannot be read or has
/// no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
