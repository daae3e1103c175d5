//! The evaluation figures as one declarative table.
//!
//! Figures 9–12, 14 and 15 of the paper are one (workload × system)
//! grid seen through different metrics: each compares a few systems
//! against Baseline on programs, erases, mean latency or p99 latency.
//! [`FIGURES`] holds one row per figure; [`run_figure`] runs a row's
//! grid and prints it through the one renderer, [`Figure::render`],
//! which builds the table, its MEAN row and its CSV. `all_experiments`
//! ([`run_matrix`]) draws its four [`MATRIX`] sections with the same
//! renderer. A new grid figure is a new row here plus a one-line
//! binary calling [`run_figure`].

use std::time::Instant;

use zssd_core::SystemKind::{self, Baseline, Dedup, DvpPlusDedup, Ideal, LruDvp, LxSsd, MqDvp};
use zssd_ftl::{RunReport, SsdError};
use zssd_metrics::reduction_pct;

use crate::{
    arrival_spec, experiment_profiles, frac_pct, grid_for, grid_metrics_json, grid_threads,
    maybe_write_csv, maybe_write_metrics, pct, run_grid, run_grid_with_threads, scaled_entries,
    GridCell, TextTable,
};

/// What a figure compares against Baseline: one number per run.
type Metric = fn(&RunReport) -> f64;

/// NAND page programs.
const PROGRAMS: Metric = |r| r.flash_programs as f64;
/// Block erases.
const ERASES: Metric = |r| r.erases as f64;
/// Mean request latency, in ns.
const MEAN_LATENCY: Metric = |r| r.mean_latency().as_nanos() as f64;
/// 99th-percentile request latency, in ns.
const TAIL_LATENCY: Metric = |r| r.tail_latency().as_nanos() as f64;

/// How a figure states a system's metric against Baseline's.
enum Form {
    /// % reduction vs Baseline ([`reduction_pct`], printed by [`pct`]).
    Reduction,
    /// A fraction of Baseline (printed by [`frac_pct`]).
    Fraction,
}

/// An extra column: its header, and its cell drawn from one workload's
/// reports (Baseline first).
type DetailColumn = (&'static str, fn(&[RunReport]) -> String);

/// One grid table: systems against Baseline on one metric, with its
/// title and what the paper reports.
struct Figure {
    /// The binary's name; also the `ZSSD_CSV` / `ZSSD_METRICS` stem.
    name: &'static str,
    /// The heading line.
    title: &'static str,
    /// The compared systems after Baseline, with their column labels.
    /// Pool sizes are paper-scale; [`Figure::systems`] scales them.
    columns: &'static [(&'static str, SystemKind)],
    /// What is compared.
    metric: Metric,
    /// How the comparison is printed.
    form: Form,
    /// Columns after the compared systems; MEAN shows `-` in them.
    detail: &'static [DetailColumn],
    /// Whether an `arrivals:` line follows the title.
    arrivals_banner: bool,
    /// Whether the grid is exported to `ZSSD_METRICS` as `zssd-grid-v1`.
    metrics_export: bool,
    /// Lines printed after the table.
    footnote: &'static [&'static str],
}

/// The defaults rows override: a % reduction with no extras.
const PLAIN: Figure = Figure {
    name: "",
    title: "",
    columns: &[],
    metric: PROGRAMS,
    form: Form::Reduction,
    detail: &[],
    arrivals_banner: false,
    metrics_export: false,
    footnote: &[],
};

// Pool sizes are paper-scale entries, 200 K being the headline.
const DVP: SystemKind = MqDvp { entries: 200_000 };
const DVP_DEDUP: SystemKind = DvpPlusDedup { entries: 200_000 };
const LX_SSD: SystemKind = LxSsd { entries: 200_000 };

/// Figures 9–12, 14 and 15, one row each.
const FIGURES: [Figure; 6] = [
    Figure {
        name: "fig09_write_reduction",
        title: "Figure 9: % reduction in number of writes vs Baseline",
        columns: &[
            ("DVP-100K", MqDvp { entries: 100_000 }),
            ("DVP-200K", DVP),
            ("DVP-300K", MqDvp { entries: 300_000 }),
            ("Ideal", Ideal),
        ],
        metric: PROGRAMS,
        footnote: &[
            "paper: mean 29% at 200K entries, up to 70% (mail); gains saturate beyond 200K",
        ],
        ..PLAIN
    },
    Figure {
        name: "fig10_erase_reduction",
        title: "Figure 10: % reduction in erase counts vs Baseline",
        columns: &[("DVP-200K", DVP), ("Ideal", Ideal)],
        metric: ERASES,
        metrics_export: true,
        footnote: &["paper: mean 35.5% erase reduction, up to 59.2% (mail); trend follows Fig 9"],
        ..PLAIN
    },
    Figure {
        name: "fig11_mean_latency",
        title: "Figure 11: % mean latency improvement vs Baseline",
        columns: &[("DVP", DVP), ("LX-SSD", LX_SSD)],
        metric: MEAN_LATENCY,
        arrivals_banner: true,
        footnote: &[
            "paper: DVP improves mean latency 4.8%-52% (mean 24.5%) and beats LX-SSD",
            "       by ~2x on average (LX-SSD is weakest on mail)",
        ],
        ..PLAIN
    },
    Figure {
        name: "fig12_tail_latency",
        title: "Figure 12: % tail (p99) latency improvement vs Baseline",
        columns: &[("improvement", DVP)],
        metric: TAIL_LATENCY,
        detail: &[
            ("baseline p99", |r| r[0].tail_latency().to_string()),
            ("DVP p99", |r| r[1].tail_latency().to_string()),
            ("baseline p50", |r| r[0].all_latency.p50.to_string()),
            ("baseline p99/p50", |r| tail_gap(&r[0])),
            ("DVP p99/p50", |r| tail_gap(&r[1])),
        ],
        arrivals_banner: true,
        metrics_export: true,
        footnote: &["paper: 22% mean tail-latency reduction, up to 43.1%; trend mirrors Fig 11"],
        ..PLAIN
    },
    Figure {
        name: "fig14_dedup_writes",
        title: "Figure 14: NAND writes normalized to Baseline (lower is better)",
        columns: &[("Dedup", Dedup), ("DVP", DVP), ("DVP+Dedup", DVP_DEDUP)],
        metric: PROGRAMS,
        form: Form::Fraction,
        footnote: &[
            "paper: dedup alone removes ~40.5% of writes; adding the DVP removes",
            "       another ~11% — the two techniques are complementary",
        ],
        ..PLAIN
    },
    Figure {
        name: "fig15_dedup_latency",
        title: "Figure 15: % mean latency improvement vs Baseline",
        columns: &[("DVP", DVP), ("Dedup", Dedup), ("DVP+Dedup", DVP_DEDUP)],
        metric: MEAN_LATENCY,
        arrivals_banner: true,
        footnote: &[
            "paper: dedup improves latency by up to 58.5%; stacking the DVP adds",
            "       another ~9.8% on average (up to 15%)",
        ],
        ..PLAIN
    },
];

/// p99/p50 across all requests: how much of the tail is queueing and
/// GC stalls rather than the typical service time. Bursty and Poisson
/// arrivals widen this gap; uniform arrivals hide it.
fn tail_gap(report: &RunReport) -> String {
    let p50 = report.all_latency.p50.as_nanos() as f64;
    if p50 == 0.0 {
        return "-".into();
    }
    format!("{:.2}x", report.tail_latency().as_nanos() as f64 / p50)
}

/// Every compared system of §V.
const MATRIX_COLUMNS: &[(&str, SystemKind)] = &[
    ("DVP", DVP),
    ("LRU-DVP", LruDvp { entries: 200_000 }),
    ("Ideal", Ideal),
    ("LX-SSD", LX_SSD),
    ("Dedup", Dedup),
    ("DVP+Dedup", DVP_DEDUP),
];

const fn section(title: &'static str, metric: Metric) -> Figure {
    Figure {
        name: "all_experiments",
        title,
        columns: MATRIX_COLUMNS,
        metric,
        ..PLAIN
    }
}

/// The four sections of `all_experiments`: the full matrix through
/// each metric.
const MATRIX: [Figure; 4] = [
    section(
        "% write (NAND program) reduction vs Baseline  [Figs 9, 14]",
        PROGRAMS,
    ),
    section("% erase reduction vs Baseline  [Fig 10]", ERASES),
    section(
        "% mean latency improvement vs Baseline  [Figs 11, 15]",
        MEAN_LATENCY,
    ),
    section(
        "% tail (p99) latency improvement vs Baseline  [Fig 12]",
        TAIL_LATENCY,
    ),
];

impl Figure {
    /// The grid columns: Baseline, then each compared system with its
    /// fixed pool capacity passed through [`scaled_entries`].
    fn systems(&self) -> Vec<SystemKind> {
        let s = scaled_entries;
        let scaled = |system| match system {
            MqDvp { entries: e } => MqDvp { entries: s(e) },
            LruDvp { entries: e } => LruDvp { entries: s(e) },
            DvpPlusDedup { entries: e } => DvpPlusDedup { entries: s(e) },
            LxSsd { entries: e } => LxSsd { entries: s(e) },
            other => other,
        };
        std::iter::once(Baseline)
            .chain(self.columns.iter().map(|&(_, system)| scaled(system)))
            .collect()
    }

    /// Renders one row per workload, then MEAN: the mean of each
    /// compared column. `reports` is the row-major grid over
    /// `workloads` × [`Figure::systems`].
    ///
    /// # Panics
    ///
    /// Panics if `reports` does not hold one report per grid cell.
    fn render(&self, workloads: &[String], reports: &[RunReport]) -> TextTable {
        let width = self.columns.len() + 1;
        assert_eq!(reports.len(), workloads.len() * width, "one per cell");
        let show = |value| match self.form {
            Form::Reduction => pct(value),
            Form::Fraction => frac_pct(value),
        };
        let mut headers = vec!["trace"];
        headers.extend(self.columns.iter().map(|&(label, _)| label));
        headers.extend(self.detail.iter().map(|&(header, _)| header));
        let mut table = TextTable::new(headers);
        let mut sums = vec![0.0f64; self.columns.len()];
        for (workload, row) in workloads.iter().zip(reports.chunks(width)) {
            let base = (self.metric)(&row[0]);
            let mut cells = vec![workload.clone()];
            for (sum, report) in sums.iter_mut().zip(&row[1..]) {
                let value = match self.form {
                    Form::Reduction => reduction_pct(base, (self.metric)(report)),
                    Form::Fraction => (self.metric)(report) / base,
                };
                *sum += value;
                cells.push(show(value));
            }
            cells.extend(self.detail.iter().map(|(_, cell)| cell(row)));
            table.row(cells);
        }
        let n = workloads.len() as f64;
        let mut mean = vec!["MEAN".to_owned()];
        mean.extend(sums.iter().map(|&sum| show(sum / n)));
        mean.extend(self.detail.iter().map(|_| "-".to_owned()));
        table.row(mean);
        table
    }
}

/// Runs the `FIGURES` row called `name` (panicking if there is none)
/// at the configured scale and prints its title, optional arrivals
/// banner, table and footnote. The table also goes to `ZSSD_CSV`, and
/// for exporting rows the grid to `ZSSD_METRICS`.
///
/// # Errors
///
/// Propagates the error of the earliest failing grid cell.
pub fn run_figure(name: &str) -> Result<(), SsdError> {
    let figure = FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no figure named {name}"));
    println!("{}", figure.title);
    if figure.arrivals_banner {
        print_arrivals_banner();
    }
    println!();
    let profiles = experiment_profiles();
    let cells = grid_for(&profiles, &figure.systems());
    let reports = run_grid(cells.clone())?;
    if figure.metrics_export {
        maybe_write_metrics(name, "json", &grid_metrics_json(&cells, &reports));
    }
    let workloads: Vec<String> = profiles.into_iter().map(|p| p.name).collect();
    let table = figure.render(&workloads, &reports);
    maybe_write_csv(name, &table);
    println!("{table}");
    for line in figure.footnote {
        println!("{line}");
    }
    Ok(())
}

/// Runs the full evaluation matrix once and prints the four `MATRIX`
/// sections plus the paper's headline means. With `timing` the matrix
/// first runs serially as well, and the wall-clock comparison goes to
/// `BENCH_grid.json`.
///
/// # Errors
///
/// Propagates grid errors and the failure to write `BENCH_grid.json`.
pub fn run_matrix(timing: bool) -> Result<(), Box<dyn std::error::Error>> {
    let systems = MATRIX[0].systems();
    let profiles = experiment_profiles();
    println!(
        "Full evaluation matrix ({} systems x {} workloads)",
        systems.len(),
        profiles.len(),
    );
    // Its latency sections depend on the arrival process.
    print_arrivals_banner();
    println!();
    eprintln!("grid workers: {} threads", grid_threads());
    let cells = grid_for(&profiles, &systems);
    let reports = if timing {
        timed_grid(cells)?
    } else {
        run_grid(cells)?
    };
    let workloads: Vec<String> = profiles.into_iter().map(|p| p.name).collect();
    for section in &MATRIX {
        let table = section.render(&workloads, &reports);
        println!("\n== {}\n{table}", section.title);
    }
    println!("\npaper headlines: 29% writes / 35.5% erases / 24.5% mean / 22% tail (DVP-200K);");
    println!("DVP ~2x LX-SSD on mean latency; DVP+Dedup adds ~11% writes over Dedup alone");
    Ok(())
}

/// The `arrivals:` line under the title of every output whose
/// latencies depend on `ZSSD_ARRIVAL`.
fn print_arrivals_banner() {
    let spec = arrival_spec();
    println!("arrivals: {spec} (set ZSSD_ARRIVAL to poisson or bursty)");
}

/// Runs `cells` serially, then on [`grid_threads`] workers, writes the
/// wall-clock comparison to `BENCH_grid.json` (hand-rolled JSON: the
/// workspace carries no serde) and returns the parallel reports, which
/// must equal the serial ones.
fn timed_grid(cells: Vec<GridCell>) -> Result<Vec<RunReport>, Box<dyn std::error::Error>> {
    let timed = |threads| {
        let start = Instant::now();
        let reports = run_grid_with_threads(cells.clone(), threads);
        (reports, start.elapsed().as_secs_f64())
    };
    let threads = grid_threads();
    let (serial, serial_secs) = timed(1);
    let (parallel, parallel_secs) = timed(threads);
    let (serial, parallel) = (serial?, parallel?);
    let identical = serial == parallel;
    let speedup = serial_secs / parallel_secs.max(1e-9);
    eprintln!("[timing] serial {serial_secs:.2}s, parallel ({threads} threads) {parallel_secs:.2}s, speedup {speedup:.2}x, identical: {identical}");
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"benchmark\": \"grid_runner\",\n  \"cells\": {cells},\n  \"threads\": {threads},\n  \"available_cpus\": {cpus},\n  \"scale\": {scale},\n  \"serial_secs\": {serial_secs:.3},\n  \"parallel_secs\": {parallel_secs:.3},\n  \"speedup\": {speedup:.2},\n  \"reports_identical\": {identical}\n}}\n",
        cells = serial.len(),
        scale = crate::scale(),
    );
    std::fs::write("BENCH_grid.json", json)?;
    assert!(identical, "parallel grid must reproduce the serial reports");
    Ok(parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zssd_trace::WorkloadProfile;

    #[test]
    fn every_row_renders_one_line_per_workload_plus_a_true_mean() {
        let profiles: Vec<WorkloadProfile> = WorkloadProfile::paper_set()
            .into_iter()
            .map(|p| p.scaled(0.002))
            .collect();
        let workloads: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
        let value = |cell: &str| cell.trim_end_matches('%').parse::<f64>().expect("a % cell");
        for figure in FIGURES.iter().chain(&MATRIX) {
            let systems = figure.systems();
            let reports = run_grid(grid_for(&profiles, &systems)).expect("tiny grid runs");
            let csv = figure.render(&workloads, &reports).to_csv();
            let rows: Vec<Vec<&str>> = csv.lines().map(|l| l.split(',').collect()).collect();
            let width = systems.len() + figure.detail.len();
            assert_eq!(rows[0].len(), width, "{}", figure.title);
            assert_eq!(rows.len(), workloads.len() + 2, "header + MEAN");
            let (body, mean) = (&rows[1..rows.len() - 1], &rows[rows.len() - 1]);
            assert!(body.iter().zip(&workloads).all(|(row, w)| row[0] == w));
            assert_eq!(mean[0], "MEAN");
            for column in 1..systems.len() {
                let expected =
                    body.iter().map(|row| value(row[column])).sum::<f64>() / workloads.len() as f64;
                // Every printed cell, MEAN included, is off by ≤ 0.05.
                assert!(
                    (expected - value(mean[column])).abs() <= 0.1 + 1e-9,
                    "{}: MEAN {} vs column mean {expected}",
                    rows[0][column],
                    mean[column],
                );
            }
            assert!(mean[systems.len()..].iter().all(|&c| c == "-"));
        }
    }
}
