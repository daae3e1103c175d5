//! `--record`: runs every workload of `BENCHMARK.json` on several seeds
//! and writes the results, with how they were measured, to
//! `perfbench/RESULTS.json`.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use zssd_metrics::Json;
use zssd_perfbench::{median, quartiles, DEFAULT_SEED};

/// A seed kept out of tuning and out of the recorded runs, so a later
/// change can confirm its claim on inputs nobody looked at.
const HELD_OUT_SEED: u64 = 9001;

/// Seeds of the recorded untraced runs, one run per workload each:
/// `DEFAULT_SEED` and the ones after it.
const SEEDS: u64 = 10;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// One benchmark run's parsed result line.
struct RunResult {
    correct: bool,
    metrics: Json,
}

fn run_once(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let correct = output.status.success() && result.get("correct") == Some(&Json::Bool(true));
    let metrics = result
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("{workload} seed {seed}: no metrics"))?;
    Ok(RunResult { correct, metrics })
}

fn value_of(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

fn text_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn names(spec: &Json, key: &str) -> Vec<Json> {
    spec.get(key)
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default()
}

fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_default()
}

/// Runs the record and writes `RESULTS.json`; fails if any run was
/// incorrect, a spread reached a third of its metric's bound, or a
/// median is worse than the previous record's by more than the bound.
pub fn record() -> ExitCode {
    match try_record() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn try_record() -> Result<bool, String> {
    let spec_path = format!("{MANIFEST_DIR}/../BENCHMARK.json");
    let spec = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("{spec_path}: {e}")))?;
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let seeds: Vec<u64> = (DEFAULT_SEED..DEFAULT_SEED + SEEDS).collect();
    let out_path = format!("{MANIFEST_DIR}/RESULTS.json");
    // The record this one replaces, if any, to compare medians with.
    let previous = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let previous_median = |workload: &str, metric: &str| -> Option<f64> {
        previous
            .as_ref()?
            .get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| str_of(w, "name") == workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("median")?
            .as_f64()
    };

    // Seeds outermost, so a drift in machine speed spreads over every
    // workload alike.
    let mut untraced: Vec<Vec<Json>> = vec![Vec::new(); workloads.len()];
    let mut steady = true;
    for &seed in &seeds {
        for (w, workload) in workloads.iter().enumerate() {
            let name = str_of(workload, "name");
            let run = run_once(name, seed, seconds, false)?;
            eprintln!("{name} seed {seed}: correct={}", run.correct);
            steady &= run.correct;
            untraced[w].push(run.metrics);
        }
    }

    let mut results = Vec::new();
    let mut summary = String::new();
    for (w, workload) in workloads.iter().enumerate() {
        let name = str_of(workload, "name");
        let mut metrics = Vec::new();
        for metric in &end_to_end {
            let metric_name = str_of(metric, "name");
            let mut values: Vec<f64> = untraced[w]
                .iter()
                .filter_map(|m| value_of(m, metric_name))
                .collect();
            let runs_json = Json::Arr(values.iter().map(|&v| Json::F64(v)).collect());
            let (q1, q3) = quartiles(&values);
            let mid = median(&mut values);
            let spread = if mid == 0.0 { 0.0 } else { (q3 - q1) / mid };
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let ok = spread < bound / 3.0;
            steady &= ok && values.len() == seeds.len();
            let _ = write!(
                summary,
                "{name:<12} {metric_name:<24} median {mid:>14.4}  spread {:>6.2}% (bound/3 {:.2}%){}",
                spread * 100.0,
                bound / 3.0 * 100.0,
                if ok { "" } else { "  TOO WIDE" }
            );
            let mut entry = vec![
                ("median", Json::F64(mid)),
                ("q1", Json::F64(q1)),
                ("q3", Json::F64(q3)),
                ("spread", Json::F64(spread)),
                ("values", runs_json),
            ];
            // How much worse this median is than the previous record's:
            // two records of the same code must stay within the bound.
            if let Some(before) = previous_median(name, metric_name).filter(|&b| b != 0.0) {
                let worse = if str_of(metric, "better") == "higher" {
                    (before - mid) / before
                } else {
                    (mid - before) / before
                };
                let within = worse <= bound;
                steady &= within;
                let _ = write!(
                    summary,
                    "  vs previous {:+.2}% worse{}",
                    worse * 100.0,
                    if within { "" } else { "  BEYOND BOUND" }
                );
                entry.push(("previous_median", Json::F64(before)));
                entry.push(("worse_than_previous", Json::F64(worse)));
            }
            summary.push('\n');
            metrics.push((metric_name.to_owned(), obj(entry)));
        }
        let traced = run_once(name, DEFAULT_SEED, seconds, true)?;
        eprintln!("{name} traced: correct={}", traced.correct);
        steady &= traced.correct;
        let layers = per_layer
            .iter()
            .map(|metric| {
                let metric_name = str_of(metric, "name");
                let value = value_of(&traced.metrics, metric_name).map_or(Json::Null, Json::F64);
                (metric_name.to_owned(), value)
            })
            .collect();
        results.push(obj(vec![
            ("name", Json::Str(name.to_owned())),
            ("why", Json::Str(str_of(workload, "why").to_owned())),
            ("end_to_end", Json::Obj(metrics)),
            ("per_layer_traced", Json::Obj(layers)),
        ]));
    }

    let units = |list: &[Json]| {
        Json::Arr(
            list.iter()
                .map(|m| {
                    obj(vec![
                        ("name", Json::Str(str_of(m, "name").to_owned())),
                        ("unit", Json::Str(str_of(m, "unit").to_owned())),
                        ("better", Json::Str(str_of(m, "better").to_owned())),
                    ])
                })
                .collect(),
        )
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let doc = obj(vec![
        ("schema", Json::Str("zssd-perfbench-results-v1".to_owned())),
        (
            "method",
            obj(vec![
                ("cpus", Json::U64(cpus)),
                ("rustc", Json::Str(text_of("rustc", &["--version"]))),
                ("commit", Json::Str(text_of("git", &["rev-parse", "HEAD"]))),
                (
                    "previous_commit",
                    previous
                        .as_ref()
                        .and_then(|p| p.get("method")?.get("commit").cloned())
                        .unwrap_or(Json::Null),
                ),
                ("default_seed", Json::U64(DEFAULT_SEED)),
                ("held_out_seed", Json::U64(HELD_OUT_SEED)),
                ("traced_seed", Json::U64(DEFAULT_SEED)),
                ("seeds", Json::Arr(seeds.iter().map(|&s| Json::U64(s)).collect())),
                ("run_seconds", Json::U64(seconds)),
                (
                    "spread",
                    Json::Str("(q3 - q1) / median over the runs, quartiles as Python's statistics.quantiles(n=4)".to_owned()),
                ),
            ]),
        ),
        ("end_to_end_metrics", units(&end_to_end)),
        ("per_layer_metrics", units(&per_layer)),
        ("workloads", Json::Arr(results)),
    ]);
    std::fs::write(&out_path, pretty(&doc, 0) + "\n")
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    print!("{summary}");
    println!("wrote {out_path}; steady and correct: {steady}");
    Ok(steady)
}

/// `doc` with one key or element per line, indented two spaces a level.
fn pretty(doc: &Json, depth: usize) -> String {
    let indent = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match doc {
        Json::Obj(pairs) if !pairs.is_empty() => {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{indent}{}: {}", Json::Str(k.clone()), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        Json::Arr(items) if !items.is_empty() => {
            let body: Vec<String> = items
                .iter()
                .map(|v| format!("{indent}{}", pretty(v, depth + 1)))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        other => other.to_string(),
    }
}
