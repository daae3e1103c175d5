//! Self-tests of the benchmark harness at a tiny scale: every metric of
//! `BENCHMARK.json` is printed, the result line round-trips through the
//! repository's JSON parser, model results repeat for a seed and do not
//! change when the replay is cut into parts, and the correctness gate
//! catches a broken report.

use std::time::Duration;

use zssd_ftl::Ssd;
use zssd_metrics::Json;
use zssd_perfbench::{check_report, quartiles, run_untraced, traced, Outcome, Workload, WORKLOADS};
use zssd_trace::SyntheticTrace;

const SCALE: f64 = 0.01;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn spec_names(key: &str) -> Vec<String> {
    spec()
        .get(key)
        .and_then(Json::as_arr)
        .expect("list present")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.clone()).collect()
}

fn logged(outcome: &Outcome, name: &str) -> bool {
    outcome.log_metrics.iter().any(|m| m.name == name)
}

fn untraced(workload: &Workload, seed: u64) -> Outcome {
    run_untraced(workload, seed, Duration::ZERO, SCALE)
}

#[test]
fn workloads_match_the_spec() {
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    assert_eq!(ours, spec_names("workloads"));
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let expected = spec_names("end_to_end");
    for workload in &WORKLOADS {
        let outcome = untraced(workload, 7);
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name,
            outcome.failures
        );
        assert_eq!(names(&outcome), expected, "{}", workload.name);
        for name in [
            "host_req_per_s",
            "setup_raw_s",
            "reference_ms",
            "model_erases",
            "model_mean_latency_us",
            "model_p50_latency_us",
            "model_p99_latency_us",
            "failed_ops",
        ] {
            assert!(
                logged(&outcome, name),
                "{}: {name} not printed",
                workload.name
            );
        }
        let text = outcome.describe();
        for m in outcome.metrics.iter().chain(&outcome.log_metrics) {
            assert!(text.contains(&m.name), "{} missing from the log", m.name);
        }
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let expected = spec_names("per_layer");
    for workload in &WORKLOADS {
        let outcome = traced::run_traced(workload, 7, SCALE);
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name,
            outcome.failures
        );
        assert_eq!(names(&outcome), expected, "{}", workload.name);
        for class in [
            "write_revive",
            "write_dedup",
            "write_program",
            "write_gc",
            "read",
        ] {
            for stat in ["n", "p50_ns", "p99_ns"] {
                let name = format!("ftl.{class}.{stat}");
                assert!(
                    logged(&outcome, &name),
                    "{}: {name} not printed",
                    workload.name
                );
            }
        }
        assert!(
            outcome.notes.iter().any(|n| n.contains("shadow pool")),
            "the shadow pool comparison is printed"
        );
    }
}

#[test]
fn result_line_round_trips_through_the_json_parser() {
    let outcome = untraced(&WORKLOADS[1], 3);
    let line = outcome.to_json().to_string();
    assert!(!line.contains('\n'));
    let parsed = Json::parse(&line).expect("result line parses");
    let Json::Obj(pairs) = &parsed else {
        panic!("result is an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(
        parsed.get("attempted").and_then(Json::as_u64),
        Some(outcome.attempted)
    );
    assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = parsed.get("metrics").expect("metrics present");
    for m in &outcome.metrics {
        let entry = metrics.get(&m.name).expect("metric present");
        assert_eq!(entry.get("value").and_then(Json::as_f64), Some(m.value));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
    }
}

#[test]
fn model_results_repeat_for_a_seed() {
    let model = |outcome: &Outcome| -> Vec<(String, f64)> {
        outcome
            .metrics
            .iter()
            .chain(&outcome.log_metrics)
            .filter(|m| m.name.starts_with("model_"))
            .map(|m| (m.name.clone(), m.value))
            .collect()
    };
    for workload in &WORKLOADS {
        let first = model(&untraced(workload, 11));
        assert_eq!(first.len(), 5);
        assert_eq!(first, model(&untraced(workload, 11)), "{}", workload.name);
    }
}

#[test]
fn replay_in_parts_gives_the_model_results_of_one_replay() {
    for workload in &WORKLOADS {
        let profile = workload.profile(SCALE);
        let trace = SyntheticTrace::generate(&profile, 13);
        let report = Ssd::new(workload.config(&profile))
            .and_then(|ssd| ssd.run_trace(trace.records()))
            .expect("tiny replay succeeds");
        let latency = &report.all_latency;
        let expected = [
            (
                "model_write_amp",
                report.flash_programs as f64 / report.host_writes as f64,
            ),
            ("model_erases", report.erases as f64),
            ("model_mean_latency_us", latency.mean.as_micros_f64()),
            ("model_p50_latency_us", latency.p50.as_micros_f64()),
            ("model_p99_latency_us", latency.p99.as_micros_f64()),
        ];
        let outcome = untraced(workload, 13);
        for (name, value) in expected {
            let printed = outcome
                .metrics
                .iter()
                .chain(&outcome.log_metrics)
                .find(|m| m.name == name)
                .expect("model metric printed");
            assert_eq!(printed.value, value, "{}: {name}", workload.name);
        }
    }
}

#[test]
fn correctness_gate_flags_broken_reports() {
    let workload = &WORKLOADS[0];
    let profile = workload.profile(SCALE);
    let trace = SyntheticTrace::generate(&profile, 5);
    let requests = trace.records().len() as u64;
    let report = Ssd::new(workload.config(&profile))
        .and_then(|ssd| ssd.run_trace(trace.records()))
        .expect("tiny replay succeeds");
    assert!(check_report(&report, requests).is_empty());

    let mut mismatched = report.clone();
    mismatched.read_mismatches = 3;
    assert_eq!(check_report(&mismatched, requests)[0].0, 3);

    let mut unconserved = report.clone();
    unconserved.flash_programs += 1;
    assert_eq!(check_report(&unconserved, requests).len(), 1);

    let mut miscounted = report;
    miscounted.revived_writes += 1;
    assert_eq!(check_report(&miscounted, requests).len(), 1);
    assert_eq!(check_report(&miscounted, requests + 2)[1].0, 2);
}

#[test]
fn quartiles_follow_python_statistics() {
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert_eq!(quartiles(&[0.5, 2.25, 7.0, 1.0]), (0.625, 5.8125));
}
