//! Tiny-size runs of every workload: each prints exactly the metrics
//! `BENCHMARK.json` declares, with their units, and passes its output
//! check against the uncached reference.

mod support;

use std::path::PathBuf;
use std::process::Command;

use confbench::{run, Config, Report, Scale, Workload};
use support::Json;

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// A run of the tiny scale, measuring for at least `seconds` — enough
/// for the memo workload's millisecond rounds to add up to a few
/// 10 ms CPU-time ticks.
fn tiny(workload: Workload, trace: bool) -> Report {
    run(&Config {
        workload,
        seed: 11,
        seconds: 0.3,
        trace,
        scale: Scale::TINY,
    })
    .unwrap_or_else(|e| panic!("{} run failed: {e}", workload.name()))
}

fn assert_passes(report: &Report, what: &str) {
    assert!(
        report.correct,
        "{what}: output check failed: {:?}",
        report.problems
    );
    assert!(report.attempted > 0, "{what}: no fault attempted");
    assert_eq!(report.failed, 0, "{what}: faults failed");
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn declared_workloads_are_implemented() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("readable")).expect("JSON");
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads list");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        assert!(
            Workload::from_name(name).is_some(),
            "{name} not implemented"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let declared = declared("end_to_end");
    for workload in Workload::ALL {
        let report = tiny(workload, false);
        assert_passes(&report, workload.name());
        assert_eq!(printed(&report), declared, "{}", workload.name());
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_from_a_traced_run() {
    let declared = declared("per_layer");
    for workload in Workload::ALL {
        // Traced profiles are checked against the same uncached
        // reference as untraced ones, so a pass also proves the
        // wrappers left every outcome byte-identical.
        let report = tiny(workload, true);
        assert_passes(&report, workload.name());
        assert_eq!(printed(&report), declared, "{}", workload.name());
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("declared metric printed")
        };
        assert!(value("sut.start.us.apache") > 0.0, "{}", workload.name());
        assert!(value("analysis.lint.us") > 0.0, "{}", workload.name());
        assert!(value("formats.parse.mb_per_s.apache") > 0.0);
        assert_eq!(value("failed_share"), 0.0);
        let two_edit = value("workload.two_edit_share");
        let repeated = value("workload.repeated_share");
        match workload {
            Workload::Novel => {
                assert_eq!(repeated, 0.0);
                assert_eq!(two_edit, 0.0);
                assert_eq!(value("model.source.us"), 0.0);
            }
            Workload::Memo => {
                assert!(repeated > 0.5, "memo repeats its load: {repeated}");
                assert!(value("sut.parse_cache.hit_rate") > 0.5);
            }
            Workload::Stream => {
                assert_eq!(two_edit, 1.0);
                assert!(value("model.source.us") > 0.0);
            }
        }
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let report = tiny(Workload::Memo, false);
    let line = Json::parse(&report.to_json()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    for m in &report.metrics {
        let entry = metrics.get(&m.name).expect("metric present");
        assert_eq!(entry.get("value").and_then(Json::as_f64), Some(m.value));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
    }
}

#[test]
fn malformed_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "memo",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "memo",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "memo", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_confbench"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
