//! The benchmark checks itself: a short run of every workload passes
//! and reports exactly the metrics `BENCHMARK.json` names, and a
//! corrupted byte or a fail-open ACL makes the run fail.

use idbench::json::{self, Json};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn section(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .expect("section present")
        .as_arr()
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

/// Run the benchmark; exit success and the parsed last stdout line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (bool, Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_idbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .args(extra)
        .output()
        .expect("run idbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or("").to_string();
    let doc = json::parse(&last).unwrap_or(Json::Null);
    (out.status.success(), doc, stdout)
}

fn assert_metrics(doc: &Json, want: &[(String, String)], stdout: &str) {
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object:\n{stdout}");
    };
    let got: Vec<&String> = metrics.keys().collect();
    let mut names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
    names.sort();
    assert_eq!(got, names, "metric names differ from BENCHMARK.json");
    for (name, unit) in want {
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

#[test]
fn benchmark_json_matches_the_binary() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, ["meta", "churn", "box_make"]);
    let pairs = |t: &[(&str, &str)]| {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(section(&doc, "end_to_end"), pairs(idbench::END_TO_END));
    assert_eq!(section(&doc, "per_layer"), pairs(idbench::PER_LAYER));
}

/// `bulk` is not in BENCHMARK.json (too noisy to gate on a small host)
/// but stays runnable, so its checks run here too.
#[test]
fn every_workload_passes_and_reports_every_metric() {
    let doc = benchmark_json();
    let e2e = section(&doc, "end_to_end");
    let layer = section(&doc, "per_layer");
    for workload in ["meta", "churn", "bulk", "box_make"] {
        for (trace, want) in [(0, &e2e), (1, &layer)] {
            let (ok, out, stdout) = run(workload, trace, &[]);
            assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
            assert_eq!(out.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(
                out.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{stdout}"
            );
            assert!(out.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            assert_metrics(&out, want, &stdout);
            if trace == 0 {
                for (name, _) in want.iter() {
                    let v = out
                        .get("metrics")
                        .unwrap()
                        .get(name)
                        .unwrap()
                        .get("value")
                        .unwrap();
                    assert!(
                        v.as_f64().unwrap() > 0.0,
                        "{workload}: end-to-end {name} is 0"
                    );
                }
            }
        }
    }
}

#[test]
fn a_corrupted_byte_fails_the_run() {
    let (ok, out, stdout) = run("meta", 0, &["--inject", "corrupt"]);
    assert!(!ok, "corrupted content went unnoticed:\n{stdout}");
    assert_eq!(out.get("correct"), Some(&Json::Bool(false)), "{stdout}");
    assert!(out.get("failed").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
    assert!(stdout.contains("wrong bytes"), "{stdout}");
}

#[test]
fn a_fail_open_probe_fails_the_run() {
    for workload in ["churn", "box_make"] {
        let (ok, out, stdout) = run(workload, 0, &["--inject", "fail-open"]);
        assert!(!ok, "{workload}: fail-open went unnoticed:\n{stdout}");
        assert_eq!(out.get("correct"), Some(&Json::Bool(false)), "{stdout}");
        assert!(stdout.contains("FAIL-OPEN"), "{stdout}");
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_idbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
