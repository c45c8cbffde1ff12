//! Runs every workload with `--smoke`, untraced and traced, and checks
//! the result line against `BENCHMARK.json`: every declared metric is
//! present, finite and carries its declared unit, nothing else is, and
//! no op failed.

use std::process::Command;

use nsr_obs::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json")
}

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_nsr-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e:?}): {last}"))
}

fn check(workload: &str, trace: &str, declared: &[(String, String)]) {
    let result = smoke(workload, trace);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object")
    };
    for (name, unit) in declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} --trace {trace}: `{name}` missing"));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: `{name}` = {value}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{workload}: undeclared metrics"
    );
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let spec = benchmark_json();
    let end_to_end = names_and_units(&spec, "end_to_end");
    let per_layer = names_and_units(&spec, "per_layer");
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);
    // One after the other: the workloads time themselves, and two at
    // once on a two-core host would only measure each other.
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        check(name, "0", &end_to_end);
        check(name, "1", &per_layer);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_nsr-benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
