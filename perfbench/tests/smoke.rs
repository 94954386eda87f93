//! Smoke-scale self-tests of the benchmark command: every workload, traced
//! and untraced, passes its output gates and prints a result line whose
//! metrics are exactly the ones `BENCHMARK.json` declares, each also
//! reported with its unit and sample count, plus the host fingerprint. No
//! test here asserts on timing.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["solve_wsn", "solve_road", "serve_mixed"];
/// End-to-end metrics only `serve_mixed` reports. It is not among the
/// workloads `BENCHMARK.json` gates, so they are not declared there.
const SERVING: [(&str, &str); 3] = [
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];
const FACTS: [&str; 9] = [
    "nproc",
    "cpu_model",
    "avx512",
    "rustc",
    "rustflags",
    "threads",
    "lanes",
    "commit",
    "steal_share",
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item.split('"').next().expect("name").to_string();
            let unit = item
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

/// `(name, value, unit)` of every metric in a result line.
fn result_metrics(line: &str) -> Vec<(String, f64, String)> {
    let metrics = line.split_once("\"metrics\": {").expect("metrics object").1;
    metrics
        .split("}, \"")
        .map(|item| {
            let item = item.trim_start_matches('"');
            let name = item.split('"').next().expect("name").to_string();
            let value = item
                .split("\"value\": ")
                .nth(1)
                .and_then(|v| v.split(',').next())
                .and_then(|v| v.parse().ok())
                .expect("numeric value");
            let unit = item
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_string();
            (name, value, unit)
        })
        .collect()
}

fn check(workload: &str, trace: bool) {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ")
            && last.contains(", \"failed\": 0, \"metrics\": {"),
        "{last}"
    );

    let printed = result_metrics(last);
    let names: Vec<&str> = printed.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut expected = declared(section);
    if workload == "serve_mixed" && !trace {
        expected.extend(SERVING.map(|(n, u)| (n.to_string(), u.to_string())));
    }
    let expected_names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    let mut want = expected_names.clone();
    want.sort_unstable();
    assert_eq!(sorted, want, "{workload}: metric set");
    for (name, value, unit) in &printed {
        let declared_unit = &expected
            .iter()
            .find(|(n, _)| n == name)
            .expect("declared")
            .1;
        assert_eq!(unit, declared_unit, "{name}");
        assert!(value.is_finite(), "{name}");
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("metric {name} = ")))
            .unwrap_or_else(|| panic!("{workload}: no report line for {name}"));
        assert!(line.contains(&format!(" {unit} (n=")), "{line}");
        let n: usize = line
            .split("(n=")
            .nth(1)
            .and_then(|s| s.split(';').next())
            .and_then(|s| s.parse().ok())
            .expect("sample count");
        assert!(n >= 1, "{line}");
    }
    for fact in FACTS {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("fact {fact} = "))),
            "{workload}: fact {fact} missing"
        );
    }
}

#[test]
fn end_to_end_schema_is_complete_on_every_workload() {
    for workload in WORKLOADS {
        check(workload, false);
    }
}

#[test]
fn traced_runs_report_every_layer() {
    for workload in WORKLOADS {
        check(workload, true);
    }
}

#[test]
fn bad_command_lines_exit_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "solve_wsn", "--seed", "x"][..],
        &["--workload", "solve_wsn", "--seed", "1", "--trace", "yes"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("perfbench starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
