//! End-to-end checks of the benchmark binary and its metric contract.

use relief_benchmark::json::{self, Value};
use relief_benchmark::metrics::{END_TO_END, PER_LAYER};
use relief_benchmark::workloads::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_relief-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(workload, metric)` -> how many `<workload> <metric> <value> <unit>`
/// lines printed it.
fn metric_lines(stdout: &str) -> BTreeMap<(String, String), usize> {
    let mut seen = BTreeMap::new();
    for line in stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
    {
        let f: Vec<&str> = line.split(' ').collect();
        assert_eq!(f.len(), 4, "malformed metric line {line:?}");
        assert!(f[2].parse::<f64>().is_ok(), "non-numeric value in {line:?}");
        *seen
            .entry((f[0].to_string(), f[1].to_string()))
            .or_insert(0) += 1;
    }
    seen
}

fn listed(bench: &Value, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn last_result(stdout: &str) -> Value {
    json::parse(stdout.lines().last().expect("output")).expect("result line is JSON")
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark_json();
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let list = b.get(key).and_then(Value::as_array).expect("list");
        assert_eq!(
            list.len(),
            defs.len(),
            "{key}: BENCHMARK.json and the catalogue differ in length"
        );
        for (m, d) in list.iter().zip(defs) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(d.name));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
        }
    }
    let names: Vec<String> = b
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
}

#[test]
fn smoke_runs_every_workload_and_prints_every_metric_once() {
    let (ok, stdout) = bench(&["--smoke"]);
    assert!(ok, "smoke run failed:\n{stdout}");
    let result = last_result(&stdout);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let seen = metric_lines(&stdout);
    let b = benchmark_json();
    for w in Workload::ALL {
        for m in listed(&b, "end_to_end") {
            assert_eq!(
                seen.get(&(w.name().to_string(), m.clone())),
                Some(&1),
                "{} {m}",
                w.name()
            );
        }
        assert_eq!(
            seen.get(&(w.name().to_string(), "failed_frac".to_string())),
            Some(&1)
        );
    }
    for (_, metric) in seen.keys() {
        assert!(
            metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{metric}"
        );
    }
}

#[test]
fn traced_smoke_reports_every_layer_and_writes_spans() {
    let (ok, stdout) = bench(&["--smoke", "--traced"]);
    assert!(ok, "traced smoke run failed:\n{stdout}");
    let seen = metric_lines(&stdout);
    let b = benchmark_json();
    for w in Workload::ALL {
        for m in listed(&b, "per_layer") {
            assert_eq!(
                seen.get(&(w.name().to_string(), m.clone())),
                Some(&1),
                "{} {m}",
                w.name()
            );
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/trace-{}.json", w.name()));
        let spans =
            json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("trace JSON");
        assert!(!spans
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events")
            .is_empty());
    }
}

/// The `sim_*` lines of one serving run at `seed`, plus its arrival digest.
fn sim_outcome(seed: &str) -> (Vec<String>, String) {
    let (ok, stdout) = bench(&["--workload", "serve-p80", "--smoke", "--seed", seed]);
    assert!(ok, "{stdout}");
    let sims = stdout
        .lines()
        .filter(|l| l.starts_with("serve-p80 sim_"))
        .map(str::to_string)
        .collect();
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# serve-p80 arrival-digest "))
        .expect("arrival digest")
        .to_string();
    (sims, digest)
}

#[test]
fn seeds_fix_the_simulated_outcome_and_move_the_arrivals() {
    let (a, da) = sim_outcome("5");
    let (b, db) = sim_outcome("5");
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, different simulated outcome");
    assert_eq!(da, db);
    let (_, dc) = sim_outcome("6");
    assert_ne!(da, dc, "a different seed must plan different arrivals");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = bench(args);
        assert!(!ok, "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
