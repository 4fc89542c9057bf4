//! The repository benchmark: six pinned workloads, host-time and
//! simulated end-to-end metrics, and a traced run that attributes host
//! time and simulated waits to layers. `README.md` next to this crate
//! documents every workload and metric.

pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod workloads;

use run::{RunOptions, RunReport};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, Stdio};
use workloads::Workload;

/// Timed length of each workload under `--smoke`, seconds.
pub const SMOKE_SECONDS: f64 = 0.3;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// One workload, or all six (each in a child process).
    pub workload: Option<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// Timed length override, seconds.
    pub seconds: Option<f64>,
    /// Traced run.
    pub trace: bool,
    /// Minimal run for tests.
    pub smoke: bool,
    /// File each result is appended to, one JSON object per line.
    pub out: Option<String>,
    /// `(parent, change)` result files to compare instead of running.
    pub compare: Option<(String, String)>,
}

const USAGE: &str = "usage: relief-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] \
                     [--smoke] [--out FILE]\n       relief-benchmark --compare PARENT.json CHANGE.json";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a usage message on an unknown flag or a malformed value.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                cli.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                cli.seed = parsed.map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got '{v}'"
                    ));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                };
            }
            "--traced" => cli.trace = true,
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value("--out")?),
            "--compare" => {
                let parent = value("--compare")?;
                cli.compare = Some((parent, value("--compare")?));
            }
            other => return Err(format!("unknown option '{other}'\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Runs the command line; returns the process exit code (0 when every
/// output check passed, 1 when one failed, 2 on a usage error).
#[must_use]
pub fn main_with(args: impl IntoIterator<Item = String>) -> i32 {
    let cli = match parse_args(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Some((parent, change)) = &cli.compare {
        let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        return match compare::compare_files(bench, parent, change) {
            Ok(table) => {
                print!("{table}");
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        };
    }
    match cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_all(&cli),
    }
}

fn run_one(cli: &Cli, workload: Workload) -> i32 {
    let seconds = match (cli.seconds, cli.smoke) {
        (Some(s), _) => s,
        (None, true) => SMOKE_SECONDS,
        (None, false) => workload.default_seconds(),
    };
    let report = run::run(&RunOptions {
        workload,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    });
    for p in &report.problems {
        eprintln!("{} check failed: {p}", workload.name());
    }
    print!("{}", text_lines(&report));
    if let Some(path) = &cli.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record_json(&report)));
        if let Err(e) = appended {
            eprintln!("error: appending to {path}: {e}");
            return 1;
        }
    }
    println!(
        "{}",
        result_json(
            report.correct(),
            report.attempted,
            report.failed,
            &metric_members(&report)
        )
    );
    i32::from(!report.correct())
}

/// Runs every workload in its own child process, so each one's peak
/// resident set is its own, then prints one combined result line.
fn run_all(cli: &Cli) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating the benchmark binary: {e}");
            return 1;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut members = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &cli.seed.to_string()]);
        cmd.args(["--trace", if cli.trace { "1" } else { "0" }]);
        if let Some(s) = cli.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if cli.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &cli.out {
            cmd.args(["--out", out]);
        }
        let result = cmd.stdout(Stdio::piped()).spawn().and_then(|mut child| {
            let mut last = None;
            if let Some(stdout) = child.stdout.take() {
                for line in BufReader::new(stdout).lines() {
                    let line = line?;
                    if let Some(prev) = last.replace(line) {
                        println!("{prev}");
                    }
                }
            }
            child.wait().map(|status| (status, last))
        });
        let parsed = match result {
            Ok((status, Some(line))) => json::parse(&line)
                .ok()
                .filter(|_| status.success() || status.code() == Some(1)),
            _ => None,
        };
        let Some(v) = parsed else {
            eprintln!("{} produced no result", w.name());
            correct = false;
            failed += 1;
            continue;
        };
        correct &= v.get("correct") == Some(&json::Value::Bool(true));
        attempted += v
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        failed += v.get("failed").and_then(json::Value::as_f64).unwrap_or(1.0) as u64;
        for (name, m) in v
            .get("metrics")
            .and_then(json::Value::as_object)
            .unwrap_or_default()
        {
            let value = m
                .get("value")
                .and_then(json::Value::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(json::Value::as_str)
                .unwrap_or_default();
            members.push((format!("{}/{name}", w.name()), value, unit.to_string()));
        }
    }
    println!("{}", result_json(correct, attempted, failed, &members));
    i32::from(!correct)
}

fn metric_members(report: &RunReport) -> Vec<(String, f64, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are already counted as failures; JSON has no
        // spelling for them.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        );
    }
    out.push('}');
    out
}

/// The `--out` record: the result line plus what `--compare` pairs on.
fn record_json(report: &RunReport) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"passes\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"arrival_digest\": {}, \"metrics\": {}}}",
        json::quote(report.workload.name()),
        report.seed,
        report.traced,
        report.passes,
        report.correct(),
        report.attempted,
        report.failed,
        report.arrival_digest.map_or_else(|| "null".to_string(), |d| json::quote(&format!("{d:016x}"))),
        metrics_json(&metric_members(report)),
    )
}

/// One `<workload> <metric> <value> <unit>` line per metric, plus the
/// pass-time tail when at least 100 passes ran, the pass count, the
/// failed share, and the arrival digest.
#[must_use]
fn text_lines(report: &RunReport) -> String {
    let w = report.workload.name();
    let mut out = String::new();
    for m in &report.metrics {
        let _ = writeln!(out, "{w} {} {} {}", m.name, m.value, m.unit);
    }
    if let Some(p90) = report.pass_ms_p90 {
        let _ = writeln!(out, "{w} pass_ms_p90 {p90} ms");
    }
    let _ = writeln!(out, "{w} passes {} count", report.passes);
    let _ = writeln!(
        out,
        "{w} failed_frac {} ratio",
        report.failed as f64 / report.attempted.max(1) as f64
    );
    if let Some(d) = report.arrival_digest {
        let _ = writeln!(out, "# {w} arrival-digest {d:016x}");
    }
    if let Some(path) = &report.trace_file {
        let _ = writeln!(out, "# {w} trace {}", path.display());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_accepts_both_flag_styles() {
        let cli = parse_args(args(&[
            "--workload",
            "serve-p80",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload, Some(Workload::ServeP80));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (3, Some(10.0), true));
        let cli = parse_args(args(&[
            "--traced", "--smoke", "--seed", "0x10", "--out", "r.json",
        ]))
        .unwrap();
        assert!(cli.trace && cli.smoke);
        assert_eq!((cli.seed, cli.out.as_deref()), (16, Some("r.json")));
        for bad in [
            &["--workload", "x"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--frob"],
            &["--seed"],
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("a.b".into(), 1.5, "ms".into())]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().get("a.b").unwrap().get("value"),
            Some(&json::Value::Num(1.5))
        );
    }
}
