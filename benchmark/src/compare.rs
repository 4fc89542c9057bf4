//! `--compare PARENT.json CHANGE.json`: the regression and gain rule.
//!
//! Each file holds one JSON result per line, as `--out` appends them.
//! Untraced runs of the same workload and seed pair up across the files,
//! in file order; run the two builds alternately so neither side always
//! goes first. Per workload and end-to-end metric the report gives each
//! side's median and quartiles, the share of pairs the change wins, and a
//! verdict under the bound `BENCHMARK.json` fixes for that metric:
//!
//! * `better` — the change wins at least 9 in 10 pairs (ties count for
//!   neither) and the medians differ by more than the parent's own
//!   interquartile range; or, when the parent's spread exceeds the bound,
//!   every change run beats every parent run.
//! * `unresolved` — fewer than 10 pairs, or the parent's spread (IQR over
//!   median) exceeds the bound and the runs overlap, or the change fails
//!   more cells than the parent and would otherwise read `better`.
//! * `worse` — the change's median is worse than the parent's by more than
//!   the bound, as a share of the parent's median.
//! * `unchanged` — otherwise.

use crate::json::{self, Value};
use crate::metrics::Better;
use crate::stats::{median, quartiles};
use std::fmt::Write as _;

/// Pairs needed before any verdict other than `unresolved`.
const MIN_PAIRS: usize = 10;

/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

/// The outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rule above.
    Better,
    /// A regression beyond the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The data cannot decide.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of pairs `(parent[i], change[i])` the change wins; ties count
/// for neither side.
#[must_use]
pub fn win_share(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| improves(c, p, better))
        .count();
    wins as f64 / pairs as f64
}

fn improves(new: f64, old: f64, better: Better) -> bool {
    match better {
        Better::Lower => new < old,
        Better::Higher => new > old,
    }
}

/// Applies the rule to paired samples (`parent[i]` ran next to
/// `change[i]`).
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let (Some(pm), Some(cm), Some((q1, q3))) = (median(parent), median(change), quartiles(parent))
    else {
        return Verdict::Unresolved;
    };
    let iqr = q3 - q1;
    let gain = match better {
        Better::Lower => pm - cm,
        Better::Higher => cm - pm,
    };
    if win_share(parent, change, better) >= WIN_SHARE && gain > iqr {
        return Verdict::Better;
    }
    let scale = pm.abs();
    let spread = if scale > 0.0 {
        iqr / scale
    } else if iqr > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    if spread > bound {
        let all_better = change
            .iter()
            .all(|&c| parent.iter().all(|&p| improves(c, p, better)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if scale > 0.0 {
        -gain / scale
    } else if gain < 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// One untraced result line.
struct Record {
    workload: String,
    seed: f64,
    failed: f64,
    metrics: Value,
}

fn records(text: &str, origin: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{origin}:{}: {e}", i + 1))?;
        if v.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{origin}:{}: missing \"{k}\"", i + 1))
        };
        out.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or(f64::NAN),
            failed: field("failed")?.as_f64().unwrap_or(0.0),
            metrics: field("metrics")?.clone(),
        });
    }
    Ok(out)
}

/// An end-to-end metric and its bound, as `BENCHMARK.json` lists them.
struct Bounded {
    name: String,
    better: Better,
    bound: f64,
}

fn bounds(bench: &Value) -> Result<Vec<Bounded>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: \"better\" must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok(Bounded {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Reads the three files and renders the comparison table.
///
/// # Errors
///
/// Returns a message when a file is unreadable or malformed.
pub fn compare_files(bench_json: &str, parent: &str, change: &str) -> Result<String, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bench = json::parse(&read(bench_json)?).map_err(|e| format!("{bench_json}: {e}"))?;
    let parent = records(&read(parent)?, parent)?;
    let change = records(&read(change)?, change)?;
    Ok(render(&bounds(&bench)?, &parent, &change))
}

fn render(bounds: &[Bounded], parent: &[Record], change: &[Record]) -> String {
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<18} {:>12} {:>25} {:>12} {:>25} {:>6} {:>5}  verdict",
        "workload",
        "metric",
        "parent p50",
        "parent [q1, q3]",
        "change p50",
        "change [q1, q3]",
        "wins",
        "pairs"
    );
    for w in workloads {
        // Pair by seed, in file order.
        let mut used = vec![false; change.len()];
        let mut pairs: Vec<(&Record, &Record)> = Vec::new();
        for p in parent.iter().filter(|r| r.workload == w) {
            let hit = change
                .iter()
                .enumerate()
                .find(|(j, c)| !used[*j] && c.workload == w && c.seed == p.seed);
            if let Some((j, c)) = hit {
                used[j] = true;
                pairs.push((p, c));
            }
        }
        let more_failures = pairs.iter().map(|(_, c)| c.failed).sum::<f64>()
            > pairs.iter().map(|(p, _)| p.failed).sum::<f64>();
        for b in bounds {
            let value = |r: &Record| {
                r.metrics
                    .get(&b.name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            let (p, c): (Vec<f64>, Vec<f64>) = pairs
                .iter()
                .filter_map(|(p, c)| Some((value(p)?, value(c)?)))
                .unzip();
            let mut v = verdict(&p, &c, b.better, b.bound);
            if v == Verdict::Better && more_failures {
                v = Verdict::Unresolved;
            }
            let summary = |s: &[f64]| {
                let (q1, q3) = quartiles(s).unwrap_or((f64::NAN, f64::NAN));
                (median(s).unwrap_or(f64::NAN), format!("[{q1:.4}, {q3:.4}]"))
            };
            let (pm, pq) = summary(&p);
            let (cm, cq) = summary(&c);
            let _ = writeln!(
                out,
                "{w:<15} {:<18} {pm:>12.4} {pq:>25} {cm:>12.4} {cq:>25} {:>6.2} {:>5}  {}",
                b.name,
                win_share(&p, &c, b.better),
                p.len(),
                v.as_str()
            );
        }
        if more_failures {
            let _ = writeln!(out, "{w:<15} the change fails more cells than the parent");
        }
    }
    out
}
