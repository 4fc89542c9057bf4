//! The "% of oracle" campaign table.
//!
//! For each Table II scenario (one benchmark application alone on the
//! mobile SoC), `relief-oracle` computes an ahead-of-time scheduling
//! bound and every online policy's makespan is reported as a percentage
//! of it — the gap each scheduler leaves on the table. The oracle is
//! verified in-line: the winning schedule is replayed through the full
//! simulator and must reproduce the predicted makespan bit-exactly
//! (a `[replay-mismatch]` cell would flag the violation rather than
//! silently publishing a wrong bound).
//!
//! Rows are computed on `jobs` worker threads (each `solve` call is a
//! pure function of its scenario) and assembled in scenario order, so
//! stdout is byte-identical at any `--jobs` level — the same contract
//! the campaign engine gives every other table.

use crate::FAIRNESS_POLICIES;
use relief_accel::{AppSpec, SocConfig};
use relief_core::PolicyKind;
use relief_metrics::report::Table;
use relief_oracle::{solve, OracleOptions, OracleResult};
use relief_workloads::App;

/// The policies the table reports "% of oracle" for: the paper's
/// fairness set plus the adaptive extension.
pub fn reported_policies() -> Vec<PolicyKind> {
    let mut v = FAIRNESS_POLICIES.to_vec();
    v.push(PolicyKind::Adaptive);
    v
}

/// Search budget for the campaign table. Small on purpose: the online
/// incumbents already carry a sound bound, the search only tightens it,
/// and every property (dominance, bit-exact replay) holds at any budget.
pub fn campaign_options() -> OracleOptions {
    OracleOptions { beam_width: 2, max_expansions: 600 }
}

/// Solves one Table II scenario (one application alone on mobile).
pub fn solve_solo(app: App) -> OracleResult {
    let apps = vec![AppSpec::once(app.symbol(), app.dag())];
    #[allow(clippy::expect_used)] // solo closed-loop workloads are always valid
    solve(SocConfig::mobile, &apps, &campaign_options())
        .expect("solo app scenarios are closed and deterministic")
}

/// One rendered row: scenario label, oracle makespan, provenance, and
/// "% of oracle" per reported policy. Includes the in-line replay check.
fn row_for(app: App) -> Vec<String> {
    let res = solve_solo(app);
    let apps = vec![AppSpec::once(app.symbol(), app.dag())];
    let replayed = res.replay(SocConfig::mobile, &apps);
    let verified = replayed.stats.exec_time.as_ps() == res.makespan_ps;

    let mut cells = vec![
        app.symbol().to_string(),
        format!("{:.3}", res.makespan_ps as f64 / 1e9),
        if !verified {
            "[replay-mismatch]".to_string()
        } else if res.from_search {
            "search".to_string()
        } else {
            res.impersonates.name().to_string()
        },
    ];
    for policy in reported_policies() {
        let pct = res
            .percent_of_oracle(policy)
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "-".to_string());
        cells.push(pct);
    }
    cells
}

/// Renders the "% of oracle" table on `jobs` worker threads.
pub fn table_oracle(jobs: usize) -> String {
    let scenarios: Vec<App> = App::ALL.to_vec();
    let rows = parallel_rows(&scenarios, jobs.max(1));

    let mut cols = vec!["app", "oracle ms", "bound from"];
    let names: Vec<String> =
        reported_policies().iter().map(|p| format!("{} %", p.name())).collect();
    cols.extend(names.iter().map(String::as_str));
    let mut t = Table::with_columns(&cols);
    for row in rows {
        t.row(row);
    }
    format!(
        "[oracle] makespan lower bound vs online policies, Table II scenarios\n\
         (policy makespan as % of oracle; bound verified by bit-exact schedule replay)\n{}",
        t.render()
    )
}

/// Computes `row_for` over `scenarios` on up to `jobs` threads,
/// returning rows in scenario order regardless of completion order.
fn parallel_rows(scenarios: &[App], jobs: usize) -> Vec<Vec<String>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Vec<String>>>> = Mutex::new(vec![None; scenarios.len()]);
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&app) = scenarios.get(i) else { break };
        let row = row_for(app);
        #[allow(clippy::unwrap_used)] // a poisoned lock is already a test failure
        {
            out.lock().unwrap()[i] = Some(row);
        }
    };
    // One worker runs on the calling thread, as in `campaign::execute`.
    if jobs == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(scenarios.len()) {
                scope.spawn(worker);
            }
        });
    }
    #[allow(clippy::unwrap_used)] // every slot was filled by the workers above
    out.into_inner().unwrap().into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_table_is_identical_at_any_jobs_level() {
        let serial = table_oracle(1);
        let parallel = table_oracle(4);
        assert_eq!(serial, parallel, "oracle table must be byte-identical at any --jobs");
        for app in App::ALL {
            assert!(serial.contains(&format!("\n{} ", app.symbol())), "row for {app:?}");
        }
        assert!(serial.contains("RELIEF %"));
        assert!(serial.contains("ADAPTIVE %"));
        assert!(!serial.contains("[replay-mismatch]"), "bound must verify:\n{serial}");
    }
}
