//! Shared experiment-runner infrastructure for the paper's tables and
//! figures.
//!
//! `all_experiments` regenerates every artifact of the paper's evaluation
//! (see DESIGN.md §5 for the full index) and the other binaries in
//! `src/bin/` run the extension campaigns; this library holds the common
//! plumbing: running a policy over a mix, sweeping contention levels, and
//! aggregating geometric means the way the figures do.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]


use relief_accel::{SimResult, SocConfig, SocSim};
use relief_core::PolicyKind;
use relief_metrics::summary::geometric_mean;
use relief_workloads::{Contention, Mix, CONTINUOUS_TIME_LIMIT};

/// The six policies of the paper's main comparison, in figure order.
pub const MAIN_POLICIES: [PolicyKind; 6] = PolicyKind::MAIN;

/// The eight policies of the fairness study (Figs. 9–10, Table VII).
pub const FAIRNESS_POLICIES: [PolicyKind; 8] = PolicyKind::ALL;

/// Builds the SoC configuration for one (policy, contention) cell:
/// the Table VI mobile platform, with the 50 ms cap under continuous
/// contention.
pub fn config_for(policy: PolicyKind, contention: Contention) -> SocConfig {
    let cfg = SocConfig::mobile(policy);
    if contention == Contention::Continuous {
        cfg.with_time_limit(CONTINUOUS_TIME_LIMIT)
    } else {
        cfg
    }
}

/// Runs one mix under one policy on the default platform.
pub fn run_mix(policy: PolicyKind, contention: Contention, mix: &Mix) -> SimResult {
    run_mix_with(config_for(policy, contention), mix)
}

/// Runs one mix with an explicit configuration.
pub fn run_mix_with(cfg: SocConfig, mix: &Mix) -> SimResult {
    SocSim::new(cfg, mix.workload()).run()
}

/// One (mix label, per-policy values) row plus a geometric-mean footer —
/// the shape of most of the paper's grouped bar charts.
#[derive(Debug, Clone)]
pub struct PolicySweep {
    /// Policies, in column order.
    pub policies: Vec<PolicyKind>,
    /// `(mix label, value per policy)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl PolicySweep {
    /// Runs `metric` for every (mix, policy) pair of a contention level,
    /// simulating every cell inline.
    pub fn collect(
        contention: Contention,
        policies: &[PolicyKind],
        metric: impl FnMut(&SimResult) -> f64,
    ) -> Self {
        Self::collect_with(&campaign::Ctx::empty(), contention, policies, metric)
    }

    /// Like [`PolicySweep::collect`], but answers each cell from `ctx` —
    /// a campaign-prewarmed context returns cached results, an empty one
    /// falls back to inline simulation with identical output.
    pub fn collect_with(
        ctx: &campaign::Ctx,
        contention: Contention,
        policies: &[PolicyKind],
        mut metric: impl FnMut(&SimResult) -> f64,
    ) -> Self {
        let mut rows = Vec::new();
        for mix in contention.mixes() {
            let values = policies
                .iter()
                .map(|&p| metric(&ctx.run(&experiments::grid::mix_run(p, contention, &mix))))
                .collect();
            rows.push((mix.label(), values));
        }
        PolicySweep { policies: policies.to_vec(), rows }
    }

    /// Geometric mean down each policy column (the figures' `Gmean` group).
    pub fn gmeans(&self) -> Vec<f64> {
        (0..self.policies.len())
            .map(|i| geometric_mean(self.rows.iter().map(|(_, v)| v[i])))
            .collect()
    }

    /// Renders the sweep as a table with a Gmean footer.
    pub fn render(&self, value_header: &str, precision: usize) -> String {
        let mut cols = vec!["mix".to_string()];
        cols.extend(self.policies.iter().map(|p| p.name().to_string()));
        let mut t = relief_metrics::report::Table::new(cols);
        for (label, values) in &self.rows {
            t.num_row(label, values, precision);
        }
        t.num_row("Gmean", &self.gmeans(), precision);
        format!("[{value_header}]\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_for_continuous_sets_time_limit() {
        let c = config_for(PolicyKind::Relief, Contention::Continuous);
        assert_eq!(c.time_limit, Some(relief_sim::Time::from_ms(50)));
        assert!(config_for(PolicyKind::Relief, Contention::High).time_limit.is_none());
    }

    #[test]
    fn sweep_shapes() {
        // A tiny sweep over low contention with a constant metric.
        let sweep =
            PolicySweep::collect(Contention::Low, &[PolicyKind::Fcfs], |r| {
                r.stats.apps.len() as f64
            });
        assert_eq!(sweep.rows.len(), 5);
        assert_eq!(sweep.gmeans(), vec![1.0]);
        let rendered = sweep.render("apps", 1);
        assert!(rendered.contains("Gmean"));
        assert!(rendered.contains("FCFS"));
    }
}
pub mod cache;
pub mod campaign;
pub mod chaos;
pub mod experiments;
pub mod oracle;
pub mod resilience;
pub mod service;
pub mod traceio;
