//! Shared experiment-runner infrastructure for the paper's tables and
//! figures.
//!
//! The `relief-bench` binary (`src/main.rs`) is one front door with a
//! command per study: `relief-bench all_experiments` regenerates every
//! artifact of the paper's evaluation (see DESIGN.md §5 for the full
//! index) and the other commands run the extension studies and campaigns.
//! Every command simulates through one path, the [`campaign`] engine, and
//! renders from its results. This library holds the common plumbing: that
//! engine and its cache, sweeping contention levels, aggregating geometric
//! means the way the figures do, and the [`cli`] argument walker every
//! command parses with.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use relief_accel::SimResult;
use relief_core::PolicyKind;
use relief_metrics::summary::geometric_mean;
use relief_workloads::Contention;

/// The six policies of the paper's main comparison, in figure order.
pub const MAIN_POLICIES: [PolicyKind; 6] = PolicyKind::MAIN;

/// The eight policies of the fairness study (Figs. 9–10, Table VII).
pub const FAIRNESS_POLICIES: [PolicyKind; 8] = PolicyKind::ALL;

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
    /// Reads `metric` for every (mix, policy) pair of a contention level
    /// from `ctx`, whose results must hold each such
    /// [`mix_run`](experiments::grid::mix_run) cell.
    pub fn collect(
        ctx: &campaign::Ctx,
        contention: Contention,
        policies: &[PolicyKind],
        mut metric: impl FnMut(&SimResult) -> f64,
    ) -> Self {
        let mut rows = Vec::new();
        for mix in contention.mixes() {
            let values = policies
                .iter()
                .map(|&p| metric(ctx.run(&experiments::grid::mix_run(p, contention, &mix))))
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
        self.render_with_footer(value_header, precision, "Gmean", &self.gmeans())
    }

    /// Renders the sweep as a table ending in a `footer_label` row.
    pub(crate) fn render_with_footer(
        &self,
        value_header: &str,
        precision: usize,
        footer_label: &str,
        footer: &[f64],
    ) -> String {
        let mut cols = vec!["mix".to_string()];
        cols.extend(self.policies.iter().map(|p| p.name().to_string()));
        let mut t = relief_metrics::report::Table::new(cols);
        for (label, values) in &self.rows {
            t.num_row(label, values, precision);
        }
        t.num_row(footer_label, footer, precision);
        format!("[{value_header}]\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes() {
        // A tiny sweep over low contention with a constant metric.
        let specs = Contention::Low
            .mixes()
            .iter()
            .map(|mix| experiments::grid::mix_run(PolicyKind::Fcfs, Contention::Low, mix))
            .collect();
        let results = campaign::execute(specs, &campaign::ExecOptions::default());
        let ctx = campaign::Ctx::from_results(&results);
        let sweep = PolicySweep::collect(&ctx, Contention::Low, &[PolicyKind::Fcfs], |r| {
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
pub mod cli;
pub mod experiments;
pub mod oracle;
pub mod resilience;
pub mod service;
pub mod studies;
pub mod traceio;
