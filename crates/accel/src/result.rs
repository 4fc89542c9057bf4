//! Simulation outputs beyond the generic [`RunStats`].

use relief_metrics::RunStats;
use relief_sim::Dur;
use std::collections::BTreeMap;

/// Signed relative prediction errors collected during a run (Table VIII).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictionStats {
    /// Per completed node: `(actual − predicted) / predicted` compute time
    /// (Table VIII convention: negative = overestimation).
    pub compute_rel_errors: Vec<f64>,
    /// Per completed node: `(actual − predicted) / predicted` bytes moved.
    pub dm_rel_errors: Vec<f64>,
    /// Per DRAM transfer: `(achieved − predicted) / predicted` bandwidth.
    pub bw_rel_errors: Vec<f64>,
}

impl PredictionStats {
    /// Mean signed error in percent; 0 when empty.
    pub fn mean_signed_pct(errors: &[f64]) -> f64 {
        if errors.is_empty() {
            0.0
        } else {
            100.0 * errors.iter().sum::<f64>() / errors.len() as f64
        }
    }

    /// Mean absolute error in percent; 0 when empty.
    pub fn mean_abs_pct(errors: &[f64]) -> f64 {
        if errors.is_empty() {
            0.0
        } else {
            100.0 * errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64
        }
    }
}

/// Everything one SoC simulation reports.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Figure-level statistics.
    pub stats: RunStats,
    /// Sum of DMA transfer durations per application (Table II "Mem"
    /// columns; totals without accounting for overlap, as in the paper).
    pub per_app_mem_time: BTreeMap<String, Dur>,
    /// Sum of compute durations per application (Table II "Compute").
    pub per_app_compute_time: BTreeMap<String, Dur>,
    /// Predictor accuracy samples.
    pub prediction: PredictionStats,
    /// Executed-task schedule (empty unless
    /// [`SocConfig::record_trace`](crate::SocConfig) was set).
    pub trace: crate::trace::Trace,
    /// Events dispatched (diagnostic).
    pub events_dispatched: u64,
    /// High-water mark of concurrently live DAG-instance slots
    /// (diagnostic). With instance recycling active this is the peak
    /// in-flight population — the bound a long run's memory plateaus at;
    /// in reference mode (no recycling) it equals total admissions.
    /// Campaign-cache reads report 0 (the field is host-side, not part
    /// of the simulated outcome, and is not cached).
    pub live_high_water: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_summaries() {
        let e = [0.01, -0.03, 0.02];
        assert!((PredictionStats::mean_signed_pct(&e) - 0.0).abs() < 1e-9);
        assert!((PredictionStats::mean_abs_pct(&e) - 2.0).abs() < 1e-9);
        assert_eq!(PredictionStats::mean_signed_pct(&[]), 0.0);
        assert_eq!(PredictionStats::mean_abs_pct(&[]), 0.0);
    }
}
