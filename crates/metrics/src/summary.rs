//! Aggregation math for experiment summaries.
//!
//! The paper reports geometric means across application mixes and
//! mean/variance statistics for fairness; these helpers implement those
//! reductions with explicit edge-case behavior.

use crate::stats::{RunStats, TrafficStats};

/// Stable-order aggregate over many runs' statistics.
///
/// Integer fields are exact sums, so they are independent of aggregation
/// order; the floating-point geometric mean is folded in *iteration
/// order*, which is why campaign consumers must feed runs in stable spec
/// order — that makes the aggregate byte-identical across reruns
/// regardless of how many worker threads produced the inputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Number of runs folded in.
    pub runs: usize,
    /// Summed traffic over all runs.
    pub traffic: TrafficStats,
    /// Total input edges across runs.
    pub edges_total: u64,
    /// Input edges served by forwarding.
    pub forwards: u64,
    /// Input edges served by colocation.
    pub colocations: u64,
    /// Nodes completed across runs.
    pub nodes_completed: u64,
    /// Node deadlines met across runs.
    pub node_deadlines_met: u64,
    /// DAG instances completed across runs.
    pub dags_completed: u64,
    /// DAG deadlines met across runs.
    pub dag_deadlines_met: u64,
    /// Geometric mean of per-run execution times, in µs.
    pub gmean_exec_us: f64,
}

impl Aggregate {
    /// Percent of nodes that met their deadline; 0 when nothing completed.
    pub fn node_deadline_percent(&self) -> f64 {
        if self.nodes_completed == 0 {
            0.0
        } else {
            100.0 * self.node_deadlines_met as f64 / self.nodes_completed as f64
        }
    }

    /// Percent of edges served by forwarding or colocation.
    pub fn forward_percent(&self) -> f64 {
        if self.edges_total == 0 {
            0.0
        } else {
            100.0 * (self.forwards + self.colocations) as f64 / self.edges_total as f64
        }
    }
}

/// Folds per-run statistics into an [`Aggregate`], in iteration order.
pub fn aggregate<'a>(stats: impl IntoIterator<Item = &'a RunStats>) -> Aggregate {
    let mut agg = Aggregate::default();
    let mut exec_us = Vec::new();
    for s in stats {
        agg.runs += 1;
        agg.traffic.merge(&s.traffic);
        agg.edges_total += s.edges_total;
        agg.forwards += s.forwards();
        agg.colocations += s.colocations();
        for a in s.apps.values() {
            agg.nodes_completed += a.nodes_completed;
            agg.node_deadlines_met += a.node_deadlines_met;
            agg.dags_completed += a.dags_completed;
            agg.dag_deadlines_met += a.dag_deadlines_met;
        }
        exec_us.push(s.exec_time.as_us_f64());
    }
    agg.gmean_exec_us = geometric_mean(exec_us.into_iter());
    agg
}

/// Geometric mean of a sequence of positive values.
///
/// Values ≤ 0 are clamped to a small epsilon (the paper's gmean columns do
/// the equivalent when a policy achieves zero forwards in a mix). Returns
/// 0.0 for an empty sequence.
pub fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    const EPS: f64 = 1e-9;
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.max(EPS).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean; 0.0 for an empty sequence.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance; 0.0 for sequences shorter than 2.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((geometric_mean([4.0, 9.0].into_iter()) - 6.0).abs() < 1e-12);
        assert_eq!(geometric_mean(std::iter::empty()), 0.0);
        // A zero is clamped rather than zeroing the whole mean.
        assert!(geometric_mean([0.0, 100.0].into_iter()) > 0.0);
    }

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn aggregate_sums_and_gmeans() {
        use crate::stats::AppStats;
        let mk = |exec_us: u64, nodes: u64, met: u64| {
            let mut s = RunStats {
                exec_time: relief_sim::Dur::from_us(exec_us),
                edges_total: 10,
                traffic: crate::stats::TrafficStats {
                    dram_read_bytes: 100,
                    ..Default::default()
                },
                ..Default::default()
            };
            s.apps.insert(
                "A".into(),
                AppStats {
                    name: "A".into(),
                    nodes_completed: nodes,
                    node_deadlines_met: met,
                    dags_completed: 1,
                    dag_deadlines_met: 1,
                    forwards: 2,
                    ..AppStats::default()
                },
            );
            s
        };
        let runs = [mk(4, 5, 5), mk(9, 5, 0)];
        let agg = aggregate(runs.iter());
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.edges_total, 20);
        assert_eq!(agg.forwards, 4);
        assert_eq!(agg.traffic.dram_read_bytes, 200);
        assert_eq!(agg.nodes_completed, 10);
        assert_eq!(agg.node_deadline_percent(), 50.0);
        assert_eq!(agg.forward_percent(), 20.0);
        assert!((agg.gmean_exec_us - 6.0).abs() < 1e-12);
        assert_eq!(aggregate([].into_iter()), Aggregate::default());
    }
}
