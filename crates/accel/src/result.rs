//! Simulation outputs beyond the generic [`RunStats`].

use relief_metrics::RunStats;
use relief_sim::Dur;
use std::collections::BTreeMap;

/// A running sum of signed relative prediction errors: how many samples
/// were added and their sum. Samples add in the order they are reported,
/// starting from `-0.0` as `Iterator::sum` does, so the sum is bit for
/// bit the sum of the same samples held in a vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSum {
    /// Samples added.
    pub count: u64,
    /// Their sum, in the order added.
    pub sum: f64,
}

impl Default for ErrorSum {
    /// The empty sum. Its `-0.0` is the identity `Iterator::sum` folds
    /// from; a derived default would give `+0.0`, which differs from it
    /// once every sample is `-0.0`.
    fn default() -> Self {
        ErrorSum { count: 0, sum: -0.0 }
    }
}

impl ErrorSum {
    /// Adds one sample.
    pub(crate) fn add(&mut self, error: f64) {
        self.count += 1;
        self.sum += error;
    }

    /// Mean signed error in percent; 0 when empty.
    pub fn mean_signed_pct(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            100.0 * self.sum / self.count as f64
        }
    }
}

/// Signed relative prediction errors collected during a run (Table VIII),
/// each series kept as its running [`ErrorSum`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictionStats {
    /// Per completed node: `(actual − predicted) / predicted` compute time
    /// (Table VIII convention: negative = overestimation), in completion
    /// order.
    pub compute_rel_errors: ErrorSum,
    /// Per completed node: `(actual − predicted) / predicted` bytes moved,
    /// in admission order of the node's DAG instance, then node order.
    pub dm_rel_errors: ErrorSum,
    /// Per DRAM transfer: `(achieved − predicted) / predicted` bandwidth,
    /// in completion order.
    pub bw_rel_errors: ErrorSum,
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
    /// (diagnostic): the peak in-flight population, since retired
    /// instances' slots are recycled — the bound a long run's memory
    /// plateaus at.
    /// Campaign-cache reads report 0 (the field is host-side, not part
    /// of the simulated outcome, and is not cached).
    pub live_high_water: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_sim::SplitMix64;

    fn sum_of(samples: &[f64]) -> ErrorSum {
        let mut sum = ErrorSum::default();
        for &e in samples {
            sum.add(e);
        }
        sum
    }

    #[test]
    fn mean_signed_pct() {
        let s = sum_of(&[0.01, -0.03, 0.02]);
        assert!(s.mean_signed_pct().abs() < 1e-9);
        assert!((sum_of(&[0.01, 0.03]).mean_signed_pct() - 2.0).abs() < 1e-9);
        assert_eq!(ErrorSum::default().mean_signed_pct(), 0.0);
    }

    #[test]
    fn the_empty_sum_is_negative_zero() {
        let empty = ErrorSum::default();
        assert_eq!((empty.count, empty.sum.to_bits()), (0, (-0.0f64).to_bits()));
        assert_eq!(empty.sum.to_bits(), [0.0f64; 0].iter().sum::<f64>().to_bits());
    }

    /// The running sum is `Iterator::sum` over the same samples, bit for
    /// bit: all-zero series of either sign, and random series mixing
    /// magnitudes from 1e-300 to 1e16 of both signs with zeros, where the
    /// rounding of each addition depends on everything added before it.
    #[test]
    fn running_sums_equal_iterator_sums_bit_for_bit() {
        let mut series: Vec<Vec<f64>> =
            vec![vec![], vec![-0.0], vec![0.0], vec![-0.0, -0.0], vec![-0.0, 0.0, -0.0]];
        let mut rng = SplitMix64::new(0x5E_55AD);
        for _ in 0..500 {
            let n = rng.usize_below(40);
            series.push(
                (0..n)
                    .map(|_| match rng.u32_below(8) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => {
                            let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
                            let exponent = rng.u64_inclusive(0, 316) as i32 - 300;
                            sign * (1.0 + 9.0 * rng.f64_unit()) * 10f64.powi(exponent)
                        }
                    })
                    .collect(),
            );
        }
        for samples in &series {
            let s = sum_of(samples);
            let expected = samples.iter().sum::<f64>();
            assert_eq!(s.count, samples.len() as u64, "{samples:?}");
            assert_eq!(s.sum.to_bits(), expected.to_bits(), "{samples:?}");
        }
    }
}
