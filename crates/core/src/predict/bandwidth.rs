//! Memory-bandwidth predictors (§III-B, after Duesterwald et al.).

use std::collections::VecDeque;

/// Predicts the DRAM bandwidth the next task will achieve, in
/// bytes/second.
///
/// Four schemes from the paper:
///
/// * **Max** — assume the full (effective) channel bandwidth; the paper's
///   default since Observation 8 shows accuracy barely matters.
/// * **Last** — last observed value.
/// * **Average** — arithmetic mean of the last `n` observations (the paper
///   uses n = 15).
/// * **EWMA** — `pred = α·bw + (1−α)·pred` (Eq. 3; the paper uses α = 0.25).
///
/// All schemes fall back to the configured maximum until the first
/// observation arrives.
#[derive(Debug, Clone)]
pub enum BandwidthPredictor {
    /// Always the configured maximum.
    Max {
        /// Peak effective bandwidth, bytes/second.
        max: u64,
    },
    /// Last observed bandwidth.
    Last {
        /// Peak effective bandwidth (fallback), bytes/second.
        max: u64,
        /// Most recent observation.
        last: Option<f64>,
    },
    /// Mean of the most recent `n` observations.
    Average {
        /// Peak effective bandwidth (fallback), bytes/second.
        max: u64,
        /// Window size.
        n: usize,
        /// Recent observations, newest at the back.
        window: VecDeque<f64>,
    },
    /// Exponentially weighted moving average.
    Ewma {
        /// Peak effective bandwidth (fallback), bytes/second.
        max: u64,
        /// Weight of the newest observation.
        alpha: f64,
        /// Current estimate.
        pred: Option<f64>,
    },
}

impl BandwidthPredictor {
    /// Max scheme.
    pub fn max(max: u64) -> Self {
        BandwidthPredictor::Max { max }
    }

    /// Last-value scheme.
    pub fn last(max: u64) -> Self {
        BandwidthPredictor::Last { max, last: None }
    }

    /// Average-of-`n` scheme.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn average(max: u64, n: usize) -> Self {
        assert!(n > 0, "window size must be positive");
        BandwidthPredictor::Average { max, n, window: VecDeque::with_capacity(n) }
    }

    /// EWMA scheme (Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn ewma(max: u64, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        BandwidthPredictor::Ewma { max, alpha, pred: None }
    }

    /// Records an achieved-bandwidth sample (bytes/second). Non-finite or
    /// non-positive samples are ignored.
    pub fn observe(&mut self, bytes_per_sec: f64) {
        if !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
            return;
        }
        match self {
            BandwidthPredictor::Max { .. } => {}
            BandwidthPredictor::Last { last, .. } => *last = Some(bytes_per_sec),
            BandwidthPredictor::Average { n, window, .. } => {
                if window.len() == *n {
                    window.pop_front();
                }
                window.push_back(bytes_per_sec);
            }
            BandwidthPredictor::Ewma { alpha, pred, .. } => {
                *pred = Some(match *pred {
                    None => bytes_per_sec,
                    Some(p) => *alpha * bytes_per_sec + (1.0 - *alpha) * p,
                });
            }
        }
    }

    /// Current prediction, bytes/second.
    pub fn predict(&self) -> f64 {
        match self {
            BandwidthPredictor::Max { max } => *max as f64,
            BandwidthPredictor::Last { max, last } => last.unwrap_or(*max as f64),
            BandwidthPredictor::Average { max, window, .. } => {
                if window.is_empty() {
                    *max as f64
                } else {
                    window.iter().sum::<f64>() / window.len() as f64
                }
            }
            BandwidthPredictor::Ewma { max, pred, .. } => pred.unwrap_or(*max as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: u64 = 6_458_000_000;

    #[test]
    fn max_never_changes() {
        let mut p = BandwidthPredictor::max(MAX);
        p.observe(1.0);
        assert_eq!(p.predict(), MAX as f64);
    }

    #[test]
    fn last_tracks_latest() {
        let mut p = BandwidthPredictor::last(MAX);
        assert_eq!(p.predict(), MAX as f64);
        p.observe(100.0);
        p.observe(200.0);
        assert_eq!(p.predict(), 200.0);
    }

    #[test]
    fn average_windows() {
        let mut p = BandwidthPredictor::average(MAX, 3);
        p.observe(10.0);
        p.observe(20.0);
        assert_eq!(p.predict(), 15.0);
        p.observe(30.0);
        p.observe(40.0); // evicts 10.0
        assert_eq!(p.predict(), 30.0);
    }

    #[test]
    fn ewma_follows_eq3() {
        let mut p = BandwidthPredictor::ewma(MAX, 0.25);
        p.observe(100.0);
        assert_eq!(p.predict(), 100.0);
        p.observe(200.0);
        // 0.25*200 + 0.75*100 = 125.
        assert_eq!(p.predict(), 125.0);
    }

    #[test]
    fn bad_samples_ignored() {
        let mut p = BandwidthPredictor::last(MAX);
        p.observe(f64::NAN);
        p.observe(-5.0);
        p.observe(0.0);
        assert_eq!(p.predict(), MAX as f64);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn alpha_validated() {
        BandwidthPredictor::ewma(MAX, 0.0);
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn window_validated() {
        BandwidthPredictor::average(MAX, 0);
    }
}
