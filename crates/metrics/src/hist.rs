//! Fixed-bin latency histogram with an overflow bucket.
//!
//! The service mode records one latency sample per completed node and one
//! sojourn sample per completed DAG instance under sustained load — far
//! too many to keep raw like `AppStats::dag_runtimes` does for closed
//! runs. A [`Histogram`] keeps O(bins) state with deterministic quantile
//! estimates: fixed-width picosecond bins plus one overflow bucket that
//! tracks its own maximum, so p999 stays meaningful even when the tail
//! escapes the binned range.
//!
//! Merging is exact and associative (bins add element-wise), which is what
//! lets the campaign engine collect per-worker results in spec order and
//! still render byte-identical tables at any `--jobs` level.

use std::fmt;

/// A fixed-bin histogram over `u64` picosecond samples.
///
/// Bin `i` covers `[i * bin_width_ps, (i + 1) * bin_width_ps)`; samples at
/// or past `bins * bin_width_ps` land in the overflow bucket. The
/// [`Default`] histogram is *unconfigured* (zero bins): it still counts,
/// sums and tracks the maximum — every sample simply overflows — and it
/// adopts the other side's layout on [`merge`](Histogram::merge).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Width of each bin, picoseconds (0 = unconfigured).
    bin_width_ps: u64,
    /// Per-bin sample counts.
    counts: Vec<u64>,
    /// Samples past the last bin.
    overflow: u64,
    /// Total samples recorded.
    total: u64,
    /// Saturating sum of all samples (for the mean).
    sum_ps: u64,
    /// Largest sample seen.
    max_ps: u64,
}

/// Compact `Debug`: histograms live inside `RunStats`, whose `{:?}`
/// rendering is campaign stdout — a 600-element bin dump would swamp it.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("p50", &self.quantile_ps(0.50))
            .field("p99", &self.quantile_ps(0.99))
            .field("p999", &self.quantile_ps(0.999))
            .field("max_ps", &self.max_ps)
            .field("overflow", &self.overflow)
            .finish()
    }
}

impl Histogram {
    /// A histogram of `bins` buckets of `bin_width_ps` each. Zero values
    /// for either produce the unconfigured (all-overflow) layout.
    #[must_use]
    pub fn new(bin_width_ps: u64, bins: usize) -> Self {
        if bin_width_ps == 0 || bins == 0 {
            return Histogram::default();
        }
        Histogram { bin_width_ps, counts: vec![0; bins], ..Histogram::default() }
    }

    /// Records one sample.
    pub fn record(&mut self, sample_ps: u64) {
        self.total += 1;
        self.sum_ps = self.sum_ps.saturating_add(sample_ps);
        self.max_ps = self.max_ps.max(sample_ps);
        if self.bin_width_ps == 0 {
            self.overflow += 1;
            return;
        }
        let bin = (sample_ps / self.bin_width_ps) as usize;
        match self.counts.get_mut(bin) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples that fell past the binned range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Largest recorded sample; 0 when empty.
    #[must_use]
    pub fn max_ps(&self) -> u64 {
        self.max_ps
    }

    /// Mean sample, picoseconds; `None` when empty.
    #[must_use]
    pub fn mean_ps(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum_ps as f64 / self.total as f64)
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), picoseconds, by linear
    /// interpolation inside the covering bin; `None` when empty.
    ///
    /// The rank is `ceil(q · total)` clamped to `[1, total]`. When the
    /// rank lands in the overflow bucket the estimate is the tracked
    /// maximum — a deliberate overestimate that keeps tail quantiles
    /// monotone instead of silently capping at the binned range.
    #[must_use]
    pub fn quantile_ps(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= cum + c {
                let lo = i as u64 * self.bin_width_ps;
                let within = (rank - cum) as f64 / c as f64;
                return Some(lo + (self.bin_width_ps as f64 * within) as u64);
            }
            cum += c;
        }
        Some(self.max_ps)
    }

    /// Merges another histogram's samples into this one, exactly.
    ///
    /// An unconfigured side adopts the other's layout, so `Default` is the
    /// merge identity; equal layouts add bin-wise, which makes the
    /// operation associative — the property parallel collection relies on.
    ///
    /// # Panics
    ///
    /// When both histograms are configured with different layouts
    /// (bin width or bin count): merging those would silently rebin.
    pub fn merge(&mut self, other: &Histogram) {
        if other.bin_width_ps != 0 {
            if self.bin_width_ps == 0 {
                // Adopt the configured layout; our existing samples (if
                // any) were all overflow and stay that way.
                self.bin_width_ps = other.bin_width_ps;
                self.counts = vec![0; other.counts.len()];
            }
            assert_eq!(
                (self.bin_width_ps, self.counts.len()),
                (other.bin_width_ps, other.counts.len()),
                "histogram layouts must match to merge"
            );
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum_ps = self.sum_ps.saturating_add(other.sum_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }

    /// Decomposes the histogram into its raw fields, in declaration
    /// order: `(bin_width_ps, counts, overflow, total, sum_ps, max_ps)`.
    /// Paired with [`from_parts`](Histogram::from_parts) so external
    /// serializers (the persistent campaign cache) can round-trip a
    /// histogram exactly without the fields being public.
    #[must_use]
    pub fn to_parts(&self) -> (u64, &[u64], u64, u64, u64, u64) {
        (self.bin_width_ps, &self.counts, self.overflow, self.total, self.sum_ps, self.max_ps)
    }

    /// Reassembles a histogram from [`to_parts`](Histogram::to_parts)
    /// output. The parts are adopted verbatim — round-tripping is exact,
    /// including the unconfigured (zero-width) layout.
    #[must_use]
    pub fn from_parts(
        bin_width_ps: u64,
        counts: Vec<u64>,
        overflow: u64,
        total: u64,
        sum_ps: u64,
        max_ps: u64,
    ) -> Self {
        Histogram { bin_width_ps, counts, overflow, total, sum_ps, max_ps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new(100, 10);
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new(100, 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ps(0.5), None);
        assert_eq!(h.mean_ps(), None);
        assert_eq!(h.max_ps(), 0);
    }

    #[test]
    fn quantile_interpolates_at_bin_edges() {
        // 4 samples in bin [100, 200): ranks 1..4 split the bin in
        // quarters, and rank 4 (q=1.0) lands exactly on the upper edge.
        let h = filled(&[150, 150, 150, 150]);
        assert_eq!(h.quantile_ps(0.25), Some(125));
        assert_eq!(h.quantile_ps(0.5), Some(150));
        assert_eq!(h.quantile_ps(1.0), Some(200));
        // q → 0 clamps to rank 1, never rank 0.
        assert_eq!(h.quantile_ps(0.0), Some(125));
        // Two bins: the median of {50, 250} sits at the top of bin 0.
        let h = filled(&[50, 250]);
        assert_eq!(h.quantile_ps(0.5), Some(100));
        assert_eq!(h.quantile_ps(1.0), Some(300));
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = filled(&[10, 120, 340, 560, 780, 901, 950, 999]);
        let mut prev = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile_ps(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn overflow_bucket_tracks_tail() {
        let mut h = Histogram::new(100, 10); // covers [0, 1000)
        h.record(500);
        h.record(5_000);
        h.record(9_999);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_ps(), 9_999);
        // Low ranks still interpolated from the binned sample (rank 1 of
        // 3 sits at the top of its one-sample bin [500, 600))...
        assert_eq!(h.quantile_ps(0.3), Some(600));
        // ...but tail ranks fall in overflow and report the max.
        assert_eq!(h.quantile_ps(0.9), Some(9_999));
        assert_eq!(h.quantile_ps(1.0), Some(9_999));
        // The boundary sample 1000 overflows (bins are half-open).
        let mut h = Histogram::new(100, 10);
        h.record(1_000);
        assert_eq!(h.overflow(), 1);
        h.record(999);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn unconfigured_histogram_overflows_everything() {
        let mut h = Histogram::default();
        h.record(42);
        h.record(7);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.quantile_ps(0.5), Some(42));
        assert_eq!(h.mean_ps(), Some(24.5));
    }

    #[test]
    fn single_sample_pins_every_quantile_to_its_bin() {
        // One sample: every q clamps to rank 1, and within = 1/1 puts the
        // estimate at the upper edge of the sample's bin [100, 200).
        let h = filled(&[150]);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ps(q), Some(200), "q={q}");
        }
        assert_eq!(h.mean_ps(), Some(150.0));
        assert_eq!(h.max_ps(), 150);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn all_samples_in_overflow_report_the_tracked_max() {
        // Configured layout [0, 1000), every sample past it: the binned
        // scan finds nothing and every quantile falls through to max_ps.
        let h = filled(&[1_000, 5_000, 123_456]);
        assert_eq!(h.overflow(), 3);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile_ps(q), Some(123_456), "q={q}");
        }
        assert_eq!(h.max_ps(), 123_456);
    }

    #[test]
    fn merge_with_empty_configured_histogram_is_identity() {
        // Unlike Default (unconfigured), an empty *configured* histogram
        // has a layout; merging it in either direction must not disturb
        // counts, quantiles, or layout.
        let a = filled(&[10, 110, 950, 2_000]);
        let empty = Histogram::new(100, 10);
        let mut left = a.clone();
        left.merge(&empty);
        assert_eq!(left, a);
        let mut right = empty;
        right.merge(&a);
        assert_eq!(right, a);
        assert_eq!(right.quantile_ps(0.5), a.quantile_ps(0.5));
    }

    #[test]
    fn merge_is_exact_and_associative() {
        let a = filled(&[10, 110, 210]);
        let b = filled(&[310, 410, 2_000]);
        let c = filled(&[510, 610]);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // And the merge equals recording every sample in one histogram.
        let all = filled(&[10, 110, 210, 310, 410, 2_000, 510, 610]);
        assert_eq!(left, all);
        assert_eq!(left.count(), 8);
        assert_eq!(left.overflow(), 1);
    }

    #[test]
    fn default_is_merge_identity() {
        let a = filled(&[10, 110, 950]);
        let mut left = Histogram::default();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a.clone();
        right.merge(&Histogram::default());
        assert_eq!(right, a);
    }

    #[test]
    #[should_panic(expected = "histogram layouts must match")]
    fn mismatched_layouts_refuse_to_merge() {
        let mut a = Histogram::new(100, 10);
        a.merge(&Histogram::new(50, 10));
    }

    #[test]
    fn parts_round_trip_exactly() {
        let h = filled(&[10, 150, 150, 950, 2_000, u64::MAX]);
        let (w, counts, overflow, total, sum, max) = h.to_parts();
        let back = Histogram::from_parts(w, counts.to_vec(), overflow, total, sum, max);
        assert_eq!(back, h);
        assert_eq!(back.quantile_ps(0.999), h.quantile_ps(0.999));
        // The unconfigured layout round-trips too.
        let mut d = Histogram::default();
        d.record(7);
        let (w, counts, overflow, total, sum, max) = d.to_parts();
        assert_eq!(w, 0);
        assert_eq!(Histogram::from_parts(w, counts.to_vec(), overflow, total, sum, max), d);
    }

    #[test]
    fn debug_is_compact() {
        let h = filled(&[150, 250, 2_000]);
        let s = format!("{h:?}");
        assert!(s.contains("count: 3"), "{s}");
        assert!(s.contains("overflow: 1"), "{s}");
        assert!(!s.contains("counts"), "bin vector must not be dumped: {s}");
    }
}
