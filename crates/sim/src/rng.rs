//! In-tree deterministic pseudo-random number generator.
//!
//! The sandboxed build has no network access, so the workspace cannot
//! depend on the `rand` crate. Everything that needs randomness (compute
//! jitter, synthetic DAG generation, randomized test drivers) uses this
//! [`SplitMix64`] generator instead. SplitMix64 is the standard 64-bit
//! mixing generator from Steele, Lea & Flood, "Fast Splittable
//! Pseudorandom Number Generators" (OOPSLA 2014): one add and three
//! xor-shift-multiply rounds per output, full 2^64 period, and — crucially
//! for this repo — a stable, portable output sequence that keeps every
//! simulation bit-reproducible across platforms and toolchains. Seeds
//! derived from an identity (a fault verdict, an arrival, a campaign
//! cell) come from hashing it with [`fnv1a`].
//!
//! # Examples
//!
//! ```
//! use relief_sim::SplitMix64;
//! let mut a = SplitMix64::new(42);
//! let mut b = SplitMix64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! assert!(a.f64_unit() < 1.0);
//! ```

/// Deterministic SplitMix64 pseudo-random generator.
///
/// Not cryptographically secure; intended for simulation jitter and test
/// workload generation only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`. Equal seeds always produce
    /// equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, n)` using a widening multiply
    /// (Lemire's method without the rejection step; the residual bias is
    /// below `n / 2^64` and irrelevant for simulation purposes).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Returns a uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn u64_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "inverted range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.u64_below(span + 1)
    }

    /// Returns a uniform value in `[0, n)` as a `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn u32_below(&mut self, n: u32) -> u32 {
        self.u64_below(n as u64) as u32
    }

    /// Returns a uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn usize_below(&mut self, n: usize) -> usize {
        self.u64_below(n as u64) as usize
    }

    /// Returns a uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform float in `[lo, hi)` (or exactly `lo` when the
    /// range is empty, e.g. a zero-jitter configuration).
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64_unit()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }
}

/// 64-bit FNV-1a over a byte string: the stable, dependency-free hash
/// behind every seed derived from an identity (fault verdicts, arrival
/// schedules, campaign specs) and every content digest (cache file names,
/// the behaviour corpus). Inlined so the per-verdict and per-arrival
/// callers in other crates keep it in their hot loops, and `const` so a
/// digest of an embedded file (the campaign cache's code salt) is a
/// compile-time constant.
#[inline]
pub const fn fnv1a(mut bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    while let [b, rest @ ..] = bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        bytes = rest;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567, cross-checked against the
        // published SplitMix64 reference implementation.
        let mut r = SplitMix64::new(1234567);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(first, vec![6457827717110365317, 3203168211198807973, 9817491932198370423]);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(10);
        assert_ne!(SplitMix64::new(9).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.u64_below(7) < 7);
            let v = r.u64_inclusive(10, 20);
            assert!((10..=20).contains(&v));
            assert!(r.u32_below(3) < 3);
            assert!(r.usize_below(5) < 5);
            let f = r.f64_unit();
            assert!((0.0..1.0).contains(&f));
            let j = r.f64_range(-0.5, 0.5);
            assert!((-0.5..0.5).contains(&j));
        }
    }

    #[test]
    fn degenerate_ranges() {
        let mut r = SplitMix64::new(0);
        assert_eq!(r.u64_inclusive(4, 4), 4);
        assert_eq!(r.f64_range(1.5, 1.5), 1.5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn rough_uniformity() {
        // 10k draws over 8 buckets: every bucket within 30% of expected.
        let mut r = SplitMix64::new(77);
        let mut buckets = [0u32; 8];
        for _ in 0..10_000 {
            buckets[r.usize_below(8)] += 1;
        }
        for b in buckets {
            assert!((875..=1625).contains(&b), "bucket count {b}");
        }
    }
}
