//! Simulated time in integer picoseconds.
//!
//! [`Time`] is an absolute instant; [`Dur`] is a span between instants. Both
//! wrap a `u64`/`i64`-free `u64` picosecond count, giving exact arithmetic
//! for every quantity in the paper (Table I compute times are ≥ tens of
//! nanoseconds; DRAM/bus byte times are fractions of a nanosecond).
//!
//! One picosecond granularity with `u64` storage covers about 213 days of
//! simulated time — far beyond the paper's 50 ms continuous-contention cap.

// Arithmetic here `expect`s on checked ops by design: silent wraparound of
// simulated time would corrupt every downstream statistic, so overflow is
// a simulator bug that must stop the run.
#![allow(clippy::expect_used)]
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
const PS_PER_MS: u64 = 1_000_000_000;

/// An absolute simulated instant, counted in picoseconds from simulation
/// start.
///
/// # Examples
///
/// ```
/// use relief_sim::{Time, Dur};
/// let t = Time::from_us(2) + Dur::from_ns(500);
/// assert_eq!(t.as_ps(), 2_500_000);
/// assert_eq!(t.as_us_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time, counted in picoseconds.
///
/// # Examples
///
/// ```
/// use relief_sim::Dur;
/// let d = Dur::from_us(3) + Dur::from_ns(250);
/// assert_eq!(d.as_ns_f64(), 3_250.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; useful as an "unreachable" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }
    /// Creates an instant from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * PS_PER_NS)
    }
    /// Creates an instant from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Time(us * PS_PER_US)
    }
    /// Creates an instant from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * PS_PER_MS)
    }
    /// Creates an instant from fractional microseconds (e.g. Table I values).
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us_f64(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "time must be finite and non-negative");
        Time((us * PS_PER_US as f64).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This instant expressed in fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// This instant expressed in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// This instant expressed in fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Span since an earlier instant, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Creates a span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Dur(ps)
    }
    /// Creates a span from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns * PS_PER_NS)
    }
    /// Creates a span from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Dur(us * PS_PER_US)
    }
    /// Creates a span from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * PS_PER_MS)
    }
    /// Creates a span from fractional microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    pub fn from_us_f64(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "duration must be finite and non-negative");
        Dur((us * PS_PER_US as f64).round() as u64)
    }

    /// Time to move `bytes` at `bytes_per_sec`, rounded up to a picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // ps = bytes * 1e12 / bytes_per_sec, computed in u128 to avoid overflow.
        let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(bytes_per_sec as u128);
        Dur(ps.min(u64::MAX as u128) as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This span in fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// This span in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// This span in fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    /// This span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// True for a zero-length span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two spans.
    pub fn max(self, other: Dur) -> Dur {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Span scaled by a non-negative factor, rounding to a picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Dur {
        assert!(factor.is_finite() && factor >= 0.0, "scale factor must be finite and non-negative");
        Dur((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}
impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}
impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("simulated time underflow"))
    }
}
impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("negative duration; use saturating_since"))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}
impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}
impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}
impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}
impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_ns(1).as_ps(), 1_000);
        assert_eq!(Time::from_us(1).as_ps(), 1_000_000);
        assert_eq!(Time::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Time::from_us_f64(30.45).as_us_f64(), 30.45);
        assert_eq!(Dur::from_us_f64(1545.61).as_us_f64(), 1545.61);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_us(10);
        let d = Dur::from_us(3);
        assert_eq!(t + d, Time::from_us(13));
        assert_eq!((t + d) - d, t);
        assert_eq!(Time::from_us(13) - Time::from_us(10), Dur::from_us(3));
        assert_eq!(Dur::from_us(2) * 5, Dur::from_us(10));
        assert_eq!(Dur::from_us(10) / 4, Dur::from_ps(2_500_000));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = Time::from_us(5);
        let b = Time::from_us(9);
        assert_eq!(b.saturating_since(a), Dur::from_us(4));
        assert_eq!(a.saturating_since(b), Dur::ZERO);
    }

    #[test]
    fn bytes_at_bandwidth() {
        // 12.8 GB/s: one 64 B cache line takes 5 ns.
        let d = Dur::for_bytes(64, 12_800_000_000);
        assert_eq!(d.as_ps(), 5_000);
        // Rounds up: 1 byte at 3 B/s is ceil(1e12/3) ps.
        assert_eq!(Dur::for_bytes(1, 3).as_ps(), 333_333_333_334);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = Dur::for_bytes(1, 0);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Dur::from_ps(10).scale(0.25), Dur::from_ps(3)); // 2.5 rounds to 3
        assert_eq!(Dur::from_us(100).scale(1.5), Dur::from_us(150));
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur::from_us(1), Dur::from_us(2), Dur::from_us(3)].into_iter().sum();
        assert_eq!(total, Dur::from_us(6));
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(Time::from_us_f64(30.45).to_string(), "30.450us");
        assert_eq!(Dur::from_ns(1500).to_string(), "1.500us");
    }

    #[test]
    fn ordering() {
        assert!(Time::from_ns(1) < Time::from_ns(2));
        assert!(Dur::from_ns(5).max(Dur::from_ns(3)) == Dur::from_ns(5));
        assert!(Time::from_ns(5).min(Time::from_ns(3)) == Time::from_ns(3));
    }
}
