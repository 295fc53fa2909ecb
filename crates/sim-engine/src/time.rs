//! Picosecond-resolution simulation time.
//!
//! [`SimTime`] is an absolute instant on the simulated timeline and
//! [`SimDuration`] is a span between instants. Both are newtypes over `u64`
//! picoseconds: fine enough for a 2 GHz DAC (500 ps period) and wide enough
//! for more than 200 days of simulated time, far beyond any experiment in
//! the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with picosecond resolution.
///
/// # Examples
///
/// ```
/// use qtenon_sim_engine::SimDuration;
///
/// let gate = SimDuration::from_ns(20);
/// assert_eq!(gate * 2, SimDuration::from_ns(40));
/// assert_eq!(gate.as_ns(), 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from a (non-negative, finite) number of
    /// nanoseconds, rounding to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative, NaN, or overflows the `u64` picosecond
    /// range.
    pub fn from_ns_f64(ns: f64) -> Self {
        let ps = ns * 1_000.0;
        assert!(
            ps.is_finite() && ps >= 0.0 && ps <= u64::MAX as f64,
            "duration out of range: {ns} ns"
        );
        SimDuration(ps.round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This duration in seconds.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero rather than underflowing.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The ratio of this duration to another, as a float.
    ///
    /// Useful for computing breakdown percentages.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn fraction_of(self, total: SimDuration) -> f64 {
        assert!(!total.is_zero(), "fraction_of zero duration");
        self.0 as f64 / total.0 as f64
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<SimDuration> for u64 {
    type Output = SimDuration;
    fn mul(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self * rhs.0)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0 ns")
        } else if ps < 1_000 {
            write!(f, "{ps} ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.2} ns", self.as_ns())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.2} us", self.as_us())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.2} ms", self.as_ms())
        } else {
            write!(f, "{:.3} s", self.as_secs_f64())
        }
    }
}

/// An absolute instant on the simulated timeline.
///
/// Instants are produced by adding [`SimDuration`]s to [`SimTime::ZERO`] or
/// to other instants; subtracting two instants yields a duration.
///
/// # Examples
///
/// ```
/// use qtenon_sim_engine::{SimDuration, SimTime};
///
/// let start = SimTime::ZERO;
/// let end = start + SimDuration::from_ns(600);
/// assert_eq!(end - start, SimDuration::from_ns(600));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The duration since time zero.
    pub const fn elapsed(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// The later of two instants.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The duration from `earlier` to `self`, or zero if `earlier` is later.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_ns(1), SimDuration::from_ps(1_000));
        assert_eq!(SimDuration::from_us(1), SimDuration::from_ns(1_000));
        assert_eq!(SimDuration::from_ms(1), SimDuration::from_us(1_000));
    }

    #[test]
    fn duration_from_f64_rounds() {
        assert_eq!(SimDuration::from_ns_f64(0.5), SimDuration::from_ps(500));
        assert_eq!(SimDuration::from_ns_f64(20.0), SimDuration::from_ns(20));
        assert_eq!(SimDuration::from_ns_f64(1e6), SimDuration::from_ms(1));
    }

    #[test]
    #[should_panic(expected = "duration out of range")]
    fn duration_from_negative_panics() {
        let _ = SimDuration::from_ns_f64(-1.0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_ns(30);
        let b = SimDuration::from_ns(12);
        assert_eq!(a + b, SimDuration::from_ns(42));
        assert_eq!(a - b, SimDuration::from_ns(18));
        assert_eq!(a * 3, SimDuration::from_ns(90));
        assert_eq!(a / 3, SimDuration::from_ns(10));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }

    #[test]
    fn fraction_of_total() {
        let part = SimDuration::from_ns(25);
        let total = SimDuration::from_ns(100);
        assert!((part.fraction_of(total) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO + SimDuration::from_ns(5);
        let t1 = t0 + SimDuration::from_ns(7);
        assert_eq!(t1 - t0, SimDuration::from_ns(7));
        assert_eq!(t1.saturating_since(t0), SimDuration::from_ns(7));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t0.max(t1), t1);
        assert_eq!(t0.min(t1), t0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_ps(12).to_string(), "12 ps");
        assert_eq!(SimDuration::from_ns(20).to_string(), "20.00 ns");
        assert_eq!(SimDuration::from_us(3).to_string(), "3.00 us");
        assert_eq!(SimDuration::from_ms(204).to_string(), "204.00 ms");
        assert_eq!(SimDuration::from_ms(2_000).to_string(), "2.000 s");
    }
}
