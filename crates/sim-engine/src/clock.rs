//! Clock domains.
//!
//! Qtenon spans three clock domains: the 1 GHz host/controller logic, the
//! 200 MHz controller SRAM, and the 2 GHz DACs. [`ClockDomain`] converts
//! between cycle counts and [`SimDuration`]s for a given frequency.

use crate::time::SimDuration;

/// A fixed-frequency clock domain.
///
/// # Examples
///
/// ```
/// use qtenon_sim_engine::{ClockDomain, SimDuration};
///
/// let sram = ClockDomain::from_mhz(200.0);
/// assert_eq!(sram.period(), SimDuration::from_ns(5));
/// assert_eq!(sram.cycles(4), SimDuration::from_ns(20));
/// assert_eq!(sram.cycles_in(SimDuration::from_ns(12)), 3); // rounds up
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    period_ps: u64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive or yields a sub-picosecond
    /// period.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        let period_ps = (1_000.0 / ghz).round() as u64;
        assert!(period_ps > 0, "frequency too high for ps resolution");
        ClockDomain { period_ps }
    }

    /// Creates a clock domain from a frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive.
    pub fn from_mhz(mhz: f64) -> Self {
        Self::from_ghz(mhz / 1_000.0)
    }

    /// The duration of one cycle.
    pub fn period(self) -> SimDuration {
        SimDuration::from_ps(self.period_ps)
    }

    /// The duration of `n` cycles.
    pub fn cycles(self, n: u64) -> SimDuration {
        SimDuration::from_ps(self.period_ps * n)
    }

    /// The number of whole cycles needed to cover `d` (rounds up).
    pub fn cycles_in(self, d: SimDuration) -> u64 {
        d.as_ps().div_ceil(self.period_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_and_period_agree() {
        let host = ClockDomain::from_ghz(1.0);
        assert_eq!(host.period(), SimDuration::from_ns(1));

        let dac = ClockDomain::from_ghz(2.0);
        assert_eq!(dac.period(), SimDuration::from_ps(500));
    }

    #[test]
    fn mhz_constructor() {
        let sram = ClockDomain::from_mhz(200.0);
        assert_eq!(sram.period(), SimDuration::from_ns(5));
    }

    #[test]
    fn cycles_round_trip() {
        let c = ClockDomain::from_ghz(1.0);
        assert_eq!(c.cycles(1_000), SimDuration::from_us(1));
        assert_eq!(c.cycles_in(SimDuration::from_us(1)), 1_000);
    }

    #[test]
    fn cycles_in_rounds_up() {
        let c = ClockDomain::from_mhz(200.0); // 5 ns period
        assert_eq!(c.cycles_in(SimDuration::from_ns(1)), 1);
        assert_eq!(c.cycles_in(SimDuration::from_ns(5)), 1);
        assert_eq!(c.cycles_in(SimDuration::from_ns(6)), 2);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_panics() {
        let _ = ClockDomain::from_ghz(0.0);
    }
}
