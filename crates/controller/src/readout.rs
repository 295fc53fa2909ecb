//! The measurement data processor (Fig. 2's ❺, integrated on-controller
//! in Qtenon).
//!
//! Superconducting readout returns an analog IQ point per qubit per shot;
//! a data processor integrates and classifies it into a bit ("state
//! determination") before anything reaches the `.measure` segment. The
//! timing model needs only that unit's latency, and the cost of re-arming
//! it after a readout timeout.

use qtenon_sim_engine::{ClockDomain, FaultPlan, SimDuration};

/// The readout data processor's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutProcessor {
    /// Cycles needed to integrate and classify one shot.
    pub latency_cycles: u64,
    /// Clock the unit runs at.
    pub clock: ClockDomain,
}

impl Default for ReadoutProcessor {
    fn default() -> Self {
        ReadoutProcessor {
            // Integration a few hundred ns at the 200 MHz SRAM clock.
            latency_cycles: 60,
            clock: ClockDomain::from_mhz(200.0),
        }
    }
}

impl ReadoutProcessor {
    /// Classification latency per shot.
    pub fn latency(&self) -> SimDuration {
        self.clock.cycles(self.latency_cycles)
    }

    /// Total modelled cost of `timeouts` consecutive readout timeouts
    /// under `plan`: each re-arm repeats the integration/classification
    /// latency, pays the plan's fixed re-arm penalty, and backs off
    /// exponentially before the next attempt.
    pub fn retry_penalty(&self, timeouts: u32, plan: &FaultPlan) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for attempt in 1..=timeouts {
            total = total + self.latency() + plan.readout_penalty() + plan.backoff(attempt);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_sub_microsecond() {
        let r = ReadoutProcessor::default();
        assert_eq!(r.latency(), SimDuration::from_ns(300));
    }

    #[test]
    fn retry_penalty_grows_with_timeouts() {
        let r = ReadoutProcessor::default();
        let plan = FaultPlan::default();
        assert_eq!(r.retry_penalty(0, &plan), SimDuration::ZERO);
        // One re-arm: 300 ns latency + 300 ns penalty + 50 ns backoff.
        assert_eq!(r.retry_penalty(1, &plan), SimDuration::from_ns(650));
        assert!(r.retry_penalty(3, &plan) > r.retry_penalty(1, &plan) * 2);
    }
}
