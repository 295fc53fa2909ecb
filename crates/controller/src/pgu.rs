//! The pulse-generation-unit pool (Fig. 6, stage 3).
//!
//! Qtenon configures eight PGUs, each treated as a black box with an
//! enforced latency of 1000 cycles (Section 7.1, matching realistic pulse
//! computation times). A priority encoder dispatches each request to the
//! lowest-numbered free unit; when all are busy, stages 1–2 stall.

use qtenon_sim_engine::{
    ClockDomain, FaultInjector, FaultSite, Histogram, MetricsRegistry, SimDuration, SimTime,
};

use crate::error::ControllerError;

/// Configuration of the PGU pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PguConfig {
    /// Number of units (Table 4: 8).
    pub units: usize,
    /// Black-box latency per pulse in clock cycles (Section 7.1: 1000).
    pub latency_cycles: u64,
    /// The clock those cycles are counted in.
    pub clock: ClockDomain,
}

impl Default for PguConfig {
    fn default() -> Self {
        PguConfig {
            units: 8,
            latency_cycles: 1000,
            clock: ClockDomain::from_ghz(1.0),
        }
    }
}

/// A completed dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Which unit took the job (priority-encoder order).
    pub unit: usize,
    /// When computation started.
    pub start: SimTime,
    /// When the pulse is ready for writeback.
    pub done: SimTime,
}

/// The PGU pool.
///
/// # Examples
///
/// ```
/// use qtenon_controller::pgu::{PguConfig, PguPool};
/// use qtenon_sim_engine::{FaultInjector, FaultPlan, SimTime};
///
/// let mut pool = PguPool::new(PguConfig::default())?;
/// let mut no_faults = FaultInjector::new(FaultPlan::default());
/// let d = pool.dispatch(SimTime::ZERO, &mut no_faults)?;
/// assert_eq!(d.unit, 0);
/// assert_eq!((d.done - d.start).as_us(), 1.0); // 1000 cycles @ 1 GHz
/// # Ok::<(), qtenon_controller::ControllerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PguPool {
    config: PguConfig,
    busy_until: Vec<SimTime>,
    dispatched: u64,
    /// Request-to-start wait of each dispatch, in nanoseconds (zero when
    /// a unit was free immediately).
    wait: Histogram,
    /// Injected stalls observed (extra busy cycles).
    stalls: u64,
    /// Re-dispatches after injected bad-pulse failures.
    redispatches: u64,
}

impl PguPool {
    /// Creates an all-idle pool.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::NoPguUnits`] if `config.units` is zero.
    pub fn new(config: PguConfig) -> Result<Self, ControllerError> {
        if config.units == 0 {
            return Err(ControllerError::NoPguUnits);
        }
        Ok(PguPool {
            config,
            busy_until: vec![SimTime::ZERO; config.units],
            dispatched: 0,
            wait: Histogram::new(),
            stalls: 0,
            redispatches: 0,
        })
    }

    /// The latency of one pulse computation.
    pub(crate) fn pulse_latency(&self) -> SimDuration {
        self.config.clock.cycles(self.config.latency_cycles)
    }

    /// The lowest-numbered unit free at `now`, if any (priority encoder).
    pub(crate) fn free_unit_at(&self, now: SimTime) -> Option<usize> {
        self.busy_until.iter().position(|&t| t <= now)
    }

    /// The earliest time any unit frees up.
    pub(crate) fn earliest_free(&self) -> SimTime {
        // The pool is constructed with at least one unit.
        self.busy_until
            .iter()
            .copied()
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// One attempt of a pulse computation requested at `now`: the job
    /// starts immediately if a unit is free, otherwise as soon as the
    /// earliest unit frees (the stall the pipeline observes).
    fn attempt(&mut self, now: SimTime) -> Dispatch {
        let (unit, start) = match self.free_unit_at(now) {
            Some(unit) => (unit, now),
            None => {
                let start = self.earliest_free();
                (self.free_unit_at(start).unwrap_or(0), start)
            }
        };
        let done = start + self.pulse_latency();
        self.busy_until[unit] = done;
        self.dispatched += 1;
        self.wait
            .record(start.saturating_since(now).as_ps() / 1_000);
        Dispatch { unit, start, done }
    }

    /// Dispatches one pulse computation requested at `now`. A stall fault
    /// drawn from `faults` holds the unit for the plan's extra cycles, and
    /// each bad-pulse failure forces a re-dispatch after an exponential
    /// backoff; an inert injector yields one attempt.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::PguRetriesExhausted`] when the drawn
    /// failure count meets the plan's `max_attempts` budget.
    pub fn dispatch(
        &mut self,
        now: SimTime,
        faults: &mut FaultInjector,
    ) -> Result<Dispatch, ControllerError> {
        let stalled = faults.bernoulli(FaultSite::PguStall);
        let failures = faults.geometric_failures(FaultSite::PguFail);
        let plan = *faults.plan();
        let budget = plan.max_attempts.max(1);
        if failures >= budget {
            return Err(ControllerError::PguRetriesExhausted { attempts: budget });
        }
        let mut d = self.attempt(now);
        if stalled {
            let penalty = self.config.clock.cycles(plan.pgu_stall_cycles);
            d.done += penalty;
            self.busy_until[d.unit] = self.busy_until[d.unit].max(d.done);
            self.stalls += 1;
        }
        for attempt in 1..=failures {
            self.redispatches += 1;
            let retry_at = d.done + plan.backoff(attempt);
            d = self.attempt(retry_at);
        }
        Ok(d)
    }

    /// Total pulses dispatched.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Injected stalls observed so far.
    pub(crate) fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Re-dispatches forced by injected bad-pulse failures.
    pub(crate) fn redispatches(&self) -> u64 {
        self.redispatches
    }

    /// Registers pool statistics under `prefix` (e.g. `controller.pgu`).
    pub(crate) fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.gauge(&format!("{prefix}.units"), self.config.units as f64);
        m.counter(&format!("{prefix}.dispatched"), self.dispatched);
        m.histogram(&format!("{prefix}.wait_ns"), &self.wait);
    }

    /// Returns all units to idle at time zero.
    pub(crate) fn reset(&mut self) {
        self.busy_until.fill(SimTime::ZERO);
        self.dispatched = 0;
        self.wait.reset();
        self.stalls = 0;
        self.redispatches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_sim_engine::FaultPlan;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    /// A fault-free dispatch requested at time zero.
    fn dispatch(pool: &mut PguPool) -> Dispatch {
        let mut no_faults = FaultInjector::new(FaultPlan::default());
        pool.dispatch(SimTime::ZERO, &mut no_faults).unwrap()
    }

    #[test]
    fn priority_encoder_picks_lowest_free() {
        let mut pool = PguPool::new(PguConfig::default()).unwrap();
        assert_eq!(dispatch(&mut pool).unit, 0);
        assert_eq!(dispatch(&mut pool).unit, 1);
        assert_eq!(dispatch(&mut pool).unit, 2);
    }

    #[test]
    fn eight_jobs_run_in_parallel_ninth_stalls() {
        let mut pool = PguPool::new(PguConfig::default()).unwrap();
        for i in 0..8 {
            let d = dispatch(&mut pool);
            assert_eq!(d.unit, i);
            assert_eq!(d.start, SimTime::ZERO);
        }
        let ninth = dispatch(&mut pool);
        assert_eq!(ninth.start, at(1000)); // waits for unit 0
        assert_eq!(ninth.unit, 0);
        assert_eq!(ninth.done, at(2000));
    }

    #[test]
    fn unit_frees_after_latency() {
        let mut pool = PguPool::new(PguConfig::default()).unwrap();
        dispatch(&mut pool);
        assert_eq!(pool.free_unit_at(SimTime::ZERO), Some(1));
        assert_eq!(pool.free_unit_at(at(1000)), Some(0));
    }

    #[test]
    fn throughput_matches_units_times_latency() {
        let mut pool = PguPool::new(PguConfig::default()).unwrap();
        let mut last_done = SimTime::ZERO;
        for _ in 0..80 {
            last_done = dispatch(&mut pool).done;
        }
        // 80 jobs over 8 units = 10 sequential rounds of 1 µs.
        assert_eq!(last_done, at(10_000));
        assert_eq!(pool.dispatched(), 80);
    }

    #[test]
    fn custom_latency_and_reset() {
        let mut pool = PguPool::new(PguConfig {
            units: 1,
            latency_cycles: 10,
            clock: ClockDomain::from_ghz(1.0),
        })
        .unwrap();
        let d = dispatch(&mut pool);
        assert_eq!(d.done, at(10));
        pool.reset();
        assert_eq!(dispatch(&mut pool).start, SimTime::ZERO);
    }

    #[test]
    fn zero_units_is_a_typed_error() {
        let err = PguPool::new(PguConfig {
            units: 0,
            ..PguConfig::default()
        })
        .unwrap_err();
        assert_eq!(err, ControllerError::NoPguUnits);
    }

    #[test]
    fn injected_stall_extends_completion() {
        let plan = FaultPlan::default()
            .with_rate(FaultSite::PguStall, 0.999_999)
            .with_seed(5);
        let mut inj = FaultInjector::new(plan);
        let mut pool = PguPool::new(PguConfig::default()).unwrap();
        let d = pool.dispatch(SimTime::ZERO, &mut inj).unwrap();
        // 1000 nominal cycles + 500 stall cycles at 1 GHz.
        assert_eq!(d.done, at(1500));
        assert_eq!(pool.stalls(), 1);
    }

    #[test]
    fn injected_failures_force_redispatch_or_typed_error() {
        let plan = FaultPlan::default()
            .with_rate(FaultSite::PguFail, 0.5)
            .with_seed(21);
        let mut inj = FaultInjector::new(plan);
        let mut pool = PguPool::new(PguConfig::default()).unwrap();
        let mut saw_redispatch = false;
        for _ in 0..100 {
            match pool.dispatch(SimTime::ZERO, &mut inj) {
                Ok(_) => {}
                Err(ControllerError::PguRetriesExhausted { attempts }) => {
                    assert_eq!(attempts, plan.max_attempts);
                }
                Err(other) => panic!("unexpected error {other}"),
            }
            if pool.redispatches() > 0 {
                saw_redispatch = true;
            }
        }
        assert!(saw_redispatch, "0.5 failure rate never forced a redispatch");
    }
}
