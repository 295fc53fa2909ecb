//! TileLink system-bus timing model.
//!
//! The bus moves 256-bit beats at the host clock; requests carry one of 32
//! RBQ tags, so up to 32 transactions pipeline their request latency while
//! data beats serialise on the link. This is the model behind data paths
//! ❷/❸ and Table 1's 10 ns–100 ns quantum-host communication latency.

use std::collections::VecDeque;

use qtenon_sim_engine::{
    ClockDomain, FaultInjector, FaultSite, Histogram, MetricsRegistry, SimDuration, SimTime,
};

use crate::error::ControllerError;
use crate::rbq::TAG_COUNT;

/// Bus geometry and latency parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Beat width in bits.
    pub width_bits: u32,
    /// Clock domain driving beats.
    pub clock: ClockDomain,
    /// Request round-trip latency (decode + L2 lookup) per transaction,
    /// overlapped across transactions by tagging.
    pub request_latency: SimDuration,
    /// Maximum outstanding transactions (RBQ tags).
    pub max_outstanding: usize,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            width_bits: 256,
            clock: ClockDomain::from_ghz(1.0),
            request_latency: SimDuration::from_ns(20),
            max_outstanding: TAG_COUNT,
        }
    }
}

/// One scheduled transfer's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTiming {
    /// When the request was accepted on the bus.
    pub start: SimTime,
    /// When the last data beat (and thus the transfer) completed.
    pub complete: SimTime,
}

/// The TileLink bus as a shared resource with tag-limited pipelining.
///
/// # Examples
///
/// ```
/// use qtenon_controller::{BusConfig, TileLinkBus};
/// use qtenon_sim_engine::{FaultInjector, FaultPlan, SimTime};
///
/// let mut bus = TileLinkBus::new(BusConfig::default());
/// let mut no_faults = FaultInjector::new(FaultPlan::default());
/// let t = bus.schedule_transfer(SimTime::ZERO, 64, &mut no_faults)?; // two 256-bit beats
/// assert!(t.complete > t.start);
/// # Ok::<(), qtenon_controller::ControllerError>(())
/// ```
#[derive(Debug)]
pub struct TileLinkBus {
    config: BusConfig,
    /// Time the data link frees up.
    link_free_at: SimTime,
    /// Completion times of outstanding transactions (for tag limiting).
    outstanding: VecDeque<SimTime>,
    bytes_moved: u64,
    /// Grant-to-completion latency of each transfer, in nanoseconds; its
    /// count is the number of transfers scheduled.
    latency: Histogram,
    /// Retransmissions performed after injected drops/corruptions.
    retries: u64,
}

impl TileLinkBus {
    /// Creates an idle bus.
    pub fn new(config: BusConfig) -> Self {
        TileLinkBus {
            config,
            link_free_at: SimTime::ZERO,
            outstanding: VecDeque::new(),
            bytes_moved: 0,
            latency: Histogram::new(),
            retries: 0,
        }
    }

    /// Number of beats needed for `bytes`.
    pub(crate) fn beats_for(&self, bytes: u64) -> u64 {
        (bytes * 8).div_ceil(self.config.width_bits as u64).max(1)
    }

    /// One attempt of a transfer of `bytes` requested at time `now`:
    /// returns its start (bus grant) and completion times and advances
    /// the bus state.
    fn attempt(&mut self, now: SimTime, bytes: u64) -> TransferTiming {
        // Drop bookkeeping for transactions that finished before `now`.
        while let Some(&t) = self.outstanding.front() {
            if t <= now {
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
        // Tag limit: if 32 transactions are in flight, wait for the oldest.
        let mut earliest = now;
        if self.outstanding.len() >= self.config.max_outstanding {
            if let Some(freed) = self.outstanding.pop_front() {
                earliest = earliest.max(freed);
            }
        }
        let start = earliest.max(self.link_free_at);
        let data_time = self.config.clock.period() * self.beats_for(bytes);
        // Request latency overlaps with other transactions' data beats;
        // the link itself is busy only for this transfer's beats.
        let complete = start + self.config.request_latency + data_time;
        self.link_free_at = start + data_time;
        self.outstanding.push_back(complete);
        self.bytes_moved += bytes;
        self.latency.record((complete - start).as_ps() / 1_000);
        TransferTiming { start, complete }
    }

    /// Schedules a transfer of `bytes` requested at time `now` and
    /// advances the bus state. Drops and corruptions drawn from `faults`
    /// each force a retransmission after an exponential backoff, and the
    /// returned timing covers the whole retry chain (first grant to last
    /// successful completion); an inert injector yields one attempt.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::BusRetriesExhausted`] when the drawn
    /// failure count meets the plan's `max_attempts` budget.
    pub fn schedule_transfer(
        &mut self,
        now: SimTime,
        bytes: u64,
        faults: &mut FaultInjector,
    ) -> Result<TransferTiming, ControllerError> {
        let drops = faults.geometric_failures(FaultSite::BusDrop);
        let corruptions = faults.geometric_failures(FaultSite::BusCorrupt);
        let failures = drops + corruptions;
        let plan = *faults.plan();
        let budget = plan.max_attempts.max(1);
        let first = self.attempt(now, bytes);
        if failures == 0 {
            return Ok(first);
        }
        if failures >= budget {
            // The link kept eating this transaction; every allowed attempt
            // (including the one just scheduled) failed.
            for attempt in 2..=budget {
                self.retries += 1;
                let retry_at = first.complete + plan.backoff(attempt - 1);
                self.attempt(retry_at, bytes);
            }
            return Err(ControllerError::BusRetriesExhausted { attempts: budget });
        }
        // Each failed attempt occupies the link for its beats, then the
        // requester backs off and retransmits.
        let mut timing = first;
        for attempt in 1..=failures {
            self.retries += 1;
            let retry_at = timing.complete + plan.backoff(attempt);
            timing = self.attempt(retry_at, bytes);
        }
        Ok(TransferTiming {
            start: first.start,
            complete: timing.complete,
        })
    }

    /// Retransmissions performed after injected drops/corruptions.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Registers bus statistics under `prefix` (e.g. `controller.bus`).
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.counter(&format!("{prefix}.bytes_moved"), self.bytes_moved);
        m.histogram(&format!("{prefix}.latency_ns"), &self.latency);
    }

    /// Resets the bus to idle (new experiment run).
    pub fn reset(&mut self) {
        self.link_free_at = SimTime::ZERO;
        self.outstanding.clear();
        self.bytes_moved = 0;
        self.latency.reset();
        self.retries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TileLinkBus {
        /// Total bytes moved.
        fn bytes_moved(&self) -> u64 {
            self.bytes_moved
        }

        /// Per-transfer latency distribution in nanoseconds.
        fn latency(&self) -> &Histogram {
            &self.latency
        }
    }
    use qtenon_sim_engine::FaultPlan;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_ns(v)
    }

    /// A fault-free transfer requested at time zero.
    fn transfer(bus: &mut TileLinkBus, bytes: u64) -> TransferTiming {
        let mut no_faults = FaultInjector::new(FaultPlan::default());
        bus.schedule_transfer(SimTime::ZERO, bytes, &mut no_faults)
            .unwrap()
    }

    #[test]
    fn single_beat_latency() {
        let mut bus = TileLinkBus::new(BusConfig::default());
        let t = transfer(&mut bus, 32); // exactly one beat
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(t.complete - t.start, ns(21)); // 20 ns request + 1 beat
    }

    #[test]
    fn table1_latency_band() {
        // Table 1 claims 10 ns – 100 ns for tightly-coupled communication.
        let mut bus = TileLinkBus::new(BusConfig::default());
        let small = transfer(&mut bus, 8);
        let latency = small.complete - small.start;
        assert!(latency >= ns(10) && latency <= ns(100), "latency={latency}");
    }

    #[test]
    fn beats_round_up() {
        let bus = TileLinkBus::new(BusConfig::default());
        assert_eq!(bus.beats_for(1), 1);
        assert_eq!(bus.beats_for(32), 1);
        assert_eq!(bus.beats_for(33), 2);
        assert_eq!(bus.beats_for(0), 1); // minimum one beat
    }

    #[test]
    fn back_to_back_transfers_pipeline_request_latency() {
        let mut bus = TileLinkBus::new(BusConfig::default());
        let a = transfer(&mut bus, 32);
        let b = transfer(&mut bus, 32);
        // Second transfer starts as soon as the link frees (1 ns), not
        // after the first completes (21 ns): request latency is hidden.
        assert_eq!(b.start - SimTime::ZERO, ns(1));
        assert_eq!(b.complete - SimTime::ZERO, ns(22));
        assert!(b.complete < a.complete + ns(21));
    }

    #[test]
    fn tag_limit_throttles() {
        let mut bus = TileLinkBus::new(BusConfig {
            max_outstanding: 2,
            ..BusConfig::default()
        });
        let a = transfer(&mut bus, 32);
        let _b = transfer(&mut bus, 32);
        let c = transfer(&mut bus, 32);
        // Third transfer cannot start before the first completes.
        assert!(c.start >= a.complete);
    }

    #[test]
    fn throughput_is_bounded_by_link() {
        let mut bus = TileLinkBus::new(BusConfig::default());
        let mut last = TransferTiming {
            start: SimTime::ZERO,
            complete: SimTime::ZERO,
        };
        for _ in 0..100 {
            last = transfer(&mut bus, 32);
        }
        // 100 beats at 1 ns each, plus one request latency at the tail.
        assert_eq!(last.complete - SimTime::ZERO, ns(100 + 20));
        assert_eq!(bus.bytes_moved(), 3200);
        assert_eq!(bus.latency().count(), 100);
    }

    #[test]
    fn injected_drops_force_retransmission_and_lengthen_transfers() {
        let plan = FaultPlan::default()
            .with_rate(FaultSite::BusDrop, 0.4)
            .with_seed(11);
        let mut bus = TileLinkBus::new(BusConfig::default());
        let mut inj = FaultInjector::new(plan);
        let mut clean = TileLinkBus::new(BusConfig::default());
        let mut saw_retry = false;
        for _ in 0..50 {
            let base = transfer(&mut clean, 32);
            match bus.schedule_transfer(SimTime::ZERO, 32, &mut inj) {
                Ok(t) => {
                    assert!(t.complete >= base.complete);
                    if t.complete > base.complete + SimDuration::from_ns(40) {
                        saw_retry = true;
                    }
                }
                Err(ControllerError::BusRetriesExhausted { attempts }) => {
                    assert_eq!(attempts, plan.max_attempts);
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_retry, "0.4 drop rate over 50 transfers never retried");
        assert!(bus.retries() > 0);
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut bus = TileLinkBus::new(BusConfig::default());
        transfer(&mut bus, 1024);
        bus.reset();
        let t = transfer(&mut bus, 32);
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(bus.latency().count(), 1);
    }
}
