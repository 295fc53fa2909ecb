//! Time-accounting structures behind every figure.

use qtenon_controller::SltStats;
use qtenon_sim_engine::{SimDuration, SpanTable};

/// Busy time per system component over a run. Because Qtenon overlaps
/// components, the end-to-end wall time is *not* the sum of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Quantum chip execution (gates + measurement).
    pub quantum: SimDuration,
    /// Quantum-host communication (all data-path traffic).
    pub communication: SimDuration,
    /// Pulse generation (controller pipeline).
    pub pulse_generation: SimDuration,
    /// Host computation (compilation, cost evaluation, optimisation).
    pub host: SimDuration,
}

impl TimeBreakdown {
    /// Sum of component busy times (the no-overlap upper bound).
    pub fn busy_total(&self) -> SimDuration {
        self.quantum + self.communication + self.pulse_generation + self.host
    }

    /// Component shares of a given wall time, in the order
    /// `[quantum, communication, pulse, host]`.
    pub fn shares_of(&self, wall: SimDuration) -> [f64; 4] {
        let f = |d: SimDuration| {
            if wall.is_zero() {
                0.0
            } else {
                d.fraction_of(wall)
            }
        };
        [
            f(self.quantum),
            f(self.communication),
            f(self.pulse_generation),
            f(self.host),
        ]
    }
}

/// Communication time and instruction counts split by data-communication
/// instruction (Fig. 14's breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommBreakdown {
    /// Time in `q_set` transfers.
    pub q_set: SimDuration,
    /// Time in `q_update` register writes.
    pub q_update: SimDuration,
    /// Time in `q_acquire`/PUT result movement.
    pub q_acquire: SimDuration,
    /// Dynamic `q_set` count.
    pub q_set_count: u64,
    /// Dynamic `q_update` count.
    pub q_update_count: u64,
    /// Dynamic `q_acquire`/PUT count.
    pub q_acquire_count: u64,
}

impl CommBreakdown {
    /// Total communication time.
    pub fn total(&self) -> SimDuration {
        self.q_set + self.q_update + self.q_acquire
    }

    /// Time shares in the order `[q_set, q_update, q_acquire]`.
    pub fn shares(&self) -> [f64; 3] {
        let total = self.total();
        if total.is_zero() {
            return [0.0; 3];
        }
        [
            self.q_set.fraction_of(total),
            self.q_update.fraction_of(total),
            self.q_acquire.fraction_of(total),
        ]
    }
}

/// Fault-injection and recovery counters accumulated over a run.
///
/// All-zero (the [`Default`]) whenever the configured
/// [`FaultPlan`](qtenon_sim_engine::FaultPlan) is inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceSummary {
    /// Faults the injector actually fired across every site.
    pub faults_injected: u64,
    /// TileLink transfers re-sent after a drop or corruption.
    pub bus_retries: u64,
    /// PGU stall events absorbed by extending the dispatch window.
    pub pgu_stalls: u64,
    /// Pulse computations re-dispatched after a PGU failure.
    pub pgu_redispatches: u64,
    /// SLT ways invalidated by parity poisoning (degraded to recompute).
    pub slt_invalidations: u64,
    /// RBQ tags reclaimed by the completion watchdog.
    pub rbq_reclaims: u64,
    /// Readout re-arms after a classification timeout.
    pub readout_retries: u64,
    /// `.measure` upsets corrected by the ECC decoder.
    pub ecc_corrections: u64,
}

impl ResilienceSummary {
    /// Total recovery actions of every kind — the headline
    /// `resilience.retries` counter.
    pub fn total_retries(&self) -> u64 {
        self.bus_retries
            + self.pgu_stalls
            + self.pgu_redispatches
            + self.slt_invalidations
            + self.rbq_reclaims
            + self.readout_retries
            + self.ecc_corrections
    }

    /// Whether any fault fired or any recovery action ran.
    pub fn is_zero(&self) -> bool {
        self.faults_injected == 0 && self.total_retries() == 0
    }
}

/// The complete result of one end-to-end VQA run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// End-to-end wall time (with overlap).
    pub total: SimDuration,
    /// Per-component busy time.
    pub breakdown: TimeBreakdown,
    /// Communication split per instruction type.
    pub comm: CommBreakdown,
    /// Dynamic Qtenon instructions executed.
    pub dynamic_instructions: u64,
    /// Static Qtenon instructions in the program text (loops collapsed).
    pub static_instructions: u64,
    /// Pulses actually computed by PGUs.
    pub pulses_generated: u64,
    /// Pulse pipeline cache statistics.
    pub slt: SltStats,
    /// Cost value after each iteration.
    pub cost_history: Vec<f64>,
    /// The final cost.
    pub final_cost: f64,
    /// Fraction of pulse computations avoided relative to regenerating
    /// every pulse every evaluation (Table 5's "reduction").
    pub pulse_reduction: f64,
    /// Fault-injection and recovery counters (all zero without faults).
    pub resilience: ResilienceSummary,
    /// Per-phase latency attribution (deterministic sim-time spans).
    pub phases: SpanTable,
    /// Per-edge critical-path attribution (who-blocks-whom blocking
    /// time along the causal chain).
    pub critpath: SpanTable,
}

impl RunReport {
    /// Classical wall time: everything that is not quantum execution.
    ///
    /// The paper's "classical execution time" speedups (Figs. 11a/12a)
    /// compare this quantity across systems.
    pub fn classical_time(&self) -> SimDuration {
        self.total.saturating_sub(self.breakdown.quantum)
    }

    /// Wall-time shares `[quantum, comm, pulse, host]` summing to 1.
    ///
    /// On an overlapped system, component busy times exceed the wall
    /// time; this view charges quantum execution its true wall share and
    /// splits the remaining (exposed classical) time across the classical
    /// components in proportion to their busy time — the presentation
    /// used by the paper's breakdown pies (Figs. 1b, 13, 17c).
    pub fn exposed_shares(&self) -> [f64; 4] {
        if self.total.is_zero() {
            return [0.0; 4];
        }
        let quantum = self
            .breakdown
            .quantum
            .min(self.total)
            .fraction_of(self.total);
        let classical_busy =
            self.breakdown.communication + self.breakdown.pulse_generation + self.breakdown.host;
        let rest = 1.0 - quantum;
        if classical_busy.is_zero() {
            return [quantum, 0.0, 0.0, rest];
        }
        let f = |d: SimDuration| rest * d.fraction_of(classical_busy);
        [
            quantum,
            f(self.breakdown.communication),
            f(self.breakdown.pulse_generation),
            f(self.breakdown.host),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_ns(v)
    }

    #[test]
    fn busy_total_sums_components() {
        let b = TimeBreakdown {
            quantum: ns(10),
            communication: ns(20),
            pulse_generation: ns(30),
            host: ns(40),
        };
        assert_eq!(b.busy_total(), ns(100));
    }

    #[test]
    fn shares_sum_to_busy_over_wall() {
        let b = TimeBreakdown {
            quantum: ns(50),
            communication: ns(25),
            pulse_generation: ns(15),
            host: ns(10),
        };
        let shares = b.shares_of(ns(100));
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_wall_yields_zero_shares() {
        let b = TimeBreakdown::default();
        assert_eq!(b.shares_of(SimDuration::ZERO), [0.0; 4]);
    }

    #[test]
    fn comm_breakdown_shares() {
        let c = CommBreakdown {
            q_set: ns(10),
            q_update: ns(30),
            q_acquire: ns(60),
            q_set_count: 1,
            q_update_count: 3,
            q_acquire_count: 6,
        };
        let s = c.shares();
        assert!((s[0] - 0.1).abs() < 1e-12);
        assert!((s[2] - 0.6).abs() < 1e-12);
        assert_eq!(c.total(), ns(100));
    }

    #[test]
    fn resilience_summary_totals_and_zero_check() {
        let mut r = ResilienceSummary::default();
        assert!(r.is_zero());
        assert_eq!(r.total_retries(), 0);
        r.bus_retries = 2;
        r.rbq_reclaims = 1;
        r.ecc_corrections = 3;
        assert_eq!(r.total_retries(), 6);
        assert!(!r.is_zero());
        r = ResilienceSummary {
            faults_injected: 1,
            ..ResilienceSummary::default()
        };
        assert!(!r.is_zero());
    }
}
