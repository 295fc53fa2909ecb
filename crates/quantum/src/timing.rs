//! Analytic circuit-duration model.
//!
//! The paper standardises quantum execution time on fixed gate durations:
//! 20 ns for single-qubit gates, 40 ns for two-qubit gates, and 600 ns for
//! measurement (Section 7.1). [`CircuitTiming`] computes a circuit's
//! duration under as-soon-as-possible scheduling: gates on disjoint qubits
//! run in parallel; a two-qubit gate starts when both operands are free.

use qtenon_sim_engine::SimDuration;

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Fixed gate durations (Section 7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateTimes {
    /// Single-qubit gate duration.
    pub single: SimDuration,
    /// Two-qubit gate duration.
    pub two: SimDuration,
    /// Measurement pulse duration (Section 7.1: 600 ns).
    pub measure: SimDuration,
    /// On-chip result processing after the measurement pulse — the paper
    /// charges "an equivalent duration to process the measurement
    /// result", i.e. another 600 ns.
    pub readout_processing: SimDuration,
}

impl Default for GateTimes {
    fn default() -> Self {
        GateTimes {
            single: SimDuration::from_ns(20),
            two: SimDuration::from_ns(40),
            measure: SimDuration::from_ns(600),
            readout_processing: SimDuration::from_ns(600),
        }
    }
}

impl GateTimes {
    /// The duration of one gate (measurement includes result processing).
    pub fn duration_of(&self, gate: &Gate) -> SimDuration {
        match gate {
            Gate::Measure => self.measure + self.readout_processing,
            g if g.arity() == 2 => self.two,
            _ => self.single,
        }
    }
}

/// Computed timing facts about one circuit execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitTiming {
    /// Wall-clock duration of one shot under ASAP scheduling.
    pub shot_duration: SimDuration,
    /// Sum of all gate durations (the sequential lower bound's complement:
    /// `total_gate_time / shot_duration` is the achieved parallelism).
    pub total_gate_time: SimDuration,
    /// Longest single-qubit critical path.
    pub critical_path_gates: usize,
}

impl CircuitTiming {
    /// Computes timing for a (bound or symbolic) circuit. Only gate
    /// *kinds* matter, so symbolic circuits time identically to bound
    /// ones.
    pub fn of(circuit: &Circuit, times: &GateTimes) -> CircuitTiming {
        let n = circuit.n_qubits() as usize;
        let mut free_at = vec![SimDuration::ZERO; n];
        let mut gates_on_path = vec![0usize; n];
        let mut total = SimDuration::ZERO;
        for op in circuit.operations() {
            let d = times.duration_of(&op.gate);
            total += d;
            match op.qubit2 {
                Some(q2) => {
                    let start = free_at[op.qubit as usize].max(free_at[q2 as usize]);
                    let path = gates_on_path[op.qubit as usize].max(gates_on_path[q2 as usize]) + 1;
                    let end = start + d;
                    free_at[op.qubit as usize] = end;
                    free_at[q2 as usize] = end;
                    gates_on_path[op.qubit as usize] = path;
                    gates_on_path[q2 as usize] = path;
                }
                None => {
                    free_at[op.qubit as usize] += d;
                    gates_on_path[op.qubit as usize] += 1;
                }
            }
        }
        CircuitTiming {
            shot_duration: free_at.into_iter().max().unwrap_or(SimDuration::ZERO),
            total_gate_time: total,
            critical_path_gates: gates_on_path.into_iter().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_ns(v)
    }

    #[test]
    fn default_times_match_paper() {
        let t = GateTimes::default();
        assert_eq!(t.single, ns(20));
        assert_eq!(t.two, ns(40));
        assert_eq!(t.measure, ns(600));
    }

    #[test]
    fn parallel_gates_overlap() {
        let mut c = Circuit::new(2);
        c.rx(0, 0.1).rx(1, 0.1);
        let t = CircuitTiming::of(&c, &GateTimes::default());
        assert_eq!(t.shot_duration, ns(20));
        assert_eq!(t.total_gate_time, ns(40));
    }

    #[test]
    fn sequential_gates_accumulate() {
        let mut c = Circuit::new(1);
        c.rx(0, 0.1).ry(0, 0.2).rz(0, 0.3);
        let t = CircuitTiming::of(&c, &GateTimes::default());
        assert_eq!(t.shot_duration, ns(60));
        assert_eq!(t.critical_path_gates, 3);
    }

    #[test]
    fn two_qubit_gate_waits_for_both_operands() {
        let mut c = Circuit::new(2);
        c.rx(0, 0.1).rx(0, 0.1); // qubit 0 busy until 40 ns
        c.cz(0, 1); // starts at 40 ns, ends at 80 ns
        let t = CircuitTiming::of(&c, &GateTimes::default());
        assert_eq!(t.shot_duration, ns(80));
    }

    #[test]
    fn measurement_dominates_small_circuits() {
        let mut c = Circuit::new(1);
        c.rx(0, 1.0).measure(0);
        let t = CircuitTiming::of(&c, &GateTimes::default());
        assert_eq!(t.shot_duration, ns(1220)); // 20 + 600 pulse + 600 processing
    }

    #[test]
    fn shots_scale_linearly() {
        let mut c = Circuit::new(1);
        c.measure(0);
        let t = CircuitTiming::of(&c, &GateTimes::default());
        assert_eq!(t.shot_duration, ns(1200));
        assert_eq!(t.shot_duration * 500, ns(1200 * 500));
    }

    #[test]
    fn empty_circuit_has_zero_duration() {
        let c = Circuit::new(4);
        let t = CircuitTiming::of(&c, &GateTimes::default());
        assert_eq!(t.shot_duration, SimDuration::ZERO);
        assert_eq!(t.critical_path_gates, 0);
    }

    #[test]
    fn symbolic_and_bound_time_identically() {
        use crate::gate::ParamId;
        let mut sym = Circuit::new(2);
        sym.ry_param(0, ParamId::new(0)).cz(0, 1).measure_all();
        let bound = sym.bind(&[0.7]).unwrap();
        let times = GateTimes::default();
        assert_eq!(
            CircuitTiming::of(&sym, &times),
            CircuitTiming::of(&bound, &times)
        );
    }
}
