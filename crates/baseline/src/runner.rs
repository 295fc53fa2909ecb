//! Sequential end-to-end execution on the decoupled baseline.

use qtenon_compiler::{BaselineCompiler, BaselineCompilerConfig};
use qtenon_core::report::{CommBreakdown, RunReport, TimeBreakdown};
use qtenon_core::SystemError;
use qtenon_quantum::sim::Simulator;
use qtenon_quantum::{CircuitTiming, GateTimes};
use qtenon_sim_engine::{CritPathTracker, OpCounter, SimDuration, SimTime};
use qtenon_workloads::{evaluate_cost, Optimizer, Workload};

use crate::host_model::BaselineHostModel;
use crate::network::NetworkModel;

/// Configuration of the decoupled baseline system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Ethernet/UDP link.
    pub network: NetworkModel,
    /// Host cost model.
    pub host: BaselineHostModel,
    /// JIT compiler costs.
    pub compiler: BaselineCompilerConfig,
    /// FPGA pulse generation latency per pulse (Section 7.1: 1000 ns,
    /// sequential — the FPGA has no SLT and no pulse reuse).
    pub fpga_pulse_latency: SimDuration,
    /// ADI latency per direction.
    pub adi_latency: SimDuration,
    /// Quantum gate durations (same chip as Qtenon).
    pub gate_times: GateTimes,
    /// Chip sampling seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            network: NetworkModel::default(),
            host: BaselineHostModel::default(),
            compiler: BaselineCompilerConfig::default(),
            fpga_pulse_latency: SimDuration::from_ns(1_000),
            adi_latency: SimDuration::from_ns(100),
            gate_times: GateTimes::default(),
            seed: 0x51,
        }
    }
}

/// What one baseline step charges: the time slot its duration lands
/// in, and the critical-path hand-off that ends it.
struct Step {
    slot: fn(&mut Ledger) -> &mut SimDuration,
    edge: &'static str,
}

/// JIT recompile from scratch (no incremental path).
const COMPILE: Step = Step {
    slot: |l| &mut l.breakdown.host,
    edge: "readout->host",
};
/// Upload the binary over Ethernet.
const UPLOAD: Step = Step {
    slot: |l| &mut l.comm.q_set,
    edge: "host->bus",
};
/// FPGA pulse generation: every pulse, sequentially.
const PULSES: Step = Step {
    slot: |l| &mut l.breakdown.pulse_generation,
    edge: "pgu->pipeline",
};
/// Quantum execution behind the ADI.
const QUANTUM: Step = Step {
    slot: |l| &mut l.breakdown.quantum,
    edge: "pipeline->chip",
};
/// Stream per-shot readout packets back to the host.
const DOWNLOAD: Step = Step {
    slot: |l| &mut l.comm.q_acquire,
    edge: "chip->readout",
};
/// Host work on a result: post-processing through the software stack,
/// or the optimizer update.
const HOST: Step = Step {
    slot: |l| &mut l.breakdown.host,
    edge: "readout->host",
};

/// The baseline's time ledger. The system is strictly sequential: every
/// step blocks the next, so the causal chain is the whole timeline and
/// each step's hand-off lands at the running total.
#[derive(Default)]
struct Ledger {
    total: SimDuration,
    breakdown: TimeBreakdown,
    comm: CommBreakdown,
    critpath: CritPathTracker,
}

impl Ledger {
    /// Charges `d` to `step`'s slot and the running total, and advances
    /// the critical path along the step's edge.
    fn charge(&mut self, step: &Step, d: SimDuration) {
        *(step.slot)(self) += d;
        self.total += d;
        let edge = self.critpath.edge(step.edge);
        self.critpath.advance(edge, SimTime::ZERO + self.total);
    }
}

/// Executes hybrid workloads on the decoupled baseline, producing the
/// same [`RunReport`] shape as the Qtenon runner.
///
/// # Examples
///
/// ```
/// use qtenon_baseline::{BaselineConfig, BaselineRunner};
/// use qtenon_workloads::{SpsaOptimizer, Workload};
///
/// let workload = Workload::qaoa(8, 2, 7)?;
/// let mut runner = BaselineRunner::new(BaselineConfig::default(), workload);
/// let report = runner.run(&mut SpsaOptimizer::new(7), 2, 50)?;
/// // Decoupled execution: communication dominates (Fig. 1).
/// assert!(report.comm.total() > report.breakdown.quantum);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BaselineRunner {
    config: BaselineConfig,
    workload: Workload,
    simulator: Simulator,
}

impl std::fmt::Debug for BaselineRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineRunner")
            .field("workload", &self.workload.kind)
            .field("n_qubits", &self.workload.n_qubits())
            .finish()
    }
}

impl BaselineRunner {
    /// Creates a runner for a workload.
    pub fn new(config: BaselineConfig, workload: Workload) -> Self {
        let simulator = Simulator::fast(workload.n_qubits(), config.seed);
        BaselineRunner {
            config,
            workload,
            simulator,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Runs `iterations` optimizer iterations at `shots` shots per
    /// evaluation, strictly sequentially.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Quantum`] for simulation failures.
    pub fn run(
        &mut self,
        optimizer: &mut dyn Optimizer,
        iterations: usize,
        shots: u64,
    ) -> Result<RunReport, SystemError> {
        let cfg = self.config;
        let jit = BaselineCompiler::new(cfg.compiler);
        let mut ledger = Ledger::default();
        ledger.critpath.open_at(SimTime::ZERO);
        let mut host_ops_total = OpCounter::new();
        let mut dynamic_instructions = 0u64;
        let mut pulses_generated = 0u64;
        let mut evaluations = 0u64;
        let mut cost_history = Vec::with_capacity(iterations);
        let bytes_per_shot = (self.workload.n_qubits() as u64).div_ceil(8);

        let mut params = self.workload.initial_params.clone();
        for _iter in 0..iterations {
            let plan = optimizer.iteration_plan(&params);
            let mut evals = Vec::with_capacity(plan.len());
            for eval_params in &plan {
                let bound = self.workload.circuit.bind(eval_params)?;
                let compiled = jit.compile(&bound);
                dynamic_instructions += compiled.instruction_count;
                ledger.charge(&COMPILE, compiled.compile_time);

                ledger.charge(&UPLOAD, cfg.network.message_time(compiled.binary_bytes));

                pulses_generated += compiled.pulses_required;
                ledger.charge(&PULSES, cfg.fpga_pulse_latency * compiled.pulses_required);

                let timing = CircuitTiming::of(&bound, &cfg.gate_times);
                ledger.charge(&QUANTUM, cfg.adi_latency * 2 + timing.shot_duration * shots);
                let results = self.simulator.run(&bound, shots)?;

                ledger.charge(&DOWNLOAD, cfg.network.stream_time(shots, bytes_per_shot));

                let mut ops = OpCounter::new();
                let cost = evaluate_cost(&self.workload.hamiltonian, &results, &mut ops);
                ledger.charge(&HOST, cfg.host.duration_for(&ops));
                host_ops_total += ops;
                evals.push(cost);
                evaluations += 1;
            }
            let mut ops = OpCounter::new();
            params = optimizer.update(&params, &plan, &evals, &mut ops);
            ledger.charge(&HOST, cfg.host.duration_for(&ops));
            host_ops_total += ops;
            let mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
            cost_history.push(mean);
        }

        // One binary upload and one readout packet per shot, per evaluation.
        let comm = CommBreakdown {
            q_set_count: evaluations,
            q_acquire_count: evaluations * shots,
            ..ledger.comm
        };
        let final_cost = cost_history.last().copied().unwrap_or(f64::NAN);
        Ok(RunReport {
            total: ledger.total,
            breakdown: TimeBreakdown {
                communication: comm.total(),
                ..ledger.breakdown
            },
            comm,
            dynamic_instructions,
            static_instructions: dynamic_instructions / (iterations as u64 * 2).max(1), // one compile's worth
            pulses_generated,
            slt: Default::default(),
            host_cycles: qtenon_core::host::HostCoreModel::new(
                qtenon_core::config::CoreModel::Rocket,
            )
            .cycles_for(&host_ops_total),
            cost_history,
            final_cost,
            pulse_reduction: 0.0,
            resilience: Default::default(),
            phases: Default::default(),
            critpath: ledger.critpath.report(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_workloads::{GradientDescentOptimizer, SpsaOptimizer, WorkloadKind};

    fn run_baseline(kind: WorkloadKind, n: u32) -> RunReport {
        let workload = Workload::benchmark(kind, n, 11).unwrap();
        let mut runner = BaselineRunner::new(BaselineConfig::default(), workload);
        runner.run(&mut SpsaOptimizer::new(5), 2, 100).unwrap()
    }

    #[test]
    fn quantum_is_minor_fraction_of_total() {
        // Fig. 1a: quantum execution is a small share on the baseline.
        let report = run_baseline(WorkloadKind::Vqe, 8);
        let share = report.breakdown.quantum.fraction_of(report.total);
        assert!(share < 0.35, "quantum share {share}");
    }

    #[test]
    fn total_is_sum_of_parts() {
        // Sequential system: no overlap, wall time = Σ busy times.
        let report = run_baseline(WorkloadKind::Qaoa, 8);
        assert_eq!(report.total, report.breakdown.busy_total());
    }

    #[test]
    fn recompiles_every_evaluation() {
        let workload = Workload::qaoa(8, 2, 1).unwrap();
        let per_compile = BaselineCompiler::new(BaselineCompilerConfig::default())
            .compile(&workload.circuit.bind(&workload.initial_params).unwrap())
            .instruction_count;
        let mut runner = BaselineRunner::new(BaselineConfig::default(), workload);
        let report = runner.run(&mut SpsaOptimizer::new(5), 3, 10).unwrap();
        // 3 iterations × 2 SPSA evals = 6 compiles.
        assert_eq!(report.dynamic_instructions, 6 * per_compile);
        assert_eq!(report.pulse_reduction, 0.0);
    }

    #[test]
    fn gd_pays_more_communication_than_spsa() {
        // Fig. 14: GD's per-parameter rounds multiply communication.
        let workload = Workload::vqe(8, 1).unwrap();
        let gd = BaselineRunner::new(BaselineConfig::default(), workload.clone())
            .run(&mut GradientDescentOptimizer::new(0.05), 2, 20)
            .unwrap();
        let spsa = BaselineRunner::new(BaselineConfig::default(), workload)
            .run(&mut SpsaOptimizer::new(5), 2, 20)
            .unwrap();
        assert!(gd.comm.total() > 4 * spsa.comm.total());
    }

    #[test]
    fn communication_in_table1_band() {
        // Per-evaluation round-trip lands in the ~1–10 ms decoupled band.
        let report = run_baseline(WorkloadKind::Qaoa, 8);
        let evals = 2 * 2; // SPSA, 2 iterations
        let per_eval = report.comm.total() / evals;
        assert!(per_eval >= SimDuration::from_us(300), "per_eval={per_eval}");
        assert!(per_eval <= SimDuration::from_ms(10), "per_eval={per_eval}");
    }

    #[test]
    fn critical_path_edges_match_the_components_they_charge() {
        // Strictly sequential: every step is on the path, so each edge's
        // on-path time is the component it charges, up to the per-
        // traversal nanosecond truncation of the critical-path report.
        for (kind, n) in [
            (WorkloadKind::Qaoa, 8),
            (WorkloadKind::Vqe, 16),
            (WorkloadKind::Qnn, 8),
        ] {
            let optimizers: [Box<dyn Optimizer>; 2] = [
                Box::new(SpsaOptimizer::new(5)),
                Box::new(GradientDescentOptimizer::new(0.05)),
            ];
            for mut optimizer in optimizers {
                let workload = Workload::benchmark(kind, n, 11).unwrap();
                let r = BaselineRunner::new(BaselineConfig::default(), workload)
                    .run(optimizer.as_mut(), 2, 20)
                    .unwrap();
                for (edge, component) in [
                    ("readout->host", r.breakdown.host),
                    ("host->bus", r.comm.q_set),
                    ("pgu->pipeline", r.breakdown.pulse_generation),
                    ("pipeline->chip", r.breakdown.quantum),
                    ("chip->readout", r.comm.q_acquire),
                ] {
                    let row = r.critpath.row(edge).unwrap();
                    let component_ns = component.as_ps() / 1_000;
                    assert!(
                        row.total_ns <= component_ns && component_ns - row.total_ns <= row.count,
                        "{kind:?}-{n} {edge}: on-path {} ns over {} traversals vs {component_ns} ns",
                        row.total_ns,
                        row.count
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_baseline(WorkloadKind::Qnn, 8);
        let b = run_baseline(WorkloadKind::Qnn, 8);
        assert_eq!(a.total, b.total);
        assert_eq!(a.cost_history, b.cost_history);
    }
}
