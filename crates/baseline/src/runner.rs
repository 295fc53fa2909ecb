//! Sequential end-to-end execution on the decoupled baseline.

use qtenon_compiler::{BaselineCompiler, BaselineCompilerConfig};
use qtenon_core::report::{CommBreakdown, RunReport, TimeBreakdown};
use qtenon_core::{SystemError, Trajectory};
use qtenon_quantum::{CircuitTiming, GateTimes};
use qtenon_sim_engine::{CritPathTracker, OpCounter, SimDuration, SimTime};
use qtenon_workloads::optimizer::plan_lengths;
use qtenon_workloads::{CostEvaluator, Workload};

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

/// Times hybrid workloads on the decoupled baseline, producing the same
/// [`RunReport`] shape as the Qtenon runner.
///
/// The baseline runs no physics of its own. It times the [`Trajectory`]
/// a [`VqaRunner`](qtenon_core::VqaRunner) run of the same workload
/// recorded: every charge depends only on the circuit's structure, the
/// shot count and each iteration's evaluation count and optimizer ops,
/// and the cost history is the trajectory's.
///
/// # Examples
///
/// ```
/// use qtenon_baseline::{BaselineConfig, BaselineRunner};
/// use qtenon_core::{CoreModel, QtenonConfig, VqaRunner};
/// use qtenon_workloads::{SpsaOptimizer, Workload};
///
/// let workload = Workload::qaoa(8, 2, 7)?;
/// let config = QtenonConfig::table4(8, CoreModel::Rocket)?;
/// let mut qtenon = VqaRunner::new(config, workload.clone())?;
/// qtenon.run(&mut SpsaOptimizer::new(7), 2, 50)?;
/// let baseline = BaselineRunner::new(BaselineConfig::default(), workload);
/// let report = baseline.run(qtenon.trajectory())?;
/// // Decoupled execution: communication dominates (Fig. 1).
/// assert!(report.comm.total() > report.breakdown.quantum);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BaselineRunner {
    config: BaselineConfig,
    workload: Workload,
}

impl BaselineRunner {
    /// Creates a runner for a workload.
    pub fn new(config: BaselineConfig, workload: Workload) -> Self {
        BaselineRunner { config, workload }
    }

    /// Times `trajectory` strictly sequentially: per evaluation a JIT
    /// recompile, upload, pulse generation, quantum run, download and
    /// cost evaluation, then per iteration the optimizer step.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Config`] if the trajectory is of another
    /// width or parameter count, or holds an iteration whose evaluation
    /// count no plan over this workload's parameters makes.
    pub fn run(&self, trajectory: &Trajectory) -> Result<RunReport, SystemError> {
        let n_qubits = self.workload.n_qubits();
        let params = self.workload.num_params();
        let plans = plan_lengths(params);
        let fits = trajectory
            .iterations
            .iter()
            .all(|it| plans.contains(&it.evaluations));
        if trajectory.n_qubits != n_qubits || trajectory.n_params != params || !fits {
            return Err(SystemError::Config(format!(
                "the trajectory is not a run of this {n_qubits}-qubit, {params}-parameter workload"
            )));
        }
        let cfg = self.config;
        let shots = trajectory.shots;
        // Neither the compile nor the circuit timing reads an angle, so
        // every evaluation compiles and runs alike.
        let compiled = BaselineCompiler::new(cfg.compiler).compile(&self.workload.circuit);
        let timing = CircuitTiming::of(&self.workload.circuit, &cfg.gate_times);
        let mut eval_ops = OpCounter::new();
        CostEvaluator::new(&self.workload.hamiltonian).record_ops(shots, &mut eval_ops);
        let upload = cfg.network.message_time(compiled.binary_bytes);
        let pulses = cfg.fpga_pulse_latency * compiled.pulses_required;
        let quantum = cfg.adi_latency * 2 + timing.shot_duration * shots;
        let bytes_per_shot = (n_qubits as u64).div_ceil(8);
        let download = cfg.network.stream_time(shots, bytes_per_shot);
        let post = cfg.host.duration_for(&eval_ops);

        let mut ledger = Ledger::default();
        ledger.critpath.open_at(SimTime::ZERO);
        let mut evaluations = 0u64;
        for it in &trajectory.iterations {
            for _ in 0..it.evaluations {
                ledger.charge(&COMPILE, compiled.compile_time);
                ledger.charge(&UPLOAD, upload);
                ledger.charge(&PULSES, pulses);
                ledger.charge(&QUANTUM, quantum);
                ledger.charge(&DOWNLOAD, download);
                ledger.charge(&HOST, post);
            }
            evaluations += it.evaluations as u64;
            ledger.charge(&HOST, cfg.host.duration_for(&it.optimizer_ops));
        }

        // One binary upload and one readout packet per shot, per evaluation.
        let comm = CommBreakdown {
            q_set_count: evaluations,
            q_acquire_count: evaluations * shots,
            ..ledger.comm
        };
        Ok(RunReport {
            total: ledger.total,
            breakdown: TimeBreakdown {
                communication: comm.total(),
                ..ledger.breakdown
            },
            comm,
            dynamic_instructions: evaluations * compiled.instruction_count,
            static_instructions: compiled.instruction_count,
            pulses_generated: evaluations * compiled.pulses_required,
            slt: Default::default(),
            cost_history: trajectory.cost_history(),
            final_cost: trajectory.final_cost(),
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
    use qtenon_core::{CoreModel, QtenonConfig, VqaRunner};
    use qtenon_workloads::{
        GradientDescentOptimizer, Optimizer, SpsaOptimizer, Workload, WorkloadKind,
    };

    /// The trajectory of a Qtenon run of `workload`.
    fn record(
        workload: &Workload,
        optimizer: &mut dyn Optimizer,
        iterations: usize,
        shots: u64,
    ) -> Trajectory {
        let config = QtenonConfig::table4(workload.n_qubits(), CoreModel::Rocket).unwrap();
        let mut runner = VqaRunner::new(config, workload.clone()).unwrap();
        runner.run(optimizer, iterations, shots).unwrap();
        runner.trajectory().clone()
    }

    /// `workload` recorded under `optimizer` and timed on the baseline.
    fn time(
        workload: Workload,
        optimizer: &mut dyn Optimizer,
        iterations: usize,
        shots: u64,
    ) -> RunReport {
        let trajectory = record(&workload, optimizer, iterations, shots);
        BaselineRunner::new(BaselineConfig::default(), workload)
            .run(&trajectory)
            .unwrap()
    }

    fn run_baseline(kind: WorkloadKind, n: u32) -> RunReport {
        let workload = Workload::benchmark(kind, n, 11).unwrap();
        time(workload, &mut SpsaOptimizer::new(5), 2, 100)
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

    fn per_compile(workload: &Workload) -> u64 {
        BaselineCompiler::new(BaselineCompilerConfig::default())
            .compile(&workload.circuit)
            .instruction_count
    }

    #[test]
    fn recompiles_every_evaluation() {
        let workload = Workload::qaoa(8, 2, 1).unwrap();
        let per_compile = per_compile(&workload);
        let report = time(workload, &mut SpsaOptimizer::new(5), 3, 10);
        // 3 iterations × 2 SPSA evals = 6 compiles.
        assert_eq!(report.dynamic_instructions, 6 * per_compile);
        assert_eq!(report.pulse_reduction, 0.0);
    }

    #[test]
    fn static_instructions_are_one_compile_under_gd() {
        // GD's parameter-shift plan makes 2P evaluations per iteration,
        // yet the program text is still one compile's worth.
        let workload = Workload::qaoa(8, 2, 1).unwrap();
        let per_compile = per_compile(&workload);
        let report = time(workload, &mut GradientDescentOptimizer::new(0.05), 2, 10);
        assert_eq!(report.static_instructions, per_compile);
        assert_eq!(report.dynamic_instructions, 2 * 8 * per_compile);
    }

    #[test]
    fn mismatched_trajectory_is_a_config_error() {
        let qaoa = Workload::qaoa(8, 2, 1).unwrap();
        let trajectory = record(&qaoa, &mut SpsaOptimizer::new(5), 2, 10);
        let runner = |w: Workload| BaselineRunner::new(BaselineConfig::default(), w);
        assert!(runner(qaoa.clone()).run(&trajectory).is_ok());

        // Another width.
        let wide = Workload::qaoa(10, 2, 1).unwrap();
        assert!(matches!(
            runner(wide).run(&trajectory),
            Err(SystemError::Config(_))
        ));

        // An evaluation count neither SPSA (2) nor GD (2 × 4 parameters)
        // makes.
        for evaluations in [0, 3, 7] {
            let mut bad = trajectory.clone();
            bad.iterations[1].evaluations = evaluations;
            assert!(matches!(
                runner(qaoa.clone()).run(&bad),
                Err(SystemError::Config(_))
            ));
        }

        // Another workload of the same width: the benchmark QAOA-8 has 10
        // parameters, VQE-8 32, and SPSA's 2 evaluations fit both.
        let (qaoa, vqe) = (
            Workload::benchmark(WorkloadKind::Qaoa, 8, 1).unwrap(),
            Workload::benchmark(WorkloadKind::Vqe, 8, 1).unwrap(),
        );
        assert_eq!((qaoa.num_params(), vqe.num_params()), (10, 32));
        let trajectory = record(&qaoa, &mut SpsaOptimizer::new(5), 2, 10);
        assert!(runner(qaoa).run(&trajectory).is_ok());
        assert!(matches!(
            runner(vqe).run(&trajectory),
            Err(SystemError::Config(_))
        ));
    }

    #[test]
    fn gd_pays_more_communication_than_spsa() {
        // Fig. 14: GD's per-parameter rounds multiply communication.
        let workload = Workload::vqe(8, 1).unwrap();
        let gd = time(
            workload.clone(),
            &mut GradientDescentOptimizer::new(0.05),
            2,
            20,
        );
        let spsa = time(workload, &mut SpsaOptimizer::new(5), 2, 20);
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
                let r = time(workload, optimizer.as_mut(), 2, 20);
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
