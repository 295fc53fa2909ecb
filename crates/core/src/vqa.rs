//! End-to-end hybrid quantum-classical algorithm execution on Qtenon.
//!
//! [`VqaRunner`] reproduces the paper's runtime protocol:
//!
//! 1. **Setup** (once): compile the circuit to per-qubit program entries,
//!    `q_set` the chunks, `q_update` every register slot, and `q_gen` the
//!    cold pulse set.
//! 2. **Per evaluation**: incremental compilation diffs the parameter
//!    vector and issues only the changed `q_update`s; `q_gen` re-walks the
//!    program but the SLT skips every unchanged pulse; `q_run` executes
//!    the shots while — under fine-grained synchronisation — measurement
//!    batches stream back per Algorithm 1 and the host post-processes
//!    them concurrently (Fig. 9b). Under FENCE everything serialises
//!    (Fig. 9a).
//! 3. **Per iteration**: the optimizer consumes the evaluated costs and
//!    produces the next parameter vector on the host core model.

use std::sync::Arc;

use qtenon_compiler::cache::PulseSchedule;
use qtenon_compiler::{
    CachedProgram, CompilationCache, CompiledProgram, ParameterDiff, QtenonCompiler,
};
use qtenon_isa::Instruction;
use qtenon_quantum::{Circuit, CircuitTiming};
use qtenon_sim_engine::{
    MetricsRegistry, OpClass, OpCounter, PhaseId, Profiler, SimDuration, SimTime, SpanStats,
};
use qtenon_workloads::cost::{CostEvaluator, BLOCK_SHOTS};
use qtenon_workloads::{Optimizer, Workload};

use crate::config::{QtenonConfig, SyncMode, TransmissionPolicy};
use crate::report::{CommBreakdown, RunReport, TimeBreakdown};
use crate::schedule::TransmissionPlan;
use crate::system::QtenonSystem;
use crate::SystemError;

/// Host memory address where the program image lives.
const HOST_PROGRAM_ADDR: u64 = 0x8000_0000;
/// Host memory address where `q_acquire` writes measurement results.
const HOST_RESULT_ADDR: u64 = 0x9000_0000;

/// Per-batch host handshake cost (barrier query, buffer management,
/// loop control) in abstract ops — paid once per PUT the host consumes,
/// which is why Algorithm 1's batching shows up as host-time savings.
fn batch_overhead_ops(ops: &mut OpCounter) {
    ops.record(OpClass::IntAlu, 400);
    ops.record(OpClass::Mem, 250);
    ops.record(OpClass::Branch, 120);
}

/// Pre-interned phase ids for the iteration-level attribution spans the
/// runner records into the system's profiler.
#[derive(Clone, Copy)]
struct VqaPhases {
    setup: PhaseId,
    compile_patch: PhaseId,
    upload: PhaseId,
    pulse_gen: PhaseId,
    quantum_execute: PhaseId,
    readout_drain: PhaseId,
    host_post: PhaseId,
    optimizer_step: PhaseId,
}

impl VqaPhases {
    fn intern(profiler: &mut Profiler) -> Self {
        VqaPhases {
            setup: profiler.phase("vqa.setup"),
            compile_patch: profiler.phase("vqa.compile_patch"),
            upload: profiler.phase("vqa.upload"),
            pulse_gen: profiler.phase("vqa.pulse_gen"),
            quantum_execute: profiler.phase("vqa.quantum_execute"),
            readout_drain: profiler.phase("vqa.readout_drain"),
            host_post: profiler.phase("vqa.host_post"),
            optimizer_step: profiler.phase("vqa.optimizer_step"),
        }
    }

    /// The run's component busy times, read off the picosecond-exact
    /// phase totals plus the communication ledger.
    fn breakdown(self, profiler: &Profiler, comm: CommBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            quantum: profiler.total(self.quantum_execute),
            communication: comm.total(),
            pulse_generation: profiler.total(self.pulse_gen),
            host: profiler.total(self.compile_patch)
                + profiler.total(self.host_post)
                + profiler.total(self.optimizer_step),
        }
    }
}

/// Where a cooperatively-enforced deadline left a run: either it never
/// fired (`hit == false`, all requested iterations ran) or the loop
/// stopped at an iteration boundary with partial progress.
///
/// Deadlines are *sim-time* budgets checked between iterations, so a
/// deadline can only cut the loop at a boundary — mid-iteration state is
/// never torn, and the partial report is exactly the report a shorter
/// run would have produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineStatus {
    /// True when the deadline fired before all iterations completed.
    pub hit: bool,
    /// Iterations that fully completed before the loop stopped.
    pub completed_iterations: usize,
    /// Iterations originally requested.
    pub requested_iterations: usize,
}

/// One completed optimizer iteration, as a timing model needs it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationRecord {
    /// Evaluations the iteration's plan made.
    pub evaluations: usize,
    /// Host work of the optimizer step.
    pub optimizer_ops: OpCounter,
    /// Mean cost over the iteration's evaluations.
    pub mean_cost: f64,
}

/// A run's physics (bind → sample → cost → optimizer step), one record per
/// completed iteration: the decoupled baseline times it, never re-runs it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trajectory {
    /// Width of the workload that ran.
    pub n_qubits: u32,
    /// Parameter count of the workload that ran.
    pub n_params: usize,
    /// Shots per evaluation.
    pub shots: u64,
    /// The completed iterations, in order.
    pub iterations: Vec<IterationRecord>,
}

impl Trajectory {
    /// Each completed iteration's mean cost.
    pub fn cost_history(&self) -> Vec<f64> {
        self.iterations.iter().map(|it| it.mean_cost).collect()
    }

    /// The last iteration's mean cost, or NaN if none completed.
    pub fn final_cost(&self) -> f64 {
        self.iterations.last().map_or(f64::NAN, |it| it.mean_cost)
    }
}

/// The runner's handle on a shared compilation cache: the cache itself
/// plus the keyed program it compiled through it.
struct CacheBinding {
    cache: Arc<CompilationCache>,
    program: CachedProgram,
}

/// Executes hybrid workloads on a [`QtenonSystem`].
pub struct VqaRunner {
    system: QtenonSystem,
    workload: Workload,
    program: Arc<CompiledProgram>,
    cache: Option<CacheBinding>,
    /// The circuit's shot timing: every binding times like the symbolic
    /// circuit, so it is computed once per runner.
    timing: CircuitTiming,
    /// The workload Hamiltonian's term table, built once per runner.
    evaluator: CostEvaluator,
    /// Evaluation and iteration latencies of the most recent run.
    evaluations: SpanStats,
    iterations: SpanStats,
    /// The most recent run's physics.
    trajectory: Trajectory,
    /// Fine-grained PUT batches drained, summed over evaluations.
    des_puts: u64,
    /// The most PUT batches in one evaluation.
    des_high_water: u64,
}

impl std::fmt::Debug for VqaRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VqaRunner")
            .field("workload", &self.workload.kind)
            .field("n_qubits", &self.workload.n_qubits())
            .finish()
    }
}

impl VqaRunner {
    /// Compiles `workload` for `config` and builds the system.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for configuration or compilation failures.
    pub fn new(config: QtenonConfig, workload: Workload) -> Result<Self, SystemError> {
        Self::build(config, workload, None)
    }

    /// Like [`new`](Self::new), but compiles through `cache`: an
    /// identical circuit/layout pair already cached — by this runner or
    /// any other sharing the cache — skips compilation entirely, and
    /// pulse work-item streams are shared per encoded parameter vector.
    /// Hits return byte-identical artefacts to cold compiles, so reports
    /// never depend on cache state.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for configuration or compilation failures.
    pub(crate) fn with_cache(
        config: QtenonConfig,
        workload: Workload,
        cache: Arc<CompilationCache>,
    ) -> Result<Self, SystemError> {
        Self::build(config, workload, Some(cache))
    }

    fn build(
        config: QtenonConfig,
        workload: Workload,
        cache: Option<Arc<CompilationCache>>,
    ) -> Result<Self, SystemError> {
        if workload.n_qubits() != config.n_qubits {
            return Err(SystemError::Config(format!(
                "workload is {}-qubit but system is {}-qubit",
                workload.n_qubits(),
                config.n_qubits
            )));
        }
        let (program, cache) = match cache {
            Some(shared) => {
                let cached = shared.compile(config.layout, &workload.circuit)?;
                (
                    Arc::clone(cached.program()),
                    Some(CacheBinding {
                        cache: shared,
                        program: cached,
                    }),
                )
            }
            None => (
                Arc::new(QtenonCompiler::new(config.layout).compile(&workload.circuit)?),
                None,
            ),
        };
        Ok(VqaRunner {
            timing: CircuitTiming::of(&workload.circuit, &config.gate_times),
            system: QtenonSystem::new(config)?,
            evaluator: CostEvaluator::new(&workload.hamiltonian),
            workload,
            program,
            cache,
            evaluations: SpanStats::default(),
            iterations: SpanStats::default(),
            trajectory: Trajectory::default(),
            des_puts: 0,
            des_high_water: 0,
        })
    }

    /// Resolves the pulse work-item stream for `params`, whose slot codes
    /// are `codes` — through the cache when one is attached, generating
    /// directly from the codes otherwise.
    fn resolve_work_items(
        &self,
        params: &[f64],
        codes: &[u32],
    ) -> Result<PulseSchedule, SystemError> {
        match &self.cache {
            Some(binding) => {
                let pulses = binding.cache.work_items(&binding.program, params)?;
                Ok(Arc::clone(pulses.items()))
            }
            None => Ok(Arc::new(self.program.work_items_for_codes(codes)?)),
        }
    }

    /// Resolves the parameter-bound circuit for `params` — through the
    /// cache when one is attached, binding directly otherwise. Binding
    /// is pure, so both paths produce identical circuits.
    fn resolve_bound(&self, params: &[f64]) -> Result<Arc<Circuit>, SystemError> {
        match &self.cache {
            Some(binding) => {
                let bound = binding.cache.bound_circuit(&binding.program, params)?;
                Ok(Arc::clone(bound.circuit()))
            }
            None => Ok(Arc::new(self.workload.circuit.bind(params)?)),
        }
    }

    /// The underlying system (for inspection).
    pub fn system(&self) -> &QtenonSystem {
        &self.system
    }

    /// Registers the full system metric tree plus runner-level
    /// `core.vqa.*` statistics from the most recent [`run`](Self::run).
    pub fn export_metrics(&self, m: &mut MetricsRegistry) {
        self.system.export_metrics(m);
        m.histogram("core.vqa.eval_latency_ns", self.evaluations.hist());
        m.histogram("core.vqa.iteration_latency_ns", self.iterations.hist());
        m.gauge("core.vqa.final_cost", self.trajectory.final_cost());
        // PUT batch tallies. Every batch scheduled is drained within its
        // evaluation, so no dispatch count or queue depth is exported.
        m.counter("profile.des.puts_scheduled", self.des_puts);
        m.counter("profile.des.put_queue_high_water", self.des_high_water);
    }

    /// The trajectory of the most recent [`run`](Self::run).
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// Runs `iterations` optimizer iterations at `shots` shots per
    /// evaluation and returns the full report.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for any component failure.
    pub fn run(
        &mut self,
        optimizer: &mut dyn Optimizer,
        iterations: usize,
        shots: u64,
    ) -> Result<RunReport, SystemError> {
        self.run_with_deadline(optimizer, iterations, shots, None)
            .map(|(report, _)| report)
    }

    /// Like [`run`](Self::run), but stops the optimisation loop at the
    /// first iteration boundary at or past `deadline` (a sim-time budget
    /// measured from the run's t=0, setup included). Returns the report
    /// for the iterations that did complete plus a [`DeadlineStatus`]
    /// saying whether — and how far in — the deadline fired.
    ///
    /// With `deadline == None` this is byte-identical to `run`: the
    /// check never executes and no state differs.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for any component failure.
    pub fn run_with_deadline(
        &mut self,
        optimizer: &mut dyn Optimizer,
        iterations: usize,
        shots: u64,
        deadline: Option<SimDuration>,
    ) -> Result<(RunReport, DeadlineStatus), SystemError> {
        let config = *self.system.config();
        self.system.cold_reset();
        self.evaluations = SpanStats::default();
        self.iterations = SpanStats::default();
        self.trajectory = Trajectory {
            n_qubits: config.n_qubits,
            n_params: self.workload.num_params(),
            shots,
            iterations: Vec::with_capacity(iterations),
        };
        self.des_puts = 0;
        self.des_high_water = 0;
        let phases = VqaPhases::intern(self.system.profiler_mut());
        // Root the causal chain at t=0: every subsequent op hangs its
        // provenance node off the previous chain head.
        self.system.critpath_mut().open_at(SimTime::ZERO);
        let mut now = SimTime::ZERO;

        let mut params = self.workload.initial_params.clone();
        // The slot codes the regfile holds, and a buffer for the next
        // evaluation's: each evaluation encodes its codes once, diffs them
        // against the loaded ones, then swaps the two.
        let mut codes = [self.program.slot_codes(&params)?.collect(), Vec::new()];

        // --- Setup: load program, bind registers, cold pulse generation.
        {
            // Host-side compile effort (one-time, proportional to size).
            let mut ops = OpCounter::new();
            ops.record(OpClass::IntAlu, 25 * self.program.total_entries());
            ops.record(OpClass::Mem, 12 * self.program.total_entries());
            ops.record(OpClass::Branch, 4 * self.program.total_entries());
            let d = self.system.host_time(&ops);
            now = self.system.host_segment(phases.compile_patch, now, d);

            let upload_start = now;
            for instr in self.program.load_instructions(HOST_PROGRAM_ADDR) {
                if let Instruction::QSet {
                    classical_addr,
                    qaddr,
                    length,
                } = instr
                {
                    now = self.system.q_set(now, classical_addr, qaddr, length)?;
                }
            }
            for instr in self.program.bind_instructions(&params)? {
                if let Instruction::QUpdate { qaddr, value } = instr {
                    now = self.system.q_update(now, qaddr, value)?;
                }
            }
            self.system
                .profiler_mut()
                .span(phases.upload, upload_start, now);

            let items = self.resolve_work_items(&params, &codes[0])?;
            let (report, gen_done) = self.system.q_gen(now, &items)?;
            self.system
                .profiler_mut()
                .record(phases.pulse_gen, report.total_time);
            now = gen_done;
            self.system
                .profiler_mut()
                .span(phases.setup, SimTime::ZERO, now);
        }

        // --- Optimisation loop.
        let mut deadline_hit = false;
        for _iter in 0..iterations {
            // Cooperative deadline: checked only at iteration boundaries,
            // so partial progress is always a whole number of iterations
            // and the surviving report is the one a shorter run yields.
            if let Some(budget) = deadline {
                if now.elapsed() >= budget {
                    deadline_hit = true;
                    break;
                }
            }
            let iter_start = now;
            let plan = optimizer.iteration_plan(&params);
            let mut evals = Vec::with_capacity(plan.len());
            for eval_params in &plan {
                let (cost, t) =
                    self.evaluate(&config, now, &mut codes, eval_params, shots, phases)?;
                evals.push(cost);
                self.evaluations.record(t.saturating_since(now));
                now = t;
            }
            // Optimizer update on the host.
            let mut ops = OpCounter::new();
            params = optimizer.update(&params, &plan, &evals, &mut ops);
            let d = self.system.host_time(&ops);
            now = self.system.host_segment(phases.optimizer_step, now, d);
            self.trajectory.iterations.push(IterationRecord {
                evaluations: plan.len(),
                optimizer_ops: ops,
                mean_cost: evals.iter().sum::<f64>() / evals.len().max(1) as f64,
            });
            self.iterations.record(now.saturating_since(iter_start));
        }

        let comm = self.system.comm();
        let (pulses_generated, pulse_work_items) = self.system.pulse_tallies();
        let status = DeadlineStatus {
            hit: deadline_hit,
            completed_iterations: self.iterations.count() as usize,
            requested_iterations: iterations,
        };
        let report = RunReport {
            total: now.elapsed(),
            breakdown: phases.breakdown(self.system.profiler(), comm),
            comm,
            dynamic_instructions: self.system.dynamic_instructions(),
            static_instructions: self.program.static_instructions(),
            pulses_generated,
            slt: self.system.slt_stats(),
            cost_history: self.trajectory.cost_history(),
            final_cost: self.trajectory.final_cost(),
            pulse_reduction: if pulse_work_items == 0 {
                0.0
            } else {
                1.0 - pulses_generated as f64 / pulse_work_items as f64
            },
            resilience: self.system.resilience(),
            phases: self.system.phase_table(),
            critpath: self.system.critpath_report(),
        };
        Ok((report, status))
    }

    /// One circuit evaluation: incremental update → pulse generation →
    /// run with transmission/post-processing per the configured policies.
    /// `codes[0]` holds the regfile's slot codes and is left holding
    /// `eval_params`'s; `codes[1]` is scratch.
    fn evaluate(
        &mut self,
        config: &QtenonConfig,
        start: SimTime,
        codes: &mut [Vec<u32>; 2],
        eval_params: &[f64],
        shots: u64,
        phases: VqaPhases,
    ) -> Result<(f64, SimTime), SystemError> {
        let mut now = start;

        // 1. Incremental compilation: diff on the host, minimal q_updates.
        codes.swap(0, 1);
        let [new, old] = codes;
        new.clear();
        new.extend(self.program.slot_codes(eval_params)?);
        let diff = ParameterDiff::from_codes(old, new);
        {
            let mut ops = OpCounter::new();
            let slots = self.program.slots().len() as u64;
            ops.record(OpClass::FpAlu, 2 * slots);
            ops.record(OpClass::Mem, 3 * slots);
            ops.record(OpClass::Branch, slots);
            let d = self.system.host_time(&ops);
            now = self.system.host_segment(phases.compile_patch, now, d);
        }
        let upload_start = now;
        for instr in diff.update_instructions(&self.program)? {
            if let Instruction::QUpdate { qaddr, value } = instr {
                now = self.system.q_update(now, qaddr, value)?;
            }
        }
        self.system
            .profiler_mut()
            .span(phases.upload, upload_start, now);

        // 2. Pulse generation: the SLT skips everything unchanged.
        let items = self.resolve_work_items(eval_params, &codes[0])?;
        let (gen_report, gen_done) = self.system.q_gen(now, &items)?;
        self.system
            .profiler_mut()
            .record(phases.pulse_gen, gen_report.total_time);
        now = gen_done;

        // 3. Quantum run.
        let bound = self.resolve_bound(eval_params)?;
        let run_start = now;
        let outcome = self.system.q_run_timed(now, &bound, shots, &self.timing)?;
        let quantum = outcome.complete.saturating_since(run_start);
        self.system
            .profiler_mut()
            .record(phases.quantum_execute, quantum);

        let (cost, end) = match config.sync {
            SyncMode::Fence => {
                // Fig. 9a: run → FENCE → q_acquire → FENCE → post-process.
                let words_per_shot = (config.n_qubits as u64).div_ceil(64);
                let measure_base = config.layout.measure_entry(0)?;
                let acq_done = self.system.q_acquire(
                    outcome.complete,
                    measure_base,
                    (shots * words_per_shot).min(config.layout.measure_entries()),
                    HOST_RESULT_ADDR,
                )?;
                let drain = acq_done.saturating_since(outcome.complete);
                self.system
                    .profiler_mut()
                    .record(phases.readout_drain, drain);
                let mut ops = OpCounter::new();
                let cost = self.evaluator.mean_over(&outcome.shots, &mut ops);
                batch_overhead_ops(&mut ops);
                let d = self.system.host_time(&ops);
                let end = self.system.host_segment(phases.host_post, acq_done, d);
                (cost, end)
            }
            SyncMode::FineGrained => {
                // Fig. 9b: PUTs stream per Algorithm 1; the host consumes
                // each batch once its PUT completes (when the soft
                // barrier's query for it first succeeds), folding completed
                // shots into the bit-sliced cost evaluator one 64-shot
                // block at a time.
                let plan = TransmissionPlan::new(
                    config.transmission,
                    config.n_qubits,
                    config.bus.width_bits,
                    shots,
                );
                let overlap = config.transmission == TransmissionPolicy::Batched;
                let mut planes = Vec::new();
                let first_shot_at = run_start + config.adi.interface_latency;
                let mut host_free = run_start;
                let mut value_sum = 0.0;
                let mut flushed = 0usize;
                let mut arrived = 0usize;
                // Each batch's PUT is ready when its last shot finishes;
                // ready times rise in batch order, so batch order is
                // timestamp order.
                for batch in plan.batches() {
                    let ready =
                        first_shot_at + outcome.shot_duration * (batch.first_shot + batch.shots);
                    let put_done = self.system.put_results(ready, batch.bytes)?;
                    // Per-PUT host wake: barrier query + buffer
                    // bookkeeping, plus any full blocks now evaluable.
                    let mut ops = OpCounter::new();
                    batch_overhead_ops(&mut ops);
                    arrived = (batch.first_shot + batch.shots) as usize;
                    while arrived - flushed >= BLOCK_SHOTS {
                        let block = &outcome.shots[flushed..flushed + BLOCK_SHOTS];
                        value_sum += self.evaluator.block_value_sum(block, &mut planes, &mut ops);
                        flushed += BLOCK_SHOTS;
                    }
                    let d = self.system.host_time(&ops);
                    self.system.profiler_mut().record(phases.host_post, d);
                    if overlap {
                        host_free = host_free.max(put_done) + d;
                    } else {
                        // Without the scheduling algorithm the host only
                        // starts consuming after the whole run completes.
                        host_free = host_free.max(outcome.complete).max(put_done) + d;
                    }
                }
                let batches = plan.batches().len() as u64;
                self.des_puts += batches;
                self.des_high_water = self.des_high_water.max(batches);
                // Tail block after the final PUT.
                if flushed < arrived {
                    let mut ops = OpCounter::new();
                    value_sum += self.evaluator.block_value_sum(
                        &outcome.shots[flushed..arrived],
                        &mut planes,
                        &mut ops,
                    );
                    let d = self.system.host_time(&ops);
                    self.system.profiler_mut().record(phases.host_post, d);
                    host_free += d;
                }
                let constant = self.evaluator.constant();
                let cost = if shots == 0 {
                    constant
                } else {
                    constant + value_sum / shots as f64
                };
                // The exposed drain tail: host consumption that was not
                // hidden behind quantum execution (zero when overlapped,
                // which keeps the chain monotone).
                let drain = host_free.saturating_since(outcome.complete);
                let end = self
                    .system
                    .host_segment(phases.readout_drain, outcome.complete, drain);
                (cost, end)
            }
        };
        Ok((cost, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreModel;
    use qtenon_sim_engine::SimDuration;
    use qtenon_workloads::{GradientDescentOptimizer, SpsaOptimizer};

    impl DeadlineStatus {
        /// A status for a run that was never given a deadline (or finished
        /// inside it).
        fn completed(iterations: usize) -> Self {
            DeadlineStatus {
                hit: false,
                completed_iterations: iterations,
                requested_iterations: iterations,
            }
        }
    }

    fn runner(n: u32, kind: qtenon_workloads::WorkloadKind) -> VqaRunner {
        let config = QtenonConfig::table4(n, CoreModel::Rocket).unwrap();
        let workload = Workload::benchmark(kind, n, 11).unwrap();
        VqaRunner::new(config, workload).unwrap()
    }

    #[test]
    fn qaoa_run_produces_consistent_report() {
        let mut r = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        let mut opt = SpsaOptimizer::new(5);
        let report = r.run(&mut opt, 3, 100).unwrap();
        assert!(report.total > SimDuration::ZERO);
        assert_eq!(report.cost_history.len(), 3);
        // Busy times fit within or around the wall time sanely.
        assert!(report.breakdown.quantum > SimDuration::ZERO);
        assert!(report.breakdown.host > SimDuration::ZERO);
        assert!(report.pulses_generated > 0);
        assert!(report.pulse_reduction > 0.0 && report.pulse_reduction < 1.0);
        assert!(report.dynamic_instructions > 0);
        assert!(report.static_instructions < report.dynamic_instructions);
        // The attribution table covers both VQA-level and system-level
        // phases, and quantum execution dominates it.
        for phase in [
            "vqa.setup",
            "vqa.compile_patch",
            "vqa.upload",
            "vqa.pulse_gen",
            "vqa.quantum_execute",
            "vqa.readout_drain",
            "vqa.host_post",
            "vqa.optimizer_step",
            "controller.slt_resolve",
            "chip.execute",
        ] {
            assert!(report.phases.row(phase).is_some(), "missing {phase}");
        }
        let quantum = report.phases.row("vqa.quantum_execute").unwrap();
        assert_eq!(quantum.count, 3 * 2); // iterations × SPSA ± evaluations
        assert_eq!(
            quantum.total_ns,
            report.breakdown.quantum.as_ps() / 1_000,
            "phase table must agree with the breakdown"
        );
    }

    #[test]
    fn gd_reduction_exceeds_spsa_reduction() {
        // Table 5: GD's single-parameter steps leave far more pulses
        // cached than SPSA's all-parameter perturbations.
        let mut r1 = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        let gd_report = r1
            .run(&mut GradientDescentOptimizer::new(0.05), 2, 50)
            .unwrap();
        let mut r2 = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        let spsa_report = r2.run(&mut SpsaOptimizer::new(5), 2, 50).unwrap();
        assert!(
            gd_report.pulse_reduction > spsa_report.pulse_reduction,
            "gd={} spsa={}",
            gd_report.pulse_reduction,
            spsa_report.pulse_reduction
        );
    }

    #[test]
    fn fine_grained_beats_fence_end_to_end() {
        let workload = Workload::benchmark(qtenon_workloads::WorkloadKind::Vqe, 8, 3).unwrap();
        let fine_cfg = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
        let fence_cfg = fine_cfg.with_sync(SyncMode::Fence);
        let fine = VqaRunner::new(fine_cfg, workload.clone())
            .unwrap()
            .run(&mut SpsaOptimizer::new(1), 2, 100)
            .unwrap();
        let fence = VqaRunner::new(fence_cfg, workload)
            .unwrap()
            .run(&mut SpsaOptimizer::new(1), 2, 100)
            .unwrap();
        assert!(
            fence.total > fine.total,
            "fence {} !> fine {}",
            fence.total,
            fine.total
        );
        // Transmission/classical tail shrinks under fine-grained sync.
        assert!(fence.classical_time() > fine.classical_time());
    }

    #[test]
    fn batched_beats_immediate_classical_time() {
        let workload = Workload::benchmark(qtenon_workloads::WorkloadKind::Qaoa, 8, 3).unwrap();
        let batched_cfg = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
        let imm_cfg = batched_cfg.with_transmission(TransmissionPolicy::Immediate);
        let batched = VqaRunner::new(batched_cfg, workload.clone())
            .unwrap()
            .run(&mut SpsaOptimizer::new(1), 2, 100)
            .unwrap();
        let immediate = VqaRunner::new(imm_cfg, workload)
            .unwrap()
            .run(&mut SpsaOptimizer::new(1), 2, 100)
            .unwrap();
        assert!(
            immediate.classical_time() > batched.classical_time(),
            "immediate {} !> batched {}",
            immediate.classical_time(),
            batched.classical_time()
        );
    }

    #[test]
    fn quantum_dominates_under_fine_grained_sync() {
        // Fig. 13c: with the full software stack the quantum share is
        // large. At small sizes the exact number differs; require > 50 %.
        let mut r = runner(8, qtenon_workloads::WorkloadKind::Vqe);
        let report = r.run(&mut SpsaOptimizer::new(2), 3, 200).unwrap();
        let share = report.breakdown.quantum.fraction_of(report.total);
        assert!(share > 0.5, "quantum share {share}");
    }

    #[test]
    fn comm_is_negligible_fraction() {
        // Fig. 13c: quantum-host communication ≈ 0.03 % on Qtenon.
        let mut r = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        let report = r.run(&mut SpsaOptimizer::new(2), 3, 200).unwrap();
        let share = report.comm.total().fraction_of(report.total);
        assert!(share < 0.1, "comm share {share}");
    }

    #[test]
    fn width_mismatch_rejected() {
        let config = QtenonConfig::table4(16, CoreModel::Rocket).unwrap();
        let workload = Workload::benchmark(qtenon_workloads::WorkloadKind::Qaoa, 8, 0).unwrap();
        assert!(VqaRunner::new(config, workload).is_err());
    }

    #[test]
    fn runner_metrics_cover_run_statistics() {
        use qtenon_sim_engine::{MetricValue, MetricsRegistry};

        let mut r = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        r.run(&mut SpsaOptimizer::new(3), 2, 50).unwrap();
        let mut m = MetricsRegistry::new();
        r.export_metrics(&mut m);
        assert!(m.len() >= 20, "only {} metrics exported", m.len());
        match m.get("core.vqa.iteration_latency_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        match m.get("core.vqa.eval_latency_ns") {
            Some(MetricValue::Histogram(h)) => {
                assert!(h.count() > 0);
                assert!(h.p50() <= h.p99());
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        match m.get("core.vqa.final_cost") {
            Some(MetricValue::Gauge(g)) => assert!(g.is_finite()),
            other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    fn zero_rate_fault_plan_does_not_perturb_the_run() {
        use qtenon_sim_engine::FaultPlan;
        let workload = Workload::benchmark(qtenon_workloads::WorkloadKind::Qaoa, 8, 3).unwrap();
        let base_cfg = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
        // A plan with a seed but all-zero rates must be behaviourally
        // invisible: identical report, no resilience activity.
        let zeroed_cfg = base_cfg.with_faults(FaultPlan::default().with_seed(99));
        let base = VqaRunner::new(base_cfg, workload.clone())
            .unwrap()
            .run(&mut SpsaOptimizer::new(1), 2, 50)
            .unwrap();
        let zeroed = VqaRunner::new(zeroed_cfg, workload)
            .unwrap()
            .run(&mut SpsaOptimizer::new(1), 2, 50)
            .unwrap();
        assert_eq!(base, zeroed);
        assert!(zeroed.resilience.is_zero());
    }

    #[test]
    fn faulty_vqa_survives_and_reproduces() {
        use qtenon_sim_engine::FaultPlan;
        let run = || {
            let plan = FaultPlan::all(0.02).with_seed(0xFA17);
            let config = QtenonConfig::table4(8, CoreModel::Rocket)
                .unwrap()
                .with_faults(plan);
            let workload = Workload::benchmark(qtenon_workloads::WorkloadKind::Vqe, 8, 7).unwrap();
            VqaRunner::new(config, workload)
                .unwrap()
                .run(&mut SpsaOptimizer::new(3), 2, 100)
                .unwrap()
        };
        let a = run();
        // Graceful degradation: the run completes despite injected faults
        // and reports what it absorbed.
        assert!(a.resilience.faults_injected > 0, "{:?}", a.resilience);
        assert!(a.resilience.total_retries() > 0, "{:?}", a.resilience);
        assert!(a.total > SimDuration::ZERO);
        // Same seed, same plan → bit-identical outcome.
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn deadline_cuts_the_loop_at_an_iteration_boundary() {
        // Measure a full run, then re-run with a budget that only covers
        // part of it: the truncated run must equal a shorter run exactly.
        let mut probe = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        let full = probe.run(&mut SpsaOptimizer::new(5), 4, 100).unwrap();
        assert_eq!(full.cost_history.len(), 4);

        // Budget past iteration 2 but short of iteration 4.
        let two_iters = {
            let mut r = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
            r.run(&mut SpsaOptimizer::new(5), 2, 100).unwrap()
        };
        let budget = SimDuration::from_ns(two_iters.total.as_ps() / 1_000 + 1);
        assert!(budget < full.total);
        let mut r = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        let (partial, status) = r
            .run_with_deadline(&mut SpsaOptimizer::new(5), 4, 100, Some(budget))
            .unwrap();
        assert!(status.hit);
        assert_eq!(status.requested_iterations, 4);
        assert!(
            status.completed_iterations >= 1 && status.completed_iterations < 4,
            "{status:?}"
        );
        assert_eq!(partial.cost_history.len(), status.completed_iterations);
        // The partial report is exactly what a shorter run produces —
        // the deadline never tears an iteration.
        let mut short = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        let reference = short
            .run(&mut SpsaOptimizer::new(5), status.completed_iterations, 100)
            .unwrap();
        assert_eq!(partial, reference);
    }

    #[test]
    fn no_deadline_is_byte_identical_to_run() {
        let mut a = runner(8, qtenon_workloads::WorkloadKind::Vqe);
        let ra = a.run(&mut SpsaOptimizer::new(3), 2, 50).unwrap();
        let mut b = runner(8, qtenon_workloads::WorkloadKind::Vqe);
        let (rb, status) = b
            .run_with_deadline(&mut SpsaOptimizer::new(3), 2, 50, None)
            .unwrap();
        assert_eq!(ra, rb);
        assert_eq!(status, DeadlineStatus::completed(2));
    }

    #[test]
    fn generous_deadline_never_fires() {
        let mut r = runner(8, qtenon_workloads::WorkloadKind::Qaoa);
        let (report, status) = r
            .run_with_deadline(
                &mut SpsaOptimizer::new(3),
                2,
                50,
                Some(SimDuration::from_ns(u64::MAX / 10_000)),
            )
            .unwrap();
        assert!(!status.hit);
        assert_eq!(status.completed_iterations, 2);
        assert_eq!(report.cost_history.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = runner(8, qtenon_workloads::WorkloadKind::Qnn);
        let mut b = runner(8, qtenon_workloads::WorkloadKind::Qnn);
        let ra = a.run(&mut SpsaOptimizer::new(9), 2, 50).unwrap();
        let rb = b.run(&mut SpsaOptimizer::new(9), 2, 50).unwrap();
        assert_eq!(ra.total, rb.total);
        assert_eq!(ra.cost_history, rb.cost_history);
    }
}
