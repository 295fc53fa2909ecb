//! The per-table/per-figure experiment implementations.

use qtenon_baseline::{BaselineConfig, BaselineRunner};
use qtenon_compiler::{BaselineCompiler, ParameterDiff, QtenonCompiler};
use qtenon_controller::{BusConfig, TileLinkBus};
use qtenon_core::config::{CoreModel, QtenonConfig, SyncMode, TransmissionPolicy};
use qtenon_core::jobs::JobOptimizer;
use qtenon_core::report::RunReport;
use qtenon_core::vqa::{Trajectory, VqaRunner};
use qtenon_isa::{QccLayout, Segment};
use qtenon_sim_engine::{
    FaultInjector, FaultPlan, MetricsRegistry, MetricsSnapshot, SimDuration, SimTime,
};
use qtenon_workloads::{Workload, WorkloadKind};

use crate::table::TextTable;

/// Experiment sizing knobs.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Optimizer iterations per run (paper: 10).
    pub iterations: usize,
    /// Shots per circuit evaluation (paper: 500).
    pub shots: u64,
    /// Qubit sweep for Figs. 11/12 (paper: 8–64 step 8).
    pub qubit_sweep: Vec<u32>,
    /// Qubit sweep for the Fig. 17 scalability study (paper: 64–320).
    pub scaling_sweep: Vec<u32>,
    /// Workload/optimizer seeds.
    pub seed: u64,
    /// Worker threads for shot-sharded sampling. Results are bitwise
    /// identical at any value; only wall-clock changes.
    pub threads: usize,
}

impl ExperimentScale {
    /// A fast configuration preserving every speedup ratio's shape.
    pub fn quick() -> Self {
        ExperimentScale {
            iterations: 2,
            shots: 100,
            qubit_sweep: vec![8, 16, 32, 64],
            scaling_sweep: vec![64, 128, 192],
            seed: 42,
            threads: 1,
        }
    }

    /// The paper's full Section 7.1 setup.
    pub fn paper() -> Self {
        ExperimentScale {
            iterations: 10,
            shots: 500,
            qubit_sweep: (1..=8).map(|i| 8 * i).collect(),
            scaling_sweep: vec![64, 128, 192, 256, 320],
            seed: 42,
            threads: 1,
        }
    }

    /// Returns a copy with a different worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

fn fmt_dur(d: SimDuration) -> String {
    d.to_string()
}

fn fmt_x(r: f64) -> String {
    format!("{r:.1}x")
}

fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

fn ratio(a: SimDuration, b: SimDuration) -> f64 {
    if b.is_zero() {
        f64::INFINITY
    } else {
        a.as_ns() / b.as_ns()
    }
}

/// Runs a workload on Qtenon with the given policies, returning its
/// report and the trajectory it recorded.
///
/// # Panics
///
/// Panics if construction or execution fails (experiment configurations
/// are known-valid).
pub(crate) fn qtenon_run(
    kind: WorkloadKind,
    n: u32,
    core: CoreModel,
    opt: JobOptimizer,
    scale: &ExperimentScale,
    sync: SyncMode,
    policy: TransmissionPolicy,
) -> (RunReport, Trajectory) {
    let config = QtenonConfig::table4(n, core)
        .expect("valid config")
        .with_sync(sync)
        .with_transmission(policy)
        .with_seed(scale.seed)
        .with_threads(scale.threads);
    let workload = Workload::benchmark(kind, n, scale.seed).expect("valid workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner builds");
    let mut optimizer = opt.build(scale.seed);
    let report = runner
        .run(optimizer.as_mut(), scale.iterations, scale.shots)
        .expect("run succeeds");
    (report, runner.trajectory().clone())
}

/// Runs a workload on Qtenon with the paper-default policies, returning
/// its report and the trajectory it recorded.
pub(crate) fn qtenon_default(
    kind: WorkloadKind,
    n: u32,
    core: CoreModel,
    opt: JobOptimizer,
    scale: &ExperimentScale,
) -> (RunReport, Trajectory) {
    qtenon_run(
        kind,
        n,
        core,
        opt,
        scale,
        SyncMode::FineGrained,
        TransmissionPolicy::Batched,
    )
}

/// Runs a workload on Qtenon with the paper-default policies and times its
/// trajectory on the decoupled baseline: (Qtenon report, baseline report).
///
/// # Panics
///
/// Panics if construction or execution fails.
pub(crate) fn with_baseline(
    kind: WorkloadKind,
    n: u32,
    core: CoreModel,
    opt: JobOptimizer,
    scale: &ExperimentScale,
) -> (RunReport, RunReport) {
    let (qtenon, trajectory) = qtenon_default(kind, n, core, opt, scale);
    let workload = Workload::benchmark(kind, n, scale.seed).expect("valid workload");
    let baseline = BaselineRunner::new(BaselineConfig::default(), workload)
        .run(&trajectory)
        .expect("the trajectory is this workload's");
    (qtenon, baseline)
}

/// Fig. 1: quantum vs classical share on the baseline, plus the 64-qubit
/// VQE breakdown.
pub fn fig1(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "#qubits".into(),
        "quantum %".into(),
        "classical %".into(),
        "comm %".into(),
        "pulse %".into(),
        "host %".into(),
        "total".into(),
    ]);
    for (kind, n) in [
        (WorkloadKind::Qaoa, 48),
        (WorkloadKind::Vqe, 56),
        (WorkloadKind::Qnn, 64),
    ] {
        let (_, r) = with_baseline(kind, n, CoreModel::Rocket, JobOptimizer::Spsa, scale);
        let shares = r.exposed_shares();
        t.row(vec![
            kind.to_string(),
            n.to_string(),
            fmt_pct(shares[0]),
            fmt_pct(1.0 - shares[0]),
            fmt_pct(shares[1]),
            fmt_pct(shares[2]),
            fmt_pct(shares[3]),
            fmt_dur(r.total),
        ]);
    }
    t
}

/// Table 1: decoupled vs tightly-coupled comparison, measured live.
pub fn table1(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "metric".into(),
        "baseline (decoupled)".into(),
        "Qtenon (tightly coupled)".into(),
    ]);

    // Communication latency: one small transfer each way.
    let net = qtenon_baseline::NetworkModel::default();
    let mut bus = TileLinkBus::new(BusConfig::default());
    let mut no_faults = FaultInjector::new(FaultPlan::default());
    let qt = bus
        .schedule_transfer(SimTime::ZERO, 8, &mut no_faults)
        .expect("fault-free transfer");
    t.row(vec![
        "comm. latency".into(),
        fmt_dur(net.message_time(8)),
        fmt_dur(qt.complete.saturating_since(SimTime::ZERO)),
    ]);

    // Instruction counts: 64-qubit QAOA-5, GD, 10 iterations.
    let workload = Workload::qaoa(64, 5, scale.seed).expect("workload");
    let layout = QccLayout::for_qubits(64).expect("layout");
    let program = QtenonCompiler::new(layout)
        .compile(&workload.circuit)
        .expect("compiles");
    let bound = workload
        .circuit
        .bind(&workload.initial_params)
        .expect("binds");
    let baseline_per_compile = BaselineCompiler::default().compile(&bound);
    // Count the dedicated ISA's instructions from a real emitted stream.
    let eqasm = qtenon_compiler::EqasmProgram::emit(&bound).expect("within 128 qubits");
    let gd_evals = 2 * workload.num_params() as u64 * 10;
    let qtenon_static = program.load_instructions(0).len() as u64
        + program.slots().len() as u64
        + program.gen_instructions().len() as u64
        + program.slots().len() as u64
        + 3;
    t.row(vec![
        "instructions (64q QAOA-5, 10 GD iters)".into(),
        format!(
            "{} ({} per compile, re-emitted per eval)",
            eqasm.len() as u64 * gd_evals,
            eqasm.len()
        ),
        format!("{qtenon_static} (static program)"),
    ]);

    // Recompile overhead: one-parameter change.
    let mut shifted = workload.initial_params.clone();
    shifted[0] += 0.3;
    let diff = ParameterDiff::between(&program, &workload.initial_params, &shifted).expect("diff");
    let qtenon_recompile = SimDuration::from_ns(diff.changed_slots() as u64); // 1 cycle per q_update
    t.row(vec![
        "recompile overhead".into(),
        fmt_dur(baseline_per_compile.compile_time),
        fmt_dur(qtenon_recompile),
    ]);

    t.row(vec![
        "execution".into(),
        "sequential".into(),
        "interleaved (quantum/host overlap)".into(),
    ]);
    t
}

/// Table 2: quantum controller cache geometry for 64 qubits, computed
/// from the live layout.
pub fn table2() -> TextTable {
    let layout = QccLayout::for_qubits(64).expect("layout");
    let mut t = TextTable::new(vec![
        "segment".into(),
        "entries".into(),
        "size".into(),
        "public".into(),
    ]);
    for seg in Segment::ALL {
        t.row(vec![
            seg.to_string(),
            layout.segment_entries(seg).to_string(),
            format!("{:.2} KB", layout.segment_bytes(seg) as f64 / 1024.0),
            if seg.is_public() { "yes" } else { "no" }.into(),
        ]);
    }
    t.row(vec![
        "total".into(),
        String::new(),
        format!("{:.2} MB", layout.total_bytes() as f64 / (1024.0 * 1024.0)),
        String::new(),
    ]);
    t
}

/// Table 4: the hardware configuration in force.
pub fn table4() -> TextTable {
    let cfg = QtenonConfig::table4(64, CoreModel::Rocket).expect("config");
    let mut t = TextTable::new(vec!["part".into(), "configuration".into()]);
    t.row(vec![
        "Core".into(),
        "Rocket @ 1 GHz / Boom-L @ 1 GHz".into(),
    ]);
    t.row(vec![
        "L1".into(),
        format!(
            "{} KB {}-way I/D",
            cfg.hierarchy.l1.size_bytes / 1024,
            cfg.hierarchy.l1.ways
        ),
    ]);
    t.row(vec![
        "QCC".into(),
        format!(
            "{:.2} MB (Table 2 geometry)",
            cfg.layout.total_bytes() as f64 / (1024.0 * 1024.0)
        ),
    ]);
    t.row(vec![
        "QC".into(),
        format!("{} qubits, {} PGUs", cfg.n_qubits, cfg.pipeline.pgu.units),
    ]);
    t.row(vec![
        "L2".into(),
        format!(
            "{} KB {}-way",
            cfg.hierarchy.l2.size_bytes / 1024,
            cfg.hierarchy.l2.ways
        ),
    ]);
    t.row(vec![
        "Bus".into(),
        format!("TileLink {} bits/cycle @ 1 GHz", cfg.bus.width_bits),
    ]);
    t
}

/// Figs. 11/12: classical-time and end-to-end speedups vs the baseline
/// across the qubit sweep, for both cores.
pub fn fig11_12(scale: &ExperimentScale, opt: JobOptimizer) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "#qubits".into(),
        "classical speedup (Rocket)".into(),
        "classical speedup (Boom-L)".into(),
        "e2e speedup (Rocket)".into(),
        "e2e speedup (Boom-L)".into(),
    ]);
    for kind in WorkloadKind::ALL {
        for &n in &scale.qubit_sweep {
            let (rocket, base) = with_baseline(kind, n, CoreModel::Rocket, opt, scale);
            let boom = qtenon_default(kind, n, CoreModel::BoomLarge, opt, scale).0;
            t.row(vec![
                kind.to_string(),
                n.to_string(),
                fmt_x(ratio(base.classical_time(), rocket.classical_time())),
                fmt_x(ratio(base.classical_time(), boom.classical_time())),
                fmt_x(ratio(base.total, rocket.total)),
                fmt_x(ratio(base.total, boom.total)),
            ]);
        }
    }
    t
}

/// Fig. 13: 64-qubit VQE (SPSA) breakdown across the three systems.
pub fn fig13(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "system".into(),
        "total".into(),
        "quantum %".into(),
        "comm %".into(),
        "pulse %".into(),
        "host %".into(),
    ]);
    let kind = WorkloadKind::Vqe;
    let (full, base) = with_baseline(kind, 64, CoreModel::Rocket, JobOptimizer::Spsa, scale);
    let (hw_only, _) = qtenon_run(
        kind,
        64,
        CoreModel::Rocket,
        JobOptimizer::Spsa,
        scale,
        SyncMode::Fence,
        TransmissionPolicy::Immediate,
    );
    for (name, r) in [
        ("baseline", &base),
        ("Qtenon w/o software", &hw_only),
        ("Qtenon", &full),
    ] {
        let s = r.exposed_shares();
        t.row(vec![
            name.into(),
            fmt_dur(r.total),
            fmt_pct(s[0]),
            fmt_pct(s[1]),
            fmt_pct(s[2]),
            fmt_pct(s[3]),
        ]);
    }
    t
}

/// Fig. 14: quantum-host communication time and per-instruction split.
pub fn fig14(scale: &ExperimentScale, opt: JobOptimizer) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "baseline comm".into(),
        "Qtenon comm".into(),
        "speedup".into(),
        "q_set %".into(),
        "q_update %".into(),
        "q_acquire %".into(),
    ]);
    for kind in WorkloadKind::ALL {
        let (qt, base) = with_baseline(kind, 64, CoreModel::BoomLarge, opt, scale);
        let shares = qt.comm.shares();
        t.row(vec![
            kind.to_string(),
            fmt_dur(base.comm.total()),
            fmt_dur(qt.comm.total()),
            fmt_x(ratio(base.comm.total(), qt.comm.total())),
            fmt_pct(shares[0]),
            fmt_pct(shares[1]),
            fmt_pct(shares[2]),
        ]);
    }
    t
}

/// Table 5: pulse-generation speedup and computation-requirement
/// reduction.
pub fn table5(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "optimizer".into(),
        "workload".into(),
        "pulse-gen speedup".into(),
        "computation reduction".into(),
    ]);
    for opt in [JobOptimizer::Gd, JobOptimizer::Spsa] {
        for kind in WorkloadKind::ALL {
            let (qt, base) = with_baseline(kind, 64, CoreModel::Rocket, opt, scale);
            t.row(vec![
                opt.name().into(),
                kind.to_string(),
                fmt_x(ratio(
                    base.breakdown.pulse_generation,
                    qt.breakdown.pulse_generation,
                )),
                fmt_pct(qt.pulse_reduction),
            ]);
        }
    }
    t
}

/// Fig. 15: host execution time across systems.
pub fn fig15(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "optimizer".into(),
        "workload".into(),
        "baseline host".into(),
        "Qtenon-Boom host".into(),
        "Qtenon-Rocket host".into(),
        "speedup (Boom)".into(),
    ]);
    for opt in [JobOptimizer::Gd, JobOptimizer::Spsa] {
        for kind in WorkloadKind::ALL {
            let (boom, base) = with_baseline(kind, 64, CoreModel::BoomLarge, opt, scale);
            let rocket = qtenon_default(kind, 64, CoreModel::Rocket, opt, scale).0;
            t.row(vec![
                opt.name().into(),
                kind.to_string(),
                fmt_dur(base.breakdown.host),
                fmt_dur(boom.breakdown.host),
                fmt_dur(rocket.breakdown.host),
                fmt_x(ratio(base.breakdown.host, boom.breakdown.host)),
            ]);
        }
    }
    t
}

/// Fig. 16a: FENCE vs fine-grained synchronisation.
pub fn fig16a(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "optimizer".into(),
        "workload".into(),
        "FENCE classical".into(),
        "fine-grained classical".into(),
        "speedup".into(),
    ]);
    for opt in [JobOptimizer::Gd, JobOptimizer::Spsa] {
        for kind in WorkloadKind::ALL {
            let (fence, _) = qtenon_run(
                kind,
                64,
                CoreModel::Rocket,
                opt,
                scale,
                SyncMode::Fence,
                TransmissionPolicy::Batched,
            );
            let fine = qtenon_default(kind, 64, CoreModel::Rocket, opt, scale).0;
            t.row(vec![
                opt.name().into(),
                kind.to_string(),
                fmt_dur(fence.classical_time()),
                fmt_dur(fine.classical_time()),
                fmt_x(ratio(fence.classical_time(), fine.classical_time())),
            ]);
        }
    }
    t
}

/// Fig. 16b: unscheduled (immediate) vs batched transmission.
pub fn fig16b(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "optimizer".into(),
        "workload".into(),
        "w/o schedule classical".into(),
        "w/ schedule classical".into(),
        "speedup".into(),
    ]);
    for opt in [JobOptimizer::Gd, JobOptimizer::Spsa] {
        for kind in WorkloadKind::ALL {
            let (unsched, _) = qtenon_run(
                kind,
                64,
                CoreModel::Rocket,
                opt,
                scale,
                SyncMode::FineGrained,
                TransmissionPolicy::Immediate,
            );
            let sched = qtenon_default(kind, 64, CoreModel::Rocket, opt, scale).0;
            t.row(vec![
                opt.name().into(),
                kind.to_string(),
                fmt_dur(unsched.classical_time()),
                fmt_dur(sched.classical_time()),
                fmt_x(ratio(unsched.classical_time(), sched.classical_time())),
            ]);
        }
    }
    t
}

/// Fig. 17: scalability to 320 qubits (SPSA, QAOA & VQE).
pub fn fig17(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "#qubits".into(),
        "comm time".into(),
        "comm rel. to first".into(),
        "classical time".into(),
        "classical rel. to first".into(),
        "quantum %".into(),
    ]);
    for kind in [WorkloadKind::Qaoa, WorkloadKind::Vqe] {
        let mut first: Option<(SimDuration, SimDuration)> = None;
        for &n in &scale.scaling_sweep {
            let r = qtenon_default(kind, n, CoreModel::BoomLarge, JobOptimizer::Spsa, scale).0;
            let comm = r.comm.total();
            let classical = r.classical_time();
            let (c0, h0) = *first.get_or_insert((comm, classical));
            t.row(vec![
                kind.to_string(),
                n.to_string(),
                fmt_dur(comm),
                format!("{:.2}", ratio(comm, c0)),
                fmt_dur(classical),
                format!("{:.2}", ratio(classical, h0)),
                fmt_pct(r.exposed_shares()[0]),
            ]);
        }
    }
    t
}

/// Runs the representative workload (64-qubit VQE, SPSA, Rocket core,
/// paper-default policies) and captures the full metric tree — what the
/// `experiments` binary dumps with `--metrics`.
///
/// # Panics
///
/// Panics if construction or execution fails (the configuration is
/// known-valid).
pub fn telemetry_snapshot(scale: &ExperimentScale) -> MetricsSnapshot {
    let config = QtenonConfig::table4(64, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(scale.seed)
        .with_threads(scale.threads);
    let workload = Workload::benchmark(WorkloadKind::Vqe, 64, scale.seed).expect("valid workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner builds");
    let mut optimizer = JobOptimizer::Spsa.build(scale.seed);
    runner
        .run(optimizer.as_mut(), scale.iterations, scale.shots)
        .expect("run succeeds");
    let mut registry = MetricsRegistry::new();
    runner.export_metrics(&mut registry);
    registry.snapshot()
}

/// Like [`telemetry_snapshot`] but running 8-qubit QAOA, where the exact
/// statevector backend — and therefore the kernel/fusion layer — is on
/// the execution path, with gate fusion toggleable. QAOA (rather than
/// VQE) because its transpiled circuit has real same-qubit runs for the
/// planner to fuse: every `H` lowers to `RZ(π)·RY(π/2)` and each
/// `CX·RZ·CX` cost term leaves a five-rotation run on the target qubit.
/// Returns the metric tree together with the run report so callers can
/// check that fusion is artefact-invariant: everything except the
/// `quantum.fuse.*` accounting counters must be byte-identical across
/// `fuse` settings (DESIGN.md §13).
///
/// # Panics
///
/// Panics if construction or execution fails (the configuration is
/// known-valid).
pub fn telemetry_snapshot_exact(
    scale: &ExperimentScale,
    fuse: bool,
) -> (MetricsSnapshot, RunReport) {
    let config = QtenonConfig::table4(8, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(scale.seed)
        .with_threads(scale.threads)
        .with_fuse(fuse);
    let workload = Workload::benchmark(WorkloadKind::Qaoa, 8, scale.seed).expect("valid workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner builds");
    let mut optimizer = JobOptimizer::Spsa.build(scale.seed);
    let report = runner
        .run(optimizer.as_mut(), scale.iterations, scale.shots)
        .expect("run succeeds");
    let mut registry = MetricsRegistry::new();
    runner.export_metrics(&mut registry);
    (registry.snapshot(), report)
}

/// Resilience sweep (beyond the paper): the 64-qubit VQE under rising
/// uniform fault rates. Every run completes — graceful degradation — and
/// the columns show how much recovery work and wall time each rate costs.
///
/// The runs use fine-grained sync, where results reach the host by PUT
/// and no `.measure` entry is ever read, so the `ecc corrections` column
/// is 0 at every rate: `qcc_bitflip` upsets stay pending until the next
/// deposit refreshes them. Only `q_acquire` (FENCE sync) reads through
/// the decoder.
///
/// # Panics
///
/// Panics if construction or execution fails (the configuration is
/// known-valid and the retry budget covers the swept rates).
pub fn resilience(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "fault rate".into(),
        "total".into(),
        "vs fault-free".into(),
        "faults injected".into(),
        "recoveries".into(),
        "bus retries".into(),
        "slt invalidations".into(),
        "rbq reclaims".into(),
        "ecc corrections".into(),
    ]);
    let mut base: Option<SimDuration> = None;
    for rate in [0.0, 0.001, 0.01, 0.05] {
        let plan = FaultPlan::all(rate).with_seed(scale.seed);
        let config = QtenonConfig::table4(64, CoreModel::Rocket)
            .expect("valid config")
            .with_seed(scale.seed)
            .with_faults(plan);
        let workload =
            Workload::benchmark(WorkloadKind::Vqe, 64, scale.seed).expect("valid workload");
        let mut runner = VqaRunner::new(config, workload).expect("runner builds");
        let mut optimizer = JobOptimizer::Spsa.build(scale.seed);
        let r = runner
            .run(optimizer.as_mut(), scale.iterations, scale.shots)
            .expect("run survives faults");
        let b = *base.get_or_insert(r.total);
        let res = r.resilience;
        t.row(vec![
            format!("{rate}"),
            fmt_dur(r.total),
            fmt_x(ratio(r.total, b)),
            res.faults_injected.to_string(),
            res.total_retries().to_string(),
            res.bus_retries.to_string(),
            res.slt_invalidations.to_string(),
            res.rbq_reclaims.to_string(),
            res.ecc_corrections.to_string(),
        ]);
    }
    t
}

/// Ablation beyond the paper: simulated pulse-generation time versus the
/// PGU pool width, with and without the SLT, for the 64-qubit QAOA-5
/// program (cold pass = first iteration, warm pass = steady state).
pub fn ablation(scale: &ExperimentScale) -> TextTable {
    use qtenon_controller::pgu::PguConfig;
    use qtenon_controller::pipeline::{PipelineConfig, PulsePipeline};

    let layout = QccLayout::for_qubits(64).expect("layout");
    let workload = Workload::qaoa(64, 5, scale.seed).expect("workload");
    let program = QtenonCompiler::new(layout)
        .compile(&workload.circuit)
        .expect("compiles");
    let items = program.work_items(&workload.initial_params).expect("items");

    let mut t = TextTable::new(vec![
        "PGUs".into(),
        "cold pulse-gen".into(),
        "warm pulse-gen (SLT)".into(),
        "warm, SLT disabled".into(),
        "SLT benefit".into(),
    ]);
    for units in [1usize, 2, 4, 8, 16, 32] {
        let config = PipelineConfig {
            pgu: PguConfig {
                units,
                ..PguConfig::default()
            },
            ..PipelineConfig::default()
        };
        let run = |pipe: &mut PulsePipeline| {
            let mut no_faults = FaultInjector::new(FaultPlan::default());
            let (report, _) = pipe
                .process(SimTime::ZERO, &items, &mut no_faults)
                .expect("pipeline run");
            report
        };
        let mut pipe = PulsePipeline::new(config, layout).expect("pipeline builds");
        let cold = run(&mut pipe);
        let warm = run(&mut pipe);
        let mut no_slt = PulsePipeline::new(config, layout).expect("pipeline builds");
        run(&mut no_slt);
        no_slt.reset();
        let cold_again = run(&mut no_slt);
        t.row(vec![
            units.to_string(),
            fmt_dur(cold.total_time),
            fmt_dur(warm.total_time),
            fmt_dur(cold_again.total_time),
            fmt_x(ratio(cold_again.total_time, warm.total_time)),
        ]);
    }
    t
}

/// Breakdown (beyond the paper): phase-level latency attribution from
/// the span profiler, per workload. Every column is deterministic sim
/// time — the same rows `qtenon run --profile` prints and the
/// `profile_vqe` BENCH suite snapshots.
pub fn breakdown(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "phase".into(),
        "count".into(),
        "total".into(),
        "p50".into(),
        "p99".into(),
        "share".into(),
    ]);
    let n = scale.qubit_sweep.first().copied().unwrap_or(8);
    for kind in WorkloadKind::ALL {
        let report = qtenon_default(kind, n, CoreModel::Rocket, JobOptimizer::Spsa, scale).0;
        let total = report.phases.total_ns().max(1);
        for row in &report.phases.rows {
            t.row(vec![
                kind.name().into(),
                row.name.clone(),
                row.count.to_string(),
                fmt_dur(SimDuration::from_ns(row.total_ns)),
                format!("{} ns", row.hist.p50().unwrap_or(0)),
                format!("{} ns", row.hist.p99().unwrap_or(0)),
                fmt_pct(row.total_ns as f64 / total as f64),
            ]);
        }
    }
    t
}

/// Critical path (beyond the paper): who-blocks-whom blocking-time
/// attribution along the causal chain, Qtenon vs the decoupled
/// baseline. Each row is one provenance edge with its share of the
/// end-to-end on-path time. The decoupled baseline's chain is dominated
/// by host<->device communication edges (`host->bus` binary uploads,
/// `chip->readout` result downloads); Qtenon's shifts on-chip
/// (`bus->slt`, `slt->pgu`, `pgu->pipeline`, `pipeline->chip`) — the
/// paper's integration argument restated as causal attribution.
pub fn critpath(scale: &ExperimentScale) -> TextTable {
    let mut t = TextTable::new(vec![
        "system".into(),
        "edge".into(),
        "count".into(),
        "total".into(),
        "share".into(),
    ]);
    let n = scale.qubit_sweep.first().copied().unwrap_or(8);
    let (qtenon, baseline) = with_baseline(
        WorkloadKind::Vqe,
        n,
        CoreModel::Rocket,
        JobOptimizer::Spsa,
        scale,
    );
    let systems = [("baseline", baseline), ("qtenon", qtenon)];
    for (name, report) in &systems {
        let total = report.critpath.total_ns().max(1);
        for row in &report.critpath.rows {
            t.row(vec![
                (*name).into(),
                row.name.clone(),
                row.count.to_string(),
                fmt_dur(SimDuration::from_ns(row.total_ns)),
                fmt_pct(row.total_ns as f64 / total as f64),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Share of a report's on-path time spent on host<->device
    /// communication edges (uploads plus result downloads).
    fn comm_edge_share(report: &RunReport) -> f64 {
        let comm = report.critpath.component_ns("bus") + report.critpath.component_ns("readout");
        comm as f64 / report.critpath.total_ns().max(1) as f64
    }

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            iterations: 1,
            shots: 20,
            qubit_sweep: vec![8],
            scaling_sweep: vec![8, 16],
            seed: 3,
            threads: 1,
        }
    }

    #[test]
    fn fig1_shows_quantum_minority() {
        let t = fig1(&tiny());
        assert_eq!(t.len(), 3);
        for row in t.rows() {
            let q: f64 = row[2].trim_end_matches('%').parse().unwrap();
            assert!(q < 50.0, "quantum share {q}% should be a minority");
        }
    }

    #[test]
    fn table1_shows_order_of_magnitude_gaps() {
        let t = table1(&tiny());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn table2_matches_paper_total() {
        let t = table2();
        let total_row = t.rows().last().unwrap();
        assert!(total_row[2].contains("5.66 MB"));
    }

    #[test]
    fn speedup_table_has_expected_rows() {
        let t = fig11_12(&tiny(), JobOptimizer::Spsa);
        assert_eq!(t.len(), 3); // 3 workloads × 1 size
        for row in t.rows() {
            let e2e: f64 = row[4].trim_end_matches('x').parse().unwrap();
            assert!(e2e > 1.0, "Qtenon should win end-to-end: {e2e}");
        }
    }

    #[test]
    fn critpath_contrasts_comm_vs_onchip() {
        let scale = tiny();
        let (qtenon, baseline) = with_baseline(
            WorkloadKind::Vqe,
            8,
            CoreModel::Rocket,
            JobOptimizer::Spsa,
            &scale,
        );
        let b = comm_edge_share(&baseline);
        let q = comm_edge_share(&qtenon);
        // The decoupled baseline's causal chain is dominated by
        // host<->device communication; Qtenon's shifts on-chip.
        assert!(b > 0.5, "baseline comm share {b}");
        assert!(q < b, "qtenon comm share {q} vs baseline {b}");
        assert!(
            qtenon.critpath.total_ns() > 0,
            "qtenon records a non-empty causal chain"
        );
    }

    #[test]
    fn critpath_table_lists_both_systems() {
        let t = critpath(&tiny());
        let systems: Vec<&str> = t.rows().iter().map(|r| r[0].as_str()).collect();
        assert!(systems.contains(&"baseline"));
        assert!(systems.contains(&"qtenon"));
        // Shares within one system sum to ~100%.
        for name in ["baseline", "qtenon"] {
            let sum: f64 = t
                .rows()
                .iter()
                .filter(|r| r[0] == name)
                .map(|r| r[4].trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!((sum - 100.0).abs() < 1.0, "{name} shares sum to {sum}");
        }
    }

    #[test]
    fn fig13_orders_systems() {
        let mut scale = tiny();
        scale.shots = 50;
        // fig13 runs at 64 qubits regardless of sweep.
        let t = fig13(&scale);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn fig17_scales_monotonically() {
        let t = fig17(&tiny());
        assert_eq!(t.len(), 4); // 2 workloads × 2 sizes
    }

    #[test]
    fn resilience_sweep_completes_and_activity_rises_with_rate() {
        let t = resilience(&tiny());
        assert_eq!(t.len(), 4);
        let injected: Vec<u64> = t.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        // Zero rate injects nothing; the top rate injects the most.
        assert_eq!(injected[0], 0);
        assert!(injected.last().unwrap() > &0);
        assert!(injected.last().unwrap() >= &injected[1]);
    }

    #[test]
    fn experiments_honor_the_thread_knob_without_changing_results() {
        let mut serial = tiny();
        serial.shots = 4 * qtenon_core::parallel::MIN_SHOTS_PER_SHARD;
        let sharded = serial.clone().with_threads(4);
        let a = qtenon_default(
            WorkloadKind::Qaoa,
            8,
            CoreModel::Rocket,
            JobOptimizer::Spsa,
            &serial,
        );
        let b = qtenon_default(
            WorkloadKind::Qaoa,
            8,
            CoreModel::Rocket,
            JobOptimizer::Spsa,
            &sharded,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_snapshot_spans_all_namespaces_and_parses() {
        let snapshot = telemetry_snapshot(&tiny());
        assert!(snapshot.len() >= 20, "only {} metrics", snapshot.len());
        for ns in ["mem.", "controller.", "core."] {
            assert!(
                snapshot.paths().iter().any(|p| p.starts_with(ns)),
                "no {ns}* metrics"
            );
        }
        // Every Prometheus line is `name value` with a numeric value.
        for line in snapshot.to_prometheus().lines() {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }
}
