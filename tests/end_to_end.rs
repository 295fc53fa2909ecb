//! Integration tests: full system runs across crates.

use qtenon::baseline::{BaselineConfig, BaselineRunner};
use qtenon::core::config::{CoreModel, QtenonConfig, SyncMode, TransmissionPolicy};
use qtenon::core::report::RunReport;
use qtenon::core::vqa::VqaRunner;
use qtenon::quantum::sim::Simulator;
use qtenon::sim_engine::{FaultPlan, OpCounter, SimDuration};
use qtenon::workloads::{
    CostEvaluator, GradientDescentOptimizer, Optimizer, SpsaOptimizer, Workload, WorkloadKind,
};

const ITERS: usize = 2;
const SHOTS: u64 = 100;
const SEED: u64 = 7;

/// A Qtenon run, and the runner holding the trajectory it recorded.
fn run_qtenon(kind: WorkloadKind, n: u32, core: CoreModel) -> (RunReport, VqaRunner) {
    let config = QtenonConfig::table4(n, core).unwrap();
    let workload = Workload::benchmark(kind, n, SEED).unwrap();
    let mut runner = VqaRunner::new(config, workload).unwrap();
    let report = runner
        .run(&mut SpsaOptimizer::new(SEED), ITERS, SHOTS)
        .unwrap();
    (report, runner)
}

fn qtenon(kind: WorkloadKind, n: u32, core: CoreModel) -> RunReport {
    run_qtenon(kind, n, core).0
}

/// A Qtenon run, and the baseline's timing of the trajectory it recorded.
fn with_baseline(kind: WorkloadKind, n: u32, core: CoreModel) -> (RunReport, RunReport) {
    let (report, runner) = run_qtenon(kind, n, core);
    let workload = Workload::benchmark(kind, n, SEED).unwrap();
    let baseline = BaselineRunner::new(BaselineConfig::default(), workload)
        .run(runner.trajectory())
        .unwrap();
    (report, baseline)
}

#[test]
fn qtenon_beats_baseline_on_every_workload() {
    for kind in WorkloadKind::ALL {
        let (q, b) = with_baseline(kind, 16, CoreModel::Rocket);
        assert!(
            b.total > q.total,
            "{kind}: baseline {} should exceed qtenon {}",
            b.total,
            q.total
        );
        assert!(
            b.classical_time() > q.classical_time() * 10,
            "{kind}: classical speedup should be an order of magnitude"
        );
    }
}

#[test]
fn end_to_end_speedup_grows_with_qubits() {
    // The paper's central scaling trend (Figs. 11b/12b).
    let mut last = 0.0;
    for n in [8u32, 24, 48] {
        let (q, b) = with_baseline(WorkloadKind::Vqe, n, CoreModel::Rocket);
        let speedup = b.total.as_ns() / q.total.as_ns();
        assert!(
            speedup > last,
            "speedup should grow: {speedup} after {last} at n={n}"
        );
        last = speedup;
    }
}

#[test]
fn quantum_dominates_qtenon_but_not_baseline() {
    let (q, b) = with_baseline(WorkloadKind::Vqe, 32, CoreModel::BoomLarge);
    assert!(q.exposed_shares()[0] > 0.5, "qtenon quantum share too low");
    assert!(
        b.exposed_shares()[0] < 0.35,
        "baseline quantum share too high"
    );
}

/// The VQA loop written out apart from `VqaRunner`: bind →
/// `Simulator::fast` → `CostEvaluator::mean_over` → optimizer step.
/// Returns each iteration's evaluation count, optimizer ops and mean
/// cost.
fn reference_loop(
    workload: &Workload,
    optimizer: &mut dyn Optimizer,
    iterations: usize,
    shots: u64,
) -> Vec<(usize, OpCounter, f64)> {
    let mut sim = Simulator::fast(workload.n_qubits(), SEED);
    let evaluator = CostEvaluator::new(&workload.hamiltonian);
    let mut params = workload.initial_params.clone();
    let mut out = Vec::new();
    for _ in 0..iterations {
        let plan = optimizer.iteration_plan(&params);
        let evals: Vec<f64> = plan
            .iter()
            .map(|p| {
                let bound = workload.circuit.bind(p).unwrap();
                let results = sim.run(&bound, shots).unwrap();
                evaluator.mean_over(&results, &mut OpCounter::new())
            })
            .collect();
        let mut ops = OpCounter::new();
        params = optimizer.update(&params, &plan, &evals, &mut ops);
        let mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
        out.push((plan.len(), ops, mean));
    }
    out
}

#[test]
fn trajectories_match_an_independent_reference_loop_bitwise() {
    // Every Qtenon variant samples the same simulated chip, so each
    // trajectory must equal the reference loop bit for bit. 100 shots
    // leave a 36-shot tail block after the last full 64-shot block.
    let variants = |n: u32| {
        let boom = QtenonConfig::table4(n, CoreModel::BoomLarge)
            .unwrap()
            .with_seed(SEED);
        [
            ("boom-l fine batched", boom),
            (
                "rocket",
                QtenonConfig::table4(n, CoreModel::Rocket)
                    .unwrap()
                    .with_seed(SEED),
            ),
            ("fence", boom.with_sync(SyncMode::Fence)),
            (
                "immediate",
                boom.with_transmission(TransmissionPolicy::Immediate),
            ),
            ("faulty", boom.with_faults(FaultPlan::all(0.05))),
        ]
    };
    for kind in WorkloadKind::ALL {
        for n in [8, 16] {
            for gd in [false, true] {
                let optimizer = || -> Box<dyn Optimizer> {
                    if gd {
                        Box::new(GradientDescentOptimizer::new(0.05))
                    } else {
                        Box::new(SpsaOptimizer::new(SEED))
                    }
                };
                let workload = Workload::benchmark(kind, n, SEED).unwrap();
                let reference = reference_loop(&workload, optimizer().as_mut(), ITERS, SHOTS);
                for (name, config) in variants(n) {
                    let mut runner = VqaRunner::new(config, workload.clone()).unwrap();
                    runner.run(optimizer().as_mut(), ITERS, SHOTS).unwrap();
                    let trajectory = runner.trajectory();
                    assert_eq!(trajectory.n_qubits, n);
                    assert_eq!(trajectory.shots, SHOTS);
                    let recorded: Vec<(usize, OpCounter, u64)> = trajectory
                        .iterations
                        .iter()
                        .map(|it| (it.evaluations, it.optimizer_ops, it.mean_cost.to_bits()))
                        .collect();
                    let expected: Vec<(usize, OpCounter, u64)> = reference
                        .iter()
                        .map(|&(evals, ops, mean)| (evals, ops, mean.to_bits()))
                        .collect();
                    assert_eq!(recorded, expected, "{kind}-{n} gd={gd} {name}");
                }
            }
        }
    }
}

#[test]
fn software_features_stack_monotonically() {
    // Hardware-only < +fine-grained sync < +batched scheduling.
    let workload = Workload::benchmark(WorkloadKind::Vqe, 16, SEED).unwrap();
    let run = |sync: SyncMode, policy: TransmissionPolicy| {
        let config = QtenonConfig::table4(16, CoreModel::Rocket)
            .unwrap()
            .with_sync(sync)
            .with_transmission(policy);
        VqaRunner::new(config, workload.clone())
            .unwrap()
            .run(&mut SpsaOptimizer::new(SEED), ITERS, SHOTS)
            .unwrap()
            .total
    };
    let fence = run(SyncMode::Fence, TransmissionPolicy::Batched);
    let unscheduled = run(SyncMode::FineGrained, TransmissionPolicy::Immediate);
    let full = run(SyncMode::FineGrained, TransmissionPolicy::Batched);
    // The full software stack wins outright…
    assert!(
        fence > full,
        "fine-grained + batched should beat FENCE: {fence} vs {full}"
    );
    // …and fine-grained sync *without* Algorithm 1 is not enough: the
    // per-shot wakeups make overlap unprofitable (the paper's motivation
    // for batched transmission).
    assert!(
        unscheduled > full,
        "batching should help under fine-grained sync: {unscheduled} vs {full}"
    );
}

#[test]
fn gd_and_spsa_trade_comm_for_rounds() {
    // GD: many single-parameter evaluations → more dynamic instructions
    // and more communication events than SPSA at the same iterations.
    let workload = Workload::benchmark(WorkloadKind::Vqe, 8, SEED).unwrap();
    let run = |opt: &mut dyn Optimizer| {
        let config = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
        VqaRunner::new(config, workload.clone())
            .unwrap()
            .run(opt, ITERS, SHOTS)
            .unwrap()
    };
    let gd = run(&mut GradientDescentOptimizer::new(0.05));
    let spsa = run(&mut SpsaOptimizer::new(SEED));
    assert!(gd.dynamic_instructions > spsa.dynamic_instructions);
    assert!(gd.comm.q_acquire_count > spsa.comm.q_acquire_count);
    // And GD leaves more of the pulse cache intact (Table 5).
    assert!(gd.pulse_reduction > spsa.pulse_reduction);
}

#[test]
fn optimisation_actually_descends() {
    // Over enough iterations GD should find a better point on QAOA's
    // landscape and must not diverge. Triage note: the old knife-edge
    // `last < first` at 6 iterations / 300 shots rode on the exact
    // sampled values of the sequential RNG; the per-shot streams that
    // make shot-sharded execution deterministic (see DESIGN.md,
    // "Parallel execution model") resample every shot, so this asserts
    // the descent *property* — best-visited cost improves, final cost
    // stays within shot noise of the start — rather than one stream's
    // final sample.
    let config = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
    let workload = Workload::qaoa(8, 2, 3).unwrap();
    let mut runner = VqaRunner::new(config, workload).unwrap();
    let report = runner
        .run(&mut GradientDescentOptimizer::new(0.1), 10, 400)
        .unwrap();
    let first = *report.cost_history.first().unwrap();
    let last = *report.cost_history.last().unwrap();
    let best = report
        .cost_history
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    assert!(
        best < first,
        "GD never improved on the starting QAOA cost: first {first}, best {best}"
    );
    // One-sigma shot noise at 400 shots on a cost bounded by the edge
    // count is well under 0.2; anything beyond that is divergence.
    assert!(
        last < first + 0.2,
        "GD diverged: first {first}, last {last}"
    );
}

#[test]
fn breakdown_components_are_bounded() {
    let r = qtenon(WorkloadKind::Qnn, 16, CoreModel::Rocket);
    // Quantum busy time can never exceed wall time (it is never
    // overlapped with itself).
    assert!(r.breakdown.quantum <= r.total);
    // Exposed shares form a distribution.
    let shares = r.exposed_shares();
    assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(shares.iter().all(|s| (0.0..=1.0).contains(s)));
    // Communication is negligible on the tightly coupled system.
    assert!(r.comm.total() < r.total / 20);
}

#[test]
fn reports_are_reproducible() {
    let a = qtenon(WorkloadKind::Qaoa, 8, CoreModel::Rocket);
    let b = qtenon(WorkloadKind::Qaoa, 8, CoreModel::Rocket);
    assert_eq!(a, b);
}

#[test]
fn boom_never_slower_than_rocket() {
    for kind in WorkloadKind::ALL {
        let rocket = qtenon(kind, 16, CoreModel::Rocket);
        let boom = qtenon(kind, 16, CoreModel::BoomLarge);
        assert!(
            boom.total <= rocket.total,
            "{kind}: boom {} vs rocket {}",
            boom.total,
            rocket.total
        );
    }
}

#[test]
fn larger_systems_take_longer_on_both_sides() {
    {
        let (small, large) = (8u32, 32u32);
        let (qs, bs) = with_baseline(WorkloadKind::Vqe, small, CoreModel::Rocket);
        let (ql, bl) = with_baseline(WorkloadKind::Vqe, large, CoreModel::Rocket);
        assert!(ql.total > qs.total);
        assert!(bl.total > bs.total);
    }
}

#[test]
fn shots_scale_quantum_time_linearly() {
    let config = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
    let workload = Workload::qaoa(8, 2, SEED).unwrap();
    let run = |shots: u64| {
        VqaRunner::new(config, workload.clone())
            .unwrap()
            .run(&mut SpsaOptimizer::new(SEED), 1, shots)
            .unwrap()
            .breakdown
            .quantum
    };
    let q100 = run(100);
    let q200 = run(200);
    let delta = q200.as_ns() / q100.as_ns();
    assert!((delta - 2.0).abs() < 0.1, "quantum time ratio {delta}");
    assert!(q100 > SimDuration::ZERO);
}

/// The statevector kernels on the transpiled QAOA circuit at the widths
/// the exact backend serves and the differential harness in
/// `crates/quantum/tests/kernel_equiv.rs` does not reach: the per-gate
/// plan must agree with the naive reference bit for bit once IEEE signed
/// zeros are canonicalised, and the fused plan must sweep each run and
/// each block once (DESIGN.md §13).
#[test]
fn fused_kernels_match_reference_on_transpiled_qaoa() {
    use qtenon::quantum::fuse::{plan, PlanOp};
    use qtenon::quantum::kernels::{mat_rx, mat_ry, mat_rz};
    use qtenon::quantum::{Angle, Gate, StateVector};

    let canonical = |sv: &StateVector| -> Vec<(u64, u64)> {
        let bits = |x: f64| if x == 0.0 { 0 } else { x.to_bits() };
        (0..1usize << sv.n_qubits())
            .map(|i| {
                let a = sv.amplitude(i);
                (bits(a.re), bits(a.im))
            })
            .collect()
    };
    // Sweeps of the fused and the unfused plan: (1q sweeps, blocks, CZs).
    let sweeps = |ops: &[PlanOp]| {
        let count = |f: fn(&PlanOp) -> bool| ops.iter().filter(|op| f(op)).count() as u64;
        (
            count(|op| matches!(op, PlanOp::Run { .. })),
            count(|op| matches!(op, PlanOp::Block2 { .. })),
            count(|op| matches!(op, PlanOp::Cz { .. })),
        )
    };
    for n in [8u32, 12, 16] {
        let workload = Workload::benchmark(WorkloadKind::Qaoa, n, 42).unwrap();
        let circuit = workload.circuit.bind(&workload.initial_params).unwrap();

        let mut reference = StateVector::new(n).unwrap();
        for op in circuit.operations() {
            match op.gate {
                Gate::Rx(Angle::Value(v)) => reference.apply_matrix2_reference(op.qubit, mat_rx(v)),
                Gate::Ry(Angle::Value(v)) => reference.apply_matrix2_reference(op.qubit, mat_ry(v)),
                Gate::Rz(Angle::Value(v)) => reference.apply_matrix2_reference(op.qubit, mat_rz(v)),
                Gate::Cz => reference.apply_cz_reference(op.qubit, op.qubit2.unwrap()),
                Gate::Measure => {}
                ref g => panic!("non-native gate {g:?} after transpile"),
            }
        }
        let unfused_plan = plan(&circuit, false).unwrap();
        let mut unfused = StateVector::new(n).unwrap();
        unfused.apply_plan(&unfused_plan);
        assert!(
            canonical(&reference) == canonical(&unfused),
            "{n} qubits: reference and unfused amplitudes differ after canonicalising zeros"
        );

        let fused_plan = plan(&circuit, true).unwrap();
        let stats = fused_plan.stats;
        assert!(stats.blocks > 0, "{n} qubits: nothing fused");
        assert_eq!(
            sweeps(&fused_plan.ops),
            (stats.runs, stats.blocks, stats.cz_kernels),
            "{n} qubits: one sweep per run and per block"
        );
        let czs = unfused_plan.stats.cz_kernels;
        assert_eq!(sweeps(&unfused_plan.ops), (unfused_plan.stats.runs, 0, czs));
        if n == 12 {
            // The `qaoa12-exact` evaluation: 894 gates and 180 CZs in 78
            // blocks, 24 runs and 24 CZs.
            assert_eq!(
                (unfused_plan.stats.runs, czs),
                (894, 180),
                "per-gate sweeps"
            );
            assert_eq!((stats.runs, stats.blocks, stats.cz_kernels), (24, 78, 24));
        }
    }
}

/// The sweep ledger of the bound benchmark circuits the exact backend
/// runs (seed 11, as `perfbench` binds them): (single-qubit sweeps,
/// two-qubit blocks, CZ sweeps, identities elided) of the fused plan. A
/// change to the planner shows up here first, as a diff of these counts.
#[test]
fn fused_plan_sweep_ledger_is_pinned() {
    use qtenon::quantum::fuse::plan;

    let ledger = |kind: WorkloadKind, n: u32| {
        let workload = Workload::benchmark(kind, n, 11).unwrap();
        let circuit = workload.circuit.bind(&workload.initial_params).unwrap();
        let s = plan(&circuit, true).unwrap().stats;
        (s.runs, s.blocks, s.cz_kernels, s.identities_elided)
    };
    // QAOA: one block per edge and layer whose parts cost more than one
    // 4×4 sweep. In four of the five layers, three edges find no open run
    // on their control qubit: two runs and two CZs, 30 flops per
    // amplitude, tie with the block and are swept as parts.
    assert_eq!(ledger(WorkloadKind::Qaoa, 12), (24, 78, 24, 0));
    assert_eq!(ledger(WorkloadKind::Qaoa, 16), (32, 104, 32, 0));
    // VQE and QNN: RY runs and CZs are cheaper swept one by one, so every
    // block is refused; QNN's encoding runs merge across other qubits.
    assert_eq!(ledger(WorkloadKind::Vqe, 12), (48, 0, 33, 0));
    assert_eq!(ledger(WorkloadKind::Qnn, 12), (36, 0, 22, 0));
}

/// Fused plans against per-gate plans on every workload the exact
/// backend runs: the 2-norm distance of the two final states stays within
/// the bound DESIGN.md §13 derives from the plan's counts.
#[test]
fn fused_plans_stay_within_the_composition_bound_on_every_workload() {
    use qtenon::quantum::fuse::plan;
    use qtenon::quantum::StateVector;

    for kind in WorkloadKind::ALL {
        for n in [8u32, 12, 16] {
            let workload = Workload::benchmark(kind, n, 42).unwrap();
            let circuit = workload.circuit.bind(&workload.initial_params).unwrap();
            let [fused, unfused] = [true, false].map(|fuse| {
                let mut sv = StateVector::new(n).unwrap();
                sv.apply_plan(&plan(&circuit, fuse).unwrap());
                sv
            });
            let distance = (0..1usize << n)
                .map(|i| {
                    let (a, b) = (fused.amplitude(i), unfused.amplitude(i));
                    (a.re - b.re).powi(2) + (a.im - b.im).powi(2)
                })
                .sum::<f64>()
                .sqrt();
            let bound = plan(&circuit, true).unwrap().stats.composition_bound();
            assert!(
                distance <= bound,
                "{kind} at {n} qubits: fused is {distance:e} from per-gate, bound {bound:e}"
            );
        }
    }
}

/// What jobs consume does not depend on fusion: a VQA run's report and
/// metrics JSON are byte-identical fused and unfused, except the
/// `quantum.fuse.*` counters, which describe how the kernels ran.
#[test]
fn fused_and_unfused_vqa_runs_report_identical_results() {
    use qtenon::sim_engine::{MetricValue, MetricsRegistry};

    let run = |kind: WorkloadKind, n: u32, gd: bool, fuse: bool| {
        let config = QtenonConfig::table4(n, CoreModel::Rocket)
            .unwrap()
            .with_fuse(fuse);
        let mut runner =
            VqaRunner::new(config, Workload::benchmark(kind, n, SEED).unwrap()).unwrap();
        let report = if gd {
            runner.run(&mut GradientDescentOptimizer::new(0.1), 1, SHOTS)
        } else {
            runner.run(&mut SpsaOptimizer::new(SEED), ITERS, SHOTS)
        }
        .unwrap();
        let (mut all, mut kept) = (MetricsRegistry::new(), MetricsRegistry::new());
        runner.export_metrics(&mut all);
        for (path, value) in all.iter().filter(|(p, _)| !p.starts_with("quantum.fuse.")) {
            match value {
                MetricValue::Counter(v) => kept.counter(path, *v),
                MetricValue::Gauge(v) => kept.gauge(path, *v),
                MetricValue::Histogram(h) => kept.histogram(path, h),
            }
        }
        (format!("{report:?}"), kept.snapshot().to_json())
    };
    for kind in WorkloadKind::ALL {
        for n in [8u32, 12] {
            for gd in [false, true] {
                assert_eq!(
                    run(kind, n, gd, true),
                    run(kind, n, gd, false),
                    "{kind} at {n} qubits, {}",
                    if gd { "GD" } else { "SPSA" }
                );
            }
        }
    }
}
