//! Golden-file snapshot tests for the experiments telemetry export — the
//! JSON artefact `qtenon --metrics` and `experiments --metrics` write.
//!
//! Goldens live in `tests/golden/`, and a missing one fails its test.
//! After an intentional schema or model change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p qtenon --test golden` (see README). The determinism assertions (serial vs sharded)
//! run unconditionally — they never depend on the files.

use std::fmt::Write as _;
use std::path::PathBuf;

use qtenon_baseline::{BaselineConfig, BaselineRunner};
use qtenon_bench::experiments::{telemetry_snapshot, telemetry_snapshot_exact, ExperimentScale};
use qtenon_core::config::{CoreModel, QtenonConfig, SyncMode, TransmissionPolicy};
use qtenon_core::jobs::JobOptimizer;
use qtenon_core::parallel::MIN_SHOTS_PER_SHARD;
use qtenon_core::report::RunReport;
use qtenon_core::system::QtenonSystem;
use qtenon_core::vqa::VqaRunner;
use qtenon_isa::{EncodedAngle, GateType, ProgramEntry, QubitId};
use qtenon_quantum::Circuit;
use qtenon_sim_engine::{
    FaultPlan, FaultSite, MetricValue, MetricsRegistry, MetricsSnapshot, SimDuration, SimTime,
};
use qtenon_workloads::{Optimizer, SpsaOptimizer, Workload, WorkloadKind};

/// A fixed tiny scale so golden bytes are stable and cheap to produce.
fn golden_scale() -> ExperimentScale {
    ExperimentScale {
        iterations: 1,
        shots: 64,
        qubit_sweep: vec![8],
        scaling_sweep: vec![8],
        seed: 7,
        threads: 1,
    }
}

/// The golden scale with enough shots for four real shards, so the
/// serial-vs-sharded comparisons never degrade to serial-vs-serial.
fn shardable_scale() -> ExperimentScale {
    ExperimentScale {
        shots: 4 * MIN_SHOTS_PER_SHARD,
        ..golden_scale()
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the stored golden, which must exist.
/// `UPDATE_GOLDEN=1` writes it instead, creating it if missing.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    if update {
        std::fs::create_dir_all(path.parent().expect("golden dir has parent"))
            .expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("golden {name}: wrote {} bytes", actual.len());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden {name} is missing ({e}); create it with UPDATE_GOLDEN=1 after verifying the output"
        )
    });
    assert_eq!(
        expected, actual,
        "golden {name} is stale; regenerate with UPDATE_GOLDEN=1 after verifying the change"
    );
}

#[test]
fn metrics_schema_matches_golden() {
    let snapshot = telemetry_snapshot(&golden_scale());
    let mut schema = String::new();
    for (path, value) in &snapshot.metrics {
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        schema.push_str(path);
        schema.push(' ');
        schema.push_str(kind);
        schema.push('\n');
    }
    // The parallel engine's shard metrics are part of the schema.
    assert!(
        schema.contains("core.parallel.shots_sampled counter"),
        "shard counter missing from schema:\n{schema}"
    );
    assert!(
        schema.contains("core.parallel.ones_per_shot histogram"),
        "shard histogram missing from schema:\n{schema}"
    );
    check_golden("metrics_schema.txt", &schema);
}

/// The metric tree minus the `quantum.fuse.*` accounting counters — the
/// only entries allowed to differ between fused and unfused runs.
fn strip_fuse_counters(s: &MetricsSnapshot) -> Vec<(String, MetricValue)> {
    s.metrics
        .iter()
        .filter(|(path, _)| !path.starts_with("quantum.fuse."))
        .map(|(path, value)| (path.clone(), value.clone()))
        .collect()
}

fn counter(s: &MetricsSnapshot, path: &str) -> u64 {
    match s.metrics.iter().find(|(p, _)| p.as_str() == path) {
        Some((_, MetricValue::Counter(n))) => *n,
        other => panic!("expected counter at {path}, found {other:?}"),
    }
}

#[test]
fn fusion_is_artefact_invariant_on_the_exact_backend() {
    // 8 qubits puts the exact statevector backend — and the kernel/fusion
    // layer — on the path; >1 shard exercises sharded sampling with the
    // fusion toggle in both positions.
    let scale = shardable_scale().with_threads(4);
    let (fused, fused_report) = telemetry_snapshot_exact(&scale, true);
    let (unfused, unfused_report) = telemetry_snapshot_exact(&scale, false);
    // The run artefacts (timings, costs, shots, sync traces) never depend
    // on fusion.
    assert_eq!(fused_report, unfused_report, "fusion changed the report");
    assert_eq!(
        strip_fuse_counters(&fused),
        strip_fuse_counters(&unfused),
        "fusion leaked beyond the quantum.fuse.* accounting counters"
    );
    // Both runs really took the intended paths.
    assert!(counter(&fused, "quantum.fuse.gates_fused") > 0);
    assert_eq!(counter(&unfused, "quantum.fuse.gates_fused"), 0);
    assert_eq!(counter(&unfused, "quantum.fuse.fused_runs"), 0);
    assert_eq!(
        counter(&fused, "quantum.fuse.gates_in"),
        counter(&unfused, "quantum.fuse.gates_in"),
        "gate accounting must not depend on the fusion toggle"
    );
    // Sharding is invariant too, in either fusion mode.
    let (fused_serial, _) = telemetry_snapshot_exact(&shardable_scale(), true);
    let (unfused_serial, _) = telemetry_snapshot_exact(&shardable_scale(), false);
    assert_eq!(fused_serial.to_json(), fused.to_json());
    assert_eq!(unfused_serial.to_json(), unfused.to_json());
}

#[test]
fn exact_backend_metrics_schema_matches_golden() {
    let (snapshot, _) = telemetry_snapshot_exact(&golden_scale(), true);
    let mut schema = String::new();
    for (path, value) in &snapshot.metrics {
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        schema.push_str(path);
        schema.push(' ');
        schema.push_str(kind);
        schema.push('\n');
    }
    // The kernel accounting counters are part of the exact-backend schema.
    for counter in [
        "quantum.fuse.gates_in",
        "quantum.fuse.gates_fused",
        "quantum.fuse.runs",
        "quantum.fuse.fused_runs",
        "quantum.fuse.identities_elided",
        "quantum.fuse.kernels.diag",
        "quantum.fuse.kernels.general",
        "quantum.fuse.kernels.cz",
    ] {
        assert!(
            schema.contains(&format!("{counter} counter")),
            "{counter} missing from exact-backend schema:\n{schema}"
        );
    }
    check_golden("metrics_exact_schema.txt", &schema);
}

/// The full exact-backend export, values included: fused ≡ unfused cannot
/// catch a kernel change that both paths share, this golden can.
#[test]
fn exact_backend_metrics_json_matches_golden() {
    let (snapshot, _) = telemetry_snapshot_exact(&golden_scale(), true);
    check_golden("metrics_exact_tiny.json", &snapshot.to_json());
}

#[test]
fn metrics_json_matches_golden_at_any_thread_count() {
    let serial = telemetry_snapshot(&shardable_scale()).to_json();
    let sharded = telemetry_snapshot(&shardable_scale().with_threads(4)).to_json();
    // Bitwise determinism first: the golden never depends on threads.
    assert_eq!(
        serial, sharded,
        "sharded telemetry diverged from serial telemetry"
    );
    check_golden(
        "metrics_tiny.json",
        &telemetry_snapshot(&golden_scale()).to_json(),
    );
}

/// Width of the wide golden run: the widest `fleet-dup50` system.
const WIDE_QUBITS: u32 = 128;

/// A 128-qubit QAOA SPSA run long enough that `.pulse` allocations run
/// past slot 128 of at least one qubit, i.e. across three 64-entry QCC
/// pages, with enough shots for four real shards.
fn wide_snapshot(threads: usize) -> MetricsSnapshot {
    let config = QtenonConfig::table4(WIDE_QUBITS, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(7)
        .with_threads(threads);
    let workload = Workload::benchmark(WorkloadKind::Qaoa, WIDE_QUBITS, 7).expect("workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner builds");
    runner
        .run(&mut SpsaOptimizer::new(7), 20, 4 * MIN_SHOTS_PER_SHARD)
        .expect("run succeeds");
    let mut registry = MetricsRegistry::new();
    runner.export_metrics(&mut registry);
    registry.snapshot()
}

/// The full export of a run whose pulse slots span several QCC pages,
/// at 1 and 4 threads.
#[test]
fn wide_metrics_json_matches_golden_at_any_thread_count() {
    let serial = wide_snapshot(1);
    // Pigeonhole: more than 128 allocations per qubit on average means
    // some qubit wrote pulse slot 128 or later (pages 0, 1 and 2).
    let allocations = counter(&serial, "controller.slt.allocations");
    assert!(
        allocations > u64::from(WIDE_QUBITS) * 128,
        "only {allocations} pulse allocations: the run stays within two pages per qubit"
    );
    let serial = serial.to_json();
    assert_eq!(
        serial,
        wide_snapshot(4).to_json(),
        "sharded wide telemetry diverged from serial telemetry"
    );
    check_golden("metrics_wide.json", &serial);
}

/// Rounds of the second `q_update`/`q_gen`/`q_run` block in the faulty
/// trace: more flows than the RBQ's 32 tags, each of which gets stuck.
const STUCK_ROUNDS: usize = 40;

/// The traced ISA sequence behind the trace goldens, straight on a
/// 4-qubit system: `q_set_program`, `q_update`, `q_gen`, `q_run`,
/// `q_acquire`, `put_results`, then `rounds` repeats of a second
/// `q_update`/`q_gen`/`q_run` block, then `trace_critpath`. Returns the
/// Chrome JSON and the system, for the callers' extra checks.
fn traced_ops(faults: FaultPlan, rounds: usize) -> (String, QtenonSystem) {
    let config = QtenonConfig::table4(4, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(7)
        .with_faults(faults);
    let layout = config.layout;
    let mut sys = QtenonSystem::new(config).expect("system builds");
    sys.set_tracing(true);
    sys.critpath_mut().open_at(SimTime::ZERO);
    let entries = vec![ProgramEntry::rotation(GateType::Rx, EncodedAngle::from_radians(0.3)); 8];
    let program = layout.program_entry(QubitId::new(0), 0).expect("program");
    let reg = layout.regfile_entry(0).expect("regfile");
    let measure = layout.measure_entry(0).expect("measure");
    let mut circuit = Circuit::new(4);
    circuit.rx(0, 1.0).ry(1, 0.5).cz(0, 1).measure_all();
    let items = |code: u32| {
        vec![
            (QubitId::new(0), GateType::Ry, code),
            (QubitId::new(1), GateType::Rx, 99),
        ]
    };

    let t = sys
        .q_set_program(SimTime::ZERO, 0x8000, program, &entries)
        .expect("q_set");
    let t = sys.q_update(t, reg, 11).expect("q_update");
    let (_, t) = sys.q_gen(t, &items(11)).expect("q_gen");
    let t = sys.q_run(t, &circuit, 8).expect("q_run").complete;
    let t = sys.q_acquire(t, measure, 8, 0xA000).expect("q_acquire");
    let mut t = sys.put_results(t, 64).expect("put");
    for round in 0..rounds as u32 {
        t = sys.q_update(t, reg, 12 + round).expect("q_update");
        let (_, tg) = sys.q_gen(t, &items(12 + round)).expect("q_gen");
        t = sys.q_run(tg, &circuit, 8).expect("q_run").complete;
    }
    sys.trace_critpath();
    let json = sys.take_trace().expect("tracing on").to_chrome_json();
    (json, sys)
}

#[test]
fn ops_trace_matches_golden() {
    let (json, _) = traced_ops(FaultPlan::default(), 1);
    check_golden("trace_ops.json", &json);
}

/// The faulty twin: every flow's completion response is (almost
/// surely) lost, and the readout classifier times out. The watchdog
/// timeout (330 µs) outlasts 32 of the ~10 µs rounds, so the 32 stuck
/// tags exhaust the RBQ and the host stalls before the watchdog frees
/// the oldest ones; at the default 10 µs the watchdog always frees a tag
/// first.
#[test]
fn faulty_ops_trace_matches_golden() {
    let plan = FaultPlan {
        watchdog_timeout_ns: 330_000,
        ..FaultPlan::default()
            .with_rate(FaultSite::RbqStuck, 0.99)
            .with_rate(FaultSite::ReadoutTimeout, 0.5)
            .with_seed(5)
    };
    let (json, sys) = traced_ops(plan, STUCK_ROUNDS);
    for name in ["fault:rbq_stuck", "fault:readout_timeout"] {
        assert!(
            json.contains(name),
            "the faulty trace lost its {name} events"
        );
    }
    let mut m = MetricsRegistry::new();
    sys.export_metrics(&mut m);
    for path in ["resilience.rbq_stalls", "resilience.rbq_reclaims"] {
        assert!(
            matches!(m.get(path), Some(MetricValue::Counter(n)) if *n > 0),
            "{path} is zero: the RBQ never ran out of tags"
        );
    }
    assert!(sys.phase_table().row("controller.rbq_wait").is_some());
    check_golden("trace_ops_faulty.json", &json);
}

/// Renders the accounting fields of one [`RunReport`] under `label`:
/// every duration in picoseconds, every tally as an integer, and
/// `pulse_reduction` through `{:?}`, which round-trips an `f64` exactly.
/// Then the rendered phase table and critical-path table, component
/// section included.
fn render_report(out: &mut String, label: &str, r: &RunReport) {
    let b = &r.breakdown;
    let c = &r.comm;
    writeln!(out, "[{label}]").unwrap();
    writeln!(out, "total_ps {}", r.total.as_ps()).unwrap();
    writeln!(
        out,
        "breakdown_ps quantum={} communication={} pulse_generation={} host={}",
        b.quantum.as_ps(),
        b.communication.as_ps(),
        b.pulse_generation.as_ps(),
        b.host.as_ps()
    )
    .unwrap();
    writeln!(
        out,
        "comm q_set_ps={} q_update_ps={} q_acquire_ps={} q_set_count={} q_update_count={} q_acquire_count={}",
        c.q_set.as_ps(),
        c.q_update.as_ps(),
        c.q_acquire.as_ps(),
        c.q_set_count,
        c.q_update_count,
        c.q_acquire_count
    )
    .unwrap();
    writeln!(
        out,
        "instructions dynamic={} static={}",
        r.dynamic_instructions, r.static_instructions
    )
    .unwrap();
    writeln!(
        out,
        "pulses generated={} reduction={:?}",
        r.pulses_generated, r.pulse_reduction
    )
    .unwrap();
    writeln!(out, "slt {:?}", r.slt).unwrap();
    writeln!(out, "resilience {:?}", r.resilience).unwrap();
    out.push_str(&r.phases.render("phase"));
    out.push_str(&r.critpath.render_critpath());
}

/// The active plan of the faulty report runs: every site fires, and most
/// completion responses are lost to a slow watchdog, so the RBQ runs out
/// of tags and stalls shift the start of `q_gen`/`q_run`.
fn report_fault_plan() -> FaultPlan {
    FaultPlan {
        watchdog_timeout_ns: 100_000_000,
        ..FaultPlan::all(0.05)
            .with_rate(FaultSite::RbqStuck, 0.99)
            .with_seed(0xFA17)
    }
}

/// An 8-qubit runner for `kind` under `sync`/`transmission`/`faults`.
fn report_runner(
    kind: WorkloadKind,
    sync: SyncMode,
    transmission: TransmissionPolicy,
    faults: FaultPlan,
) -> VqaRunner {
    let scale = golden_scale();
    let config = QtenonConfig::table4(8, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(scale.seed)
        .with_sync(sync)
        .with_transmission(transmission)
        .with_faults(faults);
    let workload = Workload::benchmark(kind, 8, scale.seed).expect("workload");
    VqaRunner::new(config, workload).expect("runner builds")
}

/// The accounting fields of a fixed set of runs: QAOA-8 SPSA and VQE-8
/// GD under each synchronisation/transmission pair, inert and faulty,
/// then one deadline-cut run and the baseline over the workload grid.
fn run_reports() -> String {
    let scale = golden_scale();
    let mut out = String::new();
    let mut stalled = false;
    let workloads = [
        ("qaoa8-spsa", WorkloadKind::Qaoa, JobOptimizer::Spsa),
        ("vqe8-gd", WorkloadKind::Vqe, JobOptimizer::Gd),
    ];
    let modes = [
        (
            "fine-batched",
            SyncMode::FineGrained,
            TransmissionPolicy::Batched,
        ),
        (
            "fine-immediate",
            SyncMode::FineGrained,
            TransmissionPolicy::Immediate,
        ),
        ("fence", SyncMode::Fence, TransmissionPolicy::Batched),
    ];
    for (name, kind, optimizer) in workloads {
        for (mode, sync, transmission) in modes {
            for (faults_name, faults) in [
                ("inert", FaultPlan::default()),
                ("faulty", report_fault_plan()),
            ] {
                let report = report_runner(kind, sync, transmission, faults)
                    .run(
                        optimizer.build(scale.seed).as_mut(),
                        scale.iterations,
                        scale.shots,
                    )
                    .expect("run succeeds");
                stalled |= report.phases.row("controller.rbq_wait").is_some();
                render_report(&mut out, &format!("{name} {mode} {faults_name}"), &report);
            }
        }
    }

    assert!(stalled, "no faulty run stalled on the RBQ");

    // A deadline one nanosecond past the first iteration cuts a
    // three-iteration run after its second iteration.
    let runner = || {
        report_runner(
            WorkloadKind::Qaoa,
            SyncMode::FineGrained,
            TransmissionPolicy::Batched,
            FaultPlan::default(),
        )
    };
    let one = runner()
        .run(&mut SpsaOptimizer::new(7), 1, scale.shots)
        .expect("run succeeds");
    let budget = one.total + SimDuration::from_ns(1);
    let (cut, status) = runner()
        .run_with_deadline(&mut SpsaOptimizer::new(7), 3, scale.shots, Some(budget))
        .expect("run succeeds");
    assert!(status.hit, "the deadline never fired: {status:?}");
    render_report(
        &mut out,
        &format!(
            "qaoa8-spsa deadline {}/{}",
            status.completed_iterations, status.requested_iterations
        ),
        &cut,
    );

    // The baseline times the trajectory of a Qtenon run under the
    // default config (chip seed 0x51).
    let baseline = |kind: WorkloadKind, n: u32, optimizer: &mut dyn Optimizer, iterations| {
        let workload = Workload::benchmark(kind, n, scale.seed).expect("workload");
        let config = QtenonConfig::table4(n, CoreModel::Rocket).expect("valid config");
        let mut qtenon = VqaRunner::new(config, workload.clone()).expect("runner builds");
        qtenon
            .run(optimizer, iterations, scale.shots)
            .expect("run succeeds");
        BaselineRunner::new(BaselineConfig::default(), workload)
            .run(qtenon.trajectory())
            .expect("the trajectory is this workload's")
    };
    let report = baseline(
        WorkloadKind::Qaoa,
        8,
        &mut SpsaOptimizer::new(7),
        scale.iterations,
    );
    render_report(&mut out, "baseline qaoa8-spsa", &report);

    // The baseline across the workload grid, two iterations each, with
    // the cost history it reports. VQE-16 is past the exact limit.
    for (name, kind, n, optimizer) in [
        ("qaoa8-spsa", WorkloadKind::Qaoa, 8, JobOptimizer::Spsa),
        ("qaoa8-gd", WorkloadKind::Qaoa, 8, JobOptimizer::Gd),
        ("vqe8-spsa", WorkloadKind::Vqe, 8, JobOptimizer::Spsa),
        ("vqe8-gd", WorkloadKind::Vqe, 8, JobOptimizer::Gd),
        ("qnn8-spsa", WorkloadKind::Qnn, 8, JobOptimizer::Spsa),
        ("qnn8-gd", WorkloadKind::Qnn, 8, JobOptimizer::Gd),
        ("vqe16-gd", WorkloadKind::Vqe, 16, JobOptimizer::Gd),
    ] {
        let report = baseline(kind, n, optimizer.build(scale.seed).as_mut(), 2);
        render_report(&mut out, &format!("baseline {name} x2"), &report);
        writeln!(out, "cost_history {:?}", report.cost_history).unwrap();
    }
    out
}

#[test]
fn run_reports_match_golden() {
    check_golden("run_reports.txt", &run_reports());
}
