//! Differential determinism tests for the latency-attribution profiler.
//!
//! The contract (DESIGN.md §10): sim-time spans — the `RunReport` phase
//! table and every `profile.*` metric — are byte-identical across
//! `--threads` and across `--profile` on/off, because wall-clock data
//! lives in a separate, explicitly unstable section that is never
//! exported. These tests enforce both axes on rendered bytes, not just
//! parsed values, so `qtenon run --profile` output is covered too. One
//! more checks that the phase and controller series conserve what each
//! other series used to restate.

use qtenon_core::config::{CoreModel, QtenonConfig};
use qtenon_core::parallel::MIN_SHOTS_PER_SHARD;
use qtenon_core::report::RunReport;
use qtenon_core::vqa::VqaRunner;
use qtenon_sim_engine::MetricsRegistry;
use qtenon_workloads::{SpsaOptimizer, Workload, WorkloadKind};

/// Thread count for the sharded leg: `QTENON_THREADS` when set (the CI
/// matrix pins 1 and 4), otherwise 4.
fn sharded_threads() -> usize {
    std::env::var("QTENON_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Runs a small VQE and returns the report, the rendered phase table
/// (exactly what `qtenon run --profile` prints), and the metrics-JSON
/// artefact (exactly what `--metrics` writes).
fn run_at(threads: usize, profile: bool, seed: u64) -> (RunReport, String, String) {
    let config = QtenonConfig::table4(8, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(seed)
        .with_threads(threads)
        .with_profile(profile);
    let workload = Workload::benchmark(WorkloadKind::Vqe, 8, seed).expect("workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner");
    let report = runner
        .run(&mut SpsaOptimizer::new(seed), 2, 4 * MIN_SHOTS_PER_SHARD)
        .expect("run succeeds");
    let mut m = MetricsRegistry::new();
    runner.export_metrics(&mut m);
    let rendered = report.phases.render("phase");
    (report, rendered, m.snapshot().to_json())
}

#[test]
fn phase_table_byte_identical_across_thread_counts() {
    for seed in [1u64, 42] {
        let (serial, serial_table, serial_json) = run_at(1, false, seed);
        let (sharded, sharded_table, sharded_json) = run_at(sharded_threads(), false, seed);
        assert_eq!(serial_table, sharded_table, "seed {seed}");
        assert_eq!(serial.phases, sharded.phases, "seed {seed}");
        assert_eq!(serial_json, sharded_json, "seed {seed}");
    }
}

#[test]
fn profile_flag_never_changes_reports_or_metrics() {
    let (off_report, off_table, off_json) = run_at(1, false, 42);
    let (on_report, on_table, on_json) = run_at(1, true, 42);
    assert_eq!(off_report, on_report);
    assert_eq!(off_table, on_table);
    assert_eq!(off_json, on_json);
    // Both axes at once: threads and profile flipped together.
    let (both_report, both_table, both_json) = run_at(sharded_threads(), true, 42);
    assert_eq!(off_report, both_report);
    assert_eq!(off_table, both_table);
    assert_eq!(off_json, both_json);
}

#[test]
fn phase_attribution_is_consistent_with_the_breakdown() {
    let (report, rendered, json) = run_at(1, false, 42);
    assert!(!report.phases.is_empty());
    // The quantum-execute phase is the breakdown's quantum time,
    // span-for-span: 2 iterations × 2 SPSA evaluations.
    let quantum = report.phases.row("vqa.quantum_execute").expect("phase row");
    assert_eq!(quantum.count, 4);
    assert_eq!(quantum.total_ns, report.breakdown.quantum.as_ps() / 1_000);
    // One optimizer step per iteration.
    assert_eq!(
        report.phases.row("vqa.optimizer_step").expect("row").count,
        2
    );
    // The rendered table carries every row plus the total line, and the
    // profile namespace made it into the metrics artefact.
    assert_eq!(rendered.lines().count(), report.phases.rows.len() + 2);
    assert!(json.contains("\"profile.vqa.quantum_execute.sim_total_ns\""));
    assert!(json.contains("\"profile.chip.execute.sim_ns\""));
    // Wall-clock never leaks into stable output.
    assert!(!json.contains("wall"));
    assert!(!rendered.contains("wall"));
}

/// The DES batch tallies and a gauge reach the Prometheus exporter (not
/// just the JSON artefact), and every exported histogram's cumulative
/// `le`-series is internally consistent: the `+Inf` bucket equals
/// `_count`, and finite cumulative counts never exceed it.
#[test]
fn des_tallies_and_gauges_export_to_prometheus_with_cumulative_histograms() {
    let config = QtenonConfig::table4(8, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(42);
    let workload = Workload::benchmark(WorkloadKind::Vqe, 8, 42).expect("workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner");
    runner
        .run(&mut SpsaOptimizer::new(42), 2, 96)
        .expect("run succeeds");
    let mut m = MetricsRegistry::new();
    runner.export_metrics(&mut m);
    let snapshot = m.snapshot();
    let json = snapshot.to_json();
    let prom = snapshot.to_prometheus();
    // The DES batch tallies, and a gauge: a metric's kind never keeps
    // it out of either export.
    for key in [
        "profile.des.puts_scheduled",
        "profile.des.put_queue_high_water",
        "core.instr.q_update.total_ns",
    ] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "{key} missing from JSON"
        );
        let name = key.replace('.', "_");
        assert!(
            prom.lines().any(|l| l.starts_with(&format!("{name} "))),
            "{name} missing from Prometheus output:\n{prom}"
        );
    }
    assert!(
        json.contains("\"core.instr.q_update.total_ns\":{\"type\":\"gauge\""),
        "core.instr.q_update.total_ns is not a gauge"
    );
    // Cumulative-histogram consistency, checked on the exporter's own
    // output: per metric, finite le-buckets are non-decreasing and the
    // final +Inf bucket equals the _count sample.
    let mut inf_counts = std::collections::BTreeMap::new();
    let mut last_finite = std::collections::BTreeMap::new();
    let mut counts = std::collections::BTreeMap::new();
    let mut checked = 0usize;
    for line in prom.lines() {
        if let Some((head, v)) = line.rsplit_once(' ') {
            let v: u64 = match v.parse() {
                Ok(v) => v,
                Err(_) => continue,
            };
            if let Some(name) = head.strip_suffix("_bucket{le=\"+Inf\"}") {
                inf_counts.insert(name.to_string(), v);
            } else if let Some((name, _)) = head.split_once("_bucket{le=\"") {
                let prev = last_finite.entry(name.to_string()).or_insert(0u64);
                assert!(v >= *prev, "non-monotone cumulative bucket: {line}");
                *prev = v;
            } else if let Some(name) = head.strip_suffix("_count") {
                counts.insert(name.to_string(), v);
            }
        }
    }
    for (name, inf) in &inf_counts {
        assert_eq!(counts.get(name), Some(inf), "{name}: +Inf != _count");
        if let Some(finite) = last_finite.get(name) {
            assert!(
                finite <= inf,
                "{name}: finite cumulative {finite} > +Inf {inf}"
            );
        }
        checked += 1;
    }
    assert!(checked > 0, "no histograms found in Prometheus output");
}

/// Empty-run guard: zero-iteration and zero-shot runs must not leak
/// NaN into any rendered table or metrics artefact, and must render
/// byte-stable output (including the fixed empty-table placeholders).
#[test]
fn zero_iteration_and_zero_shot_runs_render_stable_tables() {
    let run = |iterations: usize, shots: u64| {
        let config = QtenonConfig::table4(8, CoreModel::Rocket)
            .expect("valid config")
            .with_seed(1);
        let workload = Workload::benchmark(WorkloadKind::Vqe, 8, 1).expect("workload");
        let mut runner = VqaRunner::new(config, workload).expect("runner");
        let report = runner
            .run(&mut SpsaOptimizer::new(1), iterations, shots)
            .expect("degenerate run still succeeds");
        let mut m = MetricsRegistry::new();
        runner.export_metrics(&mut m);
        let snapshot = m.snapshot();
        (
            report.phases.render("phase"),
            report.critpath.render_critpath(),
            snapshot.to_json(),
            snapshot.to_prometheus(),
            snapshot.to_text(),
        )
    };
    for (iters, shots) in [(0usize, 0u64), (0, 16), (1, 0)] {
        let first = run(iters, shots);
        let second = run(iters, shots);
        assert_eq!(first, second, "iterations={iters} shots={shots}");
        let (phases, critpath, json, prom, text) = first;
        for artefact in [&phases, &critpath, &json, &prom, &text] {
            assert!(
                !artefact.contains("NaN") && !artefact.contains("inf"),
                "iterations={iters} shots={shots}: non-finite leak in\n{artefact}"
            );
        }
    }
}

/// Tables with no rows render fixed placeholder bytes, never a bare
/// header or a NaN-percentile row.
#[test]
fn empty_tables_render_fixed_placeholders() {
    use qtenon_sim_engine::SpanTable;
    assert_eq!(SpanTable::default().render("phase"), "no phases recorded\n");
    assert_eq!(
        SpanTable::default().render_critpath(),
        "no critical path recorded\n"
    );
}

/// The controller exports each fact once, and the series that remain
/// still carry what three deleted ones restated: PGU dispatches are the
/// `controller.pgu.wait_ns` samples, the pipeline's stall time is the
/// `controller.pgu_stall` phase, and every SLT eviction wrote back to
/// QSpace. Checked straight on `q_gen`, inert and under PGU and SLT
/// faults.
#[test]
fn controller_series_conserve_the_dispatch_stall_and_writeback_tallies() {
    use qtenon_compiler::QtenonCompiler;
    use qtenon_core::system::QtenonSystem;
    use qtenon_sim_engine::{FaultPlan, MetricValue, SimDuration, SimTime};

    let counter = |m: &MetricsRegistry, path: &str| match m.get(path) {
        Some(MetricValue::Counter(n)) => *n,
        None => 0,
        other => panic!("{path} is {other:?}"),
    };
    let faulty =
        FaultPlan::parse("pgu_fail=0.2,pgu_stall=0.2,slt_bitflip=0.05,max_attempts=16,seed=3")
            .expect("valid plan");
    for plan in [FaultPlan::default(), faulty] {
        let config = QtenonConfig::table4(8, CoreModel::Rocket)
            .expect("valid config")
            .with_faults(plan);
        let workload = Workload::benchmark(WorkloadKind::Qaoa, 8, 7).expect("workload");
        let program = QtenonCompiler::new(config.layout)
            .compile(&workload.circuit)
            .expect("compiles");
        let rounds: Vec<_> = (0..24)
            .map(|round| {
                let params: Vec<f64> = (0..workload.num_params())
                    .map(|i| 0.37 * (round * workload.num_params() + i) as f64)
                    .collect();
                program.work_items(&params).expect("binds")
            })
            .collect();
        let mut sys = QtenonSystem::new(config).expect("system builds");
        let mut t = SimTime::ZERO;
        let mut stall = SimDuration::ZERO;
        let mut gen = |sys: &mut QtenonSystem, t: &mut SimTime| {
            for items in &rounds {
                let (report, done) = sys.q_gen(*t, items).expect("q_gen");
                stall += report.stall_time;
                *t = done;
            }
            let mut m = MetricsRegistry::new();
            sys.export_metrics(&mut m);
            m
        };
        let first = gen(&mut sys, &mut t);
        // Replaying every request: a pulse the SLT evicted is found
        // again in QSpace, never generated again, unless a parity flip
        // dropped its SLT entry before any write-back.
        let m = gen(&mut sys, &mut t);
        let generated = counter(&m, "controller.pipeline.generated");
        let regenerated = generated - counter(&first, "controller.pipeline.generated");
        let evictions = counter(&m, "controller.slt.evictions");
        assert!(evictions > counter(&first, "controller.slt.evictions"));
        assert!(counter(&m, "controller.slt.qspace_hits") > 0);
        assert!(regenerated <= counter(&m, "controller.slt.parity_invalidations"));

        // One wait sample per PGU attempt: each generated pulse plus each
        // re-dispatch after a bad pulse.
        let redispatches = counter(&m, "resilience.pgu_redispatches");
        let waits = match m.get("controller.pgu.wait_ns") {
            Some(MetricValue::Histogram(h)) => h.count(),
            other => panic!("controller.pgu.wait_ns is {other:?}"),
        };
        assert_eq!(waits, generated + redispatches);
        // Every report's stall time lands in the phase, once.
        let stall_ns = counter(&m, "profile.controller.pgu_stall.sim_total_ns");
        assert!(stall_ns > 0);
        assert_eq!(stall_ns as f64, stall.as_ns());

        if plan.is_active() {
            assert!(redispatches > 0);
            assert!(counter(&m, "controller.slt.parity_invalidations") > 0);
        } else {
            assert_eq!(regenerated, 0);
            assert_eq!(redispatches, 0);
        }
    }
}
