//! Differential determinism tests for the causal critical-path
//! analyzer.
//!
//! The contract (DESIGN.md §11): the [`CritPathReport`] in a
//! `RunReport` — the who-blocks-whom table `qtenon run --critpath`
//! prints and every `critpath.edge.*` metric — derives purely from
//! simulated completion times, so it is byte-identical across
//! `--threads`, invisible to zero-rate fault plans, and identical
//! whether a job runs inside a batch fleet or standalone. These tests
//! enforce all three axes on rendered bytes, not just parsed values.

use qtenon_core::config::{CoreModel, QtenonConfig, SyncMode, TransmissionPolicy};
use qtenon_core::jobs::{run_standalone, BatchScheduler, JobId, JobSpec};
use qtenon_core::parallel::MIN_SHOTS_PER_SHARD;
use qtenon_core::report::RunReport;
use qtenon_core::vqa::VqaRunner;
use qtenon_sim_engine::{FaultPlan, MetricsRegistry};
use qtenon_workloads::{
    GradientDescentOptimizer, Optimizer, SpsaOptimizer, Workload, WorkloadKind,
};

/// Thread count for the sharded leg: `QTENON_THREADS` when set (the CI
/// matrix pins 1 and 4), otherwise 4.
fn sharded_threads() -> usize {
    std::env::var("QTENON_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Runs a small VQE and returns the report, the rendered critical-path
/// table (exactly what `qtenon run --critpath` prints), and the
/// metrics-JSON artefact (exactly what `--metrics` writes).
fn run_at(threads: usize, faults: Option<FaultPlan>, seed: u64) -> (RunReport, String, String) {
    let mut config = QtenonConfig::table4(8, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(seed)
        .with_threads(threads);
    if let Some(plan) = faults {
        config = config.with_faults(plan);
    }
    let workload = Workload::benchmark(WorkloadKind::Vqe, 8, seed).expect("workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner");
    let report = runner
        .run(&mut SpsaOptimizer::new(seed), 2, 4 * MIN_SHOTS_PER_SHARD)
        .expect("run succeeds");
    let mut m = MetricsRegistry::new();
    runner.export_metrics(&mut m);
    let rendered = report.critpath.render();
    (report, rendered, m.snapshot().to_json())
}

#[test]
fn critpath_byte_identical_across_thread_counts() {
    for seed in [1u64, 42] {
        let (serial, serial_table, serial_json) = run_at(1, None, seed);
        let (sharded, sharded_table, sharded_json) = run_at(sharded_threads(), None, seed);
        assert_eq!(serial_table, sharded_table, "seed {seed}");
        assert_eq!(serial.critpath, sharded.critpath, "seed {seed}");
        assert_eq!(serial_json, sharded_json, "seed {seed}");
    }
}

#[test]
fn zero_rate_fault_plan_leaves_critpath_untouched() {
    let (clean, clean_table, clean_json) = run_at(1, None, 42);
    // A plan with a seed but all-zero rates must be behaviourally
    // invisible to the causal chain.
    let zeroed = FaultPlan::default().with_seed(99);
    let (faulted, faulted_table, faulted_json) = run_at(1, Some(zeroed), 42);
    assert_eq!(clean.critpath, faulted.critpath);
    assert_eq!(clean_table, faulted_table);
    assert_eq!(clean_json, faulted_json);
    // Both axes at once: threads and the zero-rate plan together.
    let (both, both_table, _) = run_at(sharded_threads(), Some(zeroed), 42);
    assert_eq!(clean.critpath, both.critpath);
    assert_eq!(clean_table, both_table);
}

#[test]
fn active_fault_plan_reproduces_its_own_critpath() {
    // An active plan may legitimately change the chain (retries extend
    // completion times) but must do so deterministically.
    let plan = FaultPlan::all(0.02).with_seed(0xFA17);
    let (a, a_table, a_json) = run_at(1, Some(plan), 7);
    let (b, b_table, b_json) = run_at(sharded_threads(), Some(plan), 7);
    assert!(!a.critpath.is_empty());
    assert_eq!(a.critpath, b.critpath);
    assert_eq!(a_table, b_table);
    assert_eq!(a_json, b_json);
}

#[test]
fn batch_and_standalone_jobs_agree_on_the_critpath() {
    let jobs = vec![
        JobSpec::new("vqe-a", WorkloadKind::Vqe, 8)
            .with_iterations(2)
            .with_shots(48),
        JobSpec::new("qaoa-b", WorkloadKind::Qaoa, 8)
            .with_iterations(1)
            .with_shots(48)
            .with_seed(0xBEEF),
        JobSpec::new("qaoa-faulty", WorkloadKind::Qaoa, 8)
            .with_iterations(1)
            .with_shots(48)
            .with_faults(FaultPlan::all(0.02).with_seed(0xFA17)),
    ];
    let mut sched = BatchScheduler::new(42);
    for job in &jobs {
        sched.submit(job.clone()).expect("fleet fits");
    }
    let references: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let seed = sched.seed_of(JobId::from_index(i)).expect("admitted");
            run_standalone(spec, seed, 0, 1).expect("standalone run succeeds")
        })
        .collect();
    for threads in [1usize, 4] {
        let batch = sched.run(threads).expect("batch run succeeds");
        for (i, result) in batch.results.iter().enumerate() {
            let artefacts = result.outcome.artifacts().expect("job completed");
            assert_eq!(
                artefacts.report.critpath, references[i].report.critpath,
                "job {} critpath differs from standalone at pool width {threads}",
                result.name
            );
            assert_eq!(
                artefacts.report.critpath.render(),
                references[i].report.critpath.render(),
                "job {} rendered table differs at pool width {threads}",
                result.name
            );
        }
    }
}

#[test]
fn critpath_covers_the_canonical_edges_and_exports_metrics() {
    let (report, rendered, json) = run_at(1, None, 42);
    assert!(!report.critpath.is_empty());
    // Host classical work closes the loop on readout->host; the
    // quantum round-trip appears as pipeline->chip and chip->readout.
    for edge in ["readout->host", "pipeline->chip", "chip->readout"] {
        let row = report.critpath.row(edge);
        assert!(row.is_some(), "missing edge {edge} in {rendered}");
    }
    // The rendered table ends with the per-component section whose
    // shares attribute 100% of the on-path time.
    assert!(rendered.contains("component"));
    // The critpath namespace made it into the metrics artefact.
    assert!(json.contains("\"critpath.edge.pipeline->chip.count\""));
    assert!(json.contains("\"critpath.edge.readout->host.sim_total_ns\""));
}

#[test]
fn critpath_edges_sum_to_the_run_total() {
    // The analyser conserves time: the on-path edges charge every
    // nanosecond from t=0 to the run's end exactly once, inert and faulty,
    // whatever the sync mode, PUT policy, host core or optimizer.
    let faulty = FaultPlan::parse("all=0.02,max_attempts=8").expect("valid fault spec");
    for kind in [WorkloadKind::Qaoa, WorkloadKind::Vqe, WorkloadKind::Qnn] {
        for core in [CoreModel::Rocket, CoreModel::BoomLarge] {
            for sync in [SyncMode::Fence, SyncMode::FineGrained] {
                for transmission in [TransmissionPolicy::Batched, TransmissionPolicy::Immediate] {
                    for faults in [FaultPlan::default(), faulty] {
                        let config = QtenonConfig::table4(8, core)
                            .expect("valid config")
                            .with_sync(sync)
                            .with_transmission(transmission)
                            .with_faults(faults);
                        let optimizers: [Box<dyn Optimizer>; 2] = [
                            Box::new(SpsaOptimizer::new(5)),
                            Box::new(GradientDescentOptimizer::new(0.05)),
                        ];
                        for mut optimizer in optimizers {
                            let workload = Workload::benchmark(kind, 8, 11).expect("workload");
                            let report = VqaRunner::new(config, workload)
                                .expect("runner")
                                .run(optimizer.as_mut(), 2, 100)
                                .expect("run succeeds");
                            assert_eq!(
                                report.critpath.total_ns(),
                                report.total.as_ps() / 1_000,
                                "{kind:?} {core:?} {sync:?} {transmission:?} {} faults {:?}",
                                optimizer.name(),
                                faults.is_active(),
                            );
                        }
                    }
                }
            }
        }
    }
}
