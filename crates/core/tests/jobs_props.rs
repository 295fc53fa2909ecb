//! Differential determinism tests for the multi-job batch scheduler:
//! the same fleet at pool widths 1, 2, and 8 must produce, for every
//! job, a [`RunReport`] and metrics-JSON export byte-identical to
//! running that job standalone — including the job that runs under an
//! active fault plan. Fleet wall-clock observables (`jobs.*`) are
//! explicitly outside this contract.

use qtenon_core::jobs::{run_standalone, BatchScheduler, JobError, JobId, JobOptimizer, JobSpec};
use qtenon_core::CoreModel;
use qtenon_sim_engine::FaultPlan;
use qtenon_workloads::WorkloadKind;

/// A mixed fleet: three workload kinds, both cores, both optimizers,
/// three priority levels, explicit and derived seeds, and one job with
/// active fault injection.
fn fleet() -> Vec<JobSpec> {
    vec![
        JobSpec::new("vqe-base", WorkloadKind::Vqe, 8)
            .with_iterations(2)
            .with_shots(48),
        JobSpec::new("qaoa-hot", WorkloadKind::Qaoa, 8)
            .with_iterations(2)
            .with_shots(48)
            .with_priority(7)
            .with_core(CoreModel::BoomLarge),
        JobSpec::new("qnn-gd", WorkloadKind::Qnn, 8)
            .with_iterations(1)
            .with_shots(48)
            .with_optimizer(JobOptimizer::Gd),
        JobSpec::new("vqe-seeded", WorkloadKind::Vqe, 8)
            .with_iterations(1)
            .with_shots(48)
            .with_seed(0xDEAD),
        JobSpec::new("qaoa-faulty", WorkloadKind::Qaoa, 8)
            .with_iterations(2)
            .with_shots(48)
            .with_priority(3)
            .with_faults(FaultPlan::all(0.02).with_seed(0xFA17)),
        JobSpec::new("vqe-tail", WorkloadKind::Vqe, 8)
            .with_iterations(1)
            .with_shots(48)
            .with_priority(1),
    ]
}

fn scheduler() -> BatchScheduler {
    let mut sched = BatchScheduler::new(42);
    for job in fleet() {
        sched.submit(job).expect("fleet fits the default queue");
    }
    sched
}

#[test]
fn fleet_results_match_standalone_at_any_pool_width() {
    let jobs = fleet();
    let sched = scheduler();
    // Standalone references, each run in isolation on one thread.
    let references: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let seed = sched.seed_of(JobId::from_index(i)).expect("admitted");
            run_standalone(spec, seed, 0, 1).expect("standalone run succeeds")
        })
        .collect();

    for threads in [1usize, 2, 8] {
        let batch = sched.run(threads).expect("batch run succeeds");
        assert_eq!(batch.results.len(), jobs.len());
        assert_eq!(batch.completed(), jobs.len(), "threads={threads}");
        for (i, result) in batch.results.iter().enumerate() {
            // Canonical submission order regardless of priorities.
            assert_eq!(result.id.index(), i);
            assert_eq!(result.name, jobs[i].name);
            let artefacts = result.outcome.artifacts().expect("job completed");
            assert_eq!(
                artefacts.report, references[i].report,
                "job {} report differs from standalone at pool width {threads}",
                result.name
            );
            assert_eq!(
                artefacts.metrics_json, references[i].metrics_json,
                "job {} metrics JSON differs from standalone at pool width {threads}",
                result.name
            );
            assert_eq!(artefacts.shots_sampled, references[i].shots_sampled);
        }
    }
}

#[test]
fn faulty_job_recovers_identically_in_and_out_of_fleet() {
    let jobs = fleet();
    let sched = scheduler();
    let faulty = 4;
    assert!(jobs[faulty].faults.is_active());
    let seed = sched.seed_of(JobId::from_index(faulty)).expect("admitted");
    let standalone = run_standalone(&jobs[faulty], seed, 0, 1).expect("standalone run succeeds");
    assert!(
        standalone.report.resilience.faults_injected > 0,
        "fault plan must actually fire for the comparison to mean anything"
    );
    let batch = sched.run(8).expect("batch run succeeds");
    let in_fleet = batch.results[faulty]
        .outcome
        .artifacts()
        .expect("completed");
    assert_eq!(in_fleet.report.resilience, standalone.report.resilience);
    assert_eq!(in_fleet.metrics_json, standalone.metrics_json);
}

#[test]
fn seeds_depend_on_submission_order_not_schedule_order() {
    let sched = scheduler();
    // Priorities reorder execution (qaoa-hot first), but every seed is
    // fixed by submission index alone.
    let order = sched.schedule_order();
    assert_eq!(order[0], 1, "highest priority job is scheduled first");
    for i in 0..sched.len() {
        let expected = match i {
            3 => 0xDEAD, // explicit seed survives
            _ => qtenon_sim_engine::stream_seed(42, i as u64),
        };
        assert_eq!(sched.seed_of(JobId::from_index(i)), Some(expected));
    }
}

#[test]
fn bounded_queue_rejection_is_typed_and_counted() {
    let mut sched = BatchScheduler::with_capacity(42, 3);
    for job in fleet().into_iter().take(3) {
        sched.submit(job).expect("under capacity");
    }
    let err = sched
        .submit(JobSpec::new("overflow", WorkloadKind::Vqe, 8))
        .expect_err("queue is full");
    assert_eq!(err, JobError::QueueFull { capacity: 3 });
    assert_eq!(sched.rejected(), 1);
    // The rejection is reported by the batch, and the admitted jobs
    // still run to completion.
    let batch = sched.run(2).expect("batch run succeeds");
    assert_eq!(batch.rejected, 1);
    assert_eq!(batch.completed(), 3);
}
