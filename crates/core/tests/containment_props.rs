//! Differential determinism tests for the fault-containment layer, on
//! the chaos fleet of `examples/chaos.json`: a healthy job, an actively
//! fault-injected job, a scripted flake, a deliberately panicking job
//! and a deadline-bounded job. Swept over fault rates × retry budgets,
//! every batch must return, produce a byte-identical outcome ledger at
//! pool widths 1, 2 and 8, stay within its retry budget, and keep every
//! completed job byte-identical to a standalone run. The sweep's fault
//! plans allow one attempt per fault site, so an injected fault fails
//! the attempt and the retry budget decides the faulty job's outcome.
//! With zero retries and no deadlines the machinery must be invisible:
//! artefacts byte-identical to plain completed runs.

use qtenon_core::jobs::{
    attempt_seed, run_standalone, BatchReport, BatchScheduler, BatchSpec, JobId, JobOutcome,
    JobSpec,
};
use qtenon_sim_engine::json::JsonValue;
use qtenon_sim_engine::FaultPlan;
use qtenon_workloads::WorkloadKind;

/// Index of the fault-injected job in `examples/chaos.json`.
const FAULTY: usize = 1;

/// The chaos fleet of `examples/chaos.json` with every job's retry
/// budget set to `budget` and the fault-injected job's plan set to
/// `faults` (a zero rate is the no-fault control).
fn chaos_fleet(faults: &str, budget: u32) -> Vec<JobSpec> {
    let spec = BatchSpec::from_json(include_str!("../../../examples/chaos.json"))
        .expect("examples/chaos.json parses");
    let faults = JsonValue::String(faults.to_string());
    let retries = JsonValue::Number(f64::from(budget));
    spec.jobs
        .into_iter()
        .map(|mut job| {
            if job.faults.is_active() {
                job.set("faults", &faults).expect("valid fault spec");
            }
            job.set("retries", &retries).expect("valid budget");
            job
        })
        .collect()
}

fn scheduler(jobs: &[JobSpec]) -> BatchScheduler {
    let mut sched = BatchScheduler::new(42);
    for job in jobs {
        sched.submit(job.clone()).expect("fleet fits the queue");
    }
    sched
}

/// The pool widths every campaign cell runs at.
const WIDTHS: [usize; 3] = [1, 2, 8];

/// One campaign cell: the chaos fleet at one (rate, budget), its
/// scheduler, and its batch at each of [`WIDTHS`].
struct Cell {
    label: String,
    budget: u32,
    jobs: Vec<JobSpec>,
    sched: BatchScheduler,
    batches: Vec<BatchReport>,
}

/// The campaign's fault plan at `rate`: one attempt per fault site, so
/// any injected fault fails the job's attempt.
fn one_shot_faults(rate: f64) -> String {
    format!("all={rate},max_attempts=1")
}

/// Runs the campaign: fault rates {0, 0.001, 0.005} × retry budgets
/// {0, 3}, each cell at every pool width. Every run must return; a hang
/// would stall the test here.
fn campaign() -> Vec<Cell> {
    let mut cells = Vec::new();
    for rate in [0.0, 0.001, 0.005] {
        for budget in [0u32, 3] {
            let jobs = chaos_fleet(&one_shot_faults(rate), budget);
            let sched = scheduler(&jobs);
            let batches = WIDTHS
                .iter()
                .map(|&w| sched.run(w).expect("batch run returns"))
                .collect();
            cells.push(Cell {
                label: format!("rate {rate} budget {budget}"),
                budget,
                jobs,
                sched,
                batches,
            });
        }
    }
    cells
}

#[test]
fn ledger_is_byte_identical_at_widths_1_2_8_for_every_budget() {
    for cell in campaign() {
        let ledger = cell.batches[0].ledger();
        for (batch, width) in cell.batches.iter().zip(WIDTHS) {
            assert_eq!(batch.ledger(), ledger, "{}: width {width}", cell.label);
        }
    }
}

#[test]
fn no_job_takes_more_than_its_budget_plus_one_attempts() {
    for cell in campaign() {
        for (batch, width) in cell.batches.iter().zip(WIDTHS) {
            for r in &batch.results {
                assert!(
                    r.outcome.attempts() <= cell.budget + 1,
                    "{} width {width} job {}: {} attempts",
                    cell.label,
                    r.name,
                    r.outcome.attempts()
                );
            }
        }
    }
}

#[test]
fn completed_jobs_match_standalone_runs_at_their_attempt_seed() {
    for cell in campaign() {
        for (batch, width) in cell.batches.iter().zip(WIDTHS) {
            for (idx, r) in batch.results.iter().enumerate() {
                let JobOutcome::Completed {
                    artifacts,
                    attempts,
                } = &r.outcome
                else {
                    continue;
                };
                let seed = cell
                    .sched
                    .seed_of(JobId::from_index(idx))
                    .expect("admitted");
                // Standalone runs only the attempt that completed.
                let reference = run_standalone(&cell.jobs[idx], seed, attempts - 1, 1)
                    .expect("standalone run succeeds");
                assert_eq!(
                    *artifacts, reference,
                    "{} width {width} job {}",
                    cell.label, r.name
                );
            }
        }
    }
}

/// A fault plan whose in-attempt recovery (eight tries per site) absorbs
/// every injected fault, so the faulty job completes on attempt 1.
const RECOVERABLE_FAULTS: &str = "all=0.02,max_attempts=8";

#[test]
fn batch_with_panicking_and_deadline_jobs_attributes_both_and_keeps_survivors_exact() {
    let jobs = chaos_fleet(RECOVERABLE_FAULTS, 3);
    let sched = scheduler(&jobs);
    for width in [1usize, 8] {
        let batch = sched.run(width).expect("panics are contained");
        assert_eq!(batch.results.len(), jobs.len());
        // Both failures are attributed, not fatal.
        assert!(
            matches!(&batch.results[3].outcome, JobOutcome::Quarantined { reason, .. }
                if reason.contains("panicked")),
            "width {width}: {:?}",
            batch.results[3].outcome
        );
        assert!(
            matches!(
                &batch.results[4].outcome,
                JobOutcome::TimedOut {
                    completed_iterations,
                    requested_iterations: 8,
                    ..
                } if *completed_iterations < 8
            ),
            "width {width}: {:?}",
            batch.results[4].outcome
        );
        assert_eq!(batch.completed(), 3, "width {width}");
        // Healthy jobs' artefacts are byte-identical to standalone runs
        // of the same spec at the attempt that produced them.
        for idx in [0usize, 1, 2] {
            let seed = sched.seed_of(JobId::from_index(idx)).expect("admitted");
            let (artifacts, attempts) = match &batch.results[idx].outcome {
                JobOutcome::Completed {
                    artifacts,
                    attempts,
                } => (artifacts, *attempts),
                other => panic!("job {idx} should complete, got {other:?}"),
            };
            let reference =
                run_standalone(&jobs[idx], seed, attempts - 1, 1).expect("standalone run succeeds");
            assert_eq!(
                artifacts.report, reference.report,
                "width {width} job {idx}"
            );
            assert_eq!(
                artifacts.metrics_json, reference.metrics_json,
                "width {width} job {idx}"
            );
        }
    }
}

#[test]
fn zero_retry_zero_deadline_fleet_is_byte_identical_to_the_plain_path() {
    // Strip every containment knob: the fleet must behave exactly like
    // the pre-containment scheduler — all jobs complete on attempt 1
    // with artefacts equal to standalone runs at the admission seed.
    let jobs: Vec<JobSpec> = vec![
        JobSpec::new("vqe-base", WorkloadKind::Vqe, 8)
            .with_iterations(2)
            .with_shots(48),
        JobSpec::new("qaoa-faulty", WorkloadKind::Qaoa, 8)
            .with_iterations(2)
            .with_shots(48)
            .with_faults(FaultPlan::all(0.02).with_seed(0xFA17)),
        JobSpec::new("qnn-tail", WorkloadKind::Qnn, 8)
            .with_iterations(1)
            .with_shots(48)
            .with_priority(2),
    ];
    for job in &jobs {
        assert_eq!(job.retry_budget, 0);
        assert!(job.deadline.is_none());
    }
    let sched = scheduler(&jobs);
    for width in [1usize, 2, 8] {
        let batch = sched.run(width).expect("batch run succeeds");
        for (i, result) in batch.results.iter().enumerate() {
            let seed = sched.seed_of(JobId::from_index(i)).expect("admitted");
            // Attempt 0 uses the admission seed directly, so the plain
            // path is bit-for-bit what it was before containment.
            assert_eq!(attempt_seed(seed, 0), seed);
            match &result.outcome {
                JobOutcome::Completed {
                    artifacts,
                    attempts: 1,
                } => {
                    let reference =
                        run_standalone(&jobs[i], seed, 0, 1).expect("standalone run succeeds");
                    assert_eq!(artifacts.report, reference.report, "width {width} job {i}");
                    assert_eq!(
                        artifacts.metrics_json, reference.metrics_json,
                        "width {width} job {i}"
                    );
                }
                other => panic!("width {width} job {i}: expected 1-attempt completion, {other:?}"),
            }
        }
    }
}

#[test]
fn retry_budget_changes_recovery_but_never_survivor_artifacts() {
    // The flake fails its first attempt. With budget 0 it fails for
    // good; with budget 3 it recovers on attempt 2 — and the healthy
    // jobs' artefacts are identical in both worlds.
    let no_budget = scheduler(&chaos_fleet(RECOVERABLE_FAULTS, 0))
        .run(4)
        .expect("runs");
    let budgeted = scheduler(&chaos_fleet(RECOVERABLE_FAULTS, 3))
        .run(4)
        .expect("runs");

    match &no_budget.results[2].outcome {
        JobOutcome::Failed { attempts: 1, .. } => {}
        other => panic!("budget 0 flake: {other:?}"),
    }
    match &budgeted.results[2].outcome {
        JobOutcome::Completed { attempts: 2, .. } => {}
        other => panic!("budget 3 flake: {other:?}"),
    }
    assert_eq!(no_budget.total_retries(), 0);
    assert!(budgeted.total_retries() >= 1);
    for idx in [0usize, 1] {
        assert_eq!(
            no_budget.results[idx].outcome.artifacts().expect("clean"),
            budgeted.results[idx].outcome.artifacts().expect("clean"),
            "budget must not perturb healthy job {idx}"
        );
    }
}

#[test]
fn a_retry_draws_fresh_faults_so_the_budget_decides_the_faulty_job() {
    // The faulty job alone (its seed is fixed by its file position), at
    // one attempt per fault site: an injected fault fails the attempt.
    let faulty = |rate: f64, budget: u32| {
        let job = chaos_fleet(&one_shot_faults(rate), budget).swap_remove(FAULTY);
        let batch = scheduler(&[job]).run(1).expect("batch run returns");
        batch.results[0].outcome.clone()
    };
    // At rate 0.001 the first attempt draws a fault...
    match faulty(0.001, 0) {
        JobOutcome::Failed { attempts: 1, .. } => {}
        other => panic!("rate 0.001 budget 0: {other:?}"),
    }
    // ...and a retry, under its own fault seed, draws a schedule it
    // survives. Replaying attempt 0's schedule would fail every time.
    match faulty(0.001, 3) {
        JobOutcome::Completed { attempts, .. } => assert!(attempts > 1, "{attempts}"),
        other => panic!("rate 0.001 budget 3: {other:?}"),
    }
    // At rate 0.005 every attempt draws a fault: the budget runs out.
    match faulty(0.005, 3) {
        JobOutcome::Quarantined { attempts: 4, .. } => {}
        other => panic!("rate 0.005 budget 3: {other:?}"),
    }
}
