//! Deterministic multi-job batch scheduling over one shared worker pool.
//!
//! N independent VQA jobs — each with its own configuration, seed, and
//! fault plan — are admitted into a bounded queue and executed by a pool
//! of job workers. Workers claim jobs in [`BatchScheduler::schedule_order`]
//! (higher priorities first, FIFO within a level), and each worker
//! shot-shards its job across the pool's remaining threads ([`PoolPlan`]
//! splits `threads` into `job_workers × shard_threads`).
//!
//! # Determinism
//!
//! Every job's artefacts — its [`RunReport`] and metrics-JSON export —
//! are byte-identical to running that job alone:
//!
//! 1. A job's seed is fixed at admission: the explicit `seed` in its
//!    spec, else [`stream_seed`]`(fleet_seed, submission_index)`. It
//!    never depends on scheduling order or completion order.
//! 2. Jobs share no mutable state: each runs in its own
//!    [`VqaRunner`] via the same attempt function
//!    [`run_standalone`] uses.
//! 3. Within a job, the shot-sharded engine is thread-count invariant,
//!    so the pool's `shard_threads` choice never shows up in results.
//! 4. Results are collected into canonical submission order regardless
//!    of completion order.
//!
//! Only fleet-level wall-clock observables (`jobs.*` wait/turnaround
//! histograms, throughput gauges) depend on the pool shape — they
//! describe the schedule, not the jobs.
//!
//! # Fault containment
//!
//! Each attempt runs under `catch_unwind`, so a panicking job becomes a
//! [`JobOutcome::Quarantined`] line in the ledger instead of killing the
//! fleet; per-job sim-time deadlines cut the VQA loop at iteration
//! boundaries into [`JobOutcome::TimedOut`] with partial-progress stats;
//! and a transient execution failure is retried under a bounded budget,
//! after which the job is quarantined. The worker that claimed a job runs
//! all of its attempts in a row; attempt `n` draws its job seed from
//! [`attempt_seed`]`(job_seed, n)` and its fault schedule from
//! [`attempt_seed`]`(plan_seed, n)`. Retry decisions are
//! `retry_decision` — a pure function of (spec, attempt, outcome) — so
//! every pool width produces the identical outcome [`BatchReport::ledger`].
//!
//! # Examples
//!
//! ```
//! use qtenon_core::jobs::{BatchScheduler, JobSpec};
//! use qtenon_workloads::WorkloadKind;
//!
//! let mut sched = BatchScheduler::new(42);
//! sched.submit(JobSpec::new("a", WorkloadKind::Vqe, 8))?;
//! sched.submit(JobSpec::new("b", WorkloadKind::Qaoa, 8).with_priority(3))?;
//! let batch = sched.run(2)?;
//! // Canonical submission order, even though "b" ran first (priority 3).
//! assert_eq!(batch.results[0].name, "a");
//! assert_eq!(batch.results[1].name, "b");
//! # Ok::<(), qtenon_core::jobs::JobError>(())
//! ```

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qtenon_compiler::{CacheStats, CompilationCache};
use qtenon_isa::QccLayout;
use qtenon_sim_engine::json::{self, JsonValue};
use qtenon_sim_engine::{
    stream_seed, FaultPlan, Histogram, MetricValue, MetricsRegistry, SimDuration,
};
use qtenon_workloads::{
    GradientDescentOptimizer, Optimizer, SpsaOptimizer, Workload, WorkloadKind,
};

use crate::config::{CoreModel, QtenonConfig, SyncMode, TransmissionPolicy};
use crate::report::RunReport;
use crate::vqa::VqaRunner;

/// Default bounded-queue capacity.
pub(crate) const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Default fleet seed (matches the single-run default in `QtenonConfig`).
pub(crate) const DEFAULT_FLEET_SEED: u64 = 0x51;

/// Which optimizer a job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOptimizer {
    /// SPSA (two evaluations per iteration).
    Spsa,
    /// Gradient descent via the parameter-shift rule.
    Gd,
}

impl JobOptimizer {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JobOptimizer::Spsa => "SPSA",
            JobOptimizer::Gd => "GD",
        }
    }

    /// Builds the optimizer for a job seed.
    pub fn build(self, seed: u64) -> Box<dyn Optimizer> {
        match self {
            JobOptimizer::Spsa => Box::new(SpsaOptimizer::new(seed)),
            JobOptimizer::Gd => Box::new(GradientDescentOptimizer::new(0.05)),
        }
    }
}

/// One VQA job: everything needed to build its config, workload, and
/// optimizer. The spec is pure data — submitting it never runs anything.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name (for reports and artefact filenames).
    pub name: String,
    /// Workload family.
    pub kind: WorkloadKind,
    /// Qubit count.
    pub n_qubits: u32,
    /// Host core model.
    pub core: CoreModel,
    /// Optimizer.
    pub optimizer: JobOptimizer,
    /// Optimizer iterations.
    pub iterations: usize,
    /// Shots per circuit evaluation.
    pub shots: u64,
    /// Admission priority: higher runs earlier; FIFO within a level.
    pub priority: u8,
    /// Explicit seed; `None` derives one from the fleet seed and the
    /// job's submission index at admission time.
    pub seed: Option<u64>,
    /// Synchronisation mode.
    pub sync: SyncMode,
    /// Measurement transmission policy.
    pub transmission: TransmissionPolicy,
    /// Fault-injection plan for this job only (inert by default).
    pub faults: FaultPlan,
    /// Transient-failure retry budget: how many more attempts a
    /// transiently failing job gets before it is quarantined. 0 (the
    /// default) preserves the pre-containment behaviour: one attempt,
    /// failures surface as [`JobOutcome::Failed`].
    pub retry_budget: u32,
    /// Optional per-job sim-time deadline, enforced cooperatively at
    /// iteration boundaries in the VQA loop. `None` never times out.
    pub deadline: Option<SimDuration>,
    /// Chaos hook: panic deliberately at the start of every attempt.
    /// Exercises the quarantine path end to end (tests, CI, `--chaos`).
    pub chaos_panic: bool,
    /// Chaos hook: fail (transiently) every attempt whose index is below
    /// this count, deterministically. `chaos_fail_attempts: 2` means
    /// attempts 0 and 1 error and attempt 2 runs normally — the scripted
    /// recovery the retry path is measured against.
    pub chaos_fail_attempts: u32,
    /// Gate fusion in the exact statevector backend (default on). A
    /// performance toggle — fused and unfused runs produce the same
    /// artefacts (DESIGN.md §13) — surfaced so `batch --no-fuse` can flip
    /// a whole fleet for the differential artefact checks.
    pub fuse: bool,
}

impl JobSpec {
    /// A spec with the paper-default policies, SPSA, 2 iterations, and
    /// 100 shots.
    pub fn new(name: &str, kind: WorkloadKind, n_qubits: u32) -> Self {
        JobSpec {
            name: name.to_string(),
            kind,
            n_qubits,
            core: CoreModel::Rocket,
            optimizer: JobOptimizer::Spsa,
            iterations: 2,
            shots: 100,
            priority: 0,
            seed: None,
            sync: SyncMode::default(),
            transmission: TransmissionPolicy::default(),
            faults: FaultPlan::default(),
            retry_budget: 0,
            deadline: None,
            chaos_panic: false,
            chaos_fail_attempts: 0,
            fuse: true,
        }
    }

    /// Returns a copy with a different host core.
    pub fn with_core(mut self, core: CoreModel) -> Self {
        self.core = core;
        self
    }

    /// Returns a copy with a different optimizer.
    pub fn with_optimizer(mut self, optimizer: JobOptimizer) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Returns a copy with a different iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Returns a copy with a different shot count.
    pub fn with_shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Returns a copy with a different admission priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Returns a copy with an explicit seed (opting out of fleet-seed
    /// derivation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Returns a copy with a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the field a batch-file job key names. This is the one codec
    /// for job keys: [`BatchSpec::from_json`] routes every per-job key and
    /// the top-level fleet defaults through it, and `qtenon batch
    /// --retries`/`--deadline` do too, so a flag and its file key reject
    /// a bad value with the same message.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Spec`] naming the key when the key is unknown
    /// or the value has the wrong type or range.
    pub fn set(&mut self, key: &str, value: &JsonValue) -> Result<(), JobError> {
        match key {
            "name" => self.name = field_str(value, key)?.to_string(),
            "workload" => self.kind = field_keyword(value, key, WORKLOADS)?,
            "qubits" => self.n_qubits = field_u32(value, key)?,
            "core" => self.core = field_keyword(value, key, CORES)?,
            "optimizer" => self.optimizer = field_keyword(value, key, OPTIMIZERS)?,
            "iterations" => self.iterations = field_u64(value, key)? as usize,
            "shots" => self.shots = field_u64(value, key)?,
            "priority" => {
                let p = field_u64(value, key)?;
                self.priority =
                    u8::try_from(p).map_err(|_| spec_err(format!("priority {p} exceeds 255")))?;
            }
            "seed" => self.seed = Some(field_u64(value, key)?),
            "sync" => self.sync = field_keyword(value, key, SYNC_MODES)?,
            "transmission" => self.transmission = field_keyword(value, key, TRANSMISSIONS)?,
            "faults" => {
                self.faults = FaultPlan::parse(field_str(value, key)?)
                    .map_err(|e| spec_err(format!("bad fault spec: {e}")))?
            }
            "retries" => self.retry_budget = field_u32(value, key)?,
            "deadline_ns" => self.deadline = Some(SimDuration::from_ns(field_u64(value, key)?)),
            "chaos_panic" => self.chaos_panic = field_bool(value, key)?,
            "chaos_fail_attempts" => self.chaos_fail_attempts = field_u32(value, key)?,
            other => return Err(spec_err(format!("unknown key {other:?}"))),
        }
        Ok(())
    }
}

/// Typed scheduler failures. Admission rejections and malformed specs
/// are values, never panics — a full queue degrades, it does not abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The bounded queue is full; the job was rejected at admission.
    QueueFull {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// `run` was called with no admitted jobs.
    EmptyBatch,
    /// A job spec could not be parsed or validated.
    Spec {
        /// What was wrong.
        reason: String,
    },
    /// A job failed while executing.
    Execution {
        /// The job's name.
        job: String,
        /// The underlying failure.
        reason: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::QueueFull { capacity } => {
                write!(f, "job queue full (capacity {capacity})")
            }
            JobError::EmptyBatch => write!(f, "no jobs admitted"),
            JobError::Spec { reason } => write!(f, "bad job spec: {reason}"),
            JobError::Execution { job, reason } => {
                write!(f, "job {job:?} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Identifier handed out at admission: the job's submission index, which
/// is also its position in [`BatchReport::results`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(usize);

impl JobId {
    /// The id for a known submission index (what `submit` returned for
    /// the `index`-th admission).
    pub fn from_index(index: usize) -> Self {
        JobId(index)
    }

    /// The submission index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// How a worker pool is split between job-level and shot-level
/// parallelism: as many job workers as there are jobs (capped at the
/// thread budget), remaining threads shared out as shot-shard workers
/// per job. Purely a wall-clock decision — results never depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPlan {
    /// Concurrent jobs.
    pub job_workers: usize,
    /// Shot-shard threads inside each job.
    pub shard_threads: usize,
}

impl PoolPlan {
    /// Splits `threads` across `jobs` (both clamped to at least 1).
    pub(crate) fn new(jobs: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        let job_workers = jobs.clamp(1, threads);
        PoolPlan {
            job_workers,
            shard_threads: (threads / job_workers).max(1),
        }
    }
}

/// The byte-stable per-job artefacts: exactly what a standalone run of
/// the same spec and seed produces, at any pool shape.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArtifacts {
    /// The full run report.
    pub report: RunReport,
    /// The metrics-JSON export (`--metrics` writes exactly this string).
    pub metrics_json: String,
    /// Shots sampled by the quantum chip model over the whole run.
    pub shots_sampled: u64,
}

/// The terminal state of one job after containment ran its course: the
/// four-state outcome machine every job ends in exactly once.
///
/// `Completed` and `TimedOut` carry artefacts (a timed-out job's report
/// covers the iterations that did finish); `Failed` and `Quarantined`
/// carry the attributed cause. `attempts` counts every attempt made,
/// including the final one.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// All requested iterations ran; artefacts are byte-identical to a
    /// standalone run of the same spec and seed.
    Completed {
        /// The byte-stable artefacts.
        artifacts: JobArtifacts,
        /// Attempts consumed (1 when no retry was needed).
        attempts: u32,
    },
    /// The job's error was permanent, or transient with no retry budget
    /// configured.
    Failed {
        /// The attributed failure.
        error: JobError,
        /// Attempts consumed.
        attempts: u32,
    },
    /// The per-job deadline fired at an iteration boundary; the
    /// artefacts cover the completed prefix.
    TimedOut {
        /// Partial-progress artefacts (a whole number of iterations).
        artifacts: JobArtifacts,
        /// Iterations that completed before the deadline.
        completed_iterations: usize,
        /// Iterations originally requested.
        requested_iterations: usize,
        /// Attempts consumed.
        attempts: u32,
    },
    /// The job panicked, or exhausted its retry budget: it is isolated
    /// from the fleet with the reason attributed.
    Quarantined {
        /// Why the job was quarantined (panic message or last error).
        reason: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl JobOutcome {
    /// True only for [`JobOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }

    /// The artefacts, when the job produced any (`Completed` and
    /// `TimedOut`).
    pub fn artifacts(&self) -> Option<&JobArtifacts> {
        match self {
            JobOutcome::Completed { artifacts, .. } | JobOutcome::TimedOut { artifacts, .. } => {
                Some(artifacts)
            }
            _ => None,
        }
    }

    /// Attempts consumed reaching this outcome.
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Completed { attempts, .. }
            | JobOutcome::Failed { attempts, .. }
            | JobOutcome::TimedOut { attempts, .. }
            | JobOutcome::Quarantined { attempts, .. } => *attempts,
        }
    }

    /// The stable ledger label.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::TimedOut { .. } => "timed-out",
            JobOutcome::Quarantined { .. } => "quarantined",
        }
    }

    /// The deterministic ledger detail column: sim-time totals and
    /// attributed causes only — never wall-clock.
    pub fn detail(&self) -> String {
        match self {
            JobOutcome::Completed { artifacts, .. } => {
                format!("total_ns={}", artifacts.report.total.as_ps() / 1_000)
            }
            JobOutcome::Failed { error, .. } => error.to_string(),
            JobOutcome::TimedOut {
                completed_iterations,
                requested_iterations,
                ..
            } => format!("iterations={completed_iterations}/{requested_iterations}"),
            JobOutcome::Quarantined { reason, .. } => reason.clone(),
        }
    }
}

/// One job's outcome plus its fleet-side timeline.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Admission identifier (equals this result's index in the batch).
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// The seed the job actually ran with.
    pub seed: u64,
    /// Admission priority.
    pub priority: u8,
    /// The job's terminal state. One failing job never poisons its
    /// neighbours.
    pub outcome: JobOutcome,
    /// Batch start → job picked up by a worker (its first attempt; any
    /// retries run right after it on the same worker).
    pub wait: Duration,
    /// Batch start → job finished.
    pub turnaround: Duration,
    /// Fleet-cache attribution, fixed deterministically at dispatch
    /// planning from submission order alone: `"cold"` for the first job
    /// holding each program key, `"shared"` for later holders of a key
    /// already admitted, `"off"` when the batch runs without a cache,
    /// `"-"` when the job is unkeyable (its workload cannot be built).
    /// Never derived from runtime hit counters, which race across pool
    /// widths — so the ledger stays byte-identical at any width.
    pub cache: &'static str,
}

/// Everything a batch run produced, in canonical submission order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job results, indexed by submission order.
    pub results: Vec<JobResult>,
    /// How the pool was split.
    pub pool: PoolPlan,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Jobs rejected at admission (bounded queue overflow).
    pub rejected: u64,
    /// Fleet compilation-cache statistics for the run; `None` when the
    /// batch ran without a cache. Fleet-level only: which job's lookup
    /// fills a shared entry depends on worker interleaving, so these
    /// counters never appear in any per-job artefact.
    pub cache_stats: Option<CacheStats>,
}

impl BatchReport {
    /// Jobs that completed successfully.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.is_completed())
            .count()
    }

    /// Jobs that did not complete (failed, timed out, or quarantined).
    pub fn failed(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// Jobs that hit their deadline.
    pub fn timed_out(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::TimedOut { .. }))
            .count()
    }

    /// Jobs quarantined (panicked or retry budget exhausted).
    pub fn quarantined(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Quarantined { .. }))
            .count()
    }

    /// Retries across the whole batch: attempts beyond each job's first.
    pub fn total_retries(&self) -> u64 {
        self.results
            .iter()
            .map(|r| u64::from(r.outcome.attempts().saturating_sub(1)))
            .sum()
    }

    /// Total shots sampled across jobs that produced artefacts.
    pub(crate) fn total_shots_sampled(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.outcome.artifacts())
            .map(|a| a.shots_sampled)
            .sum()
    }

    /// The deterministic outcome ledger: one line per job in submission
    /// order with seed, priority, outcome, attempts, and a sim-time-only
    /// detail column. Byte-identical at every pool width (it contains no
    /// wall-clock observables); `tests/resilience.rs` and
    /// `tests/cli_artefacts.rs` compare it across widths through the
    /// `qtenon batch --ledger` export. An empty batch renders a fixed
    /// placeholder.
    pub fn ledger(&self) -> String {
        if self.results.is_empty() {
            return Self::empty_ledger();
        }
        let mut out = String::from("idx\tname\tseed\tprio\toutcome\tattempts\tcache\tdetail\n");
        for r in &self.results {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                r.id.index(),
                r.name,
                r.seed,
                r.priority,
                r.outcome.label(),
                r.outcome.attempts(),
                r.cache,
                r.outcome.detail(),
            ));
        }
        out
    }

    /// The fixed placeholder an empty (or fully filtered) batch renders —
    /// never a NaN table.
    pub fn empty_ledger() -> String {
        "job ledger: no jobs\n".to_string()
    }

    /// Completed jobs per wall-clock second.
    pub fn jobs_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.completed() as f64 / secs
        } else {
            0.0
        }
    }

    /// Sampled shots per wall-clock second.
    pub fn shots_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_shots_sampled() as f64 / secs
        } else {
            0.0
        }
    }

    /// Registers fleet-level statistics under the `jobs.*` namespace.
    ///
    /// These are the schedule's observables — wait and turnaround
    /// histograms, pool shape, throughput — and are deliberately outside
    /// the per-job determinism contract (they move with the machine's
    /// wall clock). Per-job artefacts live in
    /// [`JobArtifacts::metrics_json`] and are byte-stable.
    pub fn export_metrics(&self, m: &mut MetricsRegistry) {
        m.counter("jobs.submitted", self.results.len() as u64);
        m.counter("jobs.completed", self.completed() as u64);
        m.counter("jobs.failed", self.failed() as u64);
        m.counter("jobs.rejected", self.rejected);
        m.gauge("jobs.pool.job_workers", self.pool.job_workers as f64);
        m.gauge("jobs.pool.shard_threads", self.pool.shard_threads as f64);
        let mut wait = Histogram::new();
        let mut turnaround = Histogram::new();
        for r in &self.results {
            wait.record(r.wait.as_nanos() as u64);
            turnaround.record(r.turnaround.as_nanos() as u64);
        }
        m.histogram("jobs.wait_ns", &wait);
        m.histogram("jobs.turnaround_ns", &turnaround);
        m.gauge("jobs.wall_ns", self.wall.as_nanos() as f64);
        m.gauge("jobs.throughput.jobs_per_s", self.jobs_per_second());
        m.gauge("jobs.throughput.shots_per_s", self.shots_per_second());
        m.counter("jobs.shots_sampled", self.total_shots_sampled());

        // Containment observables (`resilience.jobs.*`): outcome tallies
        // and retry pressure are deterministic; the time-to-recovery
        // histogram is wall-clock and, like `jobs.*`, deliberately
        // outside the determinism contract.
        m.counter(
            "resilience.jobs.failed",
            self.results
                .iter()
                .filter(|r| matches!(r.outcome, JobOutcome::Failed { .. }))
                .count() as u64,
        );
        m.counter("resilience.jobs.timed_out", self.timed_out() as u64);
        m.counter("resilience.jobs.quarantined", self.quarantined() as u64);
        m.counter("resilience.jobs.retries", self.total_retries());
        let mut attempts = Histogram::new();
        let mut recovery = Histogram::new();
        for r in &self.results {
            attempts.record(u64::from(r.outcome.attempts()));
            if r.outcome.is_completed() && r.outcome.attempts() > 1 {
                recovery.record(r.turnaround.as_nanos() as u64);
            }
        }
        m.histogram("resilience.jobs.attempts", &attempts);
        m.histogram("resilience.jobs.time_to_recovery_ns", &recovery);

        // Fleet compilation-cache observables (`cache.fleet.*`). Like
        // `jobs.*` these belong to the fleet, not to any job: which job
        // fills a shared entry depends on worker interleaving, so the
        // counters are exported here and never in per-job artefacts.
        if let Some(stats) = &self.cache_stats {
            stats.export(m);
        }
    }
}

/// How one attempt of one job ended, before any retry policy is applied.
/// `Panicked` is what `catch_unwind` makes of a panicking attempt.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AttemptOutcome {
    /// All requested iterations ran.
    Completed(JobArtifacts),
    /// The deadline fired at an iteration boundary.
    TimedOut {
        /// Artefacts for the completed prefix.
        artifacts: JobArtifacts,
        /// Iterations that completed before the deadline.
        completed_iterations: usize,
        /// Iterations originally requested.
        requested_iterations: usize,
    },
    /// The attempt failed with a typed error. `permanent` failures
    /// (config/workload/system construction) can never succeed on retry;
    /// execution failures are transient — a retry reruns with a fresh
    /// per-attempt job seed and fault seed, so it may draw a survivable
    /// fault schedule.
    Errored {
        /// The typed failure.
        error: JobError,
        /// True when no retry can change the outcome.
        permanent: bool,
    },
    /// The attempt panicked (trapped by `catch_unwind`).
    Panicked {
        /// The panic payload, downcast to text when possible.
        message: String,
    },
}

/// The retry/quarantine policy: a pure function of the spec, the 0-based
/// index of the attempt that just finished, and its outcome. No clock,
/// no pool state — which is why every pool width replays the identical
/// decision sequence and produces the identical ledger. `None` means
/// "run attempt `attempt + 1`"; `Some` is the job's final outcome.
///
/// The state machine:
///
/// - `Completed` / `TimedOut` → final (a deadline is a budget, not a
///   transient fault — retrying would just burn it again);
/// - `Panicked` → [`JobOutcome::Quarantined`] immediately (a panic means
///   broken invariants, not bad luck);
/// - permanent errors → [`JobOutcome::Failed`] immediately;
/// - transient errors → retry while `attempt < retry_budget`; once the
///   budget is exhausted the job is quarantined (or, with a zero budget,
///   simply fails — the pre-containment behaviour).
pub(crate) fn retry_decision(
    spec: &JobSpec,
    attempt: u32,
    outcome: AttemptOutcome,
) -> Option<JobOutcome> {
    let attempts = attempt + 1;
    let outcome = match outcome {
        AttemptOutcome::Completed(artifacts) => JobOutcome::Completed {
            artifacts,
            attempts,
        },
        AttemptOutcome::TimedOut {
            artifacts,
            completed_iterations,
            requested_iterations,
        } => JobOutcome::TimedOut {
            artifacts,
            completed_iterations,
            requested_iterations,
            attempts,
        },
        AttemptOutcome::Panicked { message } => JobOutcome::Quarantined {
            reason: format!("panicked: {message}"),
            attempts,
        },
        AttemptOutcome::Errored { error, permanent } => {
            if !permanent && attempt < spec.retry_budget {
                return None;
            } else if !permanent && spec.retry_budget > 0 {
                JobOutcome::Quarantined {
                    reason: format!(
                        "retry budget ({}) exhausted; last error: {error}",
                        spec.retry_budget
                    ),
                    attempts,
                }
            } else {
                JobOutcome::Failed { error, attempts }
            }
        }
    };
    Some(outcome)
}

/// The seed attempt number `attempt` runs with, for the job seed and the
/// fault-plan seed alike: the given seed for the first attempt (so
/// zero-retry batches are byte-identical to the pre-containment
/// scheduler), then `stream_seed(seed, attempt)` — deterministic,
/// collision-free, and independent of which worker or pool width
/// executes the retry.
pub fn attempt_seed(job_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        job_seed
    } else {
        stream_seed(job_seed, u64::from(attempt))
    }
}

/// Runs one attempt of one job exactly as the fleet does — same config
/// construction, same workload derivation, same optimizer — so in-fleet
/// and standalone artefacts are byte-identical by construction.
/// `threads` is the shot-shard count and never affects the artefacts.
///
/// When a fleet compilation cache is supplied, the compile and pulse
/// streams are served through it; a hit returns byte-identical artefacts
/// to a cold compile (see `qtenon_compiler::cache`), so cached and
/// uncached attempts are interchangeable. Per-run cache counters are *not* recorded into the
/// job's [`RunReport`] — a shared cache makes them pool-width dependent.
///
/// This function may panic (that is the point of the chaos hook, and
/// nothing stops library code from panicking); the scheduler calls
/// [`run_attempt_caught`] instead. The chaos hook unwinds with
/// [`resume_unwind`], which skips the panic hook: a deliberate panic
/// prints nothing to stderr, and the failure table attributes it.
fn run_attempt(
    spec: &JobSpec,
    job_seed: u64,
    attempt: u32,
    threads: usize,
    cache: Option<&Arc<CompilationCache>>,
) -> AttemptOutcome {
    if spec.chaos_panic {
        resume_unwind(Box::new(format!(
            "chaos: deliberate panic in job {:?} (attempt {attempt})",
            spec.name
        )));
    }
    if attempt < spec.chaos_fail_attempts {
        return AttemptOutcome::Errored {
            error: JobError::Execution {
                job: spec.name.clone(),
                reason: format!("chaos: scripted transient failure on attempt {attempt}"),
            },
            permanent: false,
        };
    }
    let seed = attempt_seed(job_seed, attempt);
    let fail = |reason: String| JobError::Execution {
        job: spec.name.clone(),
        reason,
    };
    let permanent = |error: JobError| AttemptOutcome::Errored {
        error,
        permanent: true,
    };
    let config = match QtenonConfig::table4(spec.n_qubits, spec.core) {
        Ok(c) => c,
        Err(e) => return permanent(fail(e.to_string())),
    };
    let config = config
        .with_sync(spec.sync)
        .with_transmission(spec.transmission)
        .with_seed(seed)
        .with_threads(threads)
        .with_fuse(spec.fuse)
        .with_faults(
            spec.faults
                .with_seed(attempt_seed(spec.faults.seed, attempt)),
        );
    let workload = match Workload::benchmark(spec.kind, spec.n_qubits, seed) {
        Ok(w) => w,
        Err(e) => return permanent(fail(e.to_string())),
    };
    let built = match cache {
        Some(shared) => VqaRunner::with_cache(config, workload, Arc::clone(shared)),
        None => VqaRunner::new(config, workload),
    };
    let mut runner = match built {
        Ok(r) => r,
        Err(e) => return permanent(fail(e.to_string())),
    };
    let mut optimizer = spec.optimizer.build(seed);
    let (report, status) = match runner.run_with_deadline(
        optimizer.as_mut(),
        spec.iterations,
        spec.shots,
        spec.deadline,
    ) {
        Ok(done) => done,
        Err(e) => {
            // Execution failures are transient by classification: a
            // retry reruns under fresh job and fault seeds (different
            // fault draws), which is exactly the recovery the budget buys.
            return AttemptOutcome::Errored {
                error: fail(e.to_string()),
                permanent: false,
            };
        }
    };
    let mut m = MetricsRegistry::new();
    runner.export_metrics(&mut m);
    let shots_sampled = match m.get("core.parallel.shots_sampled") {
        Some(MetricValue::Counter(c)) => *c,
        _ => 0,
    };
    let artifacts = JobArtifacts {
        report,
        metrics_json: m.to_json(),
        shots_sampled,
    };
    if status.hit {
        AttemptOutcome::TimedOut {
            artifacts,
            completed_iterations: status.completed_iterations,
            requested_iterations: status.requested_iterations,
        }
    } else {
        AttemptOutcome::Completed(artifacts)
    }
}

/// [`run_attempt`] under `catch_unwind`: a panicking job (deliberate or
/// genuine) becomes [`AttemptOutcome::Panicked`] instead of unwinding
/// into the worker pool. The payload is downcast to text when it is a
/// string (which `panic!` payloads are). The batch scheduler's workers
/// call this.
fn run_attempt_caught(
    spec: &JobSpec,
    job_seed: u64,
    attempt: u32,
    threads: usize,
    cache: Option<&Arc<CompilationCache>>,
) -> AttemptOutcome {
    match catch_unwind(AssertUnwindSafe(|| {
        run_attempt(spec, job_seed, attempt, threads, cache)
    })) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            AttemptOutcome::Panicked { message }
        }
    }
}

/// Runs attempt `attempt` of one job standalone (no retry) and returns
/// its artefacts — the byte-identity reference the fleet is checked
/// against. `seed` is the job's admission seed; the attempt's job and
/// fault seeds derive from it and from the spec's fault plan exactly as
/// in the fleet. A deadline-cut run still returns its partial artefacts.
///
/// # Errors
///
/// Returns [`JobError::Execution`] wrapping the underlying failure.
pub fn run_standalone(
    spec: &JobSpec,
    seed: u64,
    attempt: u32,
    threads: usize,
) -> Result<JobArtifacts, JobError> {
    match run_attempt(spec, seed, attempt, threads, None) {
        AttemptOutcome::Completed(artifacts) | AttemptOutcome::TimedOut { artifacts, .. } => {
            Ok(artifacts)
        }
        AttemptOutcome::Errored { error, .. } => Err(error),
        // Unreachable from run_attempt, which panics rather than
        // reporting Panicked — kept total for completeness.
        AttemptOutcome::Panicked { message } => Err(JobError::Execution {
            job: spec.name.clone(),
            reason: format!("panicked: {message}"),
        }),
    }
}

/// A job admitted into the queue with its seed already fixed; its
/// submission index is its position in the queue.
#[derive(Debug, Clone)]
struct QueuedJob {
    seed: u64,
    spec: JobSpec,
}

/// The deterministic multi-job batch scheduler: bounded admission,
/// FIFO-plus-priority ordering, two-level parallel execution,
/// canonical-order collection.
#[derive(Debug)]
pub struct BatchScheduler {
    fleet_seed: u64,
    capacity: usize,
    queue: Vec<QueuedJob>,
    rejected: u64,
    cache: bool,
}

impl BatchScheduler {
    /// A scheduler with the default queue capacity.
    pub fn new(fleet_seed: u64) -> Self {
        BatchScheduler::with_capacity(fleet_seed, DEFAULT_QUEUE_CAPACITY)
    }

    /// A scheduler with an explicit bounded-queue capacity (clamped to at
    /// least 1).
    pub fn with_capacity(fleet_seed: u64, capacity: usize) -> Self {
        BatchScheduler {
            fleet_seed,
            capacity: capacity.max(1),
            queue: Vec::new(),
            rejected: 0,
            cache: false,
        }
    }

    /// Returns the scheduler with the fleet compilation cache enabled or
    /// disabled for the next `run`. Off by default at the library level;
    /// `qtenon batch` turns it on. A pure wall-clock knob: hits are
    /// byte-identical to cold compiles, so per-job artefacts and the
    /// ledger never depend on it.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Jobs currently admitted.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no jobs are admitted.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Jobs rejected so far by the bounded queue.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The seed a submitted job will run with.
    pub fn seed_of(&self, id: JobId) -> Option<u64> {
        self.queue.get(id.index()).map(|j| j.seed)
    }

    /// Admits a job, fixing its seed at this moment: the spec's explicit
    /// seed, else `stream_seed(fleet_seed, submission_index)`. Seeds
    /// therefore never depend on scheduling or completion order.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::QueueFull`] when the bounded queue is at
    /// capacity; the rejection is counted, not fatal.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, JobError> {
        if self.queue.len() >= self.capacity {
            self.rejected += 1;
            return Err(JobError::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = self.queue.len();
        let seed = spec
            .seed
            .unwrap_or_else(|| stream_seed(self.fleet_seed, id as u64));
        self.queue.push(QueuedJob { seed, spec });
        Ok(JobId(id))
    }

    /// The order workers pick jobs up: by descending priority, FIFO
    /// within a level. Pure data — no clock, no randomness.
    pub fn schedule_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_key(|&i| (Reverse(self.queue[i].spec.priority), i));
        order
    }

    /// Per-job cache attribution for the ledger, computed serially from
    /// submission order *before* any worker runs: the first job holding
    /// each program key is `"cold"`, later holders are `"shared"`, every
    /// job of an uncached batch is `"off"`, unkeyable jobs are `"-"`.
    /// Derived from the same canonical key the cache itself uses
    /// (first-attempt seed), never from runtime hit counters — so every
    /// pool width renders the identical column.
    ///
    /// The key is a function of the job's kind, width and first-attempt
    /// seed alone, so a job repeating an earlier job's triple (a
    /// resubmission) reuses that job's answer instead of rebuilding the
    /// workload and encoding its key: `"shared"` if the key was built,
    /// `"-"` if it could not be.
    fn cache_attribution(&self) -> Vec<&'static str> {
        if !self.cache {
            return vec!["off"; self.queue.len()];
        }
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut keyed: HashMap<(WorkloadKind, u32, u64), bool> = HashMap::new();
        self.queue
            .iter()
            .map(|job| {
                let (kind, n_qubits) = (job.spec.kind, job.spec.n_qubits);
                let seed = attempt_seed(job.seed, 0);
                if let Some(&built) = keyed.get(&(kind, n_qubits, seed)) {
                    return if built { "shared" } else { "-" };
                }
                let key = QccLayout::for_qubits(n_qubits).ok().and_then(|layout| {
                    let workload = Workload::benchmark(kind, n_qubits, seed).ok()?;
                    Some(CompilationCache::program_key(&workload.circuit, &layout))
                });
                keyed.insert((kind, n_qubits, seed), key.is_some());
                match key {
                    None => "-",
                    Some(key) => {
                        if seen.insert(key) {
                            "cold"
                        } else {
                            "shared"
                        }
                    }
                }
            })
            .collect()
    }

    /// Runs every admitted job over a pool of `threads` threads and
    /// returns the batch report in canonical submission order.
    ///
    /// `PoolPlan::new(jobs, threads)` decides the split. Workers
    /// claim jobs in [`schedule_order`](Self::schedule_order) off one
    /// shared cursor, so higher priorities start first, and the worker
    /// that claims a job runs every attempt of it before claiming the
    /// next: each attempt runs under `catch_unwind` and is fed through
    /// `retry_decision` until that yields the job's final
    /// [`JobOutcome`]. A panicking or failing job ends as a typed outcome
    /// in its slot while the rest of the fleet keeps going, and nothing
    /// about the results depends on who finishes when.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::EmptyBatch`] if nothing was admitted.
    pub fn run(&self, threads: usize) -> Result<BatchReport, JobError> {
        if self.queue.is_empty() {
            return Err(JobError::EmptyBatch);
        }
        let order = self.schedule_order();
        let pool = PoolPlan::new(self.queue.len(), threads);
        // Attribution and the shared cache are fixed before any worker
        // spawns: the ledger column depends on submission order alone.
        let attribution = self.cache_attribution();
        let fleet_cache: Option<Arc<CompilationCache>> = if self.cache {
            Some(CompilationCache::shared(
                qtenon_compiler::cache::DEFAULT_CAPACITY,
            ))
        } else {
            None
        };
        let started = Instant::now();
        let cursor = AtomicUsize::new(0);
        let (order, cursor, attribution, fleet_cache) =
            (&order, &cursor, &attribution, &fleet_cache);

        let per_worker: Vec<Vec<JobResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..pool.job_workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(&id) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            let job = &self.queue[id];
                            let wait = started.elapsed();
                            let mut attempt = 0;
                            let outcome = loop {
                                let outcome = run_attempt_caught(
                                    &job.spec,
                                    job.seed,
                                    attempt,
                                    pool.shard_threads,
                                    fleet_cache.as_ref(),
                                );
                                match retry_decision(&job.spec, attempt, outcome) {
                                    Some(outcome) => break outcome,
                                    None => attempt += 1,
                                }
                            };
                            mine.push(JobResult {
                                id: JobId(id),
                                name: job.spec.name.clone(),
                                seed: job.seed,
                                priority: job.spec.priority,
                                outcome,
                                wait,
                                turnaround: started.elapsed(),
                                cache: attribution[id],
                            });
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    // Job panics are contained by `run_attempt_caught`;
                    // a worker can only die from a bug in the scheduler
                    // itself, which is rightly fatal.
                    Ok(v) => v,
                    Err(payload) => resume_unwind(payload),
                })
                .collect()
        });
        let wall = started.elapsed();

        // Canonical collection: submission order, regardless of which
        // worker finished which job when. The cursor hands out each
        // index exactly once, so every job has exactly one result.
        let mut results: Vec<JobResult> = per_worker.into_iter().flatten().collect();
        results.sort_unstable_by_key(|r| r.id.index());
        Ok(BatchReport {
            results,
            pool,
            wall,
            rejected: self.rejected,
            cache_stats: fleet_cache.as_ref().map(|c| c.stats()),
        })
    }
}

/// A whole batch parsed from a JSON spec file (the `qtenon batch --jobs`
/// input format).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Fleet seed for jobs without an explicit seed.
    pub fleet_seed: u64,
    /// Bounded-queue capacity.
    pub capacity: usize,
    /// Fleet-default retry budget for jobs without their own `retries`.
    pub retries: u32,
    /// Fleet-default deadline for jobs without their own `deadline_ns`.
    pub deadline: Option<SimDuration>,
    /// The jobs, in file order, with seeds already materialised — so
    /// filtering or reordering the list later cannot change any job's
    /// seed or artefacts.
    pub jobs: Vec<JobSpec>,
}

impl BatchSpec {
    /// Parses the spec format:
    ///
    /// ```json
    /// {
    ///   "fleet_seed": 42,
    ///   "capacity": 16,
    ///   "jobs": [
    ///     {"name": "vqe-64", "workload": "vqe", "qubits": 64,
    ///      "iterations": 2, "shots": 500, "priority": 3,
    ///      "core": "boom", "optimizer": "gd", "sync": "fence",
    ///      "transmission": "immediate", "seed": 7,
    ///      "faults": "all=0.01,max_attempts=8",
    ///      "retries": 3, "deadline_ns": 40000000,
    ///      "chaos_panic": false, "chaos_fail_attempts": 0}
    ///   ]
    /// }
    /// ```
    ///
    /// Everything but `jobs` is optional; unknown keys are rejected so
    /// typos fail loudly. Every job key goes through [`JobSpec::set`].
    /// Top-level `retries` and `deadline_ns` set fleet defaults, through
    /// the same codec, that per-job fields override. Each job's seed is
    /// materialised here from its position in the `jobs` array
    /// (`stream_seed(fleet_seed, index)` unless explicit).
    ///
    /// An empty `jobs` array parses successfully — the CLI renders the
    /// fixed empty ledger and exits 0; only actually *running* an empty
    /// batch is a [`JobError::EmptyBatch`].
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Spec`] for malformed JSON or bad fields.
    pub fn from_json(text: &str) -> Result<Self, JobError> {
        let root = json::parse(text).map_err(|e| spec_err(e.to_string()))?;
        let fleet_seed = match root.get("fleet_seed") {
            Some(v) => field_u64(v, "fleet_seed")?,
            None => DEFAULT_FLEET_SEED,
        };
        let capacity = match root.get("capacity") {
            Some(v) => field_u64(v, "capacity")? as usize,
            None => DEFAULT_QUEUE_CAPACITY,
        };
        // Top-level `retries`/`deadline_ns` are fleet defaults: every
        // job starts as a copy of this template.
        let mut defaults = JobSpec::new("", WorkloadKind::Qaoa, 8);
        for key in ["retries", "deadline_ns"] {
            if let Some(v) = root.get(key) {
                defaults.set(key, v)?;
            }
        }
        for (key, _) in root.as_object().unwrap_or(&[]) {
            if !matches!(
                key.as_str(),
                "fleet_seed" | "capacity" | "jobs" | "retries" | "deadline_ns"
            ) {
                return Err(JobError::Spec {
                    reason: format!("unknown top-level key {key:?}"),
                });
            }
        }
        let jobs_value = root.get("jobs").ok_or_else(|| JobError::Spec {
            reason: "missing \"jobs\" array".to_string(),
        })?;
        let entries = jobs_value.as_array().ok_or_else(|| JobError::Spec {
            reason: "\"jobs\" is not an array".to_string(),
        })?;
        let mut jobs = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            jobs.push(parse_job(entry, i, fleet_seed, &defaults)?);
        }
        Ok(BatchSpec {
            fleet_seed,
            capacity,
            retries: defaults.retry_budget,
            deadline: defaults.deadline,
            jobs,
        })
    }

    /// Builds a scheduler with every job admitted and the fleet
    /// compilation cache on (`qtenon batch --no-cache` turns it off).
    ///
    /// # Errors
    ///
    /// Returns [`JobError::QueueFull`] if the spec holds more jobs than
    /// its own capacity allows.
    pub fn into_scheduler(self) -> Result<BatchScheduler, JobError> {
        let mut sched =
            BatchScheduler::with_capacity(self.fleet_seed, self.capacity).with_cache(true);
        for job in self.jobs {
            sched.submit(job)?;
        }
        Ok(sched)
    }
}

fn spec_err(reason: String) -> JobError {
    JobError::Spec { reason }
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, JobError> {
    v.as_u64()
        .ok_or_else(|| spec_err(format!("{key:?} must be a non-negative integer")))
}

/// A non-negative integer that must fit a `u32`.
fn field_u32(v: &JsonValue, key: &str) -> Result<u32, JobError> {
    let n = field_u64(v, key)?;
    u32::try_from(n).map_err(|_| spec_err(format!("{key} {n} exceeds u32")))
}

fn field_bool(v: &JsonValue, key: &str) -> Result<bool, JobError> {
    v.as_bool()
        .ok_or_else(|| spec_err(format!("{key:?} must be a boolean")))
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, JobError> {
    v.as_str()
        .ok_or_else(|| spec_err(format!("{key:?} must be a string")))
}

/// The keywords each enum-valued job key accepts.
const WORKLOADS: &[(&str, WorkloadKind)] = &[
    ("qaoa", WorkloadKind::Qaoa),
    ("vqe", WorkloadKind::Vqe),
    ("qnn", WorkloadKind::Qnn),
];
const CORES: &[(&str, CoreModel)] = &[
    ("rocket", CoreModel::Rocket),
    ("boom", CoreModel::BoomLarge),
];
const OPTIMIZERS: &[(&str, JobOptimizer)] =
    &[("spsa", JobOptimizer::Spsa), ("gd", JobOptimizer::Gd)];
const SYNC_MODES: &[(&str, SyncMode)] =
    &[("fence", SyncMode::Fence), ("fine", SyncMode::FineGrained)];
const TRANSMISSIONS: &[(&str, TransmissionPolicy)] = &[
    ("immediate", TransmissionPolicy::Immediate),
    ("batched", TransmissionPolicy::Batched),
];

/// A case-insensitive keyword from `table`; an unknown word is an error
/// naming the key and every allowed keyword.
fn field_keyword<T: Copy>(v: &JsonValue, key: &str, table: &[(&str, T)]) -> Result<T, JobError> {
    let word = field_str(v, key)?.to_ascii_lowercase();
    match table.iter().find(|(name, _)| *name == word) {
        Some(&(_, value)) => Ok(value),
        None => {
            let allowed: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            Err(spec_err(format!(
                "unknown {key} {word:?} (want {})",
                allowed.join("|")
            )))
        }
    }
}

/// One `jobs[index]` entry: the fleet defaults, then each key through
/// [`JobSpec::set`]. Errors say which job they come from.
fn parse_job(
    entry: &JsonValue,
    index: usize,
    fleet_seed: u64,
    defaults: &JobSpec,
) -> Result<JobSpec, JobError> {
    let pairs = entry
        .as_object()
        .ok_or_else(|| spec_err(format!("jobs[{index}] is not an object")))?;
    let mut spec = defaults.clone();
    spec.name = format!("job{index}");
    for (key, value) in pairs {
        spec.set(key, value).map_err(|e| match e {
            JobError::Spec { reason } => spec_err(format!("jobs[{index}]: {reason}")),
            other => other,
        })?;
    }
    // Materialise the seed by file position so later filtering or
    // reordering cannot change what this job runs with.
    spec.seed = Some(
        spec.seed
            .unwrap_or_else(|| stream_seed(fleet_seed, index as u64)),
    );
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl JobSpec {
        /// Returns a copy with a transient-failure retry budget.
        fn with_retry_budget(mut self, retries: u32) -> Self {
            self.retry_budget = retries;
            self
        }

        /// Returns a copy that panics deliberately on every attempt (chaos
        /// hook pinning the quarantine path).
        fn with_chaos_panic(mut self) -> Self {
            self.chaos_panic = true;
            self
        }

        /// Returns a copy whose first `attempts` attempts fail transiently
        /// (chaos hook pinning the retry path).
        fn with_chaos_fail_attempts(mut self, attempts: u32) -> Self {
            self.chaos_fail_attempts = attempts;
            self
        }
    }

    #[test]
    fn pool_plan_splits_threads_across_jobs() {
        assert_eq!(
            PoolPlan::new(8, 4),
            PoolPlan {
                job_workers: 4,
                shard_threads: 1
            }
        );
        assert_eq!(
            PoolPlan::new(2, 8),
            PoolPlan {
                job_workers: 2,
                shard_threads: 4
            }
        );
        assert_eq!(
            PoolPlan::new(1, 8),
            PoolPlan {
                job_workers: 1,
                shard_threads: 8
            }
        );
        assert_eq!(
            PoolPlan::new(3, 4),
            PoolPlan {
                job_workers: 3,
                shard_threads: 1
            }
        );
        // Degenerate shapes clamp instead of panicking.
        assert_eq!(
            PoolPlan::new(0, 4),
            PoolPlan {
                job_workers: 1,
                shard_threads: 4
            }
        );
        assert_eq!(
            PoolPlan::new(5, 0),
            PoolPlan {
                job_workers: 1,
                shard_threads: 1
            }
        );
    }

    #[test]
    fn schedule_order_is_priority_then_fifo() {
        let mut sched = BatchScheduler::new(1);
        for (name, priority) in [("a", 0u8), ("b", 5), ("c", 5), ("d", 1)] {
            sched
                .submit(JobSpec::new(name, WorkloadKind::Vqe, 8).with_priority(priority))
                .unwrap();
        }
        assert_eq!(sched.schedule_order(), vec![1, 2, 3, 0]);
    }

    #[test]
    fn bounded_queue_rejects_with_typed_error() {
        let mut sched = BatchScheduler::with_capacity(1, 2);
        sched
            .submit(JobSpec::new("a", WorkloadKind::Vqe, 8))
            .unwrap();
        sched
            .submit(JobSpec::new("b", WorkloadKind::Vqe, 8))
            .unwrap();
        let err = sched
            .submit(JobSpec::new("c", WorkloadKind::Vqe, 8))
            .unwrap_err();
        assert_eq!(err, JobError::QueueFull { capacity: 2 });
        assert_eq!(sched.rejected(), 1);
        assert_eq!(sched.len(), 2);
    }

    #[test]
    fn seeds_fixed_at_admission() {
        let mut sched = BatchScheduler::new(0xFEED);
        let a = sched
            .submit(JobSpec::new("a", WorkloadKind::Vqe, 8))
            .unwrap();
        let b = sched
            .submit(JobSpec::new("b", WorkloadKind::Vqe, 8).with_seed(7))
            .unwrap();
        assert_eq!(sched.seed_of(a), Some(stream_seed(0xFEED, 0)));
        assert_eq!(sched.seed_of(b), Some(7));
    }

    #[test]
    fn empty_batch_is_typed_error() {
        let sched = BatchScheduler::new(1);
        assert_eq!(sched.run(4).unwrap_err(), JobError::EmptyBatch);
    }

    #[test]
    fn batch_runs_in_canonical_order_with_stable_artifacts() {
        let mut sched = BatchScheduler::new(42);
        sched
            .submit(
                JobSpec::new("low", WorkloadKind::Vqe, 8)
                    .with_iterations(1)
                    .with_shots(24),
            )
            .unwrap();
        sched
            .submit(
                JobSpec::new("high", WorkloadKind::Qaoa, 8)
                    .with_iterations(1)
                    .with_shots(24)
                    .with_priority(9),
            )
            .unwrap();
        let batch = sched.run(2).unwrap();
        // Canonical submission order despite "high" being scheduled first.
        assert_eq!(batch.results[0].name, "low");
        assert_eq!(batch.results[1].name, "high");
        assert_eq!(batch.completed(), 2);
        assert_eq!(batch.failed(), 0);
        for result in &batch.results {
            let standalone =
                run_standalone(&sched.queue[result.id.index()].spec, result.seed, 0, 1).unwrap();
            let fleet = result.outcome.artifacts().unwrap();
            assert_eq!(fleet.report, standalone.report);
            assert_eq!(fleet.metrics_json, standalone.metrics_json);
        }
    }

    #[test]
    fn failing_job_does_not_poison_the_batch() {
        let mut sched = BatchScheduler::new(42);
        // 0 qubits cannot build a layout: execution fails with a typed
        // error in its slot.
        sched
            .submit(JobSpec::new("bad", WorkloadKind::Vqe, 0))
            .unwrap();
        sched
            .submit(
                JobSpec::new("good", WorkloadKind::Vqe, 8)
                    .with_iterations(1)
                    .with_shots(24),
            )
            .unwrap();
        let batch = sched.run(2).unwrap();
        assert_eq!(batch.completed(), 1);
        assert_eq!(batch.failed(), 1);
        // A config failure is permanent: it fails in one attempt even
        // though nothing forbids a retry budget on the spec.
        assert!(matches!(
            batch.results[0].outcome,
            JobOutcome::Failed {
                error: JobError::Execution { .. },
                attempts: 1
            }
        ));
        assert!(batch.results[1].outcome.is_completed());
    }

    #[test]
    fn panicking_job_is_quarantined_not_fatal() {
        let mut sched = BatchScheduler::new(42);
        sched
            .submit(JobSpec::new("poison", WorkloadKind::Vqe, 8).with_chaos_panic())
            .unwrap();
        sched
            .submit(
                JobSpec::new("healthy", WorkloadKind::Qaoa, 8)
                    .with_iterations(1)
                    .with_shots(24),
            )
            .unwrap();
        let batch = sched.run(2).unwrap();
        assert_eq!(batch.completed(), 1);
        assert_eq!(batch.quarantined(), 1);
        match &batch.results[0].outcome {
            JobOutcome::Quarantined { reason, attempts } => {
                assert!(reason.contains("panic"), "{reason}");
                assert!(reason.contains("poison"), "{reason}");
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The healthy neighbour is byte-identical to standalone.
        let standalone = run_standalone(&sched.queue[1].spec, batch.results[1].seed, 0, 1).unwrap();
        assert_eq!(batch.results[1].outcome.artifacts(), Some(&standalone));
    }

    #[test]
    fn scripted_transient_failures_recover_within_budget() {
        let mut sched = BatchScheduler::new(42);
        sched
            .submit(
                JobSpec::new("flaky", WorkloadKind::Qaoa, 8)
                    .with_iterations(1)
                    .with_shots(24)
                    .with_chaos_fail_attempts(2)
                    .with_retry_budget(3),
            )
            .unwrap();
        let batch = sched.run(1).unwrap();
        match &batch.results[0].outcome {
            JobOutcome::Completed { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected recovery on attempt 2, got {other:?}"),
        }
        assert_eq!(batch.total_retries(), 2);
        // The recovered attempt is attempt 2, standalone or in the fleet.
        let job_seed = sched.seed_of(JobId::from_index(0)).unwrap();
        let reference = run_standalone(&sched.queue[0].spec, job_seed, 2, 1).unwrap();
        assert_eq!(batch.results[0].outcome.artifacts(), Some(&reference));
    }

    #[test]
    fn budget_exhaustion_quarantines_with_attribution() {
        let mut sched = BatchScheduler::new(42);
        sched
            .submit(
                JobSpec::new("doomed", WorkloadKind::Qaoa, 8)
                    .with_chaos_fail_attempts(u32::MAX)
                    .with_retry_budget(2),
            )
            .unwrap();
        let batch = sched.run(4).unwrap();
        match &batch.results[0].outcome {
            JobOutcome::Quarantined { reason, attempts } => {
                assert_eq!(*attempts, 3, "budget 2 = 1 initial + 2 retries");
                assert!(reason.contains("retry budget"), "{reason}");
                assert!(reason.contains("doomed"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn retry_decision_is_pure_and_matches_the_state_machine() {
        let spec = JobSpec::new("j", WorkloadKind::Vqe, 8).with_retry_budget(2);
        let transient = || AttemptOutcome::Errored {
            error: JobError::Execution {
                job: "j".into(),
                reason: "boom".into(),
            },
            permanent: false,
        };
        // Transient failures retry...
        assert_eq!(retry_decision(&spec, 0, transient()), None);
        assert_eq!(retry_decision(&spec, 1, transient()), None);
        // ...until the budget runs out: quarantined with attribution.
        assert!(matches!(
            retry_decision(&spec, 2, transient()),
            Some(JobOutcome::Quarantined { attempts: 3, .. })
        ));
        // Zero budget keeps the pre-containment shape: Failed, 1 attempt.
        let legacy = JobSpec::new("j", WorkloadKind::Vqe, 8);
        assert!(matches!(
            retry_decision(&legacy, 0, transient()),
            Some(JobOutcome::Failed { attempts: 1, .. })
        ));
        // Permanent errors never retry, budget or not.
        assert!(matches!(
            retry_decision(
                &spec,
                0,
                AttemptOutcome::Errored {
                    error: JobError::Execution {
                        job: "j".into(),
                        reason: "bad config".into()
                    },
                    permanent: true
                }
            ),
            Some(JobOutcome::Failed { attempts: 1, .. })
        ));
        // Panics quarantine immediately.
        assert!(matches!(
            retry_decision(
                &spec,
                0,
                AttemptOutcome::Panicked {
                    message: "ouch".into()
                }
            ),
            Some(JobOutcome::Quarantined { attempts: 1, .. })
        ));
    }

    #[test]
    fn attempt_seed_is_admission_seed_first_then_streamed() {
        assert_eq!(attempt_seed(0xABCD, 0), 0xABCD);
        assert_eq!(attempt_seed(0xABCD, 1), stream_seed(0xABCD, 1));
        assert_eq!(attempt_seed(0xABCD, 3), stream_seed(0xABCD, 3));
        assert_ne!(attempt_seed(0xABCD, 1), attempt_seed(0xABCD, 2));
    }

    #[test]
    fn ledger_is_deterministic_across_pool_widths() {
        let fleet = || {
            let mut sched = BatchScheduler::new(7);
            sched
                .submit(
                    JobSpec::new("a", WorkloadKind::Vqe, 8)
                        .with_iterations(1)
                        .with_shots(24),
                )
                .unwrap();
            sched
                .submit(JobSpec::new("b", WorkloadKind::Qaoa, 8).with_chaos_panic())
                .unwrap();
            sched
                .submit(
                    JobSpec::new("c", WorkloadKind::Qnn, 8)
                        .with_iterations(1)
                        .with_shots(24)
                        .with_chaos_fail_attempts(1)
                        .with_retry_budget(2)
                        .with_priority(5),
                )
                .unwrap();
            sched
        };
        let serial = fleet().run(1).unwrap().ledger();
        let pooled = fleet().run(4).unwrap().ledger();
        assert_eq!(serial, pooled, "ledger must not depend on pool width");
        assert!(serial.contains("quarantined"));
        assert!(serial.contains("completed"));
    }

    #[test]
    fn empty_report_renders_fixed_placeholder_ledger() {
        let report = BatchReport {
            results: Vec::new(),
            pool: PoolPlan::new(0, 1),
            wall: Duration::ZERO,
            rejected: 0,
            cache_stats: None,
        };
        assert_eq!(report.ledger(), BatchReport::empty_ledger());
        assert_eq!(report.ledger(), "job ledger: no jobs\n");
        // Throughput of an empty batch is 0, never NaN.
        assert_eq!(report.jobs_per_second(), 0.0);
    }

    #[test]
    fn cached_fleet_artefacts_are_byte_identical_to_uncached_at_every_width() {
        // Four jobs sharing one explicit seed → identical circuits, so
        // the cache serves three of the four compiles. Artefacts must
        // still match the cache-free serial reference bit for bit.
        let fleet = |cache: bool, threads: usize| {
            let mut sched = BatchScheduler::new(9).with_cache(cache);
            for i in 0..4 {
                sched
                    .submit(
                        JobSpec::new(&format!("j{i}"), WorkloadKind::Vqe, 8)
                            .with_iterations(1)
                            .with_shots(24)
                            .with_seed(77),
                    )
                    .unwrap();
            }
            sched.run(threads).unwrap()
        };
        let reference = fleet(false, 1);
        assert!(reference.cache_stats.is_none());
        for threads in [1, 2, 8] {
            let cached = fleet(true, threads);
            assert_eq!(cached.failed(), 0);
            for (a, b) in reference.results.iter().zip(&cached.results) {
                let cold = a.outcome.artifacts().unwrap();
                let hit = b.outcome.artifacts().unwrap();
                assert_eq!(cold.report, hit.report, "width {threads}");
                assert_eq!(cold.metrics_json, hit.metrics_json, "width {threads}");
            }
            let stats = cached.cache_stats.expect("cached batch reports stats");
            // One program lookup per job, and one fill per key: concurrent
            // duplicates wait for the first compile instead of racing it.
            assert_eq!(
                (stats.program_hits, stats.program_misses),
                (3, 1),
                "width {threads}"
            );
            assert!(stats.pulse_hits > 0, "width {threads}");
        }
    }

    #[test]
    fn ledger_attribution_is_cold_shared_off_and_width_invariant() {
        let fleet = |threads: usize| {
            let mut sched = BatchScheduler::new(3).with_cache(true);
            // Two duplicates (same seed → same circuit) and one distinct.
            for name in ["dup-a", "dup-b"] {
                sched
                    .submit(
                        JobSpec::new(name, WorkloadKind::Vqe, 8)
                            .with_iterations(1)
                            .with_shots(24)
                            .with_seed(5),
                    )
                    .unwrap();
            }
            sched
                .submit(
                    JobSpec::new("lone", WorkloadKind::Qnn, 8)
                        .with_iterations(1)
                        .with_shots(24),
                )
                .unwrap();
            sched.run(threads).unwrap()
        };
        let serial = fleet(1);
        let labels: Vec<&str> = serial.results.iter().map(|r| r.cache).collect();
        assert_eq!(labels, ["cold", "shared", "cold"]);
        assert_eq!(
            serial.ledger(),
            fleet(8).ledger(),
            "cached ledger must not depend on pool width"
        );
        assert!(serial
            .ledger()
            .starts_with("idx\tname\tseed\tprio\toutcome\tattempts\tcache\tdetail\n"));
        // With the batch cache off, every job renders "off".
        let mut off = BatchScheduler::new(3);
        off.submit(
            JobSpec::new("x", WorkloadKind::Vqe, 8)
                .with_iterations(1)
                .with_shots(24),
        )
        .unwrap();
        let off = off.run(1).unwrap();
        assert_eq!(off.results[0].cache, "off");
    }

    #[test]
    fn attribution_reuses_each_triples_answer_for_resubmissions() {
        let mut sched = BatchScheduler::new(3).with_cache(true);
        // A zero-qubit job has no layout, so no key can be built for it.
        for (name, kind, n_qubits, seed) in [
            ("a", WorkloadKind::Vqe, 8, 5),
            ("bad", WorkloadKind::Qaoa, 0, 9),
            ("a-again", WorkloadKind::Vqe, 8, 5),
            ("bad-again", WorkloadKind::Qaoa, 0, 9),
            ("b", WorkloadKind::Qnn, 8, 5),
        ] {
            sched
                .submit(JobSpec::new(name, kind, n_qubits).with_seed(seed))
                .unwrap();
        }
        assert_eq!(
            sched.cache_attribution(),
            ["cold", "-", "shared", "-", "cold"]
        );
    }

    #[test]
    fn cache_metrics_exported_only_when_batch_is_cached() {
        let run = |cache: bool| {
            let mut sched = BatchScheduler::new(11).with_cache(cache);
            for i in 0..2 {
                sched
                    .submit(
                        JobSpec::new(&format!("m{i}"), WorkloadKind::Vqe, 8)
                            .with_iterations(1)
                            .with_shots(24)
                            .with_seed(4),
                    )
                    .unwrap();
            }
            let batch = sched.run(1).unwrap();
            let mut m = MetricsRegistry::new();
            batch.export_metrics(&mut m);
            m
        };
        let cached = run(true);
        assert_eq!(
            cached.get("cache.fleet.program.hits"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            cached.get("cache.fleet.program.misses"),
            Some(&MetricValue::Counter(1))
        );
        assert!(cached.get("cache.fleet.hit_rate").is_some());
        let uncached = run(false);
        assert!(uncached.get("cache.fleet.program.hits").is_none());
    }

    #[test]
    fn batch_spec_runs_cached_and_rejects_cache_and_fuse_keys() {
        let spec = BatchSpec::from_json(r#"{"jobs": [{"iterations": 1, "shots": 24}]}"#).unwrap();
        let batch = spec.into_scheduler().unwrap().run(1).unwrap();
        assert!(batch.cache_stats.is_some(), "batch files always run cached");
        for (text, key) in [
            (r#"{"cache": false, "jobs": []}"#, "cache"),
            (r#"{"cache_capacity": 8, "jobs": []}"#, "cache_capacity"),
            (r#"{"jobs": [{"cache": false}]}"#, "cache"),
            (r#"{"jobs": [{"fuse": false}]}"#, "fuse"),
        ] {
            let err = BatchSpec::from_json(text).unwrap_err();
            let JobError::Spec { reason } = err else {
                panic!("{text}: expected a spec error, got {err:?}");
            };
            assert!(reason.contains(&format!("key {key:?}")), "{text}: {reason}");
        }
    }

    #[test]
    fn job_keys_and_fleet_defaults_share_one_codec() {
        let reason = "retries 4294967296 exceeds u32";
        let direct = JobSpec::new("a", WorkloadKind::Vqe, 8)
            .set("retries", &JsonValue::Number(4_294_967_296.0));
        assert_eq!(direct, Err(spec_err(reason.to_string())));
        let top = BatchSpec::from_json(r#"{"retries": 4294967296, "jobs": []}"#);
        assert_eq!(top, Err(spec_err(reason.to_string())));
        let job = BatchSpec::from_json(r#"{"jobs": [{"retries": 4294967296}]}"#);
        assert_eq!(job, Err(spec_err(format!("jobs[0]: {reason}"))));
    }

    #[test]
    fn resilience_metrics_cover_the_outcome_machine() {
        let mut sched = BatchScheduler::new(42);
        sched
            .submit(
                JobSpec::new("ok", WorkloadKind::Vqe, 8)
                    .with_iterations(1)
                    .with_shots(24),
            )
            .unwrap();
        sched
            .submit(JobSpec::new("panic", WorkloadKind::Vqe, 8).with_chaos_panic())
            .unwrap();
        sched
            .submit(
                JobSpec::new("flaky", WorkloadKind::Qaoa, 8)
                    .with_iterations(1)
                    .with_shots(24)
                    .with_chaos_fail_attempts(1)
                    .with_retry_budget(1),
            )
            .unwrap();
        let batch = sched.run(2).unwrap();
        let mut m = MetricsRegistry::new();
        batch.export_metrics(&mut m);
        assert_eq!(m.get("jobs.completed"), Some(&MetricValue::Counter(2)));
        assert_eq!(
            m.get("resilience.jobs.quarantined"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            m.get("resilience.jobs.retries"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            m.get("resilience.jobs.timed_out"),
            Some(&MetricValue::Counter(0))
        );
        match m.get("resilience.jobs.attempts") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 3),
            other => panic!("expected histogram, got {other:?}"),
        }
        match m.get("resilience.jobs.time_to_recovery_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn fleet_metrics_live_under_jobs_namespace() {
        let mut sched = BatchScheduler::new(42);
        sched
            .submit(
                JobSpec::new("a", WorkloadKind::Vqe, 8)
                    .with_iterations(1)
                    .with_shots(24),
            )
            .unwrap();
        let batch = sched.run(1).unwrap();
        let mut m = MetricsRegistry::new();
        batch.export_metrics(&mut m);
        assert_eq!(m.get("jobs.submitted"), Some(&MetricValue::Counter(1)));
        assert_eq!(m.get("jobs.completed"), Some(&MetricValue::Counter(1)));
        assert_eq!(m.get("jobs.failed"), Some(&MetricValue::Counter(0)));
        assert!(m.get("jobs.wait_ns").is_some());
        assert!(m.get("jobs.turnaround_ns").is_some());
        assert!(m.get("jobs.throughput.jobs_per_s").is_some());
        assert!(batch.total_shots_sampled() > 0);
    }

    #[test]
    fn batch_spec_parses_and_materialises_seeds() {
        let text = r#"{
            "fleet_seed": 9,
            "capacity": 4,
            "jobs": [
                {"name": "a", "workload": "vqe", "qubits": 16, "shots": 200,
                 "priority": 2, "core": "boom", "optimizer": "gd",
                 "sync": "fence", "transmission": "immediate"},
                {"workload": "qnn", "qubits": 8, "seed": 77,
                 "faults": "all=0.01,max_attempts=8"}
            ]
        }"#;
        let spec = BatchSpec::from_json(text).unwrap();
        assert_eq!(spec.fleet_seed, 9);
        assert_eq!(spec.capacity, 4);
        assert_eq!(spec.jobs.len(), 2);
        let a = &spec.jobs[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.kind, WorkloadKind::Vqe);
        assert_eq!(a.n_qubits, 16);
        assert_eq!(a.shots, 200);
        assert_eq!(a.priority, 2);
        assert_eq!(a.core, CoreModel::BoomLarge);
        assert_eq!(a.optimizer, JobOptimizer::Gd);
        assert_eq!(a.sync, SyncMode::Fence);
        assert_eq!(a.transmission, TransmissionPolicy::Immediate);
        assert_eq!(a.seed, Some(stream_seed(9, 0)));
        let b = &spec.jobs[1];
        assert_eq!(b.name, "job1");
        assert_eq!(b.kind, WorkloadKind::Qnn);
        assert_eq!(b.seed, Some(77));
        assert!(b.faults.is_active());
    }

    #[test]
    fn batch_spec_rejects_unknown_keys_but_allows_empty_batches() {
        let err = BatchSpec::from_json(r#"{"jobs": [{"qubist": 8}]}"#).unwrap_err();
        assert!(matches!(err, JobError::Spec { ref reason } if reason.contains("qubist")));
        // An empty jobs array is a valid (vacuous) spec: the CLI renders
        // the fixed placeholder ledger and exits 0.
        let empty = BatchSpec::from_json(r#"{"jobs": []}"#).unwrap();
        assert!(empty.jobs.is_empty());
        // Only running it is an error.
        let err = empty.into_scheduler().unwrap().run(2).unwrap_err();
        assert_eq!(err, JobError::EmptyBatch);
        let err = BatchSpec::from_json(r#"{"jobs": "nope"}"#).unwrap_err();
        assert!(matches!(err, JobError::Spec { .. }));
        let err = BatchSpec::from_json("{").unwrap_err();
        assert!(matches!(err, JobError::Spec { .. }));
    }

    #[test]
    fn batch_spec_parses_containment_fields_with_fleet_defaults() {
        let text = r#"{
            "retries": 2,
            "deadline_ns": 500000,
            "jobs": [
                {"name": "inherits", "qubits": 8},
                {"name": "overrides", "qubits": 8, "retries": 5,
                 "deadline_ns": 9000, "chaos_panic": true,
                 "chaos_fail_attempts": 1}
            ]
        }"#;
        let spec = BatchSpec::from_json(text).unwrap();
        assert_eq!(spec.retries, 2);
        assert_eq!(spec.deadline, Some(SimDuration::from_ns(500_000)));
        let inherits = &spec.jobs[0];
        assert_eq!(inherits.retry_budget, 2);
        assert_eq!(inherits.deadline, Some(SimDuration::from_ns(500_000)));
        assert!(!inherits.chaos_panic);
        assert_eq!(inherits.chaos_fail_attempts, 0);
        let overrides = &spec.jobs[1];
        assert_eq!(overrides.retry_budget, 5);
        assert_eq!(overrides.deadline, Some(SimDuration::from_ns(9_000)));
        assert!(overrides.chaos_panic);
        assert_eq!(overrides.chaos_fail_attempts, 1);
        // Bad types fail loudly.
        let err = BatchSpec::from_json(r#"{"jobs": [{"chaos_panic": "yes"}]}"#).unwrap_err();
        assert!(matches!(err, JobError::Spec { ref reason } if reason.contains("chaos_panic")));
    }

    #[test]
    fn batch_spec_capacity_bounds_into_scheduler() {
        let text = r#"{"capacity": 1, "jobs": [{"qubits": 8}, {"qubits": 8}]}"#;
        let spec = BatchSpec::from_json(text).unwrap();
        let err = spec.into_scheduler().unwrap_err();
        assert_eq!(err, JobError::QueueFull { capacity: 1 });
    }

    #[test]
    fn batch_spec_reads_strings_strictly() {
        // Non-ASCII names parse, raw or as a \u escape.
        let spec =
            BatchSpec::from_json(r#"{"jobs": [{"name": "é"}, {"name": "caf\u00e9"}]}"#).unwrap();
        assert_eq!(spec.jobs[0].name, "é");
        assert_eq!(spec.jobs[1].name, "café");
        // A raw control character inside a string is a typed error.
        let err = BatchSpec::from_json("{\"jobs\": [{\"name\": \"a\tb\"}]}").unwrap_err();
        assert!(matches!(err, JobError::Spec { ref reason } if reason.contains("control")));
        // Trailing input is still rejected.
        let err = BatchSpec::from_json(r#"{"jobs": []} {}"#).unwrap_err();
        assert!(matches!(err, JobError::Spec { ref reason } if reason.contains("trailing")));
    }

    #[test]
    fn batch_spec_rejects_deep_nesting_without_overflowing_the_stack() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let err = BatchSpec::from_json(&deep).unwrap_err();
        assert!(matches!(err, JobError::Spec { ref reason } if reason.contains("nesting")));
    }

    #[test]
    fn batch_spec_keyword_errors_name_job_key_and_allowed_values() {
        let err = BatchSpec::from_json(r#"{"jobs": [{}, {"sync": "Loose"}]}"#).unwrap_err();
        assert_eq!(
            err,
            JobError::Spec {
                reason: "jobs[1]: unknown sync \"loose\" (want fence|fine)".to_string()
            }
        );
        let err =
            BatchSpec::from_json(r#"{"jobs": [{"chaos_fail_attempts": 4294967296}]}"#).unwrap_err();
        assert_eq!(
            err,
            JobError::Spec {
                reason: "jobs[0]: chaos_fail_attempts 4294967296 exceeds u32".to_string()
            }
        );
        // 2^32 + 8 qubits must not wrap to an 8-qubit job.
        let err = BatchSpec::from_json(r#"{"jobs": [{"qubits": 4294967304}]}"#).unwrap_err();
        assert_eq!(
            err,
            JobError::Spec {
                reason: "jobs[0]: qubits 4294967304 exceeds u32".to_string()
            }
        );
    }
}
