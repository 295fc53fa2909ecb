//! The Qtenon tightly coupled system — the paper's primary contribution.
//!
//! This crate integrates the substrates (host core models, unified memory
//! hierarchy, quantum controller, compiler, quantum chip simulator) into
//! the end-to-end system of Fig. 3 and provides the executors behind every
//! experiment:
//!
//! - [`config`]: Table 4 hardware configurations, synchronisation modes
//!   (FENCE vs fine-grained barrier) and transmission policies (immediate
//!   vs Algorithm 1 batching);
//! - [`host`]: cycle-cost models for the Rocket-class in-order and
//!   BOOM-Large-class out-of-order RISC-V cores;
//! - [`schedule`]: the batched transmission policy (Algorithm 1);
//! - [`system`]: [`QtenonSystem`] — functional-plus-timed execution of
//!   the five Qtenon instructions against the controller and chip;
//! - [`parallel`]: the shot-sharded execution engine — contiguous shard
//!   planning plus scoped thread fan-out whose merged results are
//!   bitwise identical to the serial run at any thread count;
//! - [`vqa`]: [`VqaRunner`] — full hybrid quantum-classical algorithm
//!   execution with incremental compilation, overlap scheduling, and
//!   per-component time accounting;
//! - [`jobs`]: the deterministic multi-job batch scheduler — bounded
//!   priority admission of independent VQA jobs over one shared worker
//!   pool, with per-job artefacts byte-identical to standalone runs,
//!   plus the fault-containment layer: panic quarantine, per-job
//!   sim-time deadlines, and deterministic, budgeted retry;
//! - [`report`]: the time-breakdown structures every figure is built
//!   from.
//!
//! # Examples
//!
//! ```
//! use qtenon_core::config::{CoreModel, QtenonConfig};
//! use qtenon_core::vqa::VqaRunner;
//! use qtenon_workloads::{SpsaOptimizer, Workload};
//!
//! let config = QtenonConfig::table4(8, CoreModel::Rocket)?;
//! let workload = Workload::qaoa(8, 2, 7)?;
//! let mut runner = VqaRunner::new(config, workload)?;
//! let report = runner.run(&mut SpsaOptimizer::new(7), 2, 50)?;
//! assert!(report.total > qtenon_sim_engine::SimDuration::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod config;
pub mod host;
pub mod jobs;
pub mod parallel;
pub mod report;
pub mod schedule;
pub mod system;
pub mod trace;
pub mod vqa;

pub use config::{CoreModel, QtenonConfig, SyncMode, TransmissionPolicy};
pub use host::HostCoreModel;
pub use jobs::{
    BatchReport, BatchScheduler, BatchSpec, JobError, JobOutcome, JobResult, JobSpec, PoolPlan,
};
pub use parallel::{Shard, ShardPlan};
pub use report::{CommBreakdown, ResilienceSummary, RunReport, TimeBreakdown};
pub use schedule::TransmissionPlan;
pub use system::QtenonSystem;
pub use vqa::{DeadlineStatus, Trajectory, VqaRunner};

use std::fmt;

/// Errors from system construction and execution.
#[derive(Debug)]
pub enum SystemError {
    /// Invalid configuration.
    Config(String),
    /// ISA-level failure.
    Isa(qtenon_isa::IsaError),
    /// Memory-model failure.
    Mem(qtenon_mem::MemError),
    /// Controller hardware failure (retry budgets exhausted, structural
    /// misuse) surfaced as a typed error instead of a panic.
    Controller(qtenon_controller::ControllerError),
    /// Compilation failure.
    Compile(qtenon_compiler::CompileError),
    /// Quantum simulation failure.
    Quantum(qtenon_quantum::QuantumError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Config(m) => write!(f, "bad system config: {m}"),
            SystemError::Isa(e) => write!(f, "isa error: {e}"),
            SystemError::Mem(e) => write!(f, "memory error: {e}"),
            SystemError::Controller(e) => write!(f, "controller error: {e}"),
            SystemError::Compile(e) => write!(f, "compile error: {e}"),
            SystemError::Quantum(e) => write!(f, "quantum error: {e}"),
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Config(_) => None,
            SystemError::Isa(e) => Some(e),
            SystemError::Mem(e) => Some(e),
            SystemError::Controller(e) => Some(e),
            SystemError::Compile(e) => Some(e),
            SystemError::Quantum(e) => Some(e),
        }
    }
}

impl From<qtenon_isa::IsaError> for SystemError {
    fn from(e: qtenon_isa::IsaError) -> Self {
        SystemError::Isa(e)
    }
}
impl From<qtenon_mem::MemError> for SystemError {
    fn from(e: qtenon_mem::MemError) -> Self {
        SystemError::Mem(e)
    }
}
impl From<qtenon_controller::ControllerError> for SystemError {
    fn from(e: qtenon_controller::ControllerError) -> Self {
        SystemError::Controller(e)
    }
}
impl From<qtenon_compiler::CompileError> for SystemError {
    fn from(e: qtenon_compiler::CompileError) -> Self {
        SystemError::Compile(e)
    }
}
impl From<qtenon_quantum::QuantumError> for SystemError {
    fn from(e: qtenon_quantum::QuantumError) -> Self {
        SystemError::Quantum(e)
    }
}
