//! # Qtenon
//!
//! A full-system reproduction of *"Qtenon: Towards Low-Latency
//! Architecture Integration for Accelerating Hybrid Quantum-Classical
//! Computing"* (ISCA 2025): a tightly coupled RISC-V + quantum-accelerator
//! system with a unified memory hierarchy, an SLT-equipped quantum
//! controller, a four-stage pulse pipeline, the five-instruction Qtenon
//! ISA, fine-grained memory consistency, and batched transmission
//! scheduling — plus the decoupled host+FPGA baseline it is evaluated
//! against.
//!
//! This umbrella crate re-exports every workspace crate under one roof:
//!
//! - [`sim_engine`]: discrete-event simulation kernel (time, clocks,
//!   events, op counting);
//! - [`quantum`]: circuit IR, transpiler, state-vector and mean-field
//!   simulators, Hamiltonians, gate timing;
//! - [`isa`]: QAddress space, RoCC encodings, the five Qtenon
//!   instructions, program-entry formats;
//! - [`mem`]: caches, DRAM, the quantum controller cache, QSpace;
//! - [`controller`]: RBQ, TileLink bus, SLT, PGU pool, pulse
//!   pipeline, ADI latency;
//! - [`compiler`]: Qtenon compilation + dynamic incremental compilation,
//!   and the baseline JIT model;
//! - [`core`]: the integrated tightly coupled system and VQA runner;
//! - [`baseline`]: the decoupled comparison system;
//! - [`workloads`]: QAOA / VQE / QNN builders and the GD / SPSA
//!   optimizers.
//!
//! # Quickstart
//!
//! ```
//! use qtenon::core::config::{CoreModel, QtenonConfig};
//! use qtenon::core::vqa::VqaRunner;
//! use qtenon::workloads::{SpsaOptimizer, Workload};
//!
//! // A 8-qubit QAOA MAX-CUT instance on the Table-4 system.
//! let config = QtenonConfig::table4(8, CoreModel::Rocket)?;
//! let workload = Workload::qaoa(8, 2, 42)?;
//! let mut runner = VqaRunner::new(config, workload)?;
//! let report = runner.run(&mut SpsaOptimizer::new(42), 3, 100)?;
//! println!(
//!     "end-to-end {} ({:.1}% quantum)",
//!     report.total,
//!     report.exposed_shares()[0] * 100.0
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![deny(dead_code)]

pub use qtenon_baseline as baseline;
pub use qtenon_compiler as compiler;
pub use qtenon_controller as controller;
pub use qtenon_core as core;
pub use qtenon_isa as isa;
pub use qtenon_mem as mem;
pub use qtenon_quantum as quantum;
pub use qtenon_sim_engine as sim_engine;
pub use qtenon_workloads as workloads;
