//! Compilation of quantum circuits to Qtenon programs — and to the
//! baseline's flat instruction stream.
//!
//! The central software idea (Section 6.1) is *dynamic incremental
//! compilation*: hybrid algorithms exhibit quantum locality — across
//! iterations only some gate parameters change while the program structure
//! is identical. Qtenon compiles a circuit **once** into per-qubit program
//! entries; every parameterised gate carries a `reg_flag` and reads its
//! angle from the `.regfile`, so a parameter change is a single `q_update`
//! instead of a recompile.
//!
//! - [`program`]: [`QtenonCompiler`] and the [`CompiledProgram`] it
//!   produces (per-qubit chunks, register-slot table, instruction
//!   generators);
//! - [`incremental`]: the parameter-diff engine emitting minimal
//!   `q_update` sequences;
//! - [`cache`]: the fleet-scale content-addressed compilation/pulse
//!   cache — across near-identical jobs, whole compiles and work-item
//!   streams are shared instead of redone;
//! - [`baseline`]: the decoupled baseline's JIT compiler model
//!   (eQASM/HiSEP-Q-style flat instruction streams, recompiled from
//!   scratch every iteration — Table 1's ~3×10⁴ instructions and
//!   1–100 ms recompile overhead).

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod baseline;
pub mod cache;
pub mod eqasm;
pub mod incremental;
pub mod program;

pub use baseline::{BaselineCompiler, BaselineCompilerConfig, BaselineProgram};
pub use cache::{
    CacheStats, CachedBound, CachedProgram, CachedPulses, CompilationCache, PulseSchedule,
};
pub use eqasm::EqasmProgram;
pub use incremental::ParameterDiff;
pub use program::{CompiledProgram, QtenonCompiler, RegSlot};

use std::fmt;

/// Errors from compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The circuit contains a gate outside the native set.
    NonNativeGate {
        /// Name of the offending gate.
        gate: &'static str,
    },
    /// A per-qubit chunk overflowed the layout's entry budget.
    ChunkOverflow {
        /// The qubit whose chunk overflowed.
        qubit: u32,
        /// The chunk capacity.
        capacity: u64,
    },
    /// The register file cannot hold all distinct parameter slots.
    RegfileOverflow {
        /// Slots required.
        needed: usize,
        /// Slots available.
        capacity: u64,
    },
    /// The circuit is wider than the layout.
    TooManyQubits {
        /// Circuit width.
        circuit: u32,
        /// Layout width.
        layout: u32,
    },
    /// A parameter vector had the wrong length.
    ParameterCountMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A two-qubit gate arrived without its second operand.
    MissingOperand {
        /// Name of the malformed gate.
        gate: &'static str,
    },
    /// A register slot index fell outside the layout's register file.
    SlotOutOfRange {
        /// The offending slot index.
        slot: usize,
        /// Register-file capacity of the layout.
        capacity: u64,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NonNativeGate { gate } => {
                write!(f, "gate {gate} is not native; transpile before compiling")
            }
            CompileError::ChunkOverflow { qubit, capacity } => {
                write!(
                    f,
                    "program chunk for qubit {qubit} overflows {capacity} entries"
                )
            }
            CompileError::RegfileOverflow { needed, capacity } => {
                write!(f, "{needed} register slots needed, {capacity} available")
            }
            CompileError::TooManyQubits { circuit, layout } => {
                write!(f, "{circuit}-qubit circuit exceeds {layout}-qubit layout")
            }
            CompileError::ParameterCountMismatch { expected, got } => {
                write!(f, "expected {expected} parameters, got {got}")
            }
            CompileError::MissingOperand { gate } => {
                write!(f, "gate {gate} is missing its second operand")
            }
            CompileError::SlotOutOfRange { slot, capacity } => {
                write!(
                    f,
                    "register slot {slot} outside the {capacity}-entry register file"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}
