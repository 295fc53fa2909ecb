//! Qtenon's extended RISC-V ISA.
//!
//! The paper's key software insight is to treat the quantum program as
//! *computable data* rather than a static instruction list: each gate is one
//! 65-bit program entry stored at a per-qubit **QAddress**, so the qubit
//! index never appears in the instruction stream and single parameters can
//! be updated in place. This crate implements that software-visible layer:
//!
//! - [`qaddress`]: the 39-bit quantum address space and the five-segment ×
//!   per-qubit-chunk 2D layout of the quantum controller cache (Fig. 4,
//!   Table 2);
//! - [`angle`]: the fixed-point rotation-angle encoding shared by program
//!   entries, the register file, and the skip-lookup-table tags;
//! - [`program`]: the packed 65-bit program entry
//!   (`type`/`reg_flag`/`data`/`status`/`qaddr`) and gate-type encoding;
//! - [`rocc`]: the 32-bit RoCC instruction word (Fig. 8a);
//! - [`instr`]: the five Qtenon instructions — `q_update`, `q_set`,
//!   `q_acquire`, `q_gen`, `q_run` — with their operand packing (Fig. 8b),
//!   encode/decode, and a textual assembler.
//!
//! # Examples
//!
//! ```
//! use qtenon_isa::{Instruction, QccLayout, QubitId};
//!
//! let layout = QccLayout::for_qubits(64)?;
//! let target = layout.program_entry(QubitId::new(3), 0)?;
//! let update = Instruction::QUpdate { qaddr: target, value: 0x1234 };
//! let encoded = update.encode();
//! assert_eq!(Instruction::decode(&encoded)?, update);
//! # Ok::<(), qtenon_isa::IsaError>(())
//! ```

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod angle;
pub mod disasm;
pub mod instr;
pub mod program;
pub mod qaddress;
pub mod rocc;

pub use angle::EncodedAngle;
pub use instr::{EncodedInstruction, Instruction};
pub use program::{EntryStatus, GateType, ProgramEntry};
pub use qaddress::{QAddress, QccLayout, QubitId, Segment};
pub use rocc::{RoccFunct, RoccWord};

use std::fmt;

/// Errors produced by ISA-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A QAddress fell outside the 39-bit quantum address space or outside
    /// the segment being addressed.
    AddressOutOfRange {
        /// The offending raw address value.
        addr: u64,
        /// Human-readable description of the valid region.
        context: &'static str,
    },
    /// A qubit index exceeded the configured qubit count.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: u32,
        /// The configured number of qubits.
        n_qubits: u32,
    },
    /// A field value did not fit its bit width.
    FieldOverflow {
        /// Name of the field.
        field: &'static str,
        /// The value that did not fit.
        value: u64,
        /// The field width in bits.
        bits: u32,
    },
    /// An instruction word could not be decoded.
    BadEncoding {
        /// Description of what failed to decode.
        what: &'static str,
    },
    /// Assembly text could not be parsed.
    ParseError {
        /// Description of the parse failure.
        message: String,
    },
    /// A layout parameter was invalid (e.g. zero qubits).
    BadLayout {
        /// Description of the invalid configuration.
        message: String,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::AddressOutOfRange { addr, context } => {
                write!(f, "address {addr:#x} out of range for {context}")
            }
            IsaError::QubitOutOfRange { qubit, n_qubits } => {
                write!(f, "qubit {qubit} out of range for {n_qubits}-qubit layout")
            }
            IsaError::FieldOverflow { field, value, bits } => {
                write!(f, "value {value:#x} does not fit {bits}-bit field {field}")
            }
            IsaError::BadEncoding { what } => write!(f, "bad encoding: {what}"),
            IsaError::ParseError { message } => write!(f, "parse error: {message}"),
            IsaError::BadLayout { message } => write!(f, "bad layout: {message}"),
        }
    }
}

impl std::error::Error for IsaError {}
