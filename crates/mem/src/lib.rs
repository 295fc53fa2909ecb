//! Unified memory hierarchy models for the Qtenon reproduction.
//!
//! Qtenon's hardware contribution starts from a unified memory space: the
//! host's L1/L2/DRAM hierarchy plus a *quantum controller cache* (QCC)
//! placed at the L1 level, and a reserved DRAM region (*QSpace*) backing
//! the controller's skip-lookup-table evictions. This crate provides:
//!
//! - [`cache`]: a set-associative cache timing model with LRU replacement;
//! - [`hierarchy`]: L1 → L2 → DRAM latency composition with access stats;
//! - [`qcc`]: the five-segment QCC with per-qubit chunks, public/private
//!   access control and access counts for every segment, storage for
//!   `.regfile`, the one segment whose contents are read back, and the
//!   `.measure` ECC state (Fig. 4, Table 2);
//! - [`qspace`]: the QSpace tag store (2²⁰ × 4 B per qubit), one table for
//!   every qubit.
//!
//! # Examples
//!
//! ```
//! use qtenon_isa::{QccLayout, QubitId};
//! use qtenon_mem::qcc::{AccessPort, QuantumControllerCache};
//!
//! let layout = QccLayout::for_qubits(8)?;
//! let mut qcc = QuantumControllerCache::new(layout);
//! let addr = layout.regfile_entry(0)?;
//! qcc.write_regfile(AccessPort::HostPublic, addr, 0x55)?;
//! assert_eq!(qcc.regfile_by_index(0), 0x55);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod cache;
pub mod hierarchy;
pub mod qcc;
pub mod qspace;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{HierarchyConfig, MemoryHierarchy};
pub use qcc::{AccessPort, QuantumControllerCache};
pub use qspace::QSpace;

use std::fmt;

use qtenon_isa::{QAddress, QubitId, Segment};

/// Errors from memory-model operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MemError {
    /// User software touched a private segment (`.pulse` or `.slt`).
    PrivateSegment {
        /// The segment that was illegally accessed.
        segment: Segment,
    },
    /// An address decoded into the wrong segment for the operation.
    WrongSegment {
        /// The segment expected by the accessor.
        expected: Segment,
        /// The segment the address actually decodes to.
        actual: Segment,
    },
    /// An address did not decode at all.
    BadAddress {
        /// The offending address.
        addr: QAddress,
    },
    /// A bulk `.program` load ran past the end of its qubit's chunk into
    /// the next qubit's.
    ChunkOverrun {
        /// The qubit whose chunk the load starts in.
        qubit: QubitId,
        /// The first entry written, within that chunk.
        entry: u64,
        /// The entries the load asked for.
        length: u64,
        /// Entries per qubit chunk.
        chunk: u64,
    },
    /// A cache/hierarchy configuration was invalid.
    BadConfig {
        /// Description of the invalid configuration.
        message: String,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::PrivateSegment { segment } => {
                write!(f, "segment {segment} is private to the controller")
            }
            MemError::WrongSegment { expected, actual } => {
                write!(f, "expected a {expected} address, got {actual}")
            }
            MemError::BadAddress { addr } => write!(f, "unmapped quantum address {addr}"),
            MemError::ChunkOverrun {
                qubit,
                entry,
                length,
                chunk,
            } => write!(
                f,
                "{length} entries from entry {entry} of {qubit}'s .program chunk \
                 overrun its {chunk} entries"
            ),
            MemError::BadConfig { message } => write!(f, "bad memory config: {message}"),
        }
    }
}

impl std::error::Error for MemError {}
