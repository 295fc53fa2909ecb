//! Typed errors for structural controller failures.
//!
//! Injected faults and structural surprises (misrouted tags, exhausted
//! retry budgets) must surface as values the system layer can
//! react to — degrade, retry elsewhere, or report — never as panics that
//! abort a simulation mid-run.

/// A structural failure inside the controller models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerError {
    /// An RBQ completion arrived for a tag that is not outstanding (e.g.
    /// the watchdog already reclaimed it).
    UnissuedTag {
        /// The raw 5-bit tag value.
        tag: u8,
    },
    /// An RBQ tag was completed twice.
    DoubleCompletion {
        /// The raw 5-bit tag value.
        tag: u8,
    },
    /// A PGU pool was configured with zero units.
    NoPguUnits,
    /// A bus transaction kept failing after exhausting its retry budget.
    BusRetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A PGU dispatch kept producing bad pulses past the retry budget.
    PguRetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A readout kept timing out past the retry budget.
    ReadoutRetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A pulse request named a qubit outside the configured layout
    /// (malformed program or config).
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: u32,
        /// The number of qubits in the layout.
        n_qubits: u32,
    },
    /// A layout's per-qubit `.pulse` chunk has more slots than an SLT
    /// entry's 16-bit slot field can name (malformed config).
    PulseChunkTooWide {
        /// The chunk's entry count.
        entries: u64,
    },
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::UnissuedTag { tag } => {
                write!(f, "completion for unissued RBQ tag {tag}")
            }
            ControllerError::DoubleCompletion { tag } => {
                write!(f, "RBQ tag {tag} completed twice")
            }
            ControllerError::NoPguUnits => write!(f, "PGU pool configured with zero units"),
            ControllerError::BusRetriesExhausted { attempts } => {
                write!(f, "bus transaction failed after {attempts} attempts")
            }
            ControllerError::PguRetriesExhausted { attempts } => {
                write!(f, "PGU dispatch failed after {attempts} attempts")
            }
            ControllerError::ReadoutRetriesExhausted { attempts } => {
                write!(f, "readout timed out after {attempts} attempts")
            }
            ControllerError::QubitOutOfRange { qubit, n_qubits } => {
                write!(f, "qubit {qubit} outside layout of {n_qubits} qubits")
            }
            ControllerError::PulseChunkTooWide { entries } => {
                write!(
                    f,
                    "{entries}-entry pulse chunk exceeds the SLT's 16-bit slot field"
                )
            }
        }
    }
}

impl std::error::Error for ControllerError {}
