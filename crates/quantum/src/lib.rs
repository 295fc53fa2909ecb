//! Quantum substrate for the Qtenon reproduction.
//!
//! The paper takes quantum-chip input/output from Qiskit simulations; this
//! crate is the from-scratch replacement. It provides:
//!
//! - [`gate`] / [`circuit`]: a parameterised quantum circuit IR;
//! - [`transpile`]: lowering to the Qtenon chip's native gate set
//!   `{RX, RY, RZ, CZ}` + measurement;
//! - [`statevector`]: an exact state-vector simulator (used up to
//!   [`sim::EXACT_QUBIT_LIMIT`] qubits), executing through the
//!   vectorised gate kernels in [`kernels`] with deterministic gate
//!   fusion planned by [`fuse`];
//! - [`sim::MeanFieldState`]: a product-state (mean-field) approximation
//!   that scales to the paper's 320-qubit experiments — measurement
//!   statistics stay parameter-responsive while timing is unaffected,
//!   which is all the evaluation needs (see DESIGN.md substitutions);
//! - [`hamiltonian`]: diagonal (Z-basis) Hamiltonians for MAX-CUT, Ising
//!   chemistry encodings, and QNN losses, with expectation evaluation;
//! - [`timing`]: the analytic circuit-duration model with the paper's gate
//!   times (single-qubit 20 ns, two-qubit 40 ns, measurement 600 ns).
//!
//! Both backends sample without noise, as the paper's Qiskit chip I/O
//! does: the evaluation measures latency, which no draw affects.
//!
//! # Examples
//!
//! ```
//! use qtenon_quantum::{Circuit, sim::Simulator};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).measure_all();
//! let native = qtenon_quantum::transpile::to_native(&c)?;
//! let mut sim = Simulator::auto(2, 42);
//! let shots = sim.run(&native, 100)?;
//! assert_eq!(shots.len(), 100);
//! # Ok::<(), qtenon_quantum::QuantumError>(())
//! ```

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod bits;
pub mod circuit;
pub mod fuse;
pub mod gate;
pub mod hamiltonian;
pub mod kernels;
pub mod qasm;
pub mod sim;
pub mod statevector;
pub mod timing;
pub mod transpile;

pub use bits::BitString;
pub use circuit::{Circuit, Operation};
pub use fuse::{ExecPlan, FuseStats};
pub use gate::{Angle, Gate, ParamId};
pub use hamiltonian::{Hamiltonian, PauliTerm};
pub use kernels::Kernel1Q;
pub use sim::{PreparedCircuit, Simulator};
pub use statevector::StateVector;
pub use timing::{CircuitTiming, GateTimes};

use std::fmt;

/// Errors from circuit construction and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantumError {
    /// A qubit index exceeded the circuit width.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: u32,
        /// The circuit width.
        n_qubits: u32,
    },
    /// A two-qubit gate named the same qubit twice.
    DuplicateQubit {
        /// The repeated qubit index.
        qubit: u32,
    },
    /// A parameterised circuit was executed without binding parameters.
    UnboundParameter {
        /// The unbound parameter.
        param: ParamId,
    },
    /// A parameter vector had the wrong length.
    ParameterCountMismatch {
        /// Parameters expected by the circuit.
        expected: usize,
        /// Parameters supplied.
        got: usize,
    },
    /// A gate outside the native set reached a native-only consumer.
    NonNativeGate {
        /// Name of the offending gate.
        gate: &'static str,
    },
    /// The exact simulator was asked for more qubits than it can hold.
    TooManyQubits {
        /// Requested width.
        n_qubits: u32,
        /// Supported maximum.
        limit: u32,
    },
    /// A bound rotation angle was NaN or infinite.
    NonFiniteAngle {
        /// Name of the offending gate.
        gate: &'static str,
        /// The qubit it acts on.
        qubit: u32,
        /// The angle.
        angle: f64,
    },
    /// An exact state's total probability was NaN, infinite, or not
    /// positive (a non-finite or non-unitary matrix got applied), so no
    /// shot can be sampled from it.
    NonFiniteState {
        /// The summed probability of every basis state.
        total: f64,
    },
}

impl fmt::Display for QuantumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantumError::QubitOutOfRange { qubit, n_qubits } => {
                write!(f, "qubit {qubit} out of range for {n_qubits}-qubit circuit")
            }
            QuantumError::DuplicateQubit { qubit } => {
                write!(f, "two-qubit gate names qubit {qubit} twice")
            }
            QuantumError::UnboundParameter { param } => {
                write!(f, "parameter {param} is unbound")
            }
            QuantumError::ParameterCountMismatch { expected, got } => {
                write!(f, "expected {expected} parameters, got {got}")
            }
            QuantumError::NonNativeGate { gate } => {
                write!(f, "gate {gate} is not in the native set; transpile first")
            }
            QuantumError::TooManyQubits { n_qubits, limit } => {
                write!(
                    f,
                    "{n_qubits} qubits exceed the exact-simulation limit of {limit}"
                )
            }
            QuantumError::NonFiniteAngle { gate, qubit, angle } => {
                write!(f, "{gate} on qubit {qubit} has non-finite angle {angle}")
            }
            QuantumError::NonFiniteState { total } => {
                write!(
                    f,
                    "state has total probability {total}, not a finite positive value"
                )
            }
        }
    }
}

impl std::error::Error for QuantumError {}
