//! The parameterised quantum circuit IR.

use std::fmt;

use crate::gate::{Angle, Gate, ParamId};
use crate::QuantumError;

/// One gate application within a circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Operation {
    /// The gate applied.
    pub gate: Gate,
    /// Target qubit (single-qubit gates) or first operand (two-qubit).
    pub qubit: u32,
    /// Second operand for two-qubit gates.
    pub qubit2: Option<u32>,
}

impl Operation {
    /// The qubits this operation touches.
    pub fn qubits(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.qubit).chain(self.qubit2)
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.qubit2 {
            Some(q2) => write!(f, "{} q{}, q{}", self.gate, self.qubit, q2),
            None => write!(f, "{} q{}", self.gate, self.qubit),
        }
    }
}

/// A quantum circuit over `n_qubits` qubits, possibly containing symbolic
/// parameters.
///
/// Builder methods return `&mut Self` so circuits can be written fluently;
/// they panic on out-of-range qubits (use [`Circuit::push`] for the
/// fallible form).
///
/// # Examples
///
/// ```
/// use qtenon_quantum::{Circuit, ParamId};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1).measure_all();
/// assert_eq!(bell.operations().len(), 4);
///
/// let mut var = Circuit::new(1);
/// var.ry_param(0, ParamId::new(0));
/// assert_eq!(var.num_params(), 1);
/// let bound = var.bind(&[1.57]).unwrap();
/// assert_eq!(bound.num_params(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: u32,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: u32) -> Self {
        Circuit {
            n_qubits,
            ops: Vec::new(),
        }
    }

    /// The circuit width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The operations in program order.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Appends an operation, validating its operands.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] or
    /// [`QuantumError::DuplicateQubit`] for bad operands.
    pub fn push(&mut self, op: Operation) -> Result<&mut Self, QuantumError> {
        for q in op.qubits() {
            if q >= self.n_qubits {
                return Err(QuantumError::QubitOutOfRange {
                    qubit: q,
                    n_qubits: self.n_qubits,
                });
            }
        }
        if op.qubit2 == Some(op.qubit) {
            return Err(QuantumError::DuplicateQubit { qubit: op.qubit });
        }
        debug_assert_eq!(
            op.gate.arity(),
            if op.qubit2.is_some() { 2 } else { 1 },
            "operand count must match gate arity"
        );
        self.ops.push(op);
        Ok(self)
    }

    fn push_expect(&mut self, gate: Gate, qubit: u32, qubit2: Option<u32>) -> &mut Self {
        self.push(Operation {
            gate,
            qubit,
            qubit2,
        })
        .expect("invalid circuit operation");
        self
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.push_expect(Gate::H, q, None)
    }

    /// Appends a Pauli-X.
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.push_expect(Gate::X, q, None)
    }

    /// Appends an X rotation by a literal angle.
    pub fn rx(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push_expect(Gate::Rx(Angle::Value(theta)), q, None)
    }

    /// Appends a Y rotation by a literal angle.
    pub fn ry(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push_expect(Gate::Ry(Angle::Value(theta)), q, None)
    }

    /// Appends a Z rotation by a literal angle.
    pub fn rz(&mut self, q: u32, theta: f64) -> &mut Self {
        self.push_expect(Gate::Rz(Angle::Value(theta)), q, None)
    }

    /// Appends an X rotation by a parameter.
    pub fn rx_param(&mut self, q: u32, p: ParamId) -> &mut Self {
        self.push_expect(Gate::Rx(Angle::param(p)), q, None)
    }

    /// Appends a Y rotation by a parameter.
    pub fn ry_param(&mut self, q: u32, p: ParamId) -> &mut Self {
        self.push_expect(Gate::Ry(Angle::param(p)), q, None)
    }

    /// Appends a Z rotation by `scale × θ[p]`.
    pub fn rz_scaled_param(&mut self, q: u32, p: ParamId, scale: f64) -> &mut Self {
        self.push_expect(Gate::Rz(Angle::scaled_param(p, scale)), q, None)
    }

    /// Appends an X rotation by `scale × θ[p]`.
    pub fn rx_scaled_param(&mut self, q: u32, p: ParamId, scale: f64) -> &mut Self {
        self.push_expect(Gate::Rx(Angle::scaled_param(p, scale)), q, None)
    }

    /// Appends a CNOT.
    pub fn cx(&mut self, control: u32, target: u32) -> &mut Self {
        self.push_expect(Gate::Cx, control, Some(target))
    }

    /// Appends a controlled-Z.
    pub fn cz(&mut self, a: u32, b: u32) -> &mut Self {
        self.push_expect(Gate::Cz, a, Some(b))
    }

    /// Appends a measurement of one qubit.
    pub fn measure(&mut self, q: u32) -> &mut Self {
        self.push_expect(Gate::Measure, q, None)
    }

    /// Appends measurements of every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.n_qubits {
            self.measure(q);
        }
        self
    }

    /// The number of distinct parameters referenced (parameters are
    /// expected to be numbered densely from zero; the count is
    /// `max_id + 1`).
    pub fn num_params(&self) -> usize {
        self.ops
            .iter()
            .filter_map(|op| op.gate.angle().and_then(|a| a.param_id()))
            .map(|p| p.index() as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Binds all symbolic parameters, producing a fully concrete circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::ParameterCountMismatch`] if `params` is
    /// shorter than [`Circuit::num_params`].
    pub fn bind(&self, params: &[f64]) -> Result<Circuit, QuantumError> {
        let needed = self.num_params();
        if params.len() < needed {
            return Err(QuantumError::ParameterCountMismatch {
                expected: needed,
                got: params.len(),
            });
        }
        let mut out = Circuit {
            n_qubits: self.n_qubits,
            ops: Vec::with_capacity(self.ops.len()),
        };
        for op in &self.ops {
            let gate = match op.gate {
                Gate::Rx(a) => Gate::Rx(Angle::Value(a.resolve(params).expect("checked above"))),
                Gate::Ry(a) => Gate::Ry(Angle::Value(a.resolve(params).expect("checked above"))),
                Gate::Rz(a) => Gate::Rz(Angle::Value(a.resolve(params).expect("checked above"))),
                g => g,
            };
            out.ops.push(Operation { gate, ..*op });
        }
        Ok(out)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} ops):",
            self.n_qubits,
            self.ops.len()
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_census() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cz(1, 2).rx(2, 0.5).measure_all();
        let gates: Vec<&str> = c.operations().iter().map(|op| op.gate.name()).collect();
        assert_eq!(
            gates,
            ["H", "CX", "CZ", "RX", "MEASURE", "MEASURE", "MEASURE"]
        );
    }

    #[test]
    fn push_validates_operands() {
        let mut c = Circuit::new(2);
        assert!(matches!(
            c.push(Operation {
                gate: Gate::H,
                qubit: 2,
                qubit2: None
            }),
            Err(QuantumError::QubitOutOfRange { qubit: 2, .. })
        ));
        assert!(matches!(
            c.push(Operation {
                gate: Gate::Cz,
                qubit: 1,
                qubit2: Some(1)
            }),
            Err(QuantumError::DuplicateQubit { qubit: 1 })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid circuit operation")]
    fn fluent_builder_panics_on_bad_qubit() {
        let mut c = Circuit::new(1);
        c.h(5);
    }

    #[test]
    fn num_params_is_dense_max() {
        let mut c = Circuit::new(2);
        c.ry_param(0, ParamId::new(0)).ry_param(1, ParamId::new(2));
        assert_eq!(c.num_params(), 3);
    }

    #[test]
    fn bind_substitutes_and_scales() {
        let mut c = Circuit::new(1);
        c.rz_scaled_param(0, ParamId::new(0), 2.0);
        let b = c.bind(&[0.25]).unwrap();
        match b.operations()[0].gate {
            Gate::Rz(Angle::Value(v)) => assert!((v - 0.5).abs() < 1e-12),
            ref g => panic!("unexpected gate {g:?}"),
        }
        assert_eq!(b.num_params(), 0);
    }

    #[test]
    fn bind_rejects_short_vector() {
        let mut c = Circuit::new(1);
        c.ry_param(0, ParamId::new(4));
        assert!(matches!(
            c.bind(&[0.0; 3]),
            Err(QuantumError::ParameterCountMismatch {
                expected: 5,
                got: 3
            })
        ));
    }

    #[test]
    fn parameterised_ops_enumeration() {
        let mut c = Circuit::new(2);
        c.h(0)
            .ry_param(0, ParamId::new(0))
            .cz(0, 1)
            .rx_param(1, ParamId::new(1));
        let params: Vec<_> = c
            .operations()
            .iter()
            .map(|op| op.gate.angle().and_then(|a| a.param_id()))
            .collect();
        assert_eq!(
            params,
            [None, Some(ParamId::new(0)), None, Some(ParamId::new(1))]
        );
        assert_eq!(c.num_params(), 2);
    }

    #[test]
    fn display_lists_ops() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1);
        let s = c.to_string();
        assert!(s.contains("H q0"));
        assert!(s.contains("CZ q0, q1"));
    }
}
