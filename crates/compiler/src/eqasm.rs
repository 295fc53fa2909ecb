//! An eQASM/HiSEP-Q-class *quantum-dedicated* instruction stream.
//!
//! Decoupled systems (Section 2.3) drive their FPGA controllers with a
//! dedicated ISA whose instructions statically encode the qubit index and
//! explicit timing. This module implements such an ISA concretely — a
//! 32-bit format with opcode, timing, qubit, and immediate fields — so
//! Table 1's instruction-count and binary-size comparisons are measured
//! from a real emitted stream rather than estimated.
//!
//! The format (inspired by eQASM's wait/operate split):
//!
//! ```text
//! [31:28] opcode   (WAIT, SQGATE, TQGATE, MEASURE, SETPARAM, END)
//! [27:21] qubit    (7 bits → up to 128 qubits, as HiSEP-Q)
//! [20:14] qubit2 / timing slack
//! [13:0]  immediate (quantized angle / wait cycles)
//! ```

use qtenon_quantum::{Angle, Circuit, Gate};

use crate::CompileError;

/// Opcodes of the dedicated baseline ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EqasmOpcode {
    /// Advance the timing grid.
    Wait,
    /// Single-qubit gate.
    SqGate,
    /// Two-qubit gate.
    TqGate,
    /// Measurement.
    Measure,
    /// Load a pulse parameter (one per parameterised gate — dedicated
    /// ISAs have no register indirection, so parameters are inline).
    SetParam,
    /// End of program.
    End,
}

impl EqasmOpcode {
    fn encode(self) -> u32 {
        match self {
            EqasmOpcode::Wait => 0,
            EqasmOpcode::SqGate => 1,
            EqasmOpcode::TqGate => 2,
            EqasmOpcode::Measure => 3,
            EqasmOpcode::SetParam => 4,
            EqasmOpcode::End => 5,
        }
    }

    fn decode(bits: u32) -> Option<Self> {
        Some(match bits {
            0 => EqasmOpcode::Wait,
            1 => EqasmOpcode::SqGate,
            2 => EqasmOpcode::TqGate,
            3 => EqasmOpcode::Measure,
            4 => EqasmOpcode::SetParam,
            5 => EqasmOpcode::End,
            _ => return None,
        })
    }
}

/// One 32-bit dedicated-ISA instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqasmInstruction {
    /// Operation.
    pub opcode: EqasmOpcode,
    /// Primary qubit (7 bits).
    pub qubit: u8,
    /// Second qubit or timing slack (7 bits).
    pub qubit2: u8,
    /// Immediate: quantized angle or wait cycles (14 bits).
    pub immediate: u16,
}

/// Maximum qubit index representable (HiSEP-Q extends eQASM to 128).
pub const MAX_QUBITS: u32 = 128;

const IMM_MASK: u32 = (1 << 14) - 1;

impl EqasmInstruction {
    /// Packs to the 32-bit word.
    pub fn encode(&self) -> u32 {
        (self.opcode.encode() << 28)
            | ((self.qubit as u32 & 0x7f) << 21)
            | ((self.qubit2 as u32 & 0x7f) << 14)
            | (self.immediate as u32 & IMM_MASK)
    }

    /// Unpacks a 32-bit word.
    ///
    /// Returns `None` for unassigned opcodes.
    pub fn decode(bits: u32) -> Option<Self> {
        Some(EqasmInstruction {
            opcode: EqasmOpcode::decode(bits >> 28)?,
            qubit: ((bits >> 21) & 0x7f) as u8,
            qubit2: ((bits >> 14) & 0x7f) as u8,
            immediate: (bits & IMM_MASK) as u16,
        })
    }
}

/// A fully emitted dedicated-ISA program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqasmProgram {
    instructions: Vec<EqasmInstruction>,
}

impl EqasmProgram {
    /// Emits the dedicated-ISA stream for a *bound, native* circuit.
    ///
    /// Every parameterised gate becomes `SETPARAM` + gate (the angle is
    /// inline — this is why any parameter change forces a full
    /// recompile), every layer boundary a `WAIT`, and the stream ends
    /// with `END`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyQubits`] beyond 128 qubits (the
    /// dedicated ISA's hard limit — one of Table 1's scalability
    /// contrasts) or [`CompileError::NonNativeGate`] for unbound or
    /// non-native gates.
    pub fn emit(circuit: &Circuit) -> Result<Self, CompileError> {
        if circuit.n_qubits() > MAX_QUBITS {
            return Err(CompileError::TooManyQubits {
                circuit: circuit.n_qubits(),
                layout: MAX_QUBITS,
            });
        }
        let mut out = Vec::new();
        let quantize = |theta: f64| -> u16 {
            let frac = (theta / std::f64::consts::TAU).rem_euclid(1.0);
            ((frac * 16_384.0).round() as u32 % 16_384) as u16
        };
        let mut busy_until = vec![0u16; circuit.n_qubits() as usize];
        for op in circuit.operations() {
            // Dedicated ISAs schedule on an explicit timing grid: emit a
            // WAIT when the operand is still busy.
            let start = op
                .qubits()
                .map(|q| busy_until[q as usize])
                .max()
                .unwrap_or(0);
            if start > 0 && op.qubits().any(|q| busy_until[q as usize] == start) {
                out.push(EqasmInstruction {
                    opcode: EqasmOpcode::Wait,
                    qubit: op.qubit as u8,
                    qubit2: 0,
                    immediate: start,
                });
            }
            match op.gate {
                Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) => {
                    let theta = match a {
                        Angle::Value(v) => v,
                        Angle::Param { .. } => {
                            return Err(CompileError::NonNativeGate {
                                gate: "unbound parameter",
                            })
                        }
                    };
                    let axis = match op.gate {
                        Gate::Rx(_) => 0u8,
                        Gate::Ry(_) => 1,
                        _ => 2,
                    };
                    out.push(EqasmInstruction {
                        opcode: EqasmOpcode::SetParam,
                        qubit: op.qubit as u8,
                        qubit2: axis,
                        immediate: quantize(theta),
                    });
                    out.push(EqasmInstruction {
                        opcode: EqasmOpcode::SqGate,
                        qubit: op.qubit as u8,
                        qubit2: axis,
                        immediate: 0,
                    });
                    busy_until[op.qubit as usize] = start.saturating_add(1);
                }
                Gate::Cz => {
                    let partner = op
                        .qubit2
                        .ok_or(CompileError::MissingOperand { gate: "cz" })?;
                    out.push(EqasmInstruction {
                        opcode: EqasmOpcode::TqGate,
                        qubit: op.qubit as u8,
                        qubit2: partner as u8,
                        immediate: 0,
                    });
                    let t = start.saturating_add(2);
                    busy_until[op.qubit as usize] = t;
                    busy_until[partner as usize] = t;
                }
                Gate::Measure => {
                    out.push(EqasmInstruction {
                        opcode: EqasmOpcode::Measure,
                        qubit: op.qubit as u8,
                        qubit2: 0,
                        immediate: 0,
                    });
                    busy_until[op.qubit as usize] = start.saturating_add(30);
                }
                other => {
                    return Err(CompileError::NonNativeGate { gate: other.name() });
                }
            }
        }
        out.push(EqasmInstruction {
            opcode: EqasmOpcode::End,
            qubit: 0,
            qubit2: 0,
            immediate: 0,
        });
        Ok(EqasmProgram { instructions: out })
    }

    /// The emitted instructions.
    pub fn instructions(&self) -> &[EqasmInstruction] {
        &self.instructions
    }

    /// Instruction count (Table 1's comparison quantity).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` for an empty stream (never produced by `emit`).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_quantum::transpile;

    fn bound_qaoa(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1);
            c.rz(q, 0.3);
        }
        c.measure_all();
        transpile::to_native(&c).unwrap()
    }

    #[test]
    fn instruction_round_trip() {
        let instr = EqasmInstruction {
            opcode: EqasmOpcode::SqGate,
            qubit: 127,
            qubit2: 2,
            immediate: 16_383,
        };
        assert_eq!(EqasmInstruction::decode(instr.encode()), Some(instr));
        assert_eq!(EqasmInstruction::decode(0xF000_0000), None);
    }

    #[test]
    fn emits_setparam_per_rotation() {
        let mut c = Circuit::new(1);
        c.rx(0, 0.5).ry(0, 1.5);
        let prog = EqasmProgram::emit(&c).unwrap();
        let setparams = prog
            .instructions()
            .iter()
            .filter(|i| i.opcode == EqasmOpcode::SetParam)
            .count();
        assert_eq!(setparams, 2);
        // Ends with END.
        assert_eq!(prog.instructions().last().unwrap().opcode, EqasmOpcode::End);
    }

    #[test]
    fn stream_is_much_larger_than_gate_count() {
        // The Table 1 effect: dedicated encoding inflates the stream.
        let native = bound_qaoa(16);
        let prog = EqasmProgram::emit(&native).unwrap();
        assert!(prog.len() > native.operations().len());
    }

    #[test]
    fn qubit_limit_is_128() {
        let mut c = Circuit::new(129);
        c.rx(128, 0.1);
        assert!(matches!(
            EqasmProgram::emit(&c),
            Err(CompileError::TooManyQubits { layout: 128, .. })
        ));
        let mut ok = Circuit::new(128);
        ok.rx(127, 0.1);
        assert!(EqasmProgram::emit(&ok).is_ok());
    }

    #[test]
    fn unbound_parameters_rejected() {
        use qtenon_quantum::ParamId;
        let mut c = Circuit::new(1);
        c.ry_param(0, ParamId::new(0));
        assert!(EqasmProgram::emit(&c).is_err());
    }

    #[test]
    fn rebinding_changes_the_binary() {
        // The dedicated ISA's weakness: a one-parameter change produces a
        // different binary → full re-upload.
        let mut c = Circuit::new(2);
        use qtenon_quantum::ParamId;
        c.ry_param(0, ParamId::new(0)).cz(0, 1).measure_all();
        let a = EqasmProgram::emit(&c.bind(&[0.4]).unwrap()).unwrap();
        let b = EqasmProgram::emit(&c.bind(&[0.9]).unwrap()).unwrap();
        assert_eq!(a.len(), b.len());
        let words = |p: &EqasmProgram| -> Vec<u32> {
            p.instructions().iter().map(|i| i.encode()).collect()
        };
        assert_ne!(words(&a), words(&b));
    }
}
