//! Circuit → Qtenon program compilation.

use qtenon_isa::{EncodedAngle, GateType, Instruction, ProgramEntry, QccLayout, QubitId};
use qtenon_quantum::{Angle, Circuit, Gate, ParamId};

use crate::CompileError;

/// One register-file slot: a `(parameter, scale)` binding shared by every
/// gate whose angle is `scale × θ[param]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegSlot {
    /// The variational parameter feeding the slot.
    pub param: ParamId,
    /// The per-gate scale folded into the stored angle.
    pub scale: f64,
}

impl RegSlot {
    /// The encoded angle this slot holds for a parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if the parameter index is out of range.
    pub fn encoded_value(&self, params: &[f64]) -> EncodedAngle {
        EncodedAngle::from_radians(self.scale * params[self.param.index() as usize])
    }
}

/// A circuit compiled into Qtenon's program representation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    layout: QccLayout,
    /// Per-qubit program chunks, in execution order.
    chunks: Vec<Vec<ProgramEntry>>,
    /// Register-slot table; index = regfile index.
    slots: Vec<RegSlot>,
    /// Number of measurement entries (one `.measure` result per measured
    /// qubit per shot).
    measured_qubits: Vec<u32>,
    /// Number of parameters the source circuit takes.
    num_params: usize,
}

impl CompiledProgram {
    /// The layout this program was compiled against.
    pub fn layout(&self) -> QccLayout {
        self.layout
    }

    /// Per-qubit program chunks.
    pub fn chunks(&self) -> &[Vec<ProgramEntry>] {
        &self.chunks
    }

    /// The register-slot table.
    pub fn slots(&self) -> &[RegSlot] {
        &self.slots
    }

    /// Qubits measured by the program, in program order.
    pub(crate) fn measured_qubits(&self) -> &[u32] {
        &self.measured_qubits
    }

    /// Parameters expected by [`CompiledProgram::bind_instructions`].
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Total program entries across all chunks.
    pub fn total_entries(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// Instructions that load the program into the controller: one
    /// `q_set` per non-empty qubit chunk (the chunk layout means no qubit
    /// indices travel with the data — Table 1's code-size win).
    ///
    /// `host_base` is where the program image lives in host memory.
    pub fn load_instructions(&self, host_base: u64) -> Vec<Instruction> {
        let mut out = Vec::new();
        let mut host_addr = host_base;
        for (q, chunk) in self.chunks.iter().enumerate() {
            if chunk.is_empty() {
                continue;
            }
            let qaddr = self
                .layout
                .program_entry(QubitId::new(q as u32), 0)
                .expect("chunk fits layout");
            out.push(Instruction::QSet {
                classical_addr: host_addr,
                qaddr,
                length: chunk.len() as u64,
            });
            // Program entries pack to 65 bits; the host image stores them
            // as 9-byte records.
            host_addr += chunk.len() as u64 * 9;
        }
        out
    }

    /// Instructions that (re)bind every register slot for `params`: one
    /// `q_update` per slot.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::ParameterCountMismatch`] on a vector whose
    /// length differs from [`CompiledProgram::num_params`] (excess
    /// parameters are rejected, not ignored), and
    /// [`CompileError::SlotOutOfRange`] if a slot exceeds the register
    /// file — unreachable for programs this compiler produced, but typed
    /// rather than a panic.
    pub fn bind_instructions(&self, params: &[f64]) -> Result<Vec<Instruction>, CompileError> {
        if params.len() != self.num_params {
            return Err(CompileError::ParameterCountMismatch {
                expected: self.num_params,
                got: params.len(),
            });
        }
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let qaddr = self.layout.regfile_entry(i as u64).map_err(|_| {
                    CompileError::SlotOutOfRange {
                        slot: i,
                        capacity: self.layout.regfile_entries(),
                    }
                })?;
                Ok(Instruction::QUpdate {
                    qaddr,
                    value: slot.encoded_value(params).code(),
                })
            })
            .collect()
    }

    /// One `q_gen` per non-empty chunk, covering exactly the used entries.
    pub fn gen_instructions(&self) -> Vec<Instruction> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(q, c)| Instruction::QGen {
                qaddr: self
                    .layout
                    .program_entry(QubitId::new(q as u32), 0)
                    .expect("chunk fits layout"),
                length: c.len() as u64,
            })
            .collect()
    }

    /// The encoded register value of every slot for `params`, in slot
    /// (regfile) order: each slot's angle encoded once.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::ParameterCountMismatch`] on a vector whose
    /// length differs from [`CompiledProgram::num_params`].
    pub fn slot_codes<'a>(
        &'a self,
        params: &'a [f64],
    ) -> Result<impl ExactSizeIterator<Item = u32> + 'a, CompileError> {
        if params.len() != self.num_params {
            return Err(CompileError::ParameterCountMismatch {
                expected: self.num_params,
                got: params.len(),
            });
        }
        Ok(self
            .slots
            .iter()
            .map(|slot| slot.encoded_value(params).code()))
    }

    /// The pulse work implied by the program for a parameter vector: the
    /// regfile-resolved `(qubit, gate, data)` stream the controller
    /// pipeline consumes, in chunk order. Encodes each slot once
    /// ([`CompiledProgram::slot_codes`]), however many entries share it.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::ParameterCountMismatch`] on a vector whose
    /// length differs from [`CompiledProgram::num_params`], and
    /// [`CompileError::SlotOutOfRange`] if a `reg_flag` entry references
    /// a slot outside the slot table.
    pub fn work_items(
        &self,
        params: &[f64],
    ) -> Result<Vec<(QubitId, GateType, u32)>, CompileError> {
        let codes: Vec<u32> = self.slot_codes(params)?.collect();
        self.work_items_for_codes(&codes)
    }

    /// [`CompiledProgram::work_items`] for slot codes already encoded by
    /// [`CompiledProgram::slot_codes`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::SlotOutOfRange`] if a `reg_flag` entry
    /// references a slot outside the slot table.
    ///
    /// # Panics
    ///
    /// Panics if `codes` does not hold one code per slot.
    pub fn work_items_for_codes(
        &self,
        codes: &[u32],
    ) -> Result<Vec<(QubitId, GateType, u32)>, CompileError> {
        assert_eq!(codes.len(), self.slots.len(), "one code per slot");
        let mut out = Vec::with_capacity(self.total_entries() as usize);
        for (q, chunk) in self.chunks.iter().enumerate() {
            for entry in chunk {
                let data = if entry.reg_flag {
                    *codes
                        .get(entry.data as usize)
                        .ok_or(CompileError::SlotOutOfRange {
                            slot: entry.data as usize,
                            capacity: self.slots.len() as u64,
                        })?
                } else {
                    entry.data
                };
                out.push((QubitId::new(q as u32), entry.gate, data));
            }
        }
        Ok(out)
    }
}

/// Compiler from native circuits to [`CompiledProgram`]s.
///
/// # Examples
///
/// ```
/// use qtenon_compiler::QtenonCompiler;
/// use qtenon_isa::QccLayout;
/// use qtenon_quantum::{Circuit, ParamId};
///
/// let layout = QccLayout::for_qubits(4)?;
/// let mut c = Circuit::new(4);
/// c.ry_param(0, ParamId::new(0)).cz(0, 1).measure_all();
/// let program = QtenonCompiler::new(layout).compile(&c)?;
/// assert_eq!(program.slots().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QtenonCompiler {
    layout: QccLayout,
}

impl QtenonCompiler {
    /// Creates a compiler targeting `layout`.
    pub fn new(layout: QccLayout) -> Self {
        QtenonCompiler { layout }
    }

    /// Compiles a *native* (transpiled) circuit.
    ///
    /// Gates whose angle is symbolic get `reg_flag = 1` and share register
    /// slots by `(parameter, scale)`; literal angles are inlined.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for non-native gates or capacity overflow.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        if circuit.n_qubits() > self.layout.n_qubits() {
            return Err(CompileError::TooManyQubits {
                circuit: circuit.n_qubits(),
                layout: self.layout.n_qubits(),
            });
        }
        let mut chunks: Vec<Vec<ProgramEntry>> = vec![Vec::new(); self.layout.n_qubits() as usize];
        let mut slots: Vec<RegSlot> = Vec::new();
        let mut measured = Vec::new();

        let slot_for = |param: ParamId, scale: f64, slots: &mut Vec<RegSlot>| -> u32 {
            match slots
                .iter()
                .position(|s| s.param == param && s.scale.to_bits() == scale.to_bits())
            {
                Some(i) => i as u32,
                None => {
                    slots.push(RegSlot { param, scale });
                    (slots.len() - 1) as u32
                }
            }
        };

        for op in circuit.operations() {
            let q = op.qubit as usize;
            let entry = match op.gate {
                Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) => {
                    let gate_type = match op.gate {
                        Gate::Rx(_) => GateType::Rx,
                        Gate::Ry(_) => GateType::Ry,
                        _ => GateType::Rz,
                    };
                    match a {
                        Angle::Value(v) => {
                            ProgramEntry::rotation(gate_type, EncodedAngle::from_radians(v))
                        }
                        Angle::Param { param, scale } => {
                            let idx = slot_for(param, scale, &mut slots);
                            ProgramEntry::rotation_from_reg(gate_type, idx).map_err(|_| {
                                CompileError::SlotOutOfRange {
                                    slot: idx as usize,
                                    capacity: self.layout.regfile_entries(),
                                }
                            })?
                        }
                    }
                }
                Gate::Cz => {
                    let partner = op
                        .qubit2
                        .ok_or(CompileError::MissingOperand { gate: "cz" })?;
                    ProgramEntry::cz(partner).map_err(|_| CompileError::TooManyQubits {
                        circuit: circuit.n_qubits(),
                        layout: self.layout.n_qubits(),
                    })?
                }
                Gate::Measure => {
                    measured.push(op.qubit);
                    ProgramEntry::measure()
                }
                other => {
                    return Err(CompileError::NonNativeGate { gate: other.name() });
                }
            };
            chunks[q].push(entry);
            let cap = self.layout.program_entries_per_qubit();
            if chunks[q].len() as u64 > cap {
                return Err(CompileError::ChunkOverflow {
                    qubit: op.qubit,
                    capacity: cap,
                });
            }
        }

        if slots.len() as u64 > self.layout.regfile_entries() {
            return Err(CompileError::RegfileOverflow {
                needed: slots.len(),
                capacity: self.layout.regfile_entries(),
            });
        }

        Ok(CompiledProgram {
            layout: self.layout,
            chunks,
            slots,
            measured_qubits: measured,
            num_params: circuit.num_params(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_quantum::transpile;

    fn layout() -> QccLayout {
        QccLayout::for_qubits(8).unwrap()
    }

    #[test]
    fn entries_land_in_owning_chunks() {
        let mut c = Circuit::new(8);
        c.rx(0, 0.5).rx(3, 0.7).cz(3, 4).measure(3);
        let p = QtenonCompiler::new(layout()).compile(&c).unwrap();
        assert_eq!(p.chunks()[0].len(), 1);
        assert_eq!(p.chunks()[3].len(), 3); // rx + cz + measure
        assert_eq!(p.chunks()[4].len(), 0); // CZ lives on its primary qubit
        assert_eq!(p.total_entries(), 4);
        assert_eq!(p.measured_qubits(), &[3]);
    }

    #[test]
    fn shared_parameters_share_slots() {
        let mut c = Circuit::new(4);
        let gamma = ParamId::new(0);
        // Same (param, scale) on many qubits: one slot.
        for q in 0..4 {
            c.rx_scaled_param(q, gamma, 2.0);
        }
        // Different scale: second slot.
        c.rz_scaled_param(0, gamma, 1.0);
        let p = QtenonCompiler::new(layout()).compile(&c).unwrap();
        assert_eq!(p.slots().len(), 2);
        assert_eq!(p.num_params(), 1);
    }

    #[test]
    fn literal_angles_are_inlined() {
        let mut c = Circuit::new(1);
        c.ry(0, 1.25);
        let p = QtenonCompiler::new(layout()).compile(&c).unwrap();
        let entry = p.chunks()[0][0];
        assert!(!entry.reg_flag);
        assert_eq!(entry.data, EncodedAngle::from_radians(1.25).code());
        assert!(p.slots().is_empty());
    }

    #[test]
    fn non_native_rejected_but_transpiled_accepted() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let compiler = QtenonCompiler::new(layout());
        assert!(matches!(
            compiler.compile(&c),
            Err(CompileError::NonNativeGate { gate: "H" })
        ));
        let native = transpile::to_native(&c).unwrap();
        assert!(compiler.compile(&native).is_ok());
    }

    #[test]
    fn load_instructions_one_qset_per_used_chunk() {
        let mut c = Circuit::new(8);
        c.rx(0, 0.1).rx(5, 0.2).rx(5, 0.3);
        let p = QtenonCompiler::new(layout()).compile(&c).unwrap();
        let loads = p.load_instructions(0x9000_0000);
        assert_eq!(loads.len(), 2);
        match loads[1] {
            Instruction::QSet {
                classical_addr,
                qaddr,
                length,
            } => {
                assert_eq!(length, 2);
                // Host image advances past qubit 0's 1 entry × 9 bytes.
                assert_eq!(classical_addr, 0x9000_0000 + 9);
                assert_eq!(qaddr, layout().program_entry(QubitId::new(5), 0).unwrap());
            }
            ref other => panic!("expected q_set, got {other}"),
        }
    }

    #[test]
    fn bind_instructions_encode_scaled_angles() {
        let mut c = Circuit::new(1);
        c.rx_scaled_param(0, ParamId::new(0), 2.0);
        let p = QtenonCompiler::new(layout()).compile(&c).unwrap();
        let binds = p.bind_instructions(&[0.75]).unwrap();
        assert_eq!(binds.len(), 1);
        match binds[0] {
            Instruction::QUpdate { value, .. } => {
                assert_eq!(value, EncodedAngle::from_radians(1.5).code());
            }
            ref other => panic!("expected q_update, got {other}"),
        }
        assert!(p.bind_instructions(&[]).is_err());
    }

    #[test]
    fn work_items_resolve_regfile() {
        let mut c = Circuit::new(2);
        c.ry_param(0, ParamId::new(0)).cz(0, 1);
        let p = QtenonCompiler::new(layout()).compile(&c).unwrap();
        let items = p.work_items(&[0.9]).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].1, GateType::Ry);
        assert_eq!(items[0].2, EncodedAngle::from_radians(0.9).code());
        assert_eq!(items[1].1, GateType::Cz);
        assert_eq!(items[1].2, 1); // partner qubit index
    }

    #[test]
    fn gen_instructions_cover_used_entries() {
        let mut c = Circuit::new(8);
        c.rx(2, 0.1).rx(2, 0.2);
        let p = QtenonCompiler::new(layout()).compile(&c).unwrap();
        let gens = p.gen_instructions();
        assert_eq!(gens.len(), 1);
        match gens[0] {
            Instruction::QGen { length, .. } => assert_eq!(length, 2),
            ref other => panic!("expected q_gen, got {other}"),
        }
    }

    #[test]
    fn chunk_overflow_detected() {
        let small = QccLayout::with_geometry(1, 2, 2, 16, 16).unwrap();
        let mut c = Circuit::new(1);
        c.rx(0, 0.1).rx(0, 0.2).rx(0, 0.3);
        assert!(matches!(
            QtenonCompiler::new(small).compile(&c),
            Err(CompileError::ChunkOverflow { qubit: 0, .. })
        ));
    }

    #[test]
    fn wide_circuit_rejected() {
        let mut c = Circuit::new(16);
        c.rx(15, 0.1);
        assert!(matches!(
            QtenonCompiler::new(layout()).compile(&c),
            Err(CompileError::TooManyQubits { .. })
        ));
    }
}
