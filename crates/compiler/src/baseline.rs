//! The decoupled baseline's JIT compiler model.
//!
//! eQASM/HiSEP-Q-class systems encode the qubit index statically into
//! every instruction and have no channel for in-place parameter updates,
//! so the host recompiles the whole circuit from scratch *every
//! iteration* (Section 6.1). For Table 1's 64-qubit five-layer QAOA this
//! yields instruction streams above 10⁴ entries and 1–100 ms of
//! recompilation per iteration.
//!
//! The model counts instructions from the circuit structure and charges a
//! per-instruction software cost covering the Qiskit-class transpile +
//! assemble stack the paper's baseline runs on an i9-14900K.

use qtenon_quantum::{Circuit, Gate};
use qtenon_sim_engine::SimDuration;

/// Cost parameters of the baseline JIT compiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineCompilerConfig {
    /// Extra encoding instructions per gate beyond the gate itself
    /// (timing setup, qubit addressing): eQASM-style streams carry
    /// roughly one auxiliary instruction per two gates.
    pub aux_instructions_per_gate: f64,
    /// Host-side compile cost per emitted instruction, including the
    /// interpreter/transpiler software stack.
    pub compile_cost_per_instruction: SimDuration,
    /// Fixed per-compilation overhead (graph construction, scheduling
    /// passes).
    pub fixed_overhead: SimDuration,
}

impl Default for BaselineCompilerConfig {
    fn default() -> Self {
        BaselineCompilerConfig {
            aux_instructions_per_gate: 0.5,
            // ~0.5 µs/instruction lands a 64-qubit QAOA-5 recompile in the
            // paper's 1–100 ms band.
            compile_cost_per_instruction: SimDuration::from_ns(500),
            fixed_overhead: SimDuration::from_us(300),
        }
    }
}

/// One compiled baseline binary: a flat, statically-addressed instruction
/// stream that must be re-emitted whenever any parameter changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineProgram {
    /// Instructions in the emitted stream.
    pub instruction_count: u64,
    /// Bytes shipped to the FPGA controller (4 B per instruction).
    pub binary_bytes: u64,
    /// Host time spent compiling.
    pub compile_time: SimDuration,
    /// Pulses the FPGA must generate (every gate, every time — no SLT).
    pub pulses_required: u64,
}

/// The baseline JIT compiler.
///
/// # Examples
///
/// ```
/// use qtenon_compiler::BaselineCompiler;
/// use qtenon_quantum::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.rx(0, 0.4).cz(0, 1).measure_all();
/// let jit = BaselineCompiler::default();
/// let prog = jit.compile(&c);
/// assert!(prog.instruction_count >= 4);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineCompiler {
    config: BaselineCompilerConfig,
}

impl BaselineCompiler {
    /// Creates a compiler with explicit costs.
    pub fn new(config: BaselineCompilerConfig) -> Self {
        BaselineCompiler { config }
    }

    /// Compiles (from scratch) one bound circuit.
    pub fn compile(&self, circuit: &Circuit) -> BaselineProgram {
        let gates = circuit.operations().len() as u64;
        let pulses = circuit
            .operations()
            .iter()
            .filter(|op| !matches!(op.gate, Gate::Measure))
            .count() as u64
            + circuit
                .operations()
                .iter()
                .filter(|op| matches!(op.gate, Gate::Measure))
                .count() as u64;
        let aux = (gates as f64 * self.config.aux_instructions_per_gate).round() as u64;
        let instruction_count = gates + aux;
        BaselineProgram {
            instruction_count,
            binary_bytes: instruction_count * 4,
            compile_time: self.config.fixed_overhead
                + self.config.compile_cost_per_instruction * instruction_count,
            pulses_required: pulses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qaoa_like(n: u32, layers: u32) -> Circuit {
        // Structure-only stand-in: per layer, a CZ+RZ per ring edge and an
        // RX per qubit, plus initial/final single-qubit work.
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.ry(q, 0.5);
        }
        for _ in 0..layers {
            for q in 0..n {
                let partner = (q + 1) % n;
                if partner != q {
                    c.cz(q, partner);
                    c.rz(q, 0.3);
                }
            }
            for q in 0..n {
                c.rx(q, 0.7);
            }
        }
        c.measure_all();
        c
    }

    #[test]
    fn instruction_count_scales_with_gates() {
        let jit = BaselineCompiler::default();
        let small = jit.compile(&qaoa_like(8, 1));
        let big = jit.compile(&qaoa_like(8, 5));
        assert!(big.instruction_count > 3 * small.instruction_count);
    }

    #[test]
    fn table1_band_for_64q_qaoa5() {
        // Table 1: ~3×10⁴ instructions for 64-qubit QAOA-5 over ten
        // GD iterations; per-compile that is ~1.5–3×10³.
        let jit = BaselineCompiler::default();
        let prog = jit.compile(&qaoa_like(64, 5));
        assert!(
            prog.instruction_count > 1_000 && prog.instruction_count < 5_000,
            "count={}",
            prog.instruction_count
        );
        // Recompile cost within the paper's 1–100 ms band.
        assert!(prog.compile_time >= SimDuration::from_ms(1));
        assert!(prog.compile_time <= SimDuration::from_ms(100));
    }

    #[test]
    fn every_gate_needs_a_pulse() {
        let jit = BaselineCompiler::default();
        let mut c = Circuit::new(2);
        c.rx(0, 0.1).cz(0, 1).measure_all();
        let prog = jit.compile(&c);
        assert_eq!(prog.pulses_required, 4);
    }

    #[test]
    fn binary_bytes_track_instructions() {
        let jit = BaselineCompiler::default();
        let prog = jit.compile(&qaoa_like(16, 2));
        assert_eq!(prog.binary_bytes, prog.instruction_count * 4);
    }

    #[test]
    fn empty_circuit_costs_only_fixed_overhead() {
        let jit = BaselineCompiler::default();
        let prog = jit.compile(&Circuit::new(4));
        assert_eq!(prog.instruction_count, 0);
        assert_eq!(prog.compile_time, SimDuration::from_us(300));
    }
}
