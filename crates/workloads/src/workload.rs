//! The three benchmark VQAs as reusable workload definitions.

use qtenon_sim_engine::rng;

use qtenon_quantum::{transpile, Circuit, Hamiltonian, ParamId, PauliTerm, QuantumError};

use crate::graph::Graph;
use crate::Params;

/// Which benchmark algorithm a workload instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Quantum Approximate Optimization Algorithm on MAX-CUT.
    Qaoa,
    /// Variational Quantum Eigensolver on a molecular-stand-in
    /// Hamiltonian.
    Vqe,
    /// Quantum Neural Network with a hardware-efficient ansatz.
    Qnn,
}

impl WorkloadKind {
    /// All benchmark kinds.
    pub const ALL: [WorkloadKind; 3] = [WorkloadKind::Qaoa, WorkloadKind::Vqe, WorkloadKind::Qnn];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Qaoa => "QAOA",
            WorkloadKind::Vqe => "VQE",
            WorkloadKind::Qnn => "QNN",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A ready-to-run hybrid workload: a native symbolic circuit, its cost
/// Hamiltonian, and a seeded initial parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which algorithm this is.
    pub kind: WorkloadKind,
    /// The transpiled (native-gate) parameterised circuit, measurements
    /// included.
    pub circuit: Circuit,
    /// The cost observable the classical side minimises.
    pub hamiltonian: Hamiltonian,
    /// Seeded starting parameters.
    pub initial_params: Params,
}

impl Workload {
    /// Number of qubits.
    pub fn n_qubits(&self) -> u32 {
        self.circuit.n_qubits()
    }

    /// Number of variational parameters.
    pub fn num_params(&self) -> usize {
        self.circuit.num_params()
    }

    /// QAOA on MAX-CUT over the deterministic 3-regular graph family,
    /// with the standard alternating ansatz and `layers` layers
    /// (Section 7.1 uses five).
    ///
    /// Parameters are ordered `[γ₁…γ_p, β₁…β_p]`; each cost rotation is
    /// `2γ`-scaled and each mixer rotation `2β`-scaled, so one register
    /// slot per layer per role suffices under Qtenon compilation.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError`] if circuit construction fails (it cannot
    /// for valid `n`/`layers`).
    pub fn qaoa(n_qubits: u32, layers: u32, seed: u64) -> Result<Self, QuantumError> {
        let graph = if n_qubits.is_multiple_of(2) && n_qubits >= 4 {
            Graph::circulant_3_regular(n_qubits)
        } else {
            Graph::ring(n_qubits.max(3))
        };
        Self::qaoa_on_graph(&graph, layers, seed)
    }

    /// QAOA on an explicit graph.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError`] if circuit construction fails.
    pub fn qaoa_on_graph(graph: &Graph, layers: u32, seed: u64) -> Result<Self, QuantumError> {
        let n = graph.n_vertices();
        let mut c = Circuit::new(n);
        // Uniform superposition.
        for q in 0..n {
            c.h(q);
        }
        for layer in 0..layers {
            let gamma = ParamId::new(layer);
            let beta = ParamId::new(layers + layer);
            // Cost unitary: exp(-iγ w Z_u Z_v) per edge via CX·RZ(2γw)·CX,
            // scheduled matching-by-matching so disjoint edges parallelise.
            for group in graph.matchings() {
                for (u, v, w) in group {
                    c.cx(u, v);
                    c.rz_scaled_param(v, gamma, 2.0 * w);
                    c.cx(u, v);
                }
            }
            // Mixer: RX(2β) per qubit.
            for q in 0..n {
                c.rx_scaled_param(q, beta, 2.0);
            }
        }
        c.measure_all();
        let circuit = transpile::to_native(&c)?;
        let hamiltonian = Hamiltonian::maxcut(n, graph.edges());
        let initial_params = seeded_params(2 * layers as usize, seed);
        Ok(Workload {
            kind: WorkloadKind::Qaoa,
            circuit,
            hamiltonian,
            initial_params,
        })
    }

    /// VQE with a hardware-efficient ansatz: `layers` rounds of
    /// per-qubit RY(θ) followed by a CZ entangling chain, over the
    /// Ising-encoded molecular Hamiltonian (qubits = spin-orbitals).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError`] if circuit construction fails.
    pub fn vqe(n_qubits: u32, seed: u64) -> Result<Self, QuantumError> {
        Self::vqe_with_layers(n_qubits, 3, seed)
    }

    /// VQE with an explicit ansatz depth.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError`] if circuit construction fails.
    pub(crate) fn vqe_with_layers(
        n_qubits: u32,
        layers: u32,
        seed: u64,
    ) -> Result<Self, QuantumError> {
        let mut c = Circuit::new(n_qubits);
        let mut param = 0u32;
        for layer in 0..=layers {
            for q in 0..n_qubits {
                c.ry_param(q, ParamId::new(param));
                param += 1;
            }
            if layer < layers {
                brick_entangle(&mut c, n_qubits);
            }
        }
        c.measure_all();
        let circuit = transpile::to_native(&c)?;
        let hamiltonian = Hamiltonian::molecular(n_qubits, seed);
        let initial_params = seeded_params(param as usize, seed);
        Ok(Workload {
            kind: WorkloadKind::Vqe,
            circuit,
            hamiltonian,
            initial_params,
        })
    }

    /// QNN through a hardware-efficient ansatz with alternating RY(θ) and
    /// CZ gates in two layers (Section 7.1), preceded by RX data
    /// encoding of a seeded input sample. The readout observable is
    /// Z on qubit 0 plus a weak regularising field on the rest.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError`] if circuit construction fails.
    pub(crate) fn qnn(n_qubits: u32, seed: u64) -> Result<Self, QuantumError> {
        let mut state = seed ^ 0xC0FFEE;
        let mut c = Circuit::new(n_qubits);
        // Angle-encode one input sample.
        for q in 0..n_qubits {
            c.rx(q, rng::unit(&mut state) * std::f64::consts::PI);
        }
        let mut param = 0u32;
        for _layer in 0..2 {
            for q in 0..n_qubits {
                c.ry_param(q, ParamId::new(param));
                param += 1;
            }
            brick_entangle(&mut c, n_qubits);
        }
        // Final readout-adjacent rotation layer (more parameters than
        // QAOA/VQE per Section 7.3's communication analysis).
        for q in 0..n_qubits {
            c.ry_param(q, ParamId::new(param));
            param += 1;
        }
        c.measure_all();
        let circuit = transpile::to_native(&c)?;
        let mut terms = vec![PauliTerm::z(0, 1.0)];
        for q in 1..n_qubits {
            terms.push(PauliTerm::z(q, 0.05));
        }
        let hamiltonian = Hamiltonian::new(n_qubits, terms, 0.0);
        let initial_params = seeded_params(param as usize, seed);
        Ok(Workload {
            kind: WorkloadKind::Qnn,
            circuit,
            hamiltonian,
            initial_params,
        })
    }

    /// Builds a workload from an OpenQASM 2.0 program and an explicit
    /// cost Hamiltonian — the entry path for circuits produced by
    /// external front-ends (the baseline flow's Qiskit → OpenQASM route).
    ///
    /// The parsed circuit is transpiled to the native gate set. Since
    /// OpenQASM 2.0 has no symbolic parameters, the workload has none and
    /// suits fixed-circuit sampling rather than variational optimisation.
    ///
    /// # Errors
    ///
    /// Returns the QASM parse error message wrapped in
    /// [`QuantumError::NonNativeGate`]'s sibling — parsing and transpile
    /// failures are both surfaced via [`qtenon_quantum::qasm::QasmError`]
    /// and [`QuantumError`] respectively.
    pub fn from_qasm(
        source: &str,
        hamiltonian: Hamiltonian,
        kind: WorkloadKind,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let parsed = qtenon_quantum::qasm::parse(source)?;
        if hamiltonian.n_qubits() != parsed.n_qubits() {
            return Err(format!(
                "hamiltonian is {}-qubit but circuit is {}-qubit",
                hamiltonian.n_qubits(),
                parsed.n_qubits()
            )
            .into());
        }
        let circuit = transpile::to_native(&parsed)?;
        Ok(Workload {
            kind,
            circuit,
            hamiltonian,
            initial_params: Vec::new(),
        })
    }

    /// Builds the Section 7.1 benchmark instance of a kind at a width
    /// (QAOA: 5 layers; VQE: 3 layers; QNN: 2 layers).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError`] if circuit construction fails.
    pub fn benchmark(kind: WorkloadKind, n_qubits: u32, seed: u64) -> Result<Self, QuantumError> {
        match kind {
            WorkloadKind::Qaoa => Self::qaoa(n_qubits, 5, seed),
            WorkloadKind::Vqe => Self::vqe(n_qubits, seed),
            WorkloadKind::Qnn => Self::qnn(n_qubits, seed),
        }
    }
}

/// Brick-pattern CZ entangling layer: even pairs then odd pairs, so the
/// whole layer is two gate slots deep regardless of width (hardware CZs on
/// disjoint qubit pairs run in parallel).
fn brick_entangle(c: &mut Circuit, n_qubits: u32) {
    let mut q = 0;
    while q + 1 < n_qubits {
        c.cz(q, q + 1);
        q += 2;
    }
    let mut q = 1;
    while q + 1 < n_qubits {
        c.cz(q, q + 1);
        q += 2;
    }
}

fn seeded_params(n: usize, seed: u64) -> Params {
    let mut state = seed;
    (0..n).map(|_| rng::unit(&mut state) * 0.2 + 0.1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_quantum::transpile::is_native;

    #[test]
    fn qaoa_parameter_count_is_2p() {
        let w = Workload::qaoa(8, 5, 1).unwrap();
        assert_eq!(w.num_params(), 10);
        assert_eq!(w.initial_params.len(), 10);
        assert!(is_native(&w.circuit));
    }

    #[test]
    fn vqe_and_qnn_have_more_params_than_qaoa() {
        // Section 7.3: VQE and QNN require more parameters than QAOA.
        let qaoa = Workload::qaoa(16, 5, 1).unwrap();
        let vqe = Workload::vqe(16, 1).unwrap();
        let qnn = Workload::qnn(16, 1).unwrap();
        assert!(vqe.num_params() > qaoa.num_params());
        assert!(qnn.num_params() > qaoa.num_params());
    }

    #[test]
    fn all_benchmarks_measure_every_qubit() {
        for kind in WorkloadKind::ALL {
            let w = Workload::benchmark(kind, 8, 3).unwrap();
            let measures = w
                .circuit
                .operations()
                .iter()
                .filter(|op| matches!(op.gate, qtenon_quantum::Gate::Measure))
                .count();
            assert_eq!(measures, 8, "{kind}");
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = Workload::qnn(6, 9).unwrap();
        let b = Workload::qnn(6, 9).unwrap();
        assert_eq!(a, b);
        let c = Workload::qnn(6, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn qaoa_cost_matches_graph_cut() {
        // The all-alternating bitstring on a ring cuts every edge.
        use qtenon_quantum::BitString;
        let g = Graph::ring(4);
        let w = Workload::qaoa_on_graph(&g, 1, 0).unwrap();
        let mut bits = BitString::zeros(4);
        bits.set(0, true);
        bits.set(2, true);
        assert_eq!(-w.hamiltonian.value_on(&bits), 4.0);
    }

    #[test]
    fn gate_volume_scales_with_qubits() {
        let small = Workload::benchmark(WorkloadKind::Vqe, 8, 0).unwrap();
        let large = Workload::benchmark(WorkloadKind::Vqe, 32, 0).unwrap();
        assert!(large.circuit.operations().len() > 3 * small.circuit.operations().len());
    }

    #[test]
    fn from_qasm_builds_fixed_workload() {
        use qtenon_quantum::PauliTerm;
        let src = "qreg q[2]; h q[0]; cx q[0], q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];";
        let h = Hamiltonian::new(2, vec![PauliTerm::zz(0, 1, 1.0)], 0.0);
        let w = Workload::from_qasm(src, h, WorkloadKind::Qnn).unwrap();
        assert_eq!(w.n_qubits(), 2);
        assert_eq!(w.num_params(), 0);
        assert!(qtenon_quantum::transpile::is_native(&w.circuit));
    }

    #[test]
    fn from_qasm_rejects_width_mismatch() {
        let src = "qreg q[2]; h q[0];";
        let h = Hamiltonian::molecular(3, 0);
        assert!(Workload::from_qasm(src, h, WorkloadKind::Vqe).is_err());
    }

    #[test]
    fn odd_small_qaoa_falls_back_to_ring() {
        let w = Workload::qaoa(5, 2, 0).unwrap();
        assert_eq!(w.n_qubits(), 5);
        assert_eq!(w.num_params(), 4);
    }
}
