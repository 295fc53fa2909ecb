//! Diagonal (Z-basis) Hamiltonians and cost functions.
//!
//! The three benchmark VQAs all minimise the expectation of a diagonal
//! observable estimated from Z-basis measurements: QAOA's MAX-CUT cost,
//! VQE's (Ising-encoded) molecular Hamiltonian, and the QNN readout loss.
//! A [`Hamiltonian`] is a constant plus a sum of weighted Pauli-Z product
//! terms; expectations can be estimated from sampled shots (what the host
//! computes at runtime) or evaluated exactly against a simulator backend
//! (used in tests).

use qtenon_sim_engine::rng;

use crate::bits::BitString;

/// One weighted product of Pauli-Z operators.
#[derive(Debug, Clone, PartialEq)]
pub struct PauliTerm {
    /// The term's coefficient.
    pub coeff: f64,
    /// Qubits carrying a Z factor (empty means a constant contribution —
    /// prefer [`Hamiltonian`]'s `constant` for that).
    pub qubits: Vec<u32>,
}

impl PauliTerm {
    /// Creates a single-qubit Z term.
    pub fn z(qubit: u32, coeff: f64) -> Self {
        PauliTerm {
            coeff,
            qubits: vec![qubit],
        }
    }

    /// Creates a two-qubit ZZ term.
    pub fn zz(a: u32, b: u32, coeff: f64) -> Self {
        PauliTerm {
            coeff,
            qubits: vec![a, b],
        }
    }

    /// The term's value on one measured bitstring: `coeff × (−1)^parity`.
    pub(crate) fn value_on(&self, bits: &BitString) -> f64 {
        if bits.parity_of(&self.qubits) {
            -self.coeff
        } else {
            self.coeff
        }
    }
}

/// A diagonal Hamiltonian: `constant + Σ terms`.
///
/// # Examples
///
/// ```
/// use qtenon_quantum::{BitString, Hamiltonian, PauliTerm};
///
/// // H = 1 − Z₀Z₁ (twice the MAX-CUT value of a single edge).
/// let h = Hamiltonian::new(2, vec![PauliTerm::zz(0, 1, -1.0)], 1.0);
/// let cut = BitString::from_u64(0b01, 2); // qubits disagree
/// assert_eq!(h.value_on(&cut), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hamiltonian {
    n_qubits: u32,
    terms: Vec<PauliTerm>,
    constant: f64,
}

impl Hamiltonian {
    /// Creates a Hamiltonian from terms and an identity offset.
    ///
    /// # Panics
    ///
    /// Panics if any term references a qubit at or beyond `n_qubits`.
    pub fn new(n_qubits: u32, terms: Vec<PauliTerm>, constant: f64) -> Self {
        for t in &terms {
            for &q in &t.qubits {
                assert!(q < n_qubits, "term qubit {q} out of range");
            }
        }
        Hamiltonian {
            n_qubits,
            terms,
            constant,
        }
    }

    /// The number of qubits the Hamiltonian acts on.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The Pauli terms.
    pub fn terms(&self) -> &[PauliTerm] {
        &self.terms
    }

    /// The identity offset.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The Hamiltonian's value on one measured bitstring.
    pub fn value_on(&self, bits: &BitString) -> f64 {
        self.constant + self.terms.iter().map(|t| t.value_on(bits)).sum::<f64>()
    }

    /// Sample-mean estimate of ⟨H⟩ from measured shots.
    ///
    /// Returns the constant alone for an empty shot list.
    pub fn expectation_from_shots(&self, shots: &[BitString]) -> f64 {
        if shots.is_empty() {
            return self.constant;
        }
        shots.iter().map(|s| self.value_on(s)).sum::<f64>() / shots.len() as f64
    }

    /// The MAX-CUT Hamiltonian for a weighted graph: minimising
    /// `H = Σ w·(Z_u Z_v − 1)/2` maximises the cut value, and `−⟨H⟩` is
    /// the expected cut size.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit at or beyond `n_qubits`.
    pub fn maxcut(n_qubits: u32, edges: &[(u32, u32, f64)]) -> Self {
        let mut terms = Vec::with_capacity(edges.len());
        let mut constant = 0.0;
        for &(u, v, w) in edges {
            terms.push(PauliTerm::zz(u, v, w / 2.0));
            constant -= w / 2.0;
        }
        Hamiltonian::new(n_qubits, terms, constant)
    }

    /// An Ising-encoded "molecular" Hamiltonian: nearest-neighbour and
    /// next-nearest ZZ couplings plus on-site fields, with deterministic
    /// pseudo-random coefficients derived from `seed`.
    ///
    /// This stands in for a Jordan–Wigner-mapped electronic-structure
    /// Hamiltonian restricted to its diagonal part (see DESIGN.md): it has
    /// the same term count scaling (O(n) here vs the paper's spin-orbital
    /// couplings) and exercises identical measurement/post-processing
    /// paths. The seed is salted so the coefficients never share a stream
    /// with a workload's initial parameters drawn from the same seed.
    pub fn molecular(n_qubits: u32, seed: u64) -> Self {
        let mut state = seed ^ 0x4D4F_4C45;
        let mut next = move || rng::unit(&mut state) * 2.0 - 1.0;
        let mut terms = Vec::new();
        for q in 0..n_qubits {
            terms.push(PauliTerm::z(q, next()));
        }
        for q in 0..n_qubits.saturating_sub(1) {
            terms.push(PauliTerm::zz(q, q + 1, next()));
        }
        for q in 0..n_qubits.saturating_sub(2) {
            terms.push(PauliTerm::zz(q, q + 2, 0.5 * next()));
        }
        Hamiltonian::new(n_qubits, terms, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::MeanFieldState;
    use crate::statevector::StateVector;

    impl Hamiltonian {
        /// Exact ⟨H⟩ against a state vector.
        fn exact_expectation(&self, sv: &StateVector) -> f64 {
            self.constant
                + self
                    .terms
                    .iter()
                    .map(|t| t.coeff * sv.expectation_z_product(&t.qubits))
                    .sum::<f64>()
        }

        /// Mean-field ⟨H⟩ against a product state.
        fn mean_field_expectation(&self, mf: &MeanFieldState) -> f64 {
            self.constant
                + self
                    .terms
                    .iter()
                    .map(|t| t.coeff * mf.expectation_z_product(&t.qubits))
                    .sum::<f64>()
        }
    }

    #[test]
    fn term_value_signs() {
        let t = PauliTerm::zz(0, 1, 2.0);
        assert_eq!(t.value_on(&BitString::from_u64(0b00, 2)), 2.0);
        assert_eq!(t.value_on(&BitString::from_u64(0b11, 2)), 2.0);
        assert_eq!(t.value_on(&BitString::from_u64(0b01, 2)), -2.0);
    }

    #[test]
    fn maxcut_counts_cut_edges() {
        // Triangle with unit weights: best cut value is 2.
        let h = Hamiltonian::maxcut(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let cut = BitString::from_u64(0b001, 3); // {0} vs {1,2}: cuts 2 edges
        assert_eq!(-h.value_on(&cut), 2.0);
        let no_cut = BitString::from_u64(0b000, 3);
        assert_eq!(-h.value_on(&no_cut), 0.0);
    }

    #[test]
    fn expectation_from_shots_averages() {
        let h = Hamiltonian::new(1, vec![PauliTerm::z(0, 1.0)], 0.0);
        let shots = vec![
            BitString::from_u64(0, 1),
            BitString::from_u64(0, 1),
            BitString::from_u64(1, 1),
            BitString::from_u64(1, 1),
        ];
        assert_eq!(h.expectation_from_shots(&shots), 0.0);
        assert_eq!(h.expectation_from_shots(&[]), 0.0);
    }

    #[test]
    fn exact_expectation_matches_shot_limit() {
        use crate::circuit::Circuit;
        let mut c = Circuit::new(2);
        c.ry(0, 1.0).cz(0, 1).ry(1, 0.5);
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_circuit(&c).unwrap();
        let h = Hamiltonian::new(
            2,
            vec![PauliTerm::z(0, 0.7), PauliTerm::zz(0, 1, -0.3)],
            0.1,
        );
        let exact = h.exact_expectation(&sv);
        let sim = crate::sim::Simulator::auto(2, 5);
        let prepared = sim.prepare(&c).unwrap();
        let shots: Vec<BitString> = (0..20_000)
            .map(|s| prepared.sample_shot(&mut sim.shot_rng(s)))
            .collect();
        let est = h.expectation_from_shots(&shots);
        assert!((exact - est).abs() < 0.03, "exact={exact} est={est}");
    }

    #[test]
    fn mean_field_expectation_consistent() {
        let mut mf = MeanFieldState::new(2);
        mf.apply_ry(0, 0.9);
        let h = Hamiltonian::new(2, vec![PauliTerm::z(0, 2.0)], 1.0);
        assert!((h.mean_field_expectation(&mf) - (1.0 + 2.0 * 0.9f64.cos())).abs() < 1e-12);
    }

    #[test]
    fn molecular_is_deterministic_and_scales() {
        let a = Hamiltonian::molecular(8, 42);
        let b = Hamiltonian::molecular(8, 42);
        assert_eq!(a, b);
        let c = Hamiltonian::molecular(8, 43);
        assert_ne!(a, c);
        // Term count: n fields + (n-1) + (n-2) couplings.
        assert_eq!(a.terms().len(), 8 + 7 + 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_term_panics() {
        let _ = Hamiltonian::new(2, vec![PauliTerm::z(2, 1.0)], 0.0);
    }
}
