//! Exact state-vector simulation of native-gate circuits.
//!
//! A [`StateVector`] keeps its 2ⁿ amplitudes split-complex in one
//! allocation: all real parts, then all imaginary parts, each half
//! starting on a 64-byte boundary from 3 qubits up, so that no vector
//! load of a kernel sweep (`crate::kernels`) splits a cache line. Gates
//! run through the kernel layer; the naive loops they replaced stay as
//! hidden references for the tests. Once evolved, a state can be frozen
//! into the exact sampler's tables in its own buffer (`crate::sim`).

use std::fmt;

use crate::circuit::Circuit;
use crate::fuse::{self, ExecPlan, PlanOp};
use crate::kernels::{self, Kernel1Q, KernelInstance};
use crate::QuantumError;

/// A complex number with `f64` parts.
///
/// # Examples
///
/// ```
/// use qtenon_quantum::statevector::C64;
///
/// let i = C64::new(0.0, 1.0);
/// assert_eq!(i * i, C64::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// One.
    pub(crate) const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    /// Creates a complex number.
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Squared magnitude.
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.4}{:+.4}i", self.re, self.im)
    }
}

/// Widest circuit the exact simulator accepts (2²² amplitudes ≈ 67 MB).
pub const EXACT_QUBIT_LIMIT: u32 = 22;

/// `f64`s per 64-byte cache line.
const LINE: usize = 64 / std::mem::size_of::<f64>();

/// An exact state vector over up to [`EXACT_QUBIT_LIMIT`] qubits, stored
/// split-complex: the real parts of all 2ⁿ amplitudes, then their
/// imaginary parts, in one allocation. From 3 qubits up both halves start
/// on a 64-byte boundary, so no vector load of a sweep splits a cache
/// line.
///
/// # Examples
///
/// ```
/// use qtenon_quantum::{Circuit, StateVector};
/// use std::f64::consts::FRAC_PI_2;
///
/// let mut sv = StateVector::new(1)?;
/// sv.apply_ry(0, FRAC_PI_2);
/// assert!((sv.probability_of_one(0) - 0.5).abs() < 1e-12);
/// # Ok::<(), qtenon_quantum::QuantumError>(())
/// ```
#[derive(Debug)]
pub struct StateVector {
    n_qubits: u32,
    /// `2·2ⁿ` values from `start` on: real parts in the first half,
    /// imaginary in the second. The buffer holds one cache line more, and
    /// `start` is the first 64-byte boundary in it.
    buf: Vec<f64>,
    start: usize,
}

impl Clone for StateVector {
    /// A copy in a buffer of its own, aligned like the original.
    fn clone(&self) -> Self {
        let mut copy = StateVector::zeroed(self.n_qubits);
        copy.values_mut().copy_from_slice(self.values());
        copy
    }
}

impl StateVector {
    /// Creates the all-zeros computational basis state |0…0⟩.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] beyond
    /// [`EXACT_QUBIT_LIMIT`].
    pub fn new(n_qubits: u32) -> Result<Self, QuantumError> {
        if n_qubits > EXACT_QUBIT_LIMIT {
            return Err(QuantumError::TooManyQubits {
                n_qubits,
                limit: EXACT_QUBIT_LIMIT,
            });
        }
        let mut sv = StateVector::zeroed(n_qubits);
        sv.values_mut()[0] = 1.0;
        Ok(sv)
    }

    /// All-zero storage for `n_qubits`: one line more than the `2·2ⁿ`
    /// values, started at the first 64-byte boundary. `align_offset` may
    /// report no offset (`usize::MAX`); the state then starts a line in,
    /// unaligned but still in bounds.
    fn zeroed(n_qubits: u32) -> Self {
        let buf = vec![0.0; (2usize << n_qubits) + LINE];
        let start = buf.as_ptr().align_offset(64).min(LINE);
        StateVector {
            n_qubits,
            buf,
            start,
        }
    }

    /// The `2·2ⁿ` values: real parts, then imaginary parts.
    fn values(&self) -> &[f64] {
        &self.buf[self.start..self.start + (2usize << self.n_qubits)]
    }

    /// The `2·2ⁿ` values, mutably.
    fn values_mut(&mut self) -> &mut [f64] {
        let len = 2usize << self.n_qubits;
        &mut self.buf[self.start..self.start + len]
    }

    /// The real and imaginary halves of the storage.
    fn parts(&self) -> (&[f64], &[f64]) {
        self.values().split_at(1 << self.n_qubits)
    }

    /// The real and imaginary halves of the storage, mutably.
    fn parts_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        let half = 1 << self.n_qubits;
        self.values_mut().split_at_mut(half)
    }

    /// Every amplitude, in basis-state order.
    fn amplitudes(&self) -> impl Iterator<Item = C64> + '_ {
        let (re, im) = self.parts();
        re.iter().zip(im).map(|(&re, &im)| C64::new(re, im))
    }

    /// The number of qubits.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The amplitude of a computational basis state.
    ///
    /// # Panics
    ///
    /// Panics if `basis` is out of range.
    pub fn amplitude(&self, basis: usize) -> C64 {
        let (re, im) = self.parts();
        C64::new(re[basis], im[basis])
    }

    /// Applies an arbitrary single-qubit unitary `[[a, b], [c, d]]` as one
    /// kernel sweep (`kernels::apply_kernel`): diagonal (RZ), real (RY)
    /// and cross (RX) matrices ([`Kernel1Q::from_matrix`]) take their
    /// structured sweeps, everything else the general 2×2 sweep.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_matrix2(&mut self, q: u32, m: [[C64; 2]; 2]) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let (re, im) = self.parts_mut();
        kernels::apply_kernel(re, im, q, &Kernel1Q::from_matrix(m));
    }

    /// The naive reference implementation `apply_matrix2` historically
    /// was: a scanning pair loop with the full 2×2 multiply for every
    /// gate. Kept (hidden) as the ground truth the kernel-equivalence
    /// differential harness compares against; not part of the public API.
    #[doc(hidden)]
    pub fn apply_matrix2_reference(&mut self, q: u32, m: [[C64; 2]; 2]) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let stride = 1usize << q;
        let (re, im) = self.parts_mut();
        let n = re.len();
        let mut base = 0;
        while base < n {
            for i in base..base + stride {
                let a0 = C64::new(re[i], im[i]);
                let a1 = C64::new(re[i + stride], im[i + stride]);
                let (b0, b1) = (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1);
                (re[i], im[i]) = (b0.re, b0.im);
                (re[i + stride], im[i + stride]) = (b1.re, b1.im);
            }
            base += stride << 1;
        }
    }

    /// The naive reference for a two-qubit block sweep: a scanning loop
    /// that applies `m` to the amplitudes `i`, `i | 1<<lo`, `i | 1<<hi` and
    /// `i | 1<<lo | 1<<hi` of every `i` with both bits clear, each output
    /// `m[r][0]·a0 + m[r][1]·a1 + m[r][2]·a2 + m[r][3]·a3` with the `C64`
    /// operators. `lo` names basis bit 0 of `m` and `hi` bit 1, in either
    /// order. Kept (hidden) as the ground truth the kernel tests compare
    /// every [`PlanOp::Block2`] sweep against; not part of the public API.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range or they coincide.
    #[doc(hidden)]
    pub fn apply_matrix4_reference(&mut self, lo: u32, hi: u32, m: kernels::Mat4) {
        assert!(
            lo < self.n_qubits && hi < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(lo, hi, "block qubits must differ");
        let (slo, shi) = (1usize << lo, 1usize << hi);
        let (re, im) = self.parts_mut();
        for i in (0..re.len()).filter(|i| i & (slo | shi) == 0) {
            let at = [i, i | slo, i | shi, i | slo | shi];
            let a = at.map(|j| C64::new(re[j], im[j]));
            for (row, j) in m.iter().zip(at) {
                let b = row[0] * a[0] + row[1] * a[1] + row[2] * a[2] + row[3] * a[3];
                (re[j], im[j]) = (b.re, b.im);
            }
        }
    }

    /// Applies RX(θ) = exp(-iθX/2).
    pub fn apply_rx(&mut self, q: u32, theta: f64) {
        self.apply_matrix2(q, kernels::mat_rx(theta));
    }

    /// Applies RY(θ) = exp(-iθY/2).
    pub fn apply_ry(&mut self, q: u32, theta: f64) {
        self.apply_matrix2(q, kernels::mat_ry(theta));
    }

    /// Applies RZ(θ) = exp(-iθZ/2).
    pub fn apply_rz(&mut self, q: u32, theta: f64) {
        self.apply_matrix2(q, kernels::mat_rz(theta));
    }

    /// Applies a controlled-Z between two qubits without scanning and
    /// testing all n amplitudes. When the lower operand is qubit 0 or 1
    /// and the higher one is at least 2, the kernel negates the same
    /// lanes of every aligned group of 4 among the n/2 amplitudes with the
    /// higher bit set, branch-free; every other pair visits only the n/4
    /// affected amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range or they coincide.
    pub fn apply_cz(&mut self, a: u32, b: u32) {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        assert_ne!(a, b, "CZ operands must differ");
        let (re, im) = self.parts_mut();
        kernels::apply_cz(re, im, a, b);
    }

    /// The scanning reference implementation `apply_cz` historically was.
    /// Kept (hidden) for the differential harness and kernel benches.
    #[doc(hidden)]
    pub fn apply_cz_reference(&mut self, a: u32, b: u32) {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        assert_ne!(a, b, "CZ operands must differ");
        let ma = 1usize << a;
        let mb = 1usize << b;
        let (re, im) = self.parts_mut();
        for (i, (re, im)) in re.iter_mut().zip(im).enumerate() {
            if i & ma != 0 && i & mb != 0 {
                (*re, *im) = (-*re, -*im);
            }
        }
    }

    /// Executes a lowered plan (see [`fuse::plan`]): one sweep per
    /// single-qubit kernel and per two-qubit block, CZs via the masked or
    /// enumerating kernel, all through the widest kernel instance the CPU
    /// supports (DESIGN.md §13).
    ///
    /// # Panics
    ///
    /// Panics if the plan references qubits outside this state vector.
    pub fn apply_plan(&mut self, plan: &ExecPlan) {
        self.check_plan(plan);
        let (re, im) = self.parts_mut();
        kernels::apply_ops(re, im, &plan.ops);
    }

    /// [`StateVector::apply_plan`] through a named kernel instance, so
    /// tests can pin each instance's bits. Not part of the public API.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run `instance`
    /// ([`KernelInstance::is_available`]) or the plan references qubits
    /// outside this state vector.
    #[doc(hidden)]
    pub fn apply_plan_on(&mut self, plan: &ExecPlan, instance: KernelInstance) {
        self.check_plan(plan);
        let (re, im) = self.parts_mut();
        kernels::apply_ops_on(instance, re, im, &plan.ops[..]);
    }

    /// Panics unless every qubit the plan names is in range, every CZ
    /// names two different qubits and every block two ascending ones.
    fn check_plan(&self, plan: &ExecPlan) {
        for op in &plan.ops {
            match *op {
                PlanOp::Run { qubit, .. } => {
                    assert!(qubit < self.n_qubits, "qubit {qubit} out of range");
                }
                PlanOp::Block2 { lo, hi, .. } => {
                    assert!(
                        lo < hi && hi < self.n_qubits,
                        "block ({lo}, {hi}) out of range"
                    );
                }
                PlanOp::Cz { a, b } => {
                    assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
                    assert_ne!(a, b, "CZ operands must differ");
                }
            }
        }
    }

    /// Runs all gate operations of a *bound, native* circuit (measurements
    /// are ignored here; to sample shots, use
    /// [`Simulator::prepare`](crate::sim::Simulator::prepare) and
    /// [`PreparedCircuit::sample_shot`](crate::sim::PreparedCircuit::sample_shot)).
    /// Lowers through [`fuse::plan`] with fusion off — callers that want
    /// fused execution plan once and use [`StateVector::apply_plan`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::NonNativeGate`] for non-native gates and
    /// [`QuantumError::UnboundParameter`] for symbolic angles.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), QuantumError> {
        let plan = fuse::plan(circuit, false)?;
        self.apply_plan(&plan);
        Ok(())
    }

    /// The probability that measuring qubit `q` yields 1.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn probability_of_one(&self, q: u32) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let mask = 1usize << q;
        self.amplitudes()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// ⟨Z⟩ on qubit `q`.
    pub fn expectation_z(&self, q: u32) -> f64 {
        1.0 - 2.0 * self.probability_of_one(q)
    }

    /// The cumulative probability distribution over basis states plus its
    /// total mass, ready for inverse sampling. Summation runs in
    /// basis-state order, so the distribution — and therefore every draw
    /// made from it — is identical no matter which thread or shard
    /// computes it.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::NonFiniteState`] unless the total is finite
    /// and positive: no draw from such a table means anything.
    pub fn cumulative_distribution(&self) -> Result<(Vec<f64>, f64), QuantumError> {
        let mut cumulative = Vec::with_capacity(1 << self.n_qubits);
        let mut acc = 0.0;
        for a in self.amplitudes() {
            acc += a.norm_sqr();
            cumulative.push(acc);
        }
        if acc.is_finite() && acc > 0.0 {
            Ok((cumulative, acc))
        } else {
            Err(QuantumError::NonFiniteState { total: acc })
        }
    }

    /// Consumes the state into the exact sampler's tables, in its own
    /// buffer: the real half becomes the cumulative distribution that
    /// [`StateVector::cumulative_distribution`] computes (the same sums in
    /// the same order), the imaginary half the guide `guide_of` fills from
    /// it. Returns the buffer, the index where the cumulative half starts,
    /// and the total mass.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::NonFiniteState`] unless the total is finite
    /// and positive.
    pub(crate) fn into_sampling_tables(
        mut self,
        guide_of: impl FnOnce(&[f64], f64, &mut [f64]),
    ) -> Result<(Vec<f64>, usize, f64), QuantumError> {
        let (re, im) = self.parts_mut();
        let mut acc = 0.0;
        for (re, &im) in re.iter_mut().zip(im.iter()) {
            acc += C64::new(*re, im).norm_sqr();
            *re = acc;
        }
        if !(acc.is_finite() && acc > 0.0) {
            return Err(QuantumError::NonFiniteState { total: acc });
        }
        guide_of(re, acc, im);
        Ok((self.buf, self.start, acc))
    }

    /// Total probability (should be 1 within floating-point error).
    pub fn norm(&self) -> f64 {
        self.amplitudes().map(|a| a.norm_sqr()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_sim_engine::rng::unit;
    use std::f64::consts::{FRAC_PI_2, PI};

    impl StateVector {
        /// Expectation of a product of Z operators over `qubits`.
        ///
        /// # Panics
        ///
        /// Panics if any index is out of range.
        pub(crate) fn expectation_z_product(&self, qubits: &[u32]) -> f64 {
            let mut mask = 0usize;
            for &q in qubits {
                assert!(q < self.n_qubits, "qubit {q} out of range");
                mask |= 1usize << q;
            }
            self.amplitudes()
                .enumerate()
                .map(|(i, a)| {
                    let sign = if (i & mask).count_ones().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    sign * a.norm_sqr()
                })
                .sum()
        }
    }

    #[test]
    fn initial_state_is_all_zeros() {
        let sv = StateVector::new(3).unwrap();
        assert_eq!(sv.amplitude(0), C64::ONE);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
        assert_eq!(sv.expectation_z(0), 1.0);
    }

    #[test]
    fn both_halves_start_on_a_cache_line_at_every_width() {
        for n in 3..=16 {
            let sv = StateVector::new(n).unwrap();
            for (what, sv) in [("new", &sv), ("clone", &sv.clone())] {
                let (re, im) = sv.parts();
                assert_eq!(re.as_ptr().addr() % 64, 0, "{what}: real half, {n} qubits");
                assert_eq!(
                    im.as_ptr().addr() % 64,
                    0,
                    "{what}: imaginary half, {n} qubits"
                );
            }
        }
    }

    #[test]
    fn too_many_qubits_rejected() {
        assert!(StateVector::new(EXACT_QUBIT_LIMIT + 1).is_err());
    }

    #[test]
    fn rx_pi_flips() {
        let mut sv = StateVector::new(1).unwrap();
        sv.apply_rx(0, PI);
        assert!((sv.probability_of_one(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ry_half_pi_is_plus_state() {
        let mut sv = StateVector::new(1).unwrap();
        sv.apply_ry(0, FRAC_PI_2);
        assert!((sv.probability_of_one(0) - 0.5).abs() < 1e-12);
        // RY(π/2)|0> = (|0>+|1>)/√2 with real positive amplitudes.
        assert!((sv.amplitude(0).re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        assert!((sv.amplitude(1).re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rz_preserves_populations() {
        let mut sv = StateVector::new(1).unwrap();
        sv.apply_ry(0, 1.234);
        let p_before = sv.probability_of_one(0);
        sv.apply_rz(0, 0.77);
        assert!((sv.probability_of_one(0) - p_before).abs() < 1e-12);
    }

    #[test]
    fn cz_entangles_plus_states_into_bell_basis() {
        // (H⊗H)|00>, then CZ, then H on qubit 1 gives a Bell state with
        // perfect ZZ correlation.
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_ry(0, FRAC_PI_2);
        sv.apply_ry(1, FRAC_PI_2);
        sv.apply_cz(0, 1);
        sv.apply_ry(1, -FRAC_PI_2);
        let zz = sv.expectation_z_product(&[0, 1]);
        assert!((zz.abs() - 1.0).abs() < 1e-10, "zz={zz}");
    }

    #[test]
    fn cz_is_symmetric_and_involutive() {
        let mut a = StateVector::new(2).unwrap();
        a.apply_ry(0, 0.3);
        a.apply_ry(1, 1.1);
        a.apply_rz(1, 0.7);
        let before = a.clone();
        let mut b = a.clone();
        a.apply_cz(0, 1);
        b.apply_cz(1, 0);
        // Sign flips are exact, so both checks compare raw bits.
        let bits = |sv: &StateVector| -> Vec<(u64, u64)> {
            (0..4)
                .map(|i| (sv.amplitude(i).re.to_bits(), sv.amplitude(i).im.to_bits()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "CZ(0, 1) and CZ(1, 0) differ");
        // |11⟩ carries a phase (the RZ), so both of its parts must flip.
        let mut negated = bits(&before);
        let a11 = before.amplitude(3);
        negated[3] = ((-a11.re).to_bits(), (-a11.im).to_bits());
        assert!(a11.im != 0.0);
        assert_eq!(bits(&a), negated, "CZ must negate exactly |11⟩");
        a.apply_cz(0, 1);
        assert_eq!(bits(&a), bits(&before), "CZ twice is not the identity");
    }

    #[test]
    fn expectation_z_tracks_rotation() {
        let mut sv = StateVector::new(1).unwrap();
        sv.apply_ry(0, 1.0);
        assert!((sv.expectation_z(0) - 1.0f64.cos()).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut c = Circuit::new(1);
        c.ry(0, FRAC_PI_2).measure_all(); // 50/50
        let sim = crate::sim::Simulator::auto(1, 7);
        let prepared = sim.prepare(&c).unwrap();
        let ones = (0..4000)
            .filter(|&s| prepared.sample_shot(&mut sim.shot_rng(s)).get(0))
            .count();
        let frac = ones as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn apply_circuit_runs_native_and_rejects_symbolic() {
        use crate::gate::ParamId;
        let mut c = Circuit::new(2);
        c.ry(0, FRAC_PI_2).cz(0, 1).measure_all();
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_circuit(&c).unwrap();
        assert!((sv.norm() - 1.0).abs() < 1e-12);

        let mut sym = Circuit::new(1);
        sym.ry_param(0, ParamId::new(0));
        let mut sv = StateVector::new(1).unwrap();
        assert!(matches!(
            sv.apply_circuit(&sym),
            Err(QuantumError::UnboundParameter { .. })
        ));
    }

    #[test]
    fn apply_circuit_rejects_non_native() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut sv = StateVector::new(1).unwrap();
        assert!(matches!(
            sv.apply_circuit(&c),
            Err(QuantumError::NonNativeGate { gate: "H" })
        ));
    }

    #[test]
    fn non_finite_totals_are_typed_errors_not_clamped() {
        let ok = StateVector::new(2)
            .unwrap()
            .cumulative_distribution()
            .unwrap();
        assert_eq!(ok.1, 1.0);
        for (what, x) in [("NaN", f64::NAN), ("infinite", f64::INFINITY)] {
            let mut sv = StateVector::new(2).unwrap();
            sv.apply_matrix2(1, [[C64::new(x, 0.0), C64::ZERO], [C64::ZERO, C64::ONE]]);
            match sv.cumulative_distribution() {
                Err(QuantumError::NonFiniteState { total }) => {
                    assert!(!total.is_finite(), "{what}: total {total}")
                }
                other => panic!("{what} matrix: expected NonFiniteState, got {other:?}"),
            }
        }
        let mut zero = StateVector::new(1).unwrap();
        zero.apply_matrix2(0, [[C64::ZERO; 2]; 2]);
        assert_eq!(
            zero.cumulative_distribution(),
            Err(QuantumError::NonFiniteState { total: 0.0 })
        );
    }

    #[test]
    fn norm_is_preserved_by_long_random_circuit() {
        let mut sv = StateVector::new(4).unwrap();
        let mut r = 7u64;
        for i in 0..200 {
            let q = i % 4;
            match i % 3 {
                0 => sv.apply_rx(q, unit(&mut r) * PI),
                1 => sv.apply_ry(q, unit(&mut r) * PI),
                _ => sv.apply_rz(q, unit(&mut r) * PI),
            }
            if i % 5 == 0 {
                sv.apply_cz(q, (q + 1) % 4);
            }
        }
        assert!((sv.norm() - 1.0).abs() < 1e-9);
    }
}
