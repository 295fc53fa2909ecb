//! Unified simulation front-end: exact state vector for small circuits, a
//! mean-field product-state approximation beyond that.
//!
//! The paper's evaluation spans 8–320 qubits; an exact simulation of 2³²⁰
//! amplitudes is physically impossible on any machine, and the original
//! authors likewise used classical simulation (Qiskit) only as a source of
//! measurement data. Timing never depends on amplitudes, so the
//! substitution rule from DESIGN.md applies: [`MeanFieldState`] tracks one
//! Bloch vector per qubit, applies native rotations exactly and CZ through
//! its exact *reduced* (traced-out) action on product states, and samples
//! each qubit independently. Measurement statistics remain
//! parameter-responsive — optimizers see a real, smooth landscape — at
//! O(gates + qubits·shots) cost.
//!
//! # Sampling
//!
//! Every shot draws from its own SplitMix64 stream,
//! [`Simulator::shot_rng`]. One routine, [`PreparedCircuit::sample_lanes`],
//! runs `N` of those streams in lockstep and accumulates each shot's bits
//! in a register; [`PreparedCircuit::sample_shot`] is its `N = 1` case
//! and [`PreparedCircuit::sample_range`] calls it [`SHOT_LANES`] shots at
//! a time. Each lane consumes exactly the draws one shot would alone, so
//! the bits never depend on the lane count or on how a run is blocked.
//!
//! A mean-field draw compares integers. At preparation each marginal `p`
//! becomes the threshold `t = ⌈p·2⁵³⌉`, and a draw is the bit
//! `(splitmix64(state) >> 11) < t`. That is exactly `rng::unit(state) <
//! p`: `unit` is `k·2⁻⁵³` for the integer `k = x >> 11 < 2⁵³`, scaling by
//! a power of two is exact, so `k·2⁻⁵³ < p ⇔ k < p·2⁵³ ⇔ k < ⌈p·2⁵³⌉`.
//! `p = -0.0` (or a rounding-negative marginal) saturates to `t = 0` and
//! never fires; `p = 1` gives `t = 2⁵³` and always does.

use qtenon_sim_engine::rng::{self, splitmix64, stream_seed};

use crate::bits::BitString;
use crate::circuit::Circuit;
use crate::fuse::{self, FuseStats};
use crate::gate::{Angle, Gate};
use crate::statevector::StateVector;
use crate::QuantumError;

pub use crate::statevector::EXACT_QUBIT_LIMIT;

/// Exactness threshold for [`Simulator::fast`].
pub const FAST_EXACT_LIMIT: u32 = 12;

/// Shot streams [`PreparedCircuit::sample_range`] draws in lockstep. The
/// bits never depend on it (see the module docs). Derivation, on a
/// 2-vCPU Intel Xeon VM: 100-shot ranges of the mean-field VQE circuit
/// at 16/64/128 qubits took a best of 44.9/135.5/270.6 ns per shot with
/// 1 lane, 43.9/123.9/245.8 with 2, 45.1/125.2/248.8 with 4 and
/// 47.1/126.6/254.9 with 8 (lane counts interleaved, best of 40).
///
/// Lanes are flat at 16 qubits and gain ~8% from 64 up, with 2–8 level
/// within the host's noise. One stream already overlaps its own draws:
/// a SplitMix64 state only adds a constant, so successive finalisers
/// are independent. 4 is mid-band and keeps each lane's word in a
/// register.
pub const SHOT_LANES: usize = 4;

/// `2⁵³`: the scale of a [`rng::unit`] draw's integer numerator.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// The integer threshold of a mean-field marginal: `k < threshold(p)`
/// holds exactly when `k·2⁻⁵³ < p` for every `k < 2⁵³` (module docs).
/// Negative and NaN marginals saturate to 0, so they never fire, as
/// `unit < p` never does.
fn threshold(p: f64) -> u64 {
    (p * UNIT_SCALE).ceil() as u64
}

/// One qubit's Bloch vector in the mean-field model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bloch {
    x: f64,
    y: f64,
    z: f64,
}

impl Bloch {
    const ZERO_STATE: Bloch = Bloch {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };
}

/// Mean-field (product-state) simulator scaling to hundreds of qubits.
///
/// # Examples
///
/// ```
/// use qtenon_quantum::sim::MeanFieldState;
/// use std::f64::consts::PI;
///
/// let mut mf = MeanFieldState::new(320);
/// mf.apply_rx(319, PI);
/// assert!((mf.expectation_z(319) + 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct MeanFieldState {
    qubits: Vec<Bloch>,
}

impl MeanFieldState {
    /// Creates the |0…0⟩ product state.
    pub fn new(n_qubits: u32) -> Self {
        MeanFieldState {
            qubits: vec![Bloch::ZERO_STATE; n_qubits as usize],
        }
    }

    /// The number of qubits.
    pub fn n_qubits(&self) -> u32 {
        self.qubits.len() as u32
    }

    /// Applies RX(θ) to qubit `q` (exact for product states).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_rx(&mut self, q: u32, theta: f64) {
        let b = &mut self.qubits[q as usize];
        let (s, c) = theta.sin_cos();
        let (y, z) = (b.y, b.z);
        b.y = y * c - z * s;
        b.z = y * s + z * c;
    }

    /// Applies RY(θ) to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_ry(&mut self, q: u32, theta: f64) {
        let b = &mut self.qubits[q as usize];
        let (s, c) = theta.sin_cos();
        let (x, z) = (b.x, b.z);
        b.x = x * c + z * s;
        b.z = -x * s + z * c;
    }

    /// Applies RZ(θ) to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_rz(&mut self, q: u32, theta: f64) {
        let b = &mut self.qubits[q as usize];
        let (s, c) = theta.sin_cos();
        let (x, y) = (b.x, b.y);
        b.x = x * c - y * s;
        b.y = x * s + y * c;
    }

    /// Applies CZ between `a` and `b` using the exact reduced action on a
    /// product state: each side's transverse components are scaled by the
    /// partner's ⟨Z⟩ (entanglement is discarded — the mean-field
    /// approximation).
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range or the operands coincide.
    pub fn apply_cz(&mut self, a: u32, b: u32) {
        assert_ne!(a, b, "CZ operands must differ");
        let za = self.qubits[a as usize].z;
        let zb = self.qubits[b as usize].z;
        {
            let qa = &mut self.qubits[a as usize];
            qa.x *= zb;
            qa.y *= zb;
        }
        {
            let qb = &mut self.qubits[b as usize];
            qb.x *= za;
            qb.y *= za;
        }
    }

    /// ⟨Z⟩ on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn expectation_z(&self, q: u32) -> f64 {
        self.qubits[q as usize].z
    }

    /// Mean-field expectation of a Z product: the product of individual
    /// ⟨Z⟩ values.
    pub fn expectation_z_product(&self, qubits: &[u32]) -> f64 {
        qubits.iter().map(|&q| self.qubits[q as usize].z).product()
    }

    /// Runs all gates of a bound native circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::NonNativeGate`] or
    /// [`QuantumError::UnboundParameter`] as appropriate.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), QuantumError> {
        for op in circuit.operations() {
            match op.gate {
                Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) => {
                    let theta = match a {
                        Angle::Value(v) => v,
                        Angle::Param { param, .. } => {
                            return Err(QuantumError::UnboundParameter { param })
                        }
                    };
                    match op.gate {
                        Gate::Rx(_) => self.apply_rx(op.qubit, theta),
                        Gate::Ry(_) => self.apply_ry(op.qubit, theta),
                        Gate::Rz(_) => self.apply_rz(op.qubit, theta),
                        _ => unreachable!(),
                    }
                }
                Gate::Cz => {
                    let b = op.qubit2.expect("CZ has two operands");
                    self.apply_cz(op.qubit, b);
                }
                Gate::Measure => {}
                other => return Err(QuantumError::NonNativeGate { gate: other.name() }),
            }
        }
        Ok(())
    }
}

/// The state-independent sampling backend for one prepared circuit.
#[derive(Debug, Clone)]
enum PreparedBackend {
    /// Inverse sampling over the exact basis-state distribution.
    Exact { cumulative: Vec<f64>, total: f64 },
    /// Independent per-qubit marginals from the mean-field state, as
    /// integer draw thresholds (see [`threshold`]).
    MeanField { thresholds: Vec<u64> },
}

/// A circuit applied once and frozen into its measurement distribution:
/// the immutable, thread-shareable half of a [`Simulator::run`].
///
/// Preparation (state evolution) is deterministic and happens once;
/// sampling draws from the frozen distribution with whatever SplitMix64
/// stream the caller supplies. Splitting the two is what lets the
/// parallel engine share one `PreparedCircuit` across shot-shard
/// workers — the struct holds only plain probability tables, so it is
/// `Send + Sync` — while each shot consumes its own
/// [`Simulator::shot_rng`] stream.
///
/// The mean-field table holds one integer threshold `⌈p·2⁵³⌉` per qubit
/// rather than the marginal `p`, so a draw is an integer compare that
/// decides exactly as `rng::unit(state) < p` would (module docs). Every
/// sampling entry point goes through [`PreparedCircuit::sample_lanes`].
///
/// # Examples
///
/// ```
/// use qtenon_quantum::{Circuit, sim::Simulator};
///
/// let mut c = Circuit::new(4);
/// c.rx(0, std::f64::consts::PI).measure_all();
/// let mut sim = Simulator::auto(4, 1);
/// let prepared = sim.prepare(&c)?;
/// let base = sim.advance_cursor(10);
/// let shots: Vec<_> = (0..10)
///     .map(|s| prepared.sample_shot(&mut sim.shot_rng(base + s)))
///     .collect();
/// assert!(shots.iter().all(|s| s.get(0)));
/// # Ok::<(), qtenon_quantum::QuantumError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PreparedCircuit {
    n_qubits: u32,
    backend: PreparedBackend,
    fuse_stats: FuseStats,
}

impl PreparedCircuit {
    /// The circuit width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Fusion/kernel accounting from preparation. All-zero (see
    /// [`FuseStats::is_empty`]) for the mean-field backend, which never
    /// lowers through the kernel layer.
    pub fn fuse_stats(&self) -> FuseStats {
        self.fuse_stats
    }

    /// Draws one measurement outcome from the SplitMix64 stream `state`,
    /// normally a [`Simulator::shot_rng`]: the one-lane case of
    /// [`PreparedCircuit::sample_lanes`].
    pub fn sample_shot(&self, state: &mut u64) -> BitString {
        let [bits] = self.sample_lanes(std::array::from_mut(state));
        bits
    }

    /// Draws global shots `first..first + shots` of `sim`'s streams, in
    /// shot order, [`SHOT_LANES`] at a time; the last `shots %
    /// SHOT_LANES` go one by one. Bitwise equal to calling
    /// [`PreparedCircuit::sample_shot`] on each shot's
    /// [`Simulator::shot_rng`].
    pub fn sample_range(&self, sim: &Simulator, first: u64, shots: u64) -> Vec<BitString> {
        let mut out = Vec::with_capacity(shots as usize);
        let end = first + shots;
        let mut shot = first;
        while end - shot >= SHOT_LANES as u64 {
            let mut states: [u64; SHOT_LANES] =
                std::array::from_fn(|lane| sim.shot_rng(shot + lane as u64));
            out.extend(self.sample_lanes(&mut states));
            shot += SHOT_LANES as u64;
        }
        out.extend((shot..end).map(|s| self.sample_shot(&mut sim.shot_rng(s))));
        out
    }

    /// The draw routine: one measurement outcome per stream in `states`,
    /// each drawn exactly as that stream would draw it alone. Per lane,
    /// the exact backend takes one draw; the mean-field backend takes one
    /// per qubit in qubit order, accumulating each 64-qubit word in a
    /// register. On return every state has advanced past its shot's
    /// draws.
    pub fn sample_lanes<const N: usize>(&self, states: &mut [u64; N]) -> [BitString; N] {
        match &self.backend {
            PreparedBackend::Exact { cumulative, total } => std::array::from_fn(|lane| {
                let r = rng::unit(&mut states[lane]) * total;
                let idx = cumulative.partition_point(|&c| c < r);
                BitString::from_u64(idx.min(cumulative.len() - 1) as u64, self.n_qubits)
            }),
            PreparedBackend::MeanField { thresholds } => {
                let mut lanes = std::array::from_fn(|_| BitString::zeros(self.n_qubits));
                for (w, word_thresholds) in thresholds.chunks(64).enumerate() {
                    let mut words = [0u64; N];
                    let mut bit = 1u64;
                    for &t in word_thresholds {
                        // Set under a branch, not OR-ed in as a shifted
                        // bool: the latter lets LLVM vectorise the one-lane
                        // instance over qubits with SSE2 64-bit multiplies
                        // (`pmuludq`); this form keeps it scalar.
                        for (word, state) in words.iter_mut().zip(states.iter_mut()) {
                            if (splitmix64(state) >> 11) < t {
                                *word |= bit;
                            }
                        }
                        bit <<= 1;
                    }
                    for (bits, word) in lanes.iter_mut().zip(words) {
                        bits.words_mut()[w] = word;
                    }
                }
                lanes
            }
        }
    }
}

/// Simulation front-end that picks the exact backend when feasible and the
/// mean-field backend beyond [`EXACT_QUBIT_LIMIT`] qubits.
///
/// # Determinism
///
/// Every shot owns an independent RNG stream seeded from
/// `(simulator seed, global shot index)`; the simulator itself only keeps
/// a monotone shot cursor. Shot *s* therefore draws the same values
/// whether the run is serial or sharded across any number of threads —
/// the bitwise-reproducibility contract the parallel execution engine is
/// built on (DESIGN.md §"Parallel execution model").
///
/// # Examples
///
/// ```
/// use qtenon_quantum::{Circuit, sim::Simulator};
///
/// let mut c = Circuit::new(64);
/// c.rx(0, std::f64::consts::PI).measure_all();
/// let mut sim = Simulator::auto(64, 1);
/// let shots = sim.run(&c, 10)?;
/// assert!(shots.iter().all(|s| s.get(0)));
/// # Ok::<(), qtenon_quantum::QuantumError>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    n_qubits: u32,
    exact: bool,
    seed: u64,
    shot_cursor: u64,
    fuse: bool,
}

impl Simulator {
    /// Creates a simulator choosing the backend by qubit count.
    pub fn auto(n_qubits: u32, seed: u64) -> Self {
        Simulator {
            n_qubits,
            exact: n_qubits <= EXACT_QUBIT_LIMIT,
            seed,
            shot_cursor: 0,
            fuse: true,
        }
    }

    /// Creates a simulator tuned for *system-timing* experiments: exact
    /// only up to [`FAST_EXACT_LIMIT`] qubits, mean-field beyond. Deep
    /// variational circuits are re-simulated hundreds of times per run,
    /// so the timing experiments trade amplitude exactness (which never
    /// affects timing) for tractability much earlier than
    /// [`Simulator::auto`] does.
    pub fn fast(n_qubits: u32, seed: u64) -> Self {
        Simulator {
            n_qubits,
            exact: n_qubits <= FAST_EXACT_LIMIT,
            seed,
            shot_cursor: 0,
            fuse: true,
        }
    }

    /// Creates a simulator that always uses the mean-field backend (useful
    /// for apples-to-apples scaling runs).
    pub fn mean_field(n_qubits: u32, seed: u64) -> Self {
        Simulator {
            n_qubits,
            exact: false,
            seed,
            shot_cursor: 0,
            fuse: true,
        }
    }

    /// Returns a copy of this simulator with gate fusion switched on or
    /// off (default: on). Fused and unfused execution are bitwise
    /// interchangeable (see `crates/quantum/src/fuse.rs`); the flag is a
    /// pure performance toggle, exposed as `--no-fuse` at the CLI.
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// The configured width.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Whether the exact backend is in use.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The configured RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Reserves `shots` global shot indices and returns the first one.
    /// The cursor is monotone across a simulator's lifetime, so every
    /// [`Simulator::run`] (or sharded equivalent) consumes a fresh,
    /// non-overlapping index range.
    pub fn advance_cursor(&mut self, shots: u64) -> u64 {
        let base = self.shot_cursor;
        self.shot_cursor = self.shot_cursor.wrapping_add(shots);
        base
    }

    /// The SplitMix64 state for global shot index `global_shot`: a pure
    /// function of `(seed, global_shot)`, independent of every other
    /// shot's draws and of the thread that evaluates it. Seeding is one
    /// finaliser pass, so a fresh stream per shot costs nothing next to
    /// the draws themselves.
    pub fn shot_rng(&self, global_shot: u64) -> u64 {
        stream_seed(self.seed, global_shot)
    }

    /// Prepares |0…0⟩, applies the bound native `circuit`, and freezes
    /// the resulting measurement distribution for sampling.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if the circuit width
    /// disagrees with the simulator, [`QuantumError::NonFiniteAngle`] for
    /// a NaN or infinite bound angle (an optimizer can produce one; both
    /// backends would turn it into NaN amplitudes or probabilities),
    /// [`QuantumError::NonFiniteState`] if the exact state's total
    /// probability is not finite and positive, plus any backend error.
    pub fn prepare(&self, circuit: &Circuit) -> Result<PreparedCircuit, QuantumError> {
        if circuit.n_qubits() != self.n_qubits {
            return Err(QuantumError::QubitOutOfRange {
                qubit: circuit.n_qubits(),
                n_qubits: self.n_qubits,
            });
        }
        for op in circuit.operations() {
            if let Some(Angle::Value(angle)) = op.gate.angle() {
                if !angle.is_finite() {
                    return Err(QuantumError::NonFiniteAngle {
                        gate: op.gate.name(),
                        qubit: op.qubit,
                        angle,
                    });
                }
            }
        }
        let mut fuse_stats = FuseStats::default();
        let backend = if self.exact {
            let plan = fuse::plan(circuit, self.fuse)?;
            fuse_stats = plan.stats;
            let mut sv = StateVector::new(self.n_qubits)?;
            sv.apply_plan(&plan);
            let (cumulative, total) = sv.cumulative_distribution()?;
            PreparedBackend::Exact { cumulative, total }
        } else {
            let mut mf = MeanFieldState::new(self.n_qubits);
            mf.apply_circuit(circuit)?;
            PreparedBackend::MeanField {
                thresholds: mf
                    .qubits
                    .iter()
                    .map(|b| threshold((1.0 - b.z) / 2.0))
                    .collect(),
            }
        };
        Ok(PreparedCircuit {
            n_qubits: self.n_qubits,
            backend,
            fuse_stats,
        })
    }

    /// Prepares |0…0⟩, applies the bound native `circuit`, and draws
    /// `shots` measurement outcomes, one independent RNG stream per shot.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if the circuit width
    /// disagrees with the simulator, plus any backend error.
    pub fn run(&mut self, circuit: &Circuit, shots: u64) -> Result<Vec<BitString>, QuantumError> {
        let prepared = self.prepare(circuit)?;
        let base = self.advance_cursor(shots);
        Ok(prepared.sample_range(self, base, shots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    /// The marginals `prepare` freezes into thresholds, as probabilities.
    fn marginals(c: &Circuit) -> Vec<f64> {
        let mut mf = MeanFieldState::new(c.n_qubits());
        mf.apply_circuit(c).unwrap();
        mf.qubits.iter().map(|b| (1.0 - b.z) / 2.0).collect()
    }

    #[test]
    fn mean_field_matches_exact_for_single_qubit_rotations() {
        let mut mf = MeanFieldState::new(1);
        let mut sv = StateVector::new(1).unwrap();
        for (i, theta) in [0.3, 1.1, 2.7].iter().enumerate() {
            match i {
                0 => {
                    mf.apply_rx(0, *theta);
                    sv.apply_rx(0, *theta);
                }
                1 => {
                    mf.apply_ry(0, *theta);
                    sv.apply_ry(0, *theta);
                }
                _ => {
                    mf.apply_rz(0, *theta);
                    sv.apply_rz(0, *theta);
                }
            }
            assert!(
                (mf.expectation_z(0) - sv.expectation_z(0)).abs() < 1e-10,
                "step {i}"
            );
        }
    }

    #[test]
    fn mean_field_cz_reduced_action_matches_exact_marginals() {
        // For a product input, tracing out the partner gives exactly the
        // mean-field update, so single-qubit marginals must agree.
        for (ta, tb) in [(0.4, 1.3), (FRAC_PI_2, FRAC_PI_2), (2.0, 0.1)] {
            let mut mf = MeanFieldState::new(2);
            mf.apply_ry(0, ta);
            mf.apply_ry(1, tb);
            mf.apply_cz(0, 1);
            let mut sv = StateVector::new(2).unwrap();
            sv.apply_ry(0, ta);
            sv.apply_ry(1, tb);
            sv.apply_cz(0, 1);
            assert!((mf.expectation_z(0) - sv.expectation_z(0)).abs() < 1e-10);
            assert!((mf.expectation_z(1) - sv.expectation_z(1)).abs() < 1e-10);
        }
    }

    #[test]
    fn mean_field_scales_to_320_qubits() {
        let mut c = Circuit::new(320);
        for q in 0..320 {
            c.ry(q, 0.01 * q as f64);
        }
        for q in 0..319 {
            c.cz(q, q + 1);
        }
        let shots = Simulator::mean_field(320, 3).run(&c, 10).unwrap();
        assert_eq!(shots.len(), 10);
        assert_eq!(shots[0].len(), 320);
    }

    #[test]
    fn mean_field_sampling_tracks_rotation() {
        let mut c = Circuit::new(1);
        c.rx(0, PI / 3.0).measure_all(); // p1 = sin²(π/6) = 0.25
        let shots = Simulator::mean_field(1, 11).run(&c, 8000).unwrap();
        let ones: u32 = shots.iter().map(|s| s.count_ones()).sum();
        let frac = ones as f64 / 8000.0;
        assert!((frac - 0.25).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn mean_field_marginals_land_within_three_sigma() {
        // Every qubit's sampled frequency of 1 must sit within 3σ of its
        // frozen marginal: the per-shot streams are unbiased and the 16
        // draws inside one shot are uncorrelated enough to not skew any
        // single qubit.
        let mut c = Circuit::new(16);
        for q in 0..16 {
            c.ry(q, PI * f64::from(q) / 15.0);
        }
        c.measure_all();
        let sim = Simulator::mean_field(16, 42);
        let prepared = sim.prepare(&c).unwrap();
        let p1 = marginals(&c);
        let n = 20_000u32;
        let mut ones = [0u32; 16];
        for s in 0..n {
            let bits = prepared.sample_shot(&mut sim.shot_rng(u64::from(s)));
            for (q, count) in ones.iter_mut().enumerate() {
                *count += u32::from(bits.get(q as u32));
            }
        }
        for (q, (&k, &p)) in ones.iter().zip(&p1).enumerate() {
            let frac = f64::from(k) / f64::from(n);
            let sigma = (p * (1.0 - p) / f64::from(n)).sqrt();
            assert!(
                (frac - p).abs() <= 3.0 * sigma + 1e-12,
                "qubit {q}: frequency {frac} vs p1 {p} (3σ = {})",
                3.0 * sigma
            );
        }
    }

    #[test]
    fn mean_field_word_packing_matches_a_per_bit_reference() {
        // Either side of the one-word and inline-storage limits: the
        // packed sampler must make the same draws, in the same qubit
        // order, as setting one bit per qubit.
        for n in [16u32, 64, 65, 128, 320] {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.ry(q, PI * f64::from(q % 17) / 16.0);
            }
            c.measure_all();
            let sim = Simulator::mean_field(n, 9);
            let prepared = sim.prepare(&c).unwrap();
            let p1 = marginals(&c);
            for shot in 0..1_000 {
                let mut packed_state = sim.shot_rng(shot);
                let packed = prepared.sample_shot(&mut packed_state);
                let mut state = sim.shot_rng(shot);
                let mut reference = BitString::zeros(n);
                for (q, &p) in p1.iter().enumerate() {
                    if rng::unit(&mut state) < p {
                        reference.set(q as u32, true);
                    }
                }
                assert_eq!(packed, reference, "{n} qubits, shot {shot}");
                assert_eq!(packed_state, state, "{n} qubits, shot {shot}: draw count");
            }
        }
    }

    #[test]
    fn integer_thresholds_decide_exactly_as_unit_draws() {
        // `rng::unit`'s value for the integer draw `k = x >> 11`.
        let unit_of = |k: u64| k as f64 / UNIT_SCALE;
        let ps = [
            0.0,
            -0.0,
            1.0,
            0.5,
            0.5f64.next_up(),
            0.5f64.next_down(),
            2f64.powi(-54),
            f64::from_bits(1), // smallest subnormal
            0.25 + 2f64.powi(-54),
            0.1,
            1.0 / 3.0,
            1e-300,
            1.0f64.next_down(),
        ];
        let top = (1u64 << 53) - 1;
        let mut state = 0x5EED_u64;
        for p in ps {
            let t = threshold(p);
            let mut ks = vec![0, t.saturating_sub(1), t.min(top), top];
            ks.extend((0..64).map(|_| splitmix64(&mut state) >> 11));
            for k in ks {
                assert_eq!(unit_of(k) < p, k < t, "p = {p:e}, k = {k}, t = {t}");
            }
            // The real draw path, on seeded streams.
            for _ in 0..256 {
                let (mut a, mut b) = (state, state);
                assert_eq!(rng::unit(&mut a) < p, (splitmix64(&mut b) >> 11) < t);
                assert_eq!(a, b);
                splitmix64(&mut state);
            }
        }
        assert_eq!(threshold(-0.0), 0);
        assert_eq!(threshold(f64::from_bits(1)), 1);
        assert_eq!(threshold(2f64.powi(-54)), 1);
        assert_eq!(threshold(0.5), 1 << 52);
        assert_eq!(threshold(0.5f64.next_up()), (1 << 52) + 1);
        assert_eq!(threshold(1.0), 1 << 53);
    }

    /// The SplitMix64 state whose next draw is `x`: the generator's
    /// finaliser inverted step by step.
    fn state_drawing(x: u64) -> u64 {
        let unshift = |y: u64, k: u32| (0..64 / k).fold(y, |z, _| y ^ (z >> k));
        let inverse = |m: u64| {
            (0..6).fold(m, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(i)))
            })
        };
        let z = unshift(x, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        let z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30).wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn a_draw_at_the_threshold_does_not_fire() {
        // Random draws land on `k = t` with probability 2⁻⁵³, so force
        // it: a draw of exactly `t` is `unit = p` rounded up, which must
        // not fire, while `t − 1` must.
        for theta in [0.0, 1.0, PI / 2.0, 2.5, PI] {
            let mut c = Circuit::new(1);
            c.ry(0, theta).measure_all();
            let prepared = Simulator::mean_field(1, 0).prepare(&c).unwrap();
            let PreparedBackend::MeanField { thresholds } = &prepared.backend else {
                panic!("mean-field simulator prepared an exact backend");
            };
            let t = thresholds[0];
            let p = marginals(&c)[0];
            let mut draws = vec![t.min((1 << 53) - 1) << 11];
            if t > 0 {
                draws.push(((t - 1) << 11) | 0x7FF);
            }
            for x in draws {
                let mut state = state_drawing(x);
                let mut oracle = state;
                assert_eq!(splitmix64(&mut state_drawing(x)), x);
                let bit = prepared.sample_shot(&mut state).get(0);
                assert_eq!(bit, rng::unit(&mut oracle) < p, "θ = {theta}, draw {x:#x}");
                assert_eq!(bit, (x >> 11) < t);
            }
        }
    }

    #[test]
    fn shot_streams_differ_from_fault_site_streams_under_one_seed() {
        // `q_run` draws a shot's bits from `shot_rng(shot)` and its fault
        // flips from `for_shot(shot)`. Both derive from `stream_seed`, so
        // with the fault seed equal to the run seed the two must still
        // not hand out the same draws.
        use qtenon_sim_engine::{FaultInjector, FaultPlan, FaultSite};
        let seed = 42;
        let sim = Simulator::mean_field(4, seed);
        let faults = FaultInjector::new(FaultPlan::all(0.5).with_seed(seed));
        for shot in 0..32 {
            let mut state = sim.shot_rng(shot);
            let sampled: Vec<bool> = (0..64).map(|_| rng::unit(&mut state) < 0.5).collect();
            let mut injector = faults.for_shot(shot);
            for site in FaultSite::ALL {
                let flips: Vec<bool> = (0..64).map(|_| injector.bernoulli(site)).collect();
                assert_ne!(sampled, flips, "shot {shot} shares a stream with {site:?}");
            }
        }
    }

    #[test]
    fn simulator_auto_picks_backend() {
        assert!(Simulator::auto(8, 0).is_exact());
        assert!(!Simulator::auto(64, 0).is_exact());
        assert!(!Simulator::mean_field(4, 0).is_exact());
    }

    #[test]
    fn simulator_rejects_width_mismatch() {
        let mut sim = Simulator::auto(2, 0);
        let c = Circuit::new(3);
        assert!(sim.run(&c, 1).is_err());
    }

    #[test]
    fn simulator_is_deterministic_per_seed() {
        let mut c = Circuit::new(4);
        c.ry(0, 1.0).ry(1, 0.5).cz(0, 1).measure_all();
        let a = Simulator::auto(4, 99).run(&c, 50).unwrap();
        let b = Simulator::auto(4, 99).run(&c, 50).unwrap();
        assert_eq!(a, b);
        let c2 = Simulator::auto(4, 100).run(&c, 50).unwrap();
        assert_ne!(a, c2);
    }

    #[test]
    fn sharded_sampling_reproduces_serial_run() {
        // Sampling the same global shot range in arbitrary shard cuts
        // must reproduce Simulator::run bit for bit.
        let mut c = Circuit::new(16);
        c.ry(0, 1.0).ry(5, 0.5).cz(0, 5).rx(9, 2.2).measure_all();
        let serial = Simulator::fast(16, 7).run(&c, 60).unwrap();
        for split in [1u64, 17, 30, 59] {
            let mut sim = Simulator::fast(16, 7);
            let prepared = sim.prepare(&c).unwrap();
            let base = sim.advance_cursor(60);
            let mut sharded: Vec<BitString> = (base..base + split)
                .map(|s| prepared.sample_shot(&mut sim.shot_rng(s)))
                .collect();
            sharded.extend(
                (base + split..base + 60).map(|s| prepared.sample_shot(&mut sim.shot_rng(s))),
            );
            assert_eq!(sharded, serial, "split at {split} diverged");
        }
    }

    #[test]
    fn successive_runs_consume_fresh_shot_indices() {
        let mut c = Circuit::new(6);
        c.ry(0, 1.0).ry(1, 1.0).ry(2, 1.0).measure_all();
        let mut sim = Simulator::mean_field(6, 5);
        let first = sim.run(&c, 200).unwrap();
        let second = sim.run(&c, 200).unwrap();
        assert_ne!(first, second, "reruns must see fresh randomness");
        assert_eq!(sim.advance_cursor(0), 400);
    }

    #[test]
    fn fused_and_unfused_prepare_sample_identically() {
        let mut c = Circuit::new(8);
        c.rz(0, 0.3)
            .rx(0, 0.7)
            .ry(0, -0.2)
            .cz(0, 1)
            .rx(3, 1.1)
            .rz(3, 0.2)
            .measure_all();
        let fused = Simulator::fast(8, 13).prepare(&c).unwrap();
        let unfused = Simulator::fast(8, 13)
            .with_fusion(false)
            .prepare(&c)
            .unwrap();
        assert!(fused.fuse_stats().gates_fused > 0);
        assert_eq!(unfused.fuse_stats().gates_fused, 0);
        assert_eq!(fused.fuse_stats().gates_in, unfused.fuse_stats().gates_in);
        let sim = Simulator::fast(8, 13);
        for s in 0..64 {
            assert_eq!(
                fused.sample_shot(&mut sim.shot_rng(s)),
                unfused.sample_shot(&mut sim.shot_rng(s)),
                "shot {s}"
            );
        }
    }

    #[test]
    fn mean_field_prepare_reports_empty_fuse_stats() {
        let mut c = Circuit::new(64);
        c.rx(0, 1.0).measure_all();
        let p = Simulator::fast(64, 1).prepare(&c).unwrap();
        assert!(p.fuse_stats().is_empty());
        let mut e = Circuit::new(8);
        e.rx(0, 1.0).cz(0, 1).measure_all();
        let p = Simulator::fast(8, 1).prepare(&e).unwrap();
        assert!(!p.fuse_stats().is_empty());
    }

    #[test]
    fn prepared_circuit_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedCircuit>();
        assert_send_sync::<BitString>();
    }

    /// A NaN or infinite RX angle on qubit 2 is refused by name; the same
    /// circuit with a finite angle prepares.
    fn assert_non_finite_angles_rejected(sim: &Simulator) {
        let n = sim.n_qubits();
        let circuit = |angle: f64| {
            let mut c = Circuit::new(n);
            c.ry(0, 0.4).cz(0, 1).rx(2, angle).measure_all();
            c
        };
        for angle in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match sim.prepare(&circuit(angle)) {
                Err(QuantumError::NonFiniteAngle { gate, qubit, .. }) => {
                    assert_eq!((gate, qubit), ("RX", 2));
                }
                other => panic!("angle {angle} accepted: {other:?}"),
            }
        }
        assert!(sim.prepare(&circuit(1.0)).is_ok());
    }

    #[test]
    fn exact_prepare_rejects_non_finite_angles() {
        let sim = Simulator::fast(3, 5);
        assert!(sim.is_exact());
        assert_non_finite_angles_rejected(&sim);
        let err = QuantumError::NonFiniteAngle {
            gate: "RZ",
            qubit: 7,
            angle: f64::NAN,
        };
        assert_eq!(err.to_string(), "RZ on qubit 7 has non-finite angle NaN");
    }

    #[test]
    fn mean_field_prepare_rejects_non_finite_angles() {
        let sim = Simulator::mean_field(3, 5);
        assert!(!sim.is_exact());
        assert_non_finite_angles_rejected(&sim);
    }

    #[test]
    fn bloch_vector_stays_in_ball() {
        let mut mf = MeanFieldState::new(3);
        for i in 0..100 {
            mf.apply_rx(i % 3, 0.7);
            mf.apply_ry((i + 1) % 3, 1.3);
            mf.apply_cz(i % 3, (i + 1) % 3);
        }
        for q in 0..3 {
            let b = mf.qubits[q as usize];
            let norm = (b.x * b.x + b.y * b.y + b.z * b.z).sqrt();
            assert!(norm <= 1.0 + 1e-9, "norm={norm}");
        }
    }
}
