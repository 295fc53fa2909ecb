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
//! [`Simulator::shot_rng`]. An exact shot is one draw and one table
//! lookup, which lanes do not speed up, so every entry point draws exact
//! shots one by one. A mean-field shot is one draw per qubit. One
//! routine, `draw_words`, runs `N` of those streams in lockstep and
//! accumulates each shot's bits in a register.
//! [`PreparedCircuit::sample_shot`] is its `N = 1` case, and
//! [`PreparedCircuit::sample_range`] runs it through a kernel instance
//! ([`crate::kernels::KernelInstance`]): [`SHOT_LANES`] streams at a time
//! on the baseline, [`WIDE_SHOT_LANES`] to a vector register in the
//! AVX-512 instance, which also seeds each lane's stream in its register.
//! Each lane consumes exactly the draws one shot would alone, so the bits
//! never depend on the lane count, the instance or how a run is blocked.
//!
//! An exact draw is inverse sampling: `r = rng::unit(state) · total`
//! picks the first basis state whose cumulative probability is at least
//! `r`, clamped to the last one. Preparation evolves the state and then
//! reuses its buffer: the real half becomes the cumulative table, the
//! imaginary half a guide of 2ⁿ buckets, `guide[b]` the first index whose
//! cumulative value falls in a bucket `≥ b`, where `bucket(x) = ⌊x·2ⁿ /
//! total⌋` saturated to the last bucket. A draw starts at
//! `guide[bucket(r)]` and steps forward while the cumulative value is
//! below `r`. Every index it skips has a bucket below `bucket(r)`, and
//! since `bucket` is monotone its cumulative value is below `r`; so the
//! scan stops exactly where `partition_point(|&c| c < r)` would, and a
//! draw reads about one entry on average instead of a binary search's n.
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
use crate::gate::{Angle, Gate, SinCosMemo};
use crate::kernels::{self, Body, KernelInstance};
use crate::statevector::StateVector;
use crate::QuantumError;

pub use crate::statevector::EXACT_QUBIT_LIMIT;

/// Exactness threshold for [`Simulator::fast`].
pub(crate) const FAST_EXACT_LIMIT: u32 = 12;

/// Shot streams [`PreparedCircuit::sample_range`] draws in lockstep on
/// the baseline instance. The bits never depend on it (see the module
/// docs). Derivation, on a 2-vCPU Intel Xeon VM with `avx512f/dq/vl`:
/// 100-shot ranges of the mean-field VQE circuit at 16/64/128 qubits
/// took a best of (ns per shot, lane counts interleaved, best of 3,000)
///
/// | Lanes | Registers | 16 | 64 | 128 |
/// |---|---|---|---|---|
/// | 1 | scalar | 28.9 | 97.7 | 205.0 |
/// | 2 | scalar | 27.6 | 96.9 | 190.6 |
/// | 4 | scalar | 20.2 | 70.2 | 147.5 |
/// | 8 | scalar | 20.5 | 71.8 | 152.6 |
/// | 4 | one `ymm` (AVX-512VL) | 19.5 | 61.7 | 132.2 |
/// | 8 | one `zmm` | 8.3 | 25.4 | 55.0 |
/// | 16 | two `zmm` | 8.1 | 24.7 | 53.9 |
///
/// One stream already overlaps its own draws: a SplitMix64 state only
/// adds a constant, so successive finalisers are independent. 4 scalar
/// lanes keep each lane's word in a register and lead the scalar rows.
/// In vector registers `vpmullq` makes 8 lanes in one `zmm` 2.4–2.8×
/// faster than 4 scalar ones, and 2.3–2.4× faster than 4 in a `ymm`;
/// a second `zmm` gains nothing measurable, so the AVX-512 instance
/// draws [`WIDE_SHOT_LANES`] = 8.
pub const SHOT_LANES: usize = 4;

/// Shot streams the AVX-512 instance draws per vector register: one
/// 64-bit lane each, multiplied with `vpmullq` (see [`SHOT_LANES`] for
/// the measurements).
pub const WIDE_SHOT_LANES: usize = 8;

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

    /// Applies RX(θ) to qubit `q` (exact for product states).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_rx(&mut self, q: u32, theta: f64) {
        self.rx_by(q, theta.sin_cos());
    }

    /// RX by the angle whose `(sin, cos)` is given.
    fn rx_by(&mut self, q: u32, (s, c): (f64, f64)) {
        let b = &mut self.qubits[q as usize];
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
        self.ry_by(q, theta.sin_cos());
    }

    /// RY by the angle whose `(sin, cos)` is given.
    fn ry_by(&mut self, q: u32, (s, c): (f64, f64)) {
        let b = &mut self.qubits[q as usize];
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
        self.rz_by(q, theta.sin_cos());
    }

    /// RZ by the angle whose `(sin, cos)` is given.
    fn rz_by(&mut self, q: u32, (s, c): (f64, f64)) {
        let b = &mut self.qubits[q as usize];
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

    /// Runs all gates of a bound native circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::NonNativeGate`] or
    /// [`QuantumError::UnboundParameter`] as appropriate.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), QuantumError> {
        let mut trig = SinCosMemo::new();
        for op in circuit.operations() {
            match op.gate {
                Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) => {
                    let theta = match a {
                        Angle::Value(v) => v,
                        Angle::Param { param, .. } => {
                            return Err(QuantumError::UnboundParameter { param })
                        }
                    };
                    let rotation = trig.sin_cos(theta);
                    match op.gate {
                        Gate::Rx(_) => self.rx_by(op.qubit, rotation),
                        Gate::Ry(_) => self.ry_by(op.qubit, rotation),
                        Gate::Rz(_) => self.rz_by(op.qubit, rotation),
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
    Exact(ExactTable),
    /// Independent per-qubit marginals from the mean-field state, as
    /// integer draw thresholds (see [`threshold`]).
    MeanField { thresholds: Vec<u64> },
}

/// The exact backend's inverse-sampling tables, in the buffer the state
/// was evolved in: the cumulative distribution over the real half, a
/// guide over the imaginary half (module docs).
#[derive(Debug, Clone)]
struct ExactTable {
    buf: Vec<f64>,
    /// Where the cumulative table starts in `buf`; the guide follows it.
    start: usize,
    /// Basis states, and guide buckets.
    len: usize,
    total: f64,
    /// Buckets per unit of mass, `len / total`.
    scale: f64,
}

impl ExactTable {
    /// Freezes an evolved state into its tables.
    fn new(sv: StateVector) -> Result<Self, QuantumError> {
        let len = 1usize << sv.n_qubits();
        let mut scale = 0.0;
        let (buf, start, total) = sv.into_sampling_tables(|cumulative, total, guide| {
            scale = len as f64 / total;
            let (last, mut i) = (len - 1, 0);
            for (b, slot) in guide.iter_mut().enumerate() {
                while i < last && bucket(cumulative[i], scale, last) < b {
                    i += 1;
                }
                *slot = f64::from_bits(i as u64);
            }
        })?;
        Ok(ExactTable {
            buf,
            start,
            len,
            total,
            scale,
        })
    }

    /// One shot of `n_qubits` from the SplitMix64 stream `state`: one
    /// draw, scaled to the total mass.
    #[inline(always)]
    fn shot(&self, state: &mut u64, n_qubits: u32) -> BitString {
        let r = rng::unit(state) * self.total;
        BitString::from_u64(self.index_of(r) as u64, n_qubits)
    }

    /// The basis state of draw `r` in `[0, total]`: the first index whose
    /// cumulative value is at least `r`, clamped to the last one, as
    /// `partition_point(|&c| c < r).min(len - 1)` finds it (module docs).
    #[inline(always)]
    fn index_of(&self, r: f64) -> usize {
        let (cumulative, guide) = self.buf[self.start..].split_at(self.len);
        let last = self.len - 1;
        let mut i = guide[bucket(r, self.scale, last)].to_bits() as usize;
        // Most draws end within two entries of the guide: two steps
        // without a branch to mispredict, then a loop that rarely runs.
        for _ in 0..2 {
            i += usize::from((i < last) & (cumulative[i] < r));
        }
        while i < last && cumulative[i] < r {
            i += 1;
        }
        i
    }
}

/// The guide bucket of a mass `x`: `⌊x·scale⌋`, saturated into
/// `0..=last`. Monotone in `x`, which is all the guide's exactness rests
/// on (module docs).
#[inline(always)]
fn bucket(x: f64, scale: f64, last: usize) -> usize {
    ((x * scale) as usize).min(last)
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
/// decides exactly as `rng::unit(state) < p` would (module docs). The
/// exact table is the cumulative distribution and its guide, in the
/// state's own buffer. Every sampling entry point draws an exact shot with
/// one guide lookup and a mean-field shot through the lane routine
/// (module docs).
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
    /// Fusion/kernel accounting from preparation. All-zero (see
    /// [`FuseStats::is_empty`]) for the mean-field backend, which never
    /// lowers through the kernel layer.
    pub fn fuse_stats(&self) -> FuseStats {
        self.fuse_stats
    }

    /// Draws one measurement outcome from the SplitMix64 stream `state`,
    /// normally a [`Simulator::shot_rng`]: one guide lookup, or the
    /// one-lane case of the mean-field lane routine.
    pub fn sample_shot(&self, state: &mut u64) -> BitString {
        match &self.backend {
            PreparedBackend::Exact(table) => table.shot(state, self.n_qubits),
            PreparedBackend::MeanField { thresholds } => {
                let mut bits = BitString::zeros(self.n_qubits);
                draw_words(
                    thresholds,
                    std::array::from_mut(state),
                    std::array::from_mut(&mut bits),
                );
                bits
            }
        }
    }

    /// Draws global shots `first..first + shots` of `sim`'s streams, in
    /// shot order: exact shots one by one, mean-field shots through the
    /// AVX-512 kernel instance where the CPU runs it, else the baseline.
    /// Bitwise equal to calling [`PreparedCircuit::sample_shot`] on each
    /// shot's [`Simulator::shot_rng`].
    pub fn sample_range(&self, sim: &Simulator, first: u64, shots: u64) -> Vec<BitString> {
        match &self.backend {
            PreparedBackend::Exact(table) => (first..first + shots)
                .map(|s| table.shot(&mut sim.shot_rng(s), self.n_qubits))
                .collect(),
            PreparedBackend::MeanField { thresholds } => {
                self.draw_on(draw_instance(), thresholds, sim, first, shots, &mut [])
            }
        }
    }

    /// [`PreparedCircuit::sample_range`] of a mean-field circuit through
    /// a named kernel instance, with each shot's stream end state, so
    /// tests can pin each instance's bits. Not part of the public API.
    ///
    /// # Panics
    ///
    /// Panics if the circuit was prepared on the exact backend, whose
    /// draws have no instances, or this CPU cannot run `instance`
    /// ([`KernelInstance::is_available`]).
    #[doc(hidden)]
    pub fn sample_range_on(
        &self,
        instance: KernelInstance,
        sim: &Simulator,
        first: u64,
        shots: u64,
    ) -> (Vec<BitString>, Vec<u64>) {
        let PreparedBackend::MeanField { thresholds } = &self.backend else {
            panic!("exact draws have no kernel instances");
        };
        let mut ends = vec![0; shots as usize];
        let out = self.draw_on(instance, thresholds, sim, first, shots, &mut ends);
        (out, ends)
    }

    /// Mean-field shots `first..first + shots` through `instance`, each
    /// stream's end state written to `ends` unless it is empty.
    fn draw_on(
        &self,
        instance: KernelInstance,
        thresholds: &[u64],
        sim: &Simulator,
        first: u64,
        shots: u64,
        ends: &mut [u64],
    ) -> Vec<BitString> {
        let mut out = vec![BitString::zeros(self.n_qubits); shots as usize];
        let draw = ShotDraw {
            thresholds,
            seed: sim.seed,
            first,
        };
        kernels::apply_ops_on(instance, &mut out[..], ends, &draw);
        out
    }
}

/// The instance mean-field draws run on: AVX-512 where the CPU has it
/// (with `avx512dq`, whose `vpmullq` multiplies 8 streams at once), else
/// the baseline. AVX2 has no 64-bit multiply, so its instance would
/// emulate one from 32-bit halves or draw the same scalar code.
fn draw_instance() -> KernelInstance {
    if KernelInstance::Avx512.is_available() {
        KernelInstance::Avx512
    } else {
        KernelInstance::Baseline
    }
}

/// A range of mean-field shots as the kernel instances draw it
/// ([`Body`]): global shots `first..` of the streams under `seed`, one
/// per output shot, each drawing one bit per threshold.
struct ShotDraw<'a> {
    thresholds: &'a [u64],
    seed: u64,
    first: u64,
}

/// The buffers are the drawn shots and, unless empty, one end state per
/// shot.
impl Body for ShotDraw<'_> {
    type Re = [BitString];
    type Im = [u64];

    /// [`SHOT_LANES`] streams at a time, the last `shots % SHOT_LANES`
    /// one by one.
    #[inline(always)]
    fn narrow(shots: &mut [BitString], ends: &mut [u64], draw: &Self) {
        let mut blocks = shots.chunks_exact_mut(SHOT_LANES);
        let mut offset = 0;
        for block in &mut blocks {
            draw.block::<SHOT_LANES>(offset, block, ends);
            offset += SHOT_LANES;
        }
        for single in blocks.into_remainder().chunks_mut(1) {
            draw.block::<1>(offset, single, ends);
            offset += 1;
        }
    }

    /// [`WIDE_SHOT_LANES`] streams to a register; the last block's idle
    /// lanes draw and are dropped.
    #[inline(always)]
    fn wide(
        shots: &mut [BitString],
        ends: &mut [u64],
        draw: &Self,
        _avx2: impl Fn(&mut [BitString], &mut [u64], &Self),
    ) {
        for (b, block) in shots.chunks_mut(WIDE_SHOT_LANES).enumerate() {
            draw.block::<WIDE_SHOT_LANES>(b * WIDE_SHOT_LANES, block, ends);
        }
    }
}

impl ShotDraw<'_> {
    /// Draws `shots`, at most `N` of them, from the streams of global
    /// shots `first + offset` on, one per lane, and writes their end
    /// states to `ends[offset..]` unless `ends` is empty.
    #[inline(always)]
    fn block<const N: usize>(&self, offset: usize, shots: &mut [BitString], ends: &mut [u64]) {
        let first = self.first.wrapping_add(offset as u64);
        let mut states: [u64; N] =
            std::array::from_fn(|lane| stream_seed(self.seed, first.wrapping_add(lane as u64)));
        draw_words(self.thresholds, &mut states, shots);
        if !ends.is_empty() {
            ends[offset..offset + shots.len()].copy_from_slice(&states[..shots.len()]);
        }
    }
}

/// The lane routine: one mean-field shot per stream in `states`, each
/// drawn exactly as that stream would draw it alone, one draw per qubit
/// in qubit order, each 64-qubit word accumulated in a register. Lane `i`
/// writes its words into `shots[i]`; lanes past `shots.len()` draw and
/// are dropped. On return every state has advanced past its shot's
/// draws.
#[inline(always)]
fn draw_words<const N: usize>(thresholds: &[u64], states: &mut [u64; N], shots: &mut [BitString]) {
    for (w, word_thresholds) in thresholds.chunks(64).enumerate() {
        let mut words = [0u64; N];
        if N == WIDE_SHOT_LANES {
            // Every lane keeps its own copy of the bit, so each step is
            // one operation on all lanes, which LLVM packs into one
            // register: a `vpcmpuq` into a mask, then a masked OR. With
            // one shared bit it packs the bit beside seven lanes' words.
            let mut bits = [1u64; N];
            for &t in word_thresholds {
                let lanes = words.iter_mut().zip(states.iter_mut()).zip(&mut bits);
                for ((word, state), bit) in lanes {
                    *word |= if (splitmix64(state) >> 11) < t {
                        *bit
                    } else {
                        0
                    };
                    *bit <<= 1;
                }
            }
        } else {
            let mut bit = 1u64;
            for &t in word_thresholds {
                // Set under a branch, not OR-ed in as a shifted bool: the
                // latter lets LLVM vectorise the one-lane instance over
                // qubits with SSE2 64-bit multiplies (`pmuludq`); this
                // form keeps it scalar.
                for (word, state) in words.iter_mut().zip(states.iter_mut()) {
                    if (splitmix64(state) >> 11) < t {
                        *word |= bit;
                    }
                }
                bit <<= 1;
            }
        }
        for (shot, word) in shots.iter_mut().zip(words) {
            shot.words_mut()[w] = word;
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
    /// only up to `FAST_EXACT_LIMIT` qubits, mean-field beyond. Deep
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
    /// off (default: on). Fused amplitudes stay within a rounding bound
    /// of unfused ones (see `crates/quantum/src/fuse.rs`) and sampled
    /// shots do not change; the flag is a performance toggle, exposed as
    /// `--no-fuse` at the CLI.
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Whether the exact backend is in use.
    pub fn is_exact(&self) -> bool {
        self.exact
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
            PreparedBackend::Exact(ExactTable::new(sv)?)
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
    use crate::statevector::C64;
    use std::f64::consts::{FRAC_PI_2, PI};

    impl MeanFieldState {
        /// Mean-field expectation of a Z product: the product of individual
        /// ⟨Z⟩ values.
        pub(crate) fn expectation_z_product(&self, qubits: &[u32]) -> f64 {
            qubits.iter().map(|&q| self.qubits[q as usize].z).product()
        }
    }

    /// The marginals `prepare` freezes into thresholds, as probabilities.
    fn marginals(c: &Circuit) -> Vec<f64> {
        let mut mf = MeanFieldState::new(c.n_qubits());
        mf.apply_circuit(c).unwrap();
        mf.qubits.iter().map(|b| (1.0 - b.z) / 2.0).collect()
    }

    /// Exact states of `n` qubits whose distributions stress a guide
    /// table: all mass on index 0, all on the last index, one spike
    /// inside, uniform mass over a subset (runs of equal cumulative
    /// values), and a dense state.
    fn guide_states(n: u32) -> Vec<StateVector> {
        let x = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
        let on = |qubits: &mut dyn Iterator<Item = u32>, f: &dyn Fn(&mut StateVector, u32)| {
            let mut sv = StateVector::new(n).unwrap();
            for q in qubits {
                f(&mut sv, q);
            }
            sv
        };
        vec![
            StateVector::new(n).unwrap(),
            on(&mut (0..n), &|sv, q| sv.apply_matrix2(q, x)),
            on(&mut (0..n).filter(|q| q % 3 == 1), &|sv, q| {
                sv.apply_matrix2(q, x)
            }),
            on(&mut (0..n).step_by(2), &|sv, q| sv.apply_ry(q, FRAC_PI_2)),
            on(&mut (0..n), &|sv, q| {
                sv.apply_ry(q, 0.3 + f64::from(q));
                sv.apply_rx(q, 1.1 - 0.4 * f64::from(q));
            }),
        ]
    }

    #[test]
    fn guide_lookups_find_the_partition_point_at_every_boundary() {
        for n in [0u32, 1, 2, 3, 5, 8, 12] {
            for sv in guide_states(n) {
                let (cumulative, total) = sv.cumulative_distribution().unwrap();
                let table = ExactTable::new(sv).unwrap();
                assert_eq!(table.total.to_bits(), total.to_bits());
                let last = cumulative.len() - 1;
                // Every cumulative value, every bucket edge, both ends of
                // the range and each one's neighbouring doubles.
                let mut draws = vec![0.0, total];
                draws.extend(cumulative.iter().copied());
                draws.extend((0..=cumulative.len()).map(|b| b as f64 / table.scale));
                for r in draws.clone() {
                    draws.extend([r.next_down(), r.next_up()]);
                }
                for r in draws.into_iter().filter(|r| (0.0..=total).contains(r)) {
                    let oracle = cumulative.partition_point(|&c| c < r).min(last);
                    assert_eq!(table.index_of(r), oracle, "{n} qubits, draw {r:e}");
                }
            }
        }
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
        let n = 3; // both callers build 3-qubit simulators
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
