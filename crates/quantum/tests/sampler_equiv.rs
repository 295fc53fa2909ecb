//! The block shot sampler against a per-shot oracle.
//!
//! The oracle is the sampler as it was before shots were drawn in blocks,
//! exact draws went through a guide table and mean-field draws became
//! integer compares: one shot at a time, an exact shot as one inverse-CDF
//! draw (`partition_point` over the cumulative table), a mean-field shot
//! as one `rng::unit(state) < p` per qubit. Every sampling entry point
//! must reproduce it bit for bit and leave every stream where the oracle
//! leaves it, on random circuits and on the degenerate exact
//! distributions a guide table handles at its edges. Mean-field ranges
//! are drawn through every kernel instance this CPU runs (an instance it
//! lacks is skipped with a printed note), and each must match the
//! baseline instance and the oracle bit for bit.

use qtenon_prop::check;
use qtenon_quantum::kernels::KernelInstance;
use qtenon_quantum::sim::{MeanFieldState, PreparedCircuit, Simulator, WIDE_SHOT_LANES};
use qtenon_quantum::{fuse, BitString, Circuit, StateVector};
use qtenon_sim_engine::rng;

/// The frozen distribution the oracle draws from.
enum Oracle {
    Exact { cumulative: Vec<f64>, total: f64 },
    MeanField { p1: Vec<f64> },
}

impl Oracle {
    fn new(sim: &Simulator, circuit: &Circuit) -> Self {
        let n = circuit.n_qubits();
        if sim.is_exact() {
            let mut sv = StateVector::new(n).unwrap();
            sv.apply_plan(&fuse::plan(circuit, true).unwrap());
            let (cumulative, total) = sv.cumulative_distribution().unwrap();
            Oracle::Exact { cumulative, total }
        } else {
            let mut mf = MeanFieldState::new(n);
            mf.apply_circuit(circuit).unwrap();
            Oracle::MeanField {
                p1: (0..n).map(|q| (1.0 - mf.expectation_z(q)) / 2.0).collect(),
            }
        }
    }

    /// One shot from `state`, drawn the per-shot, floating-point way.
    fn shot(&self, n: u32, state: &mut u64) -> BitString {
        match self {
            Oracle::Exact { cumulative, total } => {
                let r = rng::unit(state) * total;
                let idx = cumulative.partition_point(|&c| c < r);
                BitString::from_u64(idx.min(cumulative.len() - 1) as u64, n)
            }
            Oracle::MeanField { p1 } => {
                let mut bits = BitString::zeros(n);
                for (q, &p) in p1.iter().enumerate() {
                    if rng::unit(state) < p {
                        bits.set(q as u32, true);
                    }
                }
                bits
            }
        }
    }
}

/// A random native circuit: rotations of any angle, including the ones
/// that pin a marginal at exactly 0 or 1, and CZs.
fn random_circuit(g: &mut qtenon_prop::Gen, n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..g.draw(0..3 * n as usize + 4) {
        let q = g.draw(0..n);
        let theta = if g.draw(0u8..4) == 0 {
            g.select(&[0.0, std::f64::consts::PI, -std::f64::consts::PI])
        } else {
            g.draw(-7.0f64..7.0)
        };
        match g.draw(0u8..4) {
            0 => c.rx(q, theta),
            1 => c.ry(q, theta),
            2 => c.rz(q, theta),
            _ if n > 1 => c.cz(q, (q + 1 + g.draw(0..n - 1)) % n),
            _ => c.ry(q, theta),
        };
    }
    c.measure_all();
    c
}

/// Shot counts covering every remainder modulo the lane count, plus one
/// run long enough to be mostly whole blocks.
const SHOT_COUNTS: [u64; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1_000];

/// The kernel instances this CPU runs; a note names each one it lacks.
fn instances() -> Vec<KernelInstance> {
    KernelInstance::ALL
        .into_iter()
        .filter(|&instance| {
            let available = instance.is_available();
            if !available {
                println!("note: this CPU cannot run the {instance:?} kernel instance; skipped");
            }
            available
        })
        .collect()
}

/// Global shots `first..first + shots` drawn by the oracle, with each
/// stream's end state.
fn oracle_range(
    oracle: &Oracle,
    sim: &Simulator,
    n: u32,
    first: u64,
    shots: u64,
) -> (Vec<BitString>, Vec<u64>) {
    (first..first + shots)
        .map(|s| {
            let mut state = sim.shot_rng(s);
            (oracle.shot(n, &mut state), state)
        })
        .unzip()
}

#[test]
fn block_sampler_matches_the_per_shot_oracle() {
    check("block_sampler_matches_the_per_shot_oracle", 96, |g| {
        // (width, exact backend?)
        let exact = g.bool();
        let n = if exact {
            g.select(&[1u32, 16])
        } else {
            g.select(&[1u32, 16, 64, 65, 130])
        };
        let seed = g.u64();
        let sim = if exact {
            Simulator::auto(n, seed)
        } else {
            Simulator::mean_field(n, seed)
        };
        assert_eq!(sim.is_exact(), exact);
        let circuit = random_circuit(g, n);
        let prepared: PreparedCircuit = sim.prepare(&circuit).unwrap();
        let oracle = Oracle::new(&sim, &circuit);
        let shots = g.select(&SHOT_COUNTS);
        let first = g.draw(0u64..1 << 40);

        let expected: Vec<BitString> = (first..first + shots)
            .map(|s| oracle.shot(n, &mut sim.shot_rng(s)))
            .collect();
        assert_eq!(
            prepared.sample_range(&sim, first, shots),
            expected,
            "sample_range: {n} qubits, exact {exact}, {shots} shots"
        );

        // One single shot: the same bits, and its stream left exactly
        // where the oracle leaves it.
        let (mut one, mut oracle_one) = (sim.shot_rng(first), sim.shot_rng(first));
        assert_eq!(
            prepared.sample_shot(&mut one),
            oracle.shot(n, &mut oracle_one)
        );
        assert_eq!(one, oracle_one, "sample_shot end state");
    });
}

#[test]
fn simulator_run_matches_the_per_shot_oracle() {
    check("simulator_run_matches_the_per_shot_oracle", 32, |g| {
        let n = g.select(&[1u32, 16, 64, 65, 130]);
        let mut sim = Simulator::fast(n, g.u64());
        let circuit = random_circuit(g, n);
        let oracle = Oracle::new(&sim, &circuit);
        // A first run moves the shot cursor, so the second starts mid-way.
        let warmup = g.select(&SHOT_COUNTS);
        sim.run(&circuit, warmup).unwrap();
        let shots = g.select(&SHOT_COUNTS);
        let expected: Vec<BitString> = (warmup..warmup + shots)
            .map(|s| oracle.shot(n, &mut sim.shot_rng(s)))
            .collect();
        assert_eq!(sim.run(&circuit, shots).unwrap(), expected);
    });
}

/// Circuits whose exact distributions are degenerate for a guide table,
/// at `n` qubits: all mass on index 0 (no gate), a single spike (RX(π) on
/// a subset; `cos(π/2)` leaves ~1e-33 of mass on the other states, all
/// of it in the first bucket), the spike on the last index (RX(π) on
/// every qubit), and uniform mass over a subset with exact zeros
/// everywhere else (RY(π/2) on a subset: long runs of equal cumulative
/// values).
fn degenerate_circuits(g: &mut qtenon_prop::Gen, n: u32) -> Vec<(&'static str, Circuit)> {
    let subset: Vec<u32> = (0..n).filter(|_| g.bool()).collect();
    let zero = Circuit::new(n);
    let mut spike = Circuit::new(n);
    let mut last = Circuit::new(n);
    let mut uniform = Circuit::new(n);
    for &q in &subset {
        spike.rx(q, std::f64::consts::PI);
        uniform.ry(q, std::f64::consts::FRAC_PI_2);
    }
    for q in 0..n {
        last.rx(q, std::f64::consts::PI);
    }
    let mut out = vec![
        ("all mass on index 0", zero),
        ("one spike", spike),
        ("spike on the last index", last),
        ("uniform over a subset", uniform),
    ];
    for (_, c) in &mut out {
        c.measure_all();
    }
    out
}

#[test]
fn exact_draws_match_the_oracle_on_degenerate_distributions() {
    check(
        "exact_draws_match_the_oracle_on_degenerate_distributions",
        48,
        |g| {
            for n in 1..=12u32 {
                let sim = Simulator::auto(n, g.u64());
                assert!(sim.is_exact());
                for (what, circuit) in degenerate_circuits(g, n) {
                    let prepared = sim.prepare(&circuit).unwrap();
                    let oracle = Oracle::new(&sim, &circuit);
                    let first = g.draw(0u64..1 << 40);
                    // Raw indices and end states, shot by shot.
                    for s in first..first + 64 {
                        let (mut one, mut oracle_one) = (sim.shot_rng(s), sim.shot_rng(s));
                        assert_eq!(
                            prepared.sample_shot(&mut one).words(),
                            oracle.shot(n, &mut oracle_one).words(),
                            "sample_shot: {what}, {n} qubits, shot {s}"
                        );
                        assert_eq!(one, oracle_one, "sample_shot end state: {what}, {n} qubits");
                    }
                    let expected: Vec<BitString> = (first..first + 257)
                        .map(|s| oracle.shot(n, &mut sim.shot_rng(s)))
                        .collect();
                    assert_eq!(
                        prepared.sample_range(&sim, first, 257),
                        expected,
                        "sample_range: {what}, {n} qubits"
                    );
                }
            }
        },
    );
}

/// A mean-field circuit of `n` qubits whose marginals saturate: each
/// qubit is left at |0⟩ (`p = 0`, threshold 0, never fires), flipped by
/// RX(π) or RY(π) (`p = 1`, threshold 2⁵³, always fires) or rotated by a
/// random angle, then a few CZs entangle random pairs.
fn saturating_circuit(g: &mut qtenon_prop::Gen, n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        match g.draw(0u8..4) {
            0 => {}
            1 => {
                c.rx(q, std::f64::consts::PI);
            }
            2 => {
                c.ry(q, std::f64::consts::PI);
            }
            _ => {
                c.ry(q, g.draw(-7.0f64..7.0));
            }
        }
    }
    for _ in 0..g.draw(0..n as usize) {
        let q = g.draw(0..n);
        if n > 1 {
            c.cz(q, (q + 1 + g.draw(0..n - 1)) % n);
        }
    }
    c.measure_all();
    c
}

#[test]
fn every_sampling_instance_draws_the_oracle_raw_bits() {
    let instances = instances();
    assert!(instances.contains(&KernelInstance::Baseline));
    // Every remainder modulo both lane counts, twice, a VQA evaluation's
    // 100 shots (12 full vectors and 4 shots) and one long run.
    let counts: Vec<u64> = (0..=2 * WIDE_SHOT_LANES as u64 + 1)
        .chain([100, 1_000])
        .collect();
    // Qubits seen with marginal exactly 0 and exactly 1.
    let mut saturated = [0usize; 2];
    check(
        "every_sampling_instance_draws_the_oracle_raw_bits",
        8,
        |g| {
            for n in [1u32, 16, 63, 64, 65, 128, 130, 320] {
                let sim = Simulator::mean_field(n, g.u64());
                let circuit = saturating_circuit(g, n);
                let prepared = sim.prepare(&circuit).unwrap();
                let oracle = Oracle::new(&sim, &circuit);
                let Oracle::MeanField { p1 } = &oracle else {
                    unreachable!("a mean-field simulator");
                };
                saturated[0] += p1.iter().filter(|&&p| p == 0.0).count();
                saturated[1] += p1.iter().filter(|&&p| p == 1.0).count();
                for &shots in &counts {
                    let first = g.draw(0u64..1 << 40);
                    let (oracle_bits, oracle_ends) = oracle_range(&oracle, &sim, n, first, shots);
                    let baseline =
                        prepared.sample_range_on(KernelInstance::Baseline, &sim, first, shots);
                    for &instance in &instances {
                        let (bits, ends) = prepared.sample_range_on(instance, &sim, first, shots);
                        let what = format!("{instance:?}: {n} qubits, {shots} shots from {first}");
                        assert_eq!(bits, baseline.0, "{what}: against the baseline");
                        assert_eq!(ends, baseline.1, "{what}: end states against the baseline");
                        assert_eq!(bits, oracle_bits, "{what}: against the oracle");
                        assert_eq!(ends, oracle_ends, "{what}: end states against the oracle");
                    }
                    assert_eq!(
                        prepared.sample_range(&sim, first, shots),
                        oracle_bits,
                        "sample_range"
                    );
                }
            }
        },
    );
    assert!(
        saturated.iter().all(|&k| k > 0),
        "saturated marginals {saturated:?}"
    );
}
