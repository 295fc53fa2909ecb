//! The block shot sampler against a per-shot oracle.
//!
//! The oracle is the sampler as it was before shots were drawn in blocks,
//! exact draws went through a guide table and mean-field draws became
//! integer compares: one shot at a time, an exact shot as one inverse-CDF
//! draw (`partition_point` over the cumulative table), a mean-field shot
//! as one `rng::unit(state) < p` per qubit. Every sampling entry point
//! must reproduce it bit for bit and leave every stream where the oracle
//! leaves it, on random circuits and on the degenerate exact
//! distributions a guide table handles at its edges.

use qtenon_prop::check;
use qtenon_quantum::sim::{MeanFieldState, PreparedCircuit, Simulator, SHOT_LANES};
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

        // One block and one single shot: the same bits, and every stream
        // left exactly where the oracle leaves it.
        let mut states: [u64; SHOT_LANES] =
            std::array::from_fn(|lane| sim.shot_rng(first + lane as u64));
        let mut oracle_states = states;
        let block = prepared.sample_lanes(&mut states);
        for (lane, (bits, state)) in block.iter().zip(&mut oracle_states).enumerate() {
            assert_eq!(*bits, oracle.shot(n, state), "lane {lane}");
        }
        assert_eq!(states, oracle_states, "stream end states");
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
                    let mut states: [u64; SHOT_LANES] =
                        std::array::from_fn(|lane| sim.shot_rng(first + lane as u64));
                    let mut oracle_states = states;
                    let block = prepared.sample_lanes(&mut states);
                    for (lane, (bits, state)) in block.iter().zip(&mut oracle_states).enumerate() {
                        assert_eq!(
                            bits.words(),
                            oracle.shot(n, state).words(),
                            "sample_lanes: {what}, {n} qubits, lane {lane}"
                        );
                    }
                    assert_eq!(states, oracle_states, "sample_lanes end states: {what}");
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
