//! Raw-bit properties of the kernel layer at every stride.
//!
//! `kernel_equiv.rs` checks the naive reference only after canonicalising
//! zero signs, and fused runs only within a rounding bound. These
//! properties compare the **raw** bits of every kernel instance this CPU
//! runs (baseline, AVX2, AVX-512, through `apply_plan_on`) with
//! references instead, zero signs and NaN payloads included; an instance
//! the CPU lacks is skipped with a printed note:
//!
//! - sequences of 1–6 single-kernel sweeps, every target qubit at widths
//!   1–14, every kernel class, on dense and on ±0-heavy sparse states,
//!   against a loop that applies the same arm expressions one pair at a
//!   time, one kernel after the other (and, for general kernels, against
//!   `apply_matrix2_reference`);
//! - every ordered CZ operand pair at widths 2–14 against
//!   `apply_cz_reference`, on states with lanes of ±0, ±∞, NaN and
//!   subnormals;
//! - a two-qubit block sweep on every ordered qubit pair at widths 3–14,
//!   on dense and sparse states, against `apply_matrix4_reference`: 8 and
//!   16 amplitudes, every pair that holds qubit 0, 1 or 2 (the 4-lane
//!   gathers and the 8-lane permutes) and every pair of higher qubits
//!   (4- and 8-lane quarters).

use qtenon_prop::{check, Gen};
use qtenon_quantum::fuse::{ExecPlan, FuseStats, PlanOp};
use qtenon_quantum::kernels::{compose, mat_rx, mat_ry, mat_rz, Kernel1Q, KernelInstance, Mat4};
use qtenon_quantum::statevector::C64;
use qtenon_quantum::StateVector;
use std::f64::consts::{FRAC_PI_2, PI};

/// The widest state the properties run: 2¹⁴ amplitudes, past the
/// `qaoa12-exact` benchmark's 12 qubits, so that every kernel path meets
/// blocks of 2¹³ amplitudes and more.
const MAX_QUBITS: u32 = 14;

/// Rotation angles whose matrices carry exact zeros and signed zeros,
/// plus generic ones. Past ±π an RY row turns all-negative, so it sweeps
/// `+0.0` lanes to `-0.0`.
const EDGE_ANGLES: [f64; 10] = [
    0.0,
    -0.0,
    FRAC_PI_2,
    -FRAC_PI_2,
    PI,
    -PI,
    2.0 * PI,
    0.7,
    -2.9,
    4.0,
];

/// Every kernel the single-qubit property draws from, grouped by class:
/// RZ is `Diag`, RY `Real`, RX `Cross` (RX(-0.0) alone is `Diag`), and
/// RX·RZ `General`.
fn kernel_pool() -> [Vec<Kernel1Q>; 4] {
    let of = |mat: fn(f64) -> [[C64; 2]; 2]| {
        EDGE_ANGLES
            .iter()
            .map(|&t| Kernel1Q::from_matrix(mat(t)))
            .collect::<Vec<_>>()
    };
    let general = EDGE_ANGLES
        .iter()
        .map(|&t| Kernel1Q::from_matrix(compose(&mat_rx(t), &mat_rz(0.3))))
        .collect();
    let pool = [of(mat_rz), of(mat_ry), of(mat_rx), general];
    for (kernels, class) in pool.iter().zip(["Diag", "Real", "Cross", "General"]) {
        assert!(
            kernels.iter().any(|k| format!("{k:?}").starts_with(class)),
            "no {class} kernel in the pool"
        );
    }
    pool
}

/// One kernel on one pair: the expressions of `sweep`'s arm for its class.
fn oracle_pair(k: &Kernel1Q, a0: C64, a1: C64) -> (C64, C64) {
    match *k {
        Kernel1Q::Diag { d0, d1 } => (d0 * a0, d1 * a1),
        Kernel1Q::Real { m } => (
            C64::new(
                m[0][0] * a0.re + m[0][1] * a1.re,
                m[0][0] * a0.im + m[0][1] * a1.im,
            ),
            C64::new(
                m[1][0] * a0.re + m[1][1] * a1.re,
                m[1][0] * a0.im + m[1][1] * a1.im,
            ),
        ),
        Kernel1Q::Cross { c0, c1, s01, s10 } => (
            C64::new(c0 * a0.re - s01 * a1.im, c0 * a0.im + s01 * a1.re),
            C64::new(-(s10 * a0.im) + c1 * a1.re, s10 * a0.re + c1 * a1.im),
        ),
        Kernel1Q::General { m } => (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1),
    }
}

/// A run of kernels on qubit `q`, one pair at a time, one full pass per
/// kernel.
fn oracle_run(amps: &mut [C64], q: u32, kernels: &[Kernel1Q]) {
    let stride = 1usize << q;
    for k in kernels {
        for i in (0..amps.len()).filter(|i| i & stride == 0) {
            (amps[i], amps[i | stride]) = oracle_pair(k, amps[i], amps[i | stride]);
        }
    }
}

fn amplitudes(sv: &StateVector) -> Vec<C64> {
    (0..1usize << sv.n_qubits())
        .map(|i| sv.amplitude(i))
        .collect()
}

fn raw_bits(amps: &[C64]) -> Vec<(u64, u64)> {
    amps.iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

fn exec_plan(ops: Vec<PlanOp>) -> ExecPlan {
    ExecPlan {
        ops,
        stats: FuseStats::default(),
    }
}

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

/// `plan` through the dispatched instance and each of `instances`.
fn every_instance(
    instances: &[KernelInstance],
    start: &StateVector,
    plan: &ExecPlan,
) -> Vec<(String, Vec<C64>)> {
    let mut dispatched = start.clone();
    dispatched.apply_plan(plan);
    let mut out = vec![("apply_plan".to_string(), amplitudes(&dispatched))];
    for &instance in instances {
        let mut sv = start.clone();
        sv.apply_plan_on(plan, instance);
        out.push((format!("apply_plan_on({instance:?})"), amplitudes(&sv)));
    }
    out
}

/// A state with no zero amplitude.
fn dense_state(n: u32) -> StateVector {
    let mut sv = StateVector::new(n).unwrap();
    for q in 0..n {
        sv.apply_ry(q, 0.4 + 0.3 * f64::from(q));
        sv.apply_rx(q, 0.9 - 0.2 * f64::from(q));
    }
    sv
}

/// A state grown from |0…0⟩ by edge-angle rotations on a random subset
/// of qubits: most amplitudes are exact zeros, many of them `-0.0`.
fn sparse_state(g: &mut Gen, n: u32) -> StateVector {
    let mut sv = StateVector::new(n).unwrap();
    for q in 0..n {
        match g.draw(0u8..7) {
            0 => sv.apply_ry(q, FRAC_PI_2),
            1 => sv.apply_rx(q, -PI),
            2 => sv.apply_rx(q, FRAC_PI_2),
            3 => sv.apply_ry(q, -PI),
            4 => sv.apply_rz(q, PI),
            5 => sv.apply_ry(q, 2.0 * PI),
            _ => {}
        }
    }
    sv
}

#[test]
fn kernel_runs_match_pairwise_oracle_raw_bits_at_every_stride() {
    let instances = instances();
    let pool = kernel_pool();
    let targets: Vec<(u32, u32)> = (1..=MAX_QUBITS)
        .flat_map(|n| (0..n).map(move |q| (n, q)))
        .collect();
    // Eight rounds over every (width, target): each round leads its runs
    // with a kernel of one class, on a dense (rounds 0–3) or a sparse
    // (rounds 4–7) start state.
    let cases = 8 * targets.len();
    let (mut case, mut negative_zeros) = (0, 0);
    check(
        "kernel_runs_match_pairwise_oracle_raw_bits_at_every_stride",
        cases as u32,
        |g| {
            let (n, q) = targets[case % targets.len()];
            let round = case / targets.len();
            case += 1;
            let start = if round < 4 {
                dense_state(n)
            } else {
                sparse_state(g, n)
            };
            let len = g.draw(1usize..=6);
            let kernels: Vec<Kernel1Q> = (0..len)
                .map(|j| {
                    let class = if j == 0 { round % 4 } else { g.draw(0usize..4) };
                    g.select(&pool[class])
                })
                .collect();
            let mut expected = amplitudes(&start);
            oracle_run(&mut expected, q, &kernels);
            if kernels
                .iter()
                .all(|k| matches!(k, Kernel1Q::General { .. }))
            {
                // General kernels sweep as the scanning reference does.
                let mut reference = start.clone();
                for k in &kernels {
                    reference.apply_matrix2_reference(q, k.matrix());
                }
                assert_eq!(
                    raw_bits(&amplitudes(&reference)),
                    raw_bits(&expected),
                    "apply_matrix2_reference, {kernels:?} on qubit {q} of {n}"
                );
            }
            negative_zeros += expected
                .iter()
                .flat_map(|a| [a.re, a.im])
                .filter(|x| x.to_bits() == (-0.0f64).to_bits())
                .count();
            let plan = exec_plan(
                kernels
                    .iter()
                    .map(|k| PlanOp::Run {
                        qubit: q,
                        kernel: *k,
                    })
                    .collect(),
            );
            for (instance, got) in every_instance(&instances, &start, &plan) {
                assert_eq!(
                    raw_bits(&got),
                    raw_bits(&expected),
                    "{instance}, sweeps of {kernels:?} on qubit {q} of {n}"
                );
            }
        },
    );
    assert!(negative_zeros > 0, "no run produced a -0.0");
}

/// Lane values a CZ must carry through with their exact bits.
const SPECIALS: [f64; 9] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1e-310,
    -1e-300,
    1.0,
    -1.0,
];

/// A dense state whose amplitudes are scaled, per bit of 1–3 random
/// qubits, by special factors: the lanes mix ±0, ±∞, NaN, subnormals and
/// finite values, interleaved at the strides of the scaled qubits.
fn special_state(g: &mut Gen, n: u32) -> StateVector {
    let mut sv = dense_state(n);
    for _ in 0..g.draw(1u32..=3) {
        let q = g.draw(0..n);
        let [d0, d1] = [g.select(&SPECIALS), g.select(&SPECIALS)].map(|x| C64::new(x, 0.0));
        sv.apply_matrix2(q, [[d0, C64::ZERO], [C64::ZERO, d1]]);
    }
    sv
}

#[test]
fn cz_matches_scanning_reference_raw_bits_on_special_lanes() {
    let instances = instances();
    // Which lane kinds the generated states held: +0, -0, +∞, -∞, NaN,
    // subnormal.
    let mut seen = [false; 6];
    check(
        "cz_matches_scanning_reference_raw_bits_on_special_lanes",
        8,
        |g| {
            for n in 2..=MAX_QUBITS {
                let start = special_state(g, n);
                for a in amplitudes(&start) {
                    for x in [a.re, a.im] {
                        let kind = [
                            x.to_bits() == 0,
                            x.to_bits() == (-0.0f64).to_bits(),
                            x == f64::INFINITY,
                            x == f64::NEG_INFINITY,
                            x.is_nan(),
                            x.is_subnormal(),
                        ];
                        for (seen, hit) in seen.iter_mut().zip(kind) {
                            *seen |= hit;
                        }
                    }
                }
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        let mut reference = start.clone();
                        reference.apply_cz_reference(a, b);
                        let expected = raw_bits(&amplitudes(&reference));
                        let mut single = start.clone();
                        single.apply_cz(a, b);
                        assert_eq!(
                            raw_bits(&amplitudes(&single)),
                            expected,
                            "apply_cz({a}, {b}) on {n} qubits"
                        );
                        let plan = exec_plan(vec![PlanOp::Cz { a, b }]);
                        for (instance, got) in every_instance(&instances, &start, &plan) {
                            assert_eq!(
                                raw_bits(&got),
                                expected,
                                "{instance}, CZ({a}, {b}) on {n} qubits"
                            );
                        }
                    }
                }
            }
        },
    );
    assert_eq!(
        seen, [true; 6],
        "lane kinds +0, -0, +inf, -inf, NaN, subnormal"
    );
}

#[test]
fn block_sweeps_match_the_reference_raw_bits_on_every_ordered_pair() {
    // Widths 3–14, each ordered pair `(a, b)` once per start state. A
    // block names its pair ascending, so `(a, b)` and `(b, a)` are two
    // draws of a matrix for the same pair.
    let instances = instances();
    let cases: Vec<(u32, u32, u32)> = (3..=MAX_QUBITS)
        .flat_map(|n| {
            (0..n).flat_map(move |a| (0..n).filter(move |&b| b != a).map(move |b| (n, a, b)))
        })
        .collect();
    let pool = kernel_pool();
    let mut case = 0;
    check(
        "block_sweeps_match_the_reference_raw_bits_on_every_ordered_pair",
        2 * cases.len() as u32,
        |g| {
            let (n, a, b) = cases[case % cases.len()];
            let dense = case < cases.len();
            case += 1;
            let start = if dense {
                dense_state(n)
            } else {
                sparse_state(g, n)
            };
            // Entries drawn from edge-angle rotation entries and generic
            // values, none forced equal to its transpose.
            let m: Mat4 = std::array::from_fn(|_| {
                let class = g.draw(0usize..4);
                let row = g.select(&pool[class]).matrix();
                let other = g.select(&pool[3]).matrix();
                [row[0][0], other[1][0], row[1][1], other[0][1]]
            });
            let (lo, hi) = (a.min(b), a.max(b));
            let mut reference = start.clone();
            reference.apply_matrix4_reference(lo, hi, m);
            let expected = raw_bits(&amplitudes(&reference));
            let plan = exec_plan(vec![PlanOp::Block2 { lo, hi, kernel: m }]);
            for (instance, got) in every_instance(&instances, &start, &plan) {
                assert_eq!(
                    raw_bits(&got),
                    expected,
                    "{instance}, block on ({a}, {b}) of {n} qubits, dense={dense}"
                );
            }
        },
    );
}
