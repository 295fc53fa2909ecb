//! Differential kernel-equivalence harness.
//!
//! Runs two seeded sweeps of native circuits — random rotations/CZs, and
//! transpiled H/CX circuits with edge angles whose matrices and states
//! are full of exact and signed zeros — through three executions:
//!
//! (a) the **naive reference**: `apply_matrix2_reference` /
//!     `apply_cz_reference`, the scanning loops gate application used
//!     before the kernel layer existed;
//! (b) the **per-gate kernels**: the unfused plan (every gate its own
//!     classified kernel sweep) — what `apply_circuit` runs today;
//! (c) the **fused plan**: each qubit's runs multiplied into one 2×2
//!     kernel, and each two-qubit block that pays multiplied into one 4×4
//!     kernel, each swept once.
//!
//! and asserts:
//!
//! - (a) vs (b) bitwise after canonicalizing IEEE signed zeros
//!   (`-0.0 → +0.0`) and proving no NaNs: the diagonal, real and cross
//!   kernels drop products with `+0.0` matrix components, whose only
//!   observable effect is the sign of exactly-zero results, and every
//!   downstream artefact (probabilities, expectations, samples) squares
//!   that sign away;
//! - (b) vs (c) within `FuseStats::composition_bound`, the rounding
//!   bound DESIGN.md §13 derives from the plan's counts; plans without a
//!   run of two or more or a kept block are identical, and so are their
//!   bits.
//!
//! Sampled artefacts (the bitstrings jobs actually consume) must match
//! **byte-for-byte across all three paths**, serial and sharded — the
//! suite reads `QTENON_THREADS` so the CI determinism matrix exercises
//! both pool widths.
//!
//! Finally, every kernel instance the CPU runs (baseline, AVX2, AVX-512)
//! must be raw bitwise identical to the baseline-target instance, and
//! each must sweep a block exactly as `apply_matrix4_reference` does.

use qtenon_quantum::fuse::{plan, run_matrix, ExecPlan, FuseStats, PlanOp};
use qtenon_quantum::kernels::{
    compose, lift, mat_rx, mat_ry, mat_rz, Kernel1Q, KernelInstance, Mat4, IDENTITY4,
};
use qtenon_quantum::sim::Simulator;
use qtenon_quantum::statevector::C64;
use qtenon_quantum::{transpile, Angle, BitString, Circuit, Gate, StateVector};
use qtenon_sim_engine::rng::{splitmix64, unit};
use std::f64::consts::{FRAC_PI_2, PI};

/// Circuits per property sweep (the ISSUE floor is 200).
const CIRCUITS: usize = 200;

/// Builds a random native circuit at 2–10 qubits: rotations, CZs, and
/// interleaved measurements, with angles drawn from [-π, π).
fn random_circuit(seed: u64) -> Circuit {
    let mut r = seed;
    let n_qubits = 2 + (seed % 9) as u32; // 2..=10
    let mut c = Circuit::new(n_qubits);
    let ops = 20 + (splitmix64(&mut r) % 31) as usize;
    for _ in 0..ops {
        let q = (splitmix64(&mut r) % u64::from(n_qubits)) as u32;
        let theta = (unit(&mut r) * 2.0 - 1.0) * PI;
        match splitmix64(&mut r) % 8 {
            0 | 1 => c.rx(q, theta),
            2 | 3 => c.ry(q, theta),
            4 | 5 => c.rz(q, theta),
            6 => {
                let q2 = (q + 1 + (splitmix64(&mut r) % u64::from(n_qubits - 1)) as u32) % n_qubits;
                c.cz(q, q2)
            }
            _ => c.measure(q),
        };
    }
    c.measure_all();
    c
}

/// Rotation angles whose matrices carry exact zeros and signed zeros.
const EDGE_ANGLES: [f64; 6] = [0.0, -0.0, FRAC_PI_2, -FRAC_PI_2, PI, -PI];

/// Builds a random logical circuit at 2–10 qubits from H, CX, edge-angle
/// rotations and measurements, lowered to the native gate set
/// (H → RZ(π)·RY(π/2), CX → H·CZ·H): every kernel class runs on states
/// where most amplitudes are exact zeros.
fn edge_circuit(seed: u64) -> Circuit {
    let mut r = seed ^ 0xED6E_A461;
    let n_qubits = 2 + (seed % 9) as u32; // 2..=10
    let mut c = Circuit::new(n_qubits);
    let ops = 20 + (splitmix64(&mut r) % 31) as usize;
    for _ in 0..ops {
        let q = (splitmix64(&mut r) % u64::from(n_qubits)) as u32;
        let theta = EDGE_ANGLES[(splitmix64(&mut r) % EDGE_ANGLES.len() as u64) as usize];
        match splitmix64(&mut r) % 6 {
            0 => c.h(q),
            1 => {
                let q2 = (q + 1 + (splitmix64(&mut r) % u64::from(n_qubits - 1)) as u32) % n_qubits;
                c.cx(q, q2)
            }
            2 => c.rx(q, theta),
            3 => c.ry(q, theta),
            4 => c.rz(q, theta),
            _ => c.measure(q),
        };
    }
    c.measure_all();
    transpile::to_native(&c).unwrap()
}

/// A named, seeded circuit generator.
type Sweep = (&'static str, fn(u64) -> Circuit);

/// The circuit sweeps every property below runs.
const SWEEPS: [Sweep; 2] = [
    ("random", random_circuit),
    ("edge-angle H/CX", edge_circuit),
];

/// Path (a): the naive pre-kernel loops, gate by gate.
fn reference_state(c: &Circuit) -> StateVector {
    let mut sv = StateVector::new(c.n_qubits()).unwrap();
    for op in c.operations() {
        match op.gate {
            Gate::Rx(Angle::Value(v)) => sv.apply_matrix2_reference(op.qubit, mat_rx(v)),
            Gate::Ry(Angle::Value(v)) => sv.apply_matrix2_reference(op.qubit, mat_ry(v)),
            Gate::Rz(Angle::Value(v)) => sv.apply_matrix2_reference(op.qubit, mat_rz(v)),
            Gate::Cz => sv.apply_cz_reference(op.qubit, op.qubit2.expect("CZ has two operands")),
            Gate::Measure => {}
            ref g => panic!("non-native gate {g:?} in random circuit"),
        }
    }
    sv
}

/// Executes a circuit through the kernel layer, fused or not.
fn kernel_state(c: &Circuit, fuse: bool) -> StateVector {
    let p = plan(c, fuse).unwrap();
    let mut sv = StateVector::new(c.n_qubits()).unwrap();
    sv.apply_plan(&p);
    sv
}

/// Raw amplitude bits, zero signs and all.
fn raw_bits(sv: &StateVector) -> Vec<(u64, u64)> {
    (0..1usize << sv.n_qubits())
        .map(|i| {
            let a = sv.amplitude(i);
            (a.re.to_bits(), a.im.to_bits())
        })
        .collect()
}

/// Amplitude bits with IEEE signed zeros canonicalized; rejects NaN.
fn canonical_bits(sv: &StateVector) -> Vec<(u64, u64)> {
    let canon = |x: f64| {
        assert!(!x.is_nan(), "NaN amplitude");
        if x == 0.0 {
            0.0f64.to_bits()
        } else {
            x.to_bits()
        }
    };
    (0..1usize << sv.n_qubits())
        .map(|i| {
            let a = sv.amplitude(i);
            (canon(a.re), canon(a.im))
        })
        .collect()
}

/// The 2-norm of the difference of two states.
fn distance(a: &StateVector, b: &StateVector) -> f64 {
    (0..1usize << a.n_qubits())
        .map(|i| {
            let (x, y) = (a.amplitude(i), b.amplitude(i));
            (x.re - y.re).powi(2) + (x.im - y.im).powi(2)
        })
        .sum::<f64>()
        .sqrt()
}

/// Fused execution within the composition bound of the per-gate plan.
fn assert_fused_within_bound(c: &Circuit, what: &str) {
    let bound = plan(c, true).unwrap().stats.composition_bound();
    let d = distance(&kernel_state(c, false), &kernel_state(c, true));
    assert!(
        d <= bound,
        "{what}: fused is {d:e} from unfused, bound {bound:e}"
    );
}

/// Samples `shots` bitstrings from a frozen statevector with the same
/// per-shot RNG streams the simulator uses.
fn sample_from_state(sv: &StateVector, sim: &Simulator, shots: u64) -> Vec<BitString> {
    let (cumulative, total) = sv.cumulative_distribution().unwrap();
    (0..shots)
        .map(|s| {
            let r = unit(&mut sim.shot_rng(s)) * total;
            let idx = cumulative.partition_point(|&c| c < r);
            BitString::from_u64(idx.min(cumulative.len() - 1) as u64, sv.n_qubits())
        })
        .collect()
}

/// The pool width the CI determinism matrices select (1, 4 or 6).
fn matrix_threads() -> u64 {
    std::env::var("QTENON_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1)
}

#[test]
fn fused_execution_stays_within_the_composition_bound() {
    let (mut composed, mut blocks) = (0, 0);
    for (sweep, circuit) in SWEEPS {
        for seed in 0..CIRCUITS as u64 {
            let c = circuit(seed);
            assert_fused_within_bound(&c, &format!("{sweep} seed {seed}"));
            let stats = plan(&c, true).unwrap().stats;
            composed += stats.fused_runs;
            blocks += stats.blocks;
        }
    }
    assert!(composed > 0, "no sweep composed a run");
    assert!(blocks > 0, "no sweep kept a block");
}

#[test]
fn kernel_execution_matches_naive_reference_bitwise() {
    for (sweep, circuit) in SWEEPS {
        for seed in 0..CIRCUITS as u64 {
            let c = circuit(seed);
            let reference = reference_state(&c);
            let kernel = kernel_state(&c, false);
            assert_eq!(
                canonical_bits(&reference),
                canonical_bits(&kernel),
                "{sweep} seed {seed}: kernels diverged from the naive reference"
            );
        }
    }
}

#[test]
fn sampled_artefacts_agree_across_all_three_paths_and_shard_cuts() {
    let threads = matrix_threads();
    // A subset of the sweep with real shot sampling: the artefact jobs
    // actually consume, compared byte-for-byte.
    for (sweep, circuit) in SWEEPS {
        for seed in (0..CIRCUITS as u64).step_by(16) {
            let c = circuit(seed);
            let n = c.n_qubits();
            let shots = 48u64;
            let sim = Simulator::auto(n, 7 + seed);
            let reference = sample_from_state(&reference_state(&c), &sim, shots);
            for fuse in [true, false] {
                let prepared = Simulator::auto(n, 7 + seed)
                    .with_fusion(fuse)
                    .prepare(&c)
                    .unwrap();
                let serial: Vec<BitString> = (0..shots)
                    .map(|s| prepared.sample_shot(&mut sim.shot_rng(s)))
                    .collect();
                assert_eq!(
                    serial, reference,
                    "{sweep} seed {seed} fuse={fuse}: artefacts"
                );
                // Shard the shot range the way the parallel engine does:
                // contiguous chunks, reassembled in shard order.
                let per = shots.div_ceil(threads);
                let mut sharded = Vec::with_capacity(shots as usize);
                for t in 0..threads {
                    let lo = (t * per).min(shots);
                    let hi = ((t + 1) * per).min(shots);
                    sharded.extend((lo..hi).map(|s| prepared.sample_shot(&mut sim.shot_rng(s))));
                }
                assert_eq!(
                    sharded, serial,
                    "{sweep} seed {seed} fuse={fuse}: sharding at {threads} threads diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fusion edge-case regressions: fused must stay within the bound of
// unfused on every boundary shape the planner handles, and equal it
// bitwise where no run has two gates.
// ---------------------------------------------------------------------

/// Fused and unfused plans are the same plan, so the same bits.
fn assert_plans_identical(c: &Circuit, what: &str) {
    let (fused, unfused) = (plan(c, true).unwrap(), plan(c, false).unwrap());
    assert_eq!(fused, unfused, "{what}: plans differ");
    assert_eq!(
        raw_bits(&kernel_state(c, false)),
        raw_bits(&kernel_state(c, true)),
        "{what}: fused diverged from unfused"
    );
}

#[test]
fn edge_case_empty_circuit() {
    let c = Circuit::new(3);
    assert_plans_identical(&c, "empty circuit");
    let p = plan(&c, true).unwrap();
    assert!(p.ops.is_empty());
}

#[test]
fn edge_case_single_gate_circuit() {
    let cases: [fn(&mut Circuit); 3] = [
        |c| {
            c.rx(0, 0.7);
        },
        |c| {
            c.rz(1, -1.3);
        },
        |c| {
            c.cz(0, 1);
        },
    ];
    for (i, build) in cases.iter().enumerate() {
        let mut c = Circuit::new(2);
        build(&mut c);
        c.measure_all();
        assert_plans_identical(&c, &format!("single-gate case {i}"));
    }
}

#[test]
fn edge_case_runs_interrupted_by_cz_and_measurement() {
    // CZ splits q0's would-be run; measure(0) splits it again; measure(1)
    // must NOT split it (it barriers only its own qubit).
    let mut c = Circuit::new(2);
    c.rx(0, 0.4).rz(0, 0.2).cz(0, 1).ry(0, 1.0);
    c.measure(0).rx(0, 0.9).measure(1).rz(0, 0.1).measure_all();
    assert_fused_within_bound(&c, "interrupted runs");
    let p = plan(&c, true).unwrap();
    // Runs: [rx,rz] | CZ | [ry] (measure 0) [rx, rz] — measure(1) kept
    // the last run open. Each run is one sweep.
    assert_eq!(p.stats.runs, 3);
    assert_eq!(p.stats.fused_runs, 2);
    assert_eq!(p.ops.len(), 4);
    assert_eq!(
        p.ops[3],
        PlanOp::Run {
            qubit: 0,
            kernel: Kernel1Q::from_matrix(compose(&mat_rz(0.1), &mat_rx(0.9))),
        }
    );
}

#[test]
fn edge_case_cancelling_rz_pair_fuses_to_approximate_identity() {
    let theta = 0.73;
    let mut c = Circuit::new(1);
    c.rz(0, theta).rz(0, -theta).measure_all();
    // Cancellation is NOT elided (cos/sin round-off means neither gate
    // is the bit-exact identity): the run sweeps its product.
    assert_fused_within_bound(&c, "RZ(θ)+RZ(−θ)");
    let p = plan(&c, true).unwrap();
    assert_eq!(p.stats.identities_elided, 0);
    assert_eq!(p.stats.fused_runs, 1);
    // Algebraically the run is the identity to 1e-12.
    if let PlanOp::Run { kernel, .. } = &p.ops[0] {
        let m = kernel.matrix();
        assert!((m[0][0].re - 1.0).abs() < 1e-12 && m[0][0].im.abs() < 1e-12);
        assert!((m[1][1].re - 1.0).abs() < 1e-12 && m[1][1].im.abs() < 1e-12);
        assert!(m[0][1].re.abs() < 1e-12 && m[1][0].re.abs() < 1e-12);
    } else {
        panic!("expected a run");
    }
}

#[test]
fn edge_case_bit_exact_identity_is_elided_identically_in_both_plans() {
    // RX(-0.0) classifies to bit-exact diag(1, 1): elided from BOTH
    // plans, so the fused run multiplies the two RZs alone.
    let mut c = Circuit::new(1);
    c.rz(0, 0.3).rx(0, -0.0).rz(0, 0.4).measure_all();
    assert_fused_within_bound(&c, "elided identity");
    let fused = plan(&c, true).unwrap();
    let two_rz = [mat_rz(0.3), mat_rz(0.4)].map(Kernel1Q::from_matrix);
    assert_eq!(
        fused.ops,
        vec![PlanOp::Run {
            qubit: 0,
            kernel: Kernel1Q::from_matrix(run_matrix(&two_rz)),
        }]
    );
    for fuse in [true, false] {
        let p = plan(&c, fuse).unwrap();
        assert_eq!(p.stats.identities_elided, 1, "fuse={fuse}");
    }
    // The near-misses are refused: RZ(0) and RY(-0.0) carry -0.0 bits.
    assert!(!Kernel1Q::from_matrix(mat_rz(0.0)).is_identity());
    assert!(!Kernel1Q::from_matrix(mat_ry(-0.0)).is_identity());
    assert!(Kernel1Q::from_matrix(mat_rx(-0.0)).is_identity());
}

// ---------------------------------------------------------------------
// Fusion algebra: the run products agree with the gate definitions
// (approximately — a product rounds).
// ---------------------------------------------------------------------

#[test]
fn fusion_algebra_rz_angles_add() {
    for (a, b) in [(0.3, 0.5), (-1.2, 0.7), (PI / 3.0, -PI / 5.0)] {
        let m = run_matrix(&[
            Kernel1Q::from_matrix(mat_rz(a)),
            Kernel1Q::from_matrix(mat_rz(b)),
        ]);
        let direct = mat_rz(a + b);
        for r in 0..2 {
            for c in 0..2 {
                assert!((m[r][c].re - direct[r][c].re).abs() < 1e-12, "({a},{b})");
                assert!((m[r][c].im - direct[r][c].im).abs() < 1e-12, "({a},{b})");
            }
        }
    }
}

#[test]
fn vqe_style_blocks_plan_as_their_parts() {
    // RY·CZ·RY on a pair costs less swept gate by gate than as one 4×4
    // sweep, so the block is refused: the fused plan is the per-gate
    // plan, and matches the reference.
    let mut c = Circuit::new(2);
    c.ry(0, 0.8).cz(0, 1).ry(0, -0.8).measure_all();
    let p = plan(&c, true).unwrap();
    assert_eq!((p.stats.blocks, p.stats.fused_runs), (0, 0));
    assert_eq!(p.ops.len(), 3);
    assert_plans_identical(&c, "refused block");
    assert_eq!(
        canonical_bits(&reference_state(&c)),
        canonical_bits(&kernel_state(&c, true))
    );
}

#[test]
fn qaoa_style_blocks_sweep_their_product_once() {
    // One QAOA edge, CX·RZ·CX after an H on each qubit: every gate lands
    // in one block, swept once as the reference sweeps its product.
    let mut l = Circuit::new(3);
    l.h(0).h(1).cx(0, 1).rz(1, 0.7).cx(0, 1).measure_all();
    let c = transpile::to_native(&l).unwrap();
    let p = plan(&c, true).unwrap();
    let [PlanOp::Block2 {
        lo: 0,
        hi: 1,
        kernel,
    }] = p.ops[..]
    else {
        panic!("expected one block, got {:?}", p.ops);
    };
    assert_eq!(
        (p.stats.blocks, p.stats.runs, p.stats.cz_kernels),
        (1, 0, 0)
    );
    let mut reference = StateVector::new(3).unwrap();
    reference.apply_matrix4_reference(0, 1, kernel);
    assert_eq!(raw_bits(&reference), raw_bits(&kernel_state(&c, true)));
    assert_fused_within_bound(&c, "QAOA edge block");
}

#[test]
fn deep_single_qubit_runs_stay_bitwise_stable() {
    // A 60-gate single-qubit run: the deepest fusion the planner will
    // ever build from real workloads, executed as ONE sweep.
    let mut r = 0xF05Eu64;
    let mut c = Circuit::new(4);
    for _ in 0..60 {
        let theta = (unit(&mut r) * 2.0 - 1.0) * PI;
        match splitmix64(&mut r) % 3 {
            0 => c.rx(2, theta),
            1 => c.ry(2, theta),
            _ => c.rz(2, theta),
        };
    }
    c.measure_all();
    let p = plan(&c, true).unwrap();
    assert_eq!(p.stats.runs, 1);
    assert_eq!(p.stats.gates_fused, 60);
    assert_fused_within_bound(&c, "60-gate run");
    // From |0…0⟩ the run only ever touches the pair (1, 0), and the sweep
    // of the product maps it to the product's first column, which
    // `compose` builds with the very operations the per-gate sweeps
    // apply to that pair. So here the bits agree up to zero signs.
    assert_eq!(
        canonical_bits(&reference_state(&c)),
        canonical_bits(&kernel_state(&c, true))
    );
}

// ---------------------------------------------------------------------
// Strides: `kernels::apply_kernel` takes a gathered, an unrolled or a
// run-time-stride loop by target qubit, so every stride must keep the
// bits — of single gates, and of a run's product — on states from 2 to
// 4096 amplitudes.
// ---------------------------------------------------------------------

#[test]
fn composed_runs_match_single_kernel_runs_and_reference_at_every_stride() {
    let mut r = 0x711Eu64;
    for n in 1..=12u32 {
        // A dense, complex start state: no amplitude is zero.
        let start = dense_state(n);
        for q in 0..n {
            for len in 1..=6usize {
                // Cycle RZ (diagonal) / RX (cross) / RY (real) so every
                // run of two or more gates mixes sweep loops.
                let mut c = Circuit::new(n);
                let mats: Vec<_> = (0..len)
                    .map(|j| {
                        let theta = (unit(&mut r) * 2.0 - 1.0) * PI;
                        let (gate, mat): (fn(&mut Circuit, u32, f64) -> &mut Circuit, _) =
                            match (j + q as usize + len) % 3 {
                                0 => (Circuit::rz, mat_rz(theta)),
                                1 => (Circuit::rx, mat_rx(theta)),
                                _ => (Circuit::ry, mat_ry(theta)),
                            };
                        gate(&mut c, q, theta);
                        mat
                    })
                    .collect();
                let (fused_plan, unfused_plan) =
                    (plan(&c, true).unwrap(), plan(&c, false).unwrap());
                assert_eq!((fused_plan.ops.len(), unfused_plan.ops.len()), (1, len));
                let mut fused = start.clone();
                fused.apply_plan(&fused_plan);
                let mut unfused = start.clone();
                unfused.apply_plan(&unfused_plan);
                let mut reference = start.clone();
                for m in &mats {
                    reference.apply_matrix2_reference(q, *m);
                }
                let kernels: Vec<_> = mats.iter().map(|m| Kernel1Q::from_matrix(*m)).collect();
                let mut product = start.clone();
                product.apply_matrix2_reference(q, run_matrix(&kernels));
                let what = format!("{n} qubits, target {q}, run of {len}");
                assert_eq!(
                    canonical_bits(&unfused),
                    canonical_bits(&reference),
                    "{what}: unfused vs reference"
                );
                assert_eq!(
                    canonical_bits(&fused),
                    canonical_bits(&product),
                    "{what}: fused vs the reference sweep of the product"
                );
                let (d, bound) = (
                    distance(&fused, &unfused),
                    fused_plan.stats.composition_bound(),
                );
                assert!(
                    d <= bound,
                    "{what}: fused is {d:e} from unfused, bound {bound:e}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Kernel instances: `apply_plan` runs the widest build of the kernel
// body the CPU has, `apply_plan_on` any named one (baseline, AVX2,
// AVX-512). Their bits must agree exactly, zero signs included, and a
// block must sweep as `apply_matrix4_reference`. An instance the CPU
// lacks is skipped with a printed note.
// ---------------------------------------------------------------------

/// A dense start state: no amplitude is zero.
fn dense_state(n: u32) -> StateVector {
    let mut sv = StateVector::new(n).unwrap();
    for q in 0..n {
        sv.apply_ry(q, 0.4 + 0.3 * f64::from(q));
        sv.apply_rx(q, 0.9 - 0.2 * f64::from(q));
    }
    sv
}

/// A start state grown from |0…0⟩ by edge-angle rotations: most
/// amplitudes are exact zeros, some of them `-0.0`.
fn sparse_state(n: u32) -> StateVector {
    let mut sv = StateVector::new(n).unwrap();
    for q in (0..n).step_by(3) {
        sv.apply_ry(q, FRAC_PI_2);
    }
    sv.apply_rx(n / 2, -PI);
    sv.apply_rz(n - 1, PI);
    sv
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

/// `ops` through `instance`.
fn swept(start: &StateVector, ops: Vec<PlanOp>, instance: KernelInstance) -> StateVector {
    let mut sv = start.clone();
    let plan = ExecPlan {
        ops,
        stats: FuseStats::default(),
    };
    sv.apply_plan_on(&plan, instance);
    sv
}

/// Applies `ops` through the dispatched instance and each of
/// `instances`, and compares their raw bits with the baseline's.
fn assert_instances_agree(
    instances: &[KernelInstance],
    start: &StateVector,
    ops: Vec<PlanOp>,
    what: &str,
) {
    let baseline = raw_bits(&swept(start, ops.clone(), KernelInstance::Baseline));
    let mut dispatched = start.clone();
    dispatched.apply_plan(&ExecPlan {
        ops: ops.clone(),
        stats: FuseStats::default(),
    });
    assert_eq!(
        raw_bits(&dispatched),
        baseline,
        "{what}: the dispatched kernel instance diverged from the baseline instance"
    );
    for &instance in instances {
        assert_eq!(
            raw_bits(&swept(start, ops.clone(), instance)),
            baseline,
            "{what}: {instance:?} diverged from the baseline instance"
        );
    }
}

#[test]
fn dispatched_and_baseline_kernel_instances_are_raw_bitwise_identical() {
    let instances = instances();
    let angles = EDGE_ANGLES.into_iter().chain([0.7, -2.9]);
    let kernels: Vec<Kernel1Q> = angles
        .flat_map(|t| {
            [
                mat_rz(t),
                mat_ry(t),
                mat_rx(t),
                compose(&mat_rx(t), &mat_rz(0.3)),
            ]
        })
        .map(Kernel1Q::from_matrix)
        .collect();
    for class in ["Diag", "Real", "Cross", "General"] {
        assert!(
            kernels.iter().any(|k| format!("{k:?}").starts_with(class)),
            "no {class} kernel in the sweep"
        );
    }
    for n in 1..=14u32 {
        for (label, start) in [("dense", dense_state(n)), ("sparse", sparse_state(n))] {
            for q in 0..n {
                let runs: Vec<PlanOp> = kernels
                    .iter()
                    .map(|k| PlanOp::Run {
                        qubit: q,
                        kernel: *k,
                    })
                    .collect();
                for run in &runs {
                    assert_instances_agree(
                        &instances,
                        &start,
                        vec![run.clone()],
                        &format!("{label} {n}q, {run:?}"),
                    );
                }
                assert_instances_agree(
                    &instances,
                    &start,
                    runs,
                    &format!("{label} {n}q, every kernel on {q}"),
                );
                let czs = (0..n)
                    .filter(|&b| b != q)
                    .map(|b| PlanOp::Cz { a: q, b })
                    .collect();
                assert_instances_agree(
                    &instances,
                    &start,
                    czs,
                    &format!("{label} {n}q, CZs from {q}"),
                );
                for hi in q + 1..n {
                    for kernel in block_kernels() {
                        let what = format!("{label} {n}q, block ({q}, {hi}) of {kernel:?}");
                        let block = PlanOp::Block2 { lo: q, hi, kernel };
                        assert_instances_agree(&instances, &start, vec![block.clone()], &what);
                        // The instances sweep the block as the reference.
                        let mut reference = start.clone();
                        reference.apply_matrix4_reference(q, hi, kernel);
                        let baseline = swept(&start, vec![block], KernelInstance::Baseline);
                        assert_eq!(raw_bits(&baseline), raw_bits(&reference), "{what}");
                    }
                }
            }
        }
    }
}

/// 4×4 kernels for the block sweeps: a generic complex matrix (no two
/// entries alike, so a transposed or mirrored sweep shows), the product
/// of a QAOA edge block, and a product full of signed zeros.
fn block_kernels() -> [Mat4; 3] {
    let generic = std::array::from_fn(|r| {
        std::array::from_fn(|c| {
            let x = (4 * r + c) as f64;
            C64::new((1.0 + x).sin(), (0.3 * x - 2.0).cos())
        })
    });
    let mut edge = IDENTITY4;
    let h = compose(&mat_ry(FRAC_PI_2), &mat_rz(PI));
    lift(&mut edge, 1, &h);
    lift(&mut edge, 2, &h);
    edge[3].iter_mut().for_each(|x| *x = -*x);
    lift(&mut edge, 2, &compose(&h, &compose(&mat_rz(0.7), &h)));
    edge[3].iter_mut().for_each(|x| *x = -*x);
    let mut zeros = IDENTITY4;
    lift(&mut zeros, 1, &mat_rx(PI));
    lift(&mut zeros, 2, &mat_ry(-0.0));
    zeros[3].iter_mut().for_each(|x| *x = -*x);
    [generic, edge, zeros]
}
