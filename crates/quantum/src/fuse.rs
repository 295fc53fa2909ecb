//! Deterministic gate-fusion planning.
//!
//! [`plan`] lowers a bound native circuit into an [`ExecPlan`]: a list of
//! single-qubit kernel sweeps and CZ applications. With fusion enabled,
//! maximal runs of **adjacent** gates on the **same qubit** are multiplied
//! into one 2×2 kernel ([`run_matrix`]), so a run of any length costs one
//! sweep over the amplitudes. Planning is a pure function of the circuit
//! and the fusion flag — it never consults thread count, shard layout, or
//! timing — so every shard of every job lowers the same circuit to the
//! same plan and results are identical across `--threads`.
//!
//! A product rounds differently from its factors applied one by one, so
//! fused amplitudes differ from per-gate ones within a bound set by the
//! run lengths ([`FuseStats::composition_bound`], DESIGN.md §13). Fusion
//! rules:
//!
//! - only *adjacent* same-qubit single-qubit gates join a run — a gate on
//!   any other qubit closes the open run even when the two would commute;
//! - CZ is a barrier: it closes every open run, and never fuses itself;
//! - a measurement closes the open run on **its own qubit only** (the
//!   simulator samples all qubits at the end, so measurement is a no-op
//!   here; it still barriers its qubit so the plan shape matches program
//!   intent);
//! - kernels whose matrix is the bit-exact identity (see
//!   [`Kernel1Q::is_identity`]) are elided, whether or not fusion is on.
//!   An elided gate leaves the open run open: dropping a no-op cannot
//!   un-adjoin its neighbours.

use crate::circuit::Circuit;
use crate::gate::{Angle, Gate, SinCosMemo};
use crate::kernels::{compose, rx_of, ry_of, rz_of, Kernel1Q, KernelClass, Mat2};
use crate::statevector::C64;
use crate::QuantumError;

/// One step of an execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// One sweep of a single-qubit kernel: a gate, or a fused run's
    /// product.
    Run {
        /// Target qubit.
        qubit: u32,
        /// The kernel.
        kernel: Kernel1Q,
    },
    /// A controlled-Z between two qubits.
    Cz {
        /// First operand.
        a: u32,
        /// Second operand.
        b: u32,
    },
}

/// Accounting for one lowering pass (and, additively, for a whole run's
/// worth of them — see [`FuseStats::absorb`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuseStats {
    /// Native gate operations seen (measurements excluded).
    pub gates_in: u64,
    /// Gates that landed in a multi-gate run (sum of run lengths over
    /// runs of ≥ 2 gates).
    pub gates_fused: u64,
    /// Single-qubit sweeps emitted: one per run.
    pub runs: u64,
    /// Runs of ≥ 2 gates.
    pub fused_runs: u64,
    /// Bit-exact identity gates dropped at plan level.
    pub identities_elided: u64,
    /// Diagonal gates lowered (counted per gate, before fusion).
    pub diag_kernels: u64,
    /// Non-diagonal single-qubit gates lowered (real, cross or general;
    /// counted per gate, before fusion).
    pub general_kernels: u64,
    /// CZ applications emitted.
    pub cz_kernels: u64,
}

impl FuseStats {
    /// Whether this is the all-zero accounting (no exact-backend circuit
    /// was ever lowered). Metric export is gated on this so runs that
    /// never touch the statevector stay byte-identical.
    pub fn is_empty(&self) -> bool {
        *self == FuseStats::default()
    }

    /// Adds another accounting into this one.
    pub fn absorb(&mut self, other: &FuseStats) {
        self.gates_in += other.gates_in;
        self.gates_fused += other.gates_fused;
        self.runs += other.runs;
        self.fused_runs += other.fused_runs;
        self.identities_elided += other.identities_elided;
        self.diag_kernels += other.diag_kernels;
        self.general_kernels += other.general_kernels;
        self.cz_kernels += other.cz_kernels;
    }

    /// The largest 2-norm distance between this plan's amplitudes and the
    /// per-gate plan's, from one unit-norm start state (DESIGN.md §13).
    /// With `G` per-gate sweeps, `R` fused sweeps and `γ₃ = 3u/(1−3u)`:
    /// every sweep adds at most `2γ₃`, in either plan, and each of the
    /// `G − R` matrix products a fused plan makes adds at most `2√2·γ₃`.
    /// The factor 1.01 covers second-order terms.
    pub fn composition_bound(&self) -> f64 {
        let u = f64::EPSILON / 2.0;
        let gamma3 = 3.0 * u / (1.0 - 3.0 * u);
        let gates = (self.diag_kernels + self.general_kernels) as f64;
        let sweeps = self.runs as f64;
        let products = gates - sweeps;
        1.01 * gamma3 * (2.0 * (gates + sweeps) + 2.0 * std::f64::consts::SQRT_2 * products)
    }
}

/// A lowered circuit, ready for [`crate::StateVector::apply_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// The plan steps, in program order.
    pub ops: Vec<PlanOp>,
    /// Lowering statistics.
    pub stats: FuseStats,
}

/// The open run of [`plan`]: its qubit, the product of its gates so far,
/// and how many gates that is.
struct OpenRun {
    qubit: u32,
    product: Mat2,
    gates: u64,
}

impl OpenRun {
    /// Emits the run as one sweep.
    fn close(self, ops: &mut Vec<PlanOp>, stats: &mut FuseStats) {
        stats.runs += 1;
        if self.gates >= 2 {
            stats.fused_runs += 1;
            stats.gates_fused += self.gates;
        }
        ops.push(PlanOp::Run {
            qubit: self.qubit,
            kernel: Kernel1Q::from_matrix(self.product),
        });
    }
}

/// Lowers a bound native circuit to an execution plan.
///
/// With `fuse` off, every surviving gate is its own sweep; with it on,
/// adjacent same-qubit gates are multiplied into one. A run of one is the
/// gate's own kernel either way, so the two plans differ only in runs of
/// two or more.
///
/// # Errors
///
/// Returns [`QuantumError::NonNativeGate`] for non-native gates and
/// [`QuantumError::UnboundParameter`] for symbolic angles — the same
/// contract as the pre-kernel `apply_circuit`.
pub fn plan(circuit: &Circuit, fuse: bool) -> Result<ExecPlan, QuantumError> {
    // At most one op per circuit operation: one allocation per plan.
    let mut ops = Vec::with_capacity(circuit.operations().len());
    let mut stats = FuseStats::default();
    let mut trig = SinCosMemo::new();
    let mut open: Option<OpenRun> = None;
    for op in circuit.operations() {
        match op.gate {
            Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) => {
                let theta = match a {
                    Angle::Value(v) => v,
                    Angle::Param { param, .. } => {
                        return Err(QuantumError::UnboundParameter { param })
                    }
                };
                let half = trig.sin_cos(theta / 2.0);
                let m = match op.gate {
                    Gate::Rx(_) => rx_of(half),
                    Gate::Ry(_) => ry_of(half),
                    Gate::Rz(_) => rz_of(half),
                    _ => unreachable!(),
                };
                stats.gates_in += 1;
                let kernel = Kernel1Q::from_matrix(m);
                if kernel.is_identity() {
                    // Dropped in fused AND unfused plans; the open run
                    // stays open across the no-op.
                    stats.identities_elided += 1;
                    continue;
                }
                match kernel.class() {
                    KernelClass::Diag => stats.diag_kernels += 1,
                    KernelClass::General => stats.general_kernels += 1,
                }
                match &mut open {
                    Some(run) if fuse && run.qubit == op.qubit => {
                        run.product = compose(&m, &run.product);
                        run.gates += 1;
                    }
                    _ => {
                        let run = OpenRun {
                            qubit: op.qubit,
                            product: m,
                            gates: 1,
                        };
                        if let Some(closed) = open.replace(run) {
                            closed.close(&mut ops, &mut stats);
                        }
                    }
                }
            }
            Gate::Cz => {
                if let Some(run) = open.take() {
                    run.close(&mut ops, &mut stats);
                }
                stats.gates_in += 1;
                stats.cz_kernels += 1;
                ops.push(PlanOp::Cz {
                    a: op.qubit,
                    b: op.qubit2.expect("CZ has two operands"),
                });
            }
            Gate::Measure => {
                if let Some(run) = open.take_if(|run| run.qubit == op.qubit) {
                    run.close(&mut ops, &mut stats);
                }
            }
            other => {
                return Err(QuantumError::NonNativeGate { gate: other.name() });
            }
        }
    }
    if let Some(run) = open {
        run.close(&mut ops, &mut stats);
    }
    Ok(ExecPlan { ops, stats })
}

/// The product [`plan`] sweeps for a fused run: the first kernel's
/// matrix, then each later one multiplied on the left with [`compose`]
/// (the identity for an empty run).
pub fn run_matrix(kernels: &[Kernel1Q]) -> Mat2 {
    let mut matrices = kernels.iter().map(Kernel1Q::matrix);
    let first = matrices
        .next()
        .unwrap_or([[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]]);
    matrices.fold(first, |product, m| compose(&m, &product))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::kernels::{mat_rx, mat_ry, mat_rz};

    /// The target qubit of every sweep, in plan order.
    fn run_qubits(plan: &ExecPlan) -> Vec<u32> {
        plan.ops
            .iter()
            .filter_map(|op| match op {
                PlanOp::Run { qubit, .. } => Some(*qubit),
                PlanOp::Cz { .. } => None,
            })
            .collect()
    }

    /// The sweep of `qubit` that multiplies `gates` in program order.
    fn product_run(qubit: u32, gates: &[Mat2]) -> PlanOp {
        let kernels: Vec<Kernel1Q> = gates.iter().map(|m| Kernel1Q::from_matrix(*m)).collect();
        PlanOp::Run {
            qubit,
            kernel: Kernel1Q::from_matrix(run_matrix(&kernels)),
        }
    }

    #[test]
    fn adjacent_same_qubit_gates_fuse_into_one_run() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.3).rx(0, 0.7).ry(0, -0.2).rz(1, 0.5);
        let fused = plan(&c, true).unwrap();
        assert_eq!(run_qubits(&fused), vec![0, 1]);
        assert_eq!(fused.stats.gates_in, 4);
        assert_eq!(fused.stats.gates_fused, 3);
        assert_eq!(fused.stats.runs, 2);
        assert_eq!(fused.stats.fused_runs, 1);
        // Qubit 0's three gates are one sweep of their product.
        let gates = [mat_rz(0.3), mat_rx(0.7), mat_ry(-0.2)];
        assert_eq!(fused.ops[0], product_run(0, &gates));
        let unfused = plan(&c, false).unwrap();
        assert_eq!(run_qubits(&unfused), vec![0, 0, 0, 1]);
        assert_eq!(unfused.stats.gates_fused, 0);
        assert_eq!(unfused.stats.runs, 4);
        // Unfused, every gate sweeps its own kernel; a run of one is the
        // same sweep in both plans.
        for (op, m) in unfused.ops.iter().zip(gates) {
            assert_eq!(*op, product_run(0, &[m]));
        }
        assert_eq!(fused.ops[1], unfused.ops[3]);
    }

    #[test]
    fn cz_is_a_fusion_barrier() {
        let mut c = Circuit::new(2);
        c.rx(0, 0.4).cz(0, 1).rx(0, 0.4);
        let p = plan(&c, true).unwrap();
        assert_eq!(p.ops.len(), 3);
        assert_eq!(run_qubits(&p), vec![0, 0]);
        assert_eq!(p.stats.fused_runs, 0);
        assert_eq!(p.stats.cz_kernels, 1);
    }

    #[test]
    fn other_qubit_gate_redirects_the_open_run() {
        let mut c = Circuit::new(2);
        c.rx(0, 0.4).rx(1, 0.5).rx(0, 0.6);
        let p = plan(&c, true).unwrap();
        // q0's run is closed by the q1 gate even though RX⊗RX commute.
        assert_eq!(run_qubits(&p), vec![0, 1, 0]);
    }

    #[test]
    fn measure_barriers_only_its_own_qubit() {
        let mut c = Circuit::new(2);
        c.rx(0, 0.4).measure(1).rx(0, 0.5);
        let p = plan(&c, true).unwrap();
        assert_eq!(p.ops, vec![product_run(0, &[mat_rx(0.4), mat_rx(0.5)])]);
        assert_eq!((p.stats.fused_runs, p.stats.gates_fused), (1, 2));

        let mut c = Circuit::new(2);
        c.rx(0, 0.4).measure(0).rx(0, 0.5);
        let p = plan(&c, true).unwrap();
        assert_eq!(
            p.ops,
            vec![
                product_run(0, &[mat_rx(0.4)]),
                product_run(0, &[mat_rx(0.5)])
            ]
        );
        assert_eq!(p.stats.fused_runs, 0);
    }

    #[test]
    fn identity_elision_is_fuse_independent_and_keeps_runs_open() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.3).rx(0, -0.0).rz(0, 0.4);
        for fuse in [true, false] {
            let p = plan(&c, fuse).unwrap();
            assert_eq!(p.stats.identities_elided, 1, "fuse={fuse}");
            assert_eq!(p.stats.diag_kernels, 2);
        }
        // With fusion, the two RZs sit in ONE run across the elided RX.
        let p = plan(&c, true).unwrap();
        assert_eq!(p.ops, vec![product_run(0, &[mat_rz(0.3), mat_rz(0.4)])]);
        assert_eq!((p.stats.runs, p.stats.gates_fused), (1, 2));
    }

    #[test]
    fn rz_zero_and_ry_negative_zero_are_not_elided() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.0).ry(0, -0.0);
        let p = plan(&c, false).unwrap();
        assert_eq!(p.stats.identities_elided, 0);
        assert_eq!(p.stats.runs, 2);
    }

    #[test]
    fn empty_and_measure_only_circuits_lower_to_empty_plans() {
        let c = Circuit::new(3);
        let p = plan(&c, true).unwrap();
        assert!(p.ops.is_empty());
        assert!(p.stats.is_empty());

        let mut m = Circuit::new(2);
        m.measure_all();
        let p = plan(&m, true).unwrap();
        assert!(p.ops.is_empty());
        assert!(p.stats.is_empty());
    }

    #[test]
    fn plan_propagates_circuit_errors() {
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(matches!(
            plan(&c, true),
            Err(QuantumError::NonNativeGate { gate: "H" })
        ));
        let mut sym = Circuit::new(1);
        sym.ry_param(0, crate::gate::ParamId::new(0));
        assert!(matches!(
            plan(&sym, true),
            Err(QuantumError::UnboundParameter { .. })
        ));
    }

    #[test]
    fn stats_absorb_adds_fieldwise() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.3).rx(0, 0.7).cz(0, 1);
        let p = plan(&c, true).unwrap();
        let mut acc = FuseStats::default();
        acc.absorb(&p.stats);
        acc.absorb(&p.stats);
        assert_eq!(acc.gates_in, 2 * p.stats.gates_in);
        assert_eq!(acc.cz_kernels, 2);
        assert!(!acc.is_empty());
    }

    #[test]
    fn run_matrix_matches_rz_angle_addition() {
        let kernels = [
            Kernel1Q::from_matrix(mat_rz(0.3)),
            Kernel1Q::from_matrix(mat_rz(0.8)),
        ];
        let net = run_matrix(&kernels);
        let direct = mat_rz(1.1);
        for r in 0..2 {
            for c in 0..2 {
                assert!((net[r][c].re - direct[r][c].re).abs() < 1e-12);
                assert!((net[r][c].im - direct[r][c].im).abs() < 1e-12);
            }
        }
    }
}
