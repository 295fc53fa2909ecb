//! Deterministic gate-fusion planning.
//!
//! [`plan`] lowers a bound native circuit into an [`ExecPlan`]: a list of
//! single-qubit kernel sweeps, two-qubit block sweeps and CZ applications.
//! With fusion enabled, gates are multiplied into as few sweeps over the
//! amplitudes as pays. Planning is a pure function of the circuit and the
//! fusion flag — it never consults thread count, shard layout, or timing —
//! so every shard of every job lowers the same circuit to the same plan
//! and results are identical across `--threads`.
//!
//! A product rounds differently from its factors applied one by one, so
//! fused amplitudes differ from per-gate ones within a bound set by the
//! plan's counts ([`FuseStats::composition_bound`], DESIGN.md §13).
//! Fusion rules:
//!
//! - every qubit has one open *run*: its single-qubit gates since it was
//!   last in a CZ or measured, multiplied into one 2×2 kernel
//!   ([`run_matrix`]). Gates on other qubits commute with it and leave it
//!   open;
//! - a CZ opens a two-qubit *block* on its pair. The block absorbs both
//!   qubits' open runs and every later run and CZ on that pair, each run
//!   lifted into its 4×4 product as a row-pair update
//!   ([`crate::kernels::lift`]) at the next CZ. It closes when a CZ
//!   couples one of its qubits to a third, leaving the runs its qubits
//!   opened since its last CZ open for their next blocks, or when a
//!   measurement names one of its qubits, runs included;
//! - a closed block is kept as one 4×4 sweep ([`PlanOp::Block2`]) only
//!   when that sweep costs fewer flops per amplitude than the sweeps of
//!   its parts would. Otherwise each of its runs and CZs is emitted as its
//!   own sweep, as without blocks. The costs are fixed, read off the sweep
//!   bodies in [`crate::kernels`]: 6 for a `Diag`, `Real` or `Cross` 2×2
//!   sweep, 14 for a `General` one, 1 for a CZ and 30 for a 4×4 block;
//! - a measurement closes the run or block holding **its own qubit only**
//!   (the simulator samples all qubits at the end, so measurement is a
//!   no-op here; it still barriers its qubit so the plan shape matches
//!   program intent);
//! - kernels whose matrix is the bit-exact identity (see
//!   [`Kernel1Q::is_identity`]) are elided, whether or not fusion is on.
//!   An elided gate leaves the open run open: dropping a no-op cannot
//!   un-adjoin its neighbours.

use crate::circuit::Circuit;
use crate::gate::{Angle, Gate, SinCosMemo};
use crate::kernels::{
    compose, lift, rx_of, ry_of, rz_of, Kernel1Q, KernelClass, Mat2, Mat4, IDENTITY4,
};
use crate::statevector::{C64, EXACT_QUBIT_LIMIT};
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
    /// One sweep of a kept two-qubit block's 4×4 product, whose basis
    /// index is `bit(lo) + 2·bit(hi)`.
    Block2 {
        /// The lower qubit.
        lo: u32,
        /// The higher qubit.
        hi: u32,
        /// The product.
        kernel: Mat4,
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
    /// Gates that share a sweep with another gate: those of emitted runs
    /// of ≥ 2 gates and every gate, CZs included, of a kept block.
    pub gates_fused: u64,
    /// Single-qubit sweeps emitted: one per run.
    pub runs: u64,
    /// Emitted runs of ≥ 2 gates.
    pub fused_runs: u64,
    /// Two-qubit block sweeps emitted: one per kept block.
    pub blocks: u64,
    /// Bit-exact identity gates dropped at plan level.
    pub identities_elided: u64,
    /// Diagonal gates lowered (counted per gate, before fusion).
    pub diag_kernels: u64,
    /// Non-diagonal single-qubit gates lowered (real, cross or general;
    /// counted per gate, before fusion).
    pub general_kernels: u64,
    /// CZ sweeps emitted (a CZ in a kept block is part of its sweep).
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
        self.blocks += other.blocks;
        self.identities_elided += other.identities_elided;
        self.diag_kernels += other.diag_kernels;
        self.general_kernels += other.general_kernels;
        self.cz_kernels += other.cz_kernels;
    }

    /// The largest 2-norm distance between this plan's amplitudes and the
    /// per-gate plan's, from one unit-norm start state (DESIGN.md §13).
    /// With `G` per-gate sweeps, `R` run sweeps, `B` block sweeps, `L`
    /// runs lifted into blocks and `γₖ = ku/(1−ku)`: every 2×2 sweep adds
    /// at most `2γ₃`, in either plan, every 4×4 sweep `2√2·γ₅`, every lift
    /// `4γ₃`, and each of the `G − R − L` 2×2 products `2√2·γ₃`. A block of
    /// `c` CZs lifts at most two runs per CZ and two after the last, so
    /// `L ≤ 2(C + B)` with `C` the CZs in kept blocks, and `L ≤ G − R`.
    /// The factor 1.01 covers second-order terms.
    pub fn composition_bound(&self) -> f64 {
        let u = f64::EPSILON / 2.0;
        let gamma = |k: f64| k * u / (1.0 - k * u);
        let singles = self.diag_kernels + self.general_kernels;
        let absorbed = self.gates_in - self.identities_elided - singles - self.cz_kernels;
        let gates = singles as f64;
        let sweeps = self.runs as f64;
        let blocks = self.blocks as f64;
        let lifts = (2.0 * (absorbed as f64 + blocks)).min(gates - sweeps);
        let products = gates - sweeps - lifts;
        let sqrt2 = std::f64::consts::SQRT_2;
        1.01 * (gamma(3.0) * (2.0 * (gates + sweeps) + 2.0 * sqrt2 * products + 4.0 * lifts)
            + 2.0 * sqrt2 * gamma(5.0) * blocks)
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

/// Flops per amplitude of a 2×2 sweep: four multiplies and two adds for
/// the structured classes, two complex multiplies and a complex add for
/// `General`.
fn run_cost(kernel: &Kernel1Q) -> u32 {
    match kernel {
        Kernel1Q::General { .. } => 14,
        Kernel1Q::Diag { .. } | Kernel1Q::Real { .. } | Kernel1Q::Cross { .. } => 6,
    }
}

/// Flops per amplitude of a CZ sweep: it negates both components of a
/// quarter of the amplitudes, scanning at most half of them.
const CZ_COST: u32 = 1;

/// Flops per amplitude of a 4×4 sweep: four complex multiplies and three
/// complex adds.
const BLOCK_COST: u32 = 30;

/// A run still open: the product of its gates so far, and how many gates
/// that is.
struct OpenRun {
    product: Mat2,
    gates: u64,
}

impl OpenRun {
    /// Multiplies `m` into `run`, opening it if need be.
    fn push(run: &mut Option<OpenRun>, m: Mat2) {
        match run {
            Some(run) => {
                run.product = compose(&m, &run.product);
                run.gates += 1;
            }
            None => {
                *run = Some(OpenRun {
                    product: m,
                    gates: 1,
                })
            }
        }
    }

    /// The run as the kernel its sweep would apply to `qubit`.
    fn close(self, qubit: u32) -> ClosedRun {
        ClosedRun {
            qubit,
            kernel: Kernel1Q::from_matrix(self.product),
            gates: self.gates,
        }
    }
}

/// A closed run: its qubit, its product's kernel and how many gates that
/// is.
struct ClosedRun {
    qubit: u32,
    kernel: Kernel1Q,
    gates: u64,
}

impl ClosedRun {
    /// Emits the run as one sweep.
    fn emit(self, ops: &mut Vec<PlanOp>, stats: &mut FuseStats) {
        stats.runs += 1;
        if self.gates >= 2 {
            stats.fused_runs += 1;
            stats.gates_fused += self.gates;
        }
        ops.push(PlanOp::Run {
            qubit: self.qubit,
            kernel: self.kernel,
        });
    }
}

/// A closed part of a block.
enum Part {
    Run(ClosedRun),
    Cz { a: u32, b: u32 },
}

/// The closed parts of a block that may still be refused, in order: for
/// each run `i`, `czs[i]` CZs and then the run; after the last run,
/// `czs[len]` CZs. Such parts cost at most [`BLOCK_COST`], and a block
/// holds its opening CZ, so there are at most 4 runs (6 each) and 30 CZs.
#[derive(Default)]
struct Parts {
    runs: [Option<ClosedRun>; 4],
    czs: [u8; 5],
    /// Bit `j` set: the `j`-th CZ names its higher qubit first.
    hi_first: u32,
}

impl Parts {
    fn push(&mut self, part: Part) {
        let len = self.runs.iter().flatten().count();
        match part {
            Part::Run(run) => self.runs[len] = Some(run),
            Part::Cz { a, b } => {
                let j: u8 = self.czs.iter().sum();
                self.hi_first |= u32::from(a > b) << j;
                self.czs[len] += 1;
            }
        }
    }

    /// Calls `f` on each part in order, CZ operands as the circuit gave
    /// them; `lo < hi` are the block's qubits.
    fn each(self, lo: u32, hi: u32, mut f: impl FnMut(Part)) {
        let Parts {
            runs,
            czs,
            hi_first,
        } = self;
        let mut cz = (0u32..).map(|j| match hi_first >> j & 1 {
            1 => Part::Cz { a: hi, b: lo },
            _ => Part::Cz { a: lo, b: hi },
        });
        let mut runs = runs.into_iter().flatten();
        for n in czs {
            cz.by_ref().take(n.into()).for_each(&mut f);
            match runs.next() {
                Some(run) => f(Part::Run(run)),
                None => break,
            }
        }
    }
}

/// What an open block keeps of its closed parts.
enum Body {
    /// The parts, while they cost no more than one block sweep.
    Parts(Parts),
    /// Their product, once they cost more.
    Kept(Mat4),
}

/// An open two-qubit block of [`plan`].
struct OpenBlock {
    lo: u32,
    hi: u32,
    /// The open runs of `lo` and `hi` since the block's last CZ.
    runs: [Option<OpenRun>; 2],
    /// Flops per amplitude of the closed parts, swept one by one.
    cost: u32,
    /// Gates in the closed parts, CZs included.
    gates: u64,
    body: Body,
}

impl OpenBlock {
    /// Closes both open runs into parts, `lo`'s first.
    fn close_runs(&mut self) {
        for (side, qubit) in [self.lo, self.hi].into_iter().enumerate() {
            if let Some(run) = self.runs[side].take() {
                self.gates += run.gates;
                self.add(Part::Run(run.close(qubit)));
            }
        }
    }

    /// Adds a CZ on the block's pair, operands as the circuit gave them.
    fn cz(&mut self, a: u32, b: u32) {
        self.close_runs();
        self.gates += 1;
        self.add(Part::Cz { a, b });
    }

    /// Adds a closed part: stored while the parts cost no more than one
    /// block sweep, multiplied into the product from then on.
    fn add(&mut self, part: Part) {
        if let Body::Parts(parts) = &mut self.body {
            self.cost += match &part {
                Part::Run(run) => run_cost(&run.kernel),
                Part::Cz { .. } => CZ_COST,
            };
            if self.cost <= BLOCK_COST {
                parts.push(part);
                return;
            }
            let mut product = IDENTITY4;
            std::mem::take(parts).each(self.lo, self.hi, |part| {
                multiply(&mut product, self.lo, part);
            });
            self.body = Body::Kept(product);
        }
        if let Body::Kept(product) = &mut self.body {
            multiply(product, self.lo, part);
        }
    }

    /// Emits the block: one 4×4 sweep if kept, its parts otherwise.
    fn close(&mut self, ops: &mut Vec<PlanOp>, stats: &mut FuseStats) {
        self.close_runs();
        let (lo, hi) = (self.lo, self.hi);
        match &mut self.body {
            Body::Kept(kernel) => {
                stats.blocks += 1;
                stats.gates_fused += self.gates;
                ops.push(PlanOp::Block2 {
                    lo,
                    hi,
                    kernel: *kernel,
                });
            }
            Body::Parts(parts) => std::mem::take(parts).each(lo, hi, |part| match part {
                Part::Run(run) => run.emit(ops, stats),
                Part::Cz { a, b } => {
                    stats.cz_kernels += 1;
                    ops.push(PlanOp::Cz { a, b });
                }
            }),
        }
    }
}

/// Multiplies a part into a block's product on the left; a CZ negates
/// the row with both bits set, exactly.
fn multiply(product: &mut Mat4, lo: u32, part: Part) {
    match part {
        Part::Run(run) => lift(
            product,
            if run.qubit == lo { 1 } else { 2 },
            &run.kernel.matrix(),
        ),
        Part::Cz { .. } => {
            for x in &mut product[3] {
                *x = -*x;
            }
        }
    }
}

/// Qubits [`plan`] can track: the widest state the exact backend holds.
const MAX_QUBITS: usize = EXACT_QUBIT_LIMIT as usize;

/// What [`plan`] holds open, by qubit, in fixed-size tables so a plan
/// makes one allocation.
struct Open {
    /// Each qubit's open run while no block holds it.
    runs: [Option<OpenRun>; MAX_QUBITS],
    /// The index in `blocks` of the block holding each qubit.
    held: [Option<usize>; MAX_QUBITS],
    blocks: [Option<OpenBlock>; MAX_QUBITS / 2],
}

impl Open {
    fn new() -> Self {
        Open {
            runs: [const { None }; MAX_QUBITS],
            held: [None; MAX_QUBITS],
            blocks: [const { None }; MAX_QUBITS / 2],
        }
    }

    /// Multiplies a single-qubit gate into `q`'s open run.
    fn gate(&mut self, q: u32, m: Mat2) {
        let run = match self.held[q as usize] {
            Some(i) => {
                let block = self.blocks[i].as_mut().expect("held blocks are open");
                &mut block.runs[usize::from(q == block.hi)]
            }
            None => &mut self.runs[q as usize],
        };
        OpenRun::push(run, m);
    }

    /// Adds a CZ: to the block on its pair, or to a new block that first
    /// splits off the blocks holding either qubit and absorbs both open
    /// runs.
    fn cz(&mut self, a: u32, b: u32, ops: &mut Vec<PlanOp>, stats: &mut FuseStats) {
        let (lo, hi) = (a.min(b), a.max(b));
        let i = match (self.held[lo as usize], self.held[hi as usize]) {
            (Some(i), Some(j)) if i == j => i,
            (held_lo, held_hi) => {
                for i in [held_lo, held_hi].into_iter().flatten() {
                    self.split_block(i, ops, stats);
                }
                let i = self
                    .blocks
                    .iter()
                    .position(Option::is_none)
                    .expect("a free block slot");
                self.blocks[i] = Some(OpenBlock {
                    lo,
                    hi,
                    runs: [lo, hi].map(|q| self.runs[q as usize].take()),
                    cost: 0,
                    gates: 0,
                    body: Body::Parts(Parts::default()),
                });
                self.held[lo as usize] = Some(i);
                self.held[hi as usize] = Some(i);
                i
            }
        };
        self.blocks[i]
            .as_mut()
            .expect("held blocks are open")
            .cz(a, b);
    }

    /// Closes what holds `q`: its block, or its open run.
    fn release(&mut self, q: u32, ops: &mut Vec<PlanOp>, stats: &mut FuseStats) {
        if let Some(i) = self.held[q as usize] {
            self.close_block(i, ops, stats);
        } else if let Some(run) = self.runs[q as usize].take() {
            run.close(q).emit(ops, stats);
        }
    }

    /// Closes block `i` without the runs its qubits opened since its last
    /// CZ: they stay open, for the next block on each qubit to absorb.
    fn split_block(&mut self, i: usize, ops: &mut Vec<PlanOp>, stats: &mut FuseStats) {
        let block = self.blocks[i].as_mut().expect("held blocks are open");
        for (side, q) in [block.lo, block.hi].into_iter().enumerate() {
            self.runs[q as usize] = block.runs[side].take();
        }
        self.close_block(i, ops, stats);
    }

    /// Closes block `i` with its open runs.
    fn close_block(&mut self, i: usize, ops: &mut Vec<PlanOp>, stats: &mut FuseStats) {
        let block = self.blocks[i].as_mut().expect("held blocks are open");
        self.held[block.lo as usize] = None;
        self.held[block.hi as usize] = None;
        block.close(ops, stats);
        self.blocks[i] = None;
    }
}

/// Lowers a bound native circuit to an execution plan.
///
/// With `fuse` off, every surviving gate is its own sweep; with it on,
/// runs and blocks are formed by the rules in the module doc. A run of one
/// is the gate's own kernel either way, and a refused block emits its
/// parts, so plans without a run of two or more gates or a kept block are
/// the same plan.
///
/// # Errors
///
/// Returns [`QuantumError::NonNativeGate`] for non-native gates and
/// [`QuantumError::UnboundParameter`] for symbolic angles — the same
/// contract as the pre-kernel `apply_circuit` — and
/// [`QuantumError::TooManyQubits`] for a circuit wider than the exact
/// backend holds.
pub fn plan(circuit: &Circuit, fuse: bool) -> Result<ExecPlan, QuantumError> {
    if circuit.n_qubits() > EXACT_QUBIT_LIMIT {
        return Err(QuantumError::TooManyQubits {
            n_qubits: circuit.n_qubits(),
            limit: EXACT_QUBIT_LIMIT,
        });
    }
    // At most one op per circuit operation: one allocation per plan.
    let mut ops = Vec::with_capacity(circuit.operations().len());
    let mut stats = FuseStats::default();
    let mut trig = SinCosMemo::new();
    let mut open = Open::new();
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
                if fuse {
                    open.gate(op.qubit, m);
                } else {
                    let run = OpenRun {
                        product: m,
                        gates: 1,
                    };
                    run.close(op.qubit).emit(&mut ops, &mut stats);
                }
            }
            Gate::Cz => {
                stats.gates_in += 1;
                let (a, b) = (op.qubit, op.qubit2.expect("CZ has two operands"));
                if fuse {
                    open.cz(a, b, &mut ops, &mut stats);
                } else {
                    stats.cz_kernels += 1;
                    ops.push(PlanOp::Cz { a, b });
                }
            }
            Gate::Measure => open.release(op.qubit, &mut ops, &mut stats),
            other => {
                return Err(QuantumError::NonNativeGate { gate: other.name() });
            }
        }
    }
    for q in 0..circuit.n_qubits() {
        open.release(q, &mut ops, &mut stats);
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
                PlanOp::Block2 { .. } | PlanOp::Cz { .. } => None,
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
    fn cz_opens_a_block_that_absorbs_its_pair_until_a_third_qubit() {
        let mut c = Circuit::new(3);
        // Open runs on both qubits (General, 14 each), a CZ, a run (Cross,
        // 6), a CZ: 36 flops per amplitude as parts, 30 as one block, so
        // the block is kept.
        c.rx(0, 0.4).ry(0, 0.2).rx(1, 0.5).rz(1, 0.1).rz(2, 0.9);
        c.cz(0, 1).rx(0, 0.7).cz(1, 0).ry(1, 0.3);
        // A CZ coupling qubit 1 to qubit 2 closes the block. Qubit 1's run
        // since the block's last CZ stays open and joins the new block on
        // (1, 2), with q2's run and the CZ (6 + 6 + 1 < 30): refused.
        c.cz(2, 1);
        let p = plan(&c, true).unwrap();
        let mut kernel = IDENTITY4;
        lift(&mut kernel, 1, &compose(&mat_ry(0.2), &mat_rx(0.4)));
        lift(&mut kernel, 2, &compose(&mat_rz(0.1), &mat_rx(0.5)));
        let cz = |m: &mut Mat4| m[3].iter_mut().for_each(|x| *x = -*x);
        cz(&mut kernel);
        lift(&mut kernel, 1, &mat_rx(0.7));
        cz(&mut kernel);
        assert_eq!(
            p.ops,
            vec![
                PlanOp::Block2 {
                    lo: 0,
                    hi: 1,
                    kernel
                },
                product_run(1, &[mat_ry(0.3)]),
                product_run(2, &[mat_rz(0.9)]),
                PlanOp::Cz { a: 2, b: 1 },
            ]
        );
        let s = p.stats;
        assert_eq!((s.runs, s.blocks, s.cz_kernels), (2, 1, 1));
        // The block's 7 gates share its sweep; the rest don't.
        assert_eq!((s.gates_in, s.gates_fused, s.fused_runs), (10, 7, 0));
    }

    #[test]
    fn a_measurement_closes_a_block_with_its_open_runs() {
        let mut c = Circuit::new(2);
        c.rx(0, 0.4)
            .ry(0, 0.2)
            .rx(1, 0.5)
            .rz(1, 0.1)
            .cz(0, 1)
            .rx(1, 0.7);
        c.measure(0).ry(1, 0.3);
        let p = plan(&c, true).unwrap();
        // Parts: 14 + 14 + 1 + 6 > 30, the trailing RX(0.7) included.
        let mut kernel = IDENTITY4;
        lift(&mut kernel, 1, &compose(&mat_ry(0.2), &mat_rx(0.4)));
        lift(&mut kernel, 2, &compose(&mat_rz(0.1), &mat_rx(0.5)));
        kernel[3].iter_mut().for_each(|x| *x = -*x);
        lift(&mut kernel, 2, &mat_rx(0.7));
        assert_eq!(
            p.ops,
            vec![
                PlanOp::Block2 {
                    lo: 0,
                    hi: 1,
                    kernel
                },
                product_run(1, &[mat_ry(0.3)])
            ]
        );
    }

    #[test]
    fn cheap_blocks_plan_as_their_parts() {
        // VQE-style RY·CZ·RY: four Real runs and a CZ cost 25 flops per
        // amplitude swept one by one, less than one 4×4 sweep.
        let mut c = Circuit::new(2);
        c.ry(0, 0.8).ry(1, 0.3).cz(1, 0).ry(0, -0.8).ry(1, 0.5);
        let (fused, unfused) = (plan(&c, true).unwrap(), plan(&c, false).unwrap());
        assert_eq!(fused, unfused);
        assert_eq!(run_qubits(&fused), vec![0, 1, 0, 1]);
        assert_eq!(fused.ops[2], PlanOp::Cz { a: 1, b: 0 });
        assert_eq!((fused.stats.blocks, fused.stats.cz_kernels), (0, 1));

        // Two CZs on the pair with nothing between them stay two sweeps,
        // operands in circuit order.
        let mut c = Circuit::new(2);
        c.cz(0, 1).cz(1, 0).rx(1, 0.2);
        let (fused, unfused) = (plan(&c, true).unwrap(), plan(&c, false).unwrap());
        assert_eq!(fused, unfused);
    }

    #[test]
    fn other_qubit_gate_leaves_the_open_run_open() {
        let mut c = Circuit::new(2);
        c.rx(0, 0.4).rx(1, 0.5).rx(0, 0.6);
        let p = plan(&c, true).unwrap();
        // RX⊗RX commute: q0's two gates are one run across the q1 gate.
        assert_eq!(
            p.ops,
            vec![
                product_run(0, &[mat_rx(0.4), mat_rx(0.6)]),
                product_run(1, &[mat_rx(0.5)])
            ]
        );
        assert_eq!((p.stats.runs, p.stats.fused_runs), (2, 1));
    }

    #[test]
    fn plans_are_refused_beyond_the_exact_limit() {
        let c = Circuit::new(EXACT_QUBIT_LIMIT + 1);
        assert!(matches!(
            plan(&c, true),
            Err(QuantumError::TooManyQubits { .. })
        ));
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
        assert_eq!((acc.cz_kernels, acc.blocks), (2, 0));
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
