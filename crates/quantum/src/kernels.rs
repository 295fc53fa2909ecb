//! Statevector gate kernels over split-complex storage.
//!
//! Every gate the exact simulator executes bottoms out here. The layer
//! has one hard contract: **a [`Kernel1Q`] or [`Mat4`] sweep is bitwise
//! identical no matter how the sweep is batched or compiled.** The state
//! is two `f64` arrays, `re` and `im`, and pair `i` of qubit `q` is
//! amplitude `i` and amplitude `i | 1<<q`. Each plan op is one sweep over
//! every pair, or over every quadruple of a two-qubit block: a fused run
//! or block arrives already multiplied into one kernel
//! ([`crate::fuse::plan`]). A single-qubit sweep is a monomorphic loop
//! over matching lo/hi slices of both arrays, or over a gathered group's
//! lanes, chosen once per block or group, never per pair:
//!
//! - [`Kernel1Q::Diag`]: diagonal gates (RZ and friends) scale each
//!   amplitude with a single complex multiply — 4× fewer flops and half
//!   the loads of the general loop;
//! - [`Kernel1Q::Real`]: real matrices (RY) take `m[r][0]·a0 + m[r][1]·a1`
//!   on `f64` scalars — half the multiplies of the general loop;
//! - [`Kernel1Q::Cross`]: a real diagonal with imaginary off-diagonals
//!   (RX) takes `c·a_self ± s·swap(a_other)` — again half the multiplies;
//! - [`Kernel1Q::General`]: the full 2×2 complex multiply
//!   `m[r][0]·a0 + m[r][1]·a1`, in that order;
//! - low strides: on qubits 0–2 a block's half is at most 4 `f64`s
//!   long, too short for a block loop to fill vector registers, so
//!   `apply_kernel` cuts the state into aligned groups of 8 amplitudes (4
//!   whole pairs), gathers their lo and hi values into 4-lane arrays,
//!   sweeps those with the same four arms and scatters the results back:
//!   every stride fills a whole vector register;
//! - `apply_cz`: when the lower operand is qubit 0 or 1 and the higher
//!   one is at least 2, controlled-Z negates the same lanes of every
//!   aligned group of 4 among the n/2 amplitudes with the higher bit set
//!   (one XOR with a constant sign mask per group, branch-free); every
//!   other operand pair enumerates only the n/4 basis states with both
//!   operand bits set instead of scanning and testing all n;
//! - `apply_block`: a two-qubit block on qubits `lo < hi` sweeps its 4×4
//!   product over every quadruple `i`, `i | 1<<lo`, `i | 1<<hi`,
//!   `i | 1<<lo | 1<<hi` (basis indices 0–3), as
//!   `m[r][0]·a0 + m[r][1]·a1 + m[r][2]·a2 + m[r][3]·a3` added left to
//!   right, always on `L`-lane local arrays (4 lanes, or 8 in the AVX-512
//!   instance), one array per amplitude index and component. When `lo`
//!   is at least 3 lane `p` is quadruple `p`: `L` contiguous amplitudes
//!   of each of the four quarters `lo`/`hi` cut a block of `2·2^hi`
//!   amplitudes into. At 4 lanes, pairs that hold qubit 0, 1 or 2 gather
//!   4 whole quadruples from an aligned group of 16 amplitudes when both
//!   qubits are below 4; otherwise matching groups of 8 from the
//!   `hi`-clear and `hi`-set halves are joined into such a group first.
//!   At 8 lanes those pairs sweep whole vectors of 8 amplitudes instead:
//!   lane `p` is output row `bit(lo) + 2·bit(hi)` of its own quadruple,
//!   amplitude `k` of that quadruple is lane `p` with the pair's bits
//!   replaced by `k`'s (a constant lane permute), and each lane multiplies
//!   by its own row of the matrix. Local arrays cannot alias the state,
//!   so the sweep stays vectorised at every stride.
//!
//! Each output component is the expression the `C64` operators compute
//! for it: the same products of the same operands, added in the same
//! order, so the storage layout never shows in the bits. With real and
//! imaginary parts in separate arrays, `i` runs over contiguous `f64`s
//! in every one of the four slices, which is what lets the sweeps fill
//! vector lanes. One source has three instances ([`KernelInstance`]):
//! `apply_ops_body` compiled for the baseline target and with AVX2 (4
//! lanes), and an AVX-512 instance that sweeps blocks through the same
//! `apply_block` at 8 lanes and hands `(0, 1)` blocks, single-qubit
//! runs and CZs, which measured no faster at 8 lanes, to the AVX2 code.
//! `apply_ops` picks the widest instance the CPU runs, once per plan.
//! Every instance performs the same IEEE operations on every element,
//! and Rust never fuses a multiply and an add into one rounding, so the
//! instances agree bit for bit. The instances are generic over the
//! `Body` they run, so the mean-field shot draw of [`crate::sim`]
//! goes through the same dispatch: 8 SplitMix64 streams per register in
//! the AVX-512 instance, which therefore also needs AVX-512DQ.
//!
//! The three structured classes drop only products with matrix entries
//! that are bit-exact `+0.0`. With finite amplitudes those products are
//! exact zeros, so a structured sweep differs from the general sweep of
//! the same matrix only in the IEEE sign of exactly-zero results.
//!
//! The naive reference loops survive as `#[doc(hidden)]`
//! `apply_matrix2_reference`/`apply_matrix4_reference`/`apply_cz_reference`
//! on [`crate::StateVector`], and each instance is reachable through the
//! hidden `apply_plan_on`; `crates/quantum/tests/kernel_equiv.rs` proves
//! the equivalences on every CI run, and `stride_props.rs` pins the raw
//! bits of every instance the CPU runs at every stride, CZ operand pair
//! and block pair (DESIGN.md §13).

use crate::fuse::PlanOp;
use crate::statevector::C64;

/// A 2×2 complex matrix in row-major order: `m[row][col]`.
pub(crate) type Mat2 = [[C64; 2]; 2];

/// The RX(θ) = exp(-iθX/2) matrix, bit-for-bit the one the simulator has
/// always applied.
pub fn mat_rx(theta: f64) -> Mat2 {
    rx_of((theta / 2.0).sin_cos())
}

/// The RY(θ) = exp(-iθY/2) matrix.
pub fn mat_ry(theta: f64) -> Mat2 {
    ry_of((theta / 2.0).sin_cos())
}

/// The RZ(θ) = exp(-iθZ/2) matrix.
pub fn mat_rz(theta: f64) -> Mat2 {
    rz_of((theta / 2.0).sin_cos())
}

/// [`mat_rx`] from `(sin, cos)` of the half angle.
pub(crate) fn rx_of((s, c): (f64, f64)) -> Mat2 {
    [
        [C64::new(c, 0.0), C64::new(0.0, -s)],
        [C64::new(0.0, -s), C64::new(c, 0.0)],
    ]
}

/// [`mat_ry`] from `(sin, cos)` of the half angle.
pub(crate) fn ry_of((s, c): (f64, f64)) -> Mat2 {
    [
        [C64::new(c, 0.0), C64::new(-s, 0.0)],
        [C64::new(s, 0.0), C64::new(c, 0.0)],
    ]
}

/// [`mat_rz`] from `(sin, cos)` of the half angle.
pub(crate) fn rz_of((s, c): (f64, f64)) -> Mat2 {
    [[C64::new(c, -s), C64::ZERO], [C64::ZERO, C64::new(c, s)]]
}

/// 2×2 complex matrix product `outer · inner` (apply `inner` first):
/// how [`crate::fuse::plan`] multiplies a fused run into one kernel.
/// Each entry is `outer[r][0]·inner[0][c] + outer[r][1]·inner[1][c]`
/// with the `C64` operators, so it rounds like one pair of a general
/// sweep.
pub fn compose(outer: &Mat2, inner: &Mat2) -> Mat2 {
    let mut out = [[C64::ZERO; 2]; 2];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = outer[r][0] * inner[0][c] + outer[r][1] * inner[1][c];
        }
    }
    out
}

/// A 4×4 complex matrix over a qubit pair `lo < hi`, row-major:
/// `m[row][col]`, where basis index `k` is `bit(lo) + 2·bit(hi)`.
pub type Mat4 = [[C64; 4]; 4];

/// The 4×4 identity: a block's product before its first part.
pub const IDENTITY4: Mat4 = {
    let (o, l) = (C64::ZERO, C64::ONE);
    [[l, o, o, o], [o, l, o, o], [o, o, l, o], [o, o, o, l]]
};

/// Multiplies a 2×2 kernel on one qubit of a pair into a block's product
/// on the left: `p ← (m on that qubit)·p`, with `bit` 1 for `lo` and 2 for
/// `hi`. Each row pair `(r, r | bit)` is updated as [`compose`] computes an
/// entry, `m[i][0]·p[r][c] + m[i][1]·p[r | bit][c]`: how
/// [`crate::fuse::plan`] lifts a run into a two-qubit block.
pub fn lift(p: &mut Mat4, bit: usize, m: &Mat2) {
    for r in (0..4).filter(|r| r & bit == 0) {
        let (x0, x1) = (p[r], p[r | bit]);
        p[r] = std::array::from_fn(|c| m[0][0] * x0[c] + m[0][1] * x1[c]);
        p[r | bit] = std::array::from_fn(|c| m[1][0] * x0[c] + m[1][1] * x1[c]);
    }
}

fn is_positive_zero(x: f64) -> bool {
    x.to_bits() == 0
}

fn is_exact_zero(z: C64) -> bool {
    is_positive_zero(z.re) && is_positive_zero(z.im)
}

fn is_exact_one(z: C64) -> bool {
    z.re.to_bits() == 1.0f64.to_bits() && z.im.to_bits() == 0
}

/// Kernel classes, for dispatch accounting. The structured non-diagonal
/// classes ([`Kernel1Q::Real`], [`Kernel1Q::Cross`]) count as `General`,
/// so the `quantum.fuse.kernels.*` counters never depend on how a
/// non-diagonal matrix is swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelClass {
    /// Diagonal single-qubit kernel.
    Diag,
    /// Non-diagonal 2×2 single-qubit kernel.
    General,
}

/// A classified single-qubit kernel: one gate when unfused, a whole
/// run's product when fused. Each plan op sweeps exactly one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel1Q {
    /// Diagonal gate: `a0 ← d0·a0`, `a1 ← d1·a1`.
    Diag {
        /// Top-left diagonal element.
        d0: C64,
        /// Bottom-right diagonal element.
        d1: C64,
    },
    /// Real matrix (every imaginary part `+0.0`, e.g. RY):
    /// `a_r ← m[r][0]·a0 + m[r][1]·a1` on the real and imaginary
    /// components separately.
    Real {
        /// The real parts of the matrix entries.
        m: [[f64; 2]; 2],
    },
    /// Real diagonal and imaginary off-diagonal (every other component
    /// `+0.0`, e.g. RX): `a0 ← c0·a0 + i·s01·a1`, `a1 ← i·s10·a0 + c1·a1`.
    Cross {
        /// Top-left diagonal element (real).
        c0: f64,
        /// Bottom-right diagonal element (real).
        c1: f64,
        /// Imaginary part of the top-right element.
        s01: f64,
        /// Imaginary part of the bottom-left element.
        s10: f64,
    },
    /// Arbitrary 2×2 unitary, applied as `m[r][0]·a0 + m[r][1]·a1`.
    General {
        /// The matrix.
        m: Mat2,
    },
}

impl Kernel1Q {
    /// Classifies a matrix, trying `Diag`, `Real` and `Cross` in that
    /// order. Each class is claimed only when the components its sweep
    /// drops are bit-exact `+0.0`: dropping those products is observably
    /// identical everywhere except the IEEE sign of exactly-zero results.
    /// The strict predicates keep e.g. RX(0), whose off-diagonal carries
    /// a `-0.0` imaginary part, off the diagonal path (it is `Cross`).
    pub fn from_matrix(m: Mat2) -> Self {
        let [[m00, m01], [m10, m11]] = m;
        if is_exact_zero(m01) && is_exact_zero(m10) {
            Kernel1Q::Diag { d0: m00, d1: m11 }
        } else if [m00.im, m01.im, m10.im, m11.im]
            .into_iter()
            .all(is_positive_zero)
        {
            Kernel1Q::Real {
                m: [[m00.re, m01.re], [m10.re, m11.re]],
            }
        } else if [m00.im, m11.im, m01.re, m10.re]
            .into_iter()
            .all(is_positive_zero)
        {
            Kernel1Q::Cross {
                c0: m00.re,
                c1: m11.re,
                s01: m01.im,
                s10: m10.im,
            }
        } else {
            Kernel1Q::General { m }
        }
    }

    /// Whether this kernel is the bit-exact identity (`1.0 + 0.0i` on the
    /// diagonal, `+0.0 + 0.0i` off it). Deliberately strict: RZ(0) keeps
    /// a `-0.0` in a diagonal phase and is *not* elidable, while RX(-0.0)
    /// classifies to `diag(1, 1)` and is. The fusion planner drops only
    /// kernels this predicate accepts; [`Kernel1Q::from_matrix`] never
    /// classifies one as anything but `Diag`.
    pub fn is_identity(&self) -> bool {
        let [[m00, m01], [m10, m11]] = self.matrix();
        is_exact_one(m00) && is_exact_one(m11) && is_exact_zero(m01) && is_exact_zero(m10)
    }

    /// The kernel's class.
    pub(crate) fn class(&self) -> KernelClass {
        match self {
            Kernel1Q::Diag { .. } => KernelClass::Diag,
            Kernel1Q::Real { .. } | Kernel1Q::Cross { .. } | Kernel1Q::General { .. } => {
                KernelClass::General
            }
        }
    }

    /// The kernel as a matrix. Bit-exact with the matrix
    /// [`Kernel1Q::from_matrix`] classified.
    pub fn matrix(&self) -> Mat2 {
        match *self {
            Kernel1Q::Diag { d0, d1 } => [[d0, C64::ZERO], [C64::ZERO, d1]],
            Kernel1Q::Real { m } => m.map(|row| row.map(|x| C64::new(x, 0.0))),
            Kernel1Q::Cross { c0, c1, s01, s10 } => [
                [C64::new(c0, 0.0), C64::new(0.0, s01)],
                [C64::new(0.0, s10), C64::new(c1, 0.0)],
            ],
            Kernel1Q::General { m } => m,
        }
    }
}

/// A compiled instance of the kernel bodies: the same source, built for
/// the baseline target, with AVX2, or with AVX-512F and AVX-512DQ. Every
/// instance performs the same operations on every element, so the bits
/// never depend on which one runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelInstance {
    /// The build's own target, on every architecture.
    Baseline,
    /// `#[target_feature(enable = "avx2")]`, 4 `f64` lanes.
    Avx2,
    /// `#[target_feature(enable = "avx512f,avx512dq")]`: 8-lane block
    /// sweeps but for `(0, 1)`, every other plan op through the AVX2
    /// instance; 8 mean-field shot streams per register, multiplied with
    /// `vpmullq`.
    Avx512,
}

impl KernelInstance {
    /// Every instance, narrowest first.
    pub const ALL: [KernelInstance; 3] = [
        KernelInstance::Baseline,
        KernelInstance::Avx2,
        KernelInstance::Avx512,
    ];

    /// Whether this CPU runs the instance: it has every feature the
    /// instance's `target_feature` turns on (`avx512f` also turns on
    /// `avx2`, `fma` and `f16c`). Never true for a vector instance off
    /// x86.
    pub fn is_available(self) -> bool {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                KernelInstance::Baseline => true,
                KernelInstance::Avx2 => has!("avx2"),
                KernelInstance::Avx512 => {
                    has!("avx512f")
                        && has!("avx512dq")
                        && has!("avx2")
                        && has!("fma")
                        && has!("f16c")
                }
            }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            self == KernelInstance::Baseline
        }
    }

    /// The widest instance this CPU runs.
    fn widest() -> Self {
        let mut all = KernelInstance::ALL.into_iter().rev();
        all.find(|i| i.is_available())
            .unwrap_or(KernelInstance::Baseline)
    }
}

/// Work the kernel instances run: ops that write two buffers, `re` and
/// `im`, compiled into every instance for that instance's target. A
/// plan's [`PlanOp`]s sweep split-complex amplitudes; a mean-field shot
/// draw (`crate::sim::ShotDraw`) fills shots and their streams' end
/// states. Implementations are `#[inline(always)]`, so each instance
/// holds its own copy of the body.
pub(crate) trait Body {
    /// The first buffer the ops write.
    type Re: ?Sized;
    /// The second buffer the ops write.
    type Im: ?Sized;

    /// The body of the baseline and the AVX2 instance.
    fn narrow(re: &mut Self::Re, im: &mut Self::Im, ops: &Self);

    /// The body of the AVX-512 instance. `avx2` runs ops through the AVX2
    /// instance, for the ops that measured no faster at 8 lanes.
    fn wide(
        re: &mut Self::Re,
        im: &mut Self::Im,
        ops: &Self,
        avx2: impl Fn(&mut Self::Re, &mut Self::Im, &Self),
    );
}

/// A plan: every op in order ([`apply_ops_body`]); at 8 lanes, two-qubit
/// blocks but for `(0, 1)` sweep through [`apply_block`] with `L = 8`,
/// and `(0, 1)` blocks, single-qubit runs and CZs run the AVX2 instance's
/// code.
impl Body for [PlanOp] {
    type Re = [f64];
    type Im = [f64];

    #[inline(always)]
    fn narrow(re: &mut [f64], im: &mut [f64], ops: &[PlanOp]) {
        apply_ops_body(re, im, ops);
    }

    #[inline(always)]
    fn wide(
        re: &mut [f64],
        im: &mut [f64],
        ops: &[PlanOp],
        avx2: impl Fn(&mut [f64], &mut [f64], &[PlanOp]),
    ) {
        for op in ops {
            match op {
                PlanOp::Block2 { lo, hi, kernel } if (*lo, *hi) != (0, 1) => {
                    apply_block::<8>(re, im, *lo, *hi, kernel);
                }
                PlanOp::Block2 { .. } | PlanOp::Run { .. } | PlanOp::Cz { .. } => {
                    avx2(re, im, std::slice::from_ref(op));
                }
            }
        }
    }
}

/// Executes plan ops on split-complex storage through the widest instance
/// of one kernel body this CPU supports, picked once per plan.
pub(crate) fn apply_ops(re: &mut [f64], im: &mut [f64], ops: &[PlanOp]) {
    apply_ops_on(KernelInstance::widest(), re, im, ops);
}

/// Runs `ops` on `re` and `im` through the named instance.
///
/// # Panics
///
/// Panics if this CPU cannot run `instance`.
pub(crate) fn apply_ops_on<W: Body + ?Sized>(
    instance: KernelInstance,
    re: &mut W::Re,
    im: &mut W::Im,
    ops: &W,
) {
    assert!(instance.is_available(), "this CPU cannot run {instance:?}");
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        let vector = match instance {
            KernelInstance::Baseline => return apply_ops_baseline(re, im, ops),
            KernelInstance::Avx2 => apply_ops_avx2,
            KernelInstance::Avx512 => apply_ops_avx512,
        };
        // SAFETY: `vector` requires exactly the features that
        // `instance.is_available()` just found on this CPU.
        #[allow(unsafe_code)]
        unsafe {
            vector(re, im, ops)
        };
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    apply_ops_baseline(re, im, ops);
}

/// The baseline-target instance of a [`Body`]. Never inlined, so each
/// instance's body keeps its own symbol in the assembly.
#[inline(never)]
fn apply_ops_baseline<W: Body + ?Sized>(re: &mut W::Re, im: &mut W::Im, ops: &W) {
    W::narrow(re, im, ops);
}

/// The AVX2 instance of a [`Body`]: the same source with 4-wide `f64`
/// lanes. AVX2 alone, never FMA, and Rust never contracts a multiply and
/// an add into one rounding anyway. Never inlined, so the AVX-512
/// instance calls this code, not a copy built for its target.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn apply_ops_avx2<W: Body + ?Sized>(re: &mut W::Re, im: &mut W::Im, ops: &W) {
    W::narrow(re, im, ops);
}

/// The AVX-512 instance of a [`Body`], with `avx512dq` for the shot
/// draw's 64-bit multiplies. `avx512f` implies `avx2`, so the body's
/// calls into the AVX2 instance are safe.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f,avx512dq")]
fn apply_ops_avx512<W: Body + ?Sized>(re: &mut W::Re, im: &mut W::Im, ops: &W) {
    W::wide(re, im, ops, |re, im, ops| apply_ops_avx2(re, im, ops));
}

/// Every op in order: single-qubit kernels by [`apply_kernel`], two-qubit
/// blocks by [`apply_block`] at 4 lanes, CZs by enumeration
/// ([`apply_cz`]). Everything below it is `#[inline(always)]`, so each
/// instance compiles the whole body for its own target features.
#[inline(always)]
fn apply_ops_body(re: &mut [f64], im: &mut [f64], ops: &[PlanOp]) {
    for op in ops {
        match op {
            PlanOp::Run { qubit, kernel } => apply_kernel(re, im, *qubit, kernel),
            PlanOp::Block2 { lo, hi, kernel } => apply_block::<4>(re, im, *lo, *hi, kernel),
            PlanOp::Cz { a, b } => apply_cz(re, im, *a, *b),
        }
    }
}

/// Sweeps one kernel over every pair of qubit `q`. Strides of 1, 2 and 4
/// pairs sweep gathered 4-pair groups ([`gathered`]). `re` and `im` are
/// the real and imaginary parts of the same 2ⁿ amplitudes.
#[inline(always)]
pub(crate) fn apply_kernel(re: &mut [f64], im: &mut [f64], q: u32, kernel: &Kernel1Q) {
    debug_assert!(1usize << q < re.len(), "qubit {q} out of range");
    debug_assert_eq!(re.len(), im.len());
    // A compile-time block width lets LLVM unroll small strides: 1.3–1.8×
    // per pair over a run-time width (12 qubits, 2-vCPU Intel Xeon VM).
    match q {
        // States of 2 or 4 amplitudes hold no group of 8 to gather.
        0 if re.len() < 8 => blocks(re, im, 1, kernel),
        1 if re.len() < 8 => blocks(re, im, 2, kernel),
        0 => gathered::<1>(re, im, kernel),
        1 => gathered::<2>(re, im, kernel),
        2 => gathered::<4>(re, im, kernel),
        3 => blocks(re, im, 8, kernel),
        4 => blocks(re, im, 16, kernel),
        5 => blocks(re, im, 32, kernel),
        6 => blocks(re, im, 64, kernel),
        _ => blocks(re, im, 1 << q, kernel),
    }
}

/// Stride `stride`: each `[lo | hi]` block of `2·stride` amplitudes is one
/// sweep over its halves. Inlined into `apply_kernel`, every constant
/// stride gets its own unrolled loop.
#[inline(always)]
fn blocks(re: &mut [f64], im: &mut [f64], stride: usize, kernel: &Kernel1Q) {
    let block = stride << 1;
    for (re, im) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
        let (re_lo, re_hi) = re.split_at_mut(stride);
        let (im_lo, im_hi) = im.split_at_mut(stride);
        sweep(re_lo, re_hi, im_lo, im_hi, kernel);
    }
}

/// Strides `S` of 1, 2 and 4 on states of at least 8 amplitudes: each
/// aligned group of 8 holds 4 whole pairs, and the lo amplitude of pair
/// `p` sits at `(p / S)·2S + p % S`, its hi partner `S` above. The
/// group's lo and hi values are gathered into 4-lane arrays, swept, and
/// scattered back, so a low stride fills a whole vector register.
#[inline(always)]
fn gathered<const S: usize>(re: &mut [f64], im: &mut [f64], kernel: &Kernel1Q) {
    let lanes: [usize; 4] = std::array::from_fn(|p| p / S * 2 * S + p % S);
    for (re, im) in re.chunks_exact_mut(8).zip(im.chunks_exact_mut(8)) {
        let mut re_lo = lanes.map(|i| re[i]);
        let mut re_hi = lanes.map(|i| re[i + S]);
        let mut im_lo = lanes.map(|i| im[i]);
        let mut im_hi = lanes.map(|i| im[i + S]);
        sweep(&mut re_lo, &mut re_hi, &mut im_lo, &mut im_hi, kernel);
        for (p, &i) in lanes.iter().enumerate() {
            (re[i], re[i + S]) = (re_lo[p], re_hi[p]);
            (im[i], im[i + S]) = (im_lo[p], im_hi[p]);
        }
    }
}

/// One kernel over matching lo/hi slices: pair `i` is
/// `(re_lo[i] + i·im_lo[i], re_hi[i] + i·im_hi[i])`. These four loops
/// define the floating-point behaviour of every gate. Each output
/// component is the expression the `C64` operators compute for it: the
/// same products of the same operands, added in the same order. The
/// `Real` and `Cross` arms are the `General` arm with the products of
/// `+0.0` matrix components dropped, every remaining operation in the
/// general loop's order.
#[inline(always)]
fn sweep(
    re_lo: &mut [f64],
    re_hi: &mut [f64],
    im_lo: &mut [f64],
    im_hi: &mut [f64],
    kernel: &Kernel1Q,
) {
    // Re-slicing to one length lets LLVM drop every bounds check below.
    let n = re_lo.len();
    let (re_hi, im_lo, im_hi) = (&mut re_hi[..n], &mut im_lo[..n], &mut im_hi[..n]);
    match *kernel {
        Kernel1Q::Diag { d0, d1 } => {
            for (re, im, d) in [(&mut *re_lo, &mut *im_lo, d0), (re_hi, im_hi, d1)] {
                for (re, im) in re.iter_mut().zip(im.iter_mut()) {
                    let a = d * C64::new(*re, *im);
                    (*re, *im) = (a.re, a.im);
                }
            }
        }
        Kernel1Q::Real { m } => {
            for i in 0..n {
                let (a0, a1) = (C64::new(re_lo[i], im_lo[i]), C64::new(re_hi[i], im_hi[i]));
                re_lo[i] = m[0][0] * a0.re + m[0][1] * a1.re;
                im_lo[i] = m[0][0] * a0.im + m[0][1] * a1.im;
                re_hi[i] = m[1][0] * a0.re + m[1][1] * a1.re;
                im_hi[i] = m[1][0] * a0.im + m[1][1] * a1.im;
            }
        }
        Kernel1Q::Cross { c0, c1, s01, s10 } => {
            for i in 0..n {
                let (a0, a1) = (C64::new(re_lo[i], im_lo[i]), C64::new(re_hi[i], im_hi[i]));
                re_lo[i] = c0 * a0.re - s01 * a1.im;
                im_lo[i] = c0 * a0.im + s01 * a1.re;
                re_hi[i] = -(s10 * a0.im) + c1 * a1.re;
                im_hi[i] = s10 * a0.re + c1 * a1.im;
            }
        }
        Kernel1Q::General { m } => {
            for i in 0..n {
                let (a0, a1) = (C64::new(re_lo[i], im_lo[i]), C64::new(re_hi[i], im_hi[i]));
                let b0 = m[0][0] * a0 + m[0][1] * a1;
                let b1 = m[1][0] * a0 + m[1][1] * a1;
                (re_lo[i], im_lo[i]) = (b0.re, b0.im);
                (re_hi[i], im_hi[i]) = (b1.re, b1.im);
            }
        }
    }
}

/// Sweeps one 4×4 kernel over every quadruple of qubits `lo < hi`: the
/// amplitudes `i`, `i | 1<<lo`, `i | 1<<hi` and `i | 1<<lo | 1<<hi`
/// (basis indices 0–3 of [`Mat4`]) for each `i` with both bits clear.
/// Every path runs [`sweep4`] on `L`-lane local arrays. Pairs with both
/// qubits at least 3 load `L` contiguous lanes of each quarter
/// ([`quads`]). At 4 lanes, pairs that hold qubit 0, 1 or 2 gather 4
/// quadruples from an aligned group of 16 ([`sweep_group`]), joined from
/// matching groups of 8 in the halves of the higher qubit when it is 4 or
/// more ([`gathered_split`]). At 8 lanes they sweep whole 8-amplitude
/// vectors instead, each output lane fed by constant lane permutes with
/// its own row of the matrix ([`permuted_low`], [`permuted_split`]).
#[inline(always)]
pub(crate) fn apply_block<const L: usize>(
    re: &mut [f64],
    im: &mut [f64],
    lo: u32,
    hi: u32,
    m: &Mat4,
) {
    debug_assert!(
        lo < hi && 1usize << hi < re.len(),
        "pair ({lo}, {hi}) out of range"
    );
    debug_assert_eq!(re.len(), im.len());
    match (lo, hi) {
        // States of 4 or 8 amplitudes hold no group of 16 to gather.
        _ if re.len() < 16 => singles(re, im, 1 << lo, 1 << hi, m),
        (3.., _) => quads::<L>(re, im, 1 << lo, 1 << hi, m),
        (0, 2) if L == 8 => permuted_low::<1, 4>(re, im, m),
        (1, 2) if L == 8 => permuted_low::<2, 4>(re, im, m),
        (0, _) if L == 8 => permuted_split::<1>(re, im, 1 << hi, m),
        (1, _) if L == 8 => permuted_split::<2>(re, im, 1 << hi, m),
        (2, _) if L == 8 => permuted_split::<4>(re, im, 1 << hi, m),
        (0, 1) => gathered_low::<1, 2>(re, im, m),
        (0, 2) => gathered_low::<1, 4>(re, im, m),
        (0, 3) => gathered_low::<1, 8>(re, im, m),
        (1, 2) => gathered_low::<2, 4>(re, im, m),
        (1, 3) => gathered_low::<2, 8>(re, im, m),
        (2, 3) => gathered_low::<4, 8>(re, im, m),
        (0, _) => gathered_split::<1>(re, im, 1 << hi, m),
        (1, _) => gathered_split::<2>(re, im, 1 << hi, m),
        _ => gathered_split::<4>(re, im, 1 << hi, m),
    }
}

/// One component of `L` lanes of the 4 amplitude indices: `[k][p]` is
/// amplitude `k` in lane `p`.
type Lanes<const L: usize> = [[f64; L]; 4];

/// Strides `slo < shi` of at least 8: each block of `2·shi` amplitudes
/// has a `hi`-clear and a `hi`-set half, each of those a `lo`-clear and a
/// `lo`-set quarter per `2·slo` amplitudes. `L` lanes at a time of the
/// four matching quarters are copied into local arrays, swept, and copied
/// back: the sweep never reads through a pointer that a store could alias,
/// so it stays vectorised at every stride.
#[inline(always)]
fn quads<const L: usize>(re: &mut [f64], im: &mut [f64], slo: usize, shi: usize, m: &Mat4) {
    for (re, im) in re
        .chunks_exact_mut(shi << 1)
        .zip(im.chunks_exact_mut(shi << 1))
    {
        let (re_0, re_1) = re.split_at_mut(shi);
        let (im_0, im_1) = im.split_at_mut(shi);
        let quarters = re_0
            .chunks_exact_mut(slo << 1)
            .zip(re_1.chunks_exact_mut(slo << 1))
            .zip(
                im_0.chunks_exact_mut(slo << 1)
                    .zip(im_1.chunks_exact_mut(slo << 1)),
            );
        for ((re_0, re_1), (im_0, im_1)) in quarters {
            let (re_00, re_01) = re_0.split_at_mut(slo);
            let (re_10, re_11) = re_1.split_at_mut(slo);
            let (im_00, im_01) = im_0.split_at_mut(slo);
            let (im_10, im_11) = im_1.split_at_mut(slo);
            // Re-slicing to one length lets LLVM drop every bounds check.
            let n = slo / L;
            let mut re_q = [re_00, re_01, re_10, re_11].map(|x| &mut x.as_chunks_mut::<L>().0[..n]);
            let mut im_q = [im_00, im_01, im_10, im_11].map(|x| &mut x.as_chunks_mut::<L>().0[..n]);
            for j in 0..n {
                let mut re4 = re_q.each_ref().map(|x| x[j]);
                let mut im4 = im_q.each_ref().map(|x| x[j]);
                let (x, y) = (re4, im4);
                sweep4(&mut re4, &mut im4, &x, &y, m);
                for (x, lane) in re_q.iter_mut().zip(re4) {
                    x[j] = lane;
                }
                for (x, lane) in im_q.iter_mut().zip(im4) {
                    x[j] = lane;
                }
            }
        }
    }
}

/// Where amplitude `k` of quadruple `p` sits in an aligned group of 16
/// amplitudes, for strides `slo < shi` of at most 8: the quadruples are
/// based at the 4 indices below 16 with neither bit set, ascending.
const fn low_quads(slo: usize, shi: usize) -> [[usize; 4]; 4] {
    let mut at = [[0; 4]; 4];
    let (mut i, mut p) = (0, 0);
    while p < 4 {
        if i & (slo | shi) == 0 {
            at[0][p] = i;
            at[1][p] = i | slo;
            at[2][p] = i | shi;
            at[3][p] = i | slo | shi;
            p += 1;
        }
        i += 1;
    }
    at
}

/// Pairs `(lo, hi)` with `hi` at most 3, on states of at least 16
/// amplitudes: each aligned group of 16 holds 4 whole quadruples.
#[inline(always)]
fn gathered_low<const SLO: usize, const SHI: usize>(re: &mut [f64], im: &mut [f64], m: &Mat4) {
    let groups = re
        .as_chunks_mut::<16>()
        .0
        .iter_mut()
        .zip(im.as_chunks_mut::<16>().0);
    for (re, im) in groups {
        sweep_group::<SLO, SHI>(re, im, m);
    }
}

/// Pairs `(lo, hi)` with `lo` at most 2 and `hi` at least 4: the `hi`-clear
/// and `hi`-set halves of each block of `2·shi` amplitudes are cut into
/// matching groups of 8. Each such pair of groups, joined into one group
/// of 16 with the `hi`-set group above, holds 4 whole quadruples of the
/// pair `(lo, 3)` of that group.
#[inline(always)]
fn gathered_split<const SLO: usize>(re: &mut [f64], im: &mut [f64], shi: usize, m: &Mat4) {
    for (re, im) in re
        .chunks_exact_mut(shi << 1)
        .zip(im.chunks_exact_mut(shi << 1))
    {
        let (re_0, re_1) = re.split_at_mut(shi);
        let (im_0, im_1) = im.split_at_mut(shi);
        let groups = re_0
            .as_chunks_mut::<8>()
            .0
            .iter_mut()
            .zip(re_1.as_chunks_mut::<8>().0)
            .zip(
                im_0.as_chunks_mut::<8>()
                    .0
                    .iter_mut()
                    .zip(im_1.as_chunks_mut::<8>().0),
            );
        for ((re_0, re_1), (im_0, im_1)) in groups {
            let join = |x0: &[f64; 8], x1: &[f64; 8]| -> [f64; 16] {
                std::array::from_fn(|i| if i < 8 { x0[i] } else { x1[i - 8] })
            };
            let (mut re16, mut im16) = (join(re_0, re_1), join(im_0, im_1));
            sweep_group::<SLO, 8>(&mut re16, &mut im16, m);
            for (x, y) in [re_0, re_1, im_0, im_1].into_iter().zip([
                &re16[..8],
                &re16[8..],
                &im16[..8],
                &im16[8..],
            ]) {
                x.copy_from_slice(y);
            }
        }
    }
}

/// The 4 quadruples of an aligned group of 16 amplitudes and strides
/// `SLO < SHI` of at most 8 ([`low_quads`]): gathered into 4-lane arrays,
/// swept, and scattered back.
#[inline(always)]
fn sweep_group<const SLO: usize, const SHI: usize>(
    re: &mut [f64; 16],
    im: &mut [f64; 16],
    m: &Mat4,
) {
    let at = const { low_quads(SLO, SHI) };
    let mut re4: Lanes<4> = std::array::from_fn(|k| std::array::from_fn(|p| re[at[k][p]]));
    let mut im4: Lanes<4> = std::array::from_fn(|k| std::array::from_fn(|p| im[at[k][p]]));
    let (x, y) = (re4, im4);
    sweep4(&mut re4, &mut im4, &x, &y, m);
    for k in 0..4 {
        for p in 0..4 {
            re[at[k][p]] = re4[k][p];
        }
    }
    for k in 0..4 {
        for p in 0..4 {
            im[at[k][p]] = im4[k][p];
        }
    }
}

/// One matrix entry per lane, split into real and imaginary parts.
type LaneEntry = ([f64; 8], [f64; 8]);

/// Per-lane matrix rows for `R` output vectors of 8 lanes: `[r][k]`
/// holds `m[row(r, p)][k]` in lane `p`. Built once per op.
fn lane_rows<const R: usize>(m: &Mat4, row: impl Fn(usize, usize) -> usize) -> [[LaneEntry; 4]; R] {
    std::array::from_fn(|r| {
        std::array::from_fn(|k| {
            (
                std::array::from_fn(|p| m[row(r, p)][k].re),
                std::array::from_fn(|p| m[row(r, p)][k].im),
            )
        })
    })
}

/// `x` with lane `p` taken from lane `from(p)`: a constant permute once
/// `from` is a constant function.
#[inline(always)]
fn permute(x: &[f64; 8], from: impl Fn(usize) -> usize) -> [f64; 8] {
    std::array::from_fn(|p| x[from(p)])
}

/// Pairs `(lo, hi)` with both qubits below 3, at 8 lanes: every aligned
/// vector of 8 amplitudes holds 2 whole quadruples. Lane `p` is output
/// row `bit(lo) + 2·bit(hi)` of `p`'s quadruple, and amplitude `k` of
/// that quadruple is lane `p` with both bits replaced by `k`'s.
#[inline(always)]
fn permuted_low<const SLO: usize, const SHI: usize>(re: &mut [f64], im: &mut [f64], m: &Mat4) {
    let bits = |p: usize| usize::from(p & SLO != 0) + 2 * usize::from(p & SHI != 0);
    let rows = lane_rows::<1>(m, |_, p| bits(p));
    let from = |k: usize, p: usize| {
        (p & !(SLO | SHI)) | if k & 1 != 0 { SLO } else { 0 } | if k & 2 != 0 { SHI } else { 0 }
    };
    let vectors = re
        .as_chunks_mut::<8>()
        .0
        .iter_mut()
        .zip(im.as_chunks_mut::<8>().0);
    for (re, im) in vectors {
        let a_re: Lanes<8> = std::array::from_fn(|k| permute(re, |p| from(k, p)));
        let a_im: Lanes<8> = std::array::from_fn(|k| permute(im, |p| from(k, p)));
        sweep4(
            std::array::from_mut(re),
            std::array::from_mut(im),
            &a_re,
            &a_im,
            &rows,
        );
    }
}

/// Pairs `(lo, hi)` with `lo` below 3 and `hi` at least 3, at 8 lanes:
/// the `hi`-clear and `hi`-set halves of each block of `2·shi` amplitudes
/// are cut into matching vectors of 8. Lane `p` of the `hi`-clear vector
/// is output row `bit(lo)` of `p`'s quadruple and lane `p` of the
/// `hi`-set vector row `2 + bit(lo)`. Amplitudes 0 and 1 come from the
/// `hi`-clear vector, 2 and 3 from the `hi`-set one, each at lane `p`
/// with `lo`'s bit replaced by `k`'s.
#[inline(always)]
fn permuted_split<const S: usize>(re: &mut [f64], im: &mut [f64], shi: usize, m: &Mat4) {
    let rows = lane_rows::<2>(m, |r, p| 2 * r + usize::from(p & S != 0));
    let from = |k: usize, p: usize| (p & !S) | if k & 1 != 0 { S } else { 0 };
    let of = |x0: &[f64; 8], x1: &[f64; 8]| -> Lanes<8> {
        std::array::from_fn(|k| permute(if k < 2 { x0 } else { x1 }, |p| from(k, p)))
    };
    for (re, im) in re
        .chunks_exact_mut(shi << 1)
        .zip(im.chunks_exact_mut(shi << 1))
    {
        let (re_0, re_1) = re.split_at_mut(shi);
        let (im_0, im_1) = im.split_at_mut(shi);
        let vectors = re_0
            .as_chunks_mut::<8>()
            .0
            .iter_mut()
            .zip(re_1.as_chunks_mut::<8>().0)
            .zip(
                im_0.as_chunks_mut::<8>()
                    .0
                    .iter_mut()
                    .zip(im_1.as_chunks_mut::<8>().0),
            );
        for ((re_0, re_1), (im_0, im_1)) in vectors {
            let (a_re, a_im) = (of(re_0, re_1), of(im_0, im_1));
            let (mut out_re, mut out_im) = ([[0.0; 8]; 2], [[0.0; 8]; 2]);
            sweep4(&mut out_re, &mut out_im, &a_re, &a_im, &rows);
            [*re_0, *re_1] = out_re;
            [*im_0, *im_1] = out_im;
        }
    }
}

/// States of 4 or 8 amplitudes: each quadruple alone, in lane 0 of a
/// sweep whose other lanes hold zeros.
#[inline(always)]
fn singles(re: &mut [f64], im: &mut [f64], slo: usize, shi: usize, m: &Mat4) {
    for i in (0..re.len()).filter(|i| i & (slo | shi) == 0) {
        let at = [i, i | slo, i | shi, i | slo | shi];
        let (mut re4, mut im4) = ([[0.0; 4]; 4], [[0.0; 4]; 4]);
        for (k, &j) in at.iter().enumerate() {
            (re4[k][0], im4[k][0]) = (re[j], im[j]);
        }
        let (x, y) = (re4, im4);
        sweep4(&mut re4, &mut im4, &x, &y, m);
        for (k, &j) in at.iter().enumerate() {
            (re[j], im[j]) = (re4[k][0], im4[k][0]);
        }
    }
}

/// `R` outputs of a 4×4 kernel over `L` lanes. This loop defines the
/// floating-point behaviour of every block: output `r` in lane `p` is
/// `c0·a0 + c1·a1 + c2·a2 + c3·a3` with the `C64` operators, added left
/// to right, where `ak` is lane `p` of `x + i·y` at index `k` and `ck`
/// is entry `k` of row `r` in lane `p`, as
/// [`crate::StateVector::apply_matrix4_reference`] computes it. Where
/// lanes are quadruples a row is a row of `m`, the same in every lane;
/// where lanes are vector positions each lane has its own ([`lane_rows`]).
#[inline(always)]
fn sweep4<const R: usize, const L: usize, C: Coefficient>(
    re: &mut [[f64; L]; R],
    im: &mut [[f64; L]; R],
    x: &Lanes<L>,
    y: &Lanes<L>,
    rows: &[[C; 4]; R],
) {
    for (r, row) in rows.iter().enumerate() {
        for p in 0..L {
            let a = |k: usize| C64::new(x[k][p], y[k][p]);
            let c = |k: usize| row[k].lane(p);
            let b = c(0) * a(0) + c(1) * a(1) + c(2) * a(2) + c(3) * a(3);
            (re[r][p], im[r][p]) = (b.re, b.im);
        }
    }
}

/// A matrix entry as [`sweep4`] reads it in lane `p`.
trait Coefficient {
    fn lane(&self, p: usize) -> C64;
}

/// One entry for every lane.
impl Coefficient for C64 {
    #[inline(always)]
    fn lane(&self, _: usize) -> C64 {
        *self
    }
}

/// Each lane's own entry.
impl Coefficient for LaneEntry {
    #[inline(always)]
    fn lane(&self, p: usize) -> C64 {
        C64::new(self.0[p], self.1[p])
    }
}

/// Controlled-Z kernel: negates exactly the amplitudes with both operand
/// bits set. When the lower operand is qubit 0 or 1 and the higher one is
/// at least 2, it negates the same lanes of every aligned group of 4 among
/// the n/2 amplitudes with the higher bit set, branch-free; every other
/// pair enumerates the n/4 affected amplitudes instead of scanning all n
/// basis states and testing masks. Negation is sign-bit flipping, NaN
/// payloads included, so both are bitwise identical to the scanning
/// reference.
#[inline(always)]
pub(crate) fn apply_cz(re: &mut [f64], im: &mut [f64], a: u32, b: u32) {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let slo = 1usize << lo;
    let shi = 1usize << hi;
    let n = re.len();
    debug_assert!(shi < n, "qubit out of range");
    debug_assert_ne!(a, b, "CZ operands must differ");
    if lo < 2 && hi >= 2 {
        // Each aligned group of 4 in the set half of `hi` has `lo` set in
        // the same lanes, so the negations compile to one XOR with a
        // constant sign mask. Spelled as `-x`, not as a `to_bits` XOR:
        // that form changed code generation elsewhere in the crate, where
        // `sample_shot`'s SplitMix loop got vectorised and slowed down.
        for part in [re, im] {
            for block in part.chunks_exact_mut(shi << 1) {
                for group in block[shi..].chunks_exact_mut(4) {
                    for (j, x) in group.iter_mut().enumerate() {
                        if j & slo != 0 {
                            *x = -*x;
                        }
                    }
                }
            }
        }
        return;
    }
    let mut base_hi = shi;
    while base_hi < n {
        let mut base_lo = base_hi + slo;
        while base_lo < base_hi + shi {
            for part in [&mut *re, &mut *im] {
                for x in &mut part[base_lo..base_lo + slo] {
                    *x = -*x;
                }
            }
            base_lo += slo << 1;
        }
        base_hi += shi << 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(z: C64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    /// [`super::apply_kernel`] on interleaved test data.
    fn apply_kernel(amps: &mut [C64], q: u32, kernel: &Kernel1Q) {
        on_split(amps, |re, im| super::apply_kernel(re, im, q, kernel));
    }

    /// [`super::apply_cz`] on interleaved test data.
    fn apply_cz(amps: &mut [C64], a: u32, b: u32) {
        on_split(amps, |re, im| super::apply_cz(re, im, a, b));
    }

    /// Runs `f` on split copies of `amps` and writes the result back.
    fn on_split(amps: &mut [C64], f: impl FnOnce(&mut [f64], &mut [f64])) {
        let mut re: Vec<f64> = amps.iter().map(|z| z.re).collect();
        let mut im: Vec<f64> = amps.iter().map(|z| z.im).collect();
        f(&mut re, &mut im);
        for (z, (re, im)) in amps.iter_mut().zip(re.into_iter().zip(im)) {
            *z = C64::new(re, im);
        }
    }

    /// A deterministic, non-trivial amplitude soup (not normalised; the
    /// kernels don't care).
    fn soup(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.37).sin();
                let y = (i as f64 * 0.91).cos() - 0.5;
                C64::new(x, y)
            })
            .collect()
    }

    fn naive_1q(amps: &mut [C64], q: u32, m: &Mat2) {
        let stride = 1usize << q;
        let n = amps.len();
        let mut base = 0;
        while base < n {
            for i in base..base + stride {
                let a0 = amps[i];
                let a1 = amps[i + stride];
                amps[i] = m[0][0] * a0 + m[0][1] * a1;
                amps[i + stride] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += stride << 1;
        }
    }

    #[test]
    fn general_kernel_is_bitwise_identical_to_naive_loop() {
        // 512 pairs: gathered, unrolled and run-time strides.
        for q in 0..10u32 {
            let m = mat_ry(1.234 + f64::from(q));
            let mut a = soup(1024);
            let mut b = a.clone();
            naive_1q(&mut a, q, &m);
            apply_kernel(&mut b, q, &Kernel1Q::General { m });
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(*x), bits(*y), "qubit {q}");
            }
        }
    }

    #[test]
    fn classify_routes_rz_to_diag_and_rx_ry_to_general() {
        assert_eq!(
            Kernel1Q::from_matrix(mat_rz(0.7)).class(),
            KernelClass::Diag
        );
        assert_eq!(
            Kernel1Q::from_matrix(mat_rx(0.7)).class(),
            KernelClass::General
        );
        assert_eq!(
            Kernel1Q::from_matrix(mat_ry(0.7)).class(),
            KernelClass::General
        );
        // RX(0): off-diagonal is (0, -0.0) — NOT exact zero, stays general.
        assert_eq!(
            Kernel1Q::from_matrix(mat_rx(0.0)).class(),
            KernelClass::General
        );
    }

    /// Rotation angles whose matrices carry exact zeros and signed zeros.
    const EDGE_ANGLES: [f64; 9] = [
        0.0,
        -0.0,
        std::f64::consts::FRAC_PI_2,
        -std::f64::consts::FRAC_PI_2,
        std::f64::consts::PI,
        -std::f64::consts::PI,
        2.0 * std::f64::consts::PI,
        0.7,
        -2.9,
    ];

    #[test]
    fn classify_routes_ry_to_real_rx_to_cross_and_products_to_general() {
        for theta in EDGE_ANGLES {
            assert!(
                matches!(Kernel1Q::from_matrix(mat_ry(theta)), Kernel1Q::Real { .. }),
                "RY({theta:?})"
            );
            assert!(
                matches!(Kernel1Q::from_matrix(mat_rz(theta)), Kernel1Q::Diag { .. }),
                "RZ({theta:?})"
            );
        }
        for theta in [0.7, -2.9, std::f64::consts::PI, 0.0] {
            assert!(
                matches!(Kernel1Q::from_matrix(mat_rx(theta)), Kernel1Q::Cross { .. }),
                "RX({theta:?})"
            );
        }
        // RX(0.0)'s off-diagonal is (+0.0, -0.0): not an exact zero, so
        // not Diag, but its real part is +0.0, so Cross.
        assert_eq!(bits(mat_rx(0.0)[0][1]), (0, (-0.0f64).to_bits()));
        // RX(-0.0) is bit-exact diag(1, 1): Diag (and elided, see
        // `identity_predicate_is_strictly_bitwise`).
        assert!(matches!(
            Kernel1Q::from_matrix(mat_rx(-0.0)),
            Kernel1Q::Diag { .. }
        ));
        assert!(matches!(
            Kernel1Q::from_matrix(compose(&mat_rx(0.7), &mat_rz(0.3))),
            Kernel1Q::General { .. }
        ));
    }

    #[test]
    fn structured_kernels_are_never_the_identity_and_keep_their_matrix() {
        for theta in EDGE_ANGLES {
            for m in [mat_rx(theta), mat_ry(theta)] {
                let k = Kernel1Q::from_matrix(m);
                if matches!(k, Kernel1Q::Real { .. } | Kernel1Q::Cross { .. }) {
                    assert!(!k.is_identity(), "{k:?}");
                    assert_eq!(k.class(), KernelClass::General);
                }
                assert_eq!(k.matrix().map(|r| r.map(bits)), m.map(|r| r.map(bits)));
            }
        }
    }

    /// Amplitude bits with IEEE signed zeros canonicalised; rejects NaN.
    fn canonical(amps: &[C64]) -> Vec<(u64, u64)> {
        let canon = |x: f64| {
            assert!(!x.is_nan(), "NaN amplitude");
            if x == 0.0 {
                0
            } else {
                x.to_bits()
            }
        };
        amps.iter().map(|z| (canon(z.re), canon(z.im))).collect()
    }

    /// A 10-qubit state grown from |0…0⟩ by a few edge-angle rotations:
    /// most amplitudes are exact zeros, some of them `-0.0`.
    fn sparse_state() -> Vec<C64> {
        let mut amps = vec![C64::ZERO; 1024];
        amps[0] = C64::ONE;
        let pi = std::f64::consts::PI;
        for (q, m) in [
            (1, mat_ry(pi / 2.0)),
            (4, mat_rx(-pi)),
            (6, mat_rz(pi)),
            (8, mat_rx(pi / 2.0)),
        ] {
            apply_kernel(&mut amps, q, &Kernel1Q::General { m });
        }
        amps
    }

    #[test]
    fn structured_sweeps_match_general_sweep_up_to_zero_signs() {
        let starts = [soup(1024), sparse_state()];
        assert!(
            starts[1]
                .iter()
                .filter(|z| z.re == 0.0 && z.im == 0.0)
                .count()
                > 900
        );
        for theta in EDGE_ANGLES {
            for m in [mat_rx(theta), mat_ry(theta)] {
                let k = Kernel1Q::from_matrix(m);
                if !matches!(k, Kernel1Q::Real { .. } | Kernel1Q::Cross { .. }) {
                    continue;
                }
                for start in &starts {
                    for q in 0..10u32 {
                        let mut fast = start.clone();
                        let mut general = start.clone();
                        apply_kernel(&mut fast, q, &k);
                        apply_kernel(&mut general, q, &Kernel1Q::General { m });
                        assert_eq!(canonical(&fast), canonical(&general), "{k:?} on qubit {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn identity_predicate_is_strictly_bitwise() {
        let identity = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
        assert!(Kernel1Q::from_matrix(identity).is_identity());
        // RZ(0) carries a -0.0 phase component: not elidable.
        assert!(!Kernel1Q::from_matrix(mat_rz(0.0)).is_identity());
        // RY(-0.0) keeps a -0.0 in its lower-left entry: not elidable.
        assert!(!Kernel1Q::from_matrix(mat_ry(-0.0)).is_identity());
        // RX(-0.0) really is diag(1, 1) bit-for-bit: elidable.
        assert!(Kernel1Q::from_matrix(mat_rx(-0.0)).is_identity());
    }

    #[test]
    fn composed_run_matches_sequential_sweeps_within_bound() {
        for q in 0..10u32 {
            let mut c = crate::Circuit::new(10);
            c.rz(q, 0.4).rx(q, 1.1).ry(q, -2.6).rz(q, 0.9);
            let fused = crate::fuse::plan(&c, true).unwrap();
            let unfused = crate::fuse::plan(&c, false).unwrap();
            assert_eq!((fused.ops.len(), unfused.ops.len()), (1, 4));
            let start = soup(1024);
            let norm = start.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            let (mut composed, mut sequential) = (start.clone(), start);
            on_split(&mut composed, |re, im| apply_ops(re, im, &fused.ops));
            on_split(&mut sequential, |re, im| apply_ops(re, im, &unfused.ops));
            let distance = composed
                .iter()
                .zip(&sequential)
                .map(|(x, y)| (*x - *y).norm_sqr())
                .sum::<f64>()
                .sqrt();
            let bound = fused.stats.composition_bound() * norm;
            assert!(distance <= bound, "qubit {q}: {distance:e} > {bound:e}");
        }
    }

    #[test]
    fn cz_kernel_matches_scanning_reference_bitwise() {
        for (a, b) in [(0u32, 1u32), (1, 0), (0, 3), (2, 4), (4, 1)] {
            let mut fast = soup(32);
            let mut slow = fast.clone();
            apply_cz(&mut fast, a, b);
            let (ma, mb) = (1usize << a, 1usize << b);
            for (i, amp) in slow.iter_mut().enumerate() {
                if i & ma != 0 && i & mb != 0 {
                    *amp = -*amp;
                }
            }
            for (x, y) in fast.iter().zip(&slow) {
                assert_eq!(bits(*x), bits(*y), "cz({a},{b})");
            }
        }
    }

    #[test]
    fn compose_matches_rz_angle_addition_approximately() {
        let (a, b) = (0.73, -1.31);
        let composed = compose(&mat_rz(b), &mat_rz(a));
        let direct = mat_rz(a + b);
        for r in 0..2 {
            for c in 0..2 {
                assert!((composed[r][c].re - direct[r][c].re).abs() < 1e-12);
                assert!((composed[r][c].im - direct[r][c].im).abs() < 1e-12);
            }
        }
    }
}
