//! Abstract-operation counting for host cost models.
//!
//! The paper measures host computation in RISC-V cycles (via `RDCYCLE`). In
//! this reproduction the classical computation (cost functions, optimizers)
//! is executed for real in Rust while an [`OpCounter`] tallies the abstract
//! operations performed. A host core model (Rocket-like in-order, Boom-like
//! out-of-order) then converts the tally to cycles. This keeps the host-time
//! *scaling* faithful — it grows with the real work the algorithm does —
//! without needing an RTL core.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Classes of abstract host operation tracked by [`OpCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (add, compare, bit ops, index arithmetic).
    IntAlu,
    /// Floating-point add/sub/mul.
    FpAlu,
    /// Floating-point divide, sqrt, or transcendental (sin/cos/exp).
    FpComplex,
    /// Memory load or store.
    Mem,
    /// Taken or mispredictable branch.
    Branch,
}

impl OpClass {
    /// All operation classes, in a fixed order used for array indexing.
    pub const ALL: [OpClass; 5] = [
        OpClass::IntAlu,
        OpClass::FpAlu,
        OpClass::FpComplex,
        OpClass::Mem,
        OpClass::Branch,
    ];

    fn index(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::FpAlu => 1,
            OpClass::FpComplex => 2,
            OpClass::Mem => 3,
            OpClass::Branch => 4,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpClass::IntAlu => "int",
            OpClass::FpAlu => "fp",
            OpClass::FpComplex => "fp-complex",
            OpClass::Mem => "mem",
            OpClass::Branch => "branch",
        };
        f.write_str(name)
    }
}

/// A tally of abstract operations by class.
///
/// # Examples
///
/// ```
/// use qtenon_sim_engine::{OpClass, OpCounter};
///
/// let mut ops = OpCounter::new();
/// ops.record(OpClass::FpAlu, 128);
/// ops.record(OpClass::Mem, 64);
/// assert_eq!(ops.get(OpClass::FpAlu), 128);
/// assert_eq!(ops.total(), 192);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounter {
    counts: [u64; 5],
}

impl OpCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        OpCounter::default()
    }

    /// Records `n` operations of class `class`.
    pub fn record(&mut self, class: OpClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// The count recorded for `class`.
    pub fn get(&self, class: OpClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total operations across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Scales every count by `factor` (e.g. to replicate a per-shot cost
    /// across all shots without recounting).
    pub fn scaled(&self, factor: u64) -> OpCounter {
        let mut out = *self;
        for c in &mut out.counts {
            *c *= factor;
        }
        out
    }
}

impl Add for OpCounter {
    type Output = OpCounter;
    fn add(self, rhs: OpCounter) -> OpCounter {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for OpCounter {
    fn add_assign(&mut self, rhs: OpCounter) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts) {
            *a += b;
        }
    }
}

impl fmt::Display for OpCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ops[")?;
        for (i, class) in OpClass::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={}", class, self.get(*class))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_class() {
        let mut ops = OpCounter::new();
        ops.record(OpClass::IntAlu, 10);
        ops.record(OpClass::Branch, 5);
        ops.record(OpClass::IntAlu, 1);
        assert_eq!(ops.get(OpClass::IntAlu), 11);
        assert_eq!(ops.get(OpClass::Branch), 5);
        assert_eq!(ops.get(OpClass::FpAlu), 0);
        assert_eq!(ops.total(), 16);
    }

    #[test]
    fn add_and_scale() {
        let mut a = OpCounter::new();
        a.record(OpClass::FpAlu, 3);
        let mut b = OpCounter::new();
        b.record(OpClass::FpAlu, 4);
        b.record(OpClass::Mem, 2);
        let c = a + b;
        assert_eq!(c.get(OpClass::FpAlu), 7);
        assert_eq!(c.get(OpClass::Mem), 2);
        let d = c.scaled(10);
        assert_eq!(d.get(OpClass::FpAlu), 70);
        assert_eq!(d.total(), 90);
    }

    #[test]
    fn all_classes_indexed_uniquely() {
        let mut ops = OpCounter::new();
        for (i, class) in OpClass::ALL.iter().enumerate() {
            ops.record(*class, (i + 1) as u64);
        }
        for (i, class) in OpClass::ALL.iter().enumerate() {
            assert_eq!(ops.get(*class), (i + 1) as u64);
        }
    }
}
