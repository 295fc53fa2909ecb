//! Host core cost models.
//!
//! The classical computation is executed for real in Rust while an
//! [`OpCounter`] tallies abstract operations; these models convert the
//! tally to cycles at 1 GHz. Per-class costs are effective (throughput)
//! costs: the in-order Rocket pays roughly one slot per simple op with
//! multi-cycle floating point, while the out-of-order BOOM-Large hides
//! latency behind its wider issue but converges with Rocket on
//! memory-bound phases — which is why Fig. 15 finds the two hosts almost
//! identical on this workload mix.

use qtenon_sim_engine::{ClockDomain, OpClass, OpCounter, SimDuration};

use crate::config::CoreModel;

/// Effective cycles per operation class, scaled by 100 for fixed-point
/// arithmetic (e.g. 250 = 2.5 cycles/op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CostTable {
    /// Integer ALU.
    pub int_alu_x100: u64,
    /// FP add/mul.
    pub fp_alu_x100: u64,
    /// FP divide/transcendental.
    pub fp_complex_x100: u64,
    /// Loads/stores (average over hit rates).
    pub mem_x100: u64,
    /// Branches (average over prediction).
    pub branch_x100: u64,
}

impl CostTable {
    fn cost_x100(&self, class: OpClass) -> u64 {
        match class {
            OpClass::IntAlu => self.int_alu_x100,
            OpClass::FpAlu => self.fp_alu_x100,
            OpClass::FpComplex => self.fp_complex_x100,
            OpClass::Mem => self.mem_x100,
            OpClass::Branch => self.branch_x100,
        }
    }
}

/// A host core as a cycle-cost model.
///
/// # Examples
///
/// ```
/// use qtenon_core::config::CoreModel;
/// use qtenon_core::host::HostCoreModel;
/// use qtenon_sim_engine::{OpClass, OpCounter};
///
/// let rocket = HostCoreModel::new(CoreModel::Rocket);
/// let mut ops = OpCounter::new();
/// ops.record(OpClass::IntAlu, 1_000);
/// assert_eq!(rocket.cycles_for(&ops), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCoreModel {
    kind: CoreModel,
    clock: ClockDomain,
    costs: CostTable,
}

impl HostCoreModel {
    /// Creates the cost model for a core at 1 GHz (Table 4).
    pub fn new(kind: CoreModel) -> Self {
        let costs = match kind {
            CoreModel::Rocket => CostTable {
                int_alu_x100: 100,
                fp_alu_x100: 200,
                fp_complex_x100: 1_500,
                mem_x100: 250,
                branch_x100: 150,
            },
            CoreModel::BoomLarge => CostTable {
                int_alu_x100: 40,
                fp_alu_x100: 80,
                fp_complex_x100: 1_000,
                mem_x100: 200,
                branch_x100: 70,
            },
        };
        HostCoreModel {
            kind,
            clock: ClockDomain::from_ghz(1.0),
            costs,
        }
    }

    /// The core clock.
    pub(crate) fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Cycles to retire the tallied operations.
    pub fn cycles_for(&self, ops: &OpCounter) -> u64 {
        let x100: u64 = OpClass::ALL
            .iter()
            .map(|&c| ops.get(c) * self.costs.cost_x100(c))
            .sum();
        x100.div_ceil(100)
    }

    /// Wall time to retire the tallied operations.
    pub fn duration_for(&self, ops: &OpCounter) -> SimDuration {
        self.clock.cycles(self.cycles_for(ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_ops() -> OpCounter {
        let mut ops = OpCounter::new();
        ops.record(OpClass::IntAlu, 1_000);
        ops.record(OpClass::FpAlu, 500);
        ops.record(OpClass::FpComplex, 10);
        ops.record(OpClass::Mem, 800);
        ops.record(OpClass::Branch, 200);
        ops
    }

    #[test]
    fn boom_is_faster_but_same_order() {
        let rocket = HostCoreModel::new(CoreModel::Rocket);
        let boom = HostCoreModel::new(CoreModel::BoomLarge);
        let ops = mixed_ops();
        let r = rocket.cycles_for(&ops);
        let b = boom.cycles_for(&ops);
        assert!(b < r, "boom {b} !< rocket {r}");
        // Fig. 15: the two hosts are "almost identical" — within ~2×.
        assert!(r < 3 * b, "rocket {r} vs boom {b}");
    }

    #[test]
    fn rocket_simple_ops_are_one_cycle() {
        let rocket = HostCoreModel::new(CoreModel::Rocket);
        let mut ops = OpCounter::new();
        ops.record(OpClass::IntAlu, 42);
        assert_eq!(rocket.cycles_for(&ops), 42);
    }

    #[test]
    fn duration_uses_1ghz() {
        let rocket = HostCoreModel::new(CoreModel::Rocket);
        let mut ops = OpCounter::new();
        ops.record(OpClass::IntAlu, 1_000);
        assert_eq!(rocket.duration_for(&ops), SimDuration::from_us(1));
    }

    #[test]
    fn empty_ops_cost_nothing() {
        let boom = HostCoreModel::new(CoreModel::BoomLarge);
        assert_eq!(boom.cycles_for(&OpCounter::new()), 0);
    }

    #[test]
    fn cycles_scale_linearly() {
        let rocket = HostCoreModel::new(CoreModel::Rocket);
        let ops = mixed_ops();
        let once = rocket.cycles_for(&ops);
        let ten = rocket.cycles_for(&ops.scaled(10));
        assert!((ten as i64 - 10 * once as i64).abs() <= 1);
    }
}
