//! The baseline host: fast silicon, slow software.
//!
//! The baseline host is an i9-14900K — several times faster per
//! operation than a 1 GHz Rocket — but it runs the hybrid loop through a
//! Python/Qiskit-class framework whose interpretive and object overhead
//! multiplies every abstract operation. The net effect (silicon speedup ÷
//! software overhead) is what lets a bare-metal RISC-V core beat a
//! workstation on host computation outright (Fig. 15).

use qtenon_core::config::CoreModel;
use qtenon_core::host::HostCoreModel;
use qtenon_sim_engine::{OpCounter, SimDuration};

/// The baseline host cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineHostModel {
    /// Hardware speed relative to the 1 GHz Rocket reference (clock ×
    /// IPC advantage).
    pub hardware_speedup: f64,
    /// Software-stack multiplier on every abstract operation
    /// (interpreter dispatch, boxing, framework layers).
    pub software_overhead: f64,
}

impl Default for BaselineHostModel {
    fn default() -> Self {
        BaselineHostModel {
            hardware_speedup: 4.0,
            software_overhead: 200.0,
        }
    }
}

impl BaselineHostModel {
    /// Wall time for the tallied operations on the baseline host.
    pub(crate) fn duration_for(&self, ops: &OpCounter) -> SimDuration {
        let reference = HostCoreModel::new(CoreModel::Rocket).duration_for(ops);
        let factor = self.software_overhead / self.hardware_speedup;
        SimDuration::from_ns_f64(reference.as_ns() * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_sim_engine::OpClass;

    #[test]
    fn default_net_factor_is_50x() {
        let mut ops = OpCounter::new();
        ops.record(OpClass::IntAlu, 300);
        ops.record(OpClass::FpComplex, 20);
        ops.record(OpClass::Mem, 90);
        let rocket = HostCoreModel::new(CoreModel::Rocket).duration_for(&ops);
        assert_eq!(BaselineHostModel::default().duration_for(&ops), rocket * 50);
    }

    #[test]
    fn duration_scales_reference_by_net_factor() {
        let m = BaselineHostModel::default();
        let mut ops = OpCounter::new();
        ops.record(OpClass::IntAlu, 1_000);
        // Rocket: 1 µs → baseline: 50 µs.
        assert_eq!(m.duration_for(&ops), SimDuration::from_us(50));
    }

    #[test]
    fn faster_software_stack_narrows_gap() {
        let fast = BaselineHostModel {
            hardware_speedup: 4.0,
            software_overhead: 4.0,
        };
        let mut ops = OpCounter::new();
        ops.record(OpClass::FpAlu, 100);
        let slow = BaselineHostModel::default();
        assert!(fast.duration_for(&ops) < slow.duration_for(&ops));
        // Equal speedup and overhead cancel: Rocket's own time.
        let rocket = HostCoreModel::new(CoreModel::Rocket).duration_for(&ops);
        assert_eq!(fast.duration_for(&ops), rocket);
    }
}
