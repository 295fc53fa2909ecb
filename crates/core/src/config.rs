//! System configuration (Table 4) and software policy knobs.

use qtenon_controller::{AdiModel, BusConfig, PipelineConfig};
use qtenon_isa::QccLayout;
use qtenon_mem::HierarchyConfig;
use qtenon_quantum::GateTimes;
use qtenon_sim_engine::FaultPlan;

use crate::SystemError;

/// Which RISC-V host core drives the system (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreModel {
    /// Rocket: in-order, single-issue, 1 GHz.
    Rocket,
    /// BOOM-Large: out-of-order, superscalar, 1 GHz.
    BoomLarge,
}

impl CoreModel {
    /// Display name matching the paper's figure labels.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CoreModel::Rocket => "Qtenon-Rocket",
            CoreModel::BoomLarge => "Qtenon-Boom-L",
        }
    }
}

impl std::fmt::Display for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How quantum-host synchronisation is enforced (Section 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncMode {
    /// RISC-V default: FENCE instructions serialise quantum execution,
    /// transmission, and host post-processing (Fig. 9a).
    Fence,
    /// Qtenon's soft memory barrier: transmissions and post-processing
    /// overlap quantum execution (Fig. 9b).
    #[default]
    FineGrained,
}

/// When measurement results cross the bus (Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransmissionPolicy {
    /// One PUT per shot — simple, but under-utilises the 256-bit bus.
    Immediate,
    /// Algorithm 1: one PUT every ⌊B/N⌋ shots.
    #[default]
    Batched,
}

/// The full Qtenon system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QtenonConfig {
    /// Qubit count.
    pub n_qubits: u32,
    /// Host core model.
    pub core: CoreModel,
    /// Quantum controller cache layout (Table 2 geometry).
    pub layout: QccLayout,
    /// Host memory hierarchy (Table 4).
    pub hierarchy: HierarchyConfig,
    /// System bus (TileLink, 256-bit).
    pub bus: BusConfig,
    /// Pulse pipeline and PGU pool.
    pub pipeline: PipelineConfig,
    /// ADI latency model.
    pub adi: AdiModel,
    /// Quantum gate durations.
    pub gate_times: GateTimes,
    /// Synchronisation mode.
    pub sync: SyncMode,
    /// Measurement transmission policy.
    pub transmission: TransmissionPolicy,
    /// Seed for chip sampling.
    pub seed: u64,
    /// Deterministic fault-injection plan (all rates zero by default:
    /// the fault layer is inert and the system behaves exactly as the
    /// fault-free model).
    pub faults: FaultPlan,
    /// Worker threads for shot-sharded sampling (1 = serial). Purely a
    /// wall-clock knob: per-shot RNG streams make every thread count
    /// produce bitwise-identical results, so `threads` never appears in
    /// any metric or report.
    pub threads: usize,
    /// Enables wall-clock capture in the latency-attribution profiler.
    /// Sim-time spans (the phase table and every `profile.*` metric) are
    /// always collected, so this flag never changes any report or metric
    /// — it only unlocks the explicitly-unstable wall-time printout.
    pub profile: bool,
    /// Enables gate fusion in the exact statevector backend: each run of
    /// adjacent same-qubit gates is multiplied into one kernel and swept
    /// once. Amplitudes move only within a rounding bound and sampled
    /// artefacts stay identical (DESIGN.md §13), so like `threads` this
    /// is a wall-clock knob; `--no-fuse` is the CLI escape hatch.
    pub fuse: bool,
}

impl QtenonConfig {
    /// The Table 4 configuration at a given qubit count and core.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Config`] if the QCC layout cannot be built.
    pub fn table4(n_qubits: u32, core: CoreModel) -> Result<Self, SystemError> {
        let layout =
            QccLayout::for_qubits(n_qubits).map_err(|e| SystemError::Config(e.to_string()))?;
        Ok(QtenonConfig {
            n_qubits,
            core,
            layout,
            hierarchy: HierarchyConfig::default(),
            bus: BusConfig::default(),
            pipeline: PipelineConfig::default(),
            adi: AdiModel::default(),
            gate_times: GateTimes::default(),
            sync: SyncMode::FineGrained,
            transmission: TransmissionPolicy::Batched,
            seed: 0x51,
            faults: FaultPlan::default(),
            threads: 1,
            profile: false,
            fuse: true,
        })
    }

    /// Returns a copy with a different synchronisation mode.
    pub fn with_sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }

    /// Returns a copy with a different transmission policy.
    pub fn with_transmission(mut self, transmission: TransmissionPolicy) -> Self {
        self.transmission = transmission;
        self
    }

    /// Returns a copy with a different sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns a copy with a different worker-thread count (0 is clamped
    /// to 1, i.e. serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy with wall-clock profiling enabled or disabled.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Returns a copy with gate fusion enabled or disabled.
    pub fn with_fuse(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_builds_for_paper_sizes() {
        for n in [8, 16, 24, 32, 40, 48, 56, 64, 128, 256, 320] {
            let cfg = QtenonConfig::table4(n, CoreModel::Rocket).unwrap();
            assert_eq!(cfg.n_qubits, n);
            assert_eq!(cfg.layout.n_qubits(), n);
        }
    }

    #[test]
    fn defaults_match_paper_policies() {
        let cfg = QtenonConfig::table4(64, CoreModel::BoomLarge).unwrap();
        assert_eq!(cfg.sync, SyncMode::FineGrained);
        assert_eq!(cfg.transmission, TransmissionPolicy::Batched);
        assert_eq!(cfg.pipeline.pgu.units, 8);
    }

    #[test]
    fn builder_toggles() {
        let cfg = QtenonConfig::table4(8, CoreModel::Rocket)
            .unwrap()
            .with_sync(SyncMode::Fence)
            .with_transmission(TransmissionPolicy::Immediate)
            .with_seed(9);
        assert_eq!(cfg.sync, SyncMode::Fence);
        assert_eq!(cfg.transmission, TransmissionPolicy::Immediate);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn fault_plan_defaults_inert_and_builder_installs_one() {
        let cfg = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
        assert!(!cfg.faults.is_active());
        let cfg = cfg.with_faults(FaultPlan::all(0.01).with_seed(7));
        assert!(cfg.faults.is_active());
        assert_eq!(cfg.faults.seed, 7);
    }

    #[test]
    fn threads_default_serial_and_clamp_to_one() {
        let cfg = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.with_threads(4).threads, 4);
        assert_eq!(cfg.with_threads(0).threads, 1);
    }

    #[test]
    fn fuse_defaults_on_and_builder_toggles_off() {
        let cfg = QtenonConfig::table4(8, CoreModel::Rocket).unwrap();
        assert!(cfg.fuse);
        assert!(!cfg.with_fuse(false).fuse);
    }

    #[test]
    fn zero_qubits_rejected() {
        assert!(QtenonConfig::table4(0, CoreModel::Rocket).is_err());
    }

    #[test]
    fn core_names_match_figures() {
        assert_eq!(CoreModel::Rocket.to_string(), "Qtenon-Rocket");
        assert_eq!(CoreModel::BoomLarge.to_string(), "Qtenon-Boom-L");
    }
}
