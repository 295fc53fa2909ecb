//! The four-stage pulse-computation pipeline (Fig. 6).
//!
//! Stage 1 reads the circuit definition from the Program Index Buffer;
//! stage 2 decodes it (fetching the parameter from the register file when
//! `reg_flag` is set) and consults the SLT; stage 3 dispatches cache-miss
//! entries to a free PGU via the priority encoder, stalling stages 1–2
//! when all PGUs are busy; stage 4 arbitrates writeback of finished pulses
//! into the `.pulse` segment and is decoupled from the stall by a
//! ready-valid interface.

use qtenon_isa::{GateType, QAddress, QccLayout, QubitId};
use qtenon_sim_engine::{ClockDomain, FaultInjector, MetricsRegistry, SimDuration, SimTime};

use crate::error::ControllerError;
use crate::pgu::{PguConfig, PguPool};
use crate::slt::{PulseResolution, SltController, SltStats};

/// Pipeline clocking and PGU parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Clock driving stages 1/2/4.
    pub clock: ClockDomain,
    /// The PGU pool behind stage 3.
    pub pgu: PguConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            clock: ClockDomain::from_ghz(1.0),
            pgu: PguConfig::default(),
        }
    }
}

/// One entry flowing through the pipeline: a gate whose pulse must be
/// located or generated, as `(qubit, gate, data27)`. The `data27` field
/// is already regfile-resolved.
pub(crate) type WorkItem = (QubitId, GateType, u32);

/// Timing and cache statistics for one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Wall time from first fetch to last writeback.
    pub total_time: SimDuration,
    /// Entries processed.
    pub entries: u64,
    /// Pulses actually computed by PGUs.
    pub generated: u64,
    /// Time stages 1–2 spent stalled on busy PGUs.
    pub stall_time: SimDuration,
    /// Time from `start` until stages 1–2 handed off the last entry
    /// (fetch + decode/SLT occupancy, stalls included).
    pub front_time: SimDuration,
    /// Total PGU busy time summed across dispatches (overlapping units
    /// accumulate, so this can exceed `total_time`).
    pub pgu_busy: SimDuration,
}

/// The pipeline: SLT + PGU pool + stage timing.
///
/// # Examples
///
/// ```
/// use qtenon_controller::pipeline::{PipelineConfig, PulsePipeline};
/// use qtenon_isa::{EncodedAngle, GateType, QccLayout, QubitId};
/// use qtenon_sim_engine::{FaultInjector, FaultPlan, SimTime};
///
/// let layout = QccLayout::for_qubits(4)?;
/// let mut pipe = PulsePipeline::new(PipelineConfig::default(), layout)?;
/// let mut no_faults = FaultInjector::new(FaultPlan::default());
/// let item = (QubitId::new(0), GateType::Rx, EncodedAngle::from_radians(0.5).code());
/// let (report, generated) = pipe.process(SimTime::ZERO, &[item, item], &mut no_faults)?;
/// assert_eq!(report.generated, 1); // second occurrence hits the SLT
/// assert_eq!(generated, [layout.pulse_entry(QubitId::new(0), 0)?]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PulsePipeline {
    config: PipelineConfig,
    slt: SltController,
    pgus: PguPool,
    /// The last run's freshly computed pulses, kept so later runs reuse
    /// its storage.
    fresh: Vec<QAddress>,
    /// Cumulative entries processed across runs.
    total_entries: u64,
    /// Cumulative pulses generated across runs.
    total_generated: u64,
}

impl PulsePipeline {
    /// Creates an idle pipeline for a cache layout.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::NoPguUnits`] if the PGU pool is
    /// configured with zero units, and
    /// [`ControllerError::PulseChunkTooWide`] if the layout's pulse chunk
    /// outgrows the SLT's slot field.
    pub fn new(config: PipelineConfig, layout: QccLayout) -> Result<Self, ControllerError> {
        Ok(PulsePipeline {
            config,
            slt: SltController::new(layout)?,
            pgus: PguPool::new(config.pgu)?,
            fresh: Vec::new(),
            total_entries: 0,
            total_generated: 0,
        })
    }

    /// Cumulative SLT statistics across runs.
    pub fn slt_stats(&self) -> SltStats {
        self.slt.stats()
    }

    /// Processes `items` starting at `start`, returning the run report and
    /// the `.pulse` addresses of the pulses PGUs computed fresh, in input
    /// order. SLT lookups run their parity check and PGU dispatches draw
    /// stall/failure faults from
    /// `faults`, with retries and degradation costed into the report's
    /// timing; an inert injector changes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::QubitOutOfRange`] when a work item names
    /// a qubit outside the layout (malformed program or config) — the run
    /// degrades into a typed error instead of aborting the process — and
    /// [`ControllerError::PguRetriesExhausted`] when a dispatch burns
    /// through the plan's retry budget.
    pub fn process(
        &mut self,
        start: SimTime,
        items: &[WorkItem],
        faults: &mut FaultInjector,
    ) -> Result<(PipelineReport, &[QAddress]), ControllerError> {
        let cycle = self.config.clock.period();
        self.fresh.clear();
        let mut stall_time = SimDuration::ZERO;
        let mut pgu_busy = SimDuration::ZERO;
        // Time the front of the pipeline (stages 1–2) hands the current
        // entry to stage 3: advances one cycle per entry, plus stalls.
        let mut front = start;
        // Latest completion across all entries (stage 4 writebacks).
        let mut last_complete = start;

        for &(qubit, gate, data27) in items {
            if gate == GateType::Idle {
                // Idle entries occupy a fetch slot but produce nothing.
                front += cycle;
                continue;
            }
            // Stages 1–2: fetch + decode/SLT, one cycle each, pipelined at
            // one entry per cycle; `front` models the initiation interval.
            front += cycle;
            let decode_done = front + cycle;
            let complete = match self.slt.resolve(qubit, gate, data27, faults)? {
                PulseResolution::SltHit(_) | PulseResolution::QSpaceHit(_) => {
                    // No PGU work: the QAddress link writes back next cycle.
                    decode_done + cycle
                }
                PulseResolution::Allocated(qaddr) => {
                    // Stage 3: dispatch, stalling the front if all busy.
                    let dispatch = self.pgus.dispatch(decode_done, faults)?;
                    if dispatch.start > decode_done {
                        let stall = dispatch.start - decode_done;
                        stall_time += stall;
                        front += stall; // stages 1–2 stall with us
                    }
                    pgu_busy += dispatch.done.saturating_since(dispatch.start);
                    self.fresh.push(qaddr);
                    // Stage 4: arbiter + writeback, one cycle.
                    dispatch.done + cycle
                }
            };
            last_complete = last_complete.max(complete);
        }

        let report = PipelineReport {
            total_time: last_complete.saturating_since(start),
            entries: items.len() as u64,
            generated: self.fresh.len() as u64,
            stall_time,
            front_time: front.saturating_since(start),
            pgu_busy,
        };
        self.total_entries += report.entries;
        self.total_generated += report.generated;
        Ok((report, &self.fresh))
    }

    /// Entries processed since the last reset.
    pub fn total_entries(&self) -> u64 {
        self.total_entries
    }

    /// Pulses generated since the last reset.
    pub fn total_generated(&self) -> u64 {
        self.total_generated
    }

    /// Injected PGU stalls observed so far.
    pub fn pgu_stalls(&self) -> u64 {
        self.pgus.stalls()
    }

    /// PGU re-dispatches forced by injected bad-pulse failures.
    pub fn pgu_redispatches(&self) -> u64 {
        self.pgus.redispatches()
    }

    /// Registers pipeline, SLT, and PGU statistics under `prefix`
    /// (e.g. `controller`), yielding `controller.pipeline.*`,
    /// `controller.slt.*`, and `controller.pgu.*`. The stall time is not
    /// among them: the caller records each report's
    /// [`stall_time`](PipelineReport::stall_time) once, in its profile.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.counter(&format!("{prefix}.pipeline.entries"), self.total_entries);
        m.counter(
            &format!("{prefix}.pipeline.generated"),
            self.total_generated,
        );
        self.slt.export_metrics(m, &format!("{prefix}.slt"));
        self.pgus.export_metrics(m, &format!("{prefix}.pgu"));
    }

    /// Clears SLT/QSpace contents and PGU occupancy (cold restart; the
    /// baseline recompile-from-scratch behaviour).
    pub fn reset(&mut self) {
        self.slt.reset();
        self.pgus.reset();
        self.total_entries = 0;
        self.total_generated = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_isa::EncodedAngle;
    use qtenon_sim_engine::FaultPlan;

    fn no_faults() -> FaultInjector {
        FaultInjector::new(FaultPlan::default())
    }

    fn pipeline() -> PulsePipeline {
        PulsePipeline::new(PipelineConfig::default(), QccLayout::for_qubits(8).unwrap()).unwrap()
    }

    /// The address of the first pulse a fresh pipeline generates on `q`.
    fn first_slot(q: u32) -> QAddress {
        let layout = QccLayout::for_qubits(8).unwrap();
        layout.pulse_entry(QubitId::new(q), 0).unwrap()
    }

    fn rx(q: u32, theta: f64) -> WorkItem {
        (
            QubitId::new(q),
            GateType::Rx,
            EncodedAngle::from_radians(theta).code(),
        )
    }

    #[test]
    fn single_item_takes_pipeline_plus_pgu_latency() {
        let mut p = pipeline();
        let (report, generated) = p
            .process(SimTime::ZERO, &[rx(0, 1.0)], &mut no_faults())
            .unwrap();
        // fetch (1) + decode (1) + PGU (1000) + writeback (1) cycles.
        assert_eq!(report.total_time, SimDuration::from_ns(1003));
        assert_eq!(report.generated, 1);
        assert_eq!(generated, [first_slot(0)]);
    }

    #[test]
    fn repeated_parameter_is_skipped() {
        let mut p = pipeline();
        let items = [rx(0, 1.0), rx(0, 1.0), rx(0, 1.0)];
        let (report, generated) = p.process(SimTime::ZERO, &items, &mut no_faults()).unwrap();
        assert_eq!((report.entries, report.generated), (3, 1));
        // Only the first occurrence is computed.
        assert_eq!(generated, [first_slot(0)]);
        assert_eq!(p.slt_stats().hits, 2);
    }

    #[test]
    fn warm_second_run_is_fast() {
        let mut p = pipeline();
        let items: Vec<WorkItem> = (0..8).map(|q| rx(q, 0.7)).collect();
        let (cold, _) = p.process(SimTime::ZERO, &items, &mut no_faults()).unwrap();
        let (warm, _) = p.process(SimTime::ZERO, &items, &mut no_faults()).unwrap();
        assert_eq!(warm.generated, 0);
        assert!(warm.total_time < cold.total_time / 10);
    }

    #[test]
    fn eight_pgus_absorb_eight_misses_without_stall() {
        let mut p = pipeline();
        let items: Vec<WorkItem> = (0..8).map(|q| rx(q, 0.1)).collect();
        let (report, _) = p.process(SimTime::ZERO, &items, &mut no_faults()).unwrap();
        assert_eq!(report.stall_time, SimDuration::ZERO);
        // Entries enter one per cycle; last enters at cycle 8, finishes
        // ~1002 cycles later.
        assert_eq!(report.total_time, SimDuration::from_ns(8 + 1002));
    }

    #[test]
    fn ninth_distinct_pulse_stalls_the_front() {
        let mut p = pipeline();
        // Nine distinct parameters on one qubit: the ninth waits for PGU 0.
        let items: Vec<WorkItem> = (0..9).map(|i| rx(0, 0.1 + 0.2 * i as f64)).collect();
        let (report, _) = p.process(SimTime::ZERO, &items, &mut no_faults()).unwrap();
        assert!(report.stall_time > SimDuration::ZERO);
        assert_eq!(report.generated, 9);
    }

    #[test]
    fn idle_entries_produce_nothing() {
        let mut p = pipeline();
        let items = [(QubitId::new(0), GateType::Idle, 0)];
        let (report, generated) = p.process(SimTime::ZERO, &items, &mut no_faults()).unwrap();
        assert_eq!(report.generated, 0);
        assert!(generated.is_empty());
        assert_eq!(p.slt_stats().lookups, 0);
    }

    #[test]
    fn measurement_pulses_cache_like_gates() {
        let mut p = pipeline();
        let m = (QubitId::new(0), GateType::Measure, 0);
        let (r1, _) = p.process(SimTime::ZERO, &[m], &mut no_faults()).unwrap();
        let (r2, _) = p.process(SimTime::ZERO, &[m], &mut no_faults()).unwrap();
        assert_eq!(r1.generated, 1);
        assert_eq!(r2.generated, 0);
    }

    #[test]
    fn reset_forces_regeneration() {
        let mut p = pipeline();
        p.process(SimTime::ZERO, &[rx(0, 1.0)], &mut no_faults())
            .unwrap();
        p.reset();
        let (report, _) = p
            .process(SimTime::ZERO, &[rx(0, 1.0)], &mut no_faults())
            .unwrap();
        assert_eq!(report.generated, 1);
    }

    #[test]
    fn parity_faults_force_regeneration_with_longer_runtime() {
        use qtenon_sim_engine::FaultSite;
        let plan = FaultPlan::default()
            .with_rate(FaultSite::SltBitFlip, 0.8)
            .with_seed(17);
        let mut inj = FaultInjector::new(plan);
        let mut p = pipeline();
        let items = vec![rx(0, 1.0); 20];
        p.process(SimTime::ZERO, &items, &mut no_faults()).unwrap(); // warm
        let mut clean = pipeline();
        clean
            .process(SimTime::ZERO, &items, &mut no_faults())
            .unwrap(); // warm
        let before = p.slt_stats();
        let (faulty, _) = p.process(SimTime::ZERO, &items, &mut inj).unwrap();
        let after = p.slt_stats();
        let (warm, _) = clean
            .process(SimTime::ZERO, &items, &mut no_faults())
            .unwrap();
        assert!(after.parity_invalidations > before.parity_invalidations);
        assert!(faulty.generated + after.qspace_hits - before.qspace_hits > 0);
        assert!(
            faulty.total_time > warm.total_time,
            "degraded run must pay for recomputation"
        );
    }

    #[test]
    fn out_of_range_qubit_degrades_to_typed_error() {
        let mut p = pipeline();
        // The layout has 8 qubits; qubit 12 is a malformed program, not a
        // reason to abort the process.
        let err = p
            .process(SimTime::ZERO, &[rx(12, 1.0)], &mut no_faults())
            .unwrap_err();
        assert_eq!(
            err,
            ControllerError::QubitOutOfRange {
                qubit: 12,
                n_qubits: 8
            }
        );
        // The pipeline stays usable for well-formed work afterwards.
        let (report, _) = p
            .process(SimTime::ZERO, &[rx(0, 1.0)], &mut no_faults())
            .unwrap();
        assert_eq!(report.generated, 1);
    }

    #[test]
    fn report_attributes_front_and_pgu_time() {
        let mut p = pipeline();
        let (report, _) = p
            .process(SimTime::ZERO, &[rx(0, 1.0)], &mut no_faults())
            .unwrap();
        // One entry occupies the front for one initiation cycle and the
        // PGU for its full generation latency.
        assert_eq!(report.front_time, SimDuration::from_ns(1));
        assert_eq!(report.pgu_busy, SimDuration::from_ns(1000));
        // A stalled run charges the stall to the front as well.
        let mut q = pipeline();
        let items: Vec<WorkItem> = (0..9).map(|i| rx(0, 0.1 + 0.2 * i as f64)).collect();
        let (stalled, _) = q.process(SimTime::ZERO, &items, &mut no_faults()).unwrap();
        assert!(stalled.front_time >= SimDuration::from_ns(9) + stalled.stall_time);
        assert_eq!(stalled.pgu_busy, SimDuration::from_ns(9 * 1000));
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut p = pipeline();
        let items: Vec<WorkItem> = (0..20).map(|i| rx(i % 4, (i % 5) as f64 * 0.3)).collect();
        let (report, generated) = p.process(SimTime::ZERO, &items, &mut no_faults()).unwrap();
        assert_eq!(report.entries, 20);
        assert_eq!(report.generated, generated.len() as u64);
        // Each fresh pulse has its own slot.
        let slots: std::collections::BTreeSet<_> = generated.iter().collect();
        assert_eq!(slots.len(), generated.len());
        let slt = p.slt_stats();
        assert_eq!(slt.lookups, slt.hits + slt.qspace_hits + slt.allocations);
        assert_eq!(slt.allocations, report.generated);
    }
}
