//! The integrated Qtenon system: functional-plus-timed execution of the
//! five ISA instructions against the controller, memory, and chip models.
//!
//! [`QtenonSystem`] does not own a global clock; callers thread a
//! [`SimTime`] through each operation and receive its completion time, so
//! higher layers (the VQA runner) can overlap operations exactly as the
//! fine-grained synchronisation allows.
//!
//! The ops move time, not payloads. `q_run` hands its shots to the caller
//! in [`RunOutcome`] and deposits each packed word into `.measure` as a
//! counted write; `q_acquire` and the controller's PUTs charge the bus
//! and host-memory time of the bytes they move and return when they
//! complete. The soft memory barrier of Section 6.2 is therefore no
//! structure here: in the fine-grained loop of `vqa.rs` the host waits
//! on each PUT's own completion time and pays its per-batch query and
//! bookkeeping ops.

use qtenon_controller::bus::TransferTiming;
use qtenon_controller::pipeline::{PipelineReport, PulsePipeline};
use qtenon_controller::rbq::Tag;
use qtenon_controller::{
    AdiModel, ControllerError, ReadoutProcessor, ReorderBufferQueue, TileLinkBus,
};
use qtenon_isa::qaddress::DecodedAddress;
use qtenon_isa::{GateType, QAddress, QubitId, Segment};
use qtenon_mem::qcc::{AccessPort, QuantumControllerCache};
use qtenon_mem::{MemError, MemoryHierarchy};
use qtenon_quantum::sim::Simulator;
use qtenon_quantum::{BitString, Circuit, CircuitTiming, FuseStats};
use qtenon_sim_engine::{
    CritPathTracker, EdgeId, FaultInjector, FaultSite, Histogram, MetricsRegistry, OpCounter,
    PhaseId, Profiler, SimDuration, SimTime, SpanStats, SpanTable,
};

use std::borrow::Cow;

use crate::config::QtenonConfig;
use crate::host::HostCoreModel;
use crate::parallel::{self, ShardPlan};
use crate::report::{CommBreakdown, ResilienceSummary};
use crate::trace::{rbq_flow_name, rbq_issue_name, Trace, TraceLane};
use crate::SystemError;

/// Result of a `q_run`: the measured shots and timing facts.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// One bitstring per shot.
    pub shots: Vec<BitString>,
    /// Duration of a single shot (gates + measurement).
    pub shot_duration: SimDuration,
    /// Completion time of the full run (all shots + interface latency).
    pub complete: SimTime,
}

/// Pre-interned phase ids for the system-level attribution spans, so the
/// hot paths record against a [`PhaseId`] without any name lookup.
struct SystemPhases {
    bus_transfer: PhaseId,
    slt_resolve: PhaseId,
    pgu_dispatch: PhaseId,
    pgu_stall: PhaseId,
    host_read: PhaseId,
    host_write: PhaseId,
    rbq_wait: PhaseId,
    chip_execute: PhaseId,
    /// Wall-clock-only phase around statevector preparation (plan +
    /// kernel execution). It never records a sim-time span — preparation
    /// is outside the timing model — so it can never appear in the phase
    /// table or the `profile.*` metrics, only in the explicitly-unstable
    /// wall printout under `--profile`.
    kernel_prepare: PhaseId,
}

impl SystemPhases {
    fn intern(profiler: &mut Profiler) -> Self {
        SystemPhases {
            bus_transfer: profiler.phase("controller.bus_transfer"),
            slt_resolve: profiler.phase("controller.slt_resolve"),
            pgu_dispatch: profiler.phase("controller.pgu_dispatch"),
            pgu_stall: profiler.phase("controller.pgu_stall"),
            host_read: profiler.phase("mem.host_read"),
            host_write: profiler.phase("mem.host_write"),
            rbq_wait: profiler.phase("controller.rbq_wait"),
            chip_execute: profiler.phase("chip.execute"),
            kernel_prepare: profiler.phase("kernel.prepare"),
        }
    }
}

/// Pre-interned causal-edge ids for the system's provenance annotations,
/// so the hot paths record against an [`EdgeId`] without a name lookup.
/// These are the seven canonical hand-offs of the integrated datapath
/// (Fig. 3); the VQA runner closes the loop on `readout->host` with the
/// host's classical segments.
struct SystemEdges {
    host_bus: EdgeId,
    bus_slt: EdgeId,
    slt_pgu: EdgeId,
    pgu_pipeline: EdgeId,
    pipeline_chip: EdgeId,
    chip_readout: EdgeId,
    readout_host: EdgeId,
}

impl SystemEdges {
    fn intern(critpath: &mut CritPathTracker) -> Self {
        SystemEdges {
            host_bus: critpath.edge("host->bus"),
            bus_slt: critpath.edge("bus->slt"),
            slt_pgu: critpath.edge("slt->pgu"),
            pgu_pipeline: critpath.edge("pgu->pipeline"),
            pipeline_chip: critpath.edge("pipeline->chip"),
            chip_readout: critpath.edge("chip->readout"),
            readout_host: critpath.edge("readout->host"),
        }
    }
}

/// The six ops that retire through [`QtenonSystem::retire`]; each
/// indexes its row of [`OPS`].
#[derive(Clone, Copy)]
enum Op {
    Update,
    Set,
    Acquire,
    Put,
    Gen,
    Run,
}

/// How one op feeds the latency, trace and critical-path sinks when it
/// retires.
struct OpSpec {
    /// Its trace-slice label.
    slice: &'static str,
    /// The lane of its RBQ flow event and trace slice.
    lane: TraceLane,
    /// Whether it closes the RBQ flow (the chip finished the request)
    /// rather than stepping it.
    ends_flow: bool,
    /// Its latency accumulator: an index into [`LATENCY_OPS`].
    latency: usize,
    /// Whether it counts as a dynamic instruction (a controller-initiated
    /// PUT does not).
    instruction: bool,
    /// The critical-path edge its completion closes.
    edge: fn(&SystemEdges) -> EdgeId,
}

/// The instructions behind the per-op latency accumulators, exported
/// under `core.instr.<op>`; a PUT shares `q_acquire`'s. The first three
/// are the communication instructions [`QtenonSystem::comm`] reads.
const LATENCY_OPS: [&str; 5] = ["q_update", "q_set", "q_acquire", "q_gen", "q_run"];

/// One row per [`Op`], in declaration order.
#[rustfmt::skip]
static OPS: [OpSpec; 6] = [
    OpSpec { slice: "q_update", lane: TraceLane::Communication, ends_flow: false, latency: 0,
             instruction: true, edge: |e| e.host_bus },
    OpSpec { slice: "q_set", lane: TraceLane::Communication, ends_flow: false, latency: 1,
             instruction: true, edge: |e| e.host_bus },
    OpSpec { slice: "q_acquire", lane: TraceLane::Communication, ends_flow: false, latency: 2,
             instruction: true, edge: |e| e.chip_readout },
    OpSpec { slice: "put", lane: TraceLane::Communication, ends_flow: false, latency: 2,
             instruction: false, edge: |e| e.chip_readout },
    OpSpec { slice: "q_gen", lane: TraceLane::PulsePipeline, ends_flow: false, latency: 3,
             instruction: true, edge: |e| e.pgu_pipeline },
    OpSpec { slice: "q_run", lane: TraceLane::QuantumChip, ends_flow: true, latency: 4,
             instruction: true, edge: |e| e.pipeline_chip },
];

/// The tightly coupled system (Fig. 3).
pub struct QtenonSystem {
    config: QtenonConfig,
    qcc: QuantumControllerCache,
    pipeline: PulsePipeline,
    bus: TileLinkBus,
    hierarchy: MemoryHierarchy,
    host: HostCoreModel,
    adi: AdiModel,
    simulator: Simulator,
    dynamic_instructions: u64,
    trace: Option<Trace>,
    /// RBQ tags naming in-flight logical requests: every op runs inside
    /// one tagged flow.
    rbq: ReorderBufferQueue,
    /// The currently open flow (flow id, RBQ tag), if any.
    active_flow: Option<(u64, Tag)>,
    /// Monotonic flow-id allocator.
    flow_seq: u64,
    /// Deterministic fault injector (inert when all rates are zero).
    injector: FaultInjector,
    /// Readout processor model (timeout/re-arm cost under faults).
    readout: ReadoutProcessor,
    /// Readout re-arms performed after injected classification timeouts.
    readout_retries: u64,
    /// Host stalls taken while waiting for a free RBQ tag.
    rbq_stalls: u64,
    /// Stall time owed to the next instruction (RBQ tag exhaustion).
    pending_stall: SimDuration,
    /// Kernel/fusion accounting accumulated over every exact-backend
    /// preparation (all-zero when only the mean-field backend ran).
    fuse_stats: FuseStats,
    /// Shots sampled since the last reset; `None` until the first
    /// `q_run`, so a system that never sampled exports no shard
    /// telemetry.
    shots_sampled: Option<u64>,
    /// Set bits per sampled shot. Shard workers record only per-shot
    /// quantities and merge in canonical shard order, so this is
    /// identical at every thread count.
    ones_per_shot: Histogram,
    /// Latency-attribution profiler: deterministic sim-time spans per
    /// phase, always collected (the profile flag only gates wall-clock).
    profiler: Profiler,
    /// Pre-interned phase ids for the spans this struct records.
    phases: SystemPhases,
    /// Causal critical-path tracker: a provenance arena linking each
    /// completed hand-off to the event that enabled it, always
    /// collected (pure sim-time arithmetic, like the profiler spans).
    critpath: CritPathTracker,
    /// Pre-interned causal-edge ids for the hand-offs ops annotate.
    edges: SystemEdges,
    /// Per-instruction latency accumulators, indexed by
    /// [`OpSpec::latency`].
    latency: [SpanStats; LATENCY_OPS.len()],
}

impl std::fmt::Debug for QtenonSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QtenonSystem")
            .field("n_qubits", &self.config.n_qubits)
            .field("core", &self.config.core)
            .field("dynamic_instructions", &self.dynamic_instructions)
            .finish()
    }
}

impl QtenonSystem {
    /// Builds the system from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if any component rejects the configuration.
    pub fn new(config: QtenonConfig) -> Result<Self, SystemError> {
        let mut profiler = Profiler::new();
        profiler.set_wall_enabled(config.profile);
        let phases = SystemPhases::intern(&mut profiler);
        let mut critpath = CritPathTracker::new();
        let edges = SystemEdges::intern(&mut critpath);
        Ok(QtenonSystem {
            config,
            qcc: QuantumControllerCache::new(config.layout),
            pipeline: PulsePipeline::new(config.pipeline, config.layout)?,
            bus: TileLinkBus::new(config.bus),
            hierarchy: MemoryHierarchy::new(config.hierarchy)?,
            host: HostCoreModel::new(config.core),
            adi: config.adi,
            simulator: Simulator::fast(config.n_qubits, config.seed).with_fusion(config.fuse),
            dynamic_instructions: 0,
            trace: None,
            rbq: ReorderBufferQueue::new(),
            active_flow: None,
            flow_seq: 0,
            injector: FaultInjector::new(config.faults),
            readout: ReadoutProcessor::default(),
            readout_retries: 0,
            rbq_stalls: 0,
            pending_stall: SimDuration::ZERO,
            fuse_stats: FuseStats::default(),
            shots_sampled: None,
            ones_per_shot: Histogram::new(),
            profiler,
            phases,
            critpath,
            edges,
            latency: Default::default(),
        })
    }

    /// The configuration.
    pub(crate) fn config(&self) -> &QtenonConfig {
        &self.config
    }

    /// Times `ops` of host-side classical work on the host core.
    pub(crate) fn host_time(&self, ops: &OpCounter) -> SimDuration {
        self.host.duration_for(ops)
    }

    /// Pulses generated and pulse work items processed since the last
    /// cold reset.
    pub(crate) fn pulse_tallies(&self) -> (u64, u64) {
        (
            self.pipeline.total_generated(),
            self.pipeline.total_entries(),
        )
    }

    /// The quantum controller cache (for inspection).
    pub fn qcc(&self) -> &QuantumControllerCache {
        &self.qcc
    }

    /// Communication accounting so far.
    pub fn comm(&self) -> CommBreakdown {
        let [update, set, acquire, ..] = &self.latency;
        CommBreakdown {
            q_set: set.total(),
            q_update: update.total(),
            q_acquire: acquire.total(),
            q_set_count: set.count(),
            q_update_count: update.count(),
            q_acquire_count: acquire.count(),
        }
    }

    /// Dynamic instructions executed so far.
    pub(crate) fn dynamic_instructions(&self) -> u64 {
        self.dynamic_instructions
    }

    /// Enables or disables execution tracing (see [`crate::trace`]).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace = if enabled { Some(Trace::new()) } else { None };
    }

    /// Takes the recorded trace, leaving tracing enabled with a fresh log.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.replace(Trace::new())
    }

    /// Paints the current causal critical path into the trace as a
    /// highlighted flow on the dedicated CritPath lane: one flow-start
    /// at the chain's first hand-off, a step per intermediate edge, and
    /// a flow-end at the final event. No-op when tracing is off or the
    /// chain is empty.
    pub fn trace_critpath(&mut self) {
        if self.trace.is_none() {
            return;
        }
        let steps = self.critpath.path();
        let Some(((first_name, first_at), rest)) = steps.split_first() else {
            return;
        };
        self.flow_seq += 1;
        let flow = self.flow_seq;
        let trace = self.trace.as_mut().expect("tracing checked above");
        trace.record_flow_start(*first_name, TraceLane::CritPath, *first_at, flow);
        match rest.split_last() {
            Some(((last_name, last_at), middle)) => {
                for (name, at) in middle {
                    trace.record_flow_step(*name, TraceLane::CritPath, *at, flow);
                }
                trace.record_flow_end(*last_name, TraceLane::CritPath, *last_at, flow);
            }
            // A one-step chain still closes its flow so viewers draw it.
            None => trace.record_flow_end(*first_name, TraceLane::CritPath, *first_at, flow),
        }
    }

    /// Consumes any stall owed by RBQ tag exhaustion, shifting `now`.
    /// Zero (and so a no-op) whenever fault injection is inert.
    fn absorb_stall(&mut self, now: SimTime) -> SimTime {
        let stall = std::mem::replace(&mut self.pending_stall, SimDuration::ZERO);
        if stall > SimDuration::ZERO {
            self.profiler.record(self.phases.rbq_wait, stall);
        }
        now + stall
    }

    /// Schedules a bus transfer, retrying injected drops and corruptions.
    fn bus_transfer(&mut self, now: SimTime, bytes: u64) -> Result<TransferTiming, SystemError> {
        let timing = self.bus.schedule_transfer(now, bytes, &mut self.injector)?;
        self.profiler
            .span(self.phases.bus_transfer, now, timing.complete);
        Ok(timing)
    }

    /// Returns the open flow (id, RBQ tag), opening one on the Host lane
    /// if needed.
    ///
    /// A flow names one logical request — issued by the host, carried over
    /// the communication paths, expanded by the pulse pipeline, executed on
    /// the chip — with an RBQ tag, so trace viewers draw a single arrow
    /// chain across the four lanes. The protocol runs whether or not a
    /// trace is recorded, so tracing never changes a metric. Returns
    /// `None` when all 32 tags stay in flight through the stall.
    fn ensure_flow(&mut self, now: SimTime) -> Option<(u64, Tag)> {
        if self.active_flow.is_some() {
            return self.active_flow;
        }
        if self.injector.is_active() {
            // Watchdog pass: reclaim tags whose completion response was
            // lost to an injected fault before they pile up.
            self.rbq
                .reclaim_stuck(now, self.injector.plan().watchdog_timeout());
        }
        let tag = match self.rbq.issue_at(now) {
            Some(tag) => tag,
            None => {
                // All 32 tags in flight: stall the host with backoff and
                // let the watchdog free overdue tags, instead of dropping
                // the request or erroring out.
                let plan = *self.injector.plan();
                let mut stalled = SimDuration::ZERO;
                let mut reclaimed_tag = None;
                for attempt in 1..=plan.max_attempts.max(1) {
                    stalled += plan.backoff(attempt);
                    self.rbq
                        .reclaim_stuck(now + stalled, plan.watchdog_timeout());
                    if let Some(tag) = self.rbq.issue_at(now + stalled) {
                        reclaimed_tag = Some(tag);
                        break;
                    }
                }
                self.rbq_stalls += 1;
                self.pending_stall += stalled;
                reclaimed_tag?
            }
        };
        let flow = self.flow_seq;
        self.flow_seq += 1;
        self.active_flow = Some((flow, tag));
        if let Some(trace) = &mut self.trace {
            trace.record(
                rbq_issue_name(tag.value()),
                TraceLane::Host,
                now,
                self.host.clock().cycles(1),
            );
            trace.record_flow_start(rbq_flow_name(tag.value()), TraceLane::Host, now, flow);
        }
        self.active_flow
    }

    /// Steps the open flow on `lane` at `now`, opening one if needed;
    /// with `ends`, closes it instead and retires its RBQ tag.
    fn flow_event(&mut self, lane: TraceLane, now: SimTime, ends: bool) {
        let Some((flow, tag)) = self.ensure_flow(now) else {
            return;
        };
        if let Some(trace) = &mut self.trace {
            let name = rbq_flow_name(tag.value());
            if ends {
                trace.record_flow_end(name, lane, now, flow);
            } else {
                trace.record_flow_step(name, lane, now, flow);
            }
        }
        if !ends {
            return;
        }
        self.active_flow = None;
        if self.injector.bernoulli(FaultSite::RbqStuck) {
            // The completion response is lost: the tag stays allocated
            // until the watchdog reclaims it.
            if let Some(trace) = &mut self.trace {
                trace.record("fault:rbq_stuck", lane, now, SimDuration::ZERO);
            }
            return;
        }
        // A tag the watchdog already reclaimed completes late; dropping
        // that response is the recovery contract, not an error.
        if self.rbq.complete(tag).is_ok() {
            // Retire every realigned response. Without faults the
            // completed tag is always at the head; with leaked tags ahead
            // of it, retirement waits until the watchdog frees them.
            while self.rbq.pop_in_order().is_some() {}
        }
    }

    /// The shared tail of every op, driven by its [`OPS`] row: charges
    /// the instruction count and latency accumulator with `end - now`,
    /// steps (or ends) the RBQ flow, records the trace slice (labelled
    /// `slice[count]` when a count is given, formatted only when
    /// tracing), and advances the critical path to `end`. Returns `end`.
    fn retire(&mut self, op: Op, now: SimTime, end: SimTime, count: Option<u64>) -> SimTime {
        let spec = &OPS[op as usize];
        let d = end.saturating_since(now);
        self.dynamic_instructions += u64::from(spec.instruction);
        self.latency[spec.latency].record(d);
        self.flow_event(spec.lane, now, spec.ends_flow);
        if let Some(trace) = &mut self.trace {
            let name: Cow<'static, str> = match count {
                Some(n) => format!("{}[{n}]", spec.slice).into(),
                None => spec.slice.into(),
            };
            trace.record(name, spec.lane, now, d);
        }
        self.critpath.advance((spec.edge)(&self.edges), end);
        end
    }

    /// The latency-attribution profiler. Sim-time spans are always
    /// collected; wall-clock timers run only when the config enables them
    /// ([`QtenonConfig::with_profile`]).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Mutable profiler access, used by higher layers (the VQA runner) to
    /// intern and record their own phases into the same table.
    pub(crate) fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// Snapshot of the per-phase attribution table (deterministic: built
    /// from sim-time only).
    pub fn phase_table(&self) -> SpanTable {
        self.profiler.table()
    }

    /// Mutable critpath access, used by higher layers (the VQA runner)
    /// to root the chain and record host-side classical segments.
    pub fn critpath_mut(&mut self) -> &mut CritPathTracker {
        &mut self.critpath
    }

    /// Freezes the tracker's current chain into a per-edge
    /// blocking-time [`SpanTable`].
    pub fn critpath_report(&self) -> SpanTable {
        self.critpath.report()
    }

    /// Records `d` of host-side classical work starting at `start`
    /// against `phase`, and as a `readout->host` chain step ending at
    /// `start + d` (the seven canonical edges contain no host->host
    /// hand-off; the host's classical work closes the loop on the edge
    /// that delivered it data). Returns `start + d`.
    pub(crate) fn host_segment(
        &mut self,
        phase: PhaseId,
        start: SimTime,
        d: SimDuration,
    ) -> SimTime {
        self.profiler.record(phase, d);
        self.critpath.advance(self.edges.readout_host, start + d);
        start + d
    }

    /// Cumulative SLT statistics.
    pub(crate) fn slt_stats(&self) -> qtenon_controller::SltStats {
        self.pipeline.slt_stats()
    }

    /// Fault-injection and recovery counters accumulated so far.
    /// All-zero whenever the configured plan is inert.
    pub fn resilience(&self) -> ResilienceSummary {
        ResilienceSummary {
            faults_injected: self.injector.injected_total(),
            bus_retries: self.bus.retries(),
            pgu_stalls: self.pipeline.pgu_stalls(),
            pgu_redispatches: self.pipeline.pgu_redispatches(),
            slt_invalidations: self.slt_stats().parity_invalidations,
            rbq_reclaims: self.rbq.reclaimed(),
            readout_retries: self.readout_retries,
            ecc_corrections: self.qcc.ecc_corrections(),
        }
    }

    /// `q_update`: one register value over the RoCC path (one cycle).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Mem`] for non-`.regfile` or private targets.
    pub fn q_update(
        &mut self,
        now: SimTime,
        qaddr: QAddress,
        value: u32,
    ) -> Result<SimTime, SystemError> {
        let now = self.absorb_stall(now);
        self.qcc
            .write_regfile(AccessPort::HostPublic, qaddr, value)?;
        let d = self.host.clock().cycles(1);
        Ok(self.retire(Op::Update, now, now + d, None))
    }

    /// `q_set`: bulk-load `length` program entries from host memory at
    /// `classical_addr` into `.program` from `qaddr` on, over TileLink
    /// (data path ❷). The operands are [`Instruction::QSet`]'s; the
    /// entries themselves stay with the compiled program.
    ///
    /// [`Instruction::QSet`]: qtenon_isa::Instruction::QSet
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Mem`] for a destination range that is not
    /// all inside `.program`, with `write_program`'s error for the first
    /// address outside it, or that runs from one qubit's chunk into the
    /// next one's ([`MemError::ChunkOverrun`]), before writing anything.
    ///
    /// [`MemError::ChunkOverrun`]: qtenon_mem::MemError::ChunkOverrun
    pub fn q_set(
        &mut self,
        now: SimTime,
        classical_addr: u64,
        qaddr: QAddress,
        length: u64,
    ) -> Result<SimTime, SystemError> {
        let now = self.absorb_stall(now);
        let layout = &self.config.layout;
        if let Ok(DecodedAddress {
            segment: Segment::Program,
            qubit: Some(qubit),
            entry,
        }) = layout.decode(qaddr)
        {
            // Past the last qubit's chunk `.program` ends, and the loop
            // below fails at the first address outside it.
            let chunk = layout.program_entries_per_qubit();
            if length > chunk - entry && qubit.index() + 1 < layout.n_qubits() {
                return Err(MemError::ChunkOverrun {
                    qubit,
                    entry,
                    length,
                    chunk,
                }
                .into());
            }
        }
        for i in 0..length {
            self.qcc
                .write_program(AccessPort::HostPublic, qaddr.offset(i)?)?;
        }
        // Source read walks the host hierarchy; the bus then moves the
        // 9-byte records. The two pipelines overlap, so charge the max.
        let bytes = length * 9;
        let read = self.hierarchy.access_range(classical_addr, bytes, false);
        self.profiler.record(self.phases.host_read, read);
        let transfer = self.bus_transfer(now, bytes)?;
        let complete = (now + read).max(transfer.complete);
        Ok(self.retire(Op::Set, now, complete, None))
    }

    /// `q_acquire`: pull `.measure` entries back to host memory.
    ///
    /// Returns the completion time: every entry read is checked and
    /// counted, and its bytes are charged on the bus and written into the
    /// host hierarchy (the shots themselves are [`RunOutcome::shots`]).
    /// Under fault injection, each `.measure` read passes through the ECC
    /// decoder (correcting pending upsets) and an injected
    /// readout-classification timeout re-arms the readout processor with
    /// backoff up to the plan's retry budget.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Mem`] for bad source addresses and
    /// [`SystemError::Controller`] when the readout retry budget is
    /// exhausted.
    pub fn q_acquire(
        &mut self,
        now: SimTime,
        qaddr: QAddress,
        length: u64,
        classical_addr: u64,
    ) -> Result<SimTime, SystemError> {
        let now = self.absorb_stall(now);
        for i in 0..length {
            self.qcc
                .read_measure(AccessPort::HostPublic, qaddr.offset(i)?)?;
        }
        let bytes = length * 8;
        let transfer = self.bus_transfer(now, bytes)?;
        let write = self.hierarchy.access_range(classical_addr, bytes, true);
        self.profiler.record(self.phases.host_write, write);
        let mut complete = transfer.complete.max(now + write);
        let timeouts = self.injector.geometric_failures(FaultSite::ReadoutTimeout);
        let budget = self.injector.plan().max_attempts.max(1);
        if timeouts >= budget {
            self.readout_retries += u64::from(budget - 1);
            return Err(SystemError::Controller(
                ControllerError::ReadoutRetriesExhausted { attempts: budget },
            ));
        }
        if timeouts > 0 {
            let penalty = self.readout.retry_penalty(timeouts, self.injector.plan());
            self.readout_retries += u64::from(timeouts);
            complete += penalty;
            if let Some(trace) = &mut self.trace {
                let lane = TraceLane::Communication;
                trace.record("fault:readout_timeout", lane, now, SimDuration::ZERO);
            }
        }
        Ok(self.retire(Op::Acquire, now, complete, None))
    }

    /// A controller-initiated PUT of `bytes` of measurement results to
    /// host memory (the fine-grained path of Fig. 9b), accounted as
    /// `q_acquire`-class traffic. Returns when the transfer completes,
    /// the time the host's barrier query for it first succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Controller`] when injected bus faults
    /// exhaust the transfer's retry budget.
    pub fn put_results(&mut self, now: SimTime, bytes: u64) -> Result<SimTime, SystemError> {
        let now = self.absorb_stall(now);
        let transfer = self.bus_transfer(now, bytes)?;
        // Early batches complete while the chip is still running; the
        // tracker's monotone clamp charges only the exposed tail.
        Ok(self.retire(Op::Put, now, transfer.complete, None))
    }

    /// `q_gen`: run the pulse pipeline over regfile-resolved work items,
    /// making one controller write to the private `.pulse` segment per
    /// generated pulse.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Controller`] if a work item names a qubit
    /// outside the layout, and [`SystemError::Mem`] if a pulse write
    /// fails (cannot happen for layout-derived addresses).
    pub fn q_gen(
        &mut self,
        now: SimTime,
        items: &[(QubitId, GateType, u32)],
    ) -> Result<(PipelineReport, SimTime), SystemError> {
        let now = self.absorb_stall(now);
        let wall = self.profiler.wall_start();
        let (report, generated) = self.pipeline.process(now, items, &mut self.injector)?;
        self.profiler.wall_end(self.phases.pgu_dispatch, wall);
        for &qaddr in generated {
            self.qcc.write_pulse(AccessPort::Controller, qaddr)?;
        }
        self.profiler
            .record(self.phases.slt_resolve, report.front_time);
        self.profiler
            .record(self.phases.pgu_dispatch, report.pgu_busy);
        if report.stall_time > SimDuration::ZERO {
            self.profiler
                .record(self.phases.pgu_stall, report.stall_time);
        }
        // Three chain steps through the pipeline front: the SLT resolve
        // hands to the PGU, the PGU to the pulse pipeline, the pipeline
        // finishes at q_gen's completion (the step `retire` takes).
        // Stages overlap in the model, so intermediate steps are capped
        // at the op's completion time.
        let gen_done = now + report.total_time;
        self.critpath
            .advance(self.edges.bus_slt, (now + report.front_time).min(gen_done));
        self.critpath.advance(
            self.edges.slt_pgu,
            (now + report.front_time + report.pgu_busy).min(gen_done),
        );
        let gen_done = self.retire(Op::Gen, now, gen_done, Some(report.entries));
        Ok((report, gen_done))
    }

    /// `q_run`: execute the bound circuit for `shots` repetitions,
    /// returning the shots and depositing one counted `.measure` write per
    /// packed measurement word.
    ///
    /// Sampling fans out across the configured worker threads in
    /// contiguous shot shards; every shot draws from its own
    /// `(seed, global shot index)` RNG stream and shard results merge in
    /// canonical shard order, so the outcome is bitwise identical at any
    /// thread count. The `.measure` deposit (and its per-shot fault
    /// draws) stays serial over the merged shots — the QCC is a single
    /// shared device.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Quantum`] for simulation failures.
    pub fn q_run(
        &mut self,
        now: SimTime,
        circuit: &Circuit,
        shots: u64,
    ) -> Result<RunOutcome, SystemError> {
        let timing = CircuitTiming::of(circuit, &self.config.gate_times);
        self.q_run_timed(now, circuit, shots, &timing)
    }

    /// [`q_run`](Self::q_run) with the circuit's timing already computed
    /// under this system's gate times. Timing reads only gate kinds, so a
    /// caller that runs many bindings of one symbolic circuit computes it
    /// once.
    pub(crate) fn q_run_timed(
        &mut self,
        now: SimTime,
        circuit: &Circuit,
        shots: u64,
        timing: &CircuitTiming,
    ) -> Result<RunOutcome, SystemError> {
        let now = self.absorb_stall(now);
        let prep_wall = self.profiler.wall_start();
        let prepared = self.simulator.prepare(circuit)?;
        self.profiler
            .wall_end(self.phases.kernel_prepare, prep_wall);
        self.fuse_stats.absorb(&prepared.fuse_stats());
        let base = self.simulator.advance_cursor(shots);
        let plan = ShardPlan::new(shots, self.config.threads);
        let wall = self.profiler.wall_start();
        let simulator = &self.simulator;
        let shard_outputs = parallel::run_sharded(&plan, |shard| {
            let bits = prepared.sample_range(simulator, base + shard.first_shot, shard.shots);
            let mut ones = Histogram::new();
            for shot in &bits {
                ones.record(u64::from(shot.count_ones()));
            }
            (bits, ones)
        });
        // A one-shard run hands its vector over; later shards append in
        // canonical order.
        let mut shard_outputs = shard_outputs.into_iter();
        let (mut results, ones) = shard_outputs.next().expect("a plan has at least one shard");
        self.ones_per_shot.merge(&ones);
        for (bits, ones) in shard_outputs {
            results.extend(bits);
            self.ones_per_shot.merge(&ones);
        }
        *self.shots_sampled.get_or_insert(0) += shots;
        self.profiler.wall_end(self.phases.chip_execute, wall);
        // Each shot's bits pack into consecutive 64-bit measure entries,
        // by segment index: the cursor wraps modulo the segment size, so
        // every index is in range.
        let entries = self.config.layout.measure_entries() as usize;
        let faults_active = self.injector.is_active();
        let mut cursor = 0usize;
        for (i, bits) in results.iter().enumerate() {
            // Bit-flip draws come from the shot's own fault sub-stream,
            // keyed by global shot index, so the schedule is independent
            // of shard boundaries; counters fold back in shot order.
            let mut shot_injector = faults_active.then(|| self.injector.for_shot(base + i as u64));
            for _ in bits.words() {
                self.qcc.deposit_measure(cursor);
                if let Some(inj) = shot_injector.as_mut() {
                    if inj.bernoulli(FaultSite::QccBitFlip) {
                        // A single-event upset lands on the freshly written
                        // word; the ECC decoder corrects it on the next read.
                        self.qcc.poison_measure_index(cursor, 1u64 << (cursor & 63));
                    }
                }
                cursor = (cursor + 1) % entries;
            }
            if let Some(inj) = shot_injector {
                self.injector.absorb(&inj);
            }
        }
        let complete = now
            + self.adi.interface_latency
            + timing.shot_duration * shots
            + self.adi.readout_latency();
        self.profiler.span(self.phases.chip_execute, now, complete);
        let complete = self.retire(Op::Run, now, complete, Some(shots));
        Ok(RunOutcome {
            shots: results,
            shot_duration: timing.shot_duration,
            complete,
        })
    }

    /// Registers every modelled component's statistics under the stable
    /// dotted namespaces `mem.*`, `controller.*`, and `core.*`.
    ///
    /// Calling this repeatedly overwrites earlier values, so one registry
    /// can track a system across snapshots.
    pub fn export_metrics(&self, m: &mut MetricsRegistry) {
        self.profiler.table().export_metrics(m, "profile");
        self.critpath.report().export_metrics(m, "critpath.edge");
        self.hierarchy.export_metrics(m, "mem");
        self.qcc.export_metrics(m, "mem.qcc");
        self.pipeline.export_metrics(m, "controller");
        self.bus.export_metrics(m, "controller.bus");
        self.rbq.export_metrics(m, "controller.rbq");
        m.counter("core.instructions", self.dynamic_instructions);
        for (i, (op, span)) in LATENCY_OPS.iter().zip(&self.latency).enumerate() {
            // The communication instructions also export their tallies.
            if i < 3 {
                m.counter(&format!("core.instr.{op}.count"), span.count());
                m.gauge(&format!("core.instr.{op}.total_ns"), span.total().as_ns());
            }
            m.histogram(&format!("core.instr.{op}.latency_ns"), span.hist());
        }
        // Shot-shard worker telemetry (the shard-order merge already
        // happened inside q_run).
        if let Some(shots) = self.shots_sampled {
            m.counter("core.parallel.shots_sampled", shots);
            m.histogram("core.parallel.ones_per_shot", &self.ones_per_shot);
        }
        // Kernel/fusion accounting appears only when the exact backend
        // ran (mean-field preparation never lowers through the kernel
        // layer), keeping mean-field snapshots byte-identical to the
        // pre-kernel model's.
        if !self.fuse_stats.is_empty() {
            let f = &self.fuse_stats;
            m.counter("quantum.fuse.gates_in", f.gates_in);
            m.counter("quantum.fuse.gates_fused", f.gates_fused);
            m.counter("quantum.fuse.runs", f.runs);
            m.counter("quantum.fuse.fused_runs", f.fused_runs);
            m.counter("quantum.fuse.blocks", f.blocks);
            m.counter("quantum.fuse.identities_elided", f.identities_elided);
            m.counter("quantum.fuse.kernels.diag", f.diag_kernels);
            m.counter("quantum.fuse.kernels.general", f.general_kernels);
            m.counter("quantum.fuse.kernels.cz", f.cz_kernels);
        }
        // Fault and recovery namespaces appear only under an active plan,
        // keeping fault-free snapshots identical to the fault-unaware
        // model's.
        if self.injector.is_active() {
            self.injector.export_metrics(m, "faults");
            let r = self.resilience();
            m.counter("resilience.retries", r.total_retries());
            m.counter("resilience.bus_retries", r.bus_retries);
            m.counter("resilience.pgu_stalls", r.pgu_stalls);
            m.counter("resilience.pgu_redispatches", r.pgu_redispatches);
            m.counter("resilience.slt_invalidation", r.slt_invalidations);
            m.counter("resilience.rbq_reclaims", r.rbq_reclaims);
            m.counter("resilience.rbq_stalls", self.rbq_stalls);
            m.counter("resilience.readout_retries", r.readout_retries);
            m.counter("resilience.ecc_corrections", r.ecc_corrections);
        }
    }

    /// Resets transient state between independent experiment runs while
    /// keeping the warm SLT (use [`QtenonSystem::cold_reset`] to drop it).
    pub(crate) fn reset_accounting(&mut self) {
        self.dynamic_instructions = 0;
        self.bus.reset();
        self.rbq = ReorderBufferQueue::new();
        self.active_flow = None;
        self.injector = FaultInjector::new(self.config.faults);
        self.readout_retries = 0;
        self.rbq_stalls = 0;
        self.pending_stall = SimDuration::ZERO;
        self.fuse_stats = FuseStats::default();
        self.shots_sampled = None;
        self.ones_per_shot.reset();
        self.profiler.reset();
        self.critpath.reset();
        self.latency = Default::default();
    }

    /// Drops all cached pulse state as well (a from-scratch system).
    pub(crate) fn cold_reset(&mut self) {
        self.reset_accounting();
        self.pipeline.reset();
        self.hierarchy.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreModel, QtenonConfig};
    use qtenon_isa::EncodedAngle;

    fn system(n: u32) -> QtenonSystem {
        QtenonSystem::new(QtenonConfig::table4(n, CoreModel::Rocket).unwrap()).unwrap()
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    /// The QCC's `mem.qcc.<name>` access counter.
    fn qcc_count(sys: &QtenonSystem, name: &str) -> u64 {
        let mut m = MetricsRegistry::new();
        sys.qcc().export_metrics(&mut m, "mem.qcc");
        match m.get(&format!("mem.qcc.{name}")) {
            Some(qtenon_sim_engine::MetricValue::Counter(n)) => *n,
            other => panic!("mem.qcc.{name}: {other:?}"),
        }
    }

    #[test]
    fn q_update_is_one_cycle_and_functional() {
        let mut sys = system(8);
        let addr = sys.config().layout.regfile_entry(3).unwrap();
        let done = sys.q_update(t0(), addr, 0xabcd).unwrap();
        assert_eq!(done.saturating_since(t0()), SimDuration::from_ns(1));
        assert_eq!(sys.qcc().regfile_by_index(3), 0xabcd);
        assert_eq!(sys.comm().q_update_count, 1);
    }

    #[test]
    fn q_update_rejects_program_segment() {
        let mut sys = system(8);
        let addr = sys
            .config()
            .layout
            .program_entry(QubitId::new(0), 0)
            .unwrap();
        assert!(sys.q_update(t0(), addr, 1).is_err());
    }

    #[test]
    fn q_set_writes_entries_and_charges_bus_time() {
        let mut sys = system(8);
        let layout = sys.config().layout;
        let qaddr = layout.program_entry(QubitId::new(2), 0).unwrap();
        let done = sys.q_set(t0(), 0x8000, qaddr, 16).unwrap();
        assert!(done > t0());
        use qtenon_sim_engine::MetricValue;
        let mut m = MetricsRegistry::new();
        sys.export_metrics(&mut m);
        assert_eq!(m.get("mem.qcc.writes"), Some(&MetricValue::Counter(16)));
        assert_eq!(sys.comm().q_set_count, 1);
        assert!(sys.comm().q_set > SimDuration::ZERO);
    }

    #[test]
    fn q_set_outside_program_fails_like_write_program() {
        use qtenon_isa::Segment;
        use qtenon_mem::MemError;
        let mut sys = system(8);
        let layout = sys.config().layout;
        let chunk = layout.program_entries_per_qubit();
        // The error `write_program` gives for the first bad address.
        let locate = |addr| {
            QuantumControllerCache::new(layout)
                .write_program(AccessPort::HostPublic, addr)
                .unwrap_err()
        };
        let mem_err = |r: Result<SimTime, SystemError>| match r {
            Err(SystemError::Mem(e)) => e,
            other => panic!("expected a memory error, got {other:?}"),
        };

        // Runs one entry past the last qubit's chunk, the end of
        // `.program`, into the unmapped gap below `.regfile`.
        let last = layout.program_entry(QubitId::new(7), 0).unwrap();
        let past = last.offset(chunk).unwrap();
        let err = mem_err(sys.q_set(t0(), 0x8000, last, chunk + 1));
        assert_eq!(err, locate(past));
        assert_eq!(err, MemError::BadAddress { addr: past });

        // Starts in `.regfile`.
        let reg = layout.regfile_entry(0).unwrap();
        let err = mem_err(sys.q_set(t0(), 0x8000, reg, 1));
        assert_eq!(err, locate(reg));
        assert!(matches!(
            err,
            MemError::WrongSegment {
                expected: Segment::Program,
                actual: Segment::Regfile
            }
        ));
        // A failed upload moves nothing over the bus.
        assert_eq!(sys.comm().q_set_count, 0);
    }

    #[test]
    fn q_set_past_its_qubit_chunk_fails_before_writing() {
        let mut sys = system(8);
        let layout = sys.config().layout;
        let chunk = layout.program_entries_per_qubit();
        let at = |q, entry| layout.program_entry(QubitId::new(q), entry).unwrap();

        // 5 entries into qubit 1's chunk: every address is in `.program`,
        // but the load is refused whole.
        let err = sys.q_set(t0(), 0x8000, at(0, 0), chunk + 5).unwrap_err();
        let overrun = MemError::ChunkOverrun {
            qubit: QubitId::new(0),
            entry: 0,
            length: chunk + 5,
            chunk,
        };
        assert!(
            matches!(&err, SystemError::Mem(e) if *e == overrun),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            format!(
                "memory error: {} entries from entry 0 of q0's .program chunk overrun its \
                 {chunk} entries",
                chunk + 5
            )
        );
        // From mid-chunk, one entry too many.
        let err = sys.q_set(t0(), 0x8000, at(3, 7), chunk - 6).unwrap_err();
        assert!(matches!(
            err,
            SystemError::Mem(MemError::ChunkOverrun { entry: 7, .. })
        ));
        assert_eq!(qcc_count(&sys, "writes"), 0);
        assert_eq!(sys.comm().q_set_count, 0);

        // Filling a chunk to its last entry is fine, the last qubit's too.
        sys.q_set(t0(), 0x8000, at(3, 7), chunk - 7).unwrap();
        sys.q_set(t0(), 0x8000, at(7, 0), chunk).unwrap();
        assert_eq!(qcc_count(&sys, "writes"), 2 * chunk - 7);
    }

    #[test]
    fn q_gen_generates_then_skips() {
        let mut sys = system(8);
        let items = vec![(
            QubitId::new(0),
            GateType::Ry,
            EncodedAngle::from_radians(1.0).code(),
        )];
        let (cold, _) = sys.q_gen(t0(), &items).unwrap();
        assert_eq!(cold.generated, 1);
        let (warm, _) = sys.q_gen(t0(), &items).unwrap();
        assert_eq!(warm.generated, 0);
        assert_eq!(sys.slt_stats().hits, 1);
    }

    #[test]
    fn q_run_deposits_measure_words() {
        let mut sys = system(4);
        // An upset pending on the first entry before the run.
        sys.qcc.poison_measure_index(0, 1);
        let mut c = Circuit::new(4);
        c.rx(0, std::f64::consts::PI).measure_all();
        let outcome = sys.q_run(t0(), &c, 10).unwrap();
        assert_eq!(outcome.shots.len(), 10);
        // Qubit 0 always measures 1.
        assert!(outcome.shots.iter().all(|s| s.get(0)));
        // One counted write per shot's word; the first refreshed the
        // entry's check bits, so reading it back corrects nothing.
        assert_eq!(qcc_count(&sys, "writes"), 10);
        let layout = sys.config().layout;
        sys.qcc()
            .read_measure(AccessPort::HostPublic, layout.measure_entry(0).unwrap())
            .unwrap();
        assert_eq!(sys.qcc().ecc_corrections(), 0);
        // Timing: 2 × 100 ns ADI + 10 × (20 + 600) ns.
        assert_eq!(
            outcome.complete.saturating_since(t0()),
            SimDuration::from_ns(200 + 10 * 1220)
        );
    }

    #[test]
    fn q_run_is_bitwise_identical_at_any_thread_count() {
        use crate::parallel::MIN_SHOTS_PER_SHARD;
        use qtenon_sim_engine::FaultPlan;
        // Enough shots for real shards at every width below.
        let shots = 4 * MIN_SHOTS_PER_SHARD;
        let run = |threads: usize, faults: FaultPlan| {
            let cfg = QtenonConfig::table4(6, CoreModel::Rocket)
                .unwrap()
                .with_threads(threads)
                .with_faults(faults);
            let mut sys = QtenonSystem::new(cfg).unwrap();
            let mut c = Circuit::new(6);
            c.ry(0, 1.0).ry(3, 0.7).cz(0, 3).measure_all();
            let out = sys.q_run(t0(), &c, shots).unwrap();
            let mut m = MetricsRegistry::new();
            sys.export_metrics(&mut m);
            (out.shots, m.snapshot().to_json(), sys.resilience())
        };
        for faults in [FaultPlan::default(), FaultPlan::all(0.05).with_seed(0xFA17)] {
            let serial = run(1, faults);
            for threads in [2usize, 4, 8] {
                assert!(!ShardPlan::new(shots, threads).is_serial());
                let parallel = run(threads, faults);
                assert_eq!(parallel.0, serial.0, "shots diverged at {threads} threads");
                assert_eq!(
                    parallel.1, serial.1,
                    "metrics JSON diverged at {threads} threads"
                );
                assert_eq!(parallel.2, serial.2);
            }
        }
    }

    #[test]
    fn fused_and_unfused_q_run_are_bitwise_identical() {
        let run = |fuse: bool| {
            let cfg = QtenonConfig::table4(8, CoreModel::Rocket)
                .unwrap()
                .with_fuse(fuse);
            let mut sys = QtenonSystem::new(cfg).unwrap();
            let mut c = Circuit::new(8);
            c.rz(0, 0.3).rx(0, 0.7).ry(0, -0.2).cz(0, 1);
            c.rx(5, 1.1).rz(5, 0.4).measure_all();
            let out = sys.q_run(t0(), &c, 128).unwrap();
            let mut m = MetricsRegistry::new();
            sys.export_metrics(&mut m);
            (out.shots, out.complete, m)
        };
        let fused = run(true);
        let unfused = run(false);
        assert_eq!(fused.0, unfused.0, "shots diverged under fusion");
        assert_eq!(fused.1, unfused.1);
        // The only permitted metric difference is the fusion accounting
        // itself.
        use qtenon_sim_engine::MetricValue;
        // Two fused runs: q0's three-gate run and q5's two-gate run.
        assert_eq!(
            fused.2.get("quantum.fuse.fused_runs"),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            unfused.2.get("quantum.fuse.fused_runs"),
            Some(&MetricValue::Counter(0))
        );
        let strip = |m: &MetricsRegistry| {
            let mut out = MetricsRegistry::new();
            for (path, value) in m.iter() {
                if path.starts_with("quantum.fuse.") {
                    continue;
                }
                match value {
                    MetricValue::Counter(v) => out.counter(path, *v),
                    MetricValue::Gauge(v) => out.gauge(path, *v),
                    MetricValue::Histogram(h) => out.histogram(path, h),
                }
            }
            out.snapshot().to_json()
        };
        assert_eq!(strip(&fused.2), strip(&unfused.2));
    }

    #[test]
    fn fuse_metrics_appear_only_for_the_exact_backend() {
        let run = |n_qubits: u32| {
            let mut sys =
                QtenonSystem::new(QtenonConfig::table4(n_qubits, CoreModel::Rocket).unwrap())
                    .unwrap();
            let mut c = Circuit::new(n_qubits);
            c.rx(0, 1.0).rz(0, 0.5).cz(0, 1).measure_all();
            sys.q_run(t0(), &c, 16).unwrap();
            let mut m = MetricsRegistry::new();
            sys.export_metrics(&mut m);
            m
        };
        // 8 qubits: exact backend, accounting present.
        use qtenon_sim_engine::MetricValue;
        let exact = run(8);
        assert_eq!(
            exact.get("quantum.fuse.gates_in"),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            exact.get("quantum.fuse.kernels.cz"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            exact.get("quantum.fuse.blocks"),
            Some(&MetricValue::Counter(0))
        );
        // 64 qubits: mean-field backend, namespace absent entirely.
        let mean_field = run(64);
        assert!(mean_field
            .iter()
            .all(|(path, _)| !path.starts_with("quantum.fuse.")));
    }

    #[test]
    fn shard_metrics_cover_every_sampled_shot() {
        use crate::parallel::MIN_SHOTS_PER_SHARD;
        let shots = 4 * MIN_SHOTS_PER_SHARD;
        assert_eq!(ShardPlan::new(shots, 4).len(), 4);
        let mut sys = QtenonSystem::new(
            QtenonConfig::table4(4, CoreModel::Rocket)
                .unwrap()
                .with_threads(4),
        )
        .unwrap();
        let mut c = Circuit::new(4);
        c.rx(0, std::f64::consts::PI).measure_all();
        sys.q_run(t0(), &c, shots).unwrap();
        let mut m = MetricsRegistry::new();
        sys.export_metrics(&mut m);
        use qtenon_sim_engine::MetricValue;
        assert_eq!(
            m.get("core.parallel.shots_sampled"),
            Some(&MetricValue::Counter(shots))
        );
        match m.get("core.parallel.ones_per_shot") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), shots);
                // rx(π) pins qubit 0 to |1⟩, so every shot has ≥ 1 one.
                assert!(h.min().unwrap() >= 1);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // Repeated export must overwrite, not double-count.
        sys.export_metrics(&mut m);
        assert_eq!(
            m.get("core.parallel.shots_sampled"),
            Some(&MetricValue::Counter(shots))
        );
    }

    #[test]
    fn system_graph_send_sync_audit() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        // The whole system migrates between threads (Send), but its QCC
        // interior mutability forbids sharing (&System is not handed to
        // workers); the worker-facing pieces are fully shareable.
        assert_send::<QtenonSystem>();
        assert_sync::<qtenon_quantum::PreparedCircuit>();
        assert_sync::<Simulator>();
        assert_send::<BitString>();
    }

    #[test]
    fn q_acquire_reads_measure_entries_and_corrects_pending_upsets() {
        let mut sys = system(4);
        let mut c = Circuit::new(4);
        c.rx(0, std::f64::consts::PI).measure_all();
        sys.q_run(t0(), &c, 4).unwrap();
        // Upsets on entries 1 and 5: a four-entry read corrects only the
        // first, and a run's deposit refreshes the second.
        sys.qcc.poison_measure_index(1, 1);
        sys.qcc.poison_measure_index(5, 1);
        let maddr = sys.config().layout.measure_entry(0).unwrap();
        let done = sys.q_acquire(t0(), maddr, 4, 0xA000).unwrap();
        assert!(done > t0());
        assert_eq!(qcc_count(&sys, "reads"), 4);
        assert_eq!(sys.qcc().ecc_corrections(), 1);
        assert_eq!(sys.comm().q_acquire_count, 1);
        sys.q_run(done, &c, 8).unwrap();
        sys.q_acquire(t0(), maddr, 8, 0xA000).unwrap();
        assert_eq!(sys.resilience().ecc_corrections, 1);
    }

    #[test]
    fn put_results_accounts_as_acquire_traffic() {
        let mut sys = system(8);
        let done = sys.put_results(t0(), 32).unwrap();
        assert!(done > t0());
        assert_eq!(sys.comm().q_acquire_count, 1);
    }

    #[test]
    fn resets_preserve_or_drop_slt() {
        let mut sys = system(8);
        let items = vec![(QubitId::new(1), GateType::Rz, 12345u32)];
        sys.q_gen(t0(), &items).unwrap();
        sys.reset_accounting();
        let (warm, _) = sys.q_gen(t0(), &items).unwrap();
        assert_eq!(warm.generated, 0); // SLT survives accounting reset
        sys.cold_reset();
        let (cold, _) = sys.q_gen(t0(), &items).unwrap();
        assert_eq!(cold.generated, 1);
    }

    #[test]
    fn dynamic_instruction_counter_increments() {
        let mut sys = system(8);
        let addr = sys.config().layout.regfile_entry(0).unwrap();
        sys.q_update(t0(), addr, 1).unwrap();
        sys.q_update(t0(), addr, 2).unwrap();
        assert_eq!(sys.dynamic_instructions(), 2);
    }

    #[test]
    fn metrics_span_all_three_namespaces() {
        let mut sys = system(4);
        let addr = sys.config().layout.regfile_entry(0).unwrap();
        sys.q_update(t0(), addr, 7).unwrap();
        let items = vec![(QubitId::new(0), GateType::Rx, 123u32)];
        sys.q_gen(t0(), &items).unwrap();
        let mut m = qtenon_sim_engine::MetricsRegistry::new();
        sys.export_metrics(&mut m);
        assert!(m.len() >= 20, "only {} metric paths", m.len());
        for ns in ["mem.", "controller.", "core."] {
            assert!(
                m.paths().iter().any(|p| p.starts_with(ns)),
                "no {ns}* metrics"
            );
        }
        // Spot-check values flow through.
        use qtenon_sim_engine::MetricValue;
        assert_eq!(
            m.get("controller.slt.lookups"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(m.get("core.instructions"), Some(&MetricValue::Counter(2)));
    }

    #[test]
    fn inert_plan_exports_no_fault_metrics() {
        let mut sys = system(4);
        let addr = sys.config().layout.regfile_entry(0).unwrap();
        sys.q_update(t0(), addr, 7).unwrap();
        let items = vec![(QubitId::new(0), GateType::Rx, 123u32)];
        sys.q_gen(t0(), &items).unwrap();
        assert!(sys.resilience().is_zero());
        let mut m = MetricsRegistry::new();
        sys.export_metrics(&mut m);
        assert!(!m
            .paths()
            .iter()
            .any(|p| p.starts_with("faults.") || p.starts_with("resilience.")));
    }

    #[test]
    fn faulty_run_recovers_and_reproduces_counters() {
        use qtenon_sim_engine::FaultPlan;
        let run = || {
            let plan = FaultPlan::all(0.05).with_seed(0xFA17);
            let cfg = QtenonConfig::table4(4, CoreModel::Rocket)
                .unwrap()
                .with_faults(plan);
            let mut sys = QtenonSystem::new(cfg).unwrap();
            let layout = sys.config().layout;
            let qaddr = layout.program_entry(QubitId::new(0), 0).unwrap();
            let mut c = Circuit::new(4);
            c.rx(0, std::f64::consts::PI).measure_all();
            let mut t = t0();
            for i in 0..25u32 {
                t = sys.q_set(t, 0x8000, qaddr, 8).unwrap();
                let items = vec![(
                    QubitId::new(0),
                    GateType::Ry,
                    EncodedAngle::from_radians(0.01 * f64::from(i)).code(),
                )];
                let (_, tg) = sys.q_gen(t, &items).unwrap();
                let out = sys.q_run(tg, &c, 4).unwrap();
                let maddr = layout.measure_entry(0).unwrap();
                t = sys.q_acquire(out.complete, maddr, 4, 0xA000).unwrap();
            }
            let mut m = MetricsRegistry::new();
            sys.export_metrics(&mut m);
            assert!(m.paths().iter().any(|p| p.starts_with("faults.injected.")));
            assert!(m.get("resilience.retries").is_some());
            sys.resilience()
        };
        let a = run();
        let b = run();
        // The run completed despite injected faults, recovered at least
        // once, and the whole counter set reproduces under the same seed.
        assert!(a.faults_injected > 0, "no faults fired: {a:?}");
        assert!(a.total_retries() > 0, "no recovery actions: {a:?}");
        assert_eq!(a, b);
    }

    #[test]
    fn profiler_attributes_system_phases() {
        let drive = |profile: bool| {
            let config = QtenonConfig::table4(4, CoreModel::Rocket)
                .unwrap()
                .with_profile(profile);
            let mut sys = QtenonSystem::new(config).unwrap();
            let items = vec![(QubitId::new(0), GateType::Rx, 123u32)];
            let (_, t) = sys.q_gen(t0(), &items).unwrap();
            let mut c = Circuit::new(4);
            c.rx(0, 1.0).measure_all();
            let out = sys.q_run(t, &c, 3).unwrap();
            let maddr = sys.config().layout.measure_entry(0).unwrap();
            sys.q_acquire(out.complete, maddr, 1, 0xA000).unwrap();
            sys
        };
        let mut sys = drive(false);
        let table = sys.phase_table();
        for phase in [
            "controller.slt_resolve",
            "controller.pgu_dispatch",
            "controller.bus_transfer",
            "mem.host_write",
            "chip.execute",
        ] {
            assert!(table.row(phase).is_some(), "missing phase {phase}");
        }
        let mut m = MetricsRegistry::new();
        sys.export_metrics(&mut m);
        assert!(m.get("profile.chip.execute.sim_total_ns").is_some());
        assert!(m.get("profile.chip.execute.sim_ns").is_some());
        // Enabling wall-clock capture must not change exported metrics.
        let mut m2 = MetricsRegistry::new();
        drive(true).export_metrics(&mut m2);
        assert_eq!(m.snapshot().to_json(), m2.snapshot().to_json());
        // Accounting reset clears the attribution table.
        sys.reset_accounting();
        assert!(sys.phase_table().is_empty());
    }

    #[test]
    fn tracing_never_changes_metrics() {
        use qtenon_sim_engine::FaultPlan;
        let run = |tracing: bool, faults: FaultPlan| {
            let cfg = QtenonConfig::table4(4, CoreModel::Rocket)
                .unwrap()
                .with_faults(faults);
            let mut sys = QtenonSystem::new(cfg).unwrap();
            sys.set_tracing(tracing);
            let addr = sys.config().layout.regfile_entry(0).unwrap();
            let mut c = Circuit::new(4);
            c.rx(0, 1.0).measure_all();
            let mut t = t0();
            for i in 0..3u32 {
                t = sys.q_update(t, addr, i).unwrap();
                let items = vec![(QubitId::new(0), GateType::Rx, 100 + i)];
                let (_, tg) = sys.q_gen(t, &items).unwrap();
                t = sys.q_run(tg, &c, 4).unwrap().complete;
                t = sys.put_results(t, 32).unwrap();
            }
            let mut m = MetricsRegistry::new();
            sys.export_metrics(&mut m);
            m.snapshot().to_json()
        };
        for faults in [FaultPlan::default(), FaultPlan::all(0.05).with_seed(0xFA17)] {
            assert_eq!(run(false, faults), run(true, faults));
        }
    }

    #[test]
    fn flows_link_one_rbq_tag_across_lanes() {
        use crate::trace::TraceLane;
        let mut sys = system(4);
        sys.set_tracing(true);
        let addr = sys.config().layout.regfile_entry(0).unwrap();
        sys.q_update(t0(), addr, 1).unwrap();
        let items = vec![(QubitId::new(0), GateType::Rx, 77u32)];
        let (_, t) = sys.q_gen(t0(), &items).unwrap();
        let mut c = Circuit::new(4);
        c.rx(0, 1.0).measure_all();
        sys.q_run(t, &c, 2).unwrap();
        let trace = sys.take_trace().unwrap();
        let lanes = trace.flow_lanes(0);
        assert!(
            lanes.len() >= 3,
            "flow 0 spans only {} lanes: {lanes:?}",
            lanes.len()
        );
        assert!(lanes.contains(&TraceLane::Host));
        assert!(lanes.contains(&TraceLane::QuantumChip));
        // The next request opens a fresh flow with a recycled tag.
        sys.q_update(t0(), addr, 2).unwrap();
        let trace = sys.take_trace().unwrap();
        assert!(!trace.flow_lanes(1).is_empty());
    }
}
