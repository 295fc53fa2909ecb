//! The Skip Lookup Table and its QSpace-backed workflow (Fig. 7).
//!
//! The SLT is what makes incremental execution cheap: before generating a
//! control pulse for a `(gate type, parameter)` pair, the pipeline looks
//! the pair up in a per-qubit cache of previously computed pulses. A hit
//! returns the cached pulse's QAddress and skips the 1000-cycle PGU
//! computation entirely — this is the source of Table 5's 55.7 %–98.9 %
//! computation-requirement reductions.
//!
//! Each qubit owns an SLT of 2 ways × 128 entries (Table 2). The 7-bit set
//! index concatenates 3 truncated type bits with 4 leading data bits; each
//! entry holds a 20-bit tag, the pulse QAddress, a valid bit, and a 5-bit
//! saturating use count. The model keeps the QAddress as the entry's slot
//! in its qubit's `.pulse` chunk (16 bits; the address is the chunk base
//! plus the slot), so an entry is 8 bytes. Replacement is Least-Count:
//! invalid ways first, otherwise the way with the smallest count, which is
//! written back to QSpace. On an SLT miss the controller consults QSpace: a QSpace hit
//! reuses the old allocation, a QSpace miss allocates a fresh pulse slot.

use qtenon_isa::{GateType, QAddress, QccLayout, QubitId, Segment};
use qtenon_mem::QSpace;
use qtenon_sim_engine::{FaultInjector, FaultSite, MetricsRegistry};

use crate::error::ControllerError;

/// Saturation limit of the 5-bit use counter.
pub(crate) const MAX_COUNT: u8 = 31;

/// Ways per set (Table 2).
pub(crate) const WAYS: usize = 2;

/// Sets per qubit (Table 2).
pub(crate) const SETS: usize = 128;

/// The lookup key derived from a program entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SltKey {
    /// 7-bit set index: 3 truncated type bits ++ 4 leading data bits.
    pub index: u8,
    /// 20-bit tag: the parameter quantized to tag resolution.
    pub tag: u32,
}

impl SltKey {
    /// Builds the key for a gate with a raw 27-bit data field.
    pub(crate) fn for_gate(gate: GateType, data27: u32) -> Self {
        let type_bits = gate.slt_type_bits();
        let data_bits = (data27 >> 23) & 0xf;
        SltKey {
            index: ((type_bits << 4) | data_bits) as u8 & 0x7f,
            tag: data27 >> 7,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SltEntry {
    tag: u32,
    /// The pulse's slot in its qubit's `.pulse` chunk.
    slot: u16,
    valid: bool,
    count: u8,
}

impl SltEntry {
    const INVALID: SltEntry = SltEntry {
        tag: 0,
        slot: 0,
        valid: false,
        count: 0,
    };
}

/// How a pulse request was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PulseResolution {
    /// The SLT held the pulse: no PGU work, no memory traffic.
    SltHit(QAddress),
    /// The SLT missed but QSpace knew the parameter: the old allocation is
    /// reused, still skipping PGU work, at the cost of a QSpace read.
    QSpaceHit(QAddress),
    /// Never seen: a fresh pulse slot was allocated and the PGU must run.
    Allocated(QAddress),
}

impl PulseResolution {
    /// The pulse address regardless of path.
    pub fn qaddr(&self) -> QAddress {
        match *self {
            PulseResolution::SltHit(a)
            | PulseResolution::QSpaceHit(a)
            | PulseResolution::Allocated(a) => a,
        }
    }
}

/// Counters describing SLT behaviour over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SltStats {
    /// Total lookups.
    pub lookups: u64,
    /// SLT hits.
    pub hits: u64,
    /// QSpace hits (SLT misses resolved without generation).
    pub qspace_hits: u64,
    /// Fresh allocations (PGU work required).
    pub allocations: u64,
    /// Valid entries evicted (written back to QSpace).
    pub evictions: u64,
    /// Entries invalidated by a detected parity error (injected fault);
    /// the lookup then degrades to the QSpace/recompute path.
    pub parity_invalidations: u64,
}

impl SltStats {
    /// Fraction of lookups that avoided pulse generation.
    pub(crate) fn skip_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.hits + self.qspace_hits) as f64 / self.lookups as f64
        }
    }
}

/// All per-qubit SLTs plus the QSpace backing store and pulse allocator.
///
/// # Examples
///
/// ```
/// use qtenon_controller::{PulseResolution, SltController};
/// use qtenon_isa::{EncodedAngle, GateType, QccLayout, QubitId};
/// use qtenon_sim_engine::{FaultInjector, FaultPlan};
///
/// let layout = QccLayout::for_qubits(4)?;
/// let mut slt = SltController::new(layout)?;
/// let mut no_faults = FaultInjector::new(FaultPlan::default());
/// let angle = EncodedAngle::from_radians(1.0);
/// let q = QubitId::new(0);
/// let first = slt.resolve(q, GateType::Rx, angle.code(), &mut no_faults)?;
/// assert!(matches!(first, PulseResolution::Allocated(_)));
/// let again = slt.resolve(q, GateType::Rx, angle.code(), &mut no_faults)?;
/// assert!(!matches!(again, PulseResolution::Allocated(_))); // cached
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SltController {
    layout: QccLayout,
    /// `tables[qubit][set][way]`.
    tables: Vec<[[SltEntry; WAYS]; SETS]>,
    qspace: QSpace,
    /// Next free pulse slot per qubit (wraps when the chunk fills; older
    /// pulses are overwritten, which is sound because QSpace/SLT entries
    /// are a cache, not ground truth).
    next_pulse: Vec<u16>,
    stats: SltStats,
}

impl SltController {
    /// Creates empty SLTs for every qubit in the layout.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::PulseChunkTooWide`] if a qubit's
    /// `.pulse` chunk holds more slots than an entry's 16-bit slot field
    /// can name.
    pub fn new(layout: QccLayout) -> Result<Self, ControllerError> {
        let entries = layout.pulse_entries_per_qubit();
        if entries > 1 << u16::BITS {
            return Err(ControllerError::PulseChunkTooWide { entries });
        }
        let n = layout.n_qubits() as usize;
        Ok(SltController {
            layout,
            tables: vec![[[SltEntry::INVALID; WAYS]; SETS]; n],
            qspace: QSpace::new(layout.n_qubits()),
            next_pulse: vec![0; n],
            stats: SltStats::default(),
        })
    }

    /// The address of `slot` in qubit `q`'s `.pulse` chunk. `q` is in the
    /// layout and `slot` below its chunk size, so the address is too.
    fn pulse_addr(&self, q: usize, slot: u16) -> QAddress {
        QAddress::new_unchecked(
            self.layout.segment_base(Segment::Pulse)
                + q as u64 * self.layout.pulse_entries_per_qubit()
                + u64::from(slot),
        )
    }

    /// The slot [`pulse_addr`](Self::pulse_addr) maps to `qaddr`.
    fn pulse_slot(&self, q: usize, qaddr: QAddress) -> u16 {
        let chunk = self.pulse_addr(q, 0).raw();
        (qaddr.raw() - chunk) as u16
    }

    /// Statistics so far.
    pub fn stats(&self) -> SltStats {
        self.stats
    }

    /// Rejects qubits outside the layout with a typed error so malformed
    /// programs degrade instead of aborting a fleet run.
    fn check_qubit(&self, qubit: QubitId) -> Result<(), ControllerError> {
        let n_qubits = self.layout.n_qubits();
        if qubit.index() >= n_qubits {
            return Err(ControllerError::QubitOutOfRange {
                qubit: qubit.index(),
                n_qubits,
            });
        }
        Ok(())
    }

    /// Walks the Fig. 7 workflow for an in-range `(qubit, gate, data27)`.
    fn lookup(
        &mut self,
        qubit: QubitId,
        gate: GateType,
        data27: u32,
    ) -> Result<PulseResolution, ControllerError> {
        let key = SltKey::for_gate(gate, data27);
        self.stats.lookups += 1;
        let q = qubit.index() as usize;
        let set = &mut self.tables[q][key.index as usize];

        // ❶ Compare tags across both ways.
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == key.tag) {
            way.count = way.count.saturating_add(1).min(MAX_COUNT);
            let slot = way.slot;
            self.stats.hits += 1;
            return Ok(PulseResolution::SltHit(self.pulse_addr(q, slot)));
        }

        // ❷ Least-Count replacement: invalid ways first, else min count.
        // `WAYS` is a nonzero constant, so the fallback arm is inert — it
        // exists to keep this a total function with no panic path.
        let victim = (0..WAYS)
            .min_by_key(|&w| {
                let e = &set[w];
                if e.valid {
                    (1, e.count)
                } else {
                    (0, 0)
                }
            })
            .unwrap_or(0);
        let evicted = set[victim];
        if evicted.valid {
            // Write back the evicted mapping to QSpace.
            self.stats.evictions += 1;
            let qaddr = self.pulse_addr(q, evicted.slot);
            self.qspace.store(qubit.index(), evicted.tag, qaddr);
        }

        // ❸ Consult QSpace for the incoming tag.
        let (slot, resolution) = match self.qspace.lookup(qubit.index(), key.tag) {
            Some(entry) => {
                self.stats.qspace_hits += 1;
                let slot = self.pulse_slot(q, entry.qaddr);
                (slot, PulseResolution::QSpaceHit(entry.qaddr))
            }
            None => {
                let slot = self.next_pulse[q];
                let next = u64::from(slot) + 1;
                // The chunk holds at most 2^16 slots (see `new`), so the
                // wrapped successor fits the slot field.
                self.next_pulse[q] = (next % self.layout.pulse_entries_per_qubit()) as u16;
                self.stats.allocations += 1;
                (slot, PulseResolution::Allocated(self.pulse_addr(q, slot)))
            }
        };

        // ❹ Update the SLT entry to reflect the current state.
        self.tables[q][key.index as usize][victim] = SltEntry {
            tag: key.tag,
            slot,
            valid: true,
            count: 1,
        };
        Ok(resolution)
    }

    /// Resolves a pulse request for `(qubit, gate, data27)` through the
    /// Fig. 7 workflow, with a per-lookup parity check drawn from
    /// `faults`. A detected bit flip on the matching entry invalidates
    /// that way, so the lookup degrades to the QSpace lookup or a full PGU
    /// recomputation — trading the skip speedup for correctness instead
    /// of serving a corrupted pulse address.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::QubitOutOfRange`] if `qubit` is outside
    /// the layout. Rejected requests are not counted as lookups and draw
    /// no fault.
    pub fn resolve(
        &mut self,
        qubit: QubitId,
        gate: GateType,
        data27: u32,
        faults: &mut FaultInjector,
    ) -> Result<PulseResolution, ControllerError> {
        self.check_qubit(qubit)?;
        // One draw per lookup (not per hit) keeps the site's RNG stream
        // aligned across fault rates.
        if faults.bernoulli(FaultSite::SltBitFlip) {
            let key = SltKey::for_gate(gate, data27);
            let q = qubit.index() as usize;
            let set = &mut self.tables[q][key.index as usize];
            if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == key.tag) {
                way.valid = false;
                self.stats.parity_invalidations += 1;
            }
        }
        self.lookup(qubit, gate, data27)
    }

    /// Registers SLT and QSpace statistics under `prefix`
    /// (e.g. `controller.slt`).
    pub(crate) fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        let s = self.stats;
        m.counter(&format!("{prefix}.lookups"), s.lookups);
        m.counter(&format!("{prefix}.hits"), s.hits);
        m.counter(&format!("{prefix}.qspace_hits"), s.qspace_hits);
        m.counter(&format!("{prefix}.allocations"), s.allocations);
        m.counter(&format!("{prefix}.evictions"), s.evictions);
        // Only present under fault injection, so fault-free metric
        // snapshots stay identical to the fault-unaware model's.
        if s.parity_invalidations > 0 {
            m.counter(
                &format!("{prefix}.parity_invalidations"),
                s.parity_invalidations,
            );
        }
        m.gauge(&format!("{prefix}.skip_rate"), s.skip_rate());
        m.counter(&format!("{prefix}.qspace.reads"), self.qspace.reads());
    }

    /// Forgets all cached state (fresh run).
    pub(crate) fn reset(&mut self) {
        for t in &mut self.tables {
            *t = [[SltEntry::INVALID; WAYS]; SETS];
        }
        self.qspace.reset();
        for n in &mut self.next_pulse {
            *n = 0;
        }
        self.stats = SltStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_isa::EncodedAngle;
    use qtenon_sim_engine::FaultPlan;

    impl PulseResolution {
        /// Whether the PGU must compute a pulse.
        fn needs_generation(&self) -> bool {
            matches!(self, PulseResolution::Allocated(_))
        }
    }

    fn controller(n: u32) -> SltController {
        SltController::new(QccLayout::for_qubits(n).unwrap()).unwrap()
    }

    fn no_faults() -> FaultInjector {
        FaultInjector::new(FaultPlan::default())
    }

    fn code(theta: f64) -> u32 {
        EncodedAngle::from_radians(theta).code()
    }

    #[test]
    fn first_use_allocates_second_hits() {
        let mut slt = controller(2);
        let r1 = slt
            .resolve(QubitId::new(0), GateType::Rx, code(1.0), &mut no_faults())
            .unwrap();
        assert!(matches!(r1, PulseResolution::Allocated(_)));
        let r2 = slt
            .resolve(QubitId::new(0), GateType::Rx, code(1.0), &mut no_faults())
            .unwrap();
        assert!(matches!(r2, PulseResolution::SltHit(_)));
        assert_eq!(r1.qaddr(), r2.qaddr());
        assert_eq!(slt.stats().hits, 1);
        assert_eq!(slt.stats().allocations, 1);
    }

    #[test]
    fn per_qubit_isolation() {
        let mut slt = controller(2);
        let a = slt
            .resolve(QubitId::new(0), GateType::Rx, code(1.0), &mut no_faults())
            .unwrap();
        let b = slt
            .resolve(QubitId::new(1), GateType::Rx, code(1.0), &mut no_faults())
            .unwrap();
        // Same parameter on a different qubit is a separate pulse.
        assert!(b.needs_generation());
        assert_ne!(a.qaddr(), b.qaddr());
    }

    #[test]
    fn distinct_gate_types_do_not_collide() {
        let mut slt = controller(1);
        let rx = slt
            .resolve(QubitId::new(0), GateType::Rx, code(1.0), &mut no_faults())
            .unwrap();
        let ry = slt
            .resolve(QubitId::new(0), GateType::Ry, code(1.0), &mut no_faults())
            .unwrap();
        assert!(rx.needs_generation());
        assert!(ry.needs_generation());
        assert_ne!(rx.qaddr(), ry.qaddr());
    }

    #[test]
    fn nearby_angles_share_tags() {
        // Angles within tag resolution share a pulse — quantization reuse.
        let mut slt = controller(1);
        let a = slt
            .resolve(QubitId::new(0), GateType::Rz, code(1.0), &mut no_faults())
            .unwrap();
        let b = slt
            .resolve(
                QubitId::new(0),
                GateType::Rz,
                code(1.0 + 1e-8),
                &mut no_faults(),
            )
            .unwrap();
        assert!(!b.needs_generation());
        assert_eq!(a.qaddr(), b.qaddr());
    }

    #[test]
    fn eviction_writes_back_and_qspace_restores() {
        let mut slt = controller(1);
        let q = QubitId::new(0);
        // Three distinct tags in the same set evict the least-counted one.
        // Same type and same leading 4 data bits, different tags: craft
        // codes that share bits 26..23 but differ in bits 22..7.
        let base = 0b1010 << 23;
        let c1 = base | (1 << 7);
        let c2 = base | (2 << 7);
        let c3 = base | (3 << 7);
        let r1 = slt.resolve(q, GateType::Rx, c1, &mut no_faults()).unwrap();
        // Bump c1's count so c2 is the least-counted victim later.
        slt.resolve(q, GateType::Rx, c1, &mut no_faults()).unwrap();
        let _r2 = slt.resolve(q, GateType::Rx, c2, &mut no_faults()).unwrap();
        let _r3 = slt.resolve(q, GateType::Rx, c3, &mut no_faults()).unwrap(); // evicts c2 (count 1)
        assert_eq!(slt.stats().evictions, 1);
        // c1 must still be cached.
        assert!(!slt
            .resolve(q, GateType::Rx, c1, &mut no_faults())
            .unwrap()
            .needs_generation());
        assert_eq!(
            slt.resolve(q, GateType::Rx, c1, &mut no_faults())
                .unwrap()
                .qaddr(),
            r1.qaddr()
        );
        // c2 now misses the SLT but hits QSpace: no regeneration.
        let back = slt.resolve(q, GateType::Rx, c2, &mut no_faults()).unwrap();
        assert!(matches!(back, PulseResolution::QSpaceHit(_)));
    }

    #[test]
    fn least_count_prefers_invalid_ways() {
        let mut slt = controller(1);
        let q = QubitId::new(0);
        let base = 0b0001 << 23;
        slt.resolve(q, GateType::Rx, base | (1 << 7), &mut no_faults())
            .unwrap();
        // Second distinct tag should fill the invalid way, evicting nothing.
        slt.resolve(q, GateType::Rx, base | (2 << 7), &mut no_faults())
            .unwrap();
        assert_eq!(slt.stats().evictions, 0);
    }

    #[test]
    fn skip_rate_reflects_reuse() {
        let mut slt = controller(1);
        let q = QubitId::new(0);
        for _ in 0..9 {
            slt.resolve(q, GateType::Ry, code(0.5), &mut no_faults())
                .unwrap();
        }
        // 1 allocation + 8 hits.
        let s = slt.stats();
        assert_eq!(s.lookups, 9);
        assert!((s.skip_rate() - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn count_saturates_at_31() {
        let mut slt = controller(1);
        let q = QubitId::new(0);
        for _ in 0..100 {
            slt.resolve(q, GateType::Rx, code(2.0), &mut no_faults())
                .unwrap();
        }
        let key = SltKey::for_gate(GateType::Rx, code(2.0));
        let set = &slt.tables[0][key.index as usize];
        let entry = set.iter().find(|e| e.valid && e.tag == key.tag).unwrap();
        assert_eq!(entry.count, MAX_COUNT);
    }

    #[test]
    fn allocator_wraps_within_pulse_chunk() {
        let layout = QccLayout::with_geometry(1, 16, 4, 16, 16).unwrap();
        let mut slt = SltController::new(layout).unwrap();
        let q = QubitId::new(0);
        let mut addrs = Vec::new();
        for i in 0..6u32 {
            // Distinct tags forcing fresh allocations.
            let r = slt
                .resolve(q, GateType::Rx, (i + 1) << 7, &mut no_faults())
                .unwrap();
            if r.needs_generation() {
                addrs.push(r.qaddr().raw());
            }
        }
        // Only 4 pulse slots exist: the 5th allocation reuses slot 0.
        let base = layout.pulse_entry(q, 0).unwrap().raw();
        assert_eq!(addrs[0], base);
        assert_eq!(addrs[4], base);
    }

    #[test]
    fn slot_field_names_every_pulse_slot_or_the_layout_is_refused() {
        assert_eq!(std::mem::size_of::<SltEntry>(), 8);
        // 2^16 slots is the widest chunk a 16-bit slot names: its last
        // slot maps to the chunk's last address, and the allocator wraps
        // from it to slot 0.
        let widest = QccLayout::with_geometry(2, 16, 1 << 16, 16, 16).unwrap();
        let mut slt = SltController::new(widest).unwrap();
        let q = QubitId::new(1);
        slt.next_pulse[1] = u16::MAX;
        let last = slt
            .resolve(q, GateType::Rx, 1 << 7, &mut no_faults())
            .unwrap();
        assert_eq!(
            last,
            PulseResolution::Allocated(widest.pulse_entry(q, (1 << 16) - 1).unwrap())
        );
        let wrapped = slt
            .resolve(q, GateType::Rx, 2 << 7, &mut no_faults())
            .unwrap();
        assert_eq!(wrapped.qaddr(), widest.pulse_entry(q, 0).unwrap());
        // A hit hands back the address the slot was allocated at.
        let hit = slt
            .resolve(q, GateType::Rx, 1 << 7, &mut no_faults())
            .unwrap();
        assert_eq!(hit, PulseResolution::SltHit(last.qaddr()));
        // One slot more does not fit the field.
        let too_wide = QccLayout::with_geometry(2, 16, (1 << 16) + 1, 16, 16).unwrap();
        assert_eq!(
            SltController::new(too_wide).unwrap_err(),
            ControllerError::PulseChunkTooWide {
                entries: (1 << 16) + 1
            }
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut slt = controller(1);
        slt.resolve(QubitId::new(0), GateType::Rx, code(1.0), &mut no_faults())
            .unwrap();
        slt.reset();
        assert_eq!(slt.stats(), SltStats::default());
        assert!(slt
            .resolve(QubitId::new(0), GateType::Rx, code(1.0), &mut no_faults())
            .unwrap()
            .needs_generation());
    }

    #[test]
    fn parity_poison_degrades_to_recompute_without_wrong_data() {
        let plan = FaultPlan::default()
            .with_rate(FaultSite::SltBitFlip, 0.999_999)
            .with_seed(13);
        let mut inj = FaultInjector::new(plan);
        let mut slt = controller(1);
        let q = QubitId::new(0);
        // Warm the entry through the fault-free path.
        let first = slt
            .resolve(q, GateType::Rx, code(1.0), &mut no_faults())
            .unwrap();
        assert!(first.needs_generation());
        // Near-certain parity error on the re-lookup: the hit is refused
        // and the pulse is recomputed rather than served corrupted.
        let degraded = slt.resolve(q, GateType::Rx, code(1.0), &mut inj).unwrap();
        assert!(!matches!(degraded, PulseResolution::SltHit(_)));
        assert_eq!(slt.stats().parity_invalidations, 1);
        // The warm path is restored afterwards (fault-free lookup hits).
        let healed = slt
            .resolve(q, GateType::Rx, code(1.0), &mut no_faults())
            .unwrap();
        assert!(matches!(healed, PulseResolution::SltHit(_)));
    }

    #[test]
    fn out_of_range_qubit_is_a_typed_error_not_a_panic() {
        let mut slt = controller(2);
        let err = slt
            .resolve(QubitId::new(7), GateType::Rx, code(1.0), &mut no_faults())
            .unwrap_err();
        assert_eq!(
            err,
            ControllerError::QubitOutOfRange {
                qubit: 7,
                n_qubits: 2
            }
        );
        // Rejected requests leave the stats untouched.
        assert_eq!(slt.stats(), SltStats::default());
    }

    #[test]
    fn key_bit_slicing() {
        let key = SltKey::for_gate(GateType::Rz, 0b1111u32 << 23);
        assert_eq!(key.index & 0xf, 0b1111); // low nibble carries the top 4 data bits
                                             // Index fits 7 bits and tag fits 20 bits for any input.
        for data in [0u32, 1, (1 << 27) - 1, 0x555_5555] {
            let k = SltKey::for_gate(GateType::Cz, data);
            assert!(k.index < 128);
            assert!(k.tag < (1 << 20));
        }
    }
}
