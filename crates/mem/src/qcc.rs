//! The quantum controller cache: five segments with real storage and
//! public/private access control.
//!
//! The QCC sits at the same level as the host L1 (Fig. 4). `.program`,
//! `.regfile`, and `.measure` are public; `.pulse` and `.slt` are enforced
//! private — the paper keeps them under exclusive hardware control to
//! avoid three-way synchronisation between interdependent segments.
//!
//! The model keeps the full architectural geometry (1024 `.program` and
//! 1024 `.pulse` entries per qubit; Table 2 totals 5.66 MB at 64 qubits)
//! and accounts it architecturally, but stores `.program` and `.pulse`
//! sparsely: host memory is allocated only for the 64-entry pages that
//! have been written, and a never-written entry reads as its reset value.
//! A job typically writes a few dozen of a qubit's 1024 pulse slots, so a
//! dense copy would zero-fill megabytes per system for nothing.
//! `.measure` and `.regfile` are small and on the `q_run` hot path, so
//! they stay dense.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use qtenon_isa::{ProgramEntry, QAddress, QccLayout, Segment};
use qtenon_sim_engine::MetricsRegistry;

use crate::MemError;

/// Who is performing a QCC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPort {
    /// User software via data paths ❶/❷ — public segments only.
    HostPublic,
    /// The controller's own logic via data path ❸ — all segments.
    Controller,
}

/// A 640-bit `.pulse` entry, stored as ten 64-bit words (the hardware
/// splits each entry into ten parallel buffers ahead of the SerDes).
pub(crate) type PulseWord = [u64; 10];

/// Entries per storage page of a sparse segment.
const PAGE_ENTRIES: usize = 64;

/// A segment's backing store: fixed pages allocated on first write. Reads
/// of a never-written page return the segment's reset value, so the store
/// is observably identical to a dense array filled with it.
#[derive(Debug, Clone)]
struct PagedSegment<T> {
    pages: Vec<Option<Box<[T; PAGE_ENTRIES]>>>,
    reset: T,
    /// Logical length in entries: the architectural segment size.
    len: usize,
}

impl<T: Copy> PagedSegment<T> {
    fn new(len: usize, reset: T) -> Self {
        PagedSegment {
            pages: vec![None; len.div_ceil(PAGE_ENTRIES)],
            reset,
            len,
        }
    }

    fn get(&self, idx: usize) -> T {
        debug_assert!(idx < self.len);
        match &self.pages[idx / PAGE_ENTRIES] {
            Some(page) => page[idx % PAGE_ENTRIES],
            None => self.reset,
        }
    }

    fn set(&mut self, idx: usize, value: T) {
        debug_assert!(idx < self.len);
        let reset = self.reset;
        let page =
            self.pages[idx / PAGE_ENTRIES].get_or_insert_with(|| Box::new([reset; PAGE_ENTRIES]));
        page[idx % PAGE_ENTRIES] = value;
    }
}

/// The quantum controller cache with functional storage for every segment.
///
/// `.program` and `.pulse` are paged: only written 64-entry pages occupy
/// host memory, so building a 128-qubit cache allocates kilobytes rather
/// than the 12 MB a dense host copy of both segments would take (see the
/// module docs).
///
/// # Examples
///
/// ```
/// use qtenon_isa::{EncodedAngle, GateType, ProgramEntry, QccLayout, QubitId};
/// use qtenon_mem::qcc::{AccessPort, QuantumControllerCache};
///
/// let layout = QccLayout::for_qubits(8)?;
/// let mut qcc = QuantumControllerCache::new(layout);
/// let addr = layout.program_entry(QubitId::new(2), 0)?;
/// let entry = ProgramEntry::rotation(GateType::Ry, EncodedAngle::from_radians(1.0));
/// qcc.write_program(AccessPort::HostPublic, addr, entry)?;
/// assert_eq!(qcc.read_program(AccessPort::HostPublic, addr)?, entry);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuantumControllerCache {
    layout: QccLayout,
    program: PagedSegment<ProgramEntry>,
    pulse: PagedSegment<PulseWord>,
    measure: Vec<u64>,
    regfile: Vec<u32>,
    /// Successful reads (interior-mutable: reads take `&self`).
    reads: Cell<u64>,
    /// Successful writes.
    writes: u64,
    /// Pending single-event upsets in `.measure`, keyed by flat segment
    /// index. Each value is the xor mask the upset applied to the raw
    /// array bits; the SECDED decoder corrects it on the next read.
    measure_faults: RefCell<BTreeMap<usize, u64>>,
    /// Upsets detected and corrected by the ECC decoder.
    ecc_corrections: Cell<u64>,
}

impl QuantumControllerCache {
    /// Builds the cache for a layout, zero/idle-initialised.
    pub fn new(layout: QccLayout) -> Self {
        let entries = |segment| layout.segment_entries(segment) as usize;
        QuantumControllerCache {
            layout,
            program: PagedSegment::new(entries(Segment::Program), ProgramEntry::idle()),
            pulse: PagedSegment::new(entries(Segment::Pulse), [0; 10]),
            measure: vec![0; entries(Segment::Measure)],
            regfile: vec![0; entries(Segment::Regfile)],
            reads: Cell::new(0),
            writes: 0,
            measure_faults: RefCell::new(BTreeMap::new()),
            ecc_corrections: Cell::new(0),
        }
    }

    /// The flat index of `addr` within `expected`'s backing store.
    ///
    /// Segments never overlap, so an address inside `expected`'s
    /// `[base, base + entries)` range decodes to `expected`: only the port
    /// check remains. The full decode (two divisions and a segment
    /// search) runs only to name the error for an address outside it.
    fn locate(
        &self,
        port: AccessPort,
        addr: QAddress,
        expected: Segment,
    ) -> Result<usize, MemError> {
        let offset = addr.raw().wrapping_sub(self.layout.segment_base(expected));
        if offset < self.layout.segment_entries(expected) {
            if port == AccessPort::HostPublic && !expected.is_public() {
                return Err(MemError::PrivateSegment { segment: expected });
            }
            return Ok(offset as usize);
        }
        // Outside `expected`: an address that decodes at all decodes to
        // another segment, since `decode` accepts an address only inside
        // its owning segment's range.
        let actual = self
            .layout
            .decode(addr)
            .map_err(|_| MemError::BadAddress { addr })?
            .segment;
        debug_assert_ne!(actual, expected);
        Err(MemError::WrongSegment { expected, actual })
    }

    /// Reads a `.program` entry.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or wrong-segment addresses.
    pub fn read_program(&self, port: AccessPort, addr: QAddress) -> Result<ProgramEntry, MemError> {
        let idx = self.locate(port, addr, Segment::Program)?;
        self.reads.set(self.reads.get() + 1);
        Ok(self.program.get(idx))
    }

    /// Writes a `.program` entry.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or wrong-segment addresses.
    pub fn write_program(
        &mut self,
        port: AccessPort,
        addr: QAddress,
        entry: ProgramEntry,
    ) -> Result<(), MemError> {
        let idx = self.locate(port, addr, Segment::Program)?;
        self.program.set(idx, entry);
        self.writes += 1;
        Ok(())
    }

    /// Writes a `.pulse` entry (controller-only).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PrivateSegment`] for host access.
    pub fn write_pulse(
        &mut self,
        port: AccessPort,
        addr: QAddress,
        word: PulseWord,
    ) -> Result<(), MemError> {
        let idx = self.locate(port, addr, Segment::Pulse)?;
        self.pulse.set(idx, word);
        self.writes += 1;
        Ok(())
    }

    /// Reads a `.measure` entry.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or wrong-segment addresses.
    pub fn read_measure(&self, port: AccessPort, addr: QAddress) -> Result<u64, MemError> {
        let idx = self.locate(port, addr, Segment::Measure)?;
        self.reads.set(self.reads.get() + 1);
        // The SECDED decoder sits on the read path: a pending upset is
        // detected, corrected, and scrubbed before data leaves the array,
        // so callers always observe the value that was written.
        if self.measure_faults.borrow_mut().remove(&idx).is_some() {
            self.ecc_corrections.set(self.ecc_corrections.get() + 1);
        }
        Ok(self.measure[idx])
    }

    /// The controller's readout deposit: writes `.measure` entry `index`
    /// (a flat segment index, not an address) without decoding an
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the segment size.
    pub fn deposit_measure(&mut self, index: usize, value: u64) {
        self.measure[index] = value;
        // A full-word write refreshes the check bits, clearing any
        // pending upset without a correction event.
        self.measure_faults.get_mut().remove(&index);
        self.writes += 1;
    }

    /// Injects a single-event upset into `.measure` entry `index` (the
    /// flat index [`deposit_measure`](Self::deposit_measure) takes): the
    /// raw array bits are flipped by `mask` until the next read (SECDED
    /// correction) or write (check-bit refresh) of that entry. A zero
    /// mask, or a second flip of the same bits, is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the segment size.
    pub fn poison_measure_index(&mut self, index: usize, mask: u64) {
        assert!(
            index < self.measure.len(),
            ".measure index {index} out of range"
        );
        if mask != 0 {
            let faults = self.measure_faults.get_mut();
            let pending = faults.entry(index).or_insert(0);
            *pending ^= mask;
            if *pending == 0 {
                faults.remove(&index);
            }
        }
    }

    /// Upsets detected and corrected by the `.measure` ECC decoder.
    pub fn ecc_corrections(&self) -> u64 {
        self.ecc_corrections.get()
    }

    /// Writes a `.regfile` entry (the `q_update` fast path).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or wrong-segment addresses.
    pub fn write_regfile(
        &mut self,
        port: AccessPort,
        addr: QAddress,
        value: u32,
    ) -> Result<(), MemError> {
        let idx = self.locate(port, addr, Segment::Regfile)?;
        self.regfile[idx] = value;
        self.writes += 1;
        Ok(())
    }

    /// Reads a register by flat index (pipeline stage 2's regfile fetch).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the register file.
    pub fn regfile_by_index(&self, index: u32) -> u32 {
        self.reads.set(self.reads.get() + 1);
        self.regfile[index as usize]
    }

    /// Number of successful reads so far (all segments and ports).
    pub(crate) fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Number of successful writes so far (all segments and ports).
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }

    /// Registers QCC access statistics under `prefix` (e.g. `mem.qcc`).
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.counter(&format!("{prefix}.reads"), self.reads());
        m.counter(&format!("{prefix}.writes"), self.writes());
        if self.ecc_corrections() > 0 {
            m.counter(&format!("{prefix}.ecc_corrections"), self.ecc_corrections());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_isa::{EncodedAngle, GateType, QubitId};

    impl QuantumControllerCache {
        /// The layout this cache was built for.
        fn layout(&self) -> QccLayout {
            self.layout
        }

        /// Reads a `.pulse` entry (controller-only).
        ///
        /// # Errors
        ///
        /// Returns [`MemError::PrivateSegment`] for host access.
        fn read_pulse(&self, port: AccessPort, addr: QAddress) -> Result<PulseWord, MemError> {
            let idx = self.locate(port, addr, Segment::Pulse)?;
            self.reads.set(self.reads.get() + 1);
            Ok(self.pulse.get(idx))
        }

        /// Writes a `.measure` entry.
        ///
        /// # Errors
        ///
        /// Returns [`MemError`] for unmapped or wrong-segment addresses.
        fn write_measure(
            &mut self,
            port: AccessPort,
            addr: QAddress,
            value: u64,
        ) -> Result<(), MemError> {
            let idx = self.locate(port, addr, Segment::Measure)?;
            self.deposit_measure(idx, value);
            Ok(())
        }

        /// Injects a single-event upset into the `.measure` entry at `addr`:
        /// the raw array bits are flipped by `mask` until the next read
        /// (SECDED correction) or write (check-bit refresh) of that entry.
        /// A zero mask, or a second flip of the same bits, is a no-op.
        ///
        /// # Errors
        ///
        /// Returns [`MemError`] for unmapped or wrong-segment addresses.
        fn poison_measure(&mut self, addr: QAddress, mask: u64) -> Result<(), MemError> {
            let idx = self.locate(AccessPort::Controller, addr, Segment::Measure)?;
            self.poison_measure_index(idx, mask);
            Ok(())
        }

        /// Reads a `.regfile` entry.
        ///
        /// # Errors
        ///
        /// Returns [`MemError`] for unmapped or wrong-segment addresses.
        fn read_regfile(&self, port: AccessPort, addr: QAddress) -> Result<u32, MemError> {
            let idx = self.locate(port, addr, Segment::Regfile)?;
            self.reads.set(self.reads.get() + 1);
            Ok(self.regfile[idx])
        }
    }

    fn qcc() -> (QccLayout, QuantumControllerCache) {
        let layout = QccLayout::for_qubits(8).unwrap();
        (layout, QuantumControllerCache::new(layout))
    }

    #[test]
    fn program_round_trip_per_qubit_chunks() {
        let (layout, mut qcc) = qcc();
        let e0 = ProgramEntry::rotation(GateType::Rx, EncodedAngle::from_radians(0.5));
        let e1 = ProgramEntry::cz(3).unwrap();
        let a0 = layout.program_entry(QubitId::new(0), 7).unwrap();
        let a1 = layout.program_entry(QubitId::new(7), 7).unwrap();
        qcc.write_program(AccessPort::HostPublic, a0, e0).unwrap();
        qcc.write_program(AccessPort::HostPublic, a1, e1).unwrap();
        assert_eq!(qcc.read_program(AccessPort::HostPublic, a0).unwrap(), e0);
        assert_eq!(qcc.read_program(AccessPort::HostPublic, a1).unwrap(), e1);
    }

    #[test]
    fn pulse_is_private_to_controller() {
        let (layout, mut qcc) = qcc();
        let addr = layout.pulse_entry(QubitId::new(0), 0).unwrap();
        assert!(matches!(
            qcc.write_pulse(AccessPort::HostPublic, addr, [1; 10]),
            Err(MemError::PrivateSegment {
                segment: Segment::Pulse
            })
        ));
        qcc.write_pulse(AccessPort::Controller, addr, [7; 10])
            .unwrap();
        assert_eq!(
            qcc.read_pulse(AccessPort::Controller, addr).unwrap(),
            [7; 10]
        );
        assert!(qcc.read_pulse(AccessPort::HostPublic, addr).is_err());
    }

    #[test]
    fn measure_and_regfile_round_trip() {
        let (layout, mut qcc) = qcc();
        let m = layout.measure_entry(5).unwrap();
        let r = layout.regfile_entry(3).unwrap();
        qcc.write_measure(AccessPort::Controller, m, 0xdead)
            .unwrap();
        qcc.write_regfile(AccessPort::HostPublic, r, 0xbeef)
            .unwrap();
        assert_eq!(qcc.read_measure(AccessPort::HostPublic, m).unwrap(), 0xdead);
        assert_eq!(qcc.read_regfile(AccessPort::HostPublic, r).unwrap(), 0xbeef);
        assert_eq!(qcc.regfile_by_index(3), 0xbeef);
    }

    #[test]
    fn wrong_segment_rejected() {
        let (layout, qcc) = qcc();
        let prog = layout.program_entry(QubitId::new(0), 0).unwrap();
        assert!(matches!(
            qcc.read_measure(AccessPort::HostPublic, prog),
            Err(MemError::WrongSegment {
                expected: Segment::Measure,
                actual: Segment::Program
            })
        ));
    }

    #[test]
    fn unmapped_address_rejected() {
        let (_, qcc) = qcc();
        let hole = QAddress::new(0x40000).unwrap();
        assert!(matches!(
            qcc.read_program(AccessPort::HostPublic, hole),
            Err(MemError::BadAddress { .. })
        ));
    }

    #[test]
    fn access_counters_track_successful_ops() {
        let (layout, mut qcc) = qcc();
        let r = layout.regfile_entry(0).unwrap();
        qcc.write_regfile(AccessPort::HostPublic, r, 1).unwrap();
        qcc.read_regfile(AccessPort::HostPublic, r).unwrap();
        qcc.regfile_by_index(0);
        // A rejected access does not count.
        let pulse = layout.pulse_entry(qtenon_isa::QubitId::new(0), 0).unwrap();
        assert!(qcc.read_pulse(AccessPort::HostPublic, pulse).is_err());
        assert_eq!(qcc.writes(), 1);
        assert_eq!(qcc.reads(), 2);
        let mut m = MetricsRegistry::new();
        qcc.export_metrics(&mut m, "mem.qcc");
        assert_eq!(m.len(), 2);
    }

    /// The decode-first `locate` the range check replaced: decode, then
    /// compare segments, then check the port.
    fn locate_by_decode(
        layout: &QccLayout,
        port: AccessPort,
        addr: QAddress,
        expected: Segment,
    ) -> Result<usize, MemError> {
        let decoded = layout
            .decode(addr)
            .map_err(|_| MemError::BadAddress { addr })?;
        if decoded.segment != expected {
            return Err(MemError::WrongSegment {
                expected,
                actual: decoded.segment,
            });
        }
        if port == AccessPort::HostPublic && !decoded.segment.is_public() {
            return Err(MemError::PrivateSegment {
                segment: decoded.segment,
            });
        }
        Ok((addr.raw() - layout.segment_base(expected)) as usize)
    }

    /// Each segment's first entry, last entry and one past its end.
    fn boundaries(layout: &QccLayout, segment: Segment) -> [QAddress; 3] {
        let base = layout.segment_base(segment);
        let end = base + layout.segment_entries(segment);
        [base, end - 1, end].map(|raw| QAddress::new(raw).unwrap())
    }

    #[test]
    fn locate_pins_every_segment_boundary_through_both_ports() {
        use AccessPort::{Controller, HostPublic};
        let (layout, qcc) = qcc();
        let bad = |segment| MemError::BadAddress {
            addr: boundaries(&layout, segment)[2],
        };
        let private = |segment| Err(MemError::PrivateSegment { segment });
        let past_pulse = Err(MemError::WrongSegment {
            expected: Segment::Pulse,
            actual: Segment::Slt,
        });
        // (segment, [first, last, past] via the host, the same via the
        // controller), at 8 qubits: 8192 `.program` and `.pulse` entries,
        // 128 registers, 640 `.measure` entries, 2048 `.slt` entries.
        type Row = [Result<usize, MemError>; 3];
        let pins: [(Segment, Row, Row); 5] = [
            (
                Segment::Program,
                [Ok(0), Ok(8191), Err(bad(Segment::Program))],
                [Ok(0), Ok(8191), Err(bad(Segment::Program))],
            ),
            (
                Segment::Pulse,
                [
                    private(Segment::Pulse),
                    private(Segment::Pulse),
                    past_pulse.clone(),
                ],
                [Ok(0), Ok(8191), past_pulse],
            ),
            (
                Segment::Measure,
                [Ok(0), Ok(639), Err(bad(Segment::Measure))],
                [Ok(0), Ok(639), Err(bad(Segment::Measure))],
            ),
            (
                Segment::Slt,
                [
                    private(Segment::Slt),
                    private(Segment::Slt),
                    Err(bad(Segment::Slt)),
                ],
                [Ok(0), Ok(2047), Err(bad(Segment::Slt))],
            ),
            (
                Segment::Regfile,
                [Ok(0), Ok(127), Err(bad(Segment::Regfile))],
                [Ok(0), Ok(127), Err(bad(Segment::Regfile))],
            ),
        ];
        for (segment, host, controller) in pins {
            for (port, want) in [(HostPublic, host), (Controller, controller)] {
                for (addr, want) in boundaries(&layout, segment).into_iter().zip(want) {
                    assert_eq!(
                        qcc.locate(port, addr, segment),
                        want,
                        "{segment} {addr} via {port:?}"
                    );
                }
            }
        }
        // Another segment's accessor names the segment the address is in.
        let program = boundaries(&layout, Segment::Program)[0];
        assert_eq!(
            qcc.locate(HostPublic, program, Segment::Measure),
            Err(MemError::WrongSegment {
                expected: Segment::Measure,
                actual: Segment::Program
            })
        );
    }

    #[test]
    fn locate_agrees_with_decode_first_on_every_boundary_and_accessor() {
        let layouts = [
            QccLayout::for_qubits(8).unwrap(),
            QccLayout::for_qubits(128).unwrap(),
            // Past 448 qubits the shared segments shift above Fig. 4's map.
            QccLayout::for_qubits(512).unwrap(),
            // An empty `.regfile` has no entries to find.
            QccLayout::with_geometry(3, 16, 4, 16, 0).unwrap(),
        ];
        for layout in layouts {
            let qcc = QuantumControllerCache::new(layout);
            for segment in Segment::ALL {
                let [first, last, past] = boundaries(&layout, segment);
                let probes = if layout.segment_entries(segment) == 0 {
                    vec![past]
                } else {
                    vec![first, last, past]
                };
                for addr in probes {
                    for expected in Segment::ALL {
                        for port in [AccessPort::HostPublic, AccessPort::Controller] {
                            assert_eq!(
                                qcc.locate(port, addr, expected),
                                locate_by_decode(&layout, port, addr, expected),
                                "{} qubits: {segment} {addr} as {expected} via {port:?}",
                                layout.n_qubits()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn measure_upset_is_corrected_and_scrubbed_on_read() {
        let (layout, mut qcc) = qcc();
        let m = layout.measure_entry(2).unwrap();
        qcc.write_measure(AccessPort::Controller, m, 0b1010)
            .unwrap();
        qcc.poison_measure(m, 0b0110).unwrap();
        // The decoder corrects the flip: the caller sees the written value.
        assert_eq!(qcc.read_measure(AccessPort::Controller, m).unwrap(), 0b1010);
        assert_eq!(qcc.ecc_corrections(), 1);
        // Scrubbed: the second read is clean, no new correction.
        assert_eq!(qcc.read_measure(AccessPort::Controller, m).unwrap(), 0b1010);
        assert_eq!(qcc.ecc_corrections(), 1);
        let mut metrics = MetricsRegistry::new();
        qcc.export_metrics(&mut metrics, "mem.qcc");
        assert_eq!(metrics.len(), 3);
    }

    #[test]
    fn write_refreshes_check_bits_without_a_correction() {
        let (layout, mut qcc) = qcc();
        let m = layout.measure_entry(0).unwrap();
        qcc.poison_measure(m, u64::MAX).unwrap();
        qcc.write_measure(AccessPort::Controller, m, 77).unwrap();
        assert_eq!(qcc.read_measure(AccessPort::Controller, m).unwrap(), 77);
        assert_eq!(qcc.ecc_corrections(), 0);
    }

    #[test]
    fn double_flip_cancels_and_zero_mask_is_noop() {
        let (layout, mut qcc) = qcc();
        let m = layout.measure_entry(1).unwrap();
        qcc.poison_measure(m, 0).unwrap();
        qcc.poison_measure(m, 0b11).unwrap();
        qcc.poison_measure(m, 0b11).unwrap();
        assert_eq!(qcc.read_measure(AccessPort::Controller, m).unwrap(), 0);
        assert_eq!(qcc.ecc_corrections(), 0);
    }

    #[test]
    fn storage_sizes_match_layout() {
        let (layout, qcc) = qcc();
        assert_eq!(
            qcc.program.len as u64,
            layout.segment_entries(Segment::Program)
        );
        assert_eq!(qcc.pulse.len as u64, layout.segment_entries(Segment::Pulse));
        // A fresh cache has logical size but no stored pages.
        assert!(qcc.program.pages.iter().all(Option::is_none));
        assert!(qcc.pulse.pages.iter().all(Option::is_none));
    }

    /// A dense, reset-filled copy of `.program` and `.pulse`: the storage
    /// the paged segments must be indistinguishable from.
    #[derive(Clone)]
    struct DenseModel {
        program: Vec<ProgramEntry>,
        pulse: Vec<PulseWord>,
    }

    impl DenseModel {
        fn new(layout: QccLayout) -> Self {
            DenseModel {
                program: vec![
                    ProgramEntry::idle();
                    layout.segment_entries(Segment::Program) as usize
                ],
                pulse: vec![[0; 10]; layout.segment_entries(Segment::Pulse) as usize],
            }
        }

        /// Reads every entry of both segments back and compares.
        fn assert_matches(&self, qcc: &QuantumControllerCache, context: &str) {
            let layout = qcc.layout();
            let per_qubit = layout.pulse_entries_per_qubit();
            for q in 0..layout.n_qubits() {
                for slot in 0..per_qubit {
                    let i = (u64::from(q) * per_qubit + slot) as usize;
                    let p = layout.program_entry(QubitId::new(q), slot).unwrap();
                    let w = layout.pulse_entry(QubitId::new(q), slot).unwrap();
                    assert_eq!(
                        qcc.read_program(AccessPort::Controller, p).unwrap(),
                        self.program[i],
                        "{context}: .program qubit {q} slot {slot}"
                    );
                    assert_eq!(
                        qcc.read_pulse(AccessPort::Controller, w).unwrap(),
                        self.pulse[i],
                        "{context}: .pulse qubit {q} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn paged_segments_match_a_dense_model() {
        use qtenon_sim_engine::rng::splitmix64;
        const BOUNDARY_SLOTS: [u64; 8] = [0, 1, 62, 63, 64, 65, 1022, 1023];
        for n_qubits in [8u32, 128] {
            let layout = QccLayout::for_qubits(n_qubits).unwrap();
            let per_qubit = layout.pulse_entries_per_qubit();
            assert_eq!(per_qubit, layout.program_entries_per_qubit());
            let mut qcc = QuantumControllerCache::new(layout);
            let mut model = DenseModel::new(layout);
            let mut state = 0x5eed ^ u64::from(n_qubits);
            let mut fork = None;
            for step in 0..6_000 {
                let r = splitmix64(&mut state);
                // Mostly the first and last qubit and the page-boundary
                // slots; the rest uniform over the whole segment.
                let qubit = match r % 4 {
                    0 => 0,
                    1 => n_qubits - 1,
                    _ => (r >> 8) as u32 % n_qubits,
                };
                let slot = match (r >> 2) % 4 {
                    0 | 1 => BOUNDARY_SLOTS[(r >> 40) as usize % BOUNDARY_SLOTS.len()],
                    _ => (r >> 40) % per_qubit,
                };
                let i = (u64::from(qubit) * per_qubit + slot) as usize;
                let value = splitmix64(&mut state);
                let p = layout.program_entry(QubitId::new(qubit), slot).unwrap();
                let w = layout.pulse_entry(QubitId::new(qubit), slot).unwrap();
                match (r >> 4) % 4 {
                    0 => {
                        let entry = ProgramEntry::rotation(
                            GateType::Ry,
                            EncodedAngle::from_radians((value % 6_283) as f64 / 1_000.0),
                        );
                        qcc.write_program(AccessPort::HostPublic, p, entry).unwrap();
                        model.program[i] = entry;
                    }
                    1 => {
                        let word: PulseWord = std::array::from_fn(|k| value.rotate_left(k as u32));
                        qcc.write_pulse(AccessPort::Controller, w, word).unwrap();
                        model.pulse[i] = word;
                    }
                    2 => assert_eq!(
                        qcc.read_program(AccessPort::HostPublic, p).unwrap(),
                        model.program[i],
                        "{n_qubits} qubits, step {step}: .program qubit {qubit} slot {slot}"
                    ),
                    _ => assert_eq!(
                        qcc.read_pulse(AccessPort::Controller, w).unwrap(),
                        model.pulse[i],
                        "{n_qubits} qubits, step {step}: .pulse qubit {qubit} slot {slot}"
                    ),
                }
                if step == 3_000 {
                    fork = Some((qcc.clone(), model.clone()));
                }
            }
            model.assert_matches(&qcc, &format!("{n_qubits} qubits, original"));
            // The mid-stream clone saw none of the original's later writes,
            // and its own writes do not reach the original.
            let (mut clone, mut clone_model) = fork.expect("stream passed the fork step");
            clone_model.assert_matches(&clone, &format!("{n_qubits} qubits, clone"));
            let last = layout
                .pulse_entry(QubitId::new(n_qubits - 1), 1023)
                .unwrap();
            clone
                .write_pulse(AccessPort::Controller, last, [u64::MAX; 10])
                .unwrap();
            clone_model.pulse[(u64::from(n_qubits) * per_qubit - 1) as usize] = [u64::MAX; 10];
            clone_model.assert_matches(&clone, &format!("{n_qubits} qubits, clone after write"));
            model.assert_matches(
                &qcc,
                &format!("{n_qubits} qubits, original after clone write"),
            );
        }
    }
}
