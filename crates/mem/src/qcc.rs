//! The quantum controller cache: five segments with public/private
//! access control, and storage for the one segment whose contents are
//! read back.
//!
//! The QCC sits at the same level as the host L1 (Fig. 4). `.program`,
//! `.regfile`, and `.measure` are public; `.pulse` and `.slt` are enforced
//! private — the paper keeps them under exclusive hardware control to
//! avoid three-way synchronisation between interdependent segments.
//!
//! The model keeps every segment's architectural geometry (1024
//! `.program` and 1024 `.pulse` entries per qubit; Table 2 totals 5.66 MB
//! at 64 qubits), checks every access against it and counts it, but
//! stores only what is read back: `.regfile` (read back to check
//! incremental compilation against rebinding). Work items come from the
//! compiled program on the host and pulse reuse from the controller's
//! SLT, so `.program` and `.pulse` writes store nothing. Measurement
//! results reach the host as `q_run`'s shots, so `.measure` keeps no words
//! either: only its SECDED state, the single-event upsets pending on its
//! entries, which decides how many corrections a `q_acquire` read makes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use qtenon_isa::{QAddress, QccLayout, Segment};
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

/// The quantum controller cache: access checks and counts for every
/// segment, storage for `.regfile` and the pending ECC upsets of
/// `.measure` (see the module docs).
///
/// # Examples
///
/// ```
/// use qtenon_isa::{QccLayout, QubitId, Segment};
/// use qtenon_mem::qcc::{AccessPort, QuantumControllerCache};
/// use qtenon_mem::MemError;
///
/// let layout = QccLayout::for_qubits(8)?;
/// let mut qcc = QuantumControllerCache::new(layout);
/// qcc.write_program(AccessPort::HostPublic, layout.program_entry(QubitId::new(2), 0)?)?;
/// // `.pulse` is private to the controller.
/// let pulse = layout.pulse_entry(QubitId::new(2), 0)?;
/// let private = MemError::PrivateSegment { segment: Segment::Pulse };
/// assert_eq!(qcc.write_pulse(AccessPort::HostPublic, pulse), Err(private));
/// qcc.write_pulse(AccessPort::Controller, pulse)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuantumControllerCache {
    layout: QccLayout,
    regfile: Vec<u32>,
    /// Successful reads (interior-mutable: reads take `&self`).
    reads: Cell<u64>,
    /// Successful writes.
    writes: u64,
    /// Pending single-event upsets in `.measure`, keyed by flat segment
    /// index. Each value is the xor mask the upsets applied to the entry's
    /// bits; the SECDED decoder corrects it on the next read.
    measure_faults: RefCell<BTreeMap<usize, u64>>,
    /// Upsets detected and corrected by the ECC decoder.
    ecc_corrections: Cell<u64>,
}

impl QuantumControllerCache {
    /// Builds the cache for a layout, zero-initialised.
    pub fn new(layout: QccLayout) -> Self {
        QuantumControllerCache {
            layout,
            regfile: vec![0; layout.regfile_entries() as usize],
            reads: Cell::new(0),
            writes: 0,
            measure_faults: RefCell::new(BTreeMap::new()),
            ecc_corrections: Cell::new(0),
        }
    }

    /// The flat index of `addr` within `expected`.
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

    /// Writes a `.program` entry: checks the address and port and counts
    /// the write (the entry itself is kept by the compiled program).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or wrong-segment addresses.
    pub fn write_program(&mut self, port: AccessPort, addr: QAddress) -> Result<(), MemError> {
        self.locate(port, addr, Segment::Program)?;
        self.writes += 1;
        Ok(())
    }

    /// Writes a `.pulse` entry (controller-only): checks the address and
    /// port and counts the write (the pulse itself is tracked by the SLT).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PrivateSegment`] for host access, and
    /// [`MemError`] for unmapped or wrong-segment addresses.
    pub fn write_pulse(&mut self, port: AccessPort, addr: QAddress) -> Result<(), MemError> {
        self.locate(port, addr, Segment::Pulse)?;
        self.writes += 1;
        Ok(())
    }

    /// Reads a `.measure` entry: checks the address and port and counts
    /// the read. The SECDED decoder sits on the read path: a pending
    /// upset is detected, corrected and scrubbed, and counted in
    /// [`ecc_corrections`](Self::ecc_corrections).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or wrong-segment addresses.
    pub fn read_measure(&self, port: AccessPort, addr: QAddress) -> Result<(), MemError> {
        let idx = self.locate(port, addr, Segment::Measure)?;
        self.reads.set(self.reads.get() + 1);
        if self.measure_faults.borrow_mut().remove(&idx).is_some() {
            self.ecc_corrections.set(self.ecc_corrections.get() + 1);
        }
        Ok(())
    }

    /// The controller's readout deposit: writes `.measure` entry `index`
    /// (a flat segment index, not an address) without decoding an
    /// address, and counts the write. A full-word write refreshes the
    /// check bits, clearing any pending upset without a correction.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the segment size.
    pub fn deposit_measure(&mut self, index: usize) {
        self.check_measure_index(index);
        self.measure_faults.get_mut().remove(&index);
        self.writes += 1;
    }

    /// Injects a single-event upset into `.measure` entry `index` (the
    /// flat index [`deposit_measure`](Self::deposit_measure) takes): the
    /// entry's bits are flipped by `mask` until the next read (SECDED
    /// correction) or write (check-bit refresh) of that entry. A zero
    /// mask, or a second flip of the same bits, is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the segment size.
    pub fn poison_measure_index(&mut self, index: usize, mask: u64) {
        self.check_measure_index(index);
        if mask != 0 {
            let faults = self.measure_faults.get_mut();
            let pending = faults.entry(index).or_insert(0);
            *pending ^= mask;
            if *pending == 0 {
                faults.remove(&index);
            }
        }
    }

    fn check_measure_index(&self, index: usize) {
        assert!(
            (index as u64) < self.layout.measure_entries(),
            ".measure index {index} out of range"
        );
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

    /// Reads a register by flat index, without decoding an address.
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
    use qtenon_isa::QubitId;

    impl QuantumControllerCache {
        /// Writes the `.measure` entry at `addr`.
        ///
        /// # Errors
        ///
        /// Returns [`MemError`] for unmapped or wrong-segment addresses.
        fn write_measure(&mut self, port: AccessPort, addr: QAddress) -> Result<(), MemError> {
            let idx = self.locate(port, addr, Segment::Measure)?;
            self.deposit_measure(idx);
            Ok(())
        }

        /// Injects a single-event upset into the `.measure` entry at `addr`
        /// (see [`poison_measure_index`](Self::poison_measure_index)).
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
        let a0 = layout.program_entry(QubitId::new(0), 7).unwrap();
        let a1 = layout.program_entry(QubitId::new(7), 7).unwrap();
        qcc.write_program(AccessPort::HostPublic, a0).unwrap();
        qcc.write_program(AccessPort::Controller, a1).unwrap();
        // A `.pulse` address is refused and not counted.
        let pulse = layout.pulse_entry(QubitId::new(7), 7).unwrap();
        assert!(matches!(
            qcc.write_program(AccessPort::HostPublic, pulse),
            Err(MemError::WrongSegment {
                actual: Segment::Pulse,
                ..
            })
        ));
        assert_eq!(qcc.writes(), 2);
    }

    #[test]
    fn pulse_is_private_to_controller() {
        let (layout, mut qcc) = qcc();
        let addr = layout.pulse_entry(QubitId::new(0), 0).unwrap();
        assert!(matches!(
            qcc.write_pulse(AccessPort::HostPublic, addr),
            Err(MemError::PrivateSegment {
                segment: Segment::Pulse
            })
        ));
        qcc.write_pulse(AccessPort::Controller, addr).unwrap();
        let program = layout.program_entry(QubitId::new(0), 0).unwrap();
        assert!(matches!(
            qcc.write_pulse(AccessPort::Controller, program),
            Err(MemError::WrongSegment {
                actual: Segment::Program,
                ..
            })
        ));
        assert_eq!(qcc.writes(), 1);
    }

    #[test]
    fn measure_and_regfile_round_trip() {
        let (layout, mut qcc) = qcc();
        let m = layout.measure_entry(5).unwrap();
        let r = layout.regfile_entry(3).unwrap();
        // `.measure` holds no words: a write and a read of one entry are
        // counted, and a write over a pending upset leaves nothing to
        // correct.
        qcc.poison_measure(m, 0b100).unwrap();
        qcc.write_measure(AccessPort::Controller, m).unwrap();
        qcc.read_measure(AccessPort::HostPublic, m).unwrap();
        assert_eq!(qcc.ecc_corrections(), 0);
        qcc.write_regfile(AccessPort::HostPublic, r, 0xbeef)
            .unwrap();
        assert_eq!(qcc.read_regfile(AccessPort::HostPublic, r).unwrap(), 0xbeef);
        assert_eq!(qcc.regfile_by_index(3), 0xbeef);
        assert_eq!((qcc.writes(), qcc.reads()), (2, 3));
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
        let (_, mut qcc) = qcc();
        let hole = QAddress::new(0x40000).unwrap();
        assert!(matches!(
            qcc.write_program(AccessPort::HostPublic, hole),
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
        assert!(qcc.write_pulse(AccessPort::HostPublic, pulse).is_err());
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
        qcc.write_measure(AccessPort::Controller, m).unwrap();
        qcc.poison_measure(m, 0b0110).unwrap();
        // The decoder corrects the flip on the read path.
        qcc.read_measure(AccessPort::Controller, m).unwrap();
        assert_eq!(qcc.ecc_corrections(), 1);
        // Scrubbed: the second read is clean, no new correction.
        qcc.read_measure(AccessPort::Controller, m).unwrap();
        assert_eq!(qcc.ecc_corrections(), 1);
        // An upset that a later write refreshes is never corrected.
        qcc.poison_measure(m, 0b0110).unwrap();
        qcc.write_measure(AccessPort::Controller, m).unwrap();
        qcc.read_measure(AccessPort::Controller, m).unwrap();
        assert_eq!(qcc.ecc_corrections(), 1);
        assert_eq!((qcc.writes(), qcc.reads()), (2, 3));
        let mut metrics = MetricsRegistry::new();
        qcc.export_metrics(&mut metrics, "mem.qcc");
        assert_eq!(metrics.len(), 3);
    }

    #[test]
    fn write_refreshes_check_bits_without_a_correction() {
        let (layout, mut qcc) = qcc();
        let m = layout.measure_entry(0).unwrap();
        qcc.poison_measure(m, u64::MAX).unwrap();
        qcc.write_measure(AccessPort::Controller, m).unwrap();
        qcc.read_measure(AccessPort::Controller, m).unwrap();
        assert_eq!(qcc.ecc_corrections(), 0);
        assert_eq!((qcc.writes(), qcc.reads()), (1, 1));
    }

    #[test]
    fn double_flip_cancels_and_zero_mask_is_noop() {
        let (layout, mut qcc) = qcc();
        let m = layout.measure_entry(1).unwrap();
        qcc.poison_measure(m, 0).unwrap();
        qcc.poison_measure(m, 0b11).unwrap();
        qcc.poison_measure(m, 0b11).unwrap();
        qcc.read_measure(AccessPort::Controller, m).unwrap();
        assert_eq!(qcc.ecc_corrections(), 0);
        // A flip on either side of a write does not cancel: the write
        // refreshed the first, so only the second is corrected.
        qcc.poison_measure(m, 0b11).unwrap();
        qcc.write_measure(AccessPort::Controller, m).unwrap();
        qcc.poison_measure(m, 0b11).unwrap();
        qcc.read_measure(AccessPort::Controller, m).unwrap();
        assert_eq!(qcc.ecc_corrections(), 1);
    }
}
