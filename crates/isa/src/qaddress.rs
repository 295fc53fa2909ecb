//! The quantum address space and quantum-controller-cache layout.
//!
//! The quantum controller cache (QCC) is organised as a 2D space (Fig. 4):
//! the first dimension is five *segments* and the second divides each
//! segment into per-qubit *chunks*. A **QAddress** is an entry index inside
//! the 39-bit quantum address space; because each qubit owns a dedicated
//! address range, program entries never need to carry a qubit index — the
//! index is inherent in the address. This is what shrinks a 64-qubit QAOA
//! program from ~3×10⁴ dedicated-ISA instructions to ~285 Qtenon
//! instructions (Table 1).
//!
//! The 64-qubit layout matches the worked example in Fig. 4 of the paper:
//! `.program` qubit 0 occupies `0x0..=0x3ff`, `.regfile` starts at
//! `0x70000`, `.measure` at `0x71000..0x72400`, and `.pulse` qubit 0 at
//! `0x80000..=0x803ff`.

use std::fmt;

use crate::IsaError;

/// Width of the quantum address space in bits (Section 7.5).
pub(crate) const QADDRESS_BITS: u32 = 39;

/// Mask selecting the valid QAddress bits.
pub const QADDRESS_MASK: u64 = (1 << QADDRESS_BITS) - 1;

/// Index of a physical qubit managed by the controller.
///
/// # Examples
///
/// ```
/// use qtenon_isa::QubitId;
///
/// let q = QubitId::new(7);
/// assert_eq!(q.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QubitId(u32);

impl QubitId {
    /// Creates a qubit id from a raw index.
    pub const fn new(index: u32) -> Self {
        QubitId(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for QubitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for QubitId {
    fn from(index: u32) -> Self {
        QubitId(index)
    }
}

/// An address in the 39-bit quantum address space.
///
/// A `QAddress` indexes *entries*, not bytes: `.program` entries are 65 bits
/// wide, `.pulse` entries 640 bits, and so on; the controller hardware maps
/// entry indices to SRAM rows.
///
/// # Examples
///
/// ```
/// use qtenon_isa::QAddress;
///
/// let a = QAddress::new(0x8_0000)?;
/// assert_eq!(a.raw(), 0x8_0000);
/// assert_eq!(a.offset(3).unwrap().raw(), 0x8_0003);
/// # Ok::<(), qtenon_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QAddress(u64);

impl QAddress {
    /// Creates a quantum address from a raw value.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::AddressOutOfRange`] if `raw` exceeds the 39-bit
    /// address space.
    pub fn new(raw: u64) -> Result<Self, IsaError> {
        if raw > QADDRESS_MASK {
            return Err(IsaError::AddressOutOfRange {
                addr: raw,
                context: "39-bit quantum address space",
            });
        }
        Ok(QAddress(raw))
    }

    /// The raw 39-bit address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Creates an address in `const` contexts, masking to the 39-bit
    /// space instead of validating. Prefer [`QAddress::new`] at runtime.
    pub const fn new_unchecked(raw: u64) -> Self {
        QAddress(raw & QADDRESS_MASK)
    }

    /// The address `entries` entries past this one.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::AddressOutOfRange`] on overflow of the address
    /// space.
    pub fn offset(self, entries: u64) -> Result<Self, IsaError> {
        QAddress::new(self.0 + entries)
    }
}

impl fmt::Display for QAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:#x}", self.0)
    }
}

impl fmt::LowerHex for QAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// The five segments of the quantum controller cache (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Quantum program instructions (public).
    Program,
    /// Control pulses for the quantum chip (private).
    Pulse,
    /// Processed readout data (public).
    Measure,
    /// Skip lookup table (private, hardware-managed).
    Slt,
    /// Frequently updated parameters (public).
    Regfile,
}

impl Segment {
    /// All segments in Table 2 order.
    pub const ALL: [Segment; 5] = [
        Segment::Program,
        Segment::Pulse,
        Segment::Measure,
        Segment::Slt,
        Segment::Regfile,
    ];

    /// Whether the segment is accessible to user software.
    ///
    /// `.slt` and `.pulse` are kept private through hardware isolation to
    /// avoid three-way synchronisation between the interdependent
    /// `.program`/`.pulse`/`.slt` segments (Section 5.1).
    pub fn is_public(self) -> bool {
        matches!(self, Segment::Program | Segment::Measure | Segment::Regfile)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Segment::Program => ".program",
            Segment::Pulse => ".pulse",
            Segment::Measure => ".measure",
            Segment::Slt => ".slt",
            Segment::Regfile => ".regfile",
        };
        f.write_str(name)
    }
}

/// A decoded quantum address: which segment, which qubit chunk (if the
/// segment is per-qubit), and the entry offset within the chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddress {
    /// The segment the address falls in.
    pub segment: Segment,
    /// The owning qubit for per-qubit segments (`.program`, `.pulse`,
    /// `.slt`); `None` for the shared `.regfile` and `.measure` segments.
    pub qubit: Option<QubitId>,
    /// Entry offset within the qubit chunk (or within the shared segment).
    pub entry: u64,
}

/// Geometry of the quantum controller cache for a given qubit count.
///
/// Field defaults follow Table 2 of the paper (64-qubit configuration);
/// entry bit widths are fixed by the hardware formats.
///
/// # Examples
///
/// ```
/// use qtenon_isa::QccLayout;
///
/// let layout = QccLayout::for_qubits(64)?;
/// // Table 2: the 64-qubit configuration totals 5.66 MB.
/// assert_eq!(layout.total_bytes(), 5_935_104);
/// # Ok::<(), qtenon_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QccLayout {
    n_qubits: u32,
    program_entries: u64,
    pulse_entries: u64,
    measure_entries: u64,
    regfile_entries: u64,
    slt_ways: u64,
    slt_entries_per_way: u64,
    /// Segment bases in [`ADDRESS_ORDER`], derived once at construction
    /// from the fields above.
    bases: [u64; 5],
}

/// The segments in ascending base-address order, which is the same for
/// every geometry: `.program` starts at 0 and each later base is past the
/// end of the one before it (all segments but `.regfile` are non-empty,
/// and `.measure` sits a fixed `0x1000` above `.regfile`).
const ADDRESS_ORDER: [Segment; 5] = [
    Segment::Program,
    Segment::Regfile,
    Segment::Measure,
    Segment::Pulse,
    Segment::Slt,
];

/// `.program` entry width: type(4) + reg_flag(1) + data(27) + status(3) +
/// qaddr(30) bits.
pub(crate) const PROGRAM_ENTRY_BITS: u64 = 65;
/// `.pulse` entry width: 10 × 64 bits.
pub(crate) const PULSE_ENTRY_BITS: u64 = 640;
/// `.measure` entry width.
pub(crate) const MEASURE_ENTRY_BITS: u64 = 64;
/// `.slt` entry width: tag(20) + qaddr(30) + valid(1) + count(5) bits.
pub(crate) const SLT_ENTRY_BITS: u64 = 56;
/// `.regfile` entry width.
pub(crate) const REGFILE_ENTRY_BITS: u64 = 32;

/// Fixed base of the `.regfile` segment in the 64-qubit map (Fig. 4).
const REGFILE_BASE_64: u64 = 0x70000;
/// Fixed base of the `.measure` segment in the 64-qubit map (Fig. 4).
const MEASURE_BASE_64: u64 = 0x71000;
/// Fixed base of the `.pulse` segment in the 64-qubit map (Fig. 4).
const PULSE_BASE_64: u64 = 0x80000;

impl QccLayout {
    /// Creates the Table 2 layout for `n_qubits` qubits: 1024 program and
    /// pulse entries per qubit, 80 measure entries and 16 registers per
    /// qubit (5120 and 1024 at the paper's 64-qubit design point), and a
    /// 2-way × 128-entry SLT per qubit. Cache size therefore scales
    /// linearly with qubit count as Section 7.5 requires (22.63 MB at 256
    /// qubits).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadLayout`] if `n_qubits` is zero or the layout
    /// would not fit the 39-bit address space.
    pub fn for_qubits(n_qubits: u32) -> Result<Self, IsaError> {
        let n = n_qubits as u64;
        Self::with_geometry(n_qubits, 1024, 1024, 80 * n, 16 * n)
    }

    /// Creates a layout with custom per-qubit program/pulse depths and
    /// shared measure/regfile sizes.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadLayout`] for a zero qubit count, zero segment
    /// sizes, or a layout exceeding the 39-bit address space.
    pub fn with_geometry(
        n_qubits: u32,
        program_entries: u64,
        pulse_entries: u64,
        measure_entries: u64,
        regfile_entries: u64,
    ) -> Result<Self, IsaError> {
        if n_qubits == 0 {
            return Err(IsaError::BadLayout {
                message: "layout requires at least one qubit".into(),
            });
        }
        if program_entries == 0 || pulse_entries == 0 || measure_entries == 0 {
            return Err(IsaError::BadLayout {
                message: "segment sizes must be non-zero".into(),
            });
        }
        let mut layout = QccLayout {
            n_qubits,
            program_entries,
            pulse_entries,
            measure_entries,
            regfile_entries,
            slt_ways: 2,
            slt_entries_per_way: 128,
            bases: [0; 5],
        };
        layout.bases = layout.derive_bases();
        let end = layout.segment_base(Segment::Slt)
            + layout.n_qubits as u64 * layout.slt_ways * layout.slt_entries_per_way;
        if end > QADDRESS_MASK {
            return Err(IsaError::BadLayout {
                message: format!("layout end {end:#x} exceeds 39-bit address space"),
            });
        }
        Ok(layout)
    }

    /// The configured number of qubits.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Program entries per qubit chunk.
    pub fn program_entries_per_qubit(&self) -> u64 {
        self.program_entries
    }

    /// Pulse entries per qubit chunk.
    pub fn pulse_entries_per_qubit(&self) -> u64 {
        self.pulse_entries
    }

    /// Entries in the shared `.measure` segment.
    pub fn measure_entries(&self) -> u64 {
        self.measure_entries
    }

    /// Entries in the shared `.regfile` segment.
    pub fn regfile_entries(&self) -> u64 {
        self.regfile_entries
    }

    /// SLT associativity (ways per qubit).
    pub fn slt_ways(&self) -> u64 {
        self.slt_ways
    }

    /// SLT entries per way per qubit.
    pub fn slt_entries_per_way(&self) -> u64 {
        self.slt_entries_per_way
    }

    /// Base entry-address of a segment.
    ///
    /// For layouts up to 448 qubits with the default geometry this matches
    /// the Fig. 4 memory map exactly (`.regfile` at `0x70000`, `.measure`
    /// at `0x71000`, `.pulse` at `0x80000`); larger configurations shift
    /// the shared segments upward so chunks never collide.
    pub fn segment_base(&self, segment: Segment) -> u64 {
        let position = match segment {
            Segment::Program => 0,
            Segment::Regfile => 1,
            Segment::Measure => 2,
            Segment::Pulse => 3,
            Segment::Slt => 4,
        };
        self.bases[position]
    }

    /// The segment bases in [`ADDRESS_ORDER`].
    fn derive_bases(&self) -> [u64; 5] {
        let program_span = self.n_qubits as u64 * self.program_entries;
        let regfile_base = REGFILE_BASE_64.max(next_multiple(program_span, 0x1000));
        let measure_base = (regfile_base + self.regfile_entries)
            .max(regfile_base + (MEASURE_BASE_64 - REGFILE_BASE_64));
        let pulse_base =
            PULSE_BASE_64.max(next_multiple(measure_base + self.measure_entries, 0x10000));
        let slt_base = pulse_base + self.n_qubits as u64 * self.pulse_entries;
        [0, regfile_base, measure_base, pulse_base, slt_base]
    }

    /// Number of entries in a segment (all qubit chunks together).
    pub fn segment_entries(&self, segment: Segment) -> u64 {
        match segment {
            Segment::Program => self.n_qubits as u64 * self.program_entries,
            Segment::Pulse => self.n_qubits as u64 * self.pulse_entries,
            Segment::Measure => self.measure_entries,
            Segment::Regfile => self.regfile_entries,
            Segment::Slt => self.n_qubits as u64 * self.slt_ways * self.slt_entries_per_way,
        }
    }

    /// Size of a segment in bytes (entries × entry width, rounded up to
    /// whole bytes across the segment, matching Table 2's arithmetic).
    pub fn segment_bytes(&self, segment: Segment) -> u64 {
        let bits = match segment {
            Segment::Program => PROGRAM_ENTRY_BITS,
            Segment::Pulse => PULSE_ENTRY_BITS,
            Segment::Measure => MEASURE_ENTRY_BITS,
            Segment::Regfile => REGFILE_ENTRY_BITS,
            Segment::Slt => SLT_ENTRY_BITS,
        };
        (self.segment_entries(segment) * bits).div_ceil(8)
    }

    /// Total quantum controller cache size in bytes (Table 2's 5.66 MB for
    /// the 64-qubit default).
    pub fn total_bytes(&self) -> u64 {
        Segment::ALL.iter().map(|&s| self.segment_bytes(s)).sum()
    }

    /// The address of `entry` within `qubit`'s `.program` chunk.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::QubitOutOfRange`] or
    /// [`IsaError::AddressOutOfRange`] for out-of-range operands.
    pub fn program_entry(&self, qubit: QubitId, entry: u64) -> Result<QAddress, IsaError> {
        self.per_qubit_entry(Segment::Program, self.program_entries, qubit, entry)
    }

    /// The address of `entry` within `qubit`'s `.pulse` chunk.
    ///
    /// # Errors
    ///
    /// Same as [`QccLayout::program_entry`].
    pub fn pulse_entry(&self, qubit: QubitId, entry: u64) -> Result<QAddress, IsaError> {
        self.per_qubit_entry(Segment::Pulse, self.pulse_entries, qubit, entry)
    }

    /// The address of index `entry` in the shared `.regfile` segment.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::AddressOutOfRange`] if `entry` exceeds the
    /// register file size.
    pub fn regfile_entry(&self, entry: u64) -> Result<QAddress, IsaError> {
        if entry >= self.regfile_entries {
            return Err(IsaError::AddressOutOfRange {
                addr: entry,
                context: ".regfile segment",
            });
        }
        QAddress::new(self.segment_base(Segment::Regfile) + entry)
    }

    /// The address of index `entry` in the shared `.measure` segment.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::AddressOutOfRange`] if `entry` exceeds the
    /// measure segment size.
    pub fn measure_entry(&self, entry: u64) -> Result<QAddress, IsaError> {
        if entry >= self.measure_entries {
            return Err(IsaError::AddressOutOfRange {
                addr: entry,
                context: ".measure segment",
            });
        }
        QAddress::new(self.segment_base(Segment::Measure) + entry)
    }

    fn per_qubit_entry(
        &self,
        segment: Segment,
        per_qubit: u64,
        qubit: QubitId,
        entry: u64,
    ) -> Result<QAddress, IsaError> {
        if qubit.index() >= self.n_qubits {
            return Err(IsaError::QubitOutOfRange {
                qubit: qubit.index(),
                n_qubits: self.n_qubits,
            });
        }
        if entry >= per_qubit {
            return Err(IsaError::AddressOutOfRange {
                addr: entry,
                context: "per-qubit chunk",
            });
        }
        QAddress::new(self.segment_base(segment) + qubit.index() as u64 * per_qubit + entry)
    }

    /// Decodes an address into segment, qubit chunk, and entry offset.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::AddressOutOfRange`] for addresses in unmapped
    /// holes between segments.
    pub fn decode(&self, addr: QAddress) -> Result<DecodedAddress, IsaError> {
        let raw = addr.raw();
        // The owning segment is the one with the highest base at or
        // below the address.
        let (seg, base) = ADDRESS_ORDER
            .into_iter()
            .zip(self.bases)
            .rev()
            .find(|&(_, base)| raw >= base)
            .expect("program segment starts at 0");
        if raw >= base + self.segment_entries(seg) {
            return Err(IsaError::AddressOutOfRange {
                addr: raw,
                context: "hole between segments",
            });
        }
        let off = raw - base;
        let (qubit, entry) = match seg {
            Segment::Program => (
                Some(QubitId::new((off / self.program_entries) as u32)),
                off % self.program_entries,
            ),
            Segment::Pulse => (
                Some(QubitId::new((off / self.pulse_entries) as u32)),
                off % self.pulse_entries,
            ),
            Segment::Slt => {
                let per_qubit = self.slt_ways * self.slt_entries_per_way;
                (
                    Some(QubitId::new((off / per_qubit) as u32)),
                    off % per_qubit,
                )
            }
            Segment::Measure | Segment::Regfile => (None, off),
        };
        Ok(DecodedAddress {
            segment: seg,
            qubit,
            entry,
        })
    }
}

fn next_multiple(value: u64, align: u64) -> u64 {
    value.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout64() -> QccLayout {
        QccLayout::for_qubits(64).unwrap()
    }

    #[test]
    fn table2_sizes_for_64_qubits() {
        let l = layout64();
        // 520 KB program, 5 MB pulse, 40 KB measure, 112 KB slt, 4 KB regfile.
        assert_eq!(l.segment_bytes(Segment::Program), 520 * 1024);
        assert_eq!(l.segment_bytes(Segment::Pulse), 5 * 1024 * 1024);
        assert_eq!(l.segment_bytes(Segment::Measure), 40 * 1024);
        assert_eq!(l.segment_bytes(Segment::Slt), 112 * 1024);
        assert_eq!(l.segment_bytes(Segment::Regfile), 4 * 1024);
        // Table 2 total: 5.66 MB.
        assert!((l.total_bytes() as f64 / (1024.0 * 1024.0) - 5.66).abs() < 0.01);
    }

    #[test]
    fn fig4_memory_map_for_64_qubits() {
        let l = layout64();
        assert_eq!(l.program_entry(QubitId::new(0), 0).unwrap().raw(), 0x0);
        assert_eq!(l.program_entry(QubitId::new(0), 1023).unwrap().raw(), 0x3ff);
        assert_eq!(l.program_entry(QubitId::new(1), 0).unwrap().raw(), 0x400);
        assert_eq!(l.segment_base(Segment::Regfile), 0x70000);
        assert_eq!(l.segment_base(Segment::Measure), 0x71000);
        assert_eq!(
            l.segment_base(Segment::Measure) + l.measure_entries(),
            0x72400
        );
        assert_eq!(l.pulse_entry(QubitId::new(0), 0).unwrap().raw(), 0x80000);
        assert_eq!(l.pulse_entry(QubitId::new(1), 0).unwrap().raw(), 0x80400);
    }

    #[test]
    fn scalability_layout_at_256_qubits() {
        // Section 7.5: controlling 256 qubits requires ~22.63 MB of cache.
        let l = QccLayout::for_qubits(256).unwrap();
        let mb = l.total_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mb - 22.63).abs() < 0.05, "got {mb} MB");
    }

    #[test]
    fn layout_supports_320_qubits() {
        let l = QccLayout::for_qubits(320).unwrap();
        assert_eq!(l.n_qubits(), 320);
        // Per-qubit chunks must not collide with shared segments.
        let prog_end = l.segment_base(Segment::Program) + l.segment_entries(Segment::Program);
        assert!(prog_end <= l.segment_base(Segment::Regfile));
    }

    #[test]
    fn decode_round_trips_every_segment() {
        let l = layout64();
        let cases = [
            (
                l.program_entry(QubitId::new(5), 17).unwrap(),
                Segment::Program,
                Some(5),
                17,
            ),
            (
                l.pulse_entry(QubitId::new(63), 1023).unwrap(),
                Segment::Pulse,
                Some(63),
                1023,
            ),
            (l.regfile_entry(12).unwrap(), Segment::Regfile, None, 12),
            (l.measure_entry(5119).unwrap(), Segment::Measure, None, 5119),
        ];
        for (addr, seg, qubit, entry) in cases {
            let d = l.decode(addr).unwrap();
            assert_eq!(d.segment, seg);
            assert_eq!(d.qubit.map(|q| q.index()), qubit);
            assert_eq!(d.entry, entry);
        }
    }

    #[test]
    fn decode_rejects_holes() {
        let l = layout64();
        // Just past the end of .program (64 × 1024 = 0x10000) lies a hole
        // before .regfile at 0x70000.
        let hole = QAddress::new(0x20000).unwrap();
        assert!(matches!(
            l.decode(hole),
            Err(IsaError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn decode_round_trips_segment_edges_and_rejects_every_hole() {
        for n in [8u32, 64, 128, 320] {
            let l = QccLayout::for_qubits(n).unwrap();
            let mut spans: Vec<(Segment, u64, u64)> = Segment::ALL
                .iter()
                .map(|&s| {
                    (
                        s,
                        l.segment_base(s),
                        l.segment_base(s) + l.segment_entries(s),
                    )
                })
                .collect();
            spans.sort_by_key(|&(_, base, _)| base);
            for (i, &(seg, base, end)) in spans.iter().enumerate() {
                let chunk = match seg {
                    Segment::Program => Some(l.program_entries_per_qubit()),
                    Segment::Pulse => Some(l.pulse_entries_per_qubit()),
                    Segment::Slt => Some(l.slt_ways() * l.slt_entries_per_way()),
                    Segment::Measure | Segment::Regfile => None,
                };
                let (first_qubit, last_qubit, last_entry) = match chunk {
                    Some(per_qubit) => (Some(0), Some(n - 1), per_qubit - 1),
                    None => (None, None, end - base - 1),
                };
                for (raw, qubit, entry) in
                    [(base, first_qubit, 0), (end - 1, last_qubit, last_entry)]
                {
                    let d = l.decode(QAddress::new(raw).unwrap()).unwrap();
                    assert_eq!(d.segment, seg, "{n} qubits, {raw:#x}");
                    assert_eq!(d.qubit.map(|q| q.index()), qubit, "{n} qubits, {raw:#x}");
                    assert_eq!(d.entry, entry, "{n} qubits, {raw:#x}");
                }
                // The hole after this segment runs to the next base (or to
                // the top of the address space after the last segment).
                let next = spans.get(i + 1).map_or(QADDRESS_MASK + 1, |s| s.1);
                assert!(end <= next, "{seg} overlaps the next segment");
                if end < next {
                    for raw in [end, next - 1] {
                        assert!(
                            matches!(
                                l.decode(QAddress::new(raw).unwrap()),
                                Err(IsaError::AddressOutOfRange {
                                    context: "hole between segments",
                                    ..
                                })
                            ),
                            "{n} qubits: {raw:#x} past {seg} decoded"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_operands_rejected() {
        let l = layout64();
        assert!(l.program_entry(QubitId::new(64), 0).is_err());
        assert!(l.program_entry(QubitId::new(0), 1024).is_err());
        assert!(l.regfile_entry(1024).is_err());
        assert!(l.measure_entry(5120).is_err());
    }

    #[test]
    fn qaddress_bounds() {
        assert!(QAddress::new(QADDRESS_MASK).is_ok());
        assert!(QAddress::new(QADDRESS_MASK + 1).is_err());
        let a = QAddress::new(QADDRESS_MASK).unwrap();
        assert!(a.offset(1).is_err());
    }

    #[test]
    fn zero_qubits_rejected() {
        assert!(QccLayout::for_qubits(0).is_err());
    }

    #[test]
    fn segments_public_private_split() {
        assert!(Segment::Program.is_public());
        assert!(Segment::Measure.is_public());
        assert!(Segment::Regfile.is_public());
        assert!(!Segment::Pulse.is_public());
        assert!(!Segment::Slt.is_public());
    }
}
