//! The packed 65-bit `.program` entry.
//!
//! Each gate of the quantum program is one entry in the owning qubit's
//! `.program` chunk (Fig. 6): `type` (4 b) selects the gate kind, `reg_flag`
//! (1 b) says whether `data` (27 b) is an inline fixed-point angle or a
//! `.regfile` index, `status` (3 b) tracks whether the `qaddr` (30 b) link
//! to a generated pulse is valid, and `qaddr` points into the `.pulse`
//! segment once stage 2/3 of the pipeline has produced the control pulse.

use std::fmt;

use crate::angle::EncodedAngle;
use crate::IsaError;

/// Gate kinds representable in the 4-bit `type` field.
///
/// The native gate set of the Qtenon chip is `{RX, RY, RZ, CZ}` plus
/// measurement; the transpiler lowers everything else to these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateType {
    /// Rotation about X by the entry's angle.
    Rx,
    /// Rotation about Y by the entry's angle.
    Ry,
    /// Rotation about Z by the entry's angle.
    Rz,
    /// Controlled-Z with the qubit named in the entry data (two-qubit).
    Cz,
    /// Z-basis measurement.
    Measure,
    /// Explicit idle/barrier of one gate slot (used for alignment).
    Idle,
}

impl GateType {
    /// All gate types in encoding order.
    pub(crate) const ALL: [GateType; 6] = [
        GateType::Rx,
        GateType::Ry,
        GateType::Rz,
        GateType::Cz,
        GateType::Measure,
        GateType::Idle,
    ];

    /// The 4-bit hardware encoding.
    pub(crate) fn encode(self) -> u8 {
        match self {
            GateType::Rx => 0,
            GateType::Ry => 1,
            GateType::Rz => 2,
            GateType::Cz => 3,
            GateType::Measure => 4,
            GateType::Idle => 5,
        }
    }

    /// Decodes a 4-bit `type` field.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadEncoding`] for unassigned codes.
    pub(crate) fn decode(code: u8) -> Result<Self, IsaError> {
        Self::ALL
            .get(code as usize)
            .copied()
            .ok_or(IsaError::BadEncoding {
                what: "unassigned gate type code",
            })
    }

    /// Whether the gate's `data` field holds a rotation angle (and thus
    /// participates in SLT lookup / pulse generation keyed on parameters).
    pub(crate) fn is_parameterised(self) -> bool {
        matches!(self, GateType::Rx | GateType::Ry | GateType::Rz)
    }

    /// The 3 type bits used in the SLT index (Fig. 7 truncates the 4-bit
    /// type to 3 bits).
    pub fn slt_type_bits(self) -> u32 {
        (self.encode() & 0b111) as u32
    }
}

impl fmt::Display for GateType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateType::Rx => "RX",
            GateType::Ry => "RY",
            GateType::Rz => "RZ",
            GateType::Cz => "CZ",
            GateType::Measure => "MEASURE",
            GateType::Idle => "IDLE",
        };
        f.write_str(s)
    }
}

/// The `status` field of a program entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EntryStatus {
    /// The `qaddr` link is invalid; the pulse has not been generated.
    #[default]
    Invalid,
    /// A pulse generation for this entry is in flight.
    Pending,
    /// `qaddr` points at a valid pulse in the `.pulse` segment.
    PulseReady,
}

impl EntryStatus {
    /// The 3-bit hardware encoding.
    pub(crate) fn encode(self) -> u8 {
        match self {
            EntryStatus::Invalid => 0,
            EntryStatus::Pending => 1,
            EntryStatus::PulseReady => 2,
        }
    }

    /// Decodes a 3-bit `status` field.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadEncoding`] for unassigned codes.
    pub(crate) fn decode(code: u8) -> Result<Self, IsaError> {
        match code {
            0 => Ok(EntryStatus::Invalid),
            1 => Ok(EntryStatus::Pending),
            2 => Ok(EntryStatus::PulseReady),
            _ => Err(IsaError::BadEncoding {
                what: "unassigned entry status code",
            }),
        }
    }
}

/// What the 27-bit `data` field of an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum EntryData {
    /// An inline fixed-point angle (for `reg_flag = 0` rotations).
    Angle(EncodedAngle),
    /// A `.regfile` index (for `reg_flag = 1`: the parameter is fetched
    /// from the register file at pipeline stage 2, enabling `q_update`).
    RegIndex(u32),
    /// A partner qubit index (for two-qubit gates).
    Partner(u32),
    /// No payload (measure/idle).
    None,
}

/// A decoded 65-bit `.program` entry.
///
/// # Examples
///
/// ```
/// use qtenon_isa::{EncodedAngle, GateType, ProgramEntry};
///
/// let entry = ProgramEntry::rotation(GateType::Ry, EncodedAngle::from_radians(1.0));
/// let packed = entry.pack();
/// assert_eq!(ProgramEntry::unpack(packed)?, entry);
/// # Ok::<(), qtenon_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramEntry {
    /// Gate kind.
    pub gate: GateType,
    /// Whether `data` is a register-file index.
    pub reg_flag: bool,
    /// Raw 27-bit data field.
    pub data: u32,
    /// Pulse-link status.
    pub status: EntryStatus,
    /// Link into the `.pulse` segment (meaningful when status is
    /// `PulseReady`; the 30-bit field addresses within the pulse segment).
    pub qaddr: u32,
}

const DATA_BITS: u32 = 27;
const QADDR_FIELD_BITS: u32 = 30;

impl ProgramEntry {
    /// Creates a rotation entry with an inline angle.
    pub fn rotation(gate: GateType, angle: EncodedAngle) -> Self {
        debug_assert!(gate.is_parameterised());
        ProgramEntry {
            gate,
            reg_flag: false,
            data: angle.code(),
            status: EntryStatus::Invalid,
            qaddr: 0,
        }
    }

    /// Creates a rotation entry whose angle lives in the register file.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::FieldOverflow`] if `reg_index` exceeds 27 bits.
    pub fn rotation_from_reg(gate: GateType, reg_index: u32) -> Result<Self, IsaError> {
        check_width("reg_index", reg_index as u64, DATA_BITS)?;
        Ok(ProgramEntry {
            gate,
            reg_flag: true,
            data: reg_index,
            status: EntryStatus::Invalid,
            qaddr: 0,
        })
    }

    /// Creates a CZ entry naming the partner qubit.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::FieldOverflow`] if `partner` exceeds 27 bits.
    pub fn cz(partner: u32) -> Result<Self, IsaError> {
        check_width("partner", partner as u64, DATA_BITS)?;
        Ok(ProgramEntry {
            gate: GateType::Cz,
            reg_flag: false,
            data: partner,
            status: EntryStatus::Invalid,
            qaddr: 0,
        })
    }

    /// Creates a measurement entry.
    pub fn measure() -> Self {
        ProgramEntry {
            gate: GateType::Measure,
            reg_flag: false,
            data: 0,
            status: EntryStatus::Invalid,
            qaddr: 0,
        }
    }

    /// Interprets the data field.
    pub(crate) fn payload(&self) -> EntryData {
        if self.reg_flag {
            EntryData::RegIndex(self.data)
        } else {
            match self.gate {
                GateType::Rx | GateType::Ry | GateType::Rz => {
                    EntryData::Angle(EncodedAngle::from_code(self.data))
                }
                GateType::Cz => EntryData::Partner(self.data),
                GateType::Measure | GateType::Idle => EntryData::None,
            }
        }
    }

    /// Packs the entry into the 65-bit hardware format (in a `u128`).
    ///
    /// Bit layout, LSB first: `type[3:0]`, `reg_flag[4]`, `data[31:5]`,
    /// `status[34:32]`, `qaddr[64:35]`.
    pub fn pack(&self) -> u128 {
        let mut w: u128 = self.gate.encode() as u128;
        w |= (self.reg_flag as u128) << 4;
        w |= (self.data as u128) << 5;
        w |= (self.status.encode() as u128) << 32;
        w |= (self.qaddr as u128) << 35;
        w
    }

    /// Unpacks a 65-bit entry.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadEncoding`] for unassigned type or status
    /// codes, or if bits above the 65-bit field are set.
    pub fn unpack(w: u128) -> Result<Self, IsaError> {
        if w >> 65 != 0 {
            return Err(IsaError::BadEncoding {
                what: "bits set above the 65-bit program entry",
            });
        }
        let gate = GateType::decode((w & 0xf) as u8)?;
        let reg_flag = (w >> 4) & 1 == 1;
        let data = ((w >> 5) & ((1 << DATA_BITS) - 1)) as u32;
        let status = EntryStatus::decode(((w >> 32) & 0b111) as u8)?;
        let qaddr = ((w >> 35) & ((1 << QADDR_FIELD_BITS) - 1)) as u32;
        Ok(ProgramEntry {
            gate,
            reg_flag,
            data,
            status,
            qaddr,
        })
    }
}

impl fmt::Display for ProgramEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.payload() {
            EntryData::Angle(a) => write!(f, "{}.{}", self.gate, a),
            EntryData::RegIndex(r) => write!(f, "{}.#r{}", self.gate, r),
            EntryData::Partner(p) => write!(f, "{}.q{}", self.gate, p),
            EntryData::None => write!(f, "{}", self.gate),
        }
    }
}

fn check_width(field: &'static str, value: u64, bits: u32) -> Result<(), IsaError> {
    if value >> bits != 0 {
        return Err(IsaError::FieldOverflow { field, value, bits });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QAddress;

    impl ProgramEntry {
        /// Returns a copy with the pulse link filled in and status set to
        /// `PulseReady`.
        ///
        /// # Errors
        ///
        /// Returns [`IsaError::FieldOverflow`] if the pulse address needs more
        /// than 30 bits.
        pub(crate) fn with_pulse(&self, pulse_addr: QAddress) -> Result<Self, IsaError> {
            check_width("qaddr", pulse_addr.raw(), QADDR_FIELD_BITS)?;
            Ok(ProgramEntry {
                status: EntryStatus::PulseReady,
                qaddr: pulse_addr.raw() as u32,
                ..*self
            })
        }
    }

    #[test]
    fn gate_type_round_trip() {
        for g in GateType::ALL {
            assert_eq!(GateType::decode(g.encode()).unwrap(), g);
        }
        assert!(GateType::decode(15).is_err());
    }

    #[test]
    fn status_round_trip() {
        for s in [
            EntryStatus::Invalid,
            EntryStatus::Pending,
            EntryStatus::PulseReady,
        ] {
            assert_eq!(EntryStatus::decode(s.encode()).unwrap(), s);
        }
        assert!(EntryStatus::decode(7).is_err());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let entries = [
            ProgramEntry::rotation(GateType::Rx, EncodedAngle::from_radians(2.2)),
            ProgramEntry::rotation_from_reg(GateType::Rz, 1023).unwrap(),
            ProgramEntry::cz(63).unwrap(),
            ProgramEntry::measure(),
            ProgramEntry {
                gate: GateType::Idle,
                ..ProgramEntry::measure()
            },
        ];
        for e in entries {
            assert_eq!(ProgramEntry::unpack(e.pack()).unwrap(), e);
        }
    }

    #[test]
    fn pack_fits_65_bits() {
        let mut e = ProgramEntry::rotation(GateType::Rz, EncodedAngle::from_code((1 << 27) - 1));
        e.status = EntryStatus::PulseReady;
        e.qaddr = (1 << 30) - 1;
        assert!(e.pack() < (1u128 << 65));
    }

    #[test]
    fn unpack_rejects_stray_bits() {
        assert!(ProgramEntry::unpack(1u128 << 66).is_err());
    }

    #[test]
    fn payload_interpretation() {
        let angle = EncodedAngle::from_radians(0.7);
        assert_eq!(
            ProgramEntry::rotation(GateType::Ry, angle).payload(),
            EntryData::Angle(angle)
        );
        assert_eq!(
            ProgramEntry::rotation_from_reg(GateType::Ry, 5)
                .unwrap()
                .payload(),
            EntryData::RegIndex(5)
        );
        assert_eq!(
            ProgramEntry::cz(3).unwrap().payload(),
            EntryData::Partner(3)
        );
        assert_eq!(ProgramEntry::measure().payload(), EntryData::None);
    }

    #[test]
    fn with_pulse_sets_link() {
        let e = ProgramEntry::rotation(GateType::Rx, EncodedAngle::from_radians(1.0));
        let p = e.with_pulse(QAddress::new(0x1234).unwrap()).unwrap();
        assert_eq!(p.status, EntryStatus::PulseReady);
        assert_eq!(p.qaddr, 0x1234);
        // A pulse address beyond 30 bits cannot be linked.
        assert!(e.with_pulse(QAddress::new(1 << 31).unwrap()).is_err());
    }

    #[test]
    fn reg_index_overflow_rejected() {
        assert!(ProgramEntry::rotation_from_reg(GateType::Rx, 1 << 27).is_err());
        assert!(ProgramEntry::cz(1 << 27).is_err());
    }

    #[test]
    fn display_matches_fig4_style() {
        let e = ProgramEntry::rotation_from_reg(GateType::Ry, 1).unwrap();
        assert_eq!(e.to_string(), "RY.#r1");
    }
}
