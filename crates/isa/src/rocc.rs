//! The 32-bit RoCC instruction word (Fig. 8a).
//!
//! Qtenon instructions use the Rocket Custom Coprocessor (RoCC) extension
//! format on the `custom-0` opcode: the 7-bit `funct7` field selects one of
//! the five Qtenon operations, `rs1`/`rs2` name the source registers whose
//! *values* carry the operands, and `xd`/`xs1`/`xs2` flag which registers
//! are live.

use std::fmt;

use crate::IsaError;

/// The RISC-V `custom-0` major opcode used by RoCC.
pub(crate) const CUSTOM0_OPCODE: u32 = 0x0B;

/// The Qtenon operation selected by the `funct7` field (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoccFunct {
    /// `q_update`: host register → quantum controller cache.
    QUpdate,
    /// `q_set`: host memory → quantum controller cache.
    QSet,
    /// `q_acquire`: quantum controller cache → host memory.
    QAcquire,
    /// `q_gen`: generate pulses for a program range.
    QGen,
    /// `q_run`: run the quantum program for a number of shots.
    QRun,
}

impl RoccFunct {
    /// All functs in encoding order.
    pub(crate) const ALL: [RoccFunct; 5] = [
        RoccFunct::QUpdate,
        RoccFunct::QSet,
        RoccFunct::QAcquire,
        RoccFunct::QGen,
        RoccFunct::QRun,
    ];

    /// The 7-bit `funct7` encoding.
    pub(crate) fn encode(self) -> u8 {
        match self {
            RoccFunct::QUpdate => 0,
            RoccFunct::QSet => 1,
            RoccFunct::QAcquire => 2,
            RoccFunct::QGen => 3,
            RoccFunct::QRun => 4,
        }
    }

    /// Decodes a `funct7` field.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadEncoding`] for unassigned codes.
    pub(crate) fn decode(code: u8) -> Result<Self, IsaError> {
        Self::ALL
            .get(code as usize)
            .copied()
            .ok_or(IsaError::BadEncoding {
                what: "unassigned RoCC funct7",
            })
    }

    /// The instruction mnemonic.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            RoccFunct::QUpdate => "q_update",
            RoccFunct::QSet => "q_set",
            RoccFunct::QAcquire => "q_acquire",
            RoccFunct::QGen => "q_gen",
            RoccFunct::QRun => "q_run",
        }
    }
}

impl fmt::Display for RoccFunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A decoded 32-bit RoCC instruction word.
///
/// Field layout (standard RoCC):
/// `inst[6:0]` opcode, `inst[11:7]` rd, `inst[12]` xs2, `inst[13]` xs1,
/// `inst[14]` xd, `inst[19:15]` rs1, `inst[24:20]` rs2, `inst[31:25]`
/// funct7.
///
/// # Examples
///
/// ```
/// use qtenon_isa::{RoccFunct, RoccWord};
///
/// let w = RoccWord {
///     funct: RoccFunct::QRun,
///     rd: 0,
///     rs1: 5,
///     rs2: 0,
///     xd: false,
///     xs1: true,
///     xs2: false,
/// };
/// let bits = w.encode();
/// assert_eq!(RoccWord::decode(bits)?, w);
/// # Ok::<(), qtenon_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoccWord {
    /// The Qtenon operation.
    pub funct: RoccFunct,
    /// Destination register number.
    pub rd: u8,
    /// First source register number.
    pub rs1: u8,
    /// Second source register number.
    pub rs2: u8,
    /// Whether `rd` receives a result.
    pub xd: bool,
    /// Whether `rs1` is read.
    pub xs1: bool,
    /// Whether `rs2` is read.
    pub xs2: bool,
}

impl RoccWord {
    /// Creates a RoCC word from its fields.
    ///
    /// # Panics
    ///
    /// Panics if a register number exceeds 31.
    pub(crate) fn new(
        funct: RoccFunct,
        rd: u8,
        rs1: u8,
        rs2: u8,
        xd: bool,
        xs1: bool,
        xs2: bool,
    ) -> Self {
        assert!(
            rd < 32 && rs1 < 32 && rs2 < 32,
            "register number out of range"
        );
        RoccWord {
            funct,
            rd,
            rs1,
            rs2,
            xd,
            xs1,
            xs2,
        }
    }

    /// Encodes to the 32-bit instruction word.
    pub fn encode(&self) -> u32 {
        CUSTOM0_OPCODE
            | (self.rd as u32) << 7
            | (self.xs2 as u32) << 12
            | (self.xs1 as u32) << 13
            | (self.xd as u32) << 14
            | (self.rs1 as u32) << 15
            | (self.rs2 as u32) << 20
            | (self.funct.encode() as u32) << 25
    }

    /// Decodes a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadEncoding`] if the opcode is not `custom-0` or
    /// the funct is unassigned.
    pub fn decode(bits: u32) -> Result<Self, IsaError> {
        if bits & 0x7f != CUSTOM0_OPCODE {
            return Err(IsaError::BadEncoding {
                what: "opcode is not custom-0",
            });
        }
        let funct = RoccFunct::decode((bits >> 25) as u8)?;
        Ok(RoccWord {
            funct,
            rd: ((bits >> 7) & 0x1f) as u8,
            xs2: (bits >> 12) & 1 == 1,
            xs1: (bits >> 13) & 1 == 1,
            xd: (bits >> 14) & 1 == 1,
            rs1: ((bits >> 15) & 0x1f) as u8,
            rs2: ((bits >> 20) & 0x1f) as u8,
        })
    }
}

impl fmt::Display for RoccWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rd=x{} rs1=x{} rs2=x{}",
            self.funct, self.rd, self.rs1, self.rs2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funct_round_trip() {
        for funct in RoccFunct::ALL {
            assert_eq!(RoccFunct::decode(funct.encode()).unwrap(), funct);
        }
        assert!(RoccFunct::decode(99).is_err());
    }

    #[test]
    fn word_round_trip_all_fields() {
        for funct in RoccFunct::ALL {
            let w = RoccWord::new(funct, 31, 1, 17, true, false, true);
            assert_eq!(RoccWord::decode(w.encode()).unwrap(), w);
        }
    }

    #[test]
    fn encode_uses_custom0() {
        let w = RoccWord::new(RoccFunct::QSet, 0, 10, 11, false, true, true);
        assert_eq!(w.encode() & 0x7f, CUSTOM0_OPCODE);
    }

    #[test]
    fn decode_rejects_wrong_opcode() {
        assert!(matches!(
            RoccWord::decode(0x33), // OP opcode, not custom-0
            Err(IsaError::BadEncoding { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "register number out of range")]
    fn oversized_register_panics() {
        let _ = RoccWord::new(RoccFunct::QRun, 32, 0, 0, false, false, false);
    }

    #[test]
    fn fields_do_not_alias() {
        // Distinct registers land in distinct bit positions.
        let w = RoccWord::new(RoccFunct::QGen, 1, 2, 3, true, true, true);
        let bits = w.encode();
        assert_eq!((bits >> 7) & 0x1f, 1);
        assert_eq!((bits >> 15) & 0x1f, 2);
        assert_eq!((bits >> 20) & 0x1f, 3);
    }
}
