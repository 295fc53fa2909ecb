//! The five Qtenon instructions and their operand packing (Table 3,
//! Fig. 8b), plus a small textual assembler for debugging and tests.

use std::fmt;

use crate::qaddress::{QAddress, QADDRESS_BITS, QADDRESS_MASK};
use crate::rocc::{RoccFunct, RoccWord};
use crate::IsaError;

/// Width of the `length` field packed above the quantum address in `rs2`.
pub(crate) const LENGTH_BITS: u32 = 64 - QADDRESS_BITS; // 25

/// Maximum transfer length (in entries) expressible by `q_set`/`q_acquire`.
pub const MAX_TRANSFER_LEN: u64 = (1 << LENGTH_BITS) - 1;

/// A decoded Qtenon instruction with semantic operands.
///
/// # Examples
///
/// ```
/// use qtenon_isa::{Instruction, QAddress};
///
/// let set = Instruction::QSet {
///     classical_addr: 0x8000_0000,
///     qaddr: QAddress::new(0x400)?,
///     length: 285,
/// };
/// let enc = set.encode();
/// assert_eq!(Instruction::decode(&enc)?, set);
/// # Ok::<(), qtenon_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Transfer one value from a host core register into the public
    /// quantum controller cache (data path ❶, RoCC, one cycle).
    QUpdate {
        /// Destination quantum address.
        qaddr: QAddress,
        /// The 32-bit value to write (e.g. an encoded angle).
        value: u32,
    },
    /// Bulk-load host memory into the quantum controller cache (data
    /// path ❷, TileLink).
    QSet {
        /// Source address in host memory.
        classical_addr: u64,
        /// Destination quantum address (start).
        qaddr: QAddress,
        /// Number of entries to transfer.
        length: u64,
    },
    /// Retrieve quantum controller cache data (typically `.measure`) into
    /// host memory (data path ❷).
    QAcquire {
        /// Destination address in host memory.
        classical_addr: u64,
        /// Source quantum address (start).
        qaddr: QAddress,
        /// Number of entries to transfer.
        length: u64,
    },
    /// Trigger pulse generation for a range of program entries.
    QGen {
        /// First program entry to process.
        qaddr: QAddress,
        /// Number of program entries to process.
        length: u64,
    },
    /// Run the loaded quantum program for `shots` repetitions, depositing
    /// measurement results in the `.measure` segment.
    QRun {
        /// Number of shots.
        shots: u64,
    },
}

/// An encoded instruction: the 32-bit RoCC word plus the register *values*
/// it consumes. This is what the host core hands the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodedInstruction {
    /// The instruction word.
    pub word: RoccWord,
    /// Value of the register named by `rs1` (if `xs1`).
    pub rs1_value: u64,
    /// Value of the register named by `rs2` (if `xs2`).
    pub rs2_value: u64,
}

impl Instruction {
    /// Encodes to a RoCC word plus register values.
    ///
    /// Lengths are clamped at encode time by construction: building an
    /// over-long `QSet` is rejected by [`Instruction::decode`]'s inverse
    /// checks and by [`pack_len_addr`].
    pub fn encode(&self) -> EncodedInstruction {
        // Register numbers are conventional: rs1=x10, rs2=x11, rd=x12.
        let (rs1, rs2, xd) = (10u8, 11u8, false);
        match *self {
            Instruction::QUpdate { qaddr, value } => EncodedInstruction {
                word: RoccWord::new(RoccFunct::QUpdate, 0, rs1, rs2, xd, true, true),
                rs1_value: qaddr.raw(),
                rs2_value: value as u64,
            },
            Instruction::QSet {
                classical_addr,
                qaddr,
                length,
            } => EncodedInstruction {
                word: RoccWord::new(RoccFunct::QSet, 0, rs1, rs2, xd, true, true),
                rs1_value: classical_addr,
                rs2_value: pack_len_addr(length, qaddr),
            },
            Instruction::QAcquire {
                classical_addr,
                qaddr,
                length,
            } => EncodedInstruction {
                word: RoccWord::new(RoccFunct::QAcquire, 0, rs1, rs2, xd, true, true),
                rs1_value: classical_addr,
                rs2_value: pack_len_addr(length, qaddr),
            },
            Instruction::QGen { qaddr, length } => EncodedInstruction {
                word: RoccWord::new(RoccFunct::QGen, 0, rs1, rs2, xd, true, true),
                rs1_value: qaddr.raw(),
                rs2_value: length,
            },
            Instruction::QRun { shots } => EncodedInstruction {
                word: RoccWord::new(RoccFunct::QRun, 0, rs1, 0, xd, true, false),
                rs1_value: shots,
                rs2_value: 0,
            },
        }
    }

    /// Decodes an encoded instruction back to semantic form.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::AddressOutOfRange`] if a packed quantum address
    /// is invalid.
    pub fn decode(enc: &EncodedInstruction) -> Result<Self, IsaError> {
        Ok(match enc.word.funct {
            RoccFunct::QUpdate => Instruction::QUpdate {
                qaddr: QAddress::new(enc.rs1_value & QADDRESS_MASK)?,
                value: enc.rs2_value as u32,
            },
            RoccFunct::QSet => {
                let (length, qaddr) = unpack_len_addr(enc.rs2_value)?;
                Instruction::QSet {
                    classical_addr: enc.rs1_value,
                    qaddr,
                    length,
                }
            }
            RoccFunct::QAcquire => {
                let (length, qaddr) = unpack_len_addr(enc.rs2_value)?;
                Instruction::QAcquire {
                    classical_addr: enc.rs1_value,
                    qaddr,
                    length,
                }
            }
            RoccFunct::QGen => Instruction::QGen {
                qaddr: QAddress::new(enc.rs1_value & QADDRESS_MASK)?,
                length: enc.rs2_value,
            },
            RoccFunct::QRun => Instruction::QRun {
                shots: enc.rs1_value,
            },
        })
    }

    /// Parses assembly text like `q_set 0x80000000, @0x400, 285`.
    ///
    /// Accepted forms (whitespace-insensitive, `@` marks quantum
    /// addresses):
    ///
    /// - `q_update @<qaddr>, <value>`
    /// - `q_set <caddr>, @<qaddr>, <len>`
    /// - `q_acquire <caddr>, @<qaddr>, <len>`
    /// - `q_gen @<qaddr>, <len>`
    /// - `q_run <shots>`
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ParseError`] on malformed text.
    pub fn parse_asm(text: &str) -> Result<Self, IsaError> {
        let text = text.trim();
        let (mnemonic, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
        let args: Vec<&str> = rest
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let err = |message: String| IsaError::ParseError { message };
        let parse_num = |s: &str| -> Result<u64, IsaError> {
            let s = s.trim();
            let (digits, radix) = match s.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (s, 10),
            };
            u64::from_str_radix(digits, radix).map_err(|e| err(format!("bad number {s:?}: {e}")))
        };
        let parse_qaddr = |s: &str| -> Result<QAddress, IsaError> {
            let s = s
                .strip_prefix('@')
                .ok_or_else(|| err(format!("quantum address must start with '@': {s:?}")))?;
            QAddress::new(parse_num(s)?)
        };
        let want = |n: usize| -> Result<(), IsaError> {
            if args.len() != n {
                return Err(err(format!(
                    "{mnemonic} expects {n} operands, got {}",
                    args.len()
                )));
            }
            Ok(())
        };
        match mnemonic {
            "q_update" => {
                want(2)?;
                Ok(Instruction::QUpdate {
                    qaddr: parse_qaddr(args[0])?,
                    value: parse_num(args[1])? as u32,
                })
            }
            "q_set" => {
                want(3)?;
                Ok(Instruction::QSet {
                    classical_addr: parse_num(args[0])?,
                    qaddr: parse_qaddr(args[1])?,
                    length: parse_num(args[2])?,
                })
            }
            "q_acquire" => {
                want(3)?;
                Ok(Instruction::QAcquire {
                    classical_addr: parse_num(args[0])?,
                    qaddr: parse_qaddr(args[1])?,
                    length: parse_num(args[2])?,
                })
            }
            "q_gen" => {
                want(2)?;
                Ok(Instruction::QGen {
                    qaddr: parse_qaddr(args[0])?,
                    length: parse_num(args[1])?,
                })
            }
            "q_run" => {
                want(1)?;
                Ok(Instruction::QRun {
                    shots: parse_num(args[0])?,
                })
            }
            other => Err(err(format!("unknown mnemonic {other:?}"))),
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::QUpdate { qaddr, value } => {
                write!(f, "q_update @{:#x}, {:#x}", qaddr.raw(), value)
            }
            Instruction::QSet {
                classical_addr,
                qaddr,
                length,
            } => write!(
                f,
                "q_set {:#x}, @{:#x}, {}",
                classical_addr,
                qaddr.raw(),
                length
            ),
            Instruction::QAcquire {
                classical_addr,
                qaddr,
                length,
            } => write!(
                f,
                "q_acquire {:#x}, @{:#x}, {}",
                classical_addr,
                qaddr.raw(),
                length
            ),
            Instruction::QGen { qaddr, length } => {
                write!(f, "q_gen @{:#x}, {}", qaddr.raw(), length)
            }
            Instruction::QRun { shots } => write!(f, "q_run {shots}"),
        }
    }
}

/// Packs a transfer length into the upper 25 bits and a quantum address
/// into the lower 39 bits of an `rs2` value (Fig. 8b).
///
/// Lengths beyond [`MAX_TRANSFER_LEN`] saturate; the runtime splits such
/// transfers into multiple instructions before encoding.
pub fn pack_len_addr(length: u64, qaddr: QAddress) -> u64 {
    let length = length.min(MAX_TRANSFER_LEN);
    (length << QADDRESS_BITS) | qaddr.raw()
}

/// The inverse of [`pack_len_addr`].
///
/// # Errors
///
/// Never fails for values produced by [`pack_len_addr`]; the `Result`
/// mirrors [`QAddress::new`] for raw register values.
pub fn unpack_len_addr(rs2: u64) -> Result<(u64, QAddress), IsaError> {
    let length = rs2 >> QADDRESS_BITS;
    let qaddr = QAddress::new(rs2 & QADDRESS_MASK)?;
    Ok((length, qaddr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qa(raw: u64) -> QAddress {
        QAddress::new(raw).unwrap()
    }

    fn all_instructions() -> Vec<Instruction> {
        vec![
            Instruction::QUpdate {
                qaddr: qa(0x70000),
                value: 0xdead_beef,
            },
            Instruction::QSet {
                classical_addr: 0x8000_0000,
                qaddr: qa(0x400),
                length: 285,
            },
            Instruction::QAcquire {
                classical_addr: 0x9000_0000,
                qaddr: qa(0x71000),
                length: 5120,
            },
            Instruction::QGen {
                qaddr: qa(0),
                length: 1024,
            },
            Instruction::QRun { shots: 500 },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for instr in all_instructions() {
            let enc = instr.encode();
            assert_eq!(Instruction::decode(&enc).unwrap(), instr);
        }
    }

    #[test]
    fn rocc_word_bits_round_trip() {
        // Full path: semantic -> rocc word bits -> semantic.
        for instr in all_instructions() {
            let enc = instr.encode();
            let bits = enc.word.encode();
            let word = RoccWord::decode(bits).unwrap();
            let redecoded = Instruction::decode(&EncodedInstruction {
                word,
                rs1_value: enc.rs1_value,
                rs2_value: enc.rs2_value,
            })
            .unwrap();
            assert_eq!(redecoded, instr);
        }
    }

    #[test]
    fn len_addr_packing() {
        let (len, addr) = unpack_len_addr(pack_len_addr(285, qa(0x400))).unwrap();
        assert_eq!(len, 285);
        assert_eq!(addr, qa(0x400));
        // Length saturates at 25 bits.
        let (len, _) = unpack_len_addr(pack_len_addr(u64::MAX, qa(0))).unwrap();
        assert_eq!(len, MAX_TRANSFER_LEN);
    }

    #[test]
    fn asm_round_trip() {
        for instr in all_instructions() {
            let text = instr.to_string();
            assert_eq!(Instruction::parse_asm(&text).unwrap(), instr, "text={text}");
        }
    }

    #[test]
    fn asm_rejects_malformed() {
        for bad in [
            "q_teleport 1",
            "q_run",
            "q_update 0x100, 3", // missing '@'
            "q_set 0x1, @0x2",   // missing operand
            "q_run banana",
            "",
        ] {
            assert!(
                Instruction::parse_asm(bad).is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn funct_matches_variant() {
        assert_eq!(
            Instruction::QRun { shots: 1 }.encode().word.funct,
            RoccFunct::QRun
        );
        assert_eq!(
            Instruction::QGen {
                qaddr: qa(0),
                length: 1
            }
            .encode()
            .word
            .funct,
            RoccFunct::QGen
        );
    }
}
