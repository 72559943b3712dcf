//! The modelled instruction set.
//!
//! The paper models "the semantics of 25 instructions, including integer and
//! bitwise arithmetic, and access to memory and control registers" (§5.1).
//! This model covers the same user-mode-reachable ground with real A32
//! encodings so that guest code is ordinary words in simulated memory:
//!
//! - all 16 data-processing opcodes with immediate and register-shifted
//!   operands,
//! - `MUL`, `MOVW`/`MOVT`,
//! - `LDR`/`STR`/`LDRB`/`STRB` with immediate and register offsets,
//! - `LDM`/`STM` (increment-after and decrement-before, with writeback),
//! - `B`/`BL`/`BX`, `SVC`, `MRS`, `UDF`,
//! - `SMC` and `MCR`/`MRC`, which are *privileged*: executing them in user
//!   mode raises an undefined-instruction exception, which the monitor turns
//!   into an enclave kill (§4: "If the enclave takes an exception, the thread
//!   simply exits with an error code").
//!
//! Any word that does not decode to one of these is [`Insn::Unknown`] and
//! executes as an undefined instruction — the executable analogue of the
//! paper's idiomatic-specification rule that "a verified implementation
//! cannot execute unspecified instructions".

use crate::regs::Reg;

/// Condition codes (ARM ARM A8.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Equal (`Z == 1`).
    Eq,
    /// Not equal.
    Ne,
    /// Carry set / unsigned higher-or-same.
    Cs,
    /// Carry clear / unsigned lower.
    Cc,
    /// Minus / negative.
    Mi,
    /// Plus / positive or zero.
    Pl,
    /// Overflow.
    Vs,
    /// No overflow.
    Vc,
    /// Unsigned higher.
    Hi,
    /// Unsigned lower-or-same.
    Ls,
    /// Signed greater-or-equal.
    Ge,
    /// Signed less-than.
    Lt,
    /// Signed greater-than.
    Gt,
    /// Signed less-or-equal.
    Le,
    /// Always.
    Al,
}

impl Cond {
    /// Encodes to the 4-bit condition field.
    pub fn bits(self) -> u32 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Cs => 2,
            Cond::Cc => 3,
            Cond::Mi => 4,
            Cond::Pl => 5,
            Cond::Vs => 6,
            Cond::Vc => 7,
            Cond::Hi => 8,
            Cond::Ls => 9,
            Cond::Ge => 10,
            Cond::Lt => 11,
            Cond::Gt => 12,
            Cond::Le => 13,
            Cond::Al => 14,
        }
    }

    /// Decodes a 4-bit condition field; `0b1111` (unconditional space) is
    /// rejected.
    pub fn from_bits(bits: u32) -> Option<Cond> {
        Some(match bits & 0xf {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Cs,
            3 => Cond::Cc,
            4 => Cond::Mi,
            5 => Cond::Pl,
            6 => Cond::Vs,
            7 => Cond::Vc,
            8 => Cond::Hi,
            9 => Cond::Ls,
            10 => Cond::Ge,
            11 => Cond::Lt,
            12 => Cond::Gt,
            13 => Cond::Le,
            14 => Cond::Al,
            _ => return None,
        })
    }
}

/// Shift applied to a register operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shift {
    /// Logical shift left.
    Lsl,
    /// Logical shift right.
    Lsr,
    /// Arithmetic shift right.
    Asr,
    /// Rotate right.
    Ror,
}

impl Shift {
    /// 2-bit encoding.
    pub fn bits(self) -> u32 {
        match self {
            Shift::Lsl => 0,
            Shift::Lsr => 1,
            Shift::Asr => 2,
            Shift::Ror => 3,
        }
    }

    /// Decode from the 2-bit field.
    pub fn from_bits(bits: u32) -> Shift {
        match bits & 3 {
            0 => Shift::Lsl,
            1 => Shift::Lsr,
            2 => Shift::Asr,
            _ => Shift::Ror,
        }
    }
}

/// The flexible second operand of data-processing instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op2 {
    /// `#imm8 ROR (2*rot)`.
    Imm {
        /// 8-bit immediate.
        imm8: u8,
        /// 4-bit rotation count (the value is rotated right by `2*rot`).
        rot: u8,
    },
    /// `Rm, <shift> #amount` — register with immediate shift.
    Reg {
        /// Source register.
        rm: Reg,
        /// Shift kind.
        shift: Shift,
        /// Shift amount 0..=31 as encoded (`LSR/ASR` amount 0 encodes 32).
        amount: u8,
    },
}

impl Op2 {
    /// Shorthand for an unrotated immediate.
    pub fn imm(v: u8) -> Op2 {
        Op2::Imm { imm8: v, rot: 0 }
    }

    /// Shorthand for an unshifted register.
    pub fn reg(rm: Reg) -> Op2 {
        Op2::Reg {
            rm,
            shift: Shift::Lsl,
            amount: 0,
        }
    }

    /// Tries to express an arbitrary 32-bit value as an `imm8 ROR (2*rot)`
    /// immediate, the way an assembler would.
    pub fn encode_imm32(v: u32) -> Option<Op2> {
        for rot in 0..16u8 {
            let unrot = v.rotate_left(2 * rot as u32);
            if unrot <= 0xff {
                return Some(Op2::Imm {
                    imm8: unrot as u8,
                    rot,
                });
            }
        }
        None
    }
}

/// Data-processing opcode (4-bit field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum DpOp {
    And,
    Eor,
    Sub,
    Rsb,
    Add,
    Adc,
    Sbc,
    Rsc,
    Tst,
    Teq,
    Cmp,
    Cmn,
    Orr,
    Mov,
    Bic,
    Mvn,
}

impl DpOp {
    /// The 4-bit opcode field.
    pub fn bits(self) -> u32 {
        match self {
            DpOp::And => 0b0000,
            DpOp::Eor => 0b0001,
            DpOp::Sub => 0b0010,
            DpOp::Rsb => 0b0011,
            DpOp::Add => 0b0100,
            DpOp::Adc => 0b0101,
            DpOp::Sbc => 0b0110,
            DpOp::Rsc => 0b0111,
            DpOp::Tst => 0b1000,
            DpOp::Teq => 0b1001,
            DpOp::Cmp => 0b1010,
            DpOp::Cmn => 0b1011,
            DpOp::Orr => 0b1100,
            DpOp::Mov => 0b1101,
            DpOp::Bic => 0b1110,
            DpOp::Mvn => 0b1111,
        }
    }

    /// Decode from the opcode field.
    pub fn from_bits(bits: u32) -> DpOp {
        match bits & 0xf {
            0b0000 => DpOp::And,
            0b0001 => DpOp::Eor,
            0b0010 => DpOp::Sub,
            0b0011 => DpOp::Rsb,
            0b0100 => DpOp::Add,
            0b0101 => DpOp::Adc,
            0b0110 => DpOp::Sbc,
            0b0111 => DpOp::Rsc,
            0b1000 => DpOp::Tst,
            0b1001 => DpOp::Teq,
            0b1010 => DpOp::Cmp,
            0b1011 => DpOp::Cmn,
            0b1100 => DpOp::Orr,
            0b1101 => DpOp::Mov,
            0b1110 => DpOp::Bic,
            _ => DpOp::Mvn,
        }
    }

    /// Comparison/test opcodes write no destination and always set flags.
    #[inline]
    pub fn is_compare(self) -> bool {
        matches!(self, DpOp::Tst | DpOp::Teq | DpOp::Cmp | DpOp::Cmn)
    }

    /// Arithmetic opcodes: with flags set they write all of `NZCV` from
    /// one add-with-carry. Logical opcodes write `N`/`Z` and the shifter
    /// carry, and pass `V` through.
    #[inline]
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            DpOp::Sub
                | DpOp::Rsb
                | DpOp::Add
                | DpOp::Adc
                | DpOp::Sbc
                | DpOp::Rsc
                | DpOp::Cmp
                | DpOp::Cmn
        )
    }

    /// `MOV`/`MVN` take no first operand.
    pub fn is_move(self) -> bool {
        matches!(self, DpOp::Mov | DpOp::Mvn)
    }
}

/// Addressing offset for single loads/stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOffset {
    /// `[Rn, #±imm12]`.
    Imm {
        /// 12-bit offset magnitude.
        imm12: u16,
        /// Add (`U=1`) or subtract the offset.
        add: bool,
    },
    /// `[Rn, ±Rm]`.
    Reg {
        /// Offset register.
        rm: Reg,
        /// Add or subtract.
        add: bool,
    },
}

/// Load/store-multiple addressing mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsmMode {
    /// Increment-after (`LDMIA`/`STMIA`; pop is `LDMIA SP!`).
    Ia,
    /// Decrement-before (`LDMDB`/`STMDB`; push is `STMDB SP!`).
    Db,
}

/// A decoded instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insn {
    /// Data-processing.
    Dp {
        /// Condition.
        cond: Cond,
        /// Opcode.
        op: DpOp,
        /// Set flags (`S` bit); compares are always flag-setting.
        s: bool,
        /// Destination (ignored for compares).
        rd: Reg,
        /// First operand (ignored for moves).
        rn: Reg,
        /// Flexible second operand.
        op2: Op2,
    },
    /// `MUL rd, rm, rs` (low 32 bits of the product).
    Mul {
        /// Condition.
        cond: Cond,
        /// Set flags.
        s: bool,
        /// Destination.
        rd: Reg,
        /// Multiplicand.
        rm: Reg,
        /// Multiplier.
        rs: Reg,
    },
    /// `MOVW rd, #imm16`: load low half, clear high half.
    Movw {
        /// Condition.
        cond: Cond,
        /// Destination.
        rd: Reg,
        /// Immediate.
        imm16: u16,
    },
    /// `MOVT rd, #imm16`: load high half, keep low half.
    Movt {
        /// Condition.
        cond: Cond,
        /// Destination.
        rd: Reg,
        /// Immediate.
        imm16: u16,
    },
    /// Single load.
    Ldr {
        /// Condition.
        cond: Cond,
        /// Destination.
        rd: Reg,
        /// Base register.
        rn: Reg,
        /// Offset.
        off: MemOffset,
        /// Byte (`LDRB`) rather than word access.
        byte: bool,
    },
    /// Single store.
    Str {
        /// Condition.
        cond: Cond,
        /// Source.
        rd: Reg,
        /// Base register.
        rn: Reg,
        /// Offset.
        off: MemOffset,
        /// Byte (`STRB`) rather than word access.
        byte: bool,
    },
    /// Load-multiple.
    Ldm {
        /// Condition.
        cond: Cond,
        /// Base register.
        rn: Reg,
        /// Write the final address back to `rn`.
        writeback: bool,
        /// Bitmask of registers R0..R14 (bit 15 — `PC` — is not modelled).
        regs: u16,
        /// Addressing mode.
        mode: LsmMode,
    },
    /// Store-multiple.
    Stm {
        /// Condition.
        cond: Cond,
        /// Base register.
        rn: Reg,
        /// Writeback.
        writeback: bool,
        /// Register bitmask.
        regs: u16,
        /// Addressing mode.
        mode: LsmMode,
    },
    /// Branch; offset in *instructions* relative to `PC+8` (two words ahead),
    /// as architecturally encoded.
    B {
        /// Condition.
        cond: Cond,
        /// Signed word offset.
        offset: i32,
    },
    /// Branch with link.
    Bl {
        /// Condition.
        cond: Cond,
        /// Signed word offset.
        offset: i32,
    },
    /// Branch to the address in a register (bit 0 must be clear: no Thumb).
    Bx {
        /// Condition.
        cond: Cond,
        /// Target register.
        rm: Reg,
    },
    /// Supervisor call: traps to the monitor's SVC handler from an enclave.
    Svc {
        /// Condition.
        cond: Cond,
        /// Comment field (the Komodo SVC ABI passes the call number in `R0`,
        /// so this is conventionally zero).
        imm24: u32,
    },
    /// Secure monitor call — privileged; undefined from user mode.
    Smc {
        /// Condition.
        cond: Cond,
        /// 4-bit comment field.
        imm4: u8,
    },
    /// Read CPSR (user mode sees flags and mode).
    Mrs {
        /// Condition.
        cond: Cond,
        /// Destination.
        rd: Reg,
    },
    /// Coprocessor register transfer to CP — privileged; undefined from
    /// user mode.
    Mcr {
        /// Condition.
        cond: Cond,
        /// Coprocessor number.
        cp: u8,
        /// Source register.
        rt: Reg,
    },
    /// Coprocessor register transfer from CP — privileged; undefined from
    /// user mode.
    Mrc {
        /// Condition.
        cond: Cond,
        /// Coprocessor number.
        cp: u8,
        /// Destination register.
        rt: Reg,
    },
    /// Permanently undefined (`UDF #imm16`).
    Udf {
        /// Immediate payload.
        imm16: u16,
    },
    /// Any word that did not decode; executes as undefined.
    Unknown(u32),
}

impl Insn {
    /// The instruction's condition field ([`Cond::Al`] where unconditional).
    #[inline]
    pub fn cond(&self) -> Cond {
        match *self {
            Insn::Dp { cond, .. }
            | Insn::Mul { cond, .. }
            | Insn::Movw { cond, .. }
            | Insn::Movt { cond, .. }
            | Insn::Ldr { cond, .. }
            | Insn::Str { cond, .. }
            | Insn::Ldm { cond, .. }
            | Insn::Stm { cond, .. }
            | Insn::B { cond, .. }
            | Insn::Bl { cond, .. }
            | Insn::Bx { cond, .. }
            | Insn::Svc { cond, .. }
            | Insn::Smc { cond, .. }
            | Insn::Mrs { cond, .. }
            | Insn::Mcr { cond, .. }
            | Insn::Mrc { cond, .. } => cond,
            Insn::Udf { .. } | Insn::Unknown(_) => Cond::Al,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_roundtrip() {
        for b in 0..15u32 {
            let c = Cond::from_bits(b).unwrap();
            assert_eq!(c.bits(), b);
        }
        assert_eq!(Cond::from_bits(15), None);
    }

    #[test]
    fn dpop_roundtrip() {
        for b in 0..16u32 {
            assert_eq!(DpOp::from_bits(b).bits(), b);
        }
    }

    #[test]
    fn shift_roundtrip() {
        for b in 0..4u32 {
            assert_eq!(Shift::from_bits(b).bits(), b);
        }
    }

    #[test]
    fn encode_imm32_basic() {
        assert_eq!(
            Op2::encode_imm32(0xff),
            Some(Op2::Imm { imm8: 0xff, rot: 0 })
        );
        assert_eq!(
            Op2::encode_imm32(0x3f0),
            Some(Op2::Imm {
                imm8: 0x3f,
                rot: 14
            })
        );
        // 0xff000000 = 0xff rotated right by 8 → rot = 4.
        assert_eq!(
            Op2::encode_imm32(0xff00_0000),
            Some(Op2::Imm { imm8: 0xff, rot: 4 })
        );
        assert_eq!(Op2::encode_imm32(0x1234_5678), None);
    }

    #[test]
    fn encode_imm32_all_encodable_roundtrip() {
        // Every encodable immediate must round-trip through its encoding.
        for rot in 0..16u32 {
            for imm in [0u32, 1, 0x7f, 0xff] {
                let val = imm.rotate_right(2 * rot);
                let enc = Op2::encode_imm32(val).expect("encodable");
                if let Op2::Imm { imm8, rot } = enc {
                    assert_eq!((imm8 as u32).rotate_right(2 * rot as u32), val);
                } else {
                    panic!("expected immediate");
                }
            }
        }
    }

    #[test]
    fn compare_classification() {
        assert!(DpOp::Cmp.is_compare());
        assert!(!DpOp::Add.is_compare());
        assert!(DpOp::Mov.is_move());
        assert!(!DpOp::And.is_move());
    }
}
