//! Data-processing semantics: the barrel shifter and the ALU with flags.
//!
//! Implements the integer and bitwise arithmetic the paper models (§5.1),
//! including the architectural carry-out rules for the flexible second
//! operand, which guest code relies on for multi-word arithmetic and
//! compare-and-branch sequences.

use crate::insn::{DpOp, Op2, Shift};
use crate::psr::Psr;
use crate::word::Word;

/// The value and shifter carry-out of evaluating an [`Op2`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShifterResult {
    /// Operand value.
    pub value: Word,
    /// Shifter carry-out (feeds `C` for logical operations with `S`).
    pub carry: bool,
}

/// Evaluates a flexible second operand given a register-read function.
#[inline]
pub fn eval_op2(
    op2: Op2,
    carry_in: bool,
    read: impl Fn(crate::regs::Reg) -> Word,
) -> ShifterResult {
    match op2 {
        Op2::Imm { imm8, rot } => {
            let value = (imm8 as u32).rotate_right(2 * rot as u32);
            let carry = if rot == 0 {
                carry_in
            } else {
                value & 0x8000_0000 != 0
            };
            ShifterResult { value, carry }
        }
        Op2::Reg { rm, shift, amount } => shift_value(read(rm), shift, amount, carry_in),
    }
}

/// Applies an immediate shift with architectural amount-zero semantics:
/// `LSL #0` is the identity, `LSR #0`/`ASR #0` encode a 32-bit shift, and
/// `ROR #0` (RRX) is outside the modelled subset so it behaves as identity
/// with the carry unchanged (the assembler never emits it).
#[inline]
pub fn shift_value(v: Word, shift: Shift, amount: u8, carry_in: bool) -> ShifterResult {
    let a = amount as u32;
    match shift {
        Shift::Lsl => {
            if a == 0 {
                ShifterResult {
                    value: v,
                    carry: carry_in,
                }
            } else {
                ShifterResult {
                    value: v << a,
                    carry: v & (1 << (32 - a)) != 0,
                }
            }
        }
        Shift::Lsr => {
            let a = if a == 0 { 32 } else { a };
            if a == 32 {
                ShifterResult {
                    value: 0,
                    carry: v & 0x8000_0000 != 0,
                }
            } else {
                ShifterResult {
                    value: v >> a,
                    carry: v & (1 << (a - 1)) != 0,
                }
            }
        }
        Shift::Asr => {
            let a = if a == 0 { 32 } else { a };
            if a == 32 {
                let fill = if v & 0x8000_0000 != 0 { !0 } else { 0 };
                ShifterResult {
                    value: fill,
                    carry: v & 0x8000_0000 != 0,
                }
            } else {
                ShifterResult {
                    value: ((v as i32) >> a) as u32,
                    carry: v & (1 << (a - 1)) != 0,
                }
            }
        }
        Shift::Ror => {
            if a == 0 {
                // RRX unmodelled; identity keeps the assembler subset total.
                ShifterResult {
                    value: v,
                    carry: carry_in,
                }
            } else {
                let value = v.rotate_right(a);
                ShifterResult {
                    value,
                    carry: value & 0x8000_0000 != 0,
                }
            }
        }
    }
}

/// Value-only evaluation of a flexible second operand.
///
/// The shifter's *value* never depends on the carry-in (only its
/// carry-out does, which flags-free instructions discard), so this is the
/// [`eval_op2`] result's `value` field, minus the carry bookkeeping —
/// `dp_value_path_matches_full_alu` checks the equivalence exhaustively.
#[inline]
pub fn eval_op2_value(op2: Op2, read: impl Fn(crate::regs::Reg) -> Word) -> Word {
    match op2 {
        Op2::Imm { imm8, rot } => (imm8 as u32).rotate_right(2 * rot as u32),
        Op2::Reg { rm, shift, amount } => shift_value(read(rm), shift, amount, false).value,
    }
}

/// Value-only ALU for flags-free data processing (`S` clear, not a
/// compare): just the word written to `Rd`, skipping the NZCV
/// computation [`alu`] always performs. Compare opcodes (which never
/// take this path — they always set flags) yield their would-be result.
/// `dp_value_path_matches_full_alu` checks the equivalence against
/// [`alu`] for every opcode and carry-in.
#[inline]
pub fn alu_value(op: DpOp, rn: Word, op2: Word, carry_in: bool) -> Word {
    let borrow = !carry_in as u32;
    match op {
        DpOp::And | DpOp::Tst => rn & op2,
        DpOp::Eor | DpOp::Teq => rn ^ op2,
        DpOp::Orr => rn | op2,
        DpOp::Bic => rn & !op2,
        DpOp::Mov => op2,
        DpOp::Mvn => !op2,
        DpOp::Add | DpOp::Cmn => rn.wrapping_add(op2),
        DpOp::Adc => rn.wrapping_add(op2).wrapping_add(carry_in as u32),
        DpOp::Sub | DpOp::Cmp => rn.wrapping_sub(op2),
        DpOp::Sbc => rn.wrapping_sub(op2).wrapping_sub(borrow),
        DpOp::Rsb => op2.wrapping_sub(rn),
        DpOp::Rsc => op2.wrapping_sub(rn).wrapping_sub(borrow),
    }
}

/// Result of a data-processing operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AluResult {
    /// Value to write to `Rd` (`None` for compares).
    pub value: Option<Word>,
    /// Updated NZCV, applied only when the instruction sets flags.
    pub n: bool,
    /// Zero flag.
    pub z: bool,
    /// Carry flag.
    pub c: bool,
    /// Overflow flag.
    pub v: bool,
}

fn add_with_carry(a: Word, b: Word, carry: bool) -> (Word, bool, bool) {
    let (s1, c1) = a.overflowing_add(b);
    let (sum, c2) = s1.overflowing_add(carry as u32);
    let carry_out = c1 || c2;
    let overflow = ((a ^ sum) & (b ^ sum)) & 0x8000_0000 != 0;
    (sum, carry_out, overflow)
}

/// Executes a data-processing opcode.
#[inline]
pub fn alu(op: DpOp, rn: Word, op2: ShifterResult, psr: Psr) -> AluResult {
    let (value, c, v) = match op {
        DpOp::And | DpOp::Tst => (rn & op2.value, op2.carry, psr.v),
        DpOp::Eor | DpOp::Teq => (rn ^ op2.value, op2.carry, psr.v),
        DpOp::Orr => (rn | op2.value, op2.carry, psr.v),
        DpOp::Bic => (rn & !op2.value, op2.carry, psr.v),
        DpOp::Mov => (op2.value, op2.carry, psr.v),
        DpOp::Mvn => (!op2.value, op2.carry, psr.v),
        DpOp::Add | DpOp::Cmn => {
            let (s, c, v) = add_with_carry(rn, op2.value, false);
            (s, c, v)
        }
        DpOp::Adc => {
            let (s, c, v) = add_with_carry(rn, op2.value, psr.c);
            (s, c, v)
        }
        DpOp::Sub | DpOp::Cmp => {
            let (s, c, v) = add_with_carry(rn, !op2.value, true);
            (s, c, v)
        }
        DpOp::Sbc => {
            let (s, c, v) = add_with_carry(rn, !op2.value, psr.c);
            (s, c, v)
        }
        DpOp::Rsb => {
            let (s, c, v) = add_with_carry(op2.value, !rn, true);
            (s, c, v)
        }
        DpOp::Rsc => {
            let (s, c, v) = add_with_carry(op2.value, !rn, psr.c);
            (s, c, v)
        }
    };
    AluResult {
        value: if op.is_compare() { None } else { Some(value) },
        n: value & 0x8000_0000 != 0,
        z: value == 0,
        c,
        v,
    }
}

/// Flag-setting data processing for the compiled runner: what [`alu`]
/// returns for [`eval_op2`]'s shifter result, in one function the runner
/// inlines, so no `AluResult` goes through memory. A plain register
/// (`LSL #0`) and an immediate are evaluated in line, with the shifter
/// carry as [`eval_op2`] defines it (`C` passes through unless the
/// immediate is rotated); any other shifted register goes through
/// [`shift_value`] out of line, which keeps the runner's loop small.
/// Arithmetic opcodes then run one add-with-carry and ignore the shifter
/// carry; logical opcodes take it. [`alu`] and [`eval_op2`] stay for the
/// per-instruction interpreter; `inline_flag_path_matches_full_alu`
/// checks that the two agree on every opcode, operand shape, carry-in
/// and overflow-in.
#[inline(always)]
pub(crate) fn alu_flags(
    op: DpOp,
    rn: Word,
    op2: Op2,
    psr: Psr,
    read: impl Fn(crate::regs::Reg) -> Word,
) -> AluResult {
    let sh = match op2 {
        Op2::Reg {
            rm,
            shift: Shift::Lsl,
            amount: 0,
        } => ShifterResult {
            value: read(rm),
            carry: psr.c,
        },
        Op2::Imm { imm8, rot } => {
            let value = (imm8 as u32).rotate_right(2 * rot as u32);
            ShifterResult {
                value,
                carry: if rot == 0 {
                    psr.c
                } else {
                    value & 0x8000_0000 != 0
                },
            }
        }
        Op2::Reg { rm, shift, amount } => shifted(read(rm), shift, amount, psr.c),
    };
    let (value, c, v) = if op.is_arith() {
        let (x, y, cin) = match op {
            DpOp::Add | DpOp::Cmn => (rn, sh.value, false),
            DpOp::Adc => (rn, sh.value, psr.c),
            DpOp::Sub | DpOp::Cmp => (rn, !sh.value, true),
            DpOp::Sbc => (rn, !sh.value, psr.c),
            DpOp::Rsb => (sh.value, !rn, true),
            _ => (sh.value, !rn, psr.c), // Rsc
        };
        let wide = x as u64 + y as u64 + cin as u64;
        let s = wide as Word;
        (s, wide >> 32 != 0, ((x ^ s) & (y ^ s)) & 0x8000_0000 != 0)
    } else {
        let value = match op {
            DpOp::And | DpOp::Tst => rn & sh.value,
            DpOp::Eor | DpOp::Teq => rn ^ sh.value,
            DpOp::Orr => rn | sh.value,
            DpOp::Bic => rn & !sh.value,
            DpOp::Mov => sh.value,
            _ => !sh.value, // Mvn
        };
        (value, sh.carry, psr.v)
    };
    AluResult {
        value: if op.is_compare() { None } else { Some(value) },
        n: value & 0x8000_0000 != 0,
        z: value == 0,
        c,
        v,
    }
}

/// [`shift_value`] kept out of line, for the flag path's rarer shifted
/// register operands.
#[inline(never)]
fn shifted(v: Word, shift: Shift, amount: u8, carry_in: bool) -> ShifterResult {
    shift_value(v, shift, amount, carry_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::Reg;

    fn psr() -> Psr {
        Psr::user()
    }

    /// Every `Op2` shape the inline flag path distinguishes: unrotated and
    /// rotated immediates with bit 31 set and clear, `LSL #0`, and each
    /// shift at amounts 0, 1 and 31, all reading `r1`.
    fn op2_shapes() -> Vec<Op2> {
        let mut out = vec![
            Op2::imm(0),
            Op2::imm(1),
            Op2::imm(0xff),
            Op2::Imm { imm8: 0x3f, rot: 1 }, // 0xc000_000f: bit 31 set.
            Op2::Imm { imm8: 0x01, rot: 1 }, // 0x4000_0000: bit 31 clear.
            Op2::Imm { imm8: 0xff, rot: 4 }, // 0xff00_0000.
            Op2::Imm {
                imm8: 0x80,
                rot: 15,
            }, // 0x0000_0200.
        ];
        for shift in [Shift::Lsl, Shift::Lsr, Shift::Asr, Shift::Ror] {
            for amount in [0u8, 1, 31] {
                out.push(Op2::Reg {
                    rm: Reg::R(1),
                    shift,
                    amount,
                });
            }
        }
        out
    }

    #[test]
    fn inline_flag_path_matches_full_alu() {
        let ops = (0..16).map(DpOp::from_bits);
        let mut words = vec![0u32, 1, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff];
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..6 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            words.push((state >> 32) as u32);
        }
        let shapes = op2_shapes();
        for op in ops {
            for &op2 in &shapes {
                for &rn in &words {
                    for &rm in &words {
                        for (c, v) in [(false, false), (false, true), (true, false), (true, true)] {
                            let mut p = psr();
                            p.c = c;
                            p.v = v;
                            let read = |r: Reg| if r == Reg::R(1) { rm } else { 0xdead_beef };
                            let full = alu(op, rn, eval_op2(op2, c, read), p);
                            let inline = alu_flags(op, rn, op2, p, read);
                            assert_eq!(
                                inline, full,
                                "{op:?} rn={rn:#x} {op2:?} rm={rm:#x} c={c} v={v}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dp_value_path_matches_full_alu() {
        let ops = [
            DpOp::And,
            DpOp::Eor,
            DpOp::Sub,
            DpOp::Rsb,
            DpOp::Add,
            DpOp::Adc,
            DpOp::Sbc,
            DpOp::Rsc,
            DpOp::Tst,
            DpOp::Teq,
            DpOp::Cmp,
            DpOp::Cmn,
            DpOp::Orr,
            DpOp::Mov,
            DpOp::Bic,
            DpOp::Mvn,
        ];
        let words = [0, 1, 3, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff, 0x1234_5678];
        for op in ops {
            for &rn in &words {
                for &v in &words {
                    for carry in [false, true] {
                        let mut p = psr();
                        p.c = carry;
                        let full = alu(op, rn, ShifterResult { value: v, carry }, p);
                        let lean = alu_value(op, rn, v, carry);
                        // The full ALU reports `None` for compares but
                        // computes the same word internally; recover it
                        // via the flag bits where possible, else compare
                        // directly on non-compare ops.
                        if let Some(w) = full.value {
                            assert_eq!(lean, w, "{op:?} rn={rn:#x} op2={v:#x} c={carry}");
                        } else {
                            // Compare opcodes: n/z describe the would-be
                            // result; check consistency.
                            assert_eq!(lean == 0, full.z, "{op:?} rn={rn:#x} op2={v:#x}");
                            assert_eq!(lean & 0x8000_0000 != 0, full.n, "{op:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn eval_op2_value_matches_full_shifter() {
        let regs = [0u32, 1, 0x8000_0001, 0xffff_ffff, 0x1234_5678];
        for &rv in &regs {
            for shift in [Shift::Lsl, Shift::Lsr, Shift::Asr, Shift::Ror] {
                for amount in [0u8, 1, 4, 31] {
                    for carry in [false, true] {
                        let op2 = Op2::Reg {
                            rm: Reg::R(0),
                            shift,
                            amount,
                        };
                        let full = eval_op2(op2, carry, |_| rv);
                        let lean = eval_op2_value(op2, |_| rv);
                        assert_eq!(lean, full.value, "{shift:?} #{amount} c={carry}");
                    }
                }
            }
        }
        for imm8 in [0u8, 1, 0xff] {
            for rot in [0u8, 1, 8, 15] {
                let op2 = Op2::Imm { imm8, rot };
                assert_eq!(
                    eval_op2_value(op2, |_| 0),
                    eval_op2(op2, false, |_| 0).value
                );
            }
        }
    }

    #[test]
    fn add_sets_carry_and_overflow() {
        let r = alu(
            DpOp::Add,
            0xffff_ffff,
            ShifterResult {
                value: 1,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(0));
        assert!(r.z && r.c && !r.v);

        let r = alu(
            DpOp::Add,
            0x7fff_ffff,
            ShifterResult {
                value: 1,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(0x8000_0000));
        assert!(r.n && !r.c && r.v);
    }

    #[test]
    fn sub_carry_is_not_borrow() {
        // ARM: C=1 when no borrow.
        let r = alu(
            DpOp::Sub,
            5,
            ShifterResult {
                value: 3,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(2));
        assert!(r.c);
        let r = alu(
            DpOp::Sub,
            3,
            ShifterResult {
                value: 5,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(-2i32 as u32));
        assert!(!r.c && r.n);
    }

    #[test]
    fn cmp_equal_sets_z_c() {
        let r = alu(
            DpOp::Cmp,
            7,
            ShifterResult {
                value: 7,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, None);
        assert!(r.z && r.c);
    }

    #[test]
    fn adc_sbc_chain() {
        // 64-bit add: low words 0xffffffff + 1 set carry for the high half.
        let mut p = psr();
        let lo = alu(
            DpOp::Add,
            0xffff_ffff,
            ShifterResult {
                value: 1,
                carry: false,
            },
            p,
        );
        p.c = lo.c;
        let hi = alu(
            DpOp::Adc,
            0,
            ShifterResult {
                value: 0,
                carry: false,
            },
            p,
        );
        assert_eq!(hi.value, Some(1));
    }

    #[test]
    fn rsb_reverse_subtract() {
        let r = alu(
            DpOp::Rsb,
            3,
            ShifterResult {
                value: 10,
                carry: false,
            },
            psr(),
        );
        assert_eq!(r.value, Some(7));
    }

    #[test]
    fn logic_carry_from_shifter() {
        let sh = ShifterResult {
            value: 0xf0,
            carry: true,
        };
        let r = alu(DpOp::And, 0xff, sh, psr());
        assert_eq!(r.value, Some(0xf0));
        assert!(r.c);
    }

    #[test]
    fn shifts_basic() {
        assert_eq!(shift_value(1, Shift::Lsl, 4, false).value, 16);
        assert_eq!(shift_value(0x80, Shift::Lsr, 4, false).value, 8);
        assert_eq!(
            shift_value(0x8000_0000, Shift::Asr, 4, false).value,
            0xf800_0000
        );
        assert_eq!(
            shift_value(0x0000_00ff, Shift::Ror, 8, false).value,
            0xff00_0000
        );
    }

    #[test]
    fn shift_amount_zero_semantics() {
        // LSL #0: identity, carry preserved.
        let r = shift_value(5, Shift::Lsl, 0, true);
        assert_eq!((r.value, r.carry), (5, true));
        // LSR #0 encodes LSR #32.
        let r = shift_value(0x8000_0001, Shift::Lsr, 0, false);
        assert_eq!((r.value, r.carry), (0, true));
        // ASR #0 encodes ASR #32.
        let r = shift_value(0x8000_0000, Shift::Asr, 0, false);
        assert_eq!((r.value, r.carry), (0xffff_ffff, true));
    }

    #[test]
    fn shift_carry_out() {
        // LSL by 1 of a value with the top bit set carries out.
        assert!(shift_value(0x8000_0000, Shift::Lsl, 1, false).carry);
        assert!(!shift_value(0x4000_0000, Shift::Lsl, 1, false).carry);
        // LSR by 1 of an odd value carries out.
        assert!(shift_value(1, Shift::Lsr, 1, false).carry);
    }

    #[test]
    fn eval_op2_rotated_imm_carry() {
        // Rotated immediate with high bit set produces carry.
        let r = eval_op2(Op2::Imm { imm8: 0xff, rot: 4 }, false, |_| 0);
        assert_eq!(r.value, 0xff00_0000);
        assert!(r.carry);
        // Unrotated immediate preserves carry-in.
        let r = eval_op2(Op2::imm(1), true, |_| 0);
        assert!(r.carry);
    }

    #[test]
    fn eval_op2_register() {
        let r = eval_op2(Op2::reg(Reg::R(3)), false, |r| {
            if r == Reg::R(3) {
                42
            } else {
                0
            }
        });
        assert_eq!(r.value, 42);
    }

    proptest::proptest! {
        #[test]
        fn prop_ror_matches_rotate(v in proptest::prelude::any::<u32>(), a in 1u8..32) {
            proptest::prop_assert_eq!(shift_value(v, Shift::Ror, a, false).value, v.rotate_right(a as u32));
        }

        #[test]
        fn prop_sub_matches_wrapping(a in proptest::prelude::any::<u32>(), b in proptest::prelude::any::<u32>()) {
            let r = alu(DpOp::Sub, a, ShifterResult { value: b, carry: false }, Psr::user());
            proptest::prop_assert_eq!(r.value, Some(a.wrapping_sub(b)));
            // C set iff no borrow.
            proptest::prop_assert_eq!(r.c, a >= b);
        }
    }
}
