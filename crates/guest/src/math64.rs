//! 64-bit modular arithmetic in guest (simulated ARM) code.
//!
//! The remote-attestation enclave ([`crate::ra`]) signs quotes with
//! Schnorr over a 61-bit group (`komodo_crypto::schnorr`); its modular
//! exponentiations run *inside the enclave*, instruction by instruction.
//! The 32-bit ISA has no 64-bit multiply, so multiplication is the
//! overflow-free Russian-peasant form: `a·b mod m` as 64 conditional
//! modular additions — each intermediate stays below `2m < 2^62` and fits
//! a register pair with a single carry.
//!
//! Register conventions (double-words are little-endian pairs `lo, hi`):
//!
//! - `modmul`: `A` in `R0:R1`, `B` in `R2:R3`, modulus `M` in `R4:R5`
//!   (with `A < M < 2^61`); result in `R0:R1`. Clobbers `R2,R3,R6–R8,R12`;
//!   preserves `R4,R5,R9–R11`, `SP`, `LR`. Leaf.
//! - `modexp`: base in `R0:R1` (`< M`), exponent in `R2:R3`, `M` in
//!   `R4:R5`; result in `R0:R1`. Preserves `R4,R5,R11`, `SP`. Calls
//!   `modmul`; needs a few words of stack.

use komodo_armv7::asm::Label;
use komodo_armv7::insn::{Cond, DpOp, Op2, Shift};
use komodo_armv7::regs::Reg;
use komodo_armv7::Assembler;

const R0: Reg = Reg::R(0);
const R1: Reg = Reg::R(1);
const R2: Reg = Reg::R(2);
const R3: Reg = Reg::R(3);
const R4: Reg = Reg::R(4);
const R5: Reg = Reg::R(5);
const R6: Reg = Reg::R(6);
const R7: Reg = Reg::R(7);
const R8: Reg = Reg::R(8);
const R9: Reg = Reg::R(9);
const R10: Reg = Reg::R(10);
const R12: Reg = Reg::R(12);

/// Entry points of the emitted routines.
#[derive(Clone, Copy, Debug)]
pub struct Math64 {
    /// `(A·B) mod M`.
    pub modmul: Label,
    /// `base^exp mod M`.
    pub modexp: Label,
}

/// Emits `if (lo,hi) >= (R4,R5) then (lo,hi) -= (R4,R5)`.
fn emit_reduce(a: &mut Assembler, lo: Reg, hi: Reg) {
    a.cmp_reg(hi, R5);
    let skip1 = a.b_fixup(Cond::Cc); // hi < M.hi → already reduced.
    let dosub = a.b_fixup(Cond::Hi); // hi > M.hi → subtract.
    a.cmp_reg(lo, R4); // High words equal: compare low.
    let skip2 = a.b_fixup(Cond::Cc);
    let sub_at = a.here();
    a.fix_branch(dosub, sub_at);
    a.dp(DpOp::Sub, true, lo, lo, Op2::reg(R4)); // SUBS.
    a.dp(DpOp::Sbc, false, hi, hi, Op2::reg(R5)); // SBC.
    let out = a.here();
    a.fix_branch(skip1, out);
    a.fix_branch(skip2, out);
}

/// Emits `(lo,hi) >>= 1` across the pair.
fn emit_shr1(a: &mut Assembler, lo: Reg, hi: Reg) {
    a.lsr_imm(lo, lo, 1);
    a.dp(
        DpOp::Orr,
        false,
        lo,
        lo,
        Op2::Reg {
            rm: hi,
            shift: Shift::Lsl,
            amount: 31,
        },
    );
    a.lsr_imm(hi, hi, 1);
}

fn emit_modmul(a: &mut Assembler) -> Label {
    let entry = a.here();
    a.mov_imm(R6, 0); // acc = 0.
    a.mov_imm(R7, 0);
    let top = a.label();
    // while B != 0.
    a.dp(DpOp::Orr, true, R8, R2, Op2::reg(R3)); // ORRS.
    let done = a.b_fixup(Cond::Eq);
    // if B & 1: acc = (acc + A) mod M.
    a.dp(DpOp::Tst, true, R8, R2, Op2::imm(1));
    let skip_add = a.b_fixup(Cond::Eq);
    a.dp(DpOp::Add, true, R6, R6, Op2::reg(R0)); // ADDS.
    a.dp(DpOp::Adc, false, R7, R7, Op2::reg(R1));
    emit_reduce(a, R6, R7);
    let after_add = a.here();
    a.fix_branch(skip_add, after_add);
    // A = (A + A) mod M.
    a.dp(DpOp::Add, true, R0, R0, Op2::reg(R0));
    a.dp(DpOp::Adc, false, R1, R1, Op2::reg(R1));
    emit_reduce(a, R0, R1);
    // B >>= 1.
    emit_shr1(a, R2, R3);
    a.b_to(Cond::Al, top);
    let out = a.here();
    a.fix_branch(done, out);
    a.mov_reg(R0, R6);
    a.mov_reg(R1, R7);
    a.bx(Reg::Lr);
    entry
}

fn emit_modexp(a: &mut Assembler, modmul: Label) -> Label {
    let entry = a.here();
    a.push(&[R9, R10, Reg::Lr]);
    // Stack frame: [sp+0..8) = base, [sp+8..16) = exp.
    a.push(&[R2, R3]); // Placeholder; becomes exp after the next push.
    a.push(&[R0, R1]); // base.
    a.mov_imm(R9, 1); // acc = 1.
    a.mov_imm(R10, 0);
    let top = a.label();
    // while exp != 0.
    a.ldr_imm(R8, Reg::Sp, 8);
    a.ldr_imm(R12, Reg::Sp, 12);
    a.dp(DpOp::Orr, true, R8, R8, Op2::reg(R12));
    let done = a.b_fixup(Cond::Eq);
    // if exp & 1: acc = modmul(acc, base).
    a.ldr_imm(R8, Reg::Sp, 8);
    a.dp(DpOp::Tst, true, R8, R8, Op2::imm(1));
    let skip = a.b_fixup(Cond::Eq);
    a.mov_reg(R0, R9);
    a.mov_reg(R1, R10);
    a.ldr_imm(R2, Reg::Sp, 0);
    a.ldr_imm(R3, Reg::Sp, 4);
    a.bl_to(Cond::Al, modmul);
    a.mov_reg(R9, R0);
    a.mov_reg(R10, R1);
    let after = a.here();
    a.fix_branch(skip, after);
    // base = modmul(base, base).
    a.ldr_imm(R0, Reg::Sp, 0);
    a.ldr_imm(R1, Reg::Sp, 4);
    a.mov_reg(R2, R0);
    a.mov_reg(R3, R1);
    a.bl_to(Cond::Al, modmul);
    a.str_imm(R0, Reg::Sp, 0);
    a.str_imm(R1, Reg::Sp, 4);
    // exp >>= 1.
    a.ldr_imm(R8, Reg::Sp, 8);
    a.ldr_imm(R12, Reg::Sp, 12);
    emit_shr1(a, R8, R12);
    a.str_imm(R8, Reg::Sp, 8);
    a.str_imm(R12, Reg::Sp, 12);
    a.b_to(Cond::Al, top);
    let out = a.here();
    a.fix_branch(done, out);
    a.mov_reg(R0, R9);
    a.mov_reg(R1, R10);
    a.add_imm(Reg::Sp, Reg::Sp, 16); // Drop base/exp.
    a.pop(&[R9, R10, Reg::Lr]);
    a.bx(Reg::Lr);
    entry
}

/// Emits both routines at the assembler's current position.
pub fn emit_math64(a: &mut Assembler) -> Math64 {
    let modmul = emit_modmul(a);
    let modexp = emit_modexp(a, modmul);
    Math64 { modmul, modexp }
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_armv7::mem::AccessAttrs;
    use komodo_armv7::mode::{Mode, World};
    use komodo_armv7::psr::Psr;
    use komodo_armv7::ptw::{l1_coarse_desc, l2_page_desc, PagePerms};
    use komodo_armv7::{ExitReason, Machine};
    use komodo_crypto::schnorr::{mul_mod, pow_mod, P, Q};
    use proptest::prelude::*;

    const CODE_VA: u32 = 0x8000;
    const RAM_VA: u32 = 0xa000;

    /// A machine about to run `routine(A, B)` with modulus `m` and stop at
    /// an `SVC`, in secure user mode.
    fn machine(routine_is_exp: bool, a_val: u64, b_val: u64, m_val: u64) -> Machine {
        let mut asm = Assembler::new(CODE_VA);
        let over = asm.b_fixup(Cond::Al);
        let math = emit_math64(&mut asm);
        let main = asm.here();
        asm.fix_branch(over, main);
        asm.mov_imm32(Reg::Sp, RAM_VA + 0x1000);
        asm.mov_imm32(R0, a_val as u32);
        asm.mov_imm32(R1, (a_val >> 32) as u32);
        asm.mov_imm32(R2, b_val as u32);
        asm.mov_imm32(R3, (b_val >> 32) as u32);
        asm.mov_imm32(R4, m_val as u32);
        asm.mov_imm32(R5, (m_val >> 32) as u32);
        asm.bl_to(
            Cond::Al,
            if routine_is_exp {
                math.modexp
            } else {
                math.modmul
            },
        );
        asm.svc(0);

        let mut m = Machine::new();
        m.mem.add_region(0x8000_0000, 0x10_0000, true);
        let ttbr0 = 0x8000_0000u32;
        let l2 = 0x8000_1000u32;
        m.mem
            .write(ttbr0, l1_coarse_desc(l2), AccessAttrs::MONITOR)
            .unwrap();
        // Two code pages (the routines are long) + one RAM page.
        for (i, pa) in [(8u32, 0x8000_2000u32), (9, 0x8000_3000)] {
            m.mem
                .write(
                    l2 + i * 4,
                    l2_page_desc(pa, PagePerms::RX, false),
                    AccessAttrs::MONITOR,
                )
                .unwrap();
        }
        m.mem
            .write(
                l2 + 10 * 4,
                l2_page_desc(0x8000_4000, PagePerms::RW, false),
                AccessAttrs::MONITOR,
            )
            .unwrap();
        m.mem.load_words(0x8000_2000, &asm.words()).unwrap();
        m.cp15.mmu_mut(World::Secure).ttbr0 = ttbr0;
        m.cp15.scr_ns = false;
        m.cpsr = Psr::user();
        m.pc = main.addr();
        m
    }

    /// The `R0:R1` result.
    fn result(m: &Machine) -> u64 {
        (m.regs.get(Mode::User, R1) as u64) << 32 | m.regs.get(Mode::User, R0) as u64
    }

    /// Runs `routine(A, B)` with modulus `m` on the machine and returns
    /// the `R0:R1` result.
    fn run(routine_is_exp: bool, a_val: u64, b_val: u64, m_val: u64) -> u64 {
        let mut m = machine(routine_is_exp, a_val, b_val, m_val);
        let exit = m.run_user(50_000_000).unwrap();
        assert_eq!(exit, ExitReason::Svc { imm24: 0 }, "guest crashed");
        result(&m)
    }

    #[test]
    fn modmul_matches_host() {
        for (a, b) in [
            (0u64, 0u64),
            (1, 1),
            (P - 1, P - 1),
            (0x1234_5678_9abc_def0 % P, 0x0fed_cba9_8765_4321),
            (Q, 3),
        ] {
            assert_eq!(
                run(false, a % P, b, P),
                mul_mod(a % P, b, P),
                "a={a:#x} b={b:#x}"
            );
        }
    }

    #[test]
    fn modexp_matches_host() {
        for (b, e) in [(25u64, 3u64), (25, Q - 1), (2, 61), (P - 1, 2), (7, 0)] {
            assert_eq!(run(true, b, e, P), pow_mod(b, e, P), "b={b} e={e:#x}");
        }
    }

    /// `modexp` resumed with `run_user(budget)` until its `SVC`, for every
    /// budget from 1 to 40 (one `modmul` iteration is about 25 steps), on
    /// the compiled tier and on the uncached interpreter. The budgets cut
    /// its compiled traces at every offset: inside blocks, right before
    /// and after side exits, and between linked hops. Both tiers must
    /// return the host's result and agree on every register and flag,
    /// the cycle count, the TLB and memory counters, and the whole
    /// machine. A base of `M - 2` keeps the accumulator large, so the
    /// reductions' subtracting paths run too.
    #[test]
    fn modexp_under_step_budgets_matches_the_interpreter() {
        for m_val in [65_521u64, 4_294_967_311, P] {
            let (b, e) = (m_val - 2, 5);
            for budget in 1..=40u64 {
                let run = |accel: bool| {
                    let mut m = machine(true, b, e, m_val);
                    m.set_fetch_accel(accel);
                    while m.run_user(budget).unwrap() == ExitReason::StepLimit {}
                    assert_eq!(m.cpsr.mode, Mode::Supervisor, "budget {budget}");
                    m
                };
                let (on, off) = (run(true), run(false));
                let at = format!("M={m_val} budget {budget}");
                assert_eq!(result(&on), pow_mod(b, e, m_val), "{at}");
                assert_eq!(on.regs, off.regs, "{at}: registers");
                assert_eq!(on.cpsr, off.cpsr, "{at}: flags");
                assert_eq!(on.cycles, off.cycles, "{at}: cycles");
                assert_eq!(
                    (on.tlb.hits, on.tlb.misses),
                    (off.tlb.hits, off.tlb.misses),
                    "{at}: TLB"
                );
                assert_eq!(
                    (on.mem.reads, on.mem.writes),
                    (off.mem.reads, off.mem.writes),
                    "{at}: memory"
                );
                assert!(on == off, "{at}: machines differ");
                if budget == 40 {
                    let s = on.superblock_stats();
                    assert!(s.uop_linked > 0, "{at}: never hopped ({s:?})");
                }
            }
        }
    }

    #[test]
    fn modmul_mod_q_matches_host() {
        assert_eq!(run(false, Q - 1, Q - 1, Q), mul_mod(Q - 1, Q - 1, Q));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn prop_guest_modmul_matches_host(a in 0u64..P, b in 0u64..P) {
            prop_assert_eq!(run(false, a, b, P), mul_mod(a, b, P));
        }

        #[test]
        fn prop_guest_modexp_matches_host(b in 1u64..P, e in 0u64..(1u64 << 59)) {
            prop_assert_eq!(run(true, b, e, P), pow_mod(b, e, P));
        }
    }
}
