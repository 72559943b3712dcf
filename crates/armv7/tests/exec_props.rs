//! Property tests for the user-mode executor.
//!
//! The machine model is the trusted base of everything above it (the
//! paper's §5.1 model is *trusted*, not verified); these properties are
//! the closest executable substitute for its review:
//!
//! - data-processing semantics agree with an independent oracle,
//! - arbitrary code (including garbage) never wedges the machine — every
//!   run ends in a well-defined exception state,
//! - execution is *deterministic under preemption*: interrupting a
//!   computation at any point and resuming it reaches exactly the same
//!   final state.

use komodo_armv7::insn::{Cond, DpOp, MemOffset, Op2, Shift};
use komodo_armv7::mem::AccessAttrs;
use komodo_armv7::mode::{Mode, World};
use komodo_armv7::psr::Psr;
use komodo_armv7::ptw::{l1_coarse_desc, l2_page_desc, PagePerms};
use komodo_armv7::regs::Reg;
use komodo_armv7::{Assembler, ExitReason, Insn, Machine, SbStats};
use proptest::prelude::*;

const CODE_VA: u32 = 0x8000;
const DATA_VA: u32 = 0x9000;
/// The physical pages `CODE_VA` and `DATA_VA` map to at start (index 0),
/// and the second page of each that the remap tests re-point them at.
const CODE_PAS: [u32; 2] = [0x8000_2000, 0x8000_4000];
const DATA_PAS: [u32; 2] = [0x8000_3000, 0x8000_5000];
/// The L2 descriptors of `CODE_VA` and `DATA_VA`.
const CODE_PTE: u32 = 0x8000_1000 + 8 * 4;
const DATA_PTE: u32 = 0x8000_1000 + 9 * 4;

/// Points the L2 descriptor `pte` at `pa` with `perms`, the way the
/// monitor changes a mapping: the page-table store is noted and the TLB
/// flushed. Stores into no code page, so no code-generation bump fires.
fn remap(m: &mut Machine, pte: u32, pa: u32, perms: PagePerms) {
    m.mem
        .write(pte, l2_page_desc(pa, perms, false), AccessAttrs::MONITOR)
        .unwrap();
    m.note_pagetable_store();
    m.tlb_flush();
}

/// A machine with one RX code page and one RW data page, user mode.
fn machine_with(code: &[u32]) -> Machine {
    let mut m = Machine::new();
    m.mem.add_region(0x8000_0000, 0x10_0000, true);
    let ttbr0 = 0x8000_0000u32;
    let l2 = 0x8000_1000u32;
    m.mem
        .write(ttbr0, l1_coarse_desc(l2), AccessAttrs::MONITOR)
        .unwrap();
    m.mem
        .write(
            l2 + 8 * 4,
            l2_page_desc(0x8000_2000, PagePerms::RX, false),
            AccessAttrs::MONITOR,
        )
        .unwrap();
    m.mem
        .write(
            l2 + 9 * 4,
            l2_page_desc(0x8000_3000, PagePerms::RW, false),
            AccessAttrs::MONITOR,
        )
        .unwrap();
    m.mem.load_words(0x8000_2000, code).unwrap();
    m.cp15.mmu_mut(World::Secure).ttbr0 = ttbr0;
    m.cp15.scr_ns = false;
    m.cpsr = Psr::user();
    m.pc = CODE_VA;
    m
}

fn arb_dp() -> impl Strategy<Value = Insn> {
    (
        prop_oneof![
            Just(DpOp::And),
            Just(DpOp::Eor),
            Just(DpOp::Sub),
            Just(DpOp::Rsb),
            Just(DpOp::Add),
            Just(DpOp::Orr),
            Just(DpOp::Mov),
            Just(DpOp::Bic),
            Just(DpOp::Mvn),
        ],
        0u8..8,
        0u8..8,
        prop_oneof![
            any::<u8>().prop_map(Op2::imm),
            (0u8..8, 0u32..4, 1u8..32).prop_map(|(rm, sh, amount)| Op2::Reg {
                rm: Reg::R(rm),
                shift: Shift::from_bits(sh),
                amount,
            }),
        ],
    )
        .prop_map(|(op, rd, rn, op2)| Insn::Dp {
            cond: Cond::Al,
            op,
            s: false,
            rd: Reg::R(rd),
            rn: Reg::R(rn),
            op2,
        })
}

/// Single-register loads/stores in every decodable shape: word/byte,
/// immediate/register offset, add/subtract. Bases are drawn from `R8`
/// (data page), `R9` (data page middle) and `R10` (an arbitrary wild
/// pointer seeded by the test), so the same strategy yields data-TLB
/// hits, cross-page misses, code-page write refusals and outright aborts.
fn arb_mem() -> impl Strategy<Value = Insn> {
    (
        any::<bool>(), // load vs store
        any::<bool>(), // byte vs word
        0u8..8,        // rd
        // Biased toward the mapped bases; repeated arms stand in for
        // weights (the vendored proptest has no weighted oneof).
        prop_oneof![
            Just(8u8),
            Just(8u8),
            Just(8u8),
            Just(9u8),
            Just(9u8),
            Just(10u8)
        ],
        prop_oneof![
            (0u16..0x200, any::<bool>()).prop_map(|(imm12, add)| MemOffset::Imm { imm12, add }),
            (0u8..8, any::<bool>()).prop_map(|(rm, add)| MemOffset::Reg {
                rm: Reg::R(rm),
                add,
            }),
        ],
    )
        .prop_map(|(load, byte, rd, rn, off)| {
            if load {
                Insn::Ldr {
                    cond: Cond::Al,
                    rd: Reg::R(rd),
                    rn: Reg::R(rn),
                    off,
                    byte,
                }
            } else {
                Insn::Str {
                    cond: Cond::Al,
                    rd: Reg::R(rd),
                    rn: Reg::R(rn),
                    off,
                    byte,
                }
            }
        })
}

/// A mix biased toward memory traffic, so generated programs form
/// memory-inclusive superblocks rather than pure ALU traces.
fn arb_mem_or_dp() -> impl Strategy<Value = Insn> {
    prop_oneof![
        arb_mem().boxed(),
        arb_mem().boxed(),
        arb_dp().boxed(),
        arb_dp().boxed(),
        arb_dp().boxed()
    ]
}

/// Oracle: evaluate a non-flag-setting DP instruction over a register
/// array, independently of the machine's ALU code paths.
fn oracle_step(regs: &mut [u32; 8], insn: &Insn) {
    let Insn::Dp {
        op, rd, rn, op2, ..
    } = insn
    else {
        unreachable!()
    };
    let rv = |r: Reg| regs[r.index() as usize];
    let op2v = match *op2 {
        Op2::Imm { imm8, rot } => (imm8 as u32).rotate_right(2 * rot as u32),
        Op2::Reg { rm, shift, amount } => {
            let v = rv(rm);
            let a = amount as u32;
            match shift {
                Shift::Lsl => v << a,
                Shift::Lsr => v >> a,
                Shift::Asr => ((v as i32) >> a) as u32,
                Shift::Ror => v.rotate_right(a),
            }
        }
    };
    let n = rv(*rn);
    let res = match op {
        DpOp::And => n & op2v,
        DpOp::Eor => n ^ op2v,
        DpOp::Sub => n.wrapping_sub(op2v),
        DpOp::Rsb => op2v.wrapping_sub(n),
        DpOp::Add => n.wrapping_add(op2v),
        DpOp::Orr => n | op2v,
        DpOp::Mov => op2v,
        DpOp::Bic => n & !op2v,
        DpOp::Mvn => !op2v,
        _ => unreachable!(),
    };
    regs[rd.index() as usize] = res;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequences of data-processing instructions compute exactly what the
    /// independent oracle computes.
    #[test]
    fn prop_dataproc_matches_oracle(
        insns in proptest::collection::vec(arb_dp(), 1..40),
        init in proptest::array::uniform8(any::<u32>()),
    ) {
        let mut a = Assembler::new(CODE_VA);
        for i in &insns {
            a.emit(*i);
        }
        a.svc(0);
        let mut m = machine_with(&a.words());
        for (i, v) in init.iter().enumerate() {
            m.regs.set(Mode::User, Reg::R(i as u8), *v);
        }
        let exit = m.run_user(10_000).unwrap();
        prop_assert_eq!(exit, ExitReason::Svc { imm24: 0 });

        let mut oracle = init;
        for i in &insns {
            oracle_step(&mut oracle, i);
        }
        for (i, v) in oracle.iter().enumerate() {
            prop_assert_eq!(m.regs.get(Mode::User, Reg::R(i as u8)), *v, "r{}", i);
        }
    }

    /// Arbitrary words as code never panic the machine; execution always
    /// ends in a well-defined state (an exception mode or still-user on
    /// step limit), with the TLB still consistent.
    #[test]
    fn prop_garbage_code_cannot_wedge_the_machine(
        code in proptest::collection::vec(any::<u32>(), 1..64),
        init in proptest::array::uniform8(any::<u32>()),
    ) {
        let mut m = machine_with(&code);
        for (i, v) in init.iter().enumerate() {
            m.regs.set(Mode::User, Reg::R(i as u8), *v);
        }
        let exit = m.run_user(2_000).unwrap();
        match exit {
            ExitReason::StepLimit => prop_assert_eq!(m.cpsr.mode, Mode::User),
            ExitReason::Svc { .. } => prop_assert_eq!(m.cpsr.mode, Mode::Supervisor),
            ExitReason::Irq => prop_assert_eq!(m.cpsr.mode, Mode::Irq),
            ExitReason::Fiq => prop_assert_eq!(m.cpsr.mode, Mode::Fiq),
            ExitReason::Undefined(_) => prop_assert_eq!(m.cpsr.mode, Mode::Undefined),
            ExitReason::DataAbort(_) | ExitReason::PrefetchAbort(_) => {
                prop_assert_eq!(m.cpsr.mode, Mode::Abort)
            }
        }
        prop_assert!(m.tlb.is_consistent());
    }

    /// Determinism under preemption: interrupting at an arbitrary cycle
    /// and resuming reaches the same final registers, memory, and exit as
    /// the uninterrupted run.
    #[test]
    fn prop_interrupt_resume_is_transparent(
        seed_vals in proptest::array::uniform4(any::<u32>()),
        irq_after in 1u64..400,
    ) {
        // A compute kernel: mixes registers and memory for ~100 insns.
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm32(Reg::R(8), DATA_VA);
        a.mov_imm(Reg::R(7), 20);
        let top = a.label();
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.eor_ror(Reg::R(1), Reg::R(1), Reg::R(2), 7);
        a.mul(Reg::R(2), Reg::R(3), Reg::R(0));
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.ldr_imm(Reg::R(3), Reg::R(8), 0);
        a.add_imm(Reg::R(8), Reg::R(8), 4);
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();

        let setup = |m: &mut Machine| {
            for (i, v) in seed_vals.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
        };

        // Reference: uninterrupted.
        let mut m1 = machine_with(&code);
        setup(&mut m1);
        let exit1 = m1.run_user(100_000).unwrap();
        prop_assert_eq!(exit1, ExitReason::Svc { imm24: 0 });

        // Preempted at `irq_after` cycles, then resumed (the way the
        // monitor does it: exception return from IRQ mode).
        let mut m2 = machine_with(&code);
        setup(&mut m2);
        m2.irq_at = Some(m2.cycles + irq_after);
        loop {
            match m2.run_user(100_000).unwrap() {
                ExitReason::Svc { .. } => break,
                ExitReason::Irq => {
                    m2.irq_at = None;
                    m2.exception_return().unwrap();
                }
                other => prop_assert!(false, "unexpected exit {other:?}"),
            }
        }
        for i in 0..13u8 {
            prop_assert_eq!(
                m1.regs.get(Mode::User, Reg::R(i)),
                m2.regs.get(Mode::User, Reg::R(i)),
                "r{} differs after preemption", i
            );
        }
        // Data page contents identical.
        let d1 = m1.mem.dump_words(0x8000_3000, 32).unwrap();
        let d2 = m2.mem.dump_words(0x8000_3000, 32).unwrap();
        prop_assert_eq!(d1, d2);
    }

    /// Flag-setting compares steer conditional branches exactly like a
    /// host-side comparison.
    #[test]
    fn prop_signed_unsigned_compare_branches(a_val in any::<u32>(), b_val in any::<u32>()) {
        // r2 = flags summary via conditional moves after CMP r0, r1:
        // bit0 eq, bit1 unsigned-lower, bit2 signed-less.
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm(Reg::R(2), 0);
        a.cmp_reg(Reg::R(0), Reg::R(1));
        for (bit, cond) in [(0u32, Cond::Eq), (1, Cond::Cc), (2, Cond::Lt)] {
            a.emit(Insn::Dp {
                cond,
                op: DpOp::Orr,
                s: false,
                rd: Reg::R(2),
                rn: Reg::R(2),
                op2: Op2::imm(1 << bit),
            });
            // Re-establish flags (ORR with s=false leaves them, but be
            // explicit for clarity).
            a.cmp_reg(Reg::R(0), Reg::R(1));
        }
        a.svc(0);
        let mut m = machine_with(&a.words());
        m.regs.set(Mode::User, Reg::R(0), a_val);
        m.regs.set(Mode::User, Reg::R(1), b_val);
        m.run_user(1000).unwrap();
        let got = m.regs.get(Mode::User, Reg::R(2));
        let want = (a_val == b_val) as u32
            | (((a_val < b_val) as u32) << 1)
            | ((((a_val as i32) < (b_val as i32)) as u32) << 2);
        prop_assert_eq!(got, want, "a={:#x} b={:#x}", a_val, b_val);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cycle-model preservation, adversarially: for *arbitrary* code
    /// (including garbage that faults, branches wild, or self-traps), the
    /// compiled configuration and the uncached per-instruction
    /// interpreter yield bit-identical machines — registers, memory
    /// contents, access counters, TLB hit/miss/flush statistics, the
    /// cycle counter — and identical exits.
    #[test]
    fn prop_fetch_accel_is_architecturally_invisible(
        code in proptest::collection::vec(any::<u32>(), 1..64),
        init in proptest::array::uniform8(any::<u32>()),
        irq_after in 0u64..500,
    ) {
        let run = |accel: bool| {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            for (i, v) in init.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            if irq_after > 0 {
                m.irq_at = Some(m.cycles + irq_after);
            }
            let exit = m.run_user(2_000).unwrap();
            (m, exit)
        };
        let (on, exit_on) = run(true);
        let (off, exit_off) = run(false);
        prop_assert_eq!(exit_on, exit_off);
        prop_assert_eq!(on.cycles, off.cycles, "cycle model diverged");
        prop_assert_eq!(on.tlb.hits, off.tlb.hits, "TLB hit accounting diverged");
        prop_assert_eq!(on.tlb.misses, off.tlb.misses, "TLB miss accounting diverged");
        prop_assert_eq!(on.tlb.flushes, off.tlb.flushes);
        prop_assert_eq!(on.mem.reads, off.mem.reads, "read counter diverged");
        prop_assert_eq!(on.mem.writes, off.mem.writes, "write counter diverged");
        prop_assert!(on == off, "architectural state diverged");
    }

    /// Same invisibility property on a structured compute kernel with
    /// loops, memory traffic, and interrupt preemption/resume — the case
    /// where the accelerator's caches and compiled traces are actually
    /// hot.
    #[test]
    fn prop_fetch_accel_invisible_under_preemption(
        seed_vals in proptest::array::uniform4(any::<u32>()),
        irq_after in 1u64..400,
    ) {
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm32(Reg::R(8), DATA_VA);
        a.mov_imm(Reg::R(7), 20);
        let top = a.label();
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.eor_ror(Reg::R(1), Reg::R(1), Reg::R(2), 7);
        a.mul(Reg::R(2), Reg::R(3), Reg::R(0));
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.ldr_imm(Reg::R(3), Reg::R(8), 0);
        a.add_imm(Reg::R(8), Reg::R(8), 4);
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();

        let run = |accel: bool| -> Result<Machine, proptest::test_runner::TestCaseError> {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            for (i, v) in seed_vals.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            m.irq_at = Some(m.cycles + irq_after);
            loop {
                match m.run_user(100_000).unwrap() {
                    ExitReason::Svc { .. } => break,
                    ExitReason::Irq => {
                        m.irq_at = None;
                        m.exception_return().unwrap();
                    }
                    other => prop_assert!(false, "unexpected exit {:?}", other),
                }
            }
            Ok(m)
        };
        let on = run(true)?;
        let off = run(false)?;
        prop_assert!(on.accel.served() > 100, "accelerator never engaged");
        let s = on.superblock_stats();
        prop_assert!(s.hits > 0, "block engine never engaged");
        prop_assert!(s.uop_hits > 0, "hot loop never ran its compiled trace");
        prop_assert_eq!(off.accel.served(), 0, "accelerator ran while disabled");
        prop_assert_eq!(off.superblock_stats(), SbStats::default(), "engine ran while disabled");
        prop_assert_eq!(on.cycles, off.cycles);
        prop_assert_eq!(on.tlb.hits, off.tlb.hits);
        prop_assert_eq!(on.tlb.misses, off.tlb.misses);
        prop_assert!(on == off, "architectural state diverged");
    }

    /// Invisibility on *memory-heavy* programs: random mixes of
    /// single-register loads/stores (word and byte, immediate and
    /// register offsets, both directions) and ALU work, with bases that
    /// range from well-mapped data pages to wild pointers — so in-block
    /// data-TLB hits, misses, permission refusals and data aborts are all
    /// exercised, under interrupt preemption, with full machine equality
    /// (registers, cycles, TLB and memory statistics) asserted.
    #[test]
    fn prop_data_fast_path_is_architecturally_invisible(
        insns in proptest::collection::vec(arb_mem_or_dp(), 1..48),
        init in proptest::array::uniform8(any::<u32>()),
        wild in any::<u32>(),
        irq_after in 0u64..500,
    ) {
        let mut a = Assembler::new(CODE_VA);
        for i in &insns {
            a.emit(*i);
        }
        a.svc(0);
        let code = a.words();
        let run = |accel: bool| {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            for (i, v) in init.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            m.regs.set(Mode::User, Reg::R(8), DATA_VA);
            m.regs.set(Mode::User, Reg::R(9), DATA_VA + 0x800);
            m.regs.set(Mode::User, Reg::R(10), wild);
            if irq_after > 0 {
                m.irq_at = Some(m.cycles + irq_after);
            }
            let exit = m.run_user(2_000).unwrap();
            (m, exit)
        };
        let (on, exit_on) = run(true);
        let (off, exit_off) = run(false);
        prop_assert_eq!(exit_on, exit_off);
        prop_assert_eq!(on.cycles, off.cycles, "cycle model diverged");
        prop_assert_eq!(on.tlb.hits, off.tlb.hits, "TLB hit accounting diverged");
        prop_assert_eq!(on.tlb.misses, off.tlb.misses, "TLB miss accounting diverged");
        prop_assert_eq!(on.mem.reads, off.mem.reads, "read counter diverged");
        prop_assert_eq!(on.mem.writes, off.mem.writes, "write counter diverged");
        prop_assert!(on == off, "architectural state diverged");
    }

    /// A structured memory kernel — the shape the data-side fast path is
    /// built for — stays identical under preemption/resume, and the
    /// compiled configuration demonstrably serves its loads/stores from
    /// its trace's sites, refilled from the data-TLB.
    #[test]
    fn prop_memory_kernel_rides_the_dtlb_invisibly(
        seed_vals in proptest::array::uniform4(any::<u32>()),
        irq_after in 1u64..400,
    ) {
        let mut a = Assembler::new(CODE_VA);
        a.mov_imm32(Reg::R(8), DATA_VA);
        a.mov_imm(Reg::R(7), 25);
        let top = a.label();
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.ldr_imm(Reg::R(1), Reg::R(8), 0);
        a.strb_imm(Reg::R(1), Reg::R(8), 0x41);
        a.ldrb_imm(Reg::R(2), Reg::R(8), 0x41);
        a.add_imm(Reg::R(8), Reg::R(8), 4);
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();
        let run = |accel: bool| -> Result<Machine, proptest::test_runner::TestCaseError> {
            let mut m = machine_with(&code);
            m.set_fetch_accel(accel);
            for (i, v) in seed_vals.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            m.irq_at = Some(m.cycles + irq_after);
            loop {
                match m.run_user(100_000).unwrap() {
                    ExitReason::Svc { .. } => break,
                    ExitReason::Irq => {
                        m.irq_at = None;
                        m.exception_return().unwrap();
                    }
                    other => prop_assert!(false, "unexpected exit {:?}", other),
                }
            }
            Ok(m)
        };
        let on = run(true)?;
        let off = run(false)?;
        prop_assert!(
            on.superblock_stats().dtlb_hits > 0,
            "memory kernel's sites never refilled from the data-TLB"
        );
        prop_assert!(
            on.superblock_stats().uop_hits > 0,
            "memory kernel never ran its compiled trace"
        );
        prop_assert_eq!(off.superblock_stats().dtlb_hits, 0, "baseline touched the data-TLB");
        prop_assert_eq!(on.cycles, off.cycles);
        prop_assert_eq!(on.tlb.hits, off.tlb.hits);
        prop_assert_eq!(on.tlb.misses, off.tlb.misses);
        prop_assert_eq!(on.mem.reads, off.mem.reads);
        prop_assert_eq!(on.mem.writes, off.mem.writes);
        prop_assert!(on == off, "architectural state diverged");
    }

    /// Compiled traces under random invalidation causes. Each round runs
    /// the hot kernel from its compiled traces, then applies one randomly
    /// chosen cause — nothing, a TLB flush, a TTBR0 reload, a world
    /// round-trip, a store into the code page, or one of three remaps —
    /// and the final machines and exit sequences stay bit-identical to
    /// the interpreter's throughout.
    ///
    /// The remaps each write a page-table entry, note the page-table
    /// store and flush, and none stores into a code page, so only the
    /// translation-epoch checks stand between kept blocks and a stale
    /// mapping: cause 5 re-points `CODE_VA` at the other of two physical
    /// pages holding different kernels, cause 6 re-points `DATA_VA` at
    /// the other of two data pages with different contents, and cause 7
    /// remaps the current code page without execute permission, after
    /// which every tier must prefetch-abort at the same state (until a
    /// cause 5 maps code again).
    #[test]
    fn prop_compiled_traces_survive_random_invalidations(
        seed_vals in proptest::array::uniform4(any::<u32>()),
        causes in proptest::collection::vec(0u8..8, 1..12),
    ) {
        let kernel = |alt: bool| {
            let mut a = Assembler::new(CODE_VA);
            a.mov_imm32(Reg::R(8), DATA_VA);
            a.mov_imm(Reg::R(7), 12);
            let top = a.label();
            a.ldr_imm(Reg::R(2), Reg::R(8), 0);
            if alt {
                a.sub_reg(Reg::R(0), Reg::R(0), Reg::R(2));
            } else {
                a.add_reg(Reg::R(0), Reg::R(0), Reg::R(2));
            }
            a.str_imm(Reg::R(0), Reg::R(8), 4);
            a.eor_ror(Reg::R(1), Reg::R(1), Reg::R(0), if alt { 11 } else { 5 });
            a.subs_imm(Reg::R(7), Reg::R(7), 1);
            a.b_to(Cond::Ne, top);
            a.svc(0);
            a.words()
        };
        let kernels = [kernel(false), kernel(true)];
        let run = |accel: bool|
         -> Result<(Machine, Vec<ExitReason>), proptest::test_runner::TestCaseError> {
            let mut m = machine_with(&kernels[0]);
            m.mem.load_words(CODE_PAS[1], &kernels[1]).unwrap();
            m.mem
                .load_words(DATA_PAS[1], &[0x0bad_cafe, 0x1234_5678])
                .unwrap();
            m.set_fetch_accel(accel);
            for (i, v) in seed_vals.iter().enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            // Which code and data page the VAs map to, and whether code
            // is executable.
            let (mut code, mut data, mut exec) = (0usize, 0usize, true);
            let mut exits = Vec::new();
            for &cause in &causes {
                m.pc = CODE_VA;
                m.cpsr = Psr::user();
                let exit = m.run_user(100_000).unwrap();
                let want = if exec {
                    ExitReason::Svc { imm24: 0 }
                } else {
                    ExitReason::PrefetchAbort(CODE_VA)
                };
                prop_assert_eq!(exit, want);
                exits.push(exit);
                match cause {
                    0 => {}
                    1 => m.tlb_flush(),
                    2 => {
                        // A TTBR0 reload leaves the TLB inconsistent until
                        // flushed (the paper's discipline), so pair them.
                        let ttbr0 = m.cp15.mmu(World::Secure).ttbr0;
                        m.load_ttbr0(ttbr0);
                        m.tlb_flush();
                    }
                    3 => {
                        m.set_scr_ns(true);
                        m.set_scr_ns(false);
                    }
                    4 => {
                        // Host-side store into the (watched) code page: the
                        // write-watch generation bump must drop decodes,
                        // blocks and their traces alike. The word is the
                        // one already at offset 3 (the loop's ALU op), so
                        // the program's behaviour is unchanged.
                        m.mem
                            .write(CODE_PAS[code] + 3 * 4, kernels[code][3], AccessAttrs::MONITOR)
                            .unwrap();
                    }
                    5 => {
                        code ^= 1;
                        exec = true;
                        remap(&mut m, CODE_PTE, CODE_PAS[code], PagePerms::RX);
                    }
                    6 => {
                        data ^= 1;
                        remap(&mut m, DATA_PTE, DATA_PAS[data], PagePerms::RW);
                    }
                    7 => {
                        exec = false;
                        remap(&mut m, CODE_PTE, CODE_PAS[code], PagePerms::RW);
                    }
                    _ => unreachable!(),
                }
            }
            Ok((m, exits))
        };
        let (on, exits_on) = run(true)?;
        let (off, exits_off) = run(false)?;
        prop_assert!(on.superblock_stats().uop_hits > 0, "hot kernel never ran compiled");
        prop_assert_eq!(&exits_on, &exits_off, "exit sequence diverged");
        prop_assert_eq!(on.cycles, off.cycles, "cycle model diverged");
        prop_assert_eq!(on.tlb.hits, off.tlb.hits, "TLB accounting diverged");
        prop_assert_eq!(on.mem.reads, off.mem.reads, "read counter diverged");
        prop_assert_eq!(on.mem.writes, off.mem.writes, "write counter diverged");
        prop_assert!(on == off, "architectural state diverged");
    }
}

/// Splitmix64 step: a local generator, so one drawn seed shapes a whole
/// kernel.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

/// A work register for generated kernels: `r0`-`r5` (`r6` accumulates
/// the branchy kernels' flag reads, `r7` and `r9` count loop iterations,
/// `r8` holds the data-page base, `lr` the leaf's return).
fn work_reg(state: &mut u64) -> Reg {
    Reg::R(pick(state, 6) as u8)
}

/// A random condition: mostly `AL`, otherwise any of the fourteen tests.
fn maybe_cond(state: &mut u64) -> Cond {
    if pick(state, 4) == 0 {
        Cond::from_bits(pick(state, 14) as u32).unwrap()
    } else {
        Cond::Al
    }
}

fn rand_op2(state: &mut u64) -> Op2 {
    if pick(state, 2) == 0 {
        Op2::Imm {
            imm8: pick(state, 256) as u8,
            rot: pick(state, 16) as u8,
        }
    } else {
        Op2::Reg {
            rm: work_reg(state),
            shift: Shift::from_bits(pick(state, 4) as u32),
            amount: pick(state, 32) as u8,
        }
    }
}

/// Any data-processing instruction over the work registers, flag-setting
/// or not, conditional or not (compares always set flags).
fn emit_alu(a: &mut Assembler, state: &mut u64) {
    let op = DpOp::from_bits(pick(state, 16) as u32);
    let compare = matches!(op, DpOp::Tst | DpOp::Teq | DpOp::Cmp | DpOp::Cmn);
    a.emit(Insn::Dp {
        cond: maybe_cond(state),
        op,
        s: compare || pick(state, 3) == 0,
        rd: if compare { Reg::R(0) } else { work_reg(state) },
        rn: work_reg(state),
        op2: rand_op2(state),
    });
}

/// An unconditional flag-setter whose NZCV the following branch reads.
fn emit_flag_setter(a: &mut Assembler, state: &mut u64) {
    let op = [DpOp::Cmp, DpOp::Cmn, DpOp::Tst, DpOp::Sub, DpOp::Adc][pick(state, 5) as usize];
    let compare = matches!(op, DpOp::Cmp | DpOp::Cmn | DpOp::Tst);
    a.dp(
        op,
        true,
        if compare { Reg::R(0) } else { work_reg(state) },
        work_reg(state),
        rand_op2(state),
    );
}

/// ALU work with the occasional multiply or data-page load/store.
fn emit_work(a: &mut Assembler, state: &mut u64) {
    match pick(state, 6) {
        0 => a.mul(work_reg(state), work_reg(state), work_reg(state)),
        1 => {
            let off = 4 * pick(state, 64) as u16;
            if pick(state, 2) == 0 {
                a.ldr_imm(work_reg(state), Reg::R(8), off);
            } else {
                a.str_imm(work_reg(state), Reg::R(8), off);
            }
        }
        _ => emit_alu(a, state),
    }
}

/// A flag-setter that writes all four flags: `cmp` or `adds`.
fn emit_full_setter(a: &mut Assembler, state: &mut u64) {
    let op = [DpOp::Cmp, DpOp::Add][pick(state, 2) as usize];
    let rd = if op == DpOp::Cmp {
        Reg::R(0)
    } else {
        work_reg(state)
    };
    a.dp(op, true, rd, work_reg(state), rand_op2(state));
}

fn any_branch_cond(state: &mut u64) -> Cond {
    Cond::from_bits(pick(state, 15) as u32).unwrap()
}

/// A random branchy loop kernel whose iterations pass through several
/// traces, leaving them by side exits and ending branches — the shape
/// linked chaining exists for:
///
/// ```text
///         mov r7, #iters ; movw r8, #DATA_VA
/// top:    one of the segments below, in random order:
///           skip:    <setter> ; b<c> 1f ; <alu>{0..3} ; 1:
///                                        (a forward skip inside a block)
///           diamond: <setter> ; b<c> 2f ; b<c> 1f ; <alu>{0..2} ;
///                    1: <alu>{1..2} ; 2:      (consecutive branches)
///           call:    bl leaf
///           ladder:  <setter> ; 7-9 rungs of [<setter>] ; b<c> Nf ;
///                    <alu>{0..1}, each Nf some later rung's end
///                    (more side exits than one block holds)
///           handoff: <cmp|adds> ; <tst|teq> rN, #imm8 ; b<eq|ne|mi|pl> 1f ;
///                    <cmp|adds> ; <alu>{0..2} ;
///                    1: <adc r6|add<cs|cc|vs|vc> r6>
///                    (C and V only the taken side exit observes)
///           work:    <alu|mul|ldr|str>{1..4}
///           inner:   mov r9, #n ; 1: <alu|mul|ldr|str>{1..3} ;
///                    subs r9, r9, #1 ; bne 1b ; <alu>{0..2}
///                    (a side exit back to its own block's entry)
///         subs r7, r7, #1 ; bne top              conditional back-edge
///         svc #0
/// leaf:   <alu|mul|ldr|str>{1..4} ; bx lr
/// ```
fn branchy_kernel(seed: u64) -> Vec<u32> {
    let mut st = seed;
    let st = &mut st;
    let mut a = Assembler::new(CODE_VA);
    a.mov_imm(Reg::R(7), 6 + pick(st, 15) as u32);
    a.mov_imm32(Reg::R(8), DATA_VA);
    let top = a.label();
    // Every kernel has a skip, a diamond, a call, a ladder and a
    // handoff; 0-3 extra segments.
    let mut segs = vec![0u64, 1, 2, 3, 4];
    for _ in 0..pick(st, 4) {
        segs.push(pick(st, 7));
    }
    for i in (1..segs.len()).rev() {
        segs.swap(i, pick(st, i as u64 + 1) as usize);
    }
    let mut calls = Vec::new();
    for seg in segs {
        match seg {
            0 => {
                emit_flag_setter(&mut a, st);
                let fwd = a.b_fixup(any_branch_cond(st));
                for _ in 0..pick(st, 4) {
                    emit_work(&mut a, st);
                }
                let here = a.here();
                a.fix_branch(fwd, here);
            }
            1 => {
                emit_flag_setter(&mut a, st);
                let out = a.b_fixup(any_branch_cond(st));
                let mid = a.b_fixup(any_branch_cond(st));
                for _ in 0..pick(st, 3) {
                    emit_work(&mut a, st);
                }
                let here = a.here();
                a.fix_branch(mid, here);
                for _ in 0..1 + pick(st, 2) {
                    emit_work(&mut a, st);
                }
                let here = a.here();
                a.fix_branch(out, here);
            }
            2 => calls.push(a.bl_fixup(Cond::Al)),
            3 => {
                emit_flag_setter(&mut a, st);
                let mut open = Vec::new();
                for _ in 0..7 + pick(st, 3) {
                    if pick(st, 3) == 0 {
                        emit_flag_setter(&mut a, st);
                    }
                    open.push(a.b_fixup(Cond::from_bits(pick(st, 14) as u32).unwrap()));
                    if pick(st, 2) == 0 {
                        emit_alu(&mut a, st);
                    }
                    let here = a.here();
                    open.retain(|&b| {
                        let land = pick(st, 2) == 0;
                        if land {
                            a.fix_branch(b, here);
                        }
                        !land
                    });
                }
                let here = a.here();
                for b in open {
                    a.fix_branch(b, here);
                }
            }
            4 => {
                // The unrotated `tst`/`teq` writes only N and Z, and the
                // exit reads only one of them, so the first setter's C
                // and V reach the exit's target, whose first instruction
                // reads them; the fall-through overwrites all four flags
                // before anything else observes them. `r6` is written
                // nowhere else, so a wrong C or V persists to the end.
                emit_full_setter(&mut a, st);
                let op = [DpOp::Tst, DpOp::Teq][pick(st, 2) as usize];
                let imm8 = pick(st, 256) as u8;
                a.dp(op, true, Reg::R(0), work_reg(st), Op2::Imm { imm8, rot: 0 });
                let exit =
                    a.b_fixup([Cond::Eq, Cond::Ne, Cond::Mi, Cond::Pl][pick(st, 4) as usize]);
                emit_full_setter(&mut a, st);
                for _ in 0..pick(st, 3) {
                    emit_alu(&mut a, st);
                }
                let here = a.here();
                a.fix_branch(exit, here);
                let (op, cond) = [
                    (DpOp::Adc, Cond::Al),
                    (DpOp::Add, Cond::Cs),
                    (DpOp::Add, Cond::Cc),
                    (DpOp::Add, Cond::Vs),
                    (DpOp::Add, Cond::Vc),
                ][pick(st, 5) as usize];
                a.emit(Insn::Dp {
                    cond,
                    op,
                    s: false,
                    rd: Reg::R(6),
                    rn: Reg::R(6),
                    op2: Op2::Imm {
                        imm8: 1 + pick(st, 255) as u8,
                        rot: 0,
                    },
                });
            }
            5 => {
                for _ in 0..1 + pick(st, 4) {
                    emit_work(&mut a, st);
                }
            }
            _ => {
                a.mov_imm(Reg::R(9), 2 + pick(st, 12) as u32);
                let inner = a.label();
                for _ in 0..1 + pick(st, 3) {
                    emit_work(&mut a, st);
                }
                a.subs_imm(Reg::R(9), Reg::R(9), 1);
                a.b_to(Cond::Ne, inner);
                for _ in 0..pick(st, 3) {
                    emit_alu(&mut a, st);
                }
            }
        }
    }
    a.subs_imm(Reg::R(7), Reg::R(7), 1);
    a.b_to(Cond::Ne, top);
    a.svc(0);
    let leaf = a.here();
    for call in calls {
        a.fix_branch(call, leaf);
    }
    for _ in 0..1 + pick(st, 4) {
        emit_work(&mut a, st);
    }
    a.bx(Reg::Lr);
    a.words()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Linked chaining: random branchy kernels (forward conditional
    /// skips, diamonds of consecutive branches, ladders of more side
    /// exits than one block holds, a flag-setter whose C and V only a
    /// taken side exit observes, a `BL` leaf returning by `BX LR`,
    /// inner loops whose back-edge is a side exit to their own block's
    /// entry, a conditional back-edge) run compiled,
    /// under step budgets and chains of IRQ deadlines drawn to land
    /// mid-chain, each run resumed
    /// until the kernel's `SVC`. Between runs `DATA_VA` is re-pointed at
    /// the other of two data pages with different contents, so a linked
    /// hop can meet a block kept from the previous translation epoch whose
    /// per-site data translations still name the old page. The compiled
    /// and interpreter machines, their exit sequences and counters must
    /// agree exactly, and under a budget that fits two long passes the
    /// micro-op runner must actually have hopped between traces.
    #[test]
    fn prop_linked_chains_are_architecturally_invisible(
        seed in any::<u64>(),
        init in proptest::array::uniform8(any::<u32>()),
        budget in 24u64..300,
        irqs in proptest::collection::vec(1u64..800, 0..4),
    ) {
        let code = branchy_kernel(seed);
        let run = |accel: bool|
         -> Result<(Machine, Vec<ExitReason>), proptest::test_runner::TestCaseError> {
            let mut m = machine_with(&code);
            let second: Vec<u32> = (0..64u32).map(|i| 0x5a5a_0000 ^ i.wrapping_mul(0x9e37)).collect();
            m.mem.load_words(DATA_PAS[1], &second).unwrap();
            m.set_fetch_accel(accel);
            for (i, v) in init.iter().take(6).enumerate() {
                m.regs.set(Mode::User, Reg::R(i as u8), *v);
            }
            let mut deadlines = irqs.iter();
            m.irq_at = deadlines.next().map(|d| m.cycles + d);
            let mut exits = Vec::new();
            let mut data = 0;
            loop {
                let exit = m.run_user(budget).unwrap();
                exits.push(exit);
                match exit {
                    ExitReason::Svc { .. } => break,
                    ExitReason::StepLimit => {}
                    ExitReason::Irq => {
                        m.irq_at = deadlines.next().map(|d| m.cycles + d);
                        m.exception_return().unwrap();
                    }
                    other => prop_assert!(false, "unexpected exit {:?}", other),
                }
                data ^= 1;
                remap(&mut m, DATA_PTE, DATA_PAS[data], PagePerms::RW);
                prop_assert!(exits.len() < 10_000, "kernel never reached its SVC");
            }
            Ok((m, exits))
        };
        let (on, exits_on) = run(true)?;
        let (off, exits_off) = run(false)?;
        prop_assert_eq!(&exits_on, &exits_off, "exit sequence diverged");
        prop_assert_eq!(on.cycles, off.cycles, "cycle model diverged");
        prop_assert_eq!(on.tlb.hits, off.tlb.hits, "TLB hits diverged");
        prop_assert_eq!(on.tlb.misses, off.tlb.misses, "TLB misses diverged");
        prop_assert_eq!(on.mem.reads, off.mem.reads, "reads diverged");
        prop_assert_eq!(on.mem.writes, off.mem.writes, "writes diverged");
        prop_assert!(on == off, "architectural state diverged");
        let s = on.superblock_stats();
        // A block runs down its fall-through path through up to six side
        // exits, 30-odd steps of these kernels, so a budget under two
        // such passes can leave no room for a hop (600 drawn cases: none
        // without a hop above a budget of 45).
        if budget >= 64 {
            prop_assert!(s.uop_linked > 0, "the runner never hopped: {:?}", s);
        }
        prop_assert!(s.chained >= s.uop_linked, "hops must count as chained hits: {:?}", s);
    }
}

/// FIQ takes priority over IRQ and lands in FIQ mode with its own bank.
#[test]
fn fiq_beats_irq_and_banks_correctly() {
    let mut a = Assembler::new(CODE_VA);
    let top = a.label();
    a.b_to(Cond::Al, top);
    let mut m = machine_with(&a.words());
    m.irq_at = Some(m.cycles + 10);
    m.fiq_at = Some(m.cycles + 10);
    let exit = m.run_user(1000).unwrap();
    assert_eq!(exit, ExitReason::Fiq);
    assert_eq!(m.cpsr.mode, Mode::Fiq);
    // Resume address preserved in LR_fiq.
    let lr = m.regs.lr_banked(komodo_armv7::regs::Bank::Fiq);
    assert!((CODE_VA..CODE_VA + 8).contains(&lr));
}
