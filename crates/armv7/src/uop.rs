//! Micro-op traces: the compiled form every block runs as.
//!
//! `FetchAccel::sb_build` (see [`crate::dcache`]) scans a run of decoded
//! instructions down its fall-through path and hands it to `specialise`,
//! which lowers it once, when the block is built, into a small micro-op
//! IR:
//!
//! - **Constant folding**: rotated `Op2` immediates, `MOVW`/`MOVT` pair
//!   collapsing, base+`#imm12` address offsets (pre-negated for the
//!   subtract forms), and branch targets are folded to raw words.
//!   PC-relative forms never reach a trace — decode maps them to
//!   [`crate::insn::Insn::Unknown`], which is never admitted — so the
//!   only PC-dependent values in a trace are the pre-folded branch
//!   targets and link address.
//! - **Side exits**: a conditional `B` inside the scanned run compiles to
//!   a `Uop::SideExit`. When its condition holds the pass retires the
//!   branch, charges the taken branch and leaves the trace through that
//!   exit's own successor-link slot (`Block::succ`); otherwise it retires
//!   and the trace goes on down the fall-through path.
//! - **Dead-flag elimination**: a flag-setting instruction whose NZCV
//!   write is overwritten before any in-trace consumer (condition
//!   field, `ADC`/`SBC`/`RSC` carry-in, `MRS`) compiles to its
//!   flags-free value form; a compare whose flags die compiles to a
//!   retire-only `Uop::Nop`. Every memory access, every side exit and
//!   the trace's end are *observation points*: a hazard can stop the
//!   trace right before a load/store, and a taken side exit or the end
//!   publishes `CPSR` architecturally, so liveness is forced to "all
//!   flags" across them — the committed `CPSR` at every possible stop or
//!   exit point is exactly the per-instruction machine's. Any other point
//!   may hold a `CPSR` that differs from the per-instruction one, which
//!   is why a trace runs whole or not at all and cannot stop at an
//!   arbitrary body entry.
//! - **Per-site data-TLB inlining**: each load/store site carries a
//!   one-entry translation cache (VA page → PA page + precomputed
//!   access attributes, presence implying the site's read/write verdict
//!   passed). Validity is anchored exactly like the fetch-side caches:
//!   the entry was formed from a data-TLB hit under the trace's
//!   `(world, TTBR0)` key in the current translation epoch, and the
//!   architectural TLB never re-maps an existing VA within an epoch (a
//!   flush, `TTBR0` load or page-table store ends it). A TLB flush keeps
//!   the block and its trace but not its site entries: a block kept from
//!   an earlier epoch runs again only once the dispatcher has confirmed
//!   it in the current one, which resets every site. So a surviving site
//!   entry provably replays what the exact path would compute, and
//!   accounting one TLB hit per access remains exact.
//!
//! The runner (`run_uop_trace`, called from `Machine::step_superblock`
//! in [`crate::exec`]) executes a trace over a flat copy of the fifteen
//! user-visible registers and a local `CPSR`, committing at the end or
//! at the exact retired prefix on any hazard, with the cycle, TLB-hit and
//! read accounting batched per call. Flag-setting micro-ops compute their
//! value and NZCV inline (`alu::alu_flags`). The differential suites pin
//! the runner bit-for-bit against the uncached per-instruction
//! interpreter.
//!
//! **Linked chaining.** When a trace exits, the runner follows the
//! exiting block's successor link for that exit (`Block::succ`, recorded
//! by the dispatcher) straight into the next trace, keeping the flat
//! registers and local `CPSR` — but only while every check the dispatcher
//! would make for that trace holds: same entry VA, world and `TTBR0`,
//! confirmed in the current translation epoch, a whole pass within the
//! step budget (`UopTrace::steps`), and the accumulated charge plus the
//! target's `max_charge` below the wake deadline. Otherwise it commits
//! and returns, and the dispatcher re-checks the same conditions. A
//! self-loop is the link back to the same trace, whichever exit it
//! leaves by; a lone unconditional branch is a trace with an empty body,
//! so branchy loops stay inside the runner.

use core::cell::Cell;

use crate::dcache::EXIT_SIDE;
use crate::insn::{Cond, DpOp, Insn, MemOffset, Op2, Shift};
use crate::mem::AccessAttrs;
use crate::word::{Addr, Word, WORDS_PER_PAGE, WORD_BYTES};

/// Flag-liveness bitmask bits.
const FLAG_N: u8 = 1 << 0;
const FLAG_Z: u8 = 1 << 1;
const FLAG_C: u8 = 1 << 2;
const FLAG_V: u8 = 1 << 3;
const FLAG_ALL: u8 = FLAG_N | FLAG_Z | FLAG_C | FLAG_V;

/// Which flags a condition field reads.
fn cond_reads(cond: Cond) -> u8 {
    match cond {
        Cond::Al => 0,
        Cond::Eq | Cond::Ne => FLAG_Z,
        Cond::Cs | Cond::Cc => FLAG_C,
        Cond::Mi | Cond::Pl => FLAG_N,
        Cond::Vs | Cond::Vc => FLAG_V,
        Cond::Hi | Cond::Ls => FLAG_C | FLAG_Z,
        Cond::Ge | Cond::Lt => FLAG_N | FLAG_V,
        Cond::Gt | Cond::Le => FLAG_N | FLAG_Z | FLAG_V,
    }
}

/// Whether the shifter computes a fresh carry-out for `op2`. An
/// unrotated immediate, `LSL #0` and `ROR #0` pass the carry-in through
/// unchanged (see [`crate::alu::shift_value`]).
fn shifter_sets_carry(op2: Op2) -> bool {
    match op2 {
        Op2::Imm { rot, .. } => rot != 0,
        Op2::Reg {
            shift: Shift::Lsl | Shift::Ror,
            amount: 0,
            ..
        } => false,
        Op2::Reg { .. } => true,
    }
}

/// Flags an instruction overwrites with fresh values (the kill set when
/// it executes unconditionally). A logical opcode writes `C` only when
/// its shifter produces a carry-out; otherwise the earlier `C` flows
/// through it and stays live.
fn flag_writes(insn: &Insn) -> u8 {
    match *insn {
        Insn::Dp { op, s, op2, .. } if s || op.is_compare() => {
            // An arithmetic opcode writes `V`; a logical one passes it
            // through, and so does not kill an earlier `V` write.
            if op.is_arith() {
                FLAG_ALL
            } else if shifter_sets_carry(op2) {
                FLAG_N | FLAG_Z | FLAG_C
            } else {
                FLAG_N | FLAG_Z
            }
        }
        Insn::Mul { s: true, .. } => FLAG_N | FLAG_Z,
        _ => 0,
    }
}

/// Flags an instruction's data path consumes (condition fields are
/// handled separately by the liveness pass).
fn flag_reads(insn: &Insn) -> u8 {
    match *insn {
        Insn::Dp {
            op: DpOp::Adc | DpOp::Sbc | DpOp::Rsc,
            ..
        } => FLAG_C,
        Insn::Mrs { .. } => FLAG_ALL,
        _ => 0,
    }
}

/// A pre-resolved flexible second operand for the flags-free value path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// Rotated immediate, folded at build time.
    Imm(Word),
    /// Plain register (`LSL #0`).
    Reg(u8),
    /// Register with an immediate shift (the value never depends on the
    /// carry-in, so it stays a pure function of the register file).
    Shifted {
        /// Source register number.
        rm: u8,
        /// Shift kind.
        shift: Shift,
        /// Encoded amount (`LSR`/`ASR` 0 means 32).
        amount: u8,
    },
}

/// A pre-resolved load/store offset; immediate forms are folded to a
/// single wrapping addend (pre-negated for the subtract encodings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemOff {
    /// `base.wrapping_add(k)` — covers `#+imm12` and `#-imm12`.
    Const(Word),
    /// `base + Rm`.
    Reg(u8),
    /// `base - Rm`.
    RegNeg(u8),
}

/// One micro-op. Register fields are pre-resolved user-bank indices
/// (0..=14) into the runner's flat register array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Uop {
    /// `rd = rn + imm` (flags dead or `S` clear).
    AddImm { rd: u8, rn: u8, imm: Word },
    /// `rd = rn - imm`.
    SubImm { rd: u8, rn: u8, imm: Word },
    /// `rd = rn + r[rm]`.
    AddReg { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn ^ r[rm]`.
    EorReg { rd: u8, rn: u8, rm: u8 },
    /// `rd = imm` — folded `MOV #imm`, `MOVW`, or a `MOVW`+`MOVT` pair.
    MovConst { rd: u8, imm: Word },
    /// `MOVT`: `rd = (rd & 0xffff) | hi` with `hi` pre-shifted.
    InsTop { rd: u8, hi: Word },
    /// Generic flags-free data-processing (any opcode, any operand
    /// shape; `ADC`/`SBC`/`RSC` read the live carry).
    Alu { op: DpOp, rd: u8, rn: u8, src: Src },
    /// Exact flag-setting data-processing: live NZCV consumers exist, so
    /// the value and all four flags are computed (inline, by
    /// `alu::alu_flags`). Compares write no register.
    AluFlags { op: DpOp, rd: u8, rn: u8, op2: Op2 },
    /// `rd = rm * rs`, flags dead or `S` clear.
    MulVal { rd: u8, rm: u8, rs: u8 },
    /// `rd = rm * rs` with live `N`/`Z`.
    MulFlags { rd: u8, rm: u8, rs: u8 },
    /// `MRS`: `rd = CPSR`.
    ReadCpsr { rd: u8 },
    /// A compare whose flags are dead: retires, does nothing.
    Nop,
    /// Load through the per-site inlined data-TLB entry.
    Load {
        rd: u8,
        base: u8,
        off: MemOff,
        byte: bool,
        site: u16,
    },
    /// Store through the per-site inlined data-TLB entry.
    Store {
        rd: u8,
        base: u8,
        off: MemOff,
        byte: bool,
        site: u16,
    },
    /// A conditional `B` inside the body (its entry's condition is never
    /// `AL`). Taken, it retires, and the pass leaves the trace for
    /// `target` through exit index `exit` (`EXIT_SIDE` + its ordinal);
    /// not taken, it retires like any failed condition.
    SideExit { target: Addr, exit: u8 },
}

/// One body entry: a micro-op with its pre-extracted condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct UopEntry {
    /// Condition field (checked against the local `CPSR`; a failed
    /// condition still retires the instruction).
    pub(crate) cond: Cond,
    /// The operation.
    pub(crate) op: Uop,
}

/// How a specialised trace ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UopEnd {
    /// Fall through to the instruction after the body.
    Fall,
    /// The block's ending direct branch, target pre-folded: an
    /// unconditional `B`, any `BL`, or a conditional `B` past the
    /// per-block side-exit bound.
    Branch {
        cond: Cond,
        target: Addr,
        link: bool,
    },
}

/// A per-access-site inlined data-TLB entry. Presence implies the
/// translation passed this site's read/write permission verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Site {
    /// VA page the entry translates.
    pub(crate) va_page: Addr,
    /// Corresponding PA page base.
    pub(crate) pa_page: Addr,
    /// Precomputed access attributes for the trace's world.
    pub(crate) attrs: AccessAttrs,
}

/// A compiled micro-op trace, owned by its block (kept with it across
/// translation epochs, and dying with it on every invalidation).
#[derive(Clone, Debug)]
pub(crate) struct UopTrace {
    /// The compiled body; one entry per scanned instruction, side exits
    /// included.
    pub(crate) body: Box<[UopEntry]>,
    /// The compiled end.
    pub(crate) end: UopEnd,
    /// Architectural steps of the longest pass, the whole fall-through
    /// path: the scanned body plus its ending branch. A pass that leaves
    /// by a side exit retires fewer. The dispatcher's whole-trace budget
    /// threshold, re-checked before the runner hops into a trace.
    pub(crate) steps: u64,
    /// Per-site translation slots, indexed by the `site` field of the
    /// body's memory uops. Interior-mutable so the runner can refill a
    /// slot while the trace is shared-borrowed from the block cache.
    pub(crate) sites: Box<[Cell<Option<Site>>]>,
}

/// Per-instruction flag-materialisation needs, one bit per body entry
/// (a block never crosses a page, so it holds at most a page of words):
/// bit `i` is set when instruction `i`'s flag writes may be observed (by
/// a later condition field, carry-in consumer, `MRS`, memory-op stop
/// point, side exit, or the trace's end) and must therefore run the exact
/// flag path.
type FlagNeeds = [u64; WORDS_PER_PAGE / 64];

fn needs(need: &FlagNeeds, i: usize) -> bool {
    need[i / 64] >> (i % 64) & 1 != 0
}

/// Computes [`FlagNeeds`] for a scanned body by one backward pass.
fn flag_liveness(body: &[(Word, Insn, Cond)]) -> FlagNeeds {
    let mut need = [0u64; WORDS_PER_PAGE / 64];
    // The end observes everything: the final CPSR is architectural.
    let mut live = FLAG_ALL;
    for (i, &(_, insn, cond)) in body.iter().enumerate().rev() {
        if matches!(insn, Insn::Ldr { .. } | Insn::Str { .. } | Insn::B { .. }) {
            // A hazard can stop the trace right before this access, and a
            // taken side exit leaves with the CPSR as it stands: either
            // way the committed CPSR at that point must already be exact.
            live = FLAG_ALL;
            continue;
        }
        let w = flag_writes(&insn);
        // Conditional flag-setters are maybe-writes: materialise them
        // unconditionally and kill nothing.
        if w != 0 && (cond != Cond::Al || (w & live) != 0) {
            need[i / 64] |= 1 << (i % 64);
        }
        let kill = if cond == Cond::Al { w } else { 0 };
        live = (live & !kill) | flag_reads(&insn) | cond_reads(cond);
    }
    need
}

/// Folds a rotated `Op2` immediate to its word value.
fn fold_imm(imm8: u8, rot: u8) -> Word {
    (imm8 as u32).rotate_right(2 * rot as u32)
}

/// Pre-resolves an `Op2` for the flags-free value path.
fn lower_src(op2: Op2) -> Src {
    match op2 {
        Op2::Imm { imm8, rot } => Src::Imm(fold_imm(imm8, rot)),
        Op2::Reg {
            rm,
            shift: Shift::Lsl,
            amount: 0,
        } => Src::Reg(rm.index()),
        Op2::Reg { rm, shift, amount } => Src::Shifted {
            rm: rm.index(),
            shift,
            amount,
        },
    }
}

/// Compiles a scanned block entered at `entry_va` — its body, a run of
/// the decoded page's `(word, insn, cond)` entries whose only branches
/// are conditional `B`s (its side exits), and its end, `UopEnd::Fall` or
/// `UopEnd::Branch` — into a micro-op trace. Pure function of its
/// inputs: the caller stores the result in the block and drops it under
/// the block cache's invalidation discipline.
pub(crate) fn specialise(entry_va: Addr, scanned: &[(Word, Insn, Cond)], end: UopEnd) -> UopTrace {
    let need = flag_liveness(scanned);
    let mut exit = EXIT_SIDE;
    let mut body: Vec<UopEntry> = Vec::with_capacity(scanned.len());
    let mut sites = 0u16;
    // Build-time constant tracking for MOVW/MOVT pair folding; an entry
    // is invalidated by any (possibly conditional) write to its register.
    let mut known: [Option<Word>; 15] = [None; 15];
    for (i, &(_, insn, cond)) in scanned.iter().enumerate() {
        let uop = match insn {
            Insn::Dp {
                op, s, rd, rn, op2, ..
            } => {
                let rd_i = rd.index();
                let rn_i = rn.index();
                if (s || op.is_compare()) && needs(&need, i) {
                    Uop::AluFlags {
                        op,
                        rd: rd_i,
                        rn: rn_i,
                        op2,
                    }
                } else if op.is_compare() {
                    // Flags provably dead and no destination: retire-only.
                    Uop::Nop
                } else {
                    match (op, lower_src(op2)) {
                        (DpOp::Mov, Src::Imm(imm)) => Uop::MovConst { rd: rd_i, imm },
                        (DpOp::Add, Src::Imm(imm)) => Uop::AddImm {
                            rd: rd_i,
                            rn: rn_i,
                            imm,
                        },
                        (DpOp::Sub, Src::Imm(imm)) => Uop::SubImm {
                            rd: rd_i,
                            rn: rn_i,
                            imm,
                        },
                        (DpOp::Add, Src::Reg(rm)) => Uop::AddReg {
                            rd: rd_i,
                            rn: rn_i,
                            rm,
                        },
                        (DpOp::Eor, Src::Reg(rm)) => Uop::EorReg {
                            rd: rd_i,
                            rn: rn_i,
                            rm,
                        },
                        (_, src) => Uop::Alu {
                            op,
                            rd: rd_i,
                            rn: rn_i,
                            src,
                        },
                    }
                }
            }
            Insn::Movw { rd, imm16, .. } => Uop::MovConst {
                rd: rd.index(),
                imm: imm16 as Word,
            },
            Insn::Movt { rd, imm16, .. } => {
                let hi = (imm16 as Word) << 16;
                // Fold a MOVW;MOVT pair (the mov_imm32 idiom) into one
                // constant when the low half is statically known and the
                // pair executes unconditionally.
                match known[rd.index() as usize] {
                    Some(lo) if cond == Cond::Al => Uop::MovConst {
                        rd: rd.index(),
                        imm: (lo & 0xffff) | hi,
                    },
                    _ => Uop::InsTop { rd: rd.index(), hi },
                }
            }
            Insn::Mul { s, rd, rm, rs, .. } => {
                if s && needs(&need, i) {
                    Uop::MulFlags {
                        rd: rd.index(),
                        rm: rm.index(),
                        rs: rs.index(),
                    }
                } else {
                    Uop::MulVal {
                        rd: rd.index(),
                        rm: rm.index(),
                        rs: rs.index(),
                    }
                }
            }
            Insn::Mrs { rd, .. } => Uop::ReadCpsr { rd: rd.index() },
            Insn::Ldr {
                rd, rn, off, byte, ..
            }
            | Insn::Str {
                rd, rn, off, byte, ..
            } => {
                let off = match off {
                    MemOffset::Imm { imm12, add } => MemOff::Const(if add {
                        imm12 as Word
                    } else {
                        (imm12 as Word).wrapping_neg()
                    }),
                    MemOffset::Reg { rm, add } => {
                        if add {
                            MemOff::Reg(rm.index())
                        } else {
                            MemOff::RegNeg(rm.index())
                        }
                    }
                };
                let site = sites;
                sites += 1;
                if matches!(insn, Insn::Ldr { .. }) {
                    Uop::Load {
                        rd: rd.index(),
                        base: rn.index(),
                        off,
                        byte,
                        site,
                    }
                } else {
                    Uop::Store {
                        rd: rd.index(),
                        base: rn.index(),
                        off,
                        byte,
                        site,
                    }
                }
            }
            Insn::B { offset, .. } => {
                let va = entry_va.wrapping_add(i as u32 * WORD_BYTES);
                let side = Uop::SideExit {
                    target: branch_target(va, offset),
                    exit,
                };
                exit += 1;
                side
            }
            // The block builder admits nothing else into a body.
            _ => unreachable!("block admitted an unspecialisable instruction"),
        };
        // Update the constant-tracking state from the *emitted* uop.
        match uop {
            Uop::MovConst { rd, imm } if cond == Cond::Al => known[rd as usize] = Some(imm),
            _ => {
                if let Some(rd) = uop_dest(&uop) {
                    known[rd as usize] = None;
                }
            }
        }
        body.push(UopEntry { cond, op: uop });
    }
    let steps = scanned.len() as u64 + matches!(end, UopEnd::Branch { .. }) as u64;
    UopTrace {
        body: body.into_boxed_slice(),
        end,
        steps,
        sites: vec![Cell::new(None); sites as usize].into_boxed_slice(),
    }
}

/// The target of a direct branch at `va` with word offset `offset` (the
/// PC reads 8 bytes ahead).
pub(crate) fn branch_target(va: Addr, offset: i32) -> Addr {
    va.wrapping_add(8)
        .wrapping_add((offset as u32).wrapping_mul(4))
}

/// The register a uop writes, if any (used only for build-time constant
/// tracking).
fn uop_dest(u: &Uop) -> Option<u8> {
    match *u {
        Uop::AddImm { rd, .. }
        | Uop::SubImm { rd, .. }
        | Uop::AddReg { rd, .. }
        | Uop::EorReg { rd, .. }
        | Uop::MovConst { rd, .. }
        | Uop::InsTop { rd, .. }
        | Uop::Alu { rd, .. }
        | Uop::MulVal { rd, .. }
        | Uop::MulFlags { rd, .. }
        | Uop::ReadCpsr { rd }
        | Uop::Load { rd, .. } => Some(rd),
        Uop::AluFlags { op, rd, .. } => (!op.is_compare()).then_some(rd),
        Uop::Nop | Uop::Store { .. } | Uop::SideExit { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::Reg;

    fn dp(op: DpOp, s: bool, rd: u8, rn: u8, op2: Op2) -> (Word, Insn, Cond) {
        (
            0,
            Insn::Dp {
                cond: Cond::Al,
                op,
                s,
                rd: Reg::R(rd),
                rn: Reg::R(rn),
                op2,
            },
            Cond::Al,
        )
    }

    #[test]
    fn dead_flags_compile_to_value_forms() {
        // adds r0,r0,#1 ; cmp r1,#0 — the adds flags are killed by the
        // unconditional cmp with no observer between; the cmp feeds the
        // exit (all-live), so it stays on the exact path.
        let t = specialise(
            0x8000,
            &[
                dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
                dp(DpOp::Cmp, true, 0, 1, Op2::imm(0)),
            ],
            UopEnd::Fall,
        );
        assert_eq!(
            t.body[0].op,
            Uop::AddImm {
                rd: 0,
                rn: 0,
                imm: 1
            }
        );
        assert!(matches!(t.body[1].op, Uop::AluFlags { op: DpOp::Cmp, .. }));
    }

    #[test]
    fn dead_compare_becomes_nop_and_memory_is_a_barrier() {
        // cmp r0,#1 ; mov r2,#0 ; ldr r3,[r4] ; adds r5,r5,#1 ; cmp r6,#2
        // First cmp: killed by the second? No — the load between them is
        // an observation point, so the first cmp must materialise.
        let t = specialise(
            0x8000,
            &[
                dp(DpOp::Cmp, true, 0, 0, Op2::imm(1)),
                (
                    0,
                    Insn::Ldr {
                        cond: Cond::Al,
                        rd: Reg::R(3),
                        rn: Reg::R(4),
                        off: MemOffset::Imm {
                            imm12: 0,
                            add: true,
                        },
                        byte: false,
                    },
                    Cond::Al,
                ),
                dp(DpOp::Add, true, 5, 5, Op2::imm(1)),
                dp(DpOp::Cmp, true, 0, 6, Op2::imm(2)),
            ],
            UopEnd::Fall,
        );
        assert!(
            matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Cmp, .. }),
            "flags live across the load stop point: {:?}",
            t.body[0].op
        );
        assert_eq!(
            t.body[2].op,
            Uop::AddImm {
                rd: 5,
                rn: 5,
                imm: 1
            },
            "adds killed by the trailing cmp"
        );
        assert_eq!(t.sites.len(), 1);
    }

    #[test]
    fn dead_compare_is_a_nop() {
        // cmp r0,#1 ; cmp r1,#2 — the first compare's flags are fully
        // overwritten by the second before anything observes them.
        let t = specialise(
            0x8000,
            &[
                dp(DpOp::Cmp, true, 0, 0, Op2::imm(1)),
                dp(DpOp::Cmp, true, 0, 1, Op2::imm(2)),
            ],
            UopEnd::Fall,
        );
        assert_eq!(t.body[0].op, Uop::Nop);
        assert!(matches!(t.body[1].op, Uop::AluFlags { .. }));
    }

    #[test]
    fn logical_s_op_does_not_kill_v() {
        // adds r0,r0,#1 (writes V) ; tst r1,#1 (writes NZC, V passes
        // through) ; exit observes V — the adds must stay exact.
        let t = specialise(
            0x8000,
            &[
                dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
                dp(DpOp::Tst, true, 0, 1, Op2::imm(1)),
            ],
            UopEnd::Fall,
        );
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Add, .. }));
    }

    #[test]
    fn carry_passing_logical_op_does_not_kill_c() {
        // eors r3,r5,r1,lsl #16 (fresh C from the shifter) ; tst r4,#243
        // (unrotated immediate: C passes through) ; the exit observes C,
        // so the eors flags must stay exact.
        let eors = dp(
            DpOp::Eor,
            true,
            3,
            5,
            Op2::Reg {
                rm: Reg::R(1),
                shift: Shift::Lsl,
                amount: 16,
            },
        );
        let t = specialise(
            0x8000,
            &[eors, dp(DpOp::Tst, true, 0, 4, Op2::imm(243))],
            UopEnd::Fall,
        );
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Eor, .. }));
        // A rotated immediate does produce a carry-out: the eors dies.
        let t = specialise(
            0x8000,
            &[
                eors,
                dp(DpOp::Tst, true, 0, 4, Op2::Imm { imm8: 3, rot: 1 }),
            ],
            UopEnd::Fall,
        );
        assert!(matches!(t.body[0].op, Uop::Alu { op: DpOp::Eor, .. }));
    }

    #[test]
    fn conditional_flag_setter_stays_exact_and_kills_nothing() {
        // adds r0,r0,#1 ; addseq r1,r1,#1 — the conditional flag-setter
        // may not execute, so it can't kill the first adds' flags, and it
        // must itself materialise.
        let mut addseq = dp(DpOp::Add, true, 1, 1, Op2::imm(1));
        if let Insn::Dp { ref mut cond, .. } = addseq.1 {
            *cond = Cond::Eq;
        }
        addseq.2 = Cond::Eq;
        let t = specialise(
            0x8000,
            &[dp(DpOp::Add, true, 0, 0, Op2::imm(1)), addseq],
            UopEnd::Fall,
        );
        assert!(matches!(t.body[0].op, Uop::AluFlags { .. }));
        assert!(matches!(t.body[1].op, Uop::AluFlags { .. }));
        assert_eq!(t.body[1].cond, Cond::Eq);
    }

    #[test]
    fn movw_movt_pair_folds_to_one_constant() {
        let t = specialise(
            0x8000,
            &[
                (
                    0,
                    Insn::Movw {
                        cond: Cond::Al,
                        rd: Reg::R(8),
                        imm16: 0x9000,
                    },
                    Cond::Al,
                ),
                (
                    0,
                    Insn::Movt {
                        cond: Cond::Al,
                        rd: Reg::R(8),
                        imm16: 0x1234,
                    },
                    Cond::Al,
                ),
            ],
            UopEnd::Fall,
        );
        assert_eq!(
            t.body[1].op,
            Uop::MovConst {
                rd: 8,
                imm: 0x1234_9000
            }
        );
    }

    /// `adds r0,r0,#1 ; tst r1,#1 ; bne <back> ; cmp r2,#0` — the side
    /// exit reads only `Z`, and the `cmp` after it kills every flag, but a
    /// taken side exit leaves with the local PSR as `CPSR`: it is an
    /// observation point of all four flags. So the `tst` keeps its flags
    /// and the `adds` keeps the `C` and `V` the `tst` passes through; the
    /// side exit gets the first side-exit slot and its folded target.
    #[test]
    fn flag_setter_before_a_side_exit_keeps_all_four_flags() {
        let bne = (
            0,
            Insn::B {
                cond: Cond::Ne,
                offset: -4,
            },
            Cond::Ne,
        );
        let t = specialise(
            0x8000,
            &[
                dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
                dp(DpOp::Tst, true, 0, 1, Op2::imm(1)),
                bne,
                dp(DpOp::Cmp, true, 0, 2, Op2::imm(0)),
            ],
            UopEnd::Fall,
        );
        assert!(
            matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Add, .. }),
            "C and V live across the side exit: {:?}",
            t.body[0].op
        );
        assert!(matches!(t.body[1].op, Uop::AluFlags { op: DpOp::Tst, .. }));
        assert_eq!(
            t.body[2],
            UopEntry {
                cond: Cond::Ne,
                op: Uop::SideExit {
                    target: 0x8008 + 8 - 16,
                    exit: EXIT_SIDE,
                },
            }
        );
        assert!(matches!(t.body[3].op, Uop::AluFlags { op: DpOp::Cmp, .. }));
        assert_eq!(t.steps, 4, "a side exit is one step of the longest pass");
    }

    #[test]
    fn negative_offsets_fold_to_wrapping_addends() {
        let t = specialise(
            0x8000,
            &[
                dp(DpOp::Add, false, 0, 0, Op2::imm(1)),
                (
                    0,
                    Insn::Ldr {
                        cond: Cond::Al,
                        rd: Reg::R(1),
                        rn: Reg::R(2),
                        off: MemOffset::Imm {
                            imm12: 8,
                            add: false,
                        },
                        byte: false,
                    },
                    Cond::Al,
                ),
            ],
            UopEnd::Fall,
        );
        assert!(matches!(
            t.body[1].op,
            Uop::Load {
                off: MemOff::Const(k),
                ..
            } if k == 8u32.wrapping_neg()
        ));
    }
}
