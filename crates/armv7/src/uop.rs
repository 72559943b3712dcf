//! Micro-op trace specialisation: a JIT-style IR tier above superblocks.
//!
//! A superblock (see [`crate::dcache`]) re-executes every hot trace
//! through the generic per-instruction executor: per instruction it
//! re-matches the condition field, the operand shapes, the `S` bit and
//! the register banking, and re-folds rotated immediates. This module
//! lifts a *hot* superblock — one whose dispatch count crossed the
//! promotion threshold — into a small micro-op IR specialised once at
//! build time:
//!
//! - **Constant folding**: rotated `Op2` immediates, `MOVW`/`MOVT` pair
//!   collapsing, base+`#imm12` address offsets (pre-negated for the
//!   subtract forms), and branch targets (already absolute in
//!   `BlockEnd`) are folded to raw words. PC-relative forms never
//!   reach a trace — decode maps them to [`crate::insn::Insn::Unknown`],
//!   which is never admitted — so the only PC-dependent values in a
//!   trace are the pre-folded branch target and link address.
//! - **Dead-flag elimination**: a flag-setting instruction whose NZCV
//!   write is overwritten before any in-trace consumer (condition
//!   field, `ADC`/`SBC`/`RSC` carry-in, `MRS`) compiles to its
//!   flags-free value form; a compare whose flags die compiles to a
//!   retire-only `Uop::Nop`. Every memory access and the trace exit
//!   are *observation points*: a hazard can stop the trace right before
//!   a load/store (and the exit publishes `CPSR` architecturally), so
//!   liveness is forced to "all flags" across them — the committed
//!   `CPSR` at every possible stop point is exactly the per-instruction
//!   machine's.
//! - **Compare+branch fusion**: a trace ending `<flag-setting ALU>; B<c>`
//!   becomes a single `UopEnd::FusedBranch` conditional exit — NZCV is
//!   computed once, written to `CPSR` (it is architectural at the exit),
//!   and the branch condition is decided from the same values without a
//!   second dispatch.
//! - **Per-site data-TLB inlining**: each load/store site carries a
//!   one-entry translation cache (VA page → PA page + precomputed
//!   access attributes, presence implying the site's read/write verdict
//!   passed). Validity is anchored exactly like the fetch-side caches:
//!   the entry was formed from a data-TLB hit under the trace's
//!   `(world, TTBR0)` key, the architectural TLB never re-maps an
//!   existing VA without a flush/`TTBR0`-load/page-table store, and
//!   each of those events drops the whole block cache (traces die with
//!   their blocks) — so a surviving site entry provably replays what
//!   the exact path would compute, and accounting one TLB hit per
//!   access remains exact.
//!
//! The runner (`run_uop_trace`, called from `Machine::step_superblock`
//! in [`crate::exec`]) executes specialised traces over a flat copy of
//! the fifteen user-visible registers and a local `CPSR`, committing at
//! the end or at the exact retired prefix on any hazard — the same stop
//! discipline, cycle accounting and fallback ladder (uop → superblock →
//! accelerator → baseline) as the superblock path, which the four-way
//! differential suite pins bit-for-bit.
//!
//! **Linked chaining.** When a trace exits, the runner follows the
//! exiting block's successor link (`Block::succ`, recorded by the
//! dispatcher) straight into the next promoted trace, keeping the flat
//! registers and local `CPSR` — but only while every check the
//! dispatcher would make for that trace holds: same entry VA, world and
//! `TTBR0`, a whole pass within the step budget (`UopTrace::steps`),
//! and the accumulated charge plus the target's `max_charge` below the
//! wake deadline. Otherwise it commits and returns, and the dispatcher
//! re-checks the same conditions. A self-loop is the link back to the
//! same trace; a lone direct branch is a trace with an empty body, so
//! branchy loops stay inside the runner.

use core::cell::Cell;

use crate::dcache::{Block, BlockEnd};
use crate::insn::{Cond, DpOp, Insn, MemOffset, Op2, Shift};
use crate::mem::AccessAttrs;
use crate::word::{Addr, Word};

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

/// Whether a data-processing opcode updates `V` when it sets flags
/// (arithmetic); logical opcodes write `N`/`Z`/`C` only — `V` passes
/// through, so they do not *kill* an earlier `V` write.
fn dp_is_arith(op: DpOp) -> bool {
    matches!(
        op,
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
            if dp_is_arith(op) {
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
    /// the full shifter-carry + ALU-flags path runs. `wb` is the
    /// pre-resolved "writes rd" bit (false for compares).
    AluFlags {
        op: DpOp,
        wb: bool,
        rd: u8,
        rn: u8,
        op2: Op2,
    },
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
    /// The block's ending direct branch, target pre-folded.
    Branch {
        cond: Cond,
        target: Addr,
        link: bool,
    },
    /// Fused flag-setting ALU + conditional branch: the ALU is the
    /// block's last body instruction; its NZCV is computed once, written
    /// to `CPSR` (architectural at the exit), and the branch condition
    /// is decided from the same values. Retires two instructions.
    FusedBranch {
        op: DpOp,
        wb: bool,
        rd: u8,
        rn: u8,
        op2: Op2,
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

/// A specialised micro-op trace, owned by its superblock (and dying
/// with it on every invalidation).
#[derive(Clone, Debug)]
pub(crate) struct UopTrace {
    /// The specialised body; one entry per block body instruction
    /// (minus the one folded into a `UopEnd::FusedBranch`).
    pub(crate) body: Box<[UopEntry]>,
    /// The specialised exit.
    pub(crate) end: UopEnd,
    /// Architectural steps one whole pass consumes: the block's body
    /// plus its ending branch (fusion moves an instruction into the exit
    /// without changing the count) — the dispatcher's whole-trace
    /// budget threshold, re-checked before the runner hops into a trace.
    pub(crate) steps: u64,
    /// Per-site translation slots, indexed by the `site` field of the
    /// body's memory uops. Interior-mutable so the runner can refill a
    /// slot while the trace is shared-borrowed from the block cache.
    pub(crate) sites: Box<[Cell<Option<Site>>]>,
}

/// Per-instruction flag-materialisation needs: `need[i]` is true when
/// instruction `i`'s flag writes may be observed (by a later condition
/// field, carry-in consumer, `MRS`, memory-op stop point, or the trace
/// exit) and must therefore run the exact flag path.
fn flag_liveness(body: &[(Insn, Cond)]) -> Vec<bool> {
    let mut need = vec![false; body.len()];
    // The exit observes everything: the final CPSR is architectural.
    let mut live = FLAG_ALL;
    for (i, &(insn, cond)) in body.iter().enumerate().rev() {
        if matches!(insn, Insn::Ldr { .. } | Insn::Str { .. }) {
            // A hazard can stop the trace right before this access: the
            // committed CPSR at that point must already be exact.
            live = FLAG_ALL;
            continue;
        }
        let w = flag_writes(&insn);
        if w != 0 {
            // Conditional flag-setters are maybe-writes: materialise
            // them unconditionally and kill nothing.
            need[i] = cond != Cond::Al || (w & live) != 0;
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

/// Specialises a superblock into a micro-op trace. Pure function of the
/// block: the caller stores the result in the block and is responsible
/// for dropping it under the block cache's invalidation discipline.
pub(crate) fn specialise(b: &Block) -> UopTrace {
    let need = flag_liveness(&b.body);
    let mut body: Vec<UopEntry> = Vec::with_capacity(b.body.len());
    let mut sites = 0u16;
    // Build-time constant tracking for MOVW/MOVT pair folding; an entry
    // is invalidated by any (possibly conditional) write to its register.
    let mut known: [Option<Word>; 15] = [None; 15];
    for (i, &(insn, cond)) in b.body.iter().enumerate() {
        let uop = match insn {
            Insn::Dp {
                op, s, rd, rn, op2, ..
            } => {
                let rd_i = rd.index();
                let rn_i = rn.index();
                if (s || op.is_compare()) && need[i] {
                    Uop::AluFlags {
                        op,
                        wb: !op.is_compare(),
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
                if s && need[i] {
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
            // The superblock builder admits nothing else into a body.
            _ => unreachable!("superblock admitted an unspecialisable instruction"),
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
    // Compare+branch fusion: a trace ending `<unconditional flag-setting
    // ALU>; B<c>` collapses into a single conditional-exit uop.
    let mut end = match b.end {
        BlockEnd::Fallthrough => UopEnd::Fall,
        BlockEnd::Branch { cond, target, link } => UopEnd::Branch { cond, target, link },
    };
    if let UopEnd::Branch { cond, target, link } = end {
        if let Some(&UopEntry {
            cond: Cond::Al,
            op:
                Uop::AluFlags {
                    op,
                    wb,
                    rd,
                    rn,
                    op2,
                },
        }) = body.last()
        {
            body.pop();
            end = UopEnd::FusedBranch {
                op,
                wb,
                rd,
                rn,
                op2,
                cond,
                target,
                link,
            };
        }
    }
    UopTrace {
        body: body.into_boxed_slice(),
        end,
        steps: b.body.len() as u64 + matches!(b.end, BlockEnd::Branch { .. }) as u64,
        sites: vec![Cell::new(None); sites as usize].into_boxed_slice(),
    }
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
        Uop::AluFlags { wb, rd, .. } => wb.then_some(rd),
        Uop::Nop | Uop::Store { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::World;
    use crate::regs::Reg;

    fn block(body: Vec<(Insn, Cond)>, end: BlockEnd) -> Block {
        Block {
            entry_va: 0x8000,
            world: World::Secure,
            ttbr0: 0x8000_0000,
            body: body.into_boxed_slice(),
            end,
            max_charge: 64,
            succ: [None, None],
            hot: 0,
            uop: None,
        }
    }

    fn dp(op: DpOp, s: bool, rd: u8, rn: u8, op2: Op2) -> (Insn, Cond) {
        (
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
        let b = block(
            vec![
                dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
                dp(DpOp::Cmp, true, 0, 1, Op2::imm(0)),
            ],
            BlockEnd::Fallthrough,
        );
        let t = specialise(&b);
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
        let b = block(
            vec![
                dp(DpOp::Cmp, true, 0, 0, Op2::imm(1)),
                (
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
            BlockEnd::Fallthrough,
        );
        let t = specialise(&b);
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
        let b = block(
            vec![
                dp(DpOp::Cmp, true, 0, 0, Op2::imm(1)),
                dp(DpOp::Cmp, true, 0, 1, Op2::imm(2)),
            ],
            BlockEnd::Fallthrough,
        );
        let t = specialise(&b);
        assert_eq!(t.body[0].op, Uop::Nop);
        assert!(matches!(t.body[1].op, Uop::AluFlags { .. }));
    }

    #[test]
    fn logical_s_op_does_not_kill_v() {
        // adds r0,r0,#1 (writes V) ; tst r1,#1 (writes NZC, V passes
        // through) ; exit observes V — the adds must stay exact.
        let b = block(
            vec![
                dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
                dp(DpOp::Tst, true, 0, 1, Op2::imm(1)),
            ],
            BlockEnd::Fallthrough,
        );
        let t = specialise(&b);
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Add, .. }));
    }

    #[test]
    fn carry_passing_logical_op_does_not_kill_c() {
        // eors r3,r5,r1,lsl #16 (fresh C from the shifter) ; tst r4,#243
        // (unrotated immediate: C passes through) ; the exit observes C,
        // so the eors flags must stay exact.
        let b = block(
            vec![
                dp(
                    DpOp::Eor,
                    true,
                    3,
                    5,
                    Op2::Reg {
                        rm: Reg::R(1),
                        shift: Shift::Lsl,
                        amount: 16,
                    },
                ),
                dp(DpOp::Tst, true, 0, 4, Op2::imm(243)),
            ],
            BlockEnd::Fallthrough,
        );
        let t = specialise(&b);
        assert!(matches!(t.body[0].op, Uop::AluFlags { op: DpOp::Eor, .. }));
        // A rotated immediate does produce a carry-out: the eors dies.
        let b = block(
            vec![
                b.body[0],
                dp(DpOp::Tst, true, 0, 4, Op2::Imm { imm8: 3, rot: 1 }),
            ],
            BlockEnd::Fallthrough,
        );
        let t = specialise(&b);
        assert!(matches!(t.body[0].op, Uop::Alu { op: DpOp::Eor, .. }));
    }

    #[test]
    fn conditional_flag_setter_stays_exact_and_kills_nothing() {
        // adds r0,r0,#1 ; addseq r1,r1,#1 — the conditional flag-setter
        // may not execute, so it can't kill the first adds' flags, and it
        // must itself materialise.
        let mut b = block(
            vec![
                dp(DpOp::Add, true, 0, 0, Op2::imm(1)),
                dp(DpOp::Add, true, 1, 1, Op2::imm(1)),
            ],
            BlockEnd::Fallthrough,
        );
        // Make the second adds conditional.
        let mut v: Vec<(Insn, Cond)> = b.body.to_vec();
        if let Insn::Dp { ref mut cond, .. } = v[1].0 {
            *cond = Cond::Eq;
        }
        v[1].1 = Cond::Eq;
        b.body = v.into_boxed_slice();
        let t = specialise(&b);
        assert!(matches!(t.body[0].op, Uop::AluFlags { .. }));
        assert!(matches!(t.body[1].op, Uop::AluFlags { .. }));
        assert_eq!(t.body[1].cond, Cond::Eq);
    }

    #[test]
    fn movw_movt_pair_folds_to_one_constant() {
        let b = block(
            vec![
                (
                    Insn::Movw {
                        cond: Cond::Al,
                        rd: Reg::R(8),
                        imm16: 0x9000,
                    },
                    Cond::Al,
                ),
                (
                    Insn::Movt {
                        cond: Cond::Al,
                        rd: Reg::R(8),
                        imm16: 0x1234,
                    },
                    Cond::Al,
                ),
            ],
            BlockEnd::Fallthrough,
        );
        let t = specialise(&b);
        assert_eq!(
            t.body[1].op,
            Uop::MovConst {
                rd: 8,
                imm: 0x1234_9000
            }
        );
    }

    #[test]
    fn compare_branch_fuses_into_the_exit() {
        let b = block(
            vec![
                dp(DpOp::Add, false, 0, 0, Op2::imm(1)),
                dp(DpOp::Sub, true, 7, 7, Op2::imm(1)),
            ],
            BlockEnd::Branch {
                cond: Cond::Ne,
                target: 0x8000,
                link: false,
            },
        );
        let t = specialise(&b);
        assert_eq!(t.body.len(), 1, "subs folded into the exit");
        assert!(matches!(
            t.end,
            UopEnd::FusedBranch {
                op: DpOp::Sub,
                wb: true,
                cond: Cond::Ne,
                target: 0x8000,
                ..
            }
        ));
    }

    #[test]
    fn negative_offsets_fold_to_wrapping_addends() {
        let b = block(
            vec![
                dp(DpOp::Add, false, 0, 0, Op2::imm(1)),
                (
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
            BlockEnd::Fallthrough,
        );
        let t = specialise(&b);
        assert!(matches!(
            t.body[1].op,
            Uop::Load {
                off: MemOff::Const(k),
                ..
            } if k == 8u32.wrapping_neg()
        ));
    }
}
