//! User-mode execution: fetch, decode, execute, take exceptions.
//!
//! Only unprivileged guest code (enclaves and normal-world processes) is
//! executed instruction-by-instruction; the monitor runs at the exception
//! boundaries this loop produces. Exceptions record their cause in the
//! fault-status registers and switch the machine into the appropriate
//! banked mode before returning an [`ExitReason`] to the privileged caller.

use crate::alu::{alu, alu_flags, alu_value, eval_op2, eval_op2_value, shift_value};
use crate::cp15::FaultStatus;
use crate::dcache::{Block, EXIT_FALL, EXIT_TAKEN};
use crate::decode::decode;
use crate::dtlb::DataTlb;
use crate::error::{MemFault, MemFaultKind};
use crate::exn::ExceptionKind;
use crate::insn::{Cond, Insn, LsmMode, MemOffset};
use crate::machine::{cost, Machine, ModelViolation};
use crate::mem::{AccessAttrs, PhysMem};
use crate::mode::{Mode, World};
use crate::psr::Psr;
use crate::ptw::{self, PtwFault};
use crate::regs::{Reg, RegFile};
use crate::uop::{MemOff, Site, Src, Uop, UopEnd, UopTrace};
use crate::word::{page_base, page_offset, Addr, Word, WORD_BYTES};

/// Why user-mode execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitReason {
    /// `SVC` executed; the machine is in Supervisor mode.
    Svc {
        /// The instruction's 24-bit comment field.
        imm24: u32,
    },
    /// An IRQ was taken; the machine is in IRQ mode.
    Irq,
    /// An FIQ was taken; the machine is in FIQ mode.
    Fiq,
    /// A data access faulted; the machine is in Abort mode with
    /// `DFSR`/`DFAR` set.
    DataAbort(MemFault),
    /// Instruction fetch faulted; the machine is in Abort mode with
    /// `IFSR` set.
    PrefetchAbort(Addr),
    /// Undefined instruction (including privileged instructions from user
    /// mode); the machine is in Undefined mode.
    Undefined(Word),
    /// The step budget ran out with no exception; machine still in user
    /// mode (simulation artifact, not an architectural event).
    StepLimit,
}

fn fault_status(kind: MemFaultKind) -> FaultStatus {
    match kind {
        MemFaultKind::Translation => FaultStatus::Translation,
        MemFaultKind::Permission => FaultStatus::Permission,
        MemFaultKind::Unaligned => FaultStatus::Alignment,
        MemFaultKind::Unmapped | MemFaultKind::SecurityViolation => FaultStatus::External,
    }
}

impl Machine {
    /// Translates a user-mode virtual address for the current world,
    /// consulting and filling the TLB, and checking permissions.
    ///
    /// Returns the physical address and the bus attributes the access
    /// carries: a secure-world access through an `NS`-tagged mapping is
    /// driven onto the bus as non-secure (§3.3).
    pub fn translate_user(
        &mut self,
        va: Addr,
        write: bool,
        exec: bool,
    ) -> Result<(Addr, AccessAttrs), MemFault> {
        let world = self.world();
        let ttbr0 = self.cp15.mmu(world).ttbr0;
        // The software data-TLB fronts the architectural TLB map: a hit
        // accounts the TLB hit the map probe would have recorded (the
        // entry is provably still in the TLB — see `crate::dtlb`), and
        // the permission check below still runs per access.
        let t = match self.dtlb.lookup_translation(va, world, ttbr0) {
            Some(t) => {
                self.tlb.hits += 1;
                t
            }
            None => {
                let t = match self.tlb.lookup(va, world) {
                    Some(t) => t,
                    None => {
                        self.charge(cost::TLB_WALK);
                        // Count the miss here, at the walk site, so that
                        // faulting walks (which never reach `insert`) are
                        // included — they charged `cost::TLB_WALK` like
                        // any other walk.
                        self.tlb.note_walk();
                        match ptw::walk(&mut self.mem, ttbr0, va) {
                            Ok(t) => {
                                self.tlb.insert(va, world, t);
                                t
                            }
                            Err(PtwFault::Translation) => {
                                return Err(MemFault::new(va, MemFaultKind::Translation, write));
                            }
                            Err(PtwFault::External(f)) => return Err(f),
                        }
                    }
                };
                self.dtlb.fill(va, world, ttbr0, t);
                t
            }
        };
        ptw::check_access(&t, va, write, exec)?;
        let pa = (t.pa & !0xfff) | (va & 0xfff);
        let attrs = AccessAttrs {
            secure: world == World::Secure && !t.ns,
            privileged: false,
        };
        Ok((pa, attrs))
    }

    /// Runs user-mode code from the current `pc` until an exception or the
    /// step budget is exhausted.
    ///
    /// Model contract (enforced, mirroring the specification's
    /// preconditions): the machine must be in user mode with a consistent
    /// TLB.
    pub fn run_user(&mut self, max_steps: u64) -> Result<ExitReason, ModelViolation> {
        if self.cpsr.mode != Mode::User {
            return Err(ModelViolation::NotUserMode);
        }
        if !self.tlb.is_consistent() {
            return Err(ModelViolation::TlbInconsistent);
        }
        // `irq_at`/`fiq_at` are set only between runs, so the earliest
        // cycle either could fire is loop-invariant: one compare per step
        // replaces the two `Option` tests on the hot path.
        let fiq_deadline = self.fiq_at.unwrap_or(u64::MAX);
        let irq_deadline = self.irq_at.unwrap_or(u64::MAX);
        let wake = fiq_deadline.min(irq_deadline);
        let mut need_first_cycle = self.first_user_insn_cycle.is_none();
        // The TrustZone world and fetch TTBR0 are fixed for the whole run:
        // user code cannot switch mode, `SCR.NS` or `TTBR0` without an
        // exception, and every exception path exits this loop.
        let world = self.world();
        let ttbr0 = self.cp15.mmu(world).ttbr0;
        if world == World::Secure {
            self.accel.note_secure_run();
        }
        let mut steps_left = max_steps;
        // Compiled blocks run only whole. Once a dispatched block does not
        // fit in the remaining budget or before the wake deadline, the
        // rest of the call steps per instruction: a trace cannot stop
        // mid-body (see `step_superblock`), and dispatching again would
        // only build suffix blocks for a tail shorter than one block.
        let mut blocks = true;
        while steps_left > 0 {
            // Pending interrupts are taken before the next instruction;
            // FIQ has priority.
            if self.cycles >= wake {
                if self.cycles >= fiq_deadline && !self.cpsr.fiq_masked {
                    self.take_exception(ExceptionKind::Fiq, self.pc);
                    return Ok(ExitReason::Fiq);
                }
                if self.cycles >= irq_deadline && !self.cpsr.irq_masked {
                    self.take_exception(ExceptionKind::Irq, self.pc);
                    return Ok(ExitReason::Irq);
                }
            }
            if need_first_cycle {
                self.first_user_insn_cycle = Some(self.cycles);
                need_first_cycle = false;
            }
            // Block fast path: a whole compiled trace retires with one
            // validation and batched accounting.
            if blocks {
                match self.step_superblock(world, ttbr0, wake, steps_left) {
                    Dispatch::Ran(n) => {
                        steps_left -= n;
                        continue;
                    }
                    Dispatch::Step => {}
                    Dispatch::Tail => blocks = false,
                }
            }
            match self.step(world, ttbr0) {
                StepOutcome::Continue => {}
                StepOutcome::Exit(reason) => return Ok(reason),
            }
            steps_left -= 1;
        }
        Ok(ExitReason::StepLimit)
    }

    /// Dispatches the block at the current PC and runs its compiled trace
    /// whole. Equivalence with per-instruction stepping:
    ///
    /// - **Fit**: the per-insn loop compares `cycles >= wake` before every
    ///   instruction and stops when the step budget runs out. The trace
    ///   runs only if `cycles + max_charge < wake` and its `steps` fit in
    ///   `steps_left`, both worst cases over the whole fall-through path;
    ///   cycles grow monotonically, so every intermediate wake compare
    ///   would also have been false, and the budget cannot run out inside
    ///   the trace, whichever exit it leaves by. A block that does not fit
    ///   returns [`Dispatch::Tail`]: a trace cannot stop at an arbitrary
    ///   body entry, because dead-flag elimination leaves `CPSR` exact
    ///   only at memory ops, side exits and the end (see [`crate::uop`]).
    /// - **Accounting**: each retired instruction pays one TLB hit, one
    ///   instruction read and `cost::INSN` — precisely the per-insn hot
    ///   path's charges (the build-time hot-fetch validation carries the
    ///   proof; see `FetchAccel::sb_build`) — plus `cost::MUL` per
    ///   *executed* multiply and `cost::BRANCH_TAKEN` for a taken side
    ///   exit or ending branch, accumulated by the runner and added in
    ///   one batch.
    /// - **Memory**: an executed load/store pays one *additional* TLB hit
    ///   and `cost::MEM`, and performs the actual `PhysMem` access (which
    ///   bumps the read/write counters itself) — bit-for-bit the per-insn
    ///   `user_load`/`user_store` accounting on their hit path. The TLB
    ///   hit is sound for the same reason the fetch side's is: a data-TLB
    ///   entry proves TLB residency (see `crate::dtlb`). The access is
    ///   attempted *before* anything about the instruction is committed
    ///   (a refused or faulting `PhysMem` access has no side effects), so
    ///   on any hazard — data-TLB miss, permission refusal, misalignment,
    ///   partially-backed page — the trace stops at the already-retired
    ///   prefix and the per-insn path replays the instruction from
    ///   scratch: same translation (and TLB hit), same `cost::MEM` charge,
    ///   same fault raised at the same state. A store that bumps the code
    ///   generation (self-modifying code through the data path) retires,
    ///   then stops the trace the same way so no possibly-stale micro-op
    ///   after it executes. A trace stopping at a hazard before retiring
    ///   anything returns [`Dispatch::Step`], so the per-insn step
    ///   guarantees progress (and refills the data-TLB); a taken side
    ///   exit, or a lone-branch block's empty body, is no such stop.
    /// - **Chaining**: `run_uop_trace` may hop into further traces
    ///   confirmed in the current translation epoch; each hop re-checks
    ///   the fit for its trace, so the retired count is what repeated
    ///   dispatches would return.
    fn step_superblock(
        &mut self,
        world: World,
        ttbr0: Addr,
        wake: u64,
        steps_left: u64,
    ) -> Dispatch {
        let gen_entry = self.mem.code_gen();
        let cycle_now = self.cycles;
        let Some(id) =
            self.accel
                .sb_dispatch(self.pc, world, ttbr0, gen_entry, &mut self.trace, cycle_now)
        else {
            return Dispatch::Step;
        };
        // Split borrows: the block stays shared-borrowed from the
        // accelerator while the disjoint architectural fields are mutated.
        let Machine {
            accel,
            dtlb,
            regs,
            cpsr,
            pc,
            mem,
            tlb,
            cycles,
            ..
        } = self;
        let b = &accel.sb_blocks()[id as usize];
        if b.trace.steps > steps_left || *cycles + b.max_charge >= wake {
            accel.sb_note_exit(id, None, 0);
            return Dispatch::Tail;
        }
        let run = run_uop_trace(
            accel.sb_blocks(),
            id,
            gen_entry,
            wake - *cycles,
            steps_left,
            world,
            ttbr0,
            regs,
            cpsr,
            pc,
            mem,
            dtlb,
        );
        if run.retired == 0 {
            accel.sb_note_exit(id, None, 0);
            return Dispatch::Step;
        }
        tlb.note_hits(run.retired + run.data_hits);
        mem.note_reads(run.retired);
        *cycles += run.retired * cost::INSN + run.extra;
        accel.sb_note_uop_run(run.hops);
        accel.sb_note_exit(run.last, run.exit, run.retired);
        Dispatch::Ran(run.retired)
    }

    /// Translates the fetch of `pc`, consulting the accelerator's one-entry
    /// last-code-page cache before the TLB.
    ///
    /// A cache hit accounts one TLB hit: the entry was formed by a
    /// successful [`Machine::translate_user`], the TLB evicts only on a
    /// full flush, and a flush drops this cache — so the TLB provably still
    /// holds the entry and the uncached path would have hit it. World and
    /// `TTBR0` are re-validated on every use, so the replayed translation
    /// (and the permission check baked into it) is exactly what the
    /// uncached path would recompute.
    fn fetch_translate(
        &mut self,
        pc: Addr,
        world: World,
        ttbr0: Addr,
    ) -> Result<(Addr, AccessAttrs), MemFault> {
        if let Some(hit) = self.accel.fetch_tc_lookup(pc, world, ttbr0) {
            self.tlb.hits += 1;
            return Ok(hit);
        }
        let r = self.translate_user(pc, false, true);
        if let Ok((pa, attrs)) = r {
            self.accel.fetch_tc_fill(pc, pa, attrs, world, ttbr0);
        }
        r
    }

    fn step(&mut self, world: World, ttbr0: Addr) -> StepOutcome {
        let pc = self.pc;
        // Fused fast path: translation and decoded page validated in one
        // compare chain. A hit accounts the same TLB hit, instruction
        // cycle and memory read the full path below records — see
        // `FetchAccel::hot_fetch` for the validity argument.
        if let Some((word, insn, cond)) = self.accel.hot_fetch(pc, world, ttbr0, &self.mem) {
            self.tlb.hits += 1;
            self.charge(cost::INSN);
            self.mem.reads += 1;
            if !cond_holds(self.cpsr, cond) {
                self.pc = pc.wrapping_add(4);
                return StepOutcome::Continue;
            }
            return self.execute(insn, word);
        }
        // Fetch.
        let (ppc, fattrs) = match self.fetch_translate(pc, world, ttbr0) {
            Ok(x) => x,
            Err(f) => {
                self.cp15.ifsr = fault_status(f.kind);
                self.take_exception(ExceptionKind::PrefetchAbort, pc);
                return StepOutcome::Exit(ExitReason::PrefetchAbort(pc));
            }
        };
        self.charge(cost::INSN);
        // Decode, via the per-page decode cache when possible. A cache hit
        // bumps `mem.reads` itself; a `None` fall-through performs the
        // plain counted read, so the counters agree bit-for-bit. The cache
        // also carries the precomputed condition field (`Insn::cond` is a
        // pure function of the word, so caching it is invisible).
        let (word, insn, cond) = match self.accel.fetch(&mut self.mem, ppc, fattrs) {
            Some(e) => e,
            None => match self.mem.read(ppc, fattrs) {
                Ok(w) => {
                    let i = decode(w);
                    (w, i, i.cond())
                }
                Err(_) => {
                    self.cp15.ifsr = FaultStatus::External;
                    self.take_exception(ExceptionKind::PrefetchAbort, pc);
                    return StepOutcome::Exit(ExitReason::PrefetchAbort(pc));
                }
            },
        };
        if !cond_holds(self.cpsr, cond) {
            self.pc = pc.wrapping_add(4);
            return StepOutcome::Continue;
        }
        self.execute(insn, word)
    }

    fn undefined(&mut self, word: Word) -> StepOutcome {
        self.take_exception(ExceptionKind::Undefined, self.pc.wrapping_add(4));
        StepOutcome::Exit(ExitReason::Undefined(word))
    }

    fn data_abort(&mut self, f: MemFault) -> StepOutcome {
        self.cp15.dfsr = fault_status(f.kind);
        self.cp15.dfar = f.addr;
        self.take_exception(ExceptionKind::DataAbort, self.pc);
        StepOutcome::Exit(ExitReason::DataAbort(f))
    }

    fn user_load(&mut self, va: Addr, byte: bool) -> Result<Word, MemFault> {
        let (pa, attrs) = self.translate_user(va, false, false)?;
        self.charge(cost::MEM);
        if byte {
            self.mem.read_byte(pa, attrs).map(|b| b as u32)
        } else {
            self.mem.read(pa, attrs)
        }
    }

    fn user_store(&mut self, va: Addr, val: Word, byte: bool) -> Result<(), MemFault> {
        let (pa, attrs) = self.translate_user(va, true, false)?;
        self.charge(cost::MEM);
        if byte {
            self.mem.write_byte(pa, val as u8, attrs)
        } else {
            self.mem.write(pa, val, attrs)
        }
    }

    fn execute(&mut self, insn: Insn, word: Word) -> StepOutcome {
        let next = self.pc.wrapping_add(4);
        match insn {
            Insn::Dp { .. }
            | Insn::Mul { .. }
            | Insn::Movw { .. }
            | Insn::Movt { .. }
            | Insn::Mrs { .. } => {
                let mode = self.cpsr.mode;
                let extra = exec_straightline(&mut self.regs, &mut self.cpsr, mode, insn);
                self.charge(extra);
                self.pc = next;
            }
            Insn::Ldr {
                rd, rn, off, byte, ..
            } => {
                let va = self.mem_ea(rn, off);
                match self.user_load(va, byte) {
                    Ok(v) => {
                        self.set_reg(rd, v);
                        self.pc = next;
                    }
                    Err(f) => return self.data_abort(f),
                }
            }
            Insn::Str {
                rd, rn, off, byte, ..
            } => {
                let va = self.mem_ea(rn, off);
                let v = self.reg(rd);
                match self.user_store(va, v, byte) {
                    Ok(()) => self.pc = next,
                    Err(f) => return self.data_abort(f),
                }
            }
            Insn::Ldm {
                rn,
                writeback,
                regs,
                mode,
                ..
            } => {
                let n = regs.count_ones();
                let base = self.reg(rn);
                let start = match mode {
                    LsmMode::Ia => base,
                    LsmMode::Db => base.wrapping_sub(4 * n),
                };
                // Base-in-list semantics are pinned: with the base in the
                // list the loaded value ends up in Rn (writeback forms
                // with the base listed are rejected at decode, so the
                // load can never be silently clobbered by writeback).
                let mut addr = start;
                for i in 0..15u8 {
                    if regs & (1 << i) != 0 {
                        let r = Reg::from_index(i).expect("bit 15 excluded by decode");
                        match self.user_load(addr, false) {
                            Ok(v) => self.set_reg(r, v),
                            Err(f) => return self.data_abort(f),
                        }
                        addr = addr.wrapping_add(4);
                    }
                }
                debug_assert!(!writeback || regs & (1 << rn.index()) == 0);
                if writeback {
                    let nb = match mode {
                        LsmMode::Ia => base.wrapping_add(4 * n),
                        LsmMode::Db => start,
                    };
                    self.set_reg(rn, nb);
                }
                self.pc = next;
            }
            Insn::Stm {
                rn,
                writeback,
                regs,
                mode,
                ..
            } => {
                let n = regs.count_ones();
                let base = self.reg(rn);
                let start = match mode {
                    LsmMode::Ia => base,
                    LsmMode::Db => base.wrapping_sub(4 * n),
                };
                // Base-in-list semantics are pinned: the *original* base
                // value is stored (writeback happens after all stores, and
                // decode rejects writeback forms with the base listed).
                let mut addr = start;
                for i in 0..15u8 {
                    if regs & (1 << i) != 0 {
                        let r = Reg::from_index(i).expect("bit 15 excluded by decode");
                        let v = self.reg(r);
                        if let Err(f) = self.user_store(addr, v, false) {
                            return self.data_abort(f);
                        }
                        addr = addr.wrapping_add(4);
                    }
                }
                debug_assert!(!writeback || regs & (1 << rn.index()) == 0);
                if writeback {
                    let nb = match mode {
                        LsmMode::Ia => base.wrapping_add(4 * n),
                        LsmMode::Db => start,
                    };
                    self.set_reg(rn, nb);
                }
                self.pc = next;
            }
            Insn::B { offset, .. } => {
                self.charge(cost::BRANCH_TAKEN);
                self.pc = self
                    .pc
                    .wrapping_add(8)
                    .wrapping_add((offset as u32).wrapping_mul(4));
            }
            Insn::Bl { offset, .. } => {
                self.charge(cost::BRANCH_TAKEN);
                self.set_reg(Reg::Lr, next);
                self.pc = self
                    .pc
                    .wrapping_add(8)
                    .wrapping_add((offset as u32).wrapping_mul(4));
            }
            Insn::Bx { rm, .. } => {
                let target = self.reg(rm);
                if target & 1 != 0 {
                    return self.undefined(word); // Thumb interworking unmodelled.
                }
                self.charge(cost::BRANCH_TAKEN);
                self.pc = target;
            }
            Insn::Svc { imm24, .. } => {
                self.take_exception(ExceptionKind::Svc, next);
                return StepOutcome::Exit(ExitReason::Svc { imm24 });
            }
            // Privileged instructions from user mode are undefined; so is
            // anything outside the modelled subset.
            Insn::Smc { .. } | Insn::Mcr { .. } | Insn::Mrc { .. } => {
                return self.undefined(word);
            }
            Insn::Udf { .. } | Insn::Unknown(_) => return self.undefined(word),
        }
        StepOutcome::Continue
    }

    fn mem_ea(&self, rn: Reg, off: MemOffset) -> Addr {
        mem_ea_regs(&self.regs, self.cpsr.mode, rn, off)
    }
}

/// Load/store effective address (offset addressing, `P=1 W=0` — the only
/// form the decoder admits).
#[inline]
fn mem_ea_regs(regs: &RegFile, mode: Mode, rn: Reg, off: MemOffset) -> Addr {
    let base = regs.get(mode, rn);
    match off {
        MemOffset::Imm { imm12, add } => {
            if add {
                base.wrapping_add(imm12 as u32)
            } else {
                base.wrapping_sub(imm12 as u32)
            }
        }
        MemOffset::Reg { rm, add } => {
            let o = regs.get(mode, rm);
            if add {
                base.wrapping_add(o)
            } else {
                base.wrapping_sub(o)
            }
        }
    }
}

enum StepOutcome {
    Continue,
    Exit(ExitReason),
}

/// What `Machine::step_superblock` did at the current PC.
enum Dispatch {
    /// A compiled trace ran and retired this many instructions.
    Ran(u64),
    /// No trace ran here (no block, or a hazard on its first op): step
    /// this one instruction, then dispatch again.
    Step,
    /// The dispatched block does not fit whole in the remaining step
    /// budget or before the wake deadline: step per instruction for the
    /// rest of the call.
    Tail,
}

/// Whether condition `cond` passes under the flags in `p` (ARM ARM A8.3).
#[inline]
fn cond_holds(p: Psr, cond: Cond) -> bool {
    match cond {
        Cond::Eq => p.z,
        Cond::Ne => !p.z,
        Cond::Cs => p.c,
        Cond::Cc => !p.c,
        Cond::Mi => p.n,
        Cond::Pl => !p.n,
        Cond::Vs => p.v,
        Cond::Vc => !p.v,
        Cond::Hi => p.c && !p.z,
        Cond::Ls => !p.c || p.z,
        Cond::Ge => p.n == p.v,
        Cond::Lt => p.n != p.v,
        Cond::Gt => !p.z && p.n == p.v,
        Cond::Le => p.z || p.n != p.v,
        Cond::Al => true,
    }
}

/// Executes one block-safe straight-line instruction (data-processing,
/// multiply, `MOVW`/`MOVT`, `MRS`) against the register file and PSR, and
/// returns the cycles it charges beyond the base `cost::INSN`. The
/// instructions handled here can neither fault nor write the PC
/// (PC-destination encodings decode to [`Insn::Unknown`]), which is
/// exactly what makes them block-safe.
#[inline]
fn exec_straightline(regs: &mut RegFile, cpsr: &mut Psr, mode: Mode, insn: Insn) -> u64 {
    match insn {
        Insn::Dp {
            op, s, rd, rn, op2, ..
        } => {
            if !s && !op.is_compare() {
                // Flags-free fast path: skip the NZCV computation the
                // full ALU always performs. `alu_value` is proven
                // equivalent to `alu(..).value` by the
                // `dp_value_path_matches_full_alu` test.
                let carry = cpsr.c;
                let v = alu_value(
                    op,
                    regs.get(mode, rn),
                    eval_op2_value(op2, |r| regs.get(mode, r)),
                    carry,
                );
                regs.set(mode, rd, v);
            } else {
                let carry = cpsr.c;
                let sh = eval_op2(op2, carry, |r| regs.get(mode, r));
                let res = alu(op, regs.get(mode, rn), sh, *cpsr);
                if let Some(v) = res.value {
                    regs.set(mode, rd, v);
                }
                cpsr.n = res.n;
                cpsr.z = res.z;
                cpsr.c = res.c;
                cpsr.v = res.v;
            }
            0
        }
        Insn::Mul { s, rd, rm, rs, .. } => {
            let v = regs.get(mode, rm).wrapping_mul(regs.get(mode, rs));
            regs.set(mode, rd, v);
            if s {
                cpsr.n = v & 0x8000_0000 != 0;
                cpsr.z = v == 0;
            }
            cost::MUL
        }
        Insn::Movw { rd, imm16, .. } => {
            regs.set(mode, rd, imm16 as u32);
            0
        }
        Insn::Movt { rd, imm16, .. } => {
            let lo = regs.get(mode, rd) & 0xffff;
            regs.set(mode, rd, ((imm16 as u32) << 16) | lo);
            0
        }
        Insn::Mrs { rd, .. } => {
            regs.set(mode, rd, cpsr.encode());
            0
        }
        _ => unreachable!("not a straight-line instruction: {insn:?}"),
    }
}

/// Effective address of a micro-op memory access over the flat register
/// copy (immediate offsets were pre-negated at specialisation time, so
/// one wrapping add covers both signs — equivalent to `mem_ea_regs`).
#[inline]
fn uop_ea(r: &[Word; 15], base: u8, off: MemOff) -> Addr {
    let b = r[base as usize];
    match off {
        MemOff::Const(k) => b.wrapping_add(k),
        MemOff::Reg(rm) => b.wrapping_add(r[rm as usize]),
        MemOff::RegNeg(rm) => b.wrapping_sub(r[rm as usize]),
    }
}

/// The per-site inlined data-TLB probe: one compare against the site's
/// cached VA page, refilled from the real data-TLB on mismatch. A site
/// hit replays exactly what `DataTlb::lookup_data` would return — the
/// entry was formed from a lookup under the same `(world, TTBR0)` the
/// trace is keyed by, in the current translation epoch (a block kept
/// from an earlier epoch has its sites reset when it is confirmed, and
/// the runner hops only into confirmed blocks), so the architectural TLB
/// still holds it; and the verdict for this site's access kind was
/// checked at fill time — so accounting one TLB hit per access stays
/// exact.
#[inline]
fn site_lookup(
    t: &UopTrace,
    site: u16,
    va: Addr,
    world: World,
    ttbr0: Addr,
    dtlb: &mut DataTlb,
    write: bool,
) -> Option<(Addr, AccessAttrs)> {
    let cell = &t.sites[site as usize];
    if let Some(s) = cell.get() {
        if s.va_page == page_base(va) {
            return Some((s.pa_page | page_offset(va), s.attrs));
        }
    }
    let (pa, attrs) = dtlb.lookup_data(va, world, ttbr0, write)?;
    cell.set(Some(Site {
        va_page: page_base(va),
        pa_page: page_base(pa),
        attrs,
    }));
    Some((pa, attrs))
}

/// What one `run_uop_trace` call retired, for the caller to
/// batch-account.
struct UopRun {
    /// Instructions retired across every pass; 0 means a first-op hazard
    /// left the machine untouched (the caller falls back to
    /// per-instruction stepping).
    retired: u64,
    /// Data accesses served (one extra TLB hit each).
    data_hits: u64,
    /// Cycles charged beyond `cost::INSN` per retired instruction.
    extra: u64,
    /// Successor links the runner followed into further traces.
    hops: u64,
    /// The block whose trace ran last: the next dispatch's chain source.
    last: u32,
    /// The exit index that trace left by (`None` after a mid-trace stop).
    exit: Option<u8>,
}

/// Executes the compiled trace of block `id` over a flat copy of the
/// user-visible registers and a local PSR, committing the exactly
/// retired prefix.
///
/// A pass runs the body down its fall-through path. A side exit whose
/// condition holds retires, charges the taken branch and ends the pass
/// at its target, leaving by its own exit index; otherwise the pass ends
/// at the trace's end, which leaves by `EXIT_FALL` or, through a taken
/// ending branch, `EXIT_TAKEN`.
///
/// **Linked chaining.** When a pass exits, the runner follows the exiting
/// block's successor link for that exit index (`Block::succ[exit]`,
/// recorded by the dispatcher) straight into the next trace — no commit, no
/// re-dispatch, no regfile round-trip — but only while every check the
/// dispatcher would make for that trace still holds: its entry VA, world
/// and `TTBR0` match the new PC and the run's context; it was built or
/// confirmed in the current translation epoch, which is the epoch of the
/// trace being left (the dispatcher confirmed the first trace, and every
/// hop keeps this invariant; a block kept from an earlier epoch is
/// confirmed only by the dispatcher); the remaining step
/// budget covers a whole pass (`UopTrace::steps`, the dispatcher's fit
/// check); and the accumulated cycle charge plus the target's worst-case
/// pass still ends before the wake deadline (`cost + max_charge <
/// cycle_budget`, the wake-hoisting guard with the dispatch-time cycle
/// count folded into `cycle_budget`). The code generation cannot have
/// moved: a store that bumps it stops the chain first. Anything else
/// commits and returns to the dispatcher, which re-checks the same
/// conditions — so a hop is exactly the dispatch it replaces, and
/// chaining is invisible to the cycle model. A link is only a probe
/// shortcut, re-validated on every hop; it can even lead elsewhere than
/// the exit's PC, when the dispatcher recorded it across a run boundary
/// where the PC changed. A self-loop is the link back to the same trace;
/// once it has passed these checks, later passes through the same exit
/// re-check only the two budget guards, because nothing else the checks
/// read can change inside one call (only the dispatcher writes blocks
/// and links, and an exit's PC is static per trace: a side exit's and a
/// taken branch's is its target, a fall-through's the address after the
/// body).
///
/// Mid-trace stops happen only at memory micro-ops (hazard) or right
/// after a code-generation bump — points where the compiler's flag
/// liveness forced every earlier flag write to materialise — so the
/// committed PSR at any stop is bit-for-bit the per-instruction one. A
/// stop ends the chain at the exactly-retired prefix of the trace it
/// happened in.
#[allow(clippy::too_many_arguments)]
fn run_uop_trace(
    blocks: &[Block],
    mut id: u32,
    gen_entry: u64,
    cycle_budget: u64,
    steps_left: u64,
    world: World,
    ttbr0: Addr,
    regs: &mut RegFile,
    cpsr: &mut Psr,
    pc: &mut Addr,
    mem: &mut PhysMem,
    dtlb: &mut DataTlb,
) -> UopRun {
    let mut t = &blocks[id as usize].trace;
    let mut r = regs.user_visible();
    let mut psr = *cpsr;
    let mut total = 0u64;
    let mut data_hits = 0u64;
    let mut extra = 0u64;
    let mut hops = 0u64;
    let mut pc_cur = *pc;
    // The current trace's worst-case pass, and the exit (if any) whose
    // link back to this trace has already passed the hop checks.
    let mut max_charge = blocks[id as usize].max_charge;
    let mut self_exit = None;
    let final_exit = 'chain: loop {
        let mut n_ret = 0u64;
        let mut stopped = false;
        let mut side = None;
        for e in t.body.iter() {
            if e.cond != Cond::Al && !cond_holds(psr, e.cond) {
                n_ret += 1;
                continue;
            }
            match e.op {
                Uop::AddImm { rd, rn, imm } => r[rd as usize] = r[rn as usize].wrapping_add(imm),
                Uop::SubImm { rd, rn, imm } => r[rd as usize] = r[rn as usize].wrapping_sub(imm),
                Uop::AddReg { rd, rn, rm } => {
                    r[rd as usize] = r[rn as usize].wrapping_add(r[rm as usize]);
                }
                Uop::EorReg { rd, rn, rm } => r[rd as usize] = r[rn as usize] ^ r[rm as usize],
                Uop::MovConst { rd, imm } => r[rd as usize] = imm,
                Uop::InsTop { rd, hi } => r[rd as usize] = (r[rd as usize] & 0xffff) | hi,
                Uop::Alu { op, rd, rn, src } => {
                    let v2 = match src {
                        Src::Imm(v) => v,
                        Src::Reg(rm) => r[rm as usize],
                        // The shifted value never depends on the carry-in
                        // (same `false` as `eval_op2_value`).
                        Src::Shifted { rm, shift, amount } => {
                            shift_value(r[rm as usize], shift, amount, false).value
                        }
                    };
                    r[rd as usize] = alu_value(op, r[rn as usize], v2, psr.c);
                }
                Uop::AluFlags { op, rd, rn, op2 } => {
                    let res =
                        alu_flags(op, r[rn as usize], op2, psr, |reg| r[reg.index() as usize]);
                    if let Some(v) = res.value {
                        r[rd as usize] = v;
                    }
                    psr.n = res.n;
                    psr.z = res.z;
                    psr.c = res.c;
                    psr.v = res.v;
                }
                Uop::MulVal { rd, rm, rs } => {
                    r[rd as usize] = r[rm as usize].wrapping_mul(r[rs as usize]);
                    extra += cost::MUL;
                }
                Uop::MulFlags { rd, rm, rs } => {
                    let v = r[rm as usize].wrapping_mul(r[rs as usize]);
                    r[rd as usize] = v;
                    psr.n = v & 0x8000_0000 != 0;
                    psr.z = v == 0;
                    extra += cost::MUL;
                }
                Uop::ReadCpsr { rd } => r[rd as usize] = psr.encode(),
                Uop::Nop => {}
                Uop::Load {
                    rd,
                    base,
                    off,
                    byte,
                    site,
                } => {
                    let va = uop_ea(&r, base, off);
                    let Some((pa, attrs)) = site_lookup(t, site, va, world, ttbr0, dtlb, false)
                    else {
                        stopped = true;
                        break;
                    };
                    let res = if byte {
                        mem.read_byte(pa, attrs).map(|v| v as Word)
                    } else {
                        mem.read(pa, attrs)
                    };
                    let Ok(v) = res else {
                        stopped = true;
                        break;
                    };
                    r[rd as usize] = v;
                    data_hits += 1;
                    extra += cost::MEM;
                }
                Uop::Store {
                    rd,
                    base,
                    off,
                    byte,
                    site,
                } => {
                    let va = uop_ea(&r, base, off);
                    let Some((pa, attrs)) = site_lookup(t, site, va, world, ttbr0, dtlb, true)
                    else {
                        stopped = true;
                        break;
                    };
                    let v = r[rd as usize];
                    let res = if byte {
                        mem.write_byte(pa, v as u8, attrs)
                    } else {
                        mem.write(pa, v, attrs)
                    };
                    if res.is_err() {
                        stopped = true;
                        break;
                    }
                    data_hits += 1;
                    extra += cost::MEM;
                    if mem.code_gen() != gen_entry {
                        // Self-modifying store: retire it, then stop so no
                        // possibly-stale micro-op after it executes.
                        n_ret += 1;
                        stopped = true;
                        break;
                    }
                }
                Uop::SideExit { target, exit } => {
                    // Its condition held: the branch retires and the pass
                    // leaves here.
                    n_ret += 1;
                    side = Some((target, exit));
                    break;
                }
            }
            n_ret += 1;
        }
        if stopped {
            if total == 0 && n_ret == 0 {
                // First micro-op hit a hazard: the locals were never
                // written, so there is nothing to commit and the caller
                // falls back. (A first-op hazard after a hop commits the
                // completed passes below instead.)
                return UopRun {
                    retired: 0,
                    data_hits: 0,
                    extra: 0,
                    hops: 0,
                    last: id,
                    exit: None,
                };
            }
            total += n_ret;
            pc_cur = pc_cur.wrapping_add(n_ret as u32 * WORD_BYTES);
            break 'chain None;
        }
        total += n_ret;
        let exit = if let Some((target, exit)) = side {
            extra += cost::BRANCH_TAKEN;
            pc_cur = target;
            exit
        } else {
            pc_cur = pc_cur.wrapping_add(n_ret as u32 * WORD_BYTES);
            match t.end {
                UopEnd::Fall => EXIT_FALL,
                UopEnd::Branch { cond, target, link } => {
                    total += 1;
                    if cond_holds(psr, cond) {
                        extra += cost::BRANCH_TAKEN;
                        if link {
                            r[14] = pc_cur.wrapping_add(WORD_BYTES);
                        }
                        pc_cur = target;
                        EXIT_TAKEN
                    } else {
                        pc_cur = pc_cur.wrapping_add(WORD_BYTES);
                        EXIT_FALL
                    }
                }
            }
        };
        // Hop along this exit's link while the dispatcher would run the
        // target's trace whole; otherwise commit and return to it. The
        // dispatcher's two guards for a trace of `steps` steps and
        // worst-case charge `charge`:
        let whole_pass_fits = |steps: u64, charge: u64| {
            steps_left - total >= steps && total * cost::INSN + extra + charge < cycle_budget
        };
        if self_exit == Some(exit) {
            if whole_pass_fits(t.steps, max_charge) {
                hops += 1;
                continue 'chain;
            }
            break 'chain Some(exit);
        }
        let cur = &blocks[id as usize];
        if let Some(next) = cur.succ[exit as usize] {
            let nb = &blocks[next as usize];
            if nb.entry_va == pc_cur
                && nb.world == world
                && nb.ttbr0 == ttbr0
                && nb.epoch == cur.epoch
                && whole_pass_fits(nb.trace.steps, nb.max_charge)
            {
                hops += 1;
                if next == id {
                    self_exit = Some(exit);
                } else {
                    id = next;
                    t = &nb.trace;
                    max_charge = nb.max_charge;
                    self_exit = None;
                }
                continue 'chain;
            }
        }
        break 'chain Some(exit);
    };
    regs.set_user_visible(&r);
    *cpsr = psr;
    *pc = pc_cur;
    UopRun {
        retired: total,
        data_hits,
        extra,
        hops,
        last: id,
        exit: final_exit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psr::Psr;
    use crate::ptw::{l1_coarse_desc, l2_page_desc, PagePerms};

    /// Builds a machine with one code page at VA 0x8000 and one data page
    /// at VA 0x9000, both backed by secure memory, running in secure user
    /// mode (an enclave-like configuration).
    fn guest_machine(code: &[Word]) -> Machine {
        guest_machine_with_perms(code, PagePerms::RX)
    }

    /// As [`guest_machine`], with chosen permissions on the code page
    /// (RWX enables the self-modifying-code tests).
    fn guest_machine_with_perms(code: &[Word], code_perms: PagePerms) -> Machine {
        let mut m = Machine::new();
        m.mem.add_region(0x0000_0000, 0x10_0000, false);
        m.mem.add_region(0x8000_0000, 0x10_0000, true);
        let ttbr0 = 0x8000_0000u32; // L1 table page.
        let l2_page = 0x8000_1000u32;
        let code_pa = 0x8000_2000u32;
        let data_pa = 0x8000_3000u32;
        // VA 0x8000 and 0x9000 share L1 slot 0.
        m.mem
            .write(ttbr0, l1_coarse_desc(l2_page), AccessAttrs::MONITOR)
            .unwrap();
        m.mem
            .write(
                l2_page + (0x8 * 4),
                l2_page_desc(code_pa, code_perms, false),
                AccessAttrs::MONITOR,
            )
            .unwrap();
        m.mem
            .write(
                l2_page + (0x9 * 4),
                l2_page_desc(data_pa, PagePerms::RW, false),
                AccessAttrs::MONITOR,
            )
            .unwrap();
        m.mem.load_words(code_pa, code).unwrap();
        m.cp15.mmu_mut(World::Secure).ttbr0 = ttbr0;
        m.cpsr = Psr::user();
        m.pc = 0x8000;
        m
    }

    use crate::asm::Assembler;

    #[test]
    fn runs_straight_line_code_and_svc() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 5);
        a.add_imm(Reg::R(0), Reg::R(0), 37);
        a.svc(0);
        let mut m = guest_machine(&a.words());
        let exit = m.run_user(100).unwrap();
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 42);
        assert_eq!(m.cpsr.mode, Mode::Supervisor);
    }

    #[test]
    fn loop_with_branch() {
        // r0 = sum 1..=10 via a countdown loop.
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 0);
        a.mov_imm(Reg::R(1), 10);
        let top = a.label();
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.subs_imm(Reg::R(1), Reg::R(1), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let mut m = guest_machine(&a.words());
        let exit = m.run_user(1000).unwrap();
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 55);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x9000);
        a.mov_imm32(Reg::R(0), 0xdead_beef);
        a.str_imm(Reg::R(0), Reg::R(1), 0x10);
        a.ldr_imm(Reg::R(2), Reg::R(1), 0x10);
        a.svc(0);
        let mut m = guest_machine(&a.words());
        m.run_user(100).unwrap();
        assert_eq!(m.regs.get(Mode::User, Reg::R(2)), 0xdead_beef);
    }

    #[test]
    fn store_to_code_page_aborts() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x8000);
        a.str_imm(Reg::R(0), Reg::R(1), 0);
        let mut m = guest_machine(&a.words());
        let exit = m.run_user(100).unwrap();
        assert!(matches!(exit, ExitReason::DataAbort(f) if f.kind == MemFaultKind::Permission));
        assert_eq!(m.cpsr.mode, Mode::Abort);
        assert_eq!(m.cp15.dfsr, FaultStatus::Permission);
        assert_eq!(m.cp15.dfar, 0x8000);
    }

    #[test]
    fn unmapped_va_aborts() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x0010_0000);
        a.ldr_imm(Reg::R(0), Reg::R(1), 0);
        let mut m = guest_machine(&a.words());
        let exit = m.run_user(100).unwrap();
        assert!(matches!(exit, ExitReason::DataAbort(f) if f.kind == MemFaultKind::Translation));
    }

    #[test]
    fn privileged_instructions_undefined_from_user() {
        for word in [
            0xe160_0070u32, /* smc */
            0xee00_0f10,    /* mcr p15 */
        ] {
            let mut m = guest_machine(&[word]);
            let exit = m.run_user(10).unwrap();
            assert!(matches!(exit, ExitReason::Undefined(_)), "{word:#x}");
            assert_eq!(m.cpsr.mode, Mode::Undefined);
        }
    }

    #[test]
    fn unknown_word_undefined() {
        let mut m = guest_machine(&[0xffff_ffff]);
        assert!(matches!(m.run_user(10).unwrap(), ExitReason::Undefined(_)));
    }

    #[test]
    fn irq_preempts_when_unmasked() {
        let mut a = Assembler::new(0x8000);
        let top = a.label();
        a.add_imm(Reg::R(0), Reg::R(0), 1);
        a.b_to(Cond::Al, top);
        let mut m = guest_machine(&a.words());
        m.irq_at = Some(m.cycles + 50);
        let exit = m.run_user(1_000_000).unwrap();
        assert_eq!(exit, ExitReason::Irq);
        assert_eq!(m.cpsr.mode, Mode::Irq);
        // The interrupted PC is preserved in LR_irq for resumption.
        let lr = m.regs.lr_banked(crate::regs::Bank::Irq);
        assert!((0x8000..0x8008).contains(&lr));
    }

    #[test]
    fn step_limit_returns_without_exception() {
        let mut a = Assembler::new(0x8000);
        let top = a.label();
        a.b_to(Cond::Al, top);
        let mut m = guest_machine(&a.words());
        assert_eq!(m.run_user(10).unwrap(), ExitReason::StepLimit);
        assert_eq!(m.cpsr.mode, Mode::User);
    }

    #[test]
    fn run_user_enforces_model_contract() {
        let mut m = guest_machine(&[0xe320_f000]);
        m.tlb.mark_inconsistent();
        assert_eq!(m.run_user(1), Err(ModelViolation::TlbInconsistent));
        m.tlb.flush();
        m.cpsr = Psr::privileged(Mode::Monitor);
        assert_eq!(m.run_user(1), Err(ModelViolation::NotUserMode));
    }

    #[test]
    fn svc_return_address_resumes_after_svc() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 1);
        a.svc(0);
        a.mov_imm(Reg::R(0), 2);
        a.svc(0);
        let mut m = guest_machine(&a.words());
        assert!(matches!(m.run_user(100).unwrap(), ExitReason::Svc { .. }));
        assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 1);
        // Monitor-style resume: exception return continues after the SVC.
        m.exception_return().unwrap();
        assert!(matches!(m.run_user(100).unwrap(), ExitReason::Svc { .. }));
        assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 2);
    }

    #[test]
    fn function_call_with_bl_bx() {
        let mut a = Assembler::new(0x8000);
        let call = a.bl_fixup(Cond::Al);
        a.svc(0);
        let func = a.here();
        a.fix_branch(call, func);
        a.mov_imm(Reg::R(0), 99);
        a.bx(Reg::Lr);
        let mut m = guest_machine(&a.words());
        m.run_user(100).unwrap();
        assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 99);
    }

    #[test]
    fn push_pop_with_stack() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::Sp, 0xa000); // Top of data page.
        a.mov_imm(Reg::R(4), 11);
        a.mov_imm(Reg::R(5), 22);
        a.push(&[Reg::R(4), Reg::R(5)]);
        a.mov_imm(Reg::R(4), 0);
        a.mov_imm(Reg::R(5), 0);
        a.pop(&[Reg::R(4), Reg::R(5)]);
        a.svc(0);
        let mut m = guest_machine(&a.words());
        m.run_user(100).unwrap();
        assert_eq!(m.regs.get(Mode::User, Reg::R(4)), 11);
        assert_eq!(m.regs.get(Mode::User, Reg::R(5)), 22);
        assert_eq!(m.regs.get(Mode::User, Reg::Sp), 0xa000);
    }

    #[test]
    fn conditional_execution_skips() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 1);
        a.cmp_imm(Reg::R(0), 2);
        a.emit(Insn::Dp {
            cond: Cond::Eq, // Not taken.
            op: crate::insn::DpOp::Mov,
            s: false,
            rd: Reg::R(1),
            rn: Reg::R(0),
            op2: crate::insn::Op2::imm(7),
        });
        a.svc(0);
        let mut m = guest_machine(&a.words());
        m.run_user(100).unwrap();
        assert_eq!(m.regs.get(Mode::User, Reg::R(1)), 0);
    }

    #[test]
    fn tlb_caches_translations() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x9000);
        for i in 0..8 {
            a.str_imm(Reg::R(0), Reg::R(1), (i * 4) as u16);
        }
        a.svc(0);
        let mut m = guest_machine(&a.words());
        m.run_user(100).unwrap();
        // One walk for the code page, one for the data page; the rest hit.
        assert_eq!(m.tlb.misses, 2);
        assert!(m.tlb.hits > 8);
    }

    /// Regression: a walk that *faults* must still count as a TLB miss —
    /// it charged `cost::TLB_WALK` like any successful walk. The miss used
    /// to be counted in `Tlb::insert`, which faulting walks never reach.
    #[test]
    fn faulting_walk_counts_as_tlb_miss() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x0010_0000); // Unmapped VA.
        a.ldr_imm(Reg::R(0), Reg::R(1), 0);
        let mut m = guest_machine(&a.words());
        let exit = m.run_user(100).unwrap();
        assert!(matches!(exit, ExitReason::DataAbort(_)));
        // One successful walk (code page) + one faulting walk (bad VA).
        assert_eq!(m.tlb.misses, 2);
    }

    /// LDM with the base register in the list (no writeback) is pinned:
    /// the loaded value ends up in the base register.
    #[test]
    fn ldm_base_in_list_gets_loaded_value() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x9000);
        a.emit(Insn::Ldm {
            cond: Cond::Al,
            rn: Reg::R(1),
            writeback: false,
            regs: 0b0111, // r0, r1 (the base), r2.
            mode: LsmMode::Ia,
        });
        a.svc(0);
        let mut m = guest_machine(&a.words());
        m.mem.load_words(0x8000_3000, &[10, 20, 30]).unwrap();
        m.run_user(100).unwrap();
        assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 10);
        assert_eq!(m.regs.get(Mode::User, Reg::R(1)), 20, "loaded value wins");
        assert_eq!(m.regs.get(Mode::User, Reg::R(2)), 30);
    }

    /// STM with the base register in the list (no writeback) is pinned:
    /// the *original* base value is what reaches memory.
    #[test]
    fn stm_base_in_list_stores_original_base() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x9000);
        a.mov_imm(Reg::R(0), 5);
        a.mov_imm(Reg::R(2), 6);
        a.emit(Insn::Stm {
            cond: Cond::Al,
            rn: Reg::R(1),
            writeback: false,
            regs: 0b0111,
            mode: LsmMode::Ia,
        });
        a.svc(0);
        let mut m = guest_machine(&a.words());
        m.run_user(100).unwrap();
        assert_eq!(
            m.mem.dump_words(0x8000_3000, 3).unwrap(),
            vec![5, 0x9000, 6],
            "original base must be stored"
        );
    }

    /// The UNPREDICTABLE combination — writeback with the base listed —
    /// is rejected at decode and raises an undefined-instruction
    /// exception, for both LDM and STM.
    #[test]
    fn lsm_writeback_base_in_list_raises_undefined() {
        use crate::encode::encode;
        for load in [true, false] {
            let insn = if load {
                Insn::Ldm {
                    cond: Cond::Al,
                    rn: Reg::R(1),
                    writeback: true,
                    regs: 0b0010, // Base r1 in the list.
                    mode: LsmMode::Ia,
                }
            } else {
                Insn::Stm {
                    cond: Cond::Al,
                    rn: Reg::R(1),
                    writeback: true,
                    regs: 0b0010,
                    mode: LsmMode::Ia,
                }
            };
            let mut m = guest_machine(&[encode(insn)]);
            let exit = m.run_user(10).unwrap();
            assert!(matches!(exit, ExitReason::Undefined(_)), "load={load}");
            assert_eq!(m.cpsr.mode, Mode::Undefined);
        }
    }

    /// A store into the page being executed must be visible to the very
    /// next fetch — the decode cache may never serve a stale instruction.
    /// Run the same self-modifying program with the accelerator on and
    /// off; behaviour and all architectural state must match exactly.
    #[test]
    fn self_modifying_code_invalidates_decode_cache() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x8000); // Code page VA.
        a.mov_imm32(Reg::R(0), 0xe3a0_2007); // Encoding of `mov r2, #7`.
        let slot = a.len() as u16 + 1; // Word index of the slot below.
        a.str_imm(Reg::R(0), Reg::R(1), slot * 4);
        a.mov_imm(Reg::R(2), 99); // The slot: overwritten before it runs.
        a.svc(0);
        let code = a.words();

        let run = |accel: bool| {
            let mut m = guest_machine_with_perms(&code, PagePerms::RWX);
            m.set_fetch_accel(accel);
            let exit = m.run_user(100).unwrap();
            assert_eq!(exit, ExitReason::Svc { imm24: 0 }, "accel={accel}");
            assert_eq!(
                m.regs.get(Mode::User, Reg::R(2)),
                7,
                "stale decode executed (accel={accel})"
            );
            m
        };
        let cached = run(true);
        let uncached = run(false);
        assert!(cached == uncached, "architectural state diverged");
    }

    /// A monitor write (`mon_write`) into a cached code page invalidates
    /// the cached decode, so resumed execution sees the new instruction.
    #[test]
    fn mon_write_into_cached_code_page_invalidates() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 1);
        a.svc(0);
        let mut m = guest_machine(&a.words());
        m.run_user(100).unwrap();
        assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 1);
        assert!(m.accel.served() > 0, "decode cache should have engaged");
        // The monitor rewrites the first instruction to `mov r0, #7`.
        m.mon_write(0x8000_2000, 0xe3a0_0007).unwrap();
        m.exception_return().unwrap();
        m.pc = 0x8000;
        m.run_user(100).unwrap();
        assert_eq!(
            m.regs.get(Mode::User, Reg::R(0)),
            7,
            "stale decode served after monitor write"
        );
    }

    /// `tlb_flush` starts a new translation epoch: it drops the
    /// accelerator's translation entries and the data-TLB (their validity
    /// rests on TLB residency) and keeps the decoded pages and blocks,
    /// which are keyed by physical page and guarded by the code watch.
    /// The re-entered code runs its kept block once the per-instruction
    /// path has translated the page again, without rebuilding it, and
    /// ends bit-for-bit equal to the uncached run. The flight recorder
    /// sees no block drop at the flush; switching the accelerator off
    /// afterwards is the drop, recorded with its own cause.
    #[test]
    fn tlb_flush_keeps_decoded_pages_and_blocks() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(8), 0x9000);
        a.add_imm(Reg::R(0), Reg::R(0), 1);
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.add_imm(Reg::R(1), Reg::R(1), 2);
        a.svc(0);
        let run = |accel: bool| {
            let mut m = guest_machine(&a.words());
            m.set_fetch_accel(accel);
            m.set_trace_capacity(64);
            assert_eq!(m.run_user(100).unwrap(), ExitReason::Svc { imm24: 0 });
            let (pages, blocks, built) = (
                m.accel.cached_pages(),
                m.accel.cached_blocks(),
                m.superblock_stats().built,
            );
            m.tlb_flush();
            if accel {
                assert!(pages > 0 && blocks > 0, "nothing was cached");
                assert_eq!(
                    m.accel.cached_pages(),
                    pages,
                    "flush must keep decoded pages"
                );
                assert_eq!(m.accel.cached_blocks(), blocks, "flush must keep blocks");
                assert!(
                    m.accel
                        .fetch_tc_lookup(0x8000, World::Secure, 0x8000_0000)
                        .is_none(),
                    "flush must drop the fetch translation"
                );
                assert_eq!(m.dtlb.live_entries(), 0, "flush must drop the data-TLB");
            }
            m.exception_return().unwrap();
            m.pc = 0x8000;
            assert_eq!(m.run_user(100).unwrap(), ExitReason::Svc { imm24: 0 });
            let sb_invals = |m: &Machine| -> Vec<String> {
                m.trace
                    .iter()
                    .map(|e| e.event.to_string())
                    .filter(|e| e.starts_with("sb-inval"))
                    .collect()
            };
            assert_eq!(
                sb_invals(&m),
                Vec::<String>::new(),
                "a flush drops no block"
            );
            if accel {
                let s = m.superblock_stats();
                assert_eq!(s.built, built, "the kept block was rebuilt: {s:?}");
                assert_eq!(s.revalidated, blocks as u64, "stats: {s:?}");
                m.set_fetch_accel(false);
                assert_eq!(sb_invals(&m), ["sb-inval cause=toggle"]);
                let s = m.superblock_stats();
                assert_eq!((s.inval_toggle, s.inval_code_gen), (1, 0), "{s:?}");
            }
            m
        };
        let cached = run(true);
        let uncached = run(false);
        assert!(cached == uncached, "architectural state diverged");
    }

    /// An `ldr` from the RX code page primes the accelerator's data-side
    /// translation cache; the `str` through the same mapping must still
    /// abort — permissions are re-checked on every access, cache or not.
    #[test]
    fn data_cache_hit_still_faults_on_write_to_readonly_page() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(8), 0x8000);
        a.ldr_imm(Reg::R(0), Reg::R(8), 0);
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.svc(0);
        let run = |accel: bool| {
            let mut m = guest_machine(&a.words());
            m.set_fetch_accel(accel);
            let exit = m.run_user(100).unwrap();
            (m, exit)
        };
        let (m_on, e_on) = run(true);
        let (m_off, e_off) = run(false);
        assert!(matches!(e_on, ExitReason::DataAbort(_)), "{e_on:?}");
        assert_eq!(e_on, e_off);
        assert!(m_on == m_off, "architectural state diverged");
    }

    /// Runs `code` compiled (the default) and on the uncached reference
    /// interpreter, with `setup` applied to each fresh machine, asserting
    /// both exits, final architectural states and architectural metric
    /// projections are bit-for-bit identical. Returns the compiled
    /// machine (its host-side block statistics are what the edge
    /// regressions assert on).
    fn two_way(
        code: &[Word],
        perms: PagePerms,
        steps: u64,
        setup: impl Fn(&mut Machine),
    ) -> (Machine, ExitReason) {
        let run = |accel: bool| {
            let mut m = guest_machine_with_perms(code, perms);
            m.set_fetch_accel(accel);
            setup(&mut m);
            let exit = m.run_user(steps).unwrap();
            (m, exit)
        };
        let (m_on, e_on) = run(true);
        let (m_off, e_off) = run(false);
        assert_eq!(e_on, e_off, "compiled exit diverged from the interpreter");
        assert_eq!(m_on.cycles, m_off.cycles, "compiled cycles diverged");
        assert_eq!(m_on.tlb.hits, m_off.tlb.hits);
        assert_eq!(m_on.mem.reads, m_off.mem.reads);
        assert_eq!(
            m_on.metrics_snapshot().architectural(),
            m_off.metrics_snapshot().architectural(),
            "compiled architectural metrics diverged from the interpreter"
        );
        assert!(m_on == m_off, "compiled architectural state diverged");
        (m_on, e_on)
    }

    /// A store that overwrites an instruction belonging to the executing
    /// loop's block: the generation bump must kill the block before
    /// its next dispatch, so the rewritten instruction (not the cached
    /// trace) executes — identically to per-instruction stepping.
    #[test]
    fn superblock_self_modifying_store_into_own_block() {
        use crate::encode::encode;
        // Loop body: three ALU instructions (a block) whose middle
        // one is rewritten by the store on the first iteration, then the
        // store + backward branch. The block spans the slot being
        // overwritten while the loop (hence the block) is live.
        let patch = encode(Insn::Dp {
            cond: Cond::Al,
            op: crate::insn::DpOp::Add,
            s: false,
            rd: Reg::R(2),
            rn: Reg::R(2),
            op2: crate::insn::Op2::imm(5),
        });
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x8000); // Code page VA.
        a.mov_imm32(Reg::R(0), patch);
        a.mov_imm(Reg::R(6), 3); // Loop counter.
        let top = a.label();
        a.add_imm(Reg::R(3), Reg::R(3), 1);
        let slot = a.len() as u16; // Word index of the next instruction.
        a.add_imm(Reg::R(2), Reg::R(2), 1); // Overwritten to `add r2, #5`.
        a.add_imm(Reg::R(4), Reg::R(4), 1);
        a.str_imm(Reg::R(0), Reg::R(1), slot * 4);
        a.subs_imm(Reg::R(6), Reg::R(6), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let (m, exit) = two_way(&a.words(), PagePerms::RWX, 1_000, |_| {});
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        // Iteration 1 runs the original `add r2, #1`; iterations 2 and 3
        // run the patched `add r2, #5`.
        assert_eq!(m.regs.get(Mode::User, Reg::R(2)), 1 + 5 + 5);
        let s = m.superblock_stats();
        assert!(
            s.inval_code_gen > 0,
            "the store must have invalidated the block cache, attributed \
             to the code-generation cause (stats: {s:?})"
        );
    }

    /// A store executed *inside* a memory-inclusive block that hits
    /// the block's own code page: the runner must retire through the
    /// store, stop the trace, and reconcile per-instruction so the
    /// patched instruction — which sits *later in the same block* —
    /// executes in the very same iteration, exactly as per-insn stepping
    /// would.
    #[test]
    fn superblock_data_store_patches_later_insn_in_same_block() {
        use crate::encode::encode;
        let patch = encode(Insn::Dp {
            cond: Cond::Al,
            op: crate::insn::DpOp::Add,
            s: false,
            rd: Reg::R(2),
            rn: Reg::R(2),
            op2: crate::insn::Op2::imm(5),
        });
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x8000); // Code page VA.
        a.mov_imm32(Reg::R(0), patch);
        a.mov_imm(Reg::R(6), 3); // Loop counter.
        let top = a.label();
        a.add_imm(Reg::R(3), Reg::R(3), 1);
        // The store comes BEFORE the instruction it overwrites, and both
        // live in the same block: iteration 1 must already execute the
        // patched `add r2, #5`, never the stale cached `add r2, #1`.
        let slot = (a.len() + 2) as u16;
        a.str_imm(Reg::R(0), Reg::R(1), slot * 4);
        a.add_imm(Reg::R(4), Reg::R(4), 1);
        a.add_imm(Reg::R(2), Reg::R(2), 1); // Overwritten to `add r2, #5`.
        a.subs_imm(Reg::R(6), Reg::R(6), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let (m, exit) = two_way(&a.words(), PagePerms::RWX, 1_000, |_| {});
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        // The patch lands before any iteration reads the slot: all three
        // iterations run `add r2, #5`.
        assert_eq!(m.regs.get(Mode::User, Reg::R(2)), 5 + 5 + 5);
        assert_eq!(m.regs.get(Mode::User, Reg::R(3)), 3);
        assert_eq!(m.regs.get(Mode::User, Reg::R(4)), 3);
    }

    /// Memory-inclusive blocks with every single-register load/store
    /// shape the decoder admits — word/byte, immediate/register offset,
    /// add/subtract — must match per-instruction stepping bit-for-bit,
    /// and the loop's trace must serve them from its per-site
    /// translations.
    #[test]
    fn superblock_memory_inclusive_blocks_are_exact() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(8), 0x9000);
        a.mov_imm32(Reg::R(9), 0x9800);
        a.mov_imm(Reg::R(7), 40); // Loop counter.
        a.mov_imm(Reg::R(5), 8); // Register offset.
        let top = a.label();
        a.add_imm(Reg::R(0), Reg::R(0), 3);
        a.str_imm(Reg::R(0), Reg::R(8), 0x20);
        a.ldr_imm(Reg::R(1), Reg::R(8), 0x20);
        a.str_reg(Reg::R(1), Reg::R(9), Reg::R(5));
        a.ldr_reg(Reg::R(2), Reg::R(9), Reg::R(5));
        a.strb_imm(Reg::R(2), Reg::R(8), 0x31);
        a.ldrb_imm(Reg::R(3), Reg::R(8), 0x31);
        a.add_reg(Reg::R(4), Reg::R(4), Reg::R(3));
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let (m, exit) = two_way(&a.words(), PagePerms::RX, 10_000, |_| {});
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        let s = m.superblock_stats();
        assert!(s.built >= 1, "no memory-inclusive block was formed");
        assert!(s.uop_hits > 30, "the loop must run from its trace: {s:?}");
        // The loop's trace carries all six accesses, and every one of its
        // per-site translations was filled by an access made in the trace.
        let body = m
            .accel
            .sb_blocks()
            .iter()
            .find(|b| b.entry_va == top.addr())
            .expect("the loop formed no block");
        assert_eq!(body.trace.sites.len(), 6);
        assert!(
            body.trace.sites.iter().all(|c| c.get().is_some()),
            "in-trace accesses must ride the per-site translations"
        );
        // 40 iterations × (3 stores + 3 loads) with a byte lane: r4
        // accumulates the stored low byte, r3 holds the last one.
        assert_eq!(m.regs.get(Mode::User, Reg::R(3)), (40 * 3) & 0xff);
    }

    /// An in-trace load whose verdict is fine but whose *physical* access
    /// faults (unaligned address): the block must stop at the retired
    /// prefix and the per-insn path must raise the data abort with exact
    /// accounting — swept across fault positions via the loop counter.
    #[test]
    fn superblock_unaligned_data_fault_mid_block_is_exact() {
        for misalign in [1u32, 2, 3] {
            let mut a = Assembler::new(0x8000);
            a.mov_imm32(Reg::R(8), 0x9000 + misalign);
            a.add_imm(Reg::R(0), Reg::R(0), 1);
            a.add_imm(Reg::R(1), Reg::R(1), 2);
            a.ldr_imm(Reg::R(2), Reg::R(8), 0); // Unaligned: data abort.
            a.add_imm(Reg::R(3), Reg::R(3), 4); // Must never execute.
            a.svc(0);
            let (m, exit) = two_way(&a.words(), PagePerms::RX, 1_000, |_| {});
            // Translation succeeds; the bus access faults, so the abort
            // reports the *physical* address.
            assert_eq!(
                exit,
                ExitReason::DataAbort(MemFault::new(
                    0x8000_3000 + misalign,
                    crate::error::MemFaultKind::Unaligned,
                    false
                )),
                "misalign {misalign}"
            );
            assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 1);
            assert_eq!(m.regs.get(Mode::User, Reg::R(1)), 2);
            assert_eq!(m.regs.get(Mode::User, Reg::R(3)), 0);
        }
    }

    /// A store refused by permissions (read-only data page) inside what
    /// would otherwise be a memory-inclusive block: the precomputed
    /// write verdict forces the exact path, which raises the permission
    /// data abort identically to baseline stepping.
    #[test]
    fn superblock_readonly_store_faults_exactly() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(8), 0x9000);
        let top = a.label();
        a.ldr_imm(Reg::R(0), Reg::R(8), 0); // Reads are fine.
        a.add_imm(Reg::R(1), Reg::R(1), 1);
        a.subs_imm(Reg::R(2), Reg::R(1), 3);
        a.b_to(Cond::Ne, top);
        a.str_imm(Reg::R(1), Reg::R(8), 0); // Write to RO page: abort.
        a.svc(0);
        let ro = PagePerms {
            r: true,
            w: false,
            x: false,
        };
        let code = a.words();
        let run = |accel: bool| {
            let mut m = guest_machine(&code);
            // Remap the data page read-only before anything runs.
            m.mem
                .write(
                    0x8000_1000 + 0x9 * 4,
                    l2_page_desc(0x8000_3000, ro, false),
                    AccessAttrs::MONITOR,
                )
                .unwrap();
            m.set_fetch_accel(accel);
            let exit = m.run_user(1_000).unwrap();
            (m, exit)
        };
        let (m_on, e_on) = run(true);
        let (m_off, e_off) = run(false);
        assert_eq!(
            e_on,
            ExitReason::DataAbort(MemFault::new(
                0x9000,
                crate::error::MemFaultKind::Permission,
                true
            ))
        );
        assert_eq!(e_on, e_off);
        assert!(m_on == m_off, "compiled state diverged on RO fault");
        assert_eq!(m_on.regs.get(Mode::User, Reg::R(1)), 3);
    }

    /// Every data-TLB invalidation source — `tlb_flush`, a `TTBR0`
    /// reload, a TrustZone world switch — must drop the cache, attribute
    /// the drop to its cause, and leave execution bit-for-bit equal to
    /// the baseline. Each source is swept in a loop of
    /// memory-block-to-SVC rounds.
    #[test]
    fn superblock_dtlb_invalidation_sources_are_exact() {
        use crate::dtlb::DTlbStats;
        let mut a = Assembler::new(0x8000);
        let top = a.label();
        a.add_imm(Reg::R(0), Reg::R(0), 1);
        a.str_imm(Reg::R(0), Reg::R(8), 0);
        a.ldr_imm(Reg::R(1), Reg::R(8), 0);
        a.add_reg(Reg::R(2), Reg::R(2), Reg::R(1));
        a.subs_imm(Reg::R(3), Reg::R(0), 4);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();
        let run = |source: u32, accel: bool| -> (Machine, DTlbStats) {
            let mut m = guest_machine(&code);
            m.set_fetch_accel(accel);
            m.regs.set(Mode::User, Reg::R(8), 0x9000);
            for _ in 0..3 {
                let exit = m.run_user(10_000).unwrap();
                assert_eq!(exit, ExitReason::Svc { imm24: 0 });
                match source {
                    0 => m.tlb_flush(),
                    1 => {
                        let ttbr0 = m.cp15.mmu_mut(World::Secure).ttbr0;
                        m.load_ttbr0(ttbr0);
                        m.tlb_flush(); // Architectural discipline after a TTBR write.
                    }
                    2 => {
                        m.set_scr_ns(true);
                        m.set_scr_ns(false);
                    }
                    _ => unreachable!(),
                }
                // Return to user mode and restart the loop.
                m.exception_return().unwrap();
                m.pc = 0x8000;
                m.regs.set(Mode::User, Reg::R(0), 0);
            }
            let stats = m.dtlb_stats();
            (m, stats)
        };
        for source in 0..3u32 {
            let (m_on, s_on) = run(source, true);
            let (m_off, s_off) = run(source, false);
            assert!(
                m_on == m_off,
                "source {source}: compiled state diverged across invalidation"
            );
            // The compiled run exercised the cache and the per-cause
            // counters; the baseline cached nothing at all. A flush or
            // reload resets the trace's per-site translations, so every
            // round refills the data-TLB and drops it again. A world
            // switch starts no translation epoch: the trace keeps its
            // sites and serves later rounds from them, so the data-TLB
            // holds entries to drop only after the first round.
            match source {
                0 => assert!(s_on.inval_flush >= 3, "flush cause uncounted: {s_on:?}"),
                1 => assert!(s_on.inval_ttbr >= 3, "ttbr cause uncounted: {s_on:?}"),
                2 => assert!(s_on.inval_world >= 1, "world cause uncounted: {s_on:?}"),
                _ => unreachable!(),
            }
            assert!(s_on.hits > 0, "source {source}: data-TLB never engaged");
            assert_eq!(
                (s_off.hits, s_off.misses),
                (0, 0),
                "baseline must not touch the data-TLB"
            );
        }
    }

    /// An interrupt deadline landing mid-block must fire at the exact
    /// same cycle as per-instruction stepping: the wake-hoisting guard
    /// falls back to per-insn stepping for any block that could straddle
    /// the deadline. Swept across every deadline in the block's range.
    #[test]
    fn superblock_interrupt_deadline_mid_block_is_exact() {
        let mut a = Assembler::new(0x8000);
        for _ in 0..16 {
            a.add_imm(Reg::R(0), Reg::R(0), 1);
        }
        a.svc(0);
        let code = a.words();
        let (m, _) = two_way(&code, PagePerms::RX, 1_000, |_| {});
        let unlimited = m.superblock_stats().built;
        for deadline in 1..=20u64 {
            let (m, exit) = two_way(&code, PagePerms::RX, 1_000, |m| {
                m.irq_at = Some(m.cycles + deadline);
            });
            assert!(
                matches!(exit, ExitReason::Irq | ExitReason::Svc { .. }),
                "deadline {deadline}: unexpected exit {exit:?}"
            );
            if exit == ExitReason::Irq {
                assert_eq!(m.cpsr.mode, Mode::Irq, "deadline {deadline}");
            }
            // The deadline tail steps per instruction: it builds no
            // suffix blocks.
            let built = m.superblock_stats().built;
            assert!(built <= unlimited, "deadline {deadline}: built {built}");
        }
    }

    /// A straight-line run filling the code page to its very last word:
    /// the trace must end precisely at the page boundary, and the fetch
    /// of the next page (mapped non-executable) must abort identically to
    /// per-instruction stepping.
    #[test]
    fn superblock_ends_exactly_at_page_boundary() {
        let mut a = Assembler::new(0x8000);
        for _ in 0..1024 {
            a.add_imm(Reg::R(0), Reg::R(0), 1); // Fills the whole page.
        }
        let (m, exit) = two_way(&a.words(), PagePerms::RX, 10_000, |_| {});
        // The data page at 0x9000 is RW (not executable): walking off the
        // code page's end prefetch-aborts there.
        assert_eq!(exit, ExitReason::PrefetchAbort(0x9000));
        assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 1024);
        assert!(m.superblock_stats().built > 0, "no block was formed");
    }

    /// Flag-setting instructions mid-block followed by conditional
    /// execution: the per-instruction condition evaluation inside the
    /// block must observe flags written earlier in the same block.
    #[test]
    fn superblock_flags_set_mid_block_steer_conditionals() {
        for r0 in [0u32, 5, 9] {
            let mut a = Assembler::new(0x8000);
            // All data-processing: one block containing compare + both
            // conditional arms, twice over.
            a.cmp_imm(Reg::R(0), 5);
            a.emit(Insn::Dp {
                cond: Cond::Eq,
                op: crate::insn::DpOp::Add,
                s: false,
                rd: Reg::R(1),
                rn: Reg::R(1),
                op2: crate::insn::Op2::imm(10),
            });
            a.emit(Insn::Dp {
                cond: Cond::Ne,
                op: crate::insn::DpOp::Add,
                s: false,
                rd: Reg::R(2),
                rn: Reg::R(2),
                op2: crate::insn::Op2::imm(20),
            });
            a.subs_imm(Reg::R(3), Reg::R(0), 9); // Rewrites the flags...
            a.emit(Insn::Dp {
                cond: Cond::Eq, // ...observed by this conditional.
                op: crate::insn::DpOp::Add,
                s: false,
                rd: Reg::R(4),
                rn: Reg::R(4),
                op2: crate::insn::Op2::imm(1),
            });
            a.svc(0);
            let (m, exit) = two_way(&a.words(), PagePerms::RX, 1_000, |m| {
                m.regs.set(Mode::User, Reg::R(0), r0);
            });
            assert_eq!(exit, ExitReason::Svc { imm24: 0 }, "r0={r0}");
            assert_eq!(
                m.regs.get(Mode::User, Reg::R(1)),
                if r0 == 5 { 10 } else { 0 }
            );
            assert_eq!(
                m.regs.get(Mode::User, Reg::R(2)),
                if r0 == 5 { 0 } else { 20 }
            );
            assert_eq!(m.regs.get(Mode::User, Reg::R(4)), (r0 == 9) as u32);
        }
    }

    /// Steady-state loops dispatch through the chain link: the taken
    /// back-branch records its successor, so iterations after the first
    /// few skip the hash probe entirely.
    #[test]
    fn superblock_chaining_engages_on_loops() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 0);
        a.mov_imm32(Reg::R(1), 200);
        let top = a.label();
        a.add_imm(Reg::R(0), Reg::R(0), 1);
        a.eor_reg(Reg::R(2), Reg::R(2), Reg::R(0));
        a.subs_imm(Reg::R(1), Reg::R(1), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let (m, exit) = two_way(&a.words(), PagePerms::RX, 10_000, |_| {});
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        let s = m.superblock_stats();
        assert!(s.built >= 1, "no block built");
        assert!(s.hits > 100, "loop iterations not served from the cache");
        assert!(
            s.chained > 100,
            "steady-state dispatches must follow the chain link (chained={})",
            s.chained
        );
    }

    /// A step budget expiring mid-block stops at exactly the same
    /// instruction as per-instruction stepping, for every possible budget.
    /// The second program's block holds an instruction whose condition
    /// fails, which a budget tail then steps per instruction.
    #[test]
    fn superblock_partial_budget_stops_mid_trace() {
        for skipped in [false, true] {
            let mut a = Assembler::new(0x8000);
            for i in 0..10 {
                a.add_imm(Reg::R(0), Reg::R(0), 1);
                if skipped && i == 0 {
                    // Z is clear at reset, so this never executes.
                    a.emit(Insn::Dp {
                        cond: Cond::Eq,
                        op: crate::insn::DpOp::Add,
                        s: false,
                        rd: Reg::R(1),
                        rn: Reg::R(1),
                        op2: crate::insn::Op2::imm(1),
                    });
                }
            }
            let top = a.label();
            a.b_to(Cond::Al, top);
            let code = a.words();
            let (m, _) = two_way(&code, PagePerms::RX, 1_000, |_| {});
            let unlimited = m.superblock_stats().built;
            for budget in 1..=14u64 {
                let (m, exit) = two_way(&code, PagePerms::RX, budget, |_| {});
                assert_eq!(exit, ExitReason::StepLimit, "budget {budget}");
                // Every step up to the branch retires an add, except the
                // skipped one.
                let adds = budget.min(10 + skipped as u64) - (skipped && budget >= 2) as u64;
                assert_eq!(
                    m.regs.get(Mode::User, Reg::R(0)),
                    adds as u32,
                    "budget {budget} retired the wrong number of instructions"
                );
                // The budget tail steps per instruction: it builds no
                // suffix blocks.
                let built = m.superblock_stats().built;
                assert!(built <= unlimited, "budget {budget}: built {built}");
            }
        }
    }

    /// The accelerator is cycle-model-neutral on the plain hot path too:
    /// identical cycles, TLB statistics and access counters either way.
    #[test]
    fn accelerator_preserves_counters_exactly() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 0);
        a.mov_imm(Reg::R(1), 50);
        a.mov_imm32(Reg::R(2), 0x9000);
        let top = a.label();
        a.add_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.str_imm(Reg::R(0), Reg::R(2), 0);
        a.ldr_imm(Reg::R(3), Reg::R(2), 0);
        a.subs_imm(Reg::R(1), Reg::R(1), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();
        let run = |accel: bool| {
            let mut m = guest_machine(&code);
            m.set_fetch_accel(accel);
            assert_eq!(m.run_user(10_000).unwrap(), ExitReason::Svc { imm24: 0 });
            m
        };
        let on = run(true);
        let off = run(false);
        assert!(on.accel.served() > 100, "accelerator never engaged");
        assert_eq!(on.cycles, off.cycles);
        assert_eq!(on.tlb.hits, off.tlb.hits);
        assert_eq!(on.tlb.misses, off.tlb.misses);
        assert_eq!(on.mem.reads, off.mem.reads);
        assert_eq!(on.mem.writes, off.mem.writes);
        assert!(on == off, "architectural state diverged");
    }

    /// A hot mixed loop — loads, stores, a dead flag-setter, a live
    /// compare steering a conditional, and a side-exit back-edge —
    /// must serve the bulk of its iterations from its compiled trace and
    /// stay bit-for-bit exact (the two-way helper asserts the equality
    /// half).
    #[test]
    fn uop_traces_serve_hot_loops_and_stay_exact() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(8), 0x9000);
        a.mov_imm(Reg::R(7), 100); // Loop counter.
        a.mov_imm(Reg::R(0), 3);
        let top = a.label();
        a.ldr_imm(Reg::R(1), Reg::R(8), 0);
        a.add_reg(Reg::R(1), Reg::R(1), Reg::R(0));
        a.str_imm(Reg::R(1), Reg::R(8), 4);
        a.emit(Insn::Dp {
            cond: Cond::Al,
            op: crate::insn::DpOp::Add,
            s: true, // Dead flags: overwritten by the cmp below.
            rd: Reg::R(4),
            rn: Reg::R(4),
            op2: crate::insn::Op2::reg(Reg::R(1)),
        });
        a.cmp_imm(Reg::R(0), 17); // Live flags: the addeq consumes them.
        a.emit(Insn::Dp {
            cond: Cond::Eq,
            op: crate::insn::DpOp::Add,
            s: false,
            rd: Reg::R(5),
            rn: Reg::R(5),
            op2: crate::insn::Op2::imm(1),
        });
        a.eor_reg(Reg::R(0), Reg::R(0), Reg::R(1));
        a.subs_imm(Reg::R(7), Reg::R(7), 1); // Feeds the side exit.
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let (m, exit) = two_way(&a.words(), PagePerms::RX, 20_000, |_| {});
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        let s = m.superblock_stats();
        assert!(
            s.uop_hits > 50,
            "most iterations must run compiled (uop_hits={})",
            s.uop_hits
        );
        assert!(
            s.chained > 50 && s.uop_linked > 50,
            "the loop must chain from its trace back into itself: {s:?}"
        );
    }

    /// Self-modifying code *inside* a compiled trace: the loop runs from
    /// its trace, then a conditional store patches an instruction later
    /// in the same trace. The runner must retire through the store, stop,
    /// and let the per-insn path execute the patched instruction in that
    /// same iteration — and the dropped blocks must be counted as a
    /// code-generation invalidation.
    #[test]
    fn uop_self_modifying_store_inside_specialised_trace() {
        use crate::encode::encode;
        let patch = encode(Insn::Dp {
            cond: Cond::Al,
            op: crate::insn::DpOp::Add,
            s: false,
            rd: Reg::R(2),
            rn: Reg::R(2),
            op2: crate::insn::Op2::imm(5),
        });
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x8000); // Code page VA.
        a.mov_imm32(Reg::R(0), patch);
        a.mov_imm(Reg::R(6), 6); // Loop counter: 6, 5, ..., 1.
        let top = a.label();
        a.add_imm(Reg::R(3), Reg::R(3), 1);
        a.cmp_imm(Reg::R(6), 3);
        // Fires only on the 4th iteration (r6 == 3) — by then the loop
        // runs from its trace.
        let slot = (a.len() + 2) as u16;
        a.emit(Insn::Str {
            cond: Cond::Eq,
            rd: Reg::R(0),
            rn: Reg::R(1),
            off: MemOffset::Imm {
                imm12: slot * 4,
                add: true,
            },
            byte: false,
        });
        a.add_imm(Reg::R(4), Reg::R(4), 1);
        a.add_imm(Reg::R(2), Reg::R(2), 1); // Overwritten to `add r2, #5`.
        a.subs_imm(Reg::R(6), Reg::R(6), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let (m, exit) = two_way(&a.words(), PagePerms::RWX, 10_000, |_| {});
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        // Iterations r6=6,5,4 run the original `add r2, #1`; the patch
        // lands before the slot executes on r6=3, so that iteration and
        // the remaining two run `add r2, #5`.
        assert_eq!(m.regs.get(Mode::User, Reg::R(2)), 3 + 5 * 3);
        let s = m.superblock_stats();
        assert!(s.uop_hits >= 1, "compiled trace never ran: {s:?}");
        assert!(s.inval_code_gen >= 1, "stats: {s:?}");
    }

    /// A store in one compiled trace patches the code of its linked
    /// successor mid-chain. The code-generation bump must end the chain
    /// right after the store: the runner commits the retired prefix and
    /// never hops into the successor's stale trace, so the patched
    /// instruction executes in that same iteration — exactly as
    /// per-instruction stepping.
    #[test]
    fn uop_store_patching_linked_successor_stops_the_chain() {
        use crate::encode::encode;
        let patch = encode(Insn::Dp {
            cond: Cond::Al,
            op: crate::insn::DpOp::Add,
            s: false,
            rd: Reg::R(2),
            rn: Reg::R(2),
            op2: crate::insn::Op2::imm(5),
        });
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(1), 0x8000); // Code page VA.
        a.mov_imm32(Reg::R(0), patch);
        a.mov_imm(Reg::R(6), 10); // Loop counter: 10, 9, ..., 1.
        let top = a.label();
        // Trace A: its taken exit links to trace B.
        a.add_imm(Reg::R(3), Reg::R(3), 1);
        a.cmp_imm(Reg::R(6), 5);
        // Fires only on the 6th iteration (r6 == 5), by when A and B are
        // linked.
        let slot = (a.len() + 3) as u16;
        a.emit(Insn::Str {
            cond: Cond::Eq,
            rd: Reg::R(0),
            rn: Reg::R(1),
            off: MemOffset::Imm {
                imm12: slot * 4,
                add: true,
            },
            byte: false,
        });
        a.add_imm(Reg::R(4), Reg::R(4), 1);
        let b_entry = a.b_fixup(Cond::Al);
        let here = a.here();
        a.fix_branch(b_entry, here);
        // Trace B: its taken exit links back to A.
        a.add_imm(Reg::R(2), Reg::R(2), 1); // Overwritten to `add r2, #5`.
        a.add_imm(Reg::R(5), Reg::R(5), 1);
        a.subs_imm(Reg::R(6), Reg::R(6), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let (m, exit) = two_way(&a.words(), PagePerms::RWX, 10_000, |_| {});
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        // r6 = 10..=6 run the original `add r2, #1`; the patch lands in
        // A on r6 = 5, before B runs, so B runs `add r2, #5` from then on.
        assert_eq!(m.regs.get(Mode::User, Reg::R(2)), 5 + 5 * 5);
        assert_eq!(m.regs.get(Mode::User, Reg::R(4)), 10);
        let s = m.superblock_stats();
        assert!(s.uop_linked >= 2, "A and B never chained: {s:?}");
        assert!(s.inval_code_gen >= 1, "stats: {s:?}");
    }

    /// Runs `drive` on `code` compiled and on the uncached interpreter
    /// and asserts the two machines are equal; returns the compiled one.
    fn two_way_driven(code: &[Word], drive: impl Fn(&mut Machine)) -> Machine {
        let run = |accel: bool| {
            let mut m = guest_machine(code);
            m.set_fetch_accel(accel);
            drive(&mut m);
            m
        };
        let (m_on, m_off) = (run(true), run(false));
        assert_eq!(m_on.cycles, m_off.cycles, "cycles diverged");
        assert_eq!(m_on.tlb.hits, m_off.tlb.hits, "TLB hits diverged");
        assert_eq!(m_on.mem.reads, m_off.mem.reads, "reads diverged");
        assert!(m_on == m_off, "architectural state diverged");
        m_on
    }

    /// A one-block self-loop under step budgets that expire mid-chain:
    /// every budget from 1 to 40, each run resumed until the `SVC`. The
    /// runner's self-link may only re-enter while a whole pass fits, so
    /// it must have hopped in every run whose budget covers two passes of
    /// the loop block.
    #[test]
    fn uop_self_loop_under_step_budgets_is_exact() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(7), 120); // Loop counter.
        let top = a.label();
        a.add_imm(Reg::R(0), Reg::R(0), 1);
        a.eor_reg(Reg::R(1), Reg::R(1), Reg::R(0));
        a.subs_imm(Reg::R(7), Reg::R(7), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();
        for budget in 1..=40u64 {
            let m = two_way_driven(&code, |m| {
                while m.run_user(budget).unwrap() == ExitReason::StepLimit {}
                assert_eq!(m.cpsr.mode, Mode::Supervisor, "budget {budget}");
            });
            assert_eq!(m.regs.get(Mode::User, Reg::R(0)), 120, "budget {budget}");
            let pass = m
                .accel
                .sb_blocks()
                .iter()
                .find(|b| b.entry_va == top.addr())
                .map_or(u64::MAX, |b| b.trace.steps);
            if budget >= 2 * pass {
                let s = m.superblock_stats();
                assert!(s.uop_linked > 0, "budget {budget}: never chained ({s:?})");
            }
        }
    }

    /// A successor link can be recorded across a PC change: a run stops
    /// right after trace P's exit, another thread of the same address
    /// space runs elsewhere, and the dispatcher links P's exit to the
    /// block it found there. When P later exits the same way, that link's
    /// entry VA no longer matches the new PC, so the runner must not hop.
    /// P leaves by its ending `B` in one input and by a side exit (a
    /// `BNE` that is always taken, with a `UDF` ending the scan after it)
    /// in the other: both exits' links are re-validated alike.
    #[test]
    fn uop_link_recorded_across_a_pc_change_is_not_followed() {
        for side_exit in [false, true] {
            let mut a = Assembler::new(0x8000);
            a.mov_imm(Reg::R(7), 20); // Loop counter.
            let p_entry = a.label();
            a.add_imm(Reg::R(0), Reg::R(0), 1); // Trace P ...
            a.add_imm(Reg::R(1), Reg::R(1), 1);
            // ... whose exit leads to Q. `Z` is clear at reset and
            // whenever Q's `BNE` loops back, so the `BNE` is always taken.
            let to_q = a.b_fixup(if side_exit { Cond::Ne } else { Cond::Al });
            if side_exit {
                a.udf(0);
            }
            let q_entry = a.here();
            a.fix_branch(to_q, q_entry);
            a.add_imm(Reg::R(2), Reg::R(2), 1); // Trace Q.
            a.subs_imm(Reg::R(7), Reg::R(7), 1);
            a.b_to(Cond::Ne, p_entry);
            a.svc(0);
            while a.len() < 16 {
                a.udf(0);
            }
            let x_entry = a.label(); // Trace X, another thread's self-loop.
            a.add_imm(Reg::R(3), Reg::R(3), 1);
            a.add_imm(Reg::R(4), Reg::R(4), 1);
            a.b_to(Cond::Al, x_entry);
            let code = a.words();
            let m = two_way_driven(&code, |m| {
                // X runs hot first: ten whole passes.
                m.pc = x_entry.addr();
                assert_eq!(m.run_user(30).unwrap(), ExitReason::StepLimit);
                // Five loop iterations, stopping right after P's exit:
                // 4 + 3 steps for the first (the setup `mov` joins P's
                // first block), 6 for each later one, then P's 3 again.
                m.pc = 0x8000;
                assert_eq!(
                    m.run_user(4 + 3 + 4 * 6 + 3).unwrap(),
                    ExitReason::StepLimit
                );
                assert_eq!(m.pc, q_entry.addr());
                // Another thread runs one pass of X: P's exit link now
                // records X.
                let resume = m.pc;
                m.pc = x_entry.addr();
                assert_eq!(m.run_user(3).unwrap(), ExitReason::StepLimit);
                // The first thread resumes at Q and runs to its SVC.
                m.pc = resume;
                assert_eq!(m.run_user(10_000).unwrap(), ExitReason::Svc { imm24: 0 });
            });
            for (r, want) in [(0, 20), (1, 20), (2, 20), (3, 11), (4, 11)] {
                assert_eq!(m.regs.get(Mode::User, Reg::R(r)), want, "r{r}");
            }
            let s = m.superblock_stats();
            assert!(s.uop_linked > 0, "P and Q never chained: {s:?}");
        }
    }

    /// A compare diamond (`CMP; BCC out; BHI mid`) inside a loop: both
    /// conditional branches are side exits of the block entered at the
    /// loop head, and so is the back-edge, so the scan runs on down the
    /// fall-through path to the `SVC` and the second branch never starts
    /// a block of its own. Each iteration leaves the loop-head block by one
    /// exit and, except on the fall-through path, comes back through one
    /// short block, so the runner makes fewer than two linked hops per
    /// iteration. When every conditional branch ended its block, each of
    /// the three paths took at least two hops and two of them three:
    /// about 100 over these 40 iterations. The compiled machine still
    /// agrees bit-for-bit with the interpreter.
    #[test]
    fn lone_branches_are_admitted_and_chained() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 0);
        a.mov_imm(Reg::R(1), 40); // Loop counter.
        let top = a.label();
        a.add_imm(Reg::R(0), Reg::R(0), 3);
        a.and_imm(Reg::R(2), Reg::R(0), 7);
        a.cmp_imm(Reg::R(2), 4);
        let out = a.b_fixup(Cond::Cc); // Side exit 1.
        let mid = a.b_fixup(Cond::Hi); // Side exit 2.
        a.add_imm(Reg::R(3), Reg::R(3), 1);
        let here = a.here();
        a.fix_branch(mid, here);
        a.add_imm(Reg::R(4), Reg::R(4), 1);
        let here = a.here();
        a.fix_branch(out, here);
        a.subs_imm(Reg::R(1), Reg::R(1), 1);
        a.b_to(Cond::Ne, top); // Side exit 3, back to the block's entry.
        a.svc(0);
        let (m, exit) = two_way(&a.words(), PagePerms::RX, 10_000, |_| {});
        assert_eq!(exit, ExitReason::Svc { imm24: 0 });
        let s = m.superblock_stats();
        assert!(s.uop_linked > 40, "the runner must chain the loop: {s:?}");
        assert!(
            s.uop_linked < 2 * 40,
            "fewer than two hops per iteration: {s:?}"
        );
        let blocks = m.accel.sb_blocks();
        let head = blocks
            .iter()
            .find(|b| b.entry_va == top.addr())
            .expect("the loop head formed no block");
        let side_exits = head
            .trace
            .body
            .iter()
            .filter(|e| matches!(e.op, Uop::SideExit { .. }))
            .count();
        assert_eq!(side_exits, 3, "{:?}", head.trace.body);
        assert_eq!(head.trace.steps, 9, "the whole fall-through path");
        let lone = 0x8000 + 6 * WORD_BYTES;
        assert!(
            blocks.iter().all(|b| b.entry_va != lone),
            "the BHI inside the loop-head block started a block"
        );
    }

    /// An interrupt deadline landing mid-trace: the wake-hoisting guard
    /// covers every trace and every linked hop through `max_charge`, so
    /// the IRQ fires at the exact per-insn cycle. Swept across deadlines
    /// spanning the loop's first iterations and its chained ones.
    #[test]
    fn uop_interrupt_deadline_mid_trace_is_exact() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm(Reg::R(0), 0);
        a.mov_imm(Reg::R(1), 12); // Loop counter.
        let top = a.label();
        a.add_imm(Reg::R(0), Reg::R(0), 1);
        a.eor_reg(Reg::R(2), Reg::R(2), Reg::R(0));
        a.add_reg(Reg::R(3), Reg::R(3), Reg::R(0));
        a.subs_imm(Reg::R(1), Reg::R(1), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();
        for deadline in 1..=80u64 {
            let (m, exit) = two_way(&code, PagePerms::RX, 10_000, |m| {
                m.irq_at = Some(m.cycles + deadline);
            });
            assert!(
                matches!(exit, ExitReason::Irq | ExitReason::Svc { .. }),
                "deadline {deadline}: unexpected exit {exit:?}"
            );
            if exit == ExitReason::Irq {
                assert_eq!(m.cpsr.mode, Mode::Irq, "deadline {deadline}");
            }
        }
    }

    /// TLB flush, `TTBR0` reload, and world switch each landing between
    /// compiled runs of a memory-carrying loop: no source drops a block or
    /// its trace, so the re-entered loop rebuilds nothing (the flush and
    /// the reload confirm the kept blocks in the new translation epoch
    /// instead), and the architectural state stays bit-for-bit equal to
    /// baseline across all rounds.
    #[test]
    fn uop_traces_survive_translation_epochs_exactly() {
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(8), 0x9000);
        a.mov_imm(Reg::R(0), 30); // Loop counter.
        let top = a.label();
        a.ldr_imm(Reg::R(1), Reg::R(8), 0);
        a.add_imm(Reg::R(1), Reg::R(1), 1);
        a.str_imm(Reg::R(1), Reg::R(8), 0);
        a.subs_imm(Reg::R(0), Reg::R(0), 1);
        a.b_to(Cond::Ne, top);
        a.svc(0);
        let code = a.words();
        let run = |source: u32, accel: bool| {
            let mut m = guest_machine(&code);
            m.set_fetch_accel(accel);
            for _ in 0..3 {
                let exit = m.run_user(10_000).unwrap();
                assert_eq!(exit, ExitReason::Svc { imm24: 0 });
                match source {
                    0 => m.tlb_flush(),
                    1 => {
                        let ttbr0 = m.cp15.mmu_mut(World::Secure).ttbr0;
                        m.load_ttbr0(ttbr0);
                        m.tlb_flush(); // Architectural discipline after a TTBR write.
                    }
                    2 => {
                        m.set_scr_ns(true);
                        m.set_scr_ns(false);
                    }
                    _ => unreachable!(),
                }
                m.exception_return().unwrap();
                m.pc = 0x8000;
                m.regs.set(Mode::User, Reg::R(0), 30);
            }
            m
        };
        for source in 0..3u32 {
            let m_on = run(source, true);
            let m_off = run(source, false);
            assert!(
                m_on == m_off,
                "source {source}: compiled state diverged across invalidation"
            );
            let s = m_on.superblock_stats();
            assert!(
                s.uop_hits > 10,
                "source {source}: compiled traces barely ran ({s:?})"
            );
            // Every block built is still cached: nothing was dropped or
            // rebuilt.
            assert_eq!(
                s.built,
                m_on.accel.sb_blocks().len() as u64,
                "source {source}: {s:?}"
            );
            assert_eq!(s.invalidations(), 0, "source {source}: {s:?}");
            if source == 2 {
                // A world switch starts no epoch: every block (and its
                // trace) is keyed by world and re-validated at dispatch.
                assert_eq!(s.revalidated, 0, "source {source}: {s:?}");
            } else {
                assert!(
                    s.revalidated >= 2,
                    "source {source}: kept blocks were never confirmed ({s:?})"
                );
            }
        }
    }
}
