//! The machine: registers, memory, MMU, TLB, cycle counter.
//!
//! "We model execution as a series of machine states, where a state includes
//! everything visible about a machine (e.g. registers and memory)" (§5.1).

use crate::cp15::Cp15;
use crate::dcache::{FetchAccel, SbStats};
use crate::dtlb::{DTlbInval, DTlbStats, DataTlb};
use crate::exn::ExceptionKind;
use crate::mem::{AccessAttrs, PhysMem};
use crate::mode::{Mode, World};
use crate::psr::Psr;
use crate::regs::{Reg, RegFile};
use crate::tlb::Tlb;
use crate::word::{Addr, Word};
use komodo_trace::{Event, FlightRecorder, InvalCause, MetricsSnapshot};

/// Trace attribution of a host-cache drop (the flight recorder's
/// leaf-crate cause taxonomy mirrors [`DTlbInval`] plus the block
/// engine's code-generation and toggle causes).
fn trace_cause(cause: DTlbInval) -> InvalCause {
    match cause {
        DTlbInval::Flush => InvalCause::Flush,
        DTlbInval::Ttbr => InvalCause::Ttbr,
        DTlbInval::World => InvalCause::World,
    }
}

/// Cycle costs of machine-level events, loosely calibrated to a Cortex-A7
/// class in-order core (the Raspberry Pi 2 of the paper's evaluation).
pub mod cost {
    /// Base cost of any instruction.
    pub const INSN: u64 = 1;
    /// Additional cost of a data memory access.
    pub const MEM: u64 = 2;
    /// Additional cost of a multiply.
    pub const MUL: u64 = 2;
    /// Additional cost of a taken branch (pipeline refill).
    pub const BRANCH_TAKEN: u64 = 2;
    /// Hardware page-table walk on a TLB miss.
    pub const TLB_WALK: u64 = 12;
    /// Exception entry (vector fetch, mode switch, pipeline flush).
    pub const EXN_ENTRY: u64 = 14;
    /// Exception return (`MOVS PC, LR`).
    pub const EXN_RETURN: u64 = 5;
    /// Full TLB flush.
    pub const TLB_FLUSH: u64 = 32;
}

/// A violation of the machine model's usage contract by privileged code —
/// the executable analogue of an unprovable verification condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelViolation {
    /// User execution was started with an inconsistent TLB; the paper's
    /// specification forces the implementation to prove consistency before
    /// entering user mode (§5.2).
    TlbInconsistent,
    /// User execution was started while not in user mode.
    NotUserMode,
    /// Exception return attempted from a mode with no `SPSR`.
    NoSpsr,
}

impl core::fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ModelViolation {}

/// The complete machine state.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Banked register file.
    pub regs: RegFile,
    /// Current program status register.
    pub cpsr: Psr,
    /// Program counter (meaningful during user execution; privileged code
    /// runs at exception boundaries and does not use it).
    pub pc: Word,
    /// CP15 system-control state.
    pub cp15: Cp15,
    /// Physical memory.
    pub mem: PhysMem,
    /// TLB state.
    pub tlb: Tlb,
    /// Cycle counter.
    pub cycles: u64,
    /// Absolute cycle at which the next IRQ becomes pending, if any.
    /// The attacker "may inject external interrupts" (§3.1), so tests and
    /// the OS model set this to exercise interrupt paths deterministically.
    pub irq_at: Option<u64>,
    /// Absolute cycle at which the next FIQ becomes pending, if any.
    pub fiq_at: Option<u64>,
    /// Measurement probe: the cycle count at which the next user-mode
    /// instruction begins executing (set once by `run_user` while `None`;
    /// benches reset it to time the world-switch paths, à la Table 3's
    /// "Enter only" row).
    pub first_user_insn_cycle: Option<u64>,
    /// Host-side fetch/decode accelerator. **Not architectural state**:
    /// excluded from machine equality, bit-for-bit neutral on the cycle
    /// model and all simulated counters (see [`crate::dcache`]).
    pub accel: FetchAccel,
    /// Host-side software data-TLB fronting the architectural TLB map for
    /// user translations. **Not architectural state** — same contract as
    /// [`Machine::accel`] (see [`crate::dtlb`]). A separate field (not
    /// inside the accelerator) so the micro-op runner can probe it
    /// mutably while a dispatched block is still borrowed.
    pub dtlb: DataTlb,
    /// Cycle-stamped flight recorder capturing boundary events (exception
    /// entry/exit, world switches, TLB/host-cache invalidations,
    /// block builds; the monitor adds SMC and enclave-lifecycle
    /// events). **Not architectural state** — excluded from machine
    /// equality like [`Machine::accel`] and [`Machine::dtlb`], disabled
    /// (capacity 0) by default, and recording never charges cycles or
    /// touches any counted state, so traced-on and traced-off runs end
    /// bit-for-bit identical (proven by the bench differential test).
    pub trace: FlightRecorder,
}

/// Architectural equality: registers, PSR, PC, CP15, memory (contents and
/// access counters), TLB (entries and statistics), cycle counter and
/// interrupt schedule. The fetch accelerator, data-TLB and flight
/// recorder are deliberately excluded — they must never influence any of
/// these fields, and the differential property tests rely on this
/// equality to prove it.
impl PartialEq for Machine {
    fn eq(&self, other: &Self) -> bool {
        self.regs == other.regs
            && self.cpsr == other.cpsr
            && self.pc == other.pc
            && self.cp15 == other.cp15
            && self.mem == other.mem
            && self.tlb == other.tlb
            && self.cycles == other.cycles
            && self.irq_at == other.irq_at
            && self.fiq_at == other.fiq_at
            && self.first_user_insn_cycle == other.first_user_insn_cycle
    }
}

impl Machine {
    /// A machine at reset: secure supervisor mode, empty memory map.
    pub fn new() -> Machine {
        Machine {
            regs: RegFile::new(),
            cpsr: Psr::privileged(Mode::Supervisor),
            pc: 0,
            cp15: Cp15::default(),
            mem: PhysMem::new(),
            tlb: Tlb::new(),
            cycles: 0,
            irq_at: None,
            fiq_at: None,
            first_user_insn_cycle: None,
            accel: FetchAccel::new(),
            dtlb: DataTlb::new(),
            trace: FlightRecorder::disabled(),
        }
    }

    /// Returns the machine to its reset state while keeping its memory
    /// regions — the machine half of the fast re-boot path used by
    /// platform pooling.
    ///
    /// After `reboot`, every field that participates in machine equality
    /// (registers, PSR, PC, CP15, memory contents and counters, TLB,
    /// cycles, interrupt schedule) matches a fresh [`Machine::new`] whose
    /// memory regions were rebuilt with the same `add_region` calls; the
    /// host-side caches (fetch accelerator, data-TLB) and the flight
    /// recorder also return to their construction defaults. Memory is
    /// reset by dropping its page frames ([`PhysMem::reset_contents`]), so
    /// re-boot costs the pages the last job wrote, not the size of the
    /// RAM banks.
    pub fn reboot(&mut self) {
        self.regs = RegFile::new();
        self.cpsr = Psr::privileged(Mode::Supervisor);
        self.pc = 0;
        self.cp15 = Cp15::default();
        self.mem.reset_contents();
        self.tlb = Tlb::new();
        self.cycles = 0;
        self.irq_at = None;
        self.fiq_at = None;
        self.first_user_insn_cycle = None;
        self.accel = FetchAccel::new();
        self.dtlb = DataTlb::new();
        self.trace = FlightRecorder::disabled();
    }

    /// Re-arms the flight recorder to keep the most recent `capacity`
    /// events (0 disables recording), clearing any existing capture.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// A unified snapshot of every counter surface — architectural
    /// (cycles, memory, TLB), host-side (blocks, data-TLB), and the
    /// flight recorder's own capture totals — under the single
    /// [`MetricsSnapshot`] schema the bench JSON emitter reads through.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let sb = self.accel.sb_stats();
        let d = self.dtlb.stats();
        MetricsSnapshot {
            cycles: self.cycles,
            mem_reads: self.mem.reads,
            mem_writes: self.mem.writes,
            tlb_hits: self.tlb.hits,
            tlb_misses: self.tlb.misses,
            tlb_flushes: self.tlb.flushes,
            sb_built: sb.built,
            sb_hits: sb.hits,
            sb_chained: sb.chained,
            sb_inval_code_gen: sb.inval_code_gen,
            sb_inval_toggle: sb.inval_toggle,
            dtlb_hits: d.hits,
            dtlb_misses: d.misses,
            dtlb_inval_flush: d.inval_flush,
            dtlb_inval_ttbr: d.inval_ttbr,
            dtlb_inval_world: d.inval_world,
            // Every block is compiled when it is built.
            uop_promoted: sb.built,
            uop_hits: sb.uop_hits,
            trace_capacity: self.trace.capacity() as u64,
            trace_recorded: self.trace.total_recorded(),
            trace_dropped: self.trace.dropped(),
        }
    }

    /// Enables or disables the host-side fetch accelerator: on (the
    /// default) runs compiled blocks, off is the uncached per-instruction
    /// interpreter every differential test compares against. Disabling
    /// (or re-enabling) drops all cached state — decoded pages, blocks,
    /// translation entries, the data-TLB and the code watch behind them;
    /// simulated behaviour is identical either way, only host speed
    /// changes. Recorded events mirror the statistics convention: a drop
    /// is an event (`sb-inval cause=toggle`) only when something was
    /// cached.
    pub fn set_fetch_accel(&mut self, on: bool) {
        self.accel.set_enabled(on);
        self.dtlb.set_enabled(on);
        if self.accel.sb_has_cached() {
            self.trace.record(
                self.cycles,
                Event::SbInval {
                    cause: InvalCause::Toggle,
                },
            );
        }
        self.accel.invalidate();
        self.mem.clear_code_watch();
    }

    /// Starts a new translation epoch: drops the host state that stands
    /// for TLB residency — the accelerator's translation and hot-fetch
    /// entries and the data-TLB (attributing the drop to `cause`) — and
    /// keeps decoded pages, blocks and micro-op traces, which are
    /// confirmed in the new epoch before they run again (see the
    /// *Code cache across enclave entries* section of [`crate::dcache`]).
    fn new_translation_epoch(&mut self, cause: DTlbInval) {
        if self.trace.enabled() && self.dtlb.live_entries() > 0 {
            self.trace.record(
                self.cycles,
                Event::DTlbInval {
                    cause: trace_cause(cause),
                },
            );
        }
        self.accel.new_epoch();
        self.dtlb.invalidate(cause);
    }

    /// Host-side block-engine statistics (blocks built, dispatch
    /// hits, chained dispatches, invalidations split by cause), with the
    /// data-TLB's hit/miss/invalidation counters merged in.
    pub fn superblock_stats(&self) -> SbStats {
        let mut s = self.accel.sb_stats();
        let d = self.dtlb.stats();
        s.dtlb_hits = d.hits;
        s.dtlb_misses = d.misses;
        s.dtlb_invalidations = d.invalidations();
        s
    }

    /// Host-side data-TLB statistics with per-cause invalidation counts
    /// (the aggregate view is part of [`Machine::superblock_stats`]).
    pub fn dtlb_stats(&self) -> DTlbStats {
        self.dtlb.stats()
    }

    /// Writes `SCR.NS`, dropping the data-TLB when the effective
    /// TrustZone world changes. The monitor's world-switch paths (SMC
    /// entry/exit, boot hand-off) route through here so data-TLB entries
    /// never outlive the world they were formed in. A switch to the
    /// normal world also trims the fetch accelerator to the working set
    /// of the secure-world run that just returned, if one ran
    /// (`FetchAccel::trim`).
    pub fn set_scr_ns(&mut self, ns: bool) {
        if self.cp15.scr_ns != ns {
            if self.trace.enabled() && self.dtlb.live_entries() > 0 {
                self.trace.record(
                    self.cycles,
                    Event::DTlbInval {
                        cause: InvalCause::World,
                    },
                );
            }
            self.dtlb.invalidate(DTlbInval::World);
            if ns {
                self.accel.trim(&mut self.mem);
            }
            self.trace.record(self.cycles, Event::WorldSwitch { ns });
        }
        self.cp15.scr_ns = ns;
    }

    /// The current TrustZone world: monitor mode is always secure;
    /// otherwise `SCR.NS` selects (§3.3).
    #[inline]
    pub fn world(&self) -> World {
        if self.cpsr.mode == Mode::Monitor || !self.cp15.scr_ns {
            World::Secure
        } else {
            World::Normal
        }
    }

    /// Reads a register as seen from the current mode.
    #[inline]
    pub fn reg(&self, r: Reg) -> Word {
        self.regs.get(self.cpsr.mode, r)
    }

    /// Writes a register as seen from the current mode.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: Word) {
        self.regs.set(self.cpsr.mode, r, v);
    }

    /// Charges `n` cycles.
    #[inline]
    pub fn charge(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Arms an IRQ `delta` cycles from now (the injection seam chaos
    /// schedules use: deadlines relative to the current cycle are
    /// reproducible across runs, absolute ones are not). Returns the
    /// absolute deadline armed.
    pub fn schedule_irq_in(&mut self, delta: u64) -> u64 {
        let at = self.cycles.saturating_add(delta);
        self.irq_at = Some(at);
        at
    }

    /// Arms an FIQ `delta` cycles from now; see
    /// [`Machine::schedule_irq_in`]. Returns the absolute deadline armed.
    pub fn schedule_fiq_in(&mut self, delta: u64) -> u64 {
        let at = self.cycles.saturating_add(delta);
        self.fiq_at = Some(at);
        at
    }

    /// Disarms any scheduled IRQ/FIQ.
    pub fn clear_pending_interrupts(&mut self) {
        self.irq_at = None;
        self.fiq_at = None;
    }

    /// Whether an IRQ is pending at the current cycle.
    #[inline]
    pub fn irq_pending(&self) -> bool {
        self.irq_at.is_some_and(|at| self.cycles >= at)
    }

    /// Whether an FIQ is pending at the current cycle.
    #[inline]
    pub fn fiq_pending(&self) -> bool {
        self.fiq_at.is_some_and(|at| self.cycles >= at)
    }

    /// Takes an exception: banks the PSR and return address, switches mode,
    /// masks interrupts, and charges the entry cost.
    ///
    /// `return_addr` is the address execution should resume at — the model
    /// follows the paper in using the banked `LR` to "refer implicitly to
    /// the PC at the time of an exception" (§5.1).
    pub fn take_exception(&mut self, kind: ExceptionKind, return_addr: Word) {
        let target = kind.target_mode();
        let old = self.cpsr;
        self.regs.set_spsr(target, old);
        self.regs
            .set_lr_banked(crate::regs::Bank::of(target), return_addr);
        self.cpsr = Psr::privileged(target);
        self.charge(cost::EXN_ENTRY);
        self.trace.record(
            self.cycles,
            Event::ExnEntry {
                vector: kind.trace_vector(),
                from_mode: old.mode.bits() as u8,
                to_mode: target.bits() as u8,
            },
        );
    }

    /// Exception return (`MOVS PC, LR`): restores `CPSR` from the current
    /// mode's `SPSR` and resumes at the banked `LR`.
    ///
    /// Returns the restored mode's PSR; fails if the current mode has no
    /// `SPSR` (a model violation, not a runtime condition).
    pub fn exception_return(&mut self) -> Result<(), ModelViolation> {
        let spsr = self
            .regs
            .spsr(self.cpsr.mode)
            .ok_or(ModelViolation::NoSpsr)?;
        let lr = self.reg(Reg::Lr);
        self.cpsr = spsr;
        self.pc = lr;
        self.charge(cost::EXN_RETURN);
        self.trace.record(
            self.cycles,
            Event::ExnExit {
                to_mode: spsr.mode.bits() as u8,
            },
        );
        Ok(())
    }

    /// Loads `TTBR0` for the current world and marks the TLB inconsistent,
    /// as the paper's model prescribes for page-table base loads. Starts a
    /// new translation epoch for the host-side caches.
    pub fn load_ttbr0(&mut self, pa: Addr) {
        let world = self.world();
        self.cp15.mmu_mut(world).ttbr0 = pa;
        self.tlb.mark_inconsistent();
        self.new_translation_epoch(DTlbInval::Ttbr);
    }

    /// Flushes the entire TLB (the only flush the model supports, §5.1).
    /// Also starts a new translation epoch: the host-side state that stands
    /// for TLB residency (the accelerator's translation entries, the
    /// data-TLB) is dropped, while decoded pages, blocks and micro-op
    /// traces are kept and confirmed again before they run.
    pub fn tlb_flush(&mut self) {
        self.tlb.flush();
        self.charge(cost::TLB_FLUSH);
        self.trace.record(self.cycles, Event::TlbFlush);
        self.new_translation_epoch(DTlbInval::Flush);
    }

    /// Notes a store to page-table memory, marking the TLB inconsistent.
    ///
    /// The monitor calls this when it writes descriptors; enclave code can
    /// never reach page-table pages (a PageDB invariant), so user-mode
    /// stores need no such tracking. Starts a new translation epoch for
    /// the host-side caches.
    pub fn note_pagetable_store(&mut self) {
        self.tlb.mark_inconsistent();
        self.new_translation_epoch(DTlbInval::Ttbr);
    }

    /// Monitor-attributed physical read with cycle charging.
    pub fn mon_read(&mut self, pa: Addr) -> Result<Word, crate::error::MemFault> {
        self.charge(cost::MEM);
        self.mem.read(pa, AccessAttrs::MONITOR)
    }

    /// Monitor-attributed physical write with cycle charging.
    pub fn mon_write(&mut self, pa: Addr, v: Word) -> Result<(), crate::error::MemFault> {
        self.charge(cost::MEM);
        self.mem.write(pa, v, AccessAttrs::MONITOR)
    }

    /// [`Machine::mon_read`] of `out.len()` consecutive words in one
    /// step, charged as the per-word loop is: `cost::MEM` for every word
    /// it attempts, the faulting one included.
    pub fn mon_read_words(
        &mut self,
        pa: Addr,
        out: &mut [Word],
    ) -> Result<(), crate::error::MemFault> {
        let before = self.mem.reads;
        let res = self.mem.read_words(pa, out, AccessAttrs::MONITOR);
        self.charge(cost::MEM * (self.mem.reads - before + res.is_err() as u64));
        res
    }

    /// [`Machine::mon_write`] of consecutive words in one step, charged
    /// as the per-word loop is: `cost::MEM` for every word it attempts,
    /// the faulting one included.
    pub fn mon_write_words(
        &mut self,
        pa: Addr,
        words: &[Word],
    ) -> Result<(), crate::error::MemFault> {
        let before = self.mem.writes;
        let res = self.mem.write_words(pa, words, AccessAttrs::MONITOR);
        self.charge(cost::MEM * (self.mem.writes - before + res.is_err() as u64));
        res
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state_is_secure_supervisor() {
        let m = Machine::new();
        assert_eq!(m.cpsr.mode, Mode::Supervisor);
        assert_eq!(m.world(), World::Secure);
    }

    #[test]
    fn scr_ns_switches_world_except_monitor() {
        let mut m = Machine::new();
        m.cp15.scr_ns = true;
        assert_eq!(m.world(), World::Normal);
        m.cpsr.mode = Mode::Monitor;
        assert_eq!(m.world(), World::Secure);
    }

    #[test]
    fn exception_entry_banks_state() {
        let mut m = Machine::new();
        m.cpsr = Psr::user();
        m.cpsr.n = true;
        m.take_exception(ExceptionKind::Smc, 0x1234);
        assert_eq!(m.cpsr.mode, Mode::Monitor);
        assert!(m.cpsr.irq_masked && m.cpsr.fiq_masked);
        assert_eq!(m.reg(Reg::Lr), 0x1234);
        let spsr = m.regs.spsr(Mode::Monitor).unwrap();
        assert!(spsr.n);
        assert_eq!(spsr.mode, Mode::User);
    }

    #[test]
    fn exception_return_restores() {
        let mut m = Machine::new();
        m.cpsr = Psr::user();
        m.take_exception(ExceptionKind::Svc, 0x2000);
        m.exception_return().unwrap();
        assert_eq!(m.cpsr.mode, Mode::User);
        assert_eq!(m.pc, 0x2000);
    }

    #[test]
    fn exception_return_without_spsr_fails() {
        let mut m = Machine::new();
        m.cpsr = Psr::user();
        assert_eq!(m.exception_return(), Err(ModelViolation::NoSpsr));
    }

    #[test]
    fn ttbr_load_marks_tlb_inconsistent() {
        let mut m = Machine::new();
        assert!(m.tlb.is_consistent());
        m.load_ttbr0(0x8000_0000);
        assert!(!m.tlb.is_consistent());
        m.tlb_flush();
        assert!(m.tlb.is_consistent());
    }

    #[test]
    fn interrupt_scheduling() {
        let mut m = Machine::new();
        assert!(!m.irq_pending());
        m.irq_at = Some(100);
        assert!(!m.irq_pending());
        m.cycles = 100;
        assert!(m.irq_pending());
    }

    #[test]
    fn cycle_charging() {
        let mut m = Machine::new();
        let c0 = m.cycles;
        m.take_exception(ExceptionKind::Irq, 0);
        assert_eq!(m.cycles, c0 + cost::EXN_ENTRY);
    }

    #[test]
    fn trace_disabled_by_default_and_excluded_from_equality() {
        let mut a = Machine::new();
        let b = Machine::new();
        assert!(!a.trace.enabled());
        a.set_trace_capacity(64);
        a.take_exception(ExceptionKind::Smc, 0);
        assert!(!a.trace.is_empty());
        a.exception_return().unwrap();
        // Replay the same architectural steps untraced.
        let mut c = b.clone();
        c.take_exception(ExceptionKind::Smc, 0);
        c.exception_return().unwrap();
        assert!(c.trace.is_empty());
        assert_eq!(a, c, "tracing must not perturb architectural state");
    }

    #[test]
    fn boundary_events_are_recorded_with_monotonic_cycles() {
        let mut m = Machine::new();
        m.set_trace_capacity(64);
        m.cpsr = Psr::user();
        m.take_exception(ExceptionKind::Svc, 0x2000);
        m.exception_return().unwrap();
        m.take_exception(ExceptionKind::Smc, 0x2004);
        m.set_scr_ns(true);
        m.tlb_flush();
        m.set_scr_ns(false);
        let events: Vec<_> = m.trace.iter().copied().collect();
        // Per-machine cycle monotonicity: the stamp is the machine's own
        // cycle counter, which only moves forward.
        for w in events.windows(2) {
            assert!(w[0].cycle <= w[1].cycle, "{:?} then {:?}", w[0], w[1]);
        }
        let text: Vec<String> = events.iter().map(|s| s.event.to_string()).collect();
        assert!(
            text.iter().any(|t| t == "exn-entry svc usr->svc"),
            "{text:?}"
        );
        assert!(text.iter().any(|t| t == "exn-exit ->usr"), "{text:?}");
        assert!(
            text.iter().any(|t| t == "exn-entry smc usr->mon"),
            "{text:?}"
        );
        assert!(text.iter().any(|t| t == "world-switch ns=1"), "{text:?}");
        assert!(text.iter().any(|t| t == "world-switch ns=0"), "{text:?}");
        assert!(text.iter().any(|t| t == "tlb-flush"), "{text:?}");
    }

    /// The machine must stay `Send` so a platform can migrate between
    /// fleet worker threads: every field is owned plain data (no `Rc`,
    /// no raw pointers, no interior mutability). This is a compile-time
    /// assertion — it fails to build, not at runtime, if a future field
    /// breaks the bound.
    #[test]
    fn machine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Machine>();
        assert_send::<PhysMem>();
    }

    #[test]
    fn monitor_word_ranges_charge_like_the_per_word_loop() {
        let build = || {
            let mut m = Machine::new();
            m.mem.add_region(0, 0x2000, false);
            m.mem.add_region(0x8000_0000, 0x2000, true);
            m
        };
        let words: Vec<Word> = (1..=40).collect();
        // Ranges that fit, cross a frame, start unaligned, and run off a
        // region's end (faulting at word 8).
        for pa in [
            0x8000_0ff0,
            0x8000_1000,
            0x8000_0002,
            0x8000_1fe0,
            0x0000_1fe0,
        ] {
            let (mut bulk, mut each) = (build(), build());
            let got = bulk.mon_write_words(pa, &words);
            let want = words
                .iter()
                .enumerate()
                .try_for_each(|(i, &w)| each.mon_write(pa + i as u32 * 4, w));
            assert_eq!(got, want, "write at {pa:#x}");
            assert!(bulk == each, "write at {pa:#x}: machines differ");
            let mut out = vec![0; words.len()];
            let got = bulk.mon_read_words(pa, &mut out);
            let mut want_out = vec![0; words.len()];
            let want = want_out
                .iter_mut()
                .enumerate()
                .try_for_each(|(i, o)| each.mon_read(pa + i as u32 * 4).map(|w| *o = w));
            assert_eq!((got, out), (want, want_out), "read at {pa:#x}");
            assert!(bulk == each, "read at {pa:#x}: machines differ");
        }
    }

    #[test]
    fn reboot_matches_fresh_boot_bit_for_bit() {
        let build = || {
            let mut m = Machine::new();
            m.mem.add_region(0, 0x4000, false);
            m.mem.add_region(0x8000_0000, 0x2000, true);
            m
        };
        let mut m = build();
        // Dirty every layer: memory, registers, TLB schedule, cycles.
        m.mem
            .write(0x100, 0xdead_beef, AccessAttrs::NORMAL)
            .unwrap();
        m.mem.read(0x100, AccessAttrs::NORMAL).unwrap();
        m.set_reg(Reg::R(3), 77);
        m.cycles = 1234;
        m.irq_at = Some(99);
        m.pc = 0x8000;
        m.set_trace_capacity(16);
        m.reboot();
        let fresh = build();
        assert!(m == fresh, "reboot must reproduce the reset state");
        assert_eq!(m.mem.peek(0x100), Some(0));
        assert!(!m.trace.enabled(), "reboot returns the recorder to default");
        // The rebooted machine is fully usable.
        m.mem.write(0x200, 7, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.mem.read(0x200, AccessAttrs::NORMAL).unwrap(), 7);
    }

    #[test]
    fn metrics_snapshot_mirrors_counters() {
        let mut m = Machine::new();
        m.set_trace_capacity(8);
        m.tlb_flush();
        m.tlb.hits += 3;
        let s = m.metrics_snapshot();
        assert_eq!(s.cycles, m.cycles);
        assert_eq!(s.tlb_flushes, 1);
        assert_eq!(s.tlb_hits, 3);
        assert_eq!(s.trace_capacity, 8);
        assert_eq!(s.trace_recorded, m.trace.total_recorded());
        assert_eq!(s.mem_reads, m.mem.reads);
    }
}
