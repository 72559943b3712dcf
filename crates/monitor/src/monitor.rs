//! The monitor proper: SMC and SVC handlers, enclave entry/exit.
//!
//! Control flow mirrors Figure 3: everything nests inside the top-level
//! SMC handler. `Enter`/`Resume` reach user mode at exactly one point (the
//! `MOVS PC, LR` in `Monitor::run_enclave`); every exception taken during
//! enclave execution (SVC, IRQ, FIQ, aborts, undefined instructions)
//! returns to that loop, which either re-enters the enclave or falls
//! through to the SMC return path.

use komodo_armv7::exn::ExceptionKind;
use komodo_armv7::mode::Mode;
use komodo_armv7::psr::Psr;
use komodo_armv7::ptw::{self, PagePerms};
use komodo_armv7::regs::{Bank, Reg};
use komodo_armv7::word::{PAGE_SIZE, WORDS_PER_PAGE};
use komodo_armv7::{ExitReason, Machine};
use komodo_crypto::sha256::{Sha256, BLOCK_WORDS, H0};
use komodo_crypto::{Digest, HashDrbg};
use komodo_spec::measure::MeasureOp;
use komodo_spec::{KomErr, Mapping, SecureParams, SmcCall, SvcCall};
use komodo_trace::Event;

use crate::costs;
use crate::layout::MonitorLayout;
use crate::page_memo;
use crate::pgdb::{self, asp_off, astate, ptype, th_off};

/// Result of a secure monitor call, as returned to the OS in `R0`/`R1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmcResult {
    /// Error code (`R0`).
    pub err: KomErr,
    /// Return value (`R1`): page count, enclave return value, etc.
    pub retval: u32,
}

/// Deliberately plantable monitor bugs, all off by default.
///
/// These exist to validate the chaos harness's oracles: each knob
/// suppresses one security-critical step on an error/edge path, exactly
/// the surface Komodo's verification covers and cooperative tests miss.
/// A chaos campaign run against a monitor with a planted bug must flag
/// the violation and shrink the triggering schedule; see
/// `komodo-chaos`. Production paths never set these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlantedBugs {
    /// Skip the exit-path register scrub when an enclave burst ends
    /// `Interrupted` — the OS then observes live enclave registers, a
    /// direct secret leak the NI oracle must catch.
    pub leak_regs_on_interrupt: bool,
    /// Skip the addrspace refcount decrement when a `SPARE` page is
    /// removed — the PageDb refcount then overcounts, a state-machine
    /// corruption the refinement/invariant oracle must catch.
    pub refcount_leak_on_remove: bool,
}

impl PlantedBugs {
    /// True when any bug is planted.
    pub fn any(&self) -> bool {
        self.leak_regs_on_interrupt || self.refcount_leak_on_remove
    }
}

/// The Komodo monitor state (the verified image's globals).
#[derive(Clone, Debug)]
pub struct Monitor {
    /// Physical layout.
    pub layout: MonitorLayout,
    /// Validation parameters derived from the layout.
    pub params: SecureParams,
    attest_key: [u8; 32],
    drbg: HashDrbg,
    /// Conservatively save/restore every banked register on enclave entry
    /// (§8.1); the ablation bench disables this to measure the headroom.
    pub conservative_save: bool,
    /// Flush the TLB on every enclave entry rather than only when
    /// inconsistent (§8.1); ablation toggle.
    pub always_flush_tlb: bool,
    /// User-execution step budget per burst before the monitor treats the
    /// enclave as interrupted (models the OS's timer preemption).
    pub step_budget: u64,
    /// Deliberately planted bugs for chaos-oracle validation; all off by
    /// default.
    pub planted: PlantedBugs,
}

impl Monitor {
    /// Constructs the monitor state; use [`crate::boot::boot`] for a fully
    /// initialised platform.
    pub fn new(layout: MonitorLayout, seed: u64) -> Monitor {
        let mut drbg = HashDrbg::from_u64(seed);
        let attest_key = drbg.derive_key(b"komodo-attest").to_bytes();
        let params = layout.params();
        Monitor {
            layout,
            params,
            attest_key,
            drbg,
            conservative_save: true,
            always_flush_tlb: true,
            step_budget: 500_000_000,
            planted: PlantedBugs::default(),
        }
    }

    /// The boot-time attestation key (exposed for verification in tests
    /// and for the OS-side `verify` helper an untrusted OS does *not* get;
    /// see the NI suite for what the adversary may observe).
    pub fn attest_key(&self) -> &[u8; 32] {
        &self.attest_key
    }

    /// Handles one secure monitor call from the OS.
    ///
    /// The machine must be in the normal world (the OS's context); the
    /// call takes the SMC exception into monitor mode, dispatches, applies
    /// the register-hygiene rules (non-volatile preserved, `R2`/`R3`/`R12`
    /// scrubbed, results in `R0`/`R1`), and returns to the OS.
    pub fn smc(&mut self, m: &mut Machine, call: u32, args: [u32; 4]) -> SmcResult {
        let os_psr = m.cpsr;
        // Marshal arguments as the OS's SMC stub would.
        m.set_reg(Reg::R(0), call);
        for (i, a) in args.iter().enumerate() {
            m.set_reg(Reg::R(1 + i as u8), *a);
        }
        m.take_exception(ExceptionKind::Smc, 0);
        m.set_scr_ns(false); // Secure world while the monitor runs.
        m.charge(costs::SMC_DISPATCH + costs::SMC_SAVE_REGS);
        m.trace.record(m.cycles, Event::SmcEntry { call });

        let (err, retval) = self.dispatch(m);

        // Return path: back to monitor mode (nested handlers may have left
        // us in SVC/IRQ/abort modes), restore the OS context, scrub.
        m.charge(costs::SMC_RESTORE_SCRUB);
        m.cpsr = Psr::privileged(Mode::Monitor);
        m.regs.set_spsr(Mode::Monitor, os_psr);
        m.regs.set_lr_banked(Bank::Mon, 0);
        m.set_reg(Reg::R(0), err.code());
        m.set_reg(Reg::R(1), retval);
        // Argument and scratch registers are zeroed "to prevent
        // information leaks" (§5.2); non-volatile R5–R11 are preserved.
        // (The SMC ABI passes the call number in R0 and up to four
        // arguments in R1–R4, so R2–R4 are the OS's to lose.)
        for i in [2u8, 3, 4, 12] {
            m.set_reg(Reg::R(i), 0);
        }
        m.trace.record(
            m.cycles,
            Event::SmcExit {
                call,
                err: err.code(),
                retval,
            },
        );
        m.set_scr_ns(true);
        m.exception_return().expect("monitor mode has an SPSR");
        SmcResult { err, retval }
    }

    fn dispatch(&mut self, m: &mut Machine) -> (KomErr, u32) {
        let call = m.reg(Reg::R(0));
        let a = [
            m.reg(Reg::R(1)),
            m.reg(Reg::R(2)),
            m.reg(Reg::R(3)),
            m.reg(Reg::R(4)),
        ];
        match SmcCall::from_code(call) {
            None => (KomErr::InvalidCall, 0),
            Some(SmcCall::GetPhysPages) => (KomErr::Ok, self.layout.npages as u32),
            Some(SmcCall::InitAddrspace) => (self.sm_init_addrspace(m, a[0], a[1]), 0),
            Some(SmcCall::InitThread) => (self.sm_init_thread(m, a[0], a[1], a[2]), 0),
            Some(SmcCall::InitL2PTable) => (self.sm_init_l2pt(m, a[0], a[1], a[2]), 0),
            Some(SmcCall::AllocSpare) => (self.sm_alloc_spare(m, a[0], a[1]), 0),
            Some(SmcCall::MapSecure) => (self.sm_map_secure(m, a[0], a[1], a[2], a[3]), 0),
            Some(SmcCall::MapInsecure) => (self.sm_map_insecure(m, a[0], a[1], a[2]), 0),
            Some(SmcCall::Finalise) => (self.sm_finalise(m, a[0]), 0),
            Some(SmcCall::Enter) => self.sm_enter(m, a[0], [a[1], a[2], a[3]]),
            Some(SmcCall::Resume) => self.sm_resume(m, a[0]),
            Some(SmcCall::Stop) => (self.sm_stop(m, a[0]), 0),
            Some(SmcCall::Remove) => (self.sm_remove(m, a[0]), 0),
        }
    }

    // --- Validation helpers -------------------------------------------------

    fn valid_page(&self, pg: u32) -> bool {
        (pg as usize) < self.layout.npages
    }

    fn meta(&self, m: &mut Machine, pg: u32) -> (u32, u32) {
        pgdb::meta(m, &self.layout, pg as usize).expect("monitor metadata access")
    }

    fn asp_state(&self, m: &mut Machine, asp: u32) -> u32 {
        pgdb::read_word(m, &self.layout, asp as usize, asp_off::STATE)
            .expect("monitor addrspace access")
    }

    /// Validates that `asp` names an address space and returns the error
    /// for a required `INIT` state.
    fn check_init_addrspace(&self, m: &mut Machine, asp: u32) -> Result<(), KomErr> {
        if !self.valid_page(asp) {
            return Err(KomErr::InvalidPageNo);
        }
        let (ty, _) = self.meta(m, asp);
        if ty != ptype::ADDRSPACE {
            return Err(KomErr::InvalidAddrspace);
        }
        match self.asp_state(m, asp) {
            astate::INIT => Ok(()),
            astate::FINAL => Err(KomErr::AlreadyFinal),
            _ => Err(KomErr::Stopped),
        }
    }

    fn check_free(&self, m: &mut Machine, pg: u32) -> Result<(), KomErr> {
        if !self.valid_page(pg) {
            return Err(KomErr::InvalidPageNo);
        }
        let (ty, _) = self.meta(m, pg);
        if ty != ptype::FREE {
            return Err(KomErr::PageInUse);
        }
        Ok(())
    }

    fn add_ref(&self, m: &mut Machine, asp: u32, delta: i32) {
        let rc = pgdb::read_word(m, &self.layout, asp as usize, asp_off::REFCOUNT)
            .expect("monitor addrspace access");
        let rc = rc.checked_add_signed(delta).expect("refcount underflow");
        pgdb::write_word(m, &self.layout, asp as usize, asp_off::REFCOUNT, rc)
            .expect("monitor addrspace access");
    }

    /// Extends the running measurement of `asp` with block-aligned words.
    /// A whole page is absorbed through the page memo ([`page_memo`]),
    /// which only saves host time: the charge and the state written are
    /// the same.
    fn extend_measurement(&self, m: &mut Machine, asp: u32, words: &[u32]) {
        debug_assert_eq!(words.len() % BLOCK_WORDS, 0);
        let l = &self.layout;
        let mut h = [0u32; 8];
        pgdb::read_words(m, l, asp as usize, asp_off::MEAS_H, &mut h)
            .expect("monitor addrspace access");
        match <&[u32; WORDS_PER_PAGE]>::try_from(words) {
            Ok(page) => page_memo::compress_page(&mut h, page),
            Err(_) => Sha256::compress_words(&mut h, words),
        }
        m.charge(costs::SHA_BLOCK * (words.len() / BLOCK_WORDS) as u64);
        pgdb::write_words(m, l, asp as usize, asp_off::MEAS_H, &h)
            .expect("monitor addrspace access");
        let nb = pgdb::read_word(m, l, asp as usize, asp_off::MEAS_NBLOCKS)
            .expect("monitor addrspace access");
        pgdb::write_word(
            m,
            l,
            asp as usize,
            asp_off::MEAS_NBLOCKS,
            nb + (words.len() / BLOCK_WORDS) as u32,
        )
        .expect("monitor addrspace access");
    }

    fn measure_header(&self, m: &mut Machine, asp: u32, op: MeasureOp, args: &[u32]) {
        let mut header = [0u32; BLOCK_WORDS];
        header[0] = op as u32;
        header[1..1 + args.len()].copy_from_slice(args);
        self.extend_measurement(m, asp, &header);
    }

    /// Locates the L2 page-table page and slot for `mapping` by reading the
    /// hardware L1 table, verifying ownership via metadata.
    fn locate_l2(&self, m: &mut Machine, asp: u32, mapping: Mapping) -> Result<(u32, u32), KomErr> {
        if !mapping.in_bounds() {
            return Err(KomErr::InvalidMapping);
        }
        let l1pt = pgdb::read_word(m, &self.layout, asp as usize, asp_off::L1PT)
            .expect("monitor addrspace access");
        // Hardware L1 index has 1 MB granularity.
        let hw_index = mapping.vpn >> 8;
        let desc = pgdb::read_word(m, &self.layout, l1pt as usize, hw_index)
            .expect("monitor pagetable access");
        let Some(coarse_pa) = ptw::decode_l1_desc(desc) else {
            return Err(KomErr::InvalidMapping);
        };
        let l2pg_pa = coarse_pa & !(PAGE_SIZE - 1);
        let Some(l2pg) = self.layout.pa_to_page(l2pg_pa) else {
            return Err(KomErr::InvalidMapping);
        };
        let (ty, owner) = self.meta(m, l2pg as u32);
        if ty != ptype::L2PT || owner != asp {
            return Err(KomErr::InvalidMapping);
        }
        Ok((l2pg as u32, mapping.l2_slot() as u32))
    }

    // --- Structural SMCs ----------------------------------------------------

    fn sm_init_addrspace(&mut self, m: &mut Machine, asp: u32, l1pt: u32) -> KomErr {
        m.charge(costs::VALIDATE);
        if !self.valid_page(asp) || !self.valid_page(l1pt) {
            return KomErr::InvalidPageNo;
        }
        if asp == l1pt {
            return KomErr::PageInUse; // The §9.1 aliasing bug.
        }
        if self.check_free(m, asp).is_err() || self.check_free(m, l1pt).is_err() {
            return KomErr::PageInUse;
        }
        let l = self.layout.clone();
        pgdb::zero_page(m, &l, asp as usize).expect("monitor pool access");
        pgdb::zero_page(m, &l, l1pt as usize).expect("monitor pool access");
        pgdb::write_word(m, &l, asp as usize, asp_off::L1PT, l1pt).expect("pool");
        pgdb::write_word(m, &l, asp as usize, asp_off::REFCOUNT, 1).expect("pool");
        pgdb::write_word(m, &l, asp as usize, asp_off::STATE, astate::INIT).expect("pool");
        pgdb::write_words(m, &l, asp as usize, asp_off::MEAS_H, &H0).expect("pool");
        pgdb::set_meta(m, &l, asp as usize, ptype::ADDRSPACE, 0).expect("meta");
        pgdb::set_meta(m, &l, l1pt as usize, ptype::L1PT, asp).expect("meta");
        m.trace
            .record(m.cycles, Event::EnclaveInit { addrspace: asp });
        KomErr::Ok
    }

    fn sm_init_thread(&mut self, m: &mut Machine, asp: u32, th: u32, entry: u32) -> KomErr {
        m.charge(costs::VALIDATE);
        if !self.valid_page(asp) || !self.valid_page(th) {
            return KomErr::InvalidPageNo;
        }
        if let Err(e) = self.check_init_addrspace(m, asp) {
            return e;
        }
        if let Err(e) = self.check_free(m, th) {
            return e;
        }
        let l = self.layout.clone();
        pgdb::zero_page(m, &l, th as usize).expect("pool");
        pgdb::write_word(m, &l, th as usize, th_off::ENTRY, entry).expect("pool");
        pgdb::set_meta(m, &l, th as usize, ptype::THREAD, asp).expect("meta");
        self.add_ref(m, asp, 1);
        self.measure_header(m, asp, MeasureOp::InitThread, &[entry]);
        KomErr::Ok
    }

    /// Writes the four hardware L1 descriptors for Komodo slot `l1index`,
    /// pointing at the four coarse tables inside `l2pt`'s page.
    fn write_l1_slot(&self, m: &mut Machine, l1pt: u32, l1index: u32, l2pt: u32) {
        let l2_pa = self.layout.page_pa(l2pt as usize);
        for k in 0..4 {
            let desc = ptw::l1_coarse_desc(l2_pa + k * 0x400);
            pgdb::write_word(m, &self.layout, l1pt as usize, l1index * 4 + k, desc)
                .expect("pagetable");
        }
        m.note_pagetable_store();
    }

    fn l1_slot_empty(&self, m: &mut Machine, l1pt: u32, l1index: u32) -> bool {
        pgdb::read_word(m, &self.layout, l1pt as usize, l1index * 4).expect("pagetable") == 0
    }

    fn sm_init_l2pt(&mut self, m: &mut Machine, asp: u32, l2pt: u32, l1index: u32) -> KomErr {
        m.charge(costs::VALIDATE);
        if !self.valid_page(asp) || !self.valid_page(l2pt) {
            return KomErr::InvalidPageNo;
        }
        if let Err(e) = self.check_init_addrspace(m, asp) {
            return e;
        }
        if let Err(e) = self.check_free(m, l2pt) {
            return e;
        }
        if l1index >= 256 {
            return KomErr::InvalidMapping;
        }
        let l1pt = pgdb::read_word(m, &self.layout, asp as usize, asp_off::L1PT).expect("pool");
        if !self.l1_slot_empty(m, l1pt, l1index) {
            return KomErr::AddrInUse;
        }
        let l = self.layout.clone();
        pgdb::zero_page(m, &l, l2pt as usize).expect("pool");
        pgdb::set_meta(m, &l, l2pt as usize, ptype::L2PT, asp).expect("meta");
        self.write_l1_slot(m, l1pt, l1index, l2pt);
        self.add_ref(m, asp, 1);
        self.measure_header(m, asp, MeasureOp::InitL2PTable, &[l1index]);
        KomErr::Ok
    }

    fn sm_alloc_spare(&mut self, m: &mut Machine, asp: u32, spare: u32) -> KomErr {
        m.charge(costs::VALIDATE);
        if !self.valid_page(asp) || !self.valid_page(spare) {
            return KomErr::InvalidPageNo;
        }
        let (ty, _) = self.meta(m, asp);
        if ty != ptype::ADDRSPACE {
            return KomErr::InvalidAddrspace;
        }
        if self.asp_state(m, asp) == astate::STOPPED {
            return KomErr::Stopped;
        }
        if let Err(e) = self.check_free(m, spare) {
            return e;
        }
        pgdb::set_meta(m, &self.layout, spare as usize, ptype::SPARE, asp).expect("meta");
        self.add_ref(m, asp, 1);
        KomErr::Ok
    }

    fn sm_map_secure(
        &mut self,
        m: &mut Machine,
        asp: u32,
        data: u32,
        map_word: u32,
        content_pfn: u32,
    ) -> KomErr {
        m.charge(costs::VALIDATE);
        let mapping = Mapping::unpack(map_word);
        if !self.valid_page(asp) || !self.valid_page(data) {
            return KomErr::InvalidPageNo;
        }
        if let Err(e) = self.check_init_addrspace(m, asp) {
            return e;
        }
        if let Err(e) = self.check_free(m, data) {
            return e;
        }
        if !self.params.valid_insecure_pfn(content_pfn) {
            return KomErr::InvalidInsecure;
        }
        if !mapping.r {
            return KomErr::InvalidMapping;
        }
        let (l2pg, slot) = match self.locate_l2(m, asp, mapping) {
            Ok(x) => x,
            Err(e) => return e,
        };
        if pgdb::read_word(m, &self.layout, l2pg as usize, slot).expect("pagetable") != 0 {
            return KomErr::AddrInUse;
        }
        // Copy and measure the initial contents.
        let mut contents = [0u32; WORDS_PER_PAGE];
        m.mon_read_words(content_pfn << 12, &mut contents)
            .expect("validated insecure page");
        let l = self.layout.clone();
        pgdb::write_words(m, &l, data as usize, 0, &contents).expect("pool");
        m.charge(costs::DCACHE_PAGE);
        pgdb::set_meta(m, &l, data as usize, ptype::DATA, asp).expect("meta");
        let perms = PagePerms {
            r: true,
            w: mapping.w,
            x: mapping.x,
        };
        let desc = ptw::l2_page_desc(l.page_pa(data as usize), perms, false);
        pgdb::write_word(m, &l, l2pg as usize, slot, desc).expect("pagetable");
        m.note_pagetable_store();
        self.add_ref(m, asp, 1);
        self.measure_header(m, asp, MeasureOp::MapSecure, &[map_word]);
        self.extend_measurement(m, asp, &contents);
        KomErr::Ok
    }

    fn sm_map_insecure(&mut self, m: &mut Machine, asp: u32, map_word: u32, pfn: u32) -> KomErr {
        m.charge(costs::VALIDATE);
        let mapping = Mapping::unpack(map_word);
        if !self.valid_page(asp) {
            return KomErr::InvalidPageNo;
        }
        if let Err(e) = self.check_init_addrspace(m, asp) {
            return e;
        }
        if mapping.x {
            return KomErr::InvalidMapping;
        }
        if !self.params.valid_insecure_pfn(pfn) {
            return KomErr::InvalidInsecure;
        }
        if !mapping.r {
            return KomErr::InvalidMapping;
        }
        let (l2pg, slot) = match self.locate_l2(m, asp, mapping) {
            Ok(x) => x,
            Err(e) => return e,
        };
        if pgdb::read_word(m, &self.layout, l2pg as usize, slot).expect("pagetable") != 0 {
            return KomErr::AddrInUse;
        }
        let perms = PagePerms {
            r: true,
            w: mapping.w,
            x: false,
        };
        let desc = ptw::l2_page_desc(pfn << 12, perms, true);
        pgdb::write_word(m, &self.layout, l2pg as usize, slot, desc).expect("pagetable");
        m.note_pagetable_store();
        self.measure_header(m, asp, MeasureOp::MapInsecure, &[map_word]);
        KomErr::Ok
    }

    fn sm_finalise(&mut self, m: &mut Machine, asp: u32) -> KomErr {
        m.charge(costs::VALIDATE);
        if !self.valid_page(asp) {
            return KomErr::InvalidPageNo;
        }
        if let Err(e) = self.check_init_addrspace(m, asp) {
            return e;
        }
        let l = self.layout.clone();
        let mut h = [0u32; 8];
        pgdb::read_words(m, &l, asp as usize, asp_off::MEAS_H, &mut h).expect("pool");
        let nb = pgdb::read_word(m, &l, asp as usize, asp_off::MEAS_NBLOCKS).expect("pool");
        let digest = Sha256::finish_blocks(h, nb as u64);
        m.charge(costs::SHA_BLOCK);
        pgdb::write_words(m, &l, asp as usize, asp_off::MEAS_DIGEST, &digest.0).expect("pool");
        pgdb::write_word(m, &l, asp as usize, asp_off::MEAS_DONE, 1).expect("pool");
        pgdb::write_word(m, &l, asp as usize, asp_off::STATE, astate::FINAL).expect("pool");
        KomErr::Ok
    }

    fn sm_stop(&mut self, m: &mut Machine, asp: u32) -> KomErr {
        m.charge(costs::VALIDATE);
        if !self.valid_page(asp) {
            return KomErr::InvalidPageNo;
        }
        let (ty, _) = self.meta(m, asp);
        if ty != ptype::ADDRSPACE {
            return KomErr::InvalidAddrspace;
        }
        pgdb::write_word(
            m,
            &self.layout,
            asp as usize,
            asp_off::STATE,
            astate::STOPPED,
        )
        .expect("pool");
        KomErr::Ok
    }

    fn sm_remove(&mut self, m: &mut Machine, pg: u32) -> KomErr {
        m.charge(costs::VALIDATE);
        if !self.valid_page(pg) {
            return KomErr::InvalidPageNo;
        }
        let (ty, owner) = self.meta(m, pg);
        match ty {
            ptype::FREE => KomErr::Ok,
            ptype::ADDRSPACE => {
                let rc =
                    pgdb::read_word(m, &self.layout, pg as usize, asp_off::REFCOUNT).expect("pool");
                if rc != 0 {
                    return KomErr::PagesRemain;
                }
                pgdb::set_meta(m, &self.layout, pg as usize, ptype::FREE, 0).expect("meta");
                m.trace.record(m.cycles, Event::EnclaveDestroy { page: pg });
                KomErr::Ok
            }
            ptype::SPARE => {
                pgdb::set_meta(m, &self.layout, pg as usize, ptype::FREE, 0).expect("meta");
                if !self.planted.refcount_leak_on_remove {
                    self.add_ref(m, owner, -1);
                }
                KomErr::Ok
            }
            _ => {
                if self.asp_state(m, owner) != astate::STOPPED {
                    return KomErr::NotStopped;
                }
                pgdb::set_meta(m, &self.layout, pg as usize, ptype::FREE, 0).expect("meta");
                self.add_ref(m, owner, -1);
                KomErr::Ok
            }
        }
    }

    // --- Enclave execution --------------------------------------------------

    fn check_thread(&self, m: &mut Machine, th: u32) -> Result<u32, KomErr> {
        if !self.valid_page(th) {
            return Err(KomErr::InvalidPageNo);
        }
        let (ty, owner) = self.meta(m, th);
        if ty != ptype::THREAD {
            return Err(KomErr::InvalidPageNo);
        }
        match self.asp_state(m, owner) {
            astate::FINAL => Ok(owner),
            astate::INIT => Err(KomErr::NotFinal),
            _ => Err(KomErr::Stopped),
        }
    }

    fn sm_enter(&mut self, m: &mut Machine, th: u32, args: [u32; 3]) -> (KomErr, u32) {
        m.charge(costs::VALIDATE);
        let asp = match self.check_thread(m, th) {
            Ok(a) => a,
            Err(e) => return (e, 0),
        };
        if pgdb::read_word(m, &self.layout, th as usize, th_off::ENTERED).expect("pool") != 0 {
            return (KomErr::AlreadyEntered, 0);
        }
        let entry = pgdb::read_word(m, &self.layout, th as usize, th_off::ENTRY).expect("pool");
        let mut regs = [0u32; 15];
        regs[..3].copy_from_slice(&args);
        m.trace.record(m.cycles, Event::EnclaveEnter { thread: th });
        self.run_enclave(m, th, asp, regs, entry, Psr::user())
    }

    fn sm_resume(&mut self, m: &mut Machine, th: u32) -> (KomErr, u32) {
        m.charge(costs::VALIDATE);
        let asp = match self.check_thread(m, th) {
            Ok(a) => a,
            Err(e) => return (e, 0),
        };
        if pgdb::read_word(m, &self.layout, th as usize, th_off::ENTERED).expect("pool") == 0 {
            return (KomErr::NotEntered, 0);
        }
        let l = self.layout.clone();
        let mut regs = [0u32; 15];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = pgdb::read_word(m, &l, th as usize, th_off::REGS + i as u32).expect("pool");
        }
        let pc = pgdb::read_word(m, &l, th as usize, th_off::PC).expect("pool");
        let flags = pgdb::read_word(m, &l, th as usize, th_off::FLAGS).expect("pool");
        pgdb::write_word(m, &l, th as usize, th_off::ENTERED, 0).expect("pool");
        m.charge(costs::CONTEXT_SWITCH);
        let mut psr = Psr::user();
        psr.n = flags & (1 << 31) != 0;
        psr.z = flags & (1 << 30) != 0;
        psr.c = flags & (1 << 29) != 0;
        psr.v = flags & (1 << 28) != 0;
        m.trace
            .record(m.cycles, Event::EnclaveResume { thread: th });
        self.run_enclave(m, th, asp, regs, pc, psr)
    }

    /// The single user-mode entry point and its exception loop (Figure 3).
    fn run_enclave(
        &mut self,
        m: &mut Machine,
        th: u32,
        asp: u32,
        regs: [u32; 15],
        pc: u32,
        psr: Psr,
    ) -> (KomErr, u32) {
        if self.conservative_save {
            m.charge(costs::BANKED_SAVE_RESTORE);
        }
        let l1pt = pgdb::read_word(m, &self.layout, asp as usize, asp_off::L1PT).expect("pool");
        let ttbr0 = self.layout.page_pa(l1pt as usize);
        // Optimisation knob (§8.1): the unoptimised prototype reloads
        // TTBR0 and flushes unconditionally; the optimised variant skips
        // both for repeated invocation of the same enclave when the TLB
        // is still consistent.
        let cur = m.cp15.mmu(komodo_armv7::mode::World::Secure).ttbr0;
        if self.always_flush_tlb || cur != ttbr0 {
            m.load_ttbr0(ttbr0);
            m.tlb_flush();
        } else if !m.tlb.is_consistent() {
            m.tlb_flush();
        }
        m.regs.set_user_visible(&regs);
        // Enter user mode from monitor mode via `MOVS PC, LR`.
        m.regs.set_spsr(Mode::Monitor, psr);
        m.regs.set_lr_banked(Bank::Mon, pc);
        m.cpsr = Psr::privileged(Mode::Monitor);
        m.exception_return().expect("monitor SPSR just written");

        let result = loop {
            let exit = m
                .run_user(self.step_budget)
                .expect("monitor enforces the user-execution contract");
            match exit {
                ExitReason::Svc { .. } => {
                    let call = m.reg(Reg::R(0));
                    if SvcCall::from_code(call) == Some(SvcCall::Exit) {
                        break (KomErr::Ok, m.reg(Reg::R(1)));
                    }
                    self.handle_svc(m, th, asp);
                    if !m.tlb.is_consistent() {
                        m.tlb_flush();
                    }
                    // Return to the enclave (SVC mode → user).
                    m.exception_return().expect("SVC mode has an SPSR");
                }
                ExitReason::Irq | ExitReason::Fiq => {
                    let bank = if exit == ExitReason::Irq {
                        Bank::Irq
                    } else {
                        Bank::Fiq
                    };
                    let resume_pc = m.regs.lr_banked(bank);
                    let spsr = m.regs.spsr(m.cpsr.mode).expect("exception mode");
                    self.save_context(m, th, resume_pc, spsr);
                    break (KomErr::Interrupted, 0);
                }
                ExitReason::StepLimit => {
                    // Burst budget exhausted: architecturally this is the
                    // OS timer firing; treat as an interrupt.
                    let resume_pc = m.pc;
                    let spsr = m.cpsr;
                    m.take_exception(ExceptionKind::Irq, resume_pc);
                    self.save_context(m, th, resume_pc, spsr);
                    break (KomErr::Interrupted, 0);
                }
                ExitReason::DataAbort(_)
                | ExitReason::PrefetchAbort(_)
                | ExitReason::Undefined(_) => {
                    // "The thread simply exits with an error code (but no
                    // other information, to avoid side-channel leaks)" (§4).
                    break (KomErr::Fault, 0);
                }
            }
        };
        // Exit path: scrub the user register file before the OS can look.
        if !(self.planted.leak_regs_on_interrupt && result.0 == KomErr::Interrupted) {
            m.regs.scrub_user_visible();
        }
        if self.conservative_save {
            m.charge(costs::BANKED_SAVE_RESTORE);
        }
        m.trace.record(
            m.cycles,
            Event::EnclaveExit {
                thread: th,
                err: result.0.code(),
            },
        );
        result
    }

    fn save_context(&self, m: &mut Machine, th: u32, pc: u32, spsr: Psr) {
        let l = self.layout.clone();
        let regs = m.regs.user_visible();
        for (i, r) in regs.iter().enumerate() {
            pgdb::write_word(m, &l, th as usize, th_off::REGS + i as u32, *r).expect("pool");
        }
        pgdb::write_word(m, &l, th as usize, th_off::PC, pc).expect("pool");
        let flags = spsr.encode() & 0xf000_0000;
        pgdb::write_word(m, &l, th as usize, th_off::FLAGS, flags).expect("pool");
        pgdb::write_word(m, &l, th as usize, th_off::ENTERED, 1).expect("pool");
        m.charge(costs::CONTEXT_SWITCH);
    }

    // --- SVC handling -------------------------------------------------------

    fn handle_svc(&mut self, m: &mut Machine, th: u32, asp: u32) {
        m.charge(costs::SVC_DISPATCH);
        let call = m.reg(Reg::R(0));
        let mut r = [0u32; 9];
        for (i, v) in r.iter_mut().enumerate() {
            *v = m.reg(Reg::R(i as u8));
        }
        match SvcCall::from_code(call) {
            Some(SvcCall::Exit) => unreachable!("handled by the enter loop"),
            Some(SvcCall::GetRandom) => {
                m.set_reg(Reg::R(0), KomErr::Ok.code());
                let v = self.drbg.next_u32();
                m.charge(costs::SHA_BLOCK); // DRBG output expansion.
                m.set_reg(Reg::R(1), v);
            }
            Some(SvcCall::Attest) => {
                let digest = self.read_measurement_digest(m, asp);
                let mut data = [0u32; 8];
                data.copy_from_slice(&r[1..9]);
                let mac = komodo_spec::svc::attest_mac(&self.attest_key, &digest, &data);
                m.charge(costs::SHA_BLOCK * 5); // HMAC of one 64-byte message.
                m.set_reg(Reg::R(0), KomErr::Ok.code());
                for (i, w) in mac.0.iter().enumerate() {
                    m.set_reg(Reg::R(1 + i as u8), *w);
                }
            }
            Some(SvcCall::VerifyStep0) | Some(SvcCall::VerifyStep1) => {
                let base = if call == SvcCall::VerifyStep0 as u32 {
                    th_off::VERIFY
                } else {
                    th_off::VERIFY + 8
                };
                let l = self.layout.clone();
                for i in 0..8u32 {
                    pgdb::write_word(m, &l, th as usize, base + i, r[1 + i as usize])
                        .expect("pool");
                }
                m.set_reg(Reg::R(0), KomErr::Ok.code());
            }
            Some(SvcCall::VerifyStep2) => {
                let l = self.layout.clone();
                let mut buf = [0u32; 16];
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = pgdb::read_word(m, &l, th as usize, th_off::VERIFY + i as u32)
                        .expect("pool");
                }
                let mut data = [0u32; 8];
                data.copy_from_slice(&buf[..8]);
                let mut measure = [0u32; 8];
                measure.copy_from_slice(&buf[8..]);
                let mut mac = [0u32; 8];
                mac.copy_from_slice(&r[1..9]);
                let ok = komodo_spec::svc::verify(&self.attest_key, &data, &measure, &mac);
                m.charge(costs::SHA_BLOCK * 5 + 64); // MAC + constant-time compare.
                m.set_reg(Reg::R(0), KomErr::Ok.code());
                m.set_reg(Reg::R(1), ok as u32);
            }
            Some(SvcCall::InitL2PTable) => {
                let e = self.svc_init_l2pt(m, asp, r[1], r[2]);
                m.set_reg(Reg::R(0), e.code());
            }
            Some(SvcCall::MapData) => {
                let e = self.svc_map_data(m, asp, r[1], Mapping::unpack(r[2]));
                m.set_reg(Reg::R(0), e.code());
            }
            Some(SvcCall::UnmapData) => {
                let e = self.svc_unmap_data(m, asp, r[1], Mapping::unpack(r[2]));
                m.set_reg(Reg::R(0), e.code());
            }
            None => {
                m.set_reg(Reg::R(0), KomErr::InvalidCall.code());
            }
        }
    }

    fn read_measurement_digest(&self, m: &mut Machine, asp: u32) -> Digest {
        let mut d = [0u32; 8];
        pgdb::read_words(m, &self.layout, asp as usize, asp_off::MEAS_DIGEST, &mut d)
            .expect("pool");
        Digest(d)
    }

    fn check_spare(&self, m: &mut Machine, asp: u32, pg: u32) -> Result<(), KomErr> {
        if !self.valid_page(pg) {
            return Err(KomErr::InvalidPageNo);
        }
        let (ty, owner) = self.meta(m, pg);
        if ty != ptype::SPARE || owner != asp {
            return Err(KomErr::NotSpare);
        }
        Ok(())
    }

    fn svc_init_l2pt(&mut self, m: &mut Machine, asp: u32, spare: u32, l1index: u32) -> KomErr {
        if let Err(e) = self.check_spare(m, asp, spare) {
            return e;
        }
        if l1index >= 256 {
            return KomErr::InvalidMapping;
        }
        let l1pt = pgdb::read_word(m, &self.layout, asp as usize, asp_off::L1PT).expect("pool");
        if !self.l1_slot_empty(m, l1pt, l1index) {
            return KomErr::AddrInUse;
        }
        let l = self.layout.clone();
        pgdb::zero_page(m, &l, spare as usize).expect("pool");
        pgdb::set_meta(m, &l, spare as usize, ptype::L2PT, asp).expect("meta");
        self.write_l1_slot(m, l1pt, l1index, spare);
        KomErr::Ok
    }

    fn svc_map_data(&mut self, m: &mut Machine, asp: u32, spare: u32, mapping: Mapping) -> KomErr {
        if let Err(e) = self.check_spare(m, asp, spare) {
            return e;
        }
        if !mapping.r {
            return KomErr::InvalidMapping;
        }
        let (l2pg, slot) = match self.locate_l2(m, asp, mapping) {
            Ok(x) => x,
            Err(e) => return e,
        };
        if pgdb::read_word(m, &self.layout, l2pg as usize, slot).expect("pagetable") != 0 {
            return KomErr::AddrInUse;
        }
        let l = self.layout.clone();
        pgdb::zero_page(m, &l, spare as usize).expect("pool");
        m.charge(costs::DCACHE_PAGE);
        pgdb::set_meta(m, &l, spare as usize, ptype::DATA, asp).expect("meta");
        let perms = PagePerms {
            r: true,
            w: mapping.w,
            x: mapping.x,
        };
        let desc = ptw::l2_page_desc(l.page_pa(spare as usize), perms, false);
        pgdb::write_word(m, &l, l2pg as usize, slot, desc).expect("pagetable");
        m.note_pagetable_store();
        KomErr::Ok
    }

    fn svc_unmap_data(&mut self, m: &mut Machine, asp: u32, data: u32, mapping: Mapping) -> KomErr {
        if !self.valid_page(data) {
            return KomErr::InvalidPageNo;
        }
        let (ty, owner) = self.meta(m, data);
        if ty != ptype::DATA || owner != asp {
            return KomErr::InvalidPageNo;
        }
        let (l2pg, slot) = match self.locate_l2(m, asp, mapping) {
            Ok(x) => x,
            Err(e) => return e,
        };
        let desc = pgdb::read_word(m, &self.layout, l2pg as usize, slot).expect("pagetable");
        let expected_pa = self.layout.page_pa(data as usize);
        match ptw::decode_l2_desc(desc) {
            Some(t) if t.pa == expected_pa && !t.ns => {}
            _ => return KomErr::InvalidMapping,
        }
        pgdb::write_word(m, &self.layout, l2pg as usize, slot, 0).expect("pagetable");
        m.note_pagetable_store();
        pgdb::set_meta(m, &self.layout, data as usize, ptype::SPARE, asp).expect("meta");
        KomErr::Ok
    }
}

#[cfg(test)]
mod send_tests {
    use super::*;

    /// The monitor's state is owned plain data (layout, params, derived
    /// key material, DRBG, toggles) — it must stay `Send` so a booted
    /// platform can migrate between fleet worker threads. Compile-time
    /// assertion: a future `Rc`/raw-pointer field fails the build here.
    #[test]
    fn monitor_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Monitor>();
        assert_send::<SmcResult>();
    }
}
