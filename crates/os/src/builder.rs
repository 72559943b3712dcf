//! Enclave loader: segment layout and the construction SMC sequence.
//!
//! Mirrors what the paper's Linux driver does for the notary (§8.2): the
//! OS picks free pages, creates the address space and page tables, maps
//! code and data from insecure staging pages, creates threads, finalises,
//! and then enters.

use komodo_armv7::word::{Word, PAGE_SIZE, WORDS_PER_PAGE};
use komodo_armv7::Machine;
use komodo_monitor::Monitor;
use komodo_spec::{KomErr, Mapping};

use crate::os::Os;

/// A virtual segment to map into the enclave.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Page-aligned virtual base address.
    pub va: u32,
    /// Initial contents; padded with zeroes to whole pages.
    pub words: Vec<Word>,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
    /// Shared (insecure) rather than private (secure) memory. Shared
    /// segments are never executable; their PFNs are recorded in
    /// [`Enclave::shared_pfns`] for OS-side access.
    pub shared: bool,
}

impl Segment {
    /// A private read-execute code segment.
    pub fn code(va: u32, words: Vec<Word>) -> Segment {
        Segment {
            va,
            words,
            w: false,
            x: true,
            shared: false,
        }
    }

    /// A private read-write data segment.
    pub fn data(va: u32, words: Vec<Word>) -> Segment {
        Segment {
            va,
            words,
            w: true,
            x: false,
            shared: false,
        }
    }

    /// An OS-shared read-write segment.
    pub fn shared(va: u32, words: Vec<Word>) -> Segment {
        Segment {
            va,
            words,
            w: true,
            x: false,
            shared: true,
        }
    }

    fn npages(&self) -> usize {
        self.words.len().div_ceil(WORDS_PER_PAGE).max(1)
    }
}

/// Outcome of running an enclave thread for one burst.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnclaveRun {
    /// The enclave exited voluntarily with this value.
    Exited(u32),
    /// The enclave was interrupted; `resume` to continue.
    Interrupted,
    /// The enclave faulted.
    Faulted,
    /// The monitor refused the call (e.g. the enclave was stopped or
    /// destroyed, or the thread is in the wrong state).
    Refused(KomErr),
}

/// A constructed enclave, as the OS sees it.
#[derive(Clone, Debug)]
pub struct Enclave {
    /// Address-space page.
    pub asp: usize,
    /// Thread pages, in creation order.
    pub threads: Vec<usize>,
    /// Spare pages currently allocated to the enclave.
    pub spares: Vec<usize>,
    /// PFNs of shared segments, in the order the segments were added.
    pub shared_pfns: Vec<Vec<u32>>,
    /// All secure pages handed to the monitor (for teardown).
    pub owned_pages: Vec<usize>,
}

/// Builder collecting the enclave's layout before construction.
#[derive(Clone, Debug, Default)]
pub struct EnclaveBuilder {
    segments: Vec<Segment>,
    entries: Vec<u32>,
    spares: usize,
}

impl EnclaveBuilder {
    /// An empty builder.
    pub fn new() -> EnclaveBuilder {
        EnclaveBuilder::default()
    }

    /// Adds a segment.
    pub fn segment(mut self, s: Segment) -> EnclaveBuilder {
        assert_eq!(s.va % PAGE_SIZE, 0, "segments must be page-aligned");
        self.segments.push(s);
        self
    }

    /// Adds a thread with the given entry point.
    pub fn thread(mut self, entry: u32) -> EnclaveBuilder {
        self.entries.push(entry);
        self
    }

    /// Requests `n` spare pages for dynamic allocation.
    pub fn spares(mut self, n: usize) -> EnclaveBuilder {
        self.spares = n;
        self
    }

    /// Drives the construction SMC sequence; on success the enclave is
    /// finalised and ready to enter.
    pub fn build(self, m: &mut Machine, mon: &mut Monitor, os: &mut Os) -> Result<Enclave, KomErr> {
        let mut owned = Vec::new();
        let alloc = |os: &mut Os| os.alloc_secure().ok_or(KomErr::PageInUse);

        let asp = alloc(os)?;
        let l1pt = alloc(os)?;
        check(os.init_addrspace(m, mon, asp, l1pt).err)?;
        owned.push(asp);
        owned.push(l1pt);

        // One L2 page table per 4 MB slot touched by any segment.
        let mut l2_slots: Vec<u32> = Vec::new();
        for s in &self.segments {
            for pg in 0..s.npages() {
                let va = s.va + (pg as u32) * PAGE_SIZE;
                let slot = va >> 22;
                if !l2_slots.contains(&slot) {
                    l2_slots.push(slot);
                }
            }
        }
        l2_slots.sort_unstable();
        for slot in l2_slots {
            let l2 = alloc(os)?;
            check(os.init_l2ptable(m, mon, asp, l2, slot).err)?;
            owned.push(l2);
        }

        // Map segments page by page.
        let mut shared_pfns = Vec::new();
        for s in &self.segments {
            let mut pfns = Vec::new();
            for pg in 0..s.npages() {
                let va = s.va + (pg as u32) * PAGE_SIZE;
                let lo = pg * WORDS_PER_PAGE;
                let hi = ((pg + 1) * WORDS_PER_PAGE).min(s.words.len());
                let mut page = [0u32; WORDS_PER_PAGE];
                if lo < s.words.len() {
                    page[..hi - lo].copy_from_slice(&s.words[lo..hi]);
                }
                let mapping = Mapping {
                    vpn: va >> 12,
                    r: true,
                    w: s.w,
                    x: s.x,
                };
                let pfn = os.alloc_insecure().ok_or(KomErr::InvalidInsecure)?;
                os.write_insecure(m, pfn, 0, &page);
                if s.shared {
                    check(os.map_insecure(m, mon, asp, mapping, pfn).err)?;
                    pfns.push(pfn);
                } else {
                    let data = alloc(os)?;
                    check(os.map_secure(m, mon, asp, data, mapping, pfn).err)?;
                    owned.push(data);
                }
            }
            shared_pfns.push(pfns);
        }

        let mut threads = Vec::new();
        for entry in &self.entries {
            let th = alloc(os)?;
            check(os.init_thread(m, mon, asp, th, *entry).err)?;
            owned.push(th);
            threads.push(th);
        }

        check(os.finalise(m, mon, asp).err)?;

        let mut spares = Vec::new();
        for _ in 0..self.spares {
            let sp = alloc(os)?;
            check(os.alloc_spare(m, mon, asp, sp).err)?;
            owned.push(sp);
            spares.push(sp);
        }

        Ok(Enclave {
            asp,
            threads,
            spares,
            shared_pfns,
            owned_pages: owned,
        })
    }
}

fn check(e: KomErr) -> Result<(), KomErr> {
    if e == KomErr::Ok {
        Ok(())
    } else {
        Err(e)
    }
}

impl Enclave {
    /// Enters thread `idx` with arguments, mapping the monitor's result to
    /// an [`EnclaveRun`].
    pub fn enter(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        os: &Os,
        idx: usize,
        args: [u32; 3],
    ) -> EnclaveRun {
        decode_run(os.enter(m, mon, self.threads[idx], args))
    }

    /// Resumes thread `idx`.
    pub fn resume(&self, m: &mut Machine, mon: &mut Monitor, os: &Os, idx: usize) -> EnclaveRun {
        decode_run(os.resume(m, mon, self.threads[idx]))
    }

    /// Enters thread `idx` and resumes across interrupts until it exits or
    /// faults. The OS acknowledges each interrupt by clearing the pending
    /// line before resuming (it is the interrupt's owner).
    pub fn run_to_completion(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        os: &Os,
        idx: usize,
        args: [u32; 3],
    ) -> EnclaveRun {
        let mut r = self.enter(m, mon, os, idx, args);
        while r == EnclaveRun::Interrupted {
            m.irq_at = None;
            m.fiq_at = None;
            r = self.resume(m, mon, os, idx);
        }
        r
    }

    /// Stops the enclave and removes every page, returning them to the
    /// OS's allocator. The address space is removed last (§4).
    pub fn destroy(&self, m: &mut Machine, mon: &mut Monitor, os: &mut Os) -> Result<(), KomErr> {
        check(os.stop(m, mon, self.asp).err)?;
        for pg in self.owned_pages.iter().rev() {
            if *pg == self.asp {
                continue;
            }
            check(os.remove(m, mon, *pg).err)?;
            os.release_secure(*pg);
        }
        check(os.remove(m, mon, self.asp).err)?;
        os.release_secure(self.asp);
        Ok(())
    }
}

fn decode_run(r: komodo_monitor::SmcResult) -> EnclaveRun {
    match r.err {
        KomErr::Ok => EnclaveRun::Exited(r.retval),
        KomErr::Interrupted => EnclaveRun::Interrupted,
        KomErr::Fault => EnclaveRun::Faulted,
        other => EnclaveRun::Refused(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_armv7::{Assembler, Cond, Reg};
    use komodo_monitor::{boot, MonitorLayout};

    fn platform() -> (Machine, Monitor, Os) {
        let (mut m, mut mon) = boot(MonitorLayout::new(1 << 20, 64), 1);
        let os = Os::new(&mut m, &mut mon);
        (m, mon, os)
    }

    /// Guest: r0 = arg1 + arg2, exit(r0).
    fn adder_code(base: u32) -> Vec<u32> {
        let mut a = Assembler::new(base);
        a.add_reg(Reg::R(3), Reg::R(0), Reg::R(1));
        a.mov_imm(Reg::R(0), 0); // SVC Exit.
        a.mov_reg(Reg::R(1), Reg::R(3));
        a.svc(0);
        a.words()
    }

    #[test]
    fn build_and_run_adder_enclave() {
        let (mut m, mut mon, mut os) = platform();
        let enc = EnclaveBuilder::new()
            .segment(Segment::code(0x8000, adder_code(0x8000)))
            .thread(0x8000)
            .build(&mut m, &mut mon, &mut os)
            .unwrap();
        let r = enc.enter(&mut m, &mut mon, &os, 0, [20, 22, 0]);
        assert_eq!(r, EnclaveRun::Exited(42));
        // Re-enterable after a voluntary exit (§4).
        let r = enc.enter(&mut m, &mut mon, &os, 0, [1, 2, 0]);
        assert_eq!(r, EnclaveRun::Exited(3));
    }

    #[test]
    fn shared_segment_visible_to_both_sides() {
        let (mut m, mut mon, mut os) = platform();
        // Guest: read shared[0], write shared[1] = shared[0]+1, exit.
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(4), 0x0010_0000);
        a.ldr_imm(Reg::R(5), Reg::R(4), 0);
        a.add_imm(Reg::R(5), Reg::R(5), 1);
        a.str_imm(Reg::R(5), Reg::R(4), 4);
        a.mov_imm(Reg::R(0), 0);
        a.mov_imm(Reg::R(1), 0);
        a.svc(0);
        let enc = EnclaveBuilder::new()
            .segment(Segment::code(0x8000, a.words()))
            .segment(Segment::shared(0x0010_0000, vec![41, 0]))
            .thread(0x8000)
            .build(&mut m, &mut mon, &mut os)
            .unwrap();
        let pfn = enc.shared_pfns[1][0];
        assert_eq!(
            enc.enter(&mut m, &mut mon, &os, 0, [0; 3]),
            EnclaveRun::Exited(0)
        );
        assert_eq!(os.read_insecure(&mut m, pfn, 1, 1), vec![42]);
    }

    #[test]
    fn interrupt_and_resume_round_trip() {
        let (mut m, mut mon, mut os) = platform();
        // Guest: count down from a large number, then exit(7).
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(4), 200_000);
        let top = a.label();
        a.subs_imm(Reg::R(4), Reg::R(4), 1);
        a.b_to(Cond::Ne, top);
        a.mov_imm(Reg::R(0), 0);
        a.mov_imm(Reg::R(1), 7);
        a.svc(0);
        let enc = EnclaveBuilder::new()
            .segment(Segment::code(0x8000, a.words()))
            .thread(0x8000)
            .build(&mut m, &mut mon, &mut os)
            .unwrap();
        m.irq_at = Some(m.cycles + 10_000);
        let r = enc.enter(&mut m, &mut mon, &os, 0, [0; 3]);
        assert_eq!(r, EnclaveRun::Interrupted);
        m.irq_at = None;
        let r = enc.resume(&mut m, &mut mon, &os, 0);
        assert_eq!(r, EnclaveRun::Exited(7));
    }

    #[test]
    fn run_to_completion_survives_many_interrupts() {
        let (mut m, mut mon, mut os) = platform();
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(4), 50_000);
        let top = a.label();
        a.subs_imm(Reg::R(4), Reg::R(4), 1);
        a.b_to(Cond::Ne, top);
        a.mov_imm(Reg::R(0), 0);
        a.mov_imm(Reg::R(1), 1);
        a.svc(0);
        let enc = EnclaveBuilder::new()
            .segment(Segment::code(0x8000, a.words()))
            .thread(0x8000)
            .build(&mut m, &mut mon, &mut os)
            .unwrap();
        // A short preemption budget exercises the resume path repeatedly.
        mon.step_budget = 5_000;
        let r = enc.run_to_completion(&mut m, &mut mon, &os, 0, [0; 3]);
        assert_eq!(r, EnclaveRun::Exited(1));
    }

    #[test]
    fn destroy_returns_all_pages() {
        let (mut m, mut mon, mut os) = platform();
        let before = os.secure_available();
        let enc = EnclaveBuilder::new()
            .segment(Segment::code(0x8000, adder_code(0x8000)))
            .segment(Segment::data(0x9000, vec![1, 2, 3]))
            .thread(0x8000)
            .spares(2)
            .build(&mut m, &mut mon, &mut os)
            .unwrap();
        assert!(os.secure_available() < before);
        enc.destroy(&mut m, &mut mon, &mut os).unwrap();
        assert_eq!(os.secure_available(), before);
    }

    #[test]
    fn faulting_enclave_reports_fault() {
        let (mut m, mut mon, mut os) = platform();
        let mut a = Assembler::new(0x8000);
        a.udf(0);
        let enc = EnclaveBuilder::new()
            .segment(Segment::code(0x8000, a.words()))
            .thread(0x8000)
            .build(&mut m, &mut mon, &mut os)
            .unwrap();
        assert_eq!(
            enc.enter(&mut m, &mut mon, &os, 0, [0; 3]),
            EnclaveRun::Faulted
        );
    }

    #[test]
    fn multi_page_segment_maps_contiguously() {
        let (mut m, mut mon, mut os) = platform();
        // 2.5 pages of data; guest reads across the page boundary.
        let mut words = vec![0u32; 2 * WORDS_PER_PAGE + 12];
        words[WORDS_PER_PAGE] = 0x1234; // First word of second page.
        let mut a = Assembler::new(0x8000);
        a.mov_imm32(Reg::R(4), 0xa000 + PAGE_SIZE);
        a.ldr_imm(Reg::R(1), Reg::R(4), 0);
        a.mov_imm(Reg::R(0), 0);
        a.svc(0);
        let enc = EnclaveBuilder::new()
            .segment(Segment::code(0x8000, a.words()))
            .segment(Segment::data(0xa000, words))
            .thread(0x8000)
            .build(&mut m, &mut mon, &mut os)
            .unwrap();
        assert_eq!(
            enc.enter(&mut m, &mut mon, &os, 0, [0; 3]),
            EnclaveRun::Exited(0x1234)
        );
    }
}
