//! The OS core: memory allocators and the kernel driver's SMC wrappers.

use komodo_armv7::mem::AccessAttrs;
use komodo_armv7::word::PAGE_SIZE;
use komodo_armv7::Machine;
use komodo_monitor::{Monitor, SmcResult};
use komodo_spec::{KomErr, Mapping, SmcCall};

/// The normal-world OS: allocators over the resources the OS owns, plus
/// typed wrappers for every monitor call (the Linux kernel driver of §8.1).
#[derive(Clone, Debug)]
pub struct Os {
    /// Free secure page numbers (the OS tracks these; the monitor rejects
    /// bad choices, it never allocates).
    free_secure: Vec<usize>,
    /// Next unallocated insecure PFN.
    next_pfn: u32,
    /// One past the last insecure PFN (monitor region starts here).
    pfn_limit: u32,
}

impl Os {
    /// Boots the OS: queries the secure page count via `GetPhysPages` and
    /// sizes its allocators from the platform layout.
    pub fn new(m: &mut Machine, mon: &mut Monitor) -> Os {
        let r = mon.smc(m, SmcCall::GetPhysPages as u32, [0; 4]);
        assert_eq!(r.err, KomErr::Ok);
        let npages = r.retval as usize;
        Os {
            free_secure: (0..npages).rev().collect(),
            // PFN 0 stays reserved for the OS's own use (vectors etc.).
            next_pfn: 1,
            pfn_limit: mon.layout.monitor_base >> 12,
        }
    }

    /// Allocates a secure page number the OS believes is free.
    pub fn alloc_secure(&mut self) -> Option<usize> {
        self.free_secure.pop()
    }

    /// Returns a secure page to the OS's free list (after `Remove`).
    pub fn release_secure(&mut self, pg: usize) {
        self.free_secure.push(pg);
    }

    /// Number of secure pages the OS believes are free.
    pub fn secure_available(&self) -> usize {
        self.free_secure.len()
    }

    /// Allocates an insecure RAM page, returning its PFN.
    pub fn alloc_insecure(&mut self) -> Option<u32> {
        if self.next_pfn >= self.pfn_limit {
            return None;
        }
        let pfn = self.next_pfn;
        self.next_pfn += 1;
        Some(pfn)
    }

    /// Writes words into an insecure page (normal-world access).
    pub fn write_insecure(&self, m: &mut Machine, pfn: u32, offset_words: usize, words: &[u32]) {
        let base = pfn * PAGE_SIZE + (offset_words as u32) * 4;
        m.mem
            .write_words(base, words, AccessAttrs::NORMAL)
            .expect("insecure RAM is writable by the OS");
    }

    /// Reads words from an insecure page.
    pub fn read_insecure(
        &self,
        m: &mut Machine,
        pfn: u32,
        offset_words: usize,
        n: usize,
    ) -> Vec<u32> {
        let base = pfn * PAGE_SIZE + (offset_words as u32) * 4;
        let mut out = vec![0; n];
        m.mem
            .read_words(base, &mut out, AccessAttrs::NORMAL)
            .expect("insecure RAM is readable by the OS");
        out
    }

    // --- Kernel-driver SMC wrappers (Table 1) ------------------------------

    /// `InitAddrspace(asPg, l1ptPg)`.
    pub fn init_addrspace(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        asp: usize,
        l1pt: usize,
    ) -> SmcResult {
        mon.smc(
            m,
            SmcCall::InitAddrspace as u32,
            [asp as u32, l1pt as u32, 0, 0],
        )
    }

    /// `InitThread(asPg, threadPg, entry)`.
    pub fn init_thread(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        asp: usize,
        th: usize,
        entry: u32,
    ) -> SmcResult {
        mon.smc(
            m,
            SmcCall::InitThread as u32,
            [asp as u32, th as u32, entry, 0],
        )
    }

    /// `InitL2PTable(asPg, l2ptPg, l1index)`.
    pub fn init_l2ptable(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        asp: usize,
        l2pt: usize,
        l1index: u32,
    ) -> SmcResult {
        mon.smc(
            m,
            SmcCall::InitL2PTable as u32,
            [asp as u32, l2pt as u32, l1index, 0],
        )
    }

    /// `AllocSpare(asPg, sparePg)`.
    pub fn alloc_spare(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        asp: usize,
        spare: usize,
    ) -> SmcResult {
        mon.smc(
            m,
            SmcCall::AllocSpare as u32,
            [asp as u32, spare as u32, 0, 0],
        )
    }

    /// `MapSecure(asPg, dataPg, mapping, contentsPfn)`.
    pub fn map_secure(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        asp: usize,
        data: usize,
        mapping: Mapping,
        content_pfn: u32,
    ) -> SmcResult {
        mon.smc(
            m,
            SmcCall::MapSecure as u32,
            [asp as u32, data as u32, mapping.pack(), content_pfn],
        )
    }

    /// `MapInsecure(asPg, mapping, targetPfn)`.
    pub fn map_insecure(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        asp: usize,
        mapping: Mapping,
        pfn: u32,
    ) -> SmcResult {
        mon.smc(
            m,
            SmcCall::MapInsecure as u32,
            [asp as u32, mapping.pack(), pfn, 0],
        )
    }

    /// `Finalise(asPg)`.
    pub fn finalise(&self, m: &mut Machine, mon: &mut Monitor, asp: usize) -> SmcResult {
        mon.smc(m, SmcCall::Finalise as u32, [asp as u32, 0, 0, 0])
    }

    /// `Enter(threadPg, a1, a2, a3)`.
    pub fn enter(
        &self,
        m: &mut Machine,
        mon: &mut Monitor,
        th: usize,
        args: [u32; 3],
    ) -> SmcResult {
        mon.smc(
            m,
            SmcCall::Enter as u32,
            [th as u32, args[0], args[1], args[2]],
        )
    }

    /// `Resume(threadPg)`.
    pub fn resume(&self, m: &mut Machine, mon: &mut Monitor, th: usize) -> SmcResult {
        mon.smc(m, SmcCall::Resume as u32, [th as u32, 0, 0, 0])
    }

    /// `Stop(asPg)`.
    pub fn stop(&self, m: &mut Machine, mon: &mut Monitor, asp: usize) -> SmcResult {
        mon.smc(m, SmcCall::Stop as u32, [asp as u32, 0, 0, 0])
    }

    /// `Remove(pg)`.
    pub fn remove(&self, m: &mut Machine, mon: &mut Monitor, pg: usize) -> SmcResult {
        mon.smc(m, SmcCall::Remove as u32, [pg as u32, 0, 0, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_monitor::{boot, MonitorLayout};

    fn platform() -> (Machine, Monitor, Os) {
        let (mut m, mut mon) = boot(MonitorLayout::new(1 << 20, 16), 1);
        let os = Os::new(&mut m, &mut mon);
        (m, mon, os)
    }

    /// The OS model is two free lists and a bound — owned plain data. It
    /// must stay `Send` so a booted platform can migrate between fleet
    /// worker threads; this compile-time assertion pins that down.
    #[test]
    fn os_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Os>();
    }

    #[test]
    fn os_learns_page_count() {
        let (_, _, os) = platform();
        assert_eq!(os.secure_available(), 16);
    }

    #[test]
    fn secure_allocator_exhausts() {
        let (_, _, mut os) = platform();
        for _ in 0..16 {
            assert!(os.alloc_secure().is_some());
        }
        assert!(os.alloc_secure().is_none());
        os.release_secure(3);
        assert_eq!(os.alloc_secure(), Some(3));
    }

    #[test]
    fn insecure_rw_roundtrip() {
        let (mut m, _, mut os) = platform();
        let pfn = os.alloc_insecure().unwrap();
        os.write_insecure(&mut m, pfn, 4, &[1, 2, 3]);
        assert_eq!(os.read_insecure(&mut m, pfn, 4, 3), vec![1, 2, 3]);
    }

    #[test]
    fn insecure_allocator_stops_at_monitor() {
        let (_, mon, mut os) = platform();
        let limit = mon.layout.monitor_base >> 12;
        let mut last = 0;
        while let Some(pfn) = os.alloc_insecure() {
            last = pfn;
        }
        assert_eq!(last, limit - 1);
    }

    #[test]
    fn basic_construction_via_wrappers() {
        let (mut m, mut mon, mut os) = platform();
        let asp = os.alloc_secure().unwrap();
        let l1 = os.alloc_secure().unwrap();
        assert_eq!(os.init_addrspace(&mut m, &mut mon, asp, l1).err, KomErr::Ok);
        let th = os.alloc_secure().unwrap();
        assert_eq!(
            os.init_thread(&mut m, &mut mon, asp, th, 0x8000).err,
            KomErr::Ok
        );
        assert_eq!(os.finalise(&mut m, &mut mon, asp).err, KomErr::Ok);
        // Entering runs to a fault: the entry VA is unmapped.
        assert_eq!(os.enter(&mut m, &mut mon, th, [0; 3]).err, KomErr::Fault);
    }
}
