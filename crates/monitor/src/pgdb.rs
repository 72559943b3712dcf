//! Concrete PageDB representation in simulated memory.
//!
//! Per-page type/owner metadata lives in the monitor's data region (the
//! prototype's `g_pagedb` global); everything else lives in the secure pool
//! pages themselves:
//!
//! - **Address-space page**: L1PT page number, refcount, state, and the
//!   running measurement (SHA-256 chaining value + block count, §7.2).
//! - **Thread page**: entry point, entered flag, saved user context, and
//!   the `Verify` staging buffer.
//! - **Page-table pages**: ARM short-descriptor tables in *hardware
//!   format* — the same words the MMU walks during enclave execution.
//! - **Data pages**: the enclave's private contents.

use komodo_armv7::error::MemFault;
use komodo_armv7::word::{Addr, WORDS_PER_PAGE};
use komodo_armv7::Machine;

use crate::layout::MonitorLayout;

/// Page-type codes in `g_pagedb` metadata.
pub mod ptype {
    /// Unallocated.
    pub const FREE: u32 = 0;
    /// Address space.
    pub const ADDRSPACE: u32 = 1;
    /// First-level page table.
    pub const L1PT: u32 = 2;
    /// Second-level page table.
    pub const L2PT: u32 = 3;
    /// Thread.
    pub const THREAD: u32 = 4;
    /// Data page.
    pub const DATA: u32 = 5;
    /// Spare page.
    pub const SPARE: u32 = 6;
}

/// Address-space state codes.
pub mod astate {
    /// Under construction.
    pub const INIT: u32 = 0;
    /// Finalised.
    pub const FINAL: u32 = 1;
    /// Stopped.
    pub const STOPPED: u32 = 2;
}

/// Word offsets within an address-space page.
pub mod asp_off {
    /// L1 page-table page number.
    pub const L1PT: u32 = 0;
    /// Owned-page refcount.
    pub const REFCOUNT: u32 = 1;
    /// Lifecycle state (see [`super::astate`]).
    pub const STATE: u32 = 2;
    /// Running measurement hash `h[8]`.
    pub const MEAS_H: u32 = 3;
    /// Measurement block count.
    pub const MEAS_NBLOCKS: u32 = 11;
    /// Finalised measurement digest `[8]` (valid when `MEAS_DONE` is set).
    pub const MEAS_DIGEST: u32 = 12;
    /// Whether the measurement digest has been fixed by `Finalise` (an
    /// enclave stopped before finalisation never gets one).
    pub const MEAS_DONE: u32 = 20;
}

/// Word offsets within a thread page.
pub mod th_off {
    /// Entry-point VA.
    pub const ENTRY: u32 = 0;
    /// Entered flag (0/1).
    pub const ENTERED: u32 = 1;
    /// Saved R0–R12, SP, LR (15 words).
    pub const REGS: u32 = 2;
    /// Saved PC.
    pub const PC: u32 = 17;
    /// Saved condition flags.
    pub const FLAGS: u32 = 18;
    /// `Verify` staging buffer (16 words).
    pub const VERIFY: u32 = 19;
}

/// Reads a page's `(type, owner)` metadata.
pub fn meta(m: &mut Machine, l: &MonitorLayout, pg: usize) -> Result<(u32, u32), MemFault> {
    let a = l.pagedb_meta_pa(pg);
    Ok((m.mon_read(a)?, m.mon_read(a + 4)?))
}

/// Writes a page's `(type, owner)` metadata.
///
/// When the flight recorder is armed, a change of page *type* is recorded
/// as a `PageDbTransition` event. The old type is read through the
/// counter-free [`komodo_armv7::mem::PhysMem::peek`] — never through a
/// counted read — so tracing stays bit-for-bit invisible to machine
/// equality (which includes the memory access counters).
pub fn set_meta(
    m: &mut Machine,
    l: &MonitorLayout,
    pg: usize,
    ty: u32,
    owner: u32,
) -> Result<(), MemFault> {
    let a = l.pagedb_meta_pa(pg);
    if m.trace.enabled() {
        let old = m.mem.peek(a).unwrap_or(ty);
        if old != ty {
            m.trace.record(
                m.cycles,
                komodo_trace::Event::PageDbTransition {
                    page: pg as u32,
                    from: old as u8,
                    to: ty as u8,
                },
            );
        }
    }
    m.mon_write(a, ty)?;
    m.mon_write(a + 4, owner)
}

/// Physical address of word `idx` of pool page `pg`.
pub fn word_pa(l: &MonitorLayout, pg: usize, idx: u32) -> Addr {
    debug_assert!(idx < 1024);
    l.page_pa(pg) + idx * 4
}

/// Reads word `idx` of pool page `pg`.
pub fn read_word(m: &mut Machine, l: &MonitorLayout, pg: usize, idx: u32) -> Result<u32, MemFault> {
    m.mon_read(word_pa(l, pg, idx))
}

/// Reads word `idx` of pool page `pg` *without* charging cycles or
/// bumping the access counters — for the abstraction function and other
/// out-of-band observers, which must not perturb the machine they
/// inspect (the counters participate in machine equality).
pub fn peek_word(m: &mut Machine, l: &MonitorLayout, pg: usize, idx: u32) -> Result<u32, MemFault> {
    let a = word_pa(l, pg, idx);
    m.mem
        .peek(a)
        .ok_or_else(|| MemFault::new(a, komodo_armv7::error::MemFaultKind::Unmapped, false))
}

/// Reads a page's `(type, owner)` metadata without charging cycles or
/// bumping the access counters.
pub fn peek_meta(m: &mut Machine, l: &MonitorLayout, pg: usize) -> Result<(u32, u32), MemFault> {
    let a = l.pagedb_meta_pa(pg);
    let peek = |a: Addr| {
        m.mem
            .peek(a)
            .ok_or_else(|| MemFault::new(a, komodo_armv7::error::MemFaultKind::Unmapped, false))
    };
    Ok((peek(a)?, peek(a + 4)?))
}

/// Writes word `idx` of pool page `pg`.
pub fn write_word(
    m: &mut Machine,
    l: &MonitorLayout,
    pg: usize,
    idx: u32,
    val: u32,
) -> Result<(), MemFault> {
    m.mon_write(word_pa(l, pg, idx), val)
}

/// Reads `out.len()` consecutive words of pool page `pg` from word `idx`,
/// charged as that many [`read_word`]s.
pub fn read_words(
    m: &mut Machine,
    l: &MonitorLayout,
    pg: usize,
    idx: u32,
    out: &mut [u32],
) -> Result<(), MemFault> {
    debug_assert!(idx as usize + out.len() <= WORDS_PER_PAGE);
    m.mon_read_words(word_pa(l, pg, idx), out)
}

/// Writes `words` to consecutive words of pool page `pg` from word `idx`,
/// charged as that many [`write_word`]s.
pub fn write_words(
    m: &mut Machine,
    l: &MonitorLayout,
    pg: usize,
    idx: u32,
    words: &[u32],
) -> Result<(), MemFault> {
    debug_assert!(idx as usize + words.len() <= WORDS_PER_PAGE);
    m.mon_write_words(word_pa(l, pg, idx), words)
}

/// Zeroes an entire pool page (used when recycling pages into page tables
/// or fresh data pages), charged as one [`write_word`] per word.
pub fn zero_page(m: &mut Machine, l: &MonitorLayout, pg: usize) -> Result<(), MemFault> {
    write_words(m, l, pg, 0, &[0; WORDS_PER_PAGE])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, MonitorLayout) {
        let l = MonitorLayout::new(1 << 20, 8);
        let mut m = Machine::new();
        l.build_memory(&mut m);
        (m, l)
    }

    #[test]
    fn meta_roundtrip() {
        let (mut m, l) = setup();
        set_meta(&mut m, &l, 3, ptype::THREAD, 0).unwrap();
        assert_eq!(meta(&mut m, &l, 3).unwrap(), (ptype::THREAD, 0));
        assert_eq!(meta(&mut m, &l, 4).unwrap(), (ptype::FREE, 0));
    }

    #[test]
    fn page_word_roundtrip() {
        let (mut m, l) = setup();
        write_word(&mut m, &l, 2, 17, 0xdead_beef).unwrap();
        assert_eq!(read_word(&mut m, &l, 2, 17).unwrap(), 0xdead_beef);
        // Different page unaffected.
        assert_eq!(read_word(&mut m, &l, 3, 17).unwrap(), 0);
    }

    #[test]
    fn zero_page_clears() {
        let (mut m, l) = setup();
        write_word(&mut m, &l, 1, 0, 7).unwrap();
        write_word(&mut m, &l, 1, 1023, 9).unwrap();
        let (c0, w0) = (m.cycles, m.mem.writes);
        zero_page(&mut m, &l, 1).unwrap();
        let cost = komodo_armv7::machine::cost::MEM;
        assert_eq!(
            (m.cycles - c0, m.mem.writes - w0),
            (1024 * cost, 1024),
            "charged as 1024 word writes"
        );
        assert_eq!(read_word(&mut m, &l, 1, 0).unwrap(), 0);
        assert_eq!(read_word(&mut m, &l, 1, 1023).unwrap(), 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // The point is checking the layout constants.
    fn offsets_do_not_overlap() {
        assert!(th_off::REGS + 15 == th_off::PC);
        assert!(th_off::PC + 1 == th_off::FLAGS);
        assert!(th_off::FLAGS + 1 == th_off::VERIFY);
        assert!(asp_off::MEAS_H + 8 == asp_off::MEAS_NBLOCKS);
        assert!(asp_off::MEAS_NBLOCKS + 1 == asp_off::MEAS_DIGEST);
    }
}
