//! Software data-TLB: a direct-mapped user-translation cache.
//!
//! [`Machine::translate_user`](crate::Machine::translate_user) pays a hash
//! probe of the architectural [`Tlb`](crate::tlb::Tlb) map on every data
//! access; compiled traces cannot afford even that on their in-trace
//! memory fast path. [`DataTlb`] fronts the map with a small direct-mapped
//! array keyed on `(VA page, world, TTBR0)`, holding the resolved
//! [`Translation`], the physical frame, the bus attributes the access will
//! carry, and precomputed read/write permission verdicts.
//!
//! Like the fetch accelerator it is **architecturally invisible** — host
//! state only, excluded from machine equality, bit-for-bit neutral on every
//! simulated counter. The accounting argument mirrors the fetch-side
//! translation cache:
//!
//! - An entry is formed only after a successful `translate_user`, which
//!   left the translation in the architectural TLB. The TLB evicts only on
//!   a full flush, and a flush drops this cache — so a hit here proves the
//!   map probe it replaces would also have hit, and the caller accounts
//!   exactly one `Tlb::hits`.
//! - The permission verdicts are pure functions of the cached
//!   [`Translation`] (`perms.r` / `perms.w` — precisely what
//!   [`ptw::check_access`](crate::ptw::check_access) tests for a
//!   non-executing user access), so serving them is the same computation
//!   the uncached path performs.
//!
//! Invalidation: the [`Machine`](crate::Machine) drops all entries on
//! `tlb_flush`, on `TTBR0` loads and page-table stores, and on TrustZone
//! world switches (`SCR.NS` writes through
//! [`Machine::set_scr_ns`](crate::Machine::set_scr_ns)). Entries are also
//! keyed on world and `TTBR0`, so the drops are hygiene plus statistics —
//! a stale entry could never validate — but they keep the invalidation
//! story identical to the fetch side's.

use crate::mem::AccessAttrs;
use crate::mode::World;
use crate::ptw::Translation;
use crate::word::{page_base, page_offset, Addr};

/// Number of direct-mapped entries (a power of two; index is the low bits
/// of the VA page number).
const ENTRIES: usize = 64;

/// One resolved user translation with its precomputed access verdicts.
#[derive(Clone, Copy, Debug)]
struct Entry {
    va_page: Addr,
    world: World,
    ttbr0: Addr,
    /// The raw translation, replayed to `translate_user` on a hit so the
    /// uncached path's permission check runs on identical inputs.
    t: Translation,
    /// Physical page base (`t.pa & !0xfff`).
    pa_page: Addr,
    /// Bus attributes a user access through this mapping carries.
    attrs: AccessAttrs,
    /// Precomputed `check_access(read)` outcome for a user data access.
    read_ok: bool,
    /// Precomputed `check_access(write)` outcome for a user data access.
    write_ok: bool,
}

/// Which machinery dropped the data-TLB (statistics only — every cause
/// clears the same state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DTlbInval {
    /// `tlb_flush` (the validity anchor: TLB residency) or an accelerator
    /// toggle.
    Flush,
    /// A `TTBR0` load or page-table store.
    Ttbr,
    /// A TrustZone world switch (`SCR.NS` write).
    World,
}

/// Data-TLB statistics, surfaced through
/// [`Machine::superblock_stats`](crate::Machine::superblock_stats) and
/// [`Machine::dtlb_stats`](crate::Machine::dtlb_stats). Host-side only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DTlbStats {
    /// Lookups served (including verdict-bearing block-path lookups).
    pub hits: u64,
    /// Lookups that missed or refused the fast path (stale entry, wrong
    /// context, or a precomputed verdict forcing the exact slow path).
    pub misses: u64,
    /// Whole-cache drops caused by `tlb_flush`.
    pub inval_flush: u64,
    /// Whole-cache drops caused by `TTBR0` loads / page-table stores.
    pub inval_ttbr: u64,
    /// Whole-cache drops caused by world switches.
    pub inval_world: u64,
}

impl DTlbStats {
    /// Total whole-cache invalidations across all causes.
    pub fn invalidations(&self) -> u64 {
        self.inval_flush + self.inval_ttbr + self.inval_world
    }
}

/// The software data-TLB (see module docs).
#[derive(Clone, Debug)]
pub struct DataTlb {
    enabled: bool,
    entries: [Option<Entry>; ENTRIES],
    stats: DTlbStats,
}

impl DataTlb {
    /// A fresh, enabled data-TLB with nothing cached.
    pub fn new() -> DataTlb {
        DataTlb {
            enabled: true,
            entries: [None; ENTRIES],
            stats: DTlbStats::default(),
        }
    }

    /// Whether the cache is consulted at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns the cache on or off, dropping all entries either way (the
    /// baseline differential configuration runs with it off).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.entries = [None; ENTRIES];
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DTlbStats {
        self.stats
    }

    /// Number of live entries (test introspection).
    pub fn live_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Drops every entry, attributing the drop to `cause`. Counted only
    /// when something was actually cached, mirroring the block cache's
    /// convention.
    pub fn invalidate(&mut self, cause: DTlbInval) {
        if self.entries.iter().any(|e| e.is_some()) {
            match cause {
                DTlbInval::Flush => self.stats.inval_flush += 1,
                DTlbInval::Ttbr => self.stats.inval_ttbr += 1,
                DTlbInval::World => self.stats.inval_world += 1,
            }
        }
        self.entries = [None; ENTRIES];
    }

    #[inline]
    fn slot(va: Addr) -> usize {
        ((va >> 12) as usize) & (ENTRIES - 1)
    }

    /// Records a translation that a successful `translate_user` just left
    /// in the architectural TLB, with its verdicts precomputed.
    #[inline]
    pub fn fill(&mut self, va: Addr, world: World, ttbr0: Addr, t: Translation) {
        if !self.enabled {
            return;
        }
        self.entries[Self::slot(va)] = Some(Entry {
            va_page: page_base(va),
            world,
            ttbr0,
            t,
            pa_page: t.pa & !0xfff,
            attrs: AccessAttrs {
                secure: world == World::Secure && !t.ns,
                privileged: false,
            },
            read_ok: t.perms.r,
            write_ok: t.perms.w,
        });
    }

    /// Consults the cache for the raw [`Translation`] of `va` — the
    /// `translate_user` path. The caller must account the `Tlb::hits` the
    /// map probe this replaces would have recorded, and still runs the
    /// per-access permission check.
    #[inline]
    pub fn lookup_translation(
        &mut self,
        va: Addr,
        world: World,
        ttbr0: Addr,
    ) -> Option<Translation> {
        if !self.enabled {
            return None;
        }
        if let Some(e) = &self.entries[Self::slot(va)] {
            if e.va_page == page_base(va) && e.world == world && e.ttbr0 == ttbr0 {
                self.stats.hits += 1;
                return Some(e.t);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// The in-trace probe that refills a memory site's translation:
    /// translation *and* verdict in one step. Returns the physical
    /// address and bus attributes only
    /// when the entry matches **and** its precomputed verdict admits the
    /// access kind; any other outcome — miss, stale context, or a verdict
    /// that would fault — returns `None`, forcing the caller onto the
    /// exact per-instruction path (which re-translates, accounts, and
    /// raises the fault bit-for-bit as the uncached path would).
    #[inline]
    pub fn lookup_data(
        &mut self,
        va: Addr,
        world: World,
        ttbr0: Addr,
        write: bool,
    ) -> Option<(Addr, AccessAttrs)> {
        if !self.enabled {
            return None;
        }
        if let Some(e) = &self.entries[Self::slot(va)] {
            if e.va_page == page_base(va)
                && e.world == world
                && e.ttbr0 == ttbr0
                && if write { e.write_ok } else { e.read_ok }
            {
                self.stats.hits += 1;
                return Some((e.pa_page | page_offset(va), e.attrs));
            }
        }
        self.stats.misses += 1;
        None
    }
}

impl Default for DataTlb {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptw::PagePerms;

    fn rw_translation(pa: Addr) -> Translation {
        Translation {
            pa,
            perms: PagePerms::RW,
            ns: false,
        }
    }

    fn ro_translation(pa: Addr) -> Translation {
        Translation {
            pa,
            perms: PagePerms {
                r: true,
                w: false,
                x: false,
            },
            ns: false,
        }
    }

    #[test]
    fn fill_then_lookup_hits_same_context_only() {
        let mut d = DataTlb::new();
        d.fill(
            0x9123,
            World::Secure,
            0x8000_0000,
            rw_translation(0x8000_3000),
        );
        assert!(d
            .lookup_translation(0x9ffc, World::Secure, 0x8000_0000)
            .is_some());
        assert!(d
            .lookup_translation(0x9ffc, World::Normal, 0x8000_0000)
            .is_none());
        assert!(d
            .lookup_translation(0x9ffc, World::Secure, 0x8000_4000)
            .is_none());
        assert_eq!(d.stats().hits, 1);
        assert_eq!(d.stats().misses, 2);
    }

    #[test]
    fn data_lookup_enforces_precomputed_verdict() {
        let mut d = DataTlb::new();
        d.fill(
            0x8000,
            World::Secure,
            0x8000_0000,
            ro_translation(0x8000_2000),
        );
        let (pa, attrs) = d
            .lookup_data(0x8010, World::Secure, 0x8000_0000, false)
            .unwrap();
        assert_eq!(pa, 0x8000_2010);
        assert!(attrs.secure && !attrs.privileged);
        // The write verdict is false: the fast path must refuse, so the
        // exact path raises the permission fault.
        assert!(d
            .lookup_data(0x8010, World::Secure, 0x8000_0000, true)
            .is_none());
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut d = DataTlb::new();
        d.fill(0x9000, World::Secure, 0, rw_translation(0x8000_3000));
        // Same slot (VA pages 64 entries apart), different page: evicts.
        let conflict = 0x9000 + (ENTRIES as u32) * 0x1000;
        d.fill(conflict, World::Secure, 0, rw_translation(0x8004_3000));
        assert!(d.lookup_translation(0x9000, World::Secure, 0).is_none());
        assert!(d.lookup_translation(conflict, World::Secure, 0).is_some());
    }

    #[test]
    fn invalidation_counts_by_cause_only_when_nonempty() {
        let mut d = DataTlb::new();
        d.invalidate(DTlbInval::Flush); // Empty: uncounted.
        assert_eq!(d.stats().invalidations(), 0);
        d.fill(0x9000, World::Secure, 0, rw_translation(0x8000_3000));
        d.invalidate(DTlbInval::Flush);
        d.fill(0x9000, World::Secure, 0, rw_translation(0x8000_3000));
        d.invalidate(DTlbInval::Ttbr);
        d.fill(0x9000, World::Secure, 0, rw_translation(0x8000_3000));
        d.invalidate(DTlbInval::World);
        let s = d.stats();
        assert_eq!(
            (s.inval_flush, s.inval_ttbr, s.inval_world),
            (1, 1, 1),
            "each cause must be attributed separately"
        );
        assert_eq!(s.invalidations(), 3);
        assert_eq!(d.live_entries(), 0);
    }

    #[test]
    fn disabled_serves_and_caches_nothing() {
        let mut d = DataTlb::new();
        d.set_enabled(false);
        d.fill(0x9000, World::Secure, 0, rw_translation(0x8000_3000));
        assert!(d.lookup_translation(0x9000, World::Secure, 0).is_none());
        assert!(d.lookup_data(0x9000, World::Secure, 0, false).is_none());
        assert_eq!(d.live_entries(), 0);
    }
}
