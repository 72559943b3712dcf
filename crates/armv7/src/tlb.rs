//! TLB-consistency model (paper §5.1).
//!
//! "Executing a TLB flush instruction marks the TLB as consistent. Loading
//! the page-table base register, or executing a store to an address in
//! either the first-level or any second-level page table, marks the TLB as
//! inconsistent. This gives the implementation freedom to either simply
//! flush the TLB whenever consistency is required, or else to prove that its
//! stores did not modify the page table. For simplicity, we model only
//! flushes of the entire TLB."
//!
//! Besides the consistency bit, the model keeps a translation cache so that
//! repeated accesses to the same page cost less than a full walk — the
//! basis for the TLB-flush-avoidance ablation in the evaluation.
//!
//! Entries are tagged with the security world that walked them, as
//! TrustZone TLBs tag entries with the NS bit: a translation the normal
//! world's tables produced never serves a secure-world lookup of the same
//! virtual page, or the reverse. Without the tag, a monitor that elides
//! the flush on re-entering the same enclave would run it through a
//! native process's translations.

use crate::fxhash::FxHashMap;
use crate::mode::World;
use crate::ptw::Translation;
use crate::word::{page_base, Addr};

/// The TLB: a consistency flag plus a per-(virtual page, world)
/// translation cache.
///
/// The entries map sits on the per-instruction fetch path, so it uses the
/// local FxHash hasher rather than `std`'s keyed SipHash (the keys are
/// guest page addresses, not attacker-chosen host input).
#[derive(Clone, Debug, PartialEq)]
pub struct Tlb {
    consistent: bool,
    /// Keyed by [`entry_key`]: page base and world in one word.
    entries: FxHashMap<Addr, Translation>,
    /// Walks performed (misses); cycle-model input.
    pub misses: u64,
    /// Cache hits; cycle-model input.
    pub hits: u64,
    /// Full flushes performed.
    pub flushes: u64,
}

impl Tlb {
    /// A fresh, consistent, empty TLB.
    pub fn new() -> Tlb {
        Tlb {
            consistent: true,
            entries: FxHashMap::default(),
            misses: 0,
            hits: 0,
            flushes: 0,
        }
    }

    /// Whether cached translations are guaranteed to match the tables.
    pub fn is_consistent(&self) -> bool {
        self.consistent
    }

    /// Marks the TLB inconsistent (page-table store or `TTBR` load).
    pub fn mark_inconsistent(&mut self) {
        self.consistent = false;
    }

    /// Flushes the entire TLB, restoring consistency.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.consistent = true;
        self.flushes += 1;
    }

    /// Looks up `world`'s translation for the page containing `va`.
    pub fn lookup(&mut self, va: Addr, world: World) -> Option<Translation> {
        let hit = self.entries.get(&entry_key(va, world)).copied();
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Records `n` cache hits in one batch — the micro-op runner's
    /// accounting for the instruction fetches its trace replays, each of
    /// which provably still hits (entries leave the TLB only on a full
    /// flush, and a block runs only in the translation epoch it was
    /// built or confirmed in, which a flush ends). Equivalent to `n`
    /// successful [`Tlb::lookup`] calls.
    #[inline]
    pub fn note_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Records a page-table walk (a TLB miss). Counted at the walk site —
    /// not in [`Tlb::insert`] — so that *faulting* walks, which charge
    /// `cost::TLB_WALK` but never produce a translation to insert, are
    /// included in the statistic.
    pub fn note_walk(&mut self) {
        self.misses += 1;
    }

    /// Inserts a translation `world` walked for the page containing `va`.
    ///
    /// Does **not** count the miss; the walk site calls [`Tlb::note_walk`]
    /// whether or not the walk succeeds.
    pub fn insert(&mut self, va: Addr, world: World, t: Translation) {
        // Cache the page-base translation (strip the offset `walk` added).
        let page_t = Translation {
            pa: page_base(t.pa),
            ..t
        };
        self.entries.insert(entry_key(va, world), page_t);
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

/// The entries-map key of `va`'s page in `world`: the page base with the
/// world in bit 0, which a page-aligned address leaves free — so tagging
/// costs neither key width nor hashing.
#[inline]
fn entry_key(va: Addr, world: World) -> Addr {
    page_base(va) | (world == World::Normal) as Addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptw::PagePerms;

    fn t(pa: Addr) -> Translation {
        Translation {
            pa,
            perms: PagePerms::RW,
            ns: false,
        }
    }

    #[test]
    fn starts_consistent_and_empty() {
        let tlb = Tlb::new();
        assert!(tlb.is_consistent());
        assert!(tlb.is_empty());
    }

    #[test]
    fn inconsistency_and_flush() {
        let mut tlb = Tlb::new();
        tlb.mark_inconsistent();
        assert!(!tlb.is_consistent());
        tlb.flush();
        assert!(tlb.is_consistent());
        assert_eq!(tlb.flushes, 1);
    }

    #[test]
    fn lookup_after_insert() {
        let mut tlb = Tlb::new();
        assert_eq!(tlb.lookup(0x1234, World::Secure), None);
        tlb.note_walk(); // The walk site counts the miss...
        tlb.insert(0x1234, World::Secure, t(0x8000_1234)); // ...insert does not.
        let hit = tlb.lookup(0x1678, World::Secure).unwrap(); // Same page.
        assert_eq!(hit.pa, 0x8000_1000);
        assert_eq!(tlb.hits, 1);
        assert_eq!(tlb.misses, 1);
    }

    #[test]
    fn faulting_walk_counts_without_insert() {
        // A walk that faults never reaches `insert`, but the walk site
        // still counts it (it charged `cost::TLB_WALK`).
        let mut tlb = Tlb::new();
        tlb.note_walk();
        assert_eq!(tlb.misses, 1);
        assert!(tlb.is_empty());
    }

    #[test]
    fn note_hits_matches_repeated_lookups() {
        // Batched trace accounting must be indistinguishable from the
        // per-instruction path issuing the same number of lookups.
        let mut batched = Tlb::new();
        let mut stepped = Tlb::new();
        batched.insert(0x1000, World::Secure, t(0x2000));
        stepped.insert(0x1000, World::Secure, t(0x2000));
        batched.note_hits(5);
        for _ in 0..5 {
            stepped.lookup(0x1000, World::Secure).unwrap();
        }
        assert_eq!(batched.hits, stepped.hits);
        assert_eq!(batched.misses, stepped.misses);
    }

    #[test]
    fn flush_clears_entries() {
        let mut tlb = Tlb::new();
        tlb.insert(0x1000, World::Secure, t(0x2000));
        tlb.flush();
        assert_eq!(tlb.lookup(0x1000, World::Secure), None);
    }

    #[test]
    fn entries_never_serve_the_other_world() {
        // A native process's translation of a VA must not serve an
        // enclave's lookup of the same VA (or the reverse), flush or not.
        let mut tlb = Tlb::new();
        tlb.insert(0x8000, World::Normal, t(0x0004_2000));
        assert_eq!(tlb.lookup(0x8123, World::Secure), None);
        assert_eq!(tlb.hits, 0, "a cross-world probe is not a hit");
        tlb.insert(0x8000, World::Secure, t(0x8001_0000));
        assert_eq!(tlb.lookup(0x8123, World::Secure).unwrap().pa, 0x8001_0000);
        assert_eq!(tlb.lookup(0x8123, World::Normal).unwrap().pa, 0x0004_2000);
        assert_eq!(tlb.len(), 2, "one entry per world");
    }
}
