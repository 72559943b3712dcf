//! Host-side fetch/decode acceleration.
//!
//! `Machine::step` spends most of its host time on three per-instruction
//! costs: a TLB map lookup to translate the PC, a region scan to read the
//! instruction word, and a fresh `decode` of that word. All three are
//! redundant while execution stays on a code page that has not changed,
//! which is the overwhelmingly common case (guest code is RX; the monitor
//! writes code pages only while an enclave is being built).
//!
//! [`FetchAccel`] removes that redundancy with two caches:
//!
//! - a **decode cache** keyed by physical page base, holding the page's
//!   1024 words eagerly decoded to [`Insn`] values, and
//! - a **one-entry fetch-translation cache** remembering the last code
//!   page's VA→PA mapping (plus the world and `TTBR0` it was formed under).
//!
//! Both are *architecturally invisible*: the simulated cycle count, the
//! TLB hit/miss/flush statistics, the memory access counters, and all
//! exception behaviour are bit-for-bit identical with the accelerator on
//! or off. Only host wall-clock time changes. Concretely:
//!
//! - a decode-cache hit bumps `PhysMem::reads` exactly as the `mem.read`
//!   it replaces would have;
//! - a translation-cache hit bumps `Tlb::hits` exactly as the `Tlb::lookup`
//!   it replaces would have (the entry provably still sits in the TLB —
//!   only a flush evicts, and a flush clears this cache);
//! - anything unusual — unaligned PC, a page not fully RAM-backed, a
//!   secure page fetched with non-secure attributes — falls back to the
//!   uncached path so faults are raised and counted identically.
//!
//! Invalidation: filling a page registers it with [`PhysMem`]'s code
//! watch; any write into a watched page bumps a generation counter that
//! the next fetch observes, dropping the whole cache. A `tlb_flush`,
//! `load_ttbr0` or `note_pagetable_store` drops only the translation
//! entry: decoded pages are keyed by physical page, so a changed mapping
//! cannot make one stale (see *Code cache across enclave entries*).
//!
//! # Compiled blocks
//!
//! On top of the decode cache sits a **block engine**: runs of decoded
//! instructions along their fall-through path, formed at a fetch and
//! ending at the first unconditional `B`, `BL`, PC-writing instruction,
//! unhandled exception source, or page boundary, each compiled into a
//! micro-op trace ([`crate::uop`]) in the same step that forms it. A
//! conditional `B` inside the run is a *side exit*: the trace leaves
//! there when its condition holds. Single-register loads and stores are
//! **memory-inclusive**: they ride inside the trace, executed through
//! per-site translations refilled from the software data-TLB
//! ([`crate::dtlb::DataTlb`]), with any hazard stopping the trace at an
//! exactly-retired prefix. A block is validated **once** at entry
//! (`(VA page, world, TTBR0, generation, translation epoch, alignment)` —
//! the same facts the per-instruction hot path re-checks every step) and
//! its trace then runs with the TLB-hit / memory-read / cycle accounting
//! batched, so the architecturally visible counters stay bit-for-bit
//! identical to per-instruction stepping (see `Block` for the admission
//! rules that make this sound). Blocks chain: each records, per exit, the
//! block id that exit last dispatched to, so steady-state loops skip
//! even the hash probe. Invalidation rides the existing generation
//! mechanism — a bumped generation (guest store or `mon_write` into a
//! watched code page) kills every block along with the decoded pages they
//! were built from.
//!
//! # Code cache across enclave entries
//!
//! A TLB flush, a `TTBR0` load and a page-table store each end a
//! **translation epoch**. They drop only what stands for TLB residency —
//! the translation entry, the fused hot-fetch entry and the data-TLB —
//! and keep decoded pages and blocks, so an enclave re-entered after the
//! monitor's flush runs the blocks and micro-op traces it compiled on its
//! previous entry. A block built or confirmed in an earlier epoch runs
//! again only once it is confirmed in the current one:
//!
//! - the per-instruction path must first have fetched from the block's VA
//!   page in this epoch, through `translate_user` (the hot-fetch entry is
//!   the proof). That fetch charged the TLB miss and walk exactly as
//!   without the cache, and left the translation in the TLB, which
//!   entitles the block to account its fetches as hits until the epoch
//!   ends;
//! - that fetch must have resolved to the physical page and bus
//!   attributes the block was decoded under, with the block's world and
//!   `TTBR0`. Otherwise the VA page now maps elsewhere, and a fresh block
//!   is built in its slot.
//!
//! Until both hold the dispatcher stays on the per-instruction path; it
//! never builds over a block that is merely unconfirmed. Confirming a
//! block resets its trace's per-site data translations, which were
//! formed in an earlier epoch, and the micro-op runner hops only into
//! blocks confirmed in the current epoch. The decoded page a block
//! came from stays cached, and so stays under the code write-watch, for
//! as long as the block lives.
//!
//! Footprint: when a secure-world run returns to the normal world,
//! `FetchAccel::trim` keeps only the blocks and decoded pages used since
//! that run began, so a platform at rest holds one run's working set.
//! Switching the accelerator (`Machine::set_fetch_accel`) still drops
//! everything.

use crate::decode::decode;
use crate::fxhash::FxHashMap;
use crate::insn::{Cond, Insn};
use crate::machine::cost;
use crate::mem::{AccessAttrs, PhysMem};
use crate::mode::World;
use crate::uop::{branch_target, UopEnd, UopTrace};
use crate::word::{page_base, page_offset, word_aligned, Addr, Word, WORD_BYTES};
use komodo_trace::{Event, FlightRecorder, InvalCause};

/// One physical code page, eagerly decoded.
#[derive(Clone, Debug)]
struct CachedPage {
    /// Physical page base: the cache key, kept so a trim can rebuild the
    /// index and the code watch.
    base: Addr,
    /// Whether the backing region is secure (for the bus-attribute check a
    /// real fetch would perform).
    secure: bool,
    /// The last translation epoch a fetch was served from this page in
    /// (what `FetchAccel::trim` keeps pages by).
    epoch: u64,
    /// `(word, decoded, condition)` per word of the page; the raw word is
    /// kept because exception paths report it (`ExitReason::Undefined`),
    /// and the condition field is pre-extracted so the hot path skips the
    /// [`Insn::cond`] dispatch.
    entries: Box<[(Word, Insn, Cond)]>,
}

/// The last successful instruction-fetch translation, with everything its
/// validity depends on.
#[derive(Clone, Copy, Debug)]
struct FetchEntry {
    va_page: Addr,
    pa_page: Addr,
    attrs: AccessAttrs,
    world: World,
    ttbr0: Addr,
}

/// Per-page decode cache (see module docs).
#[derive(Clone, Debug, Default)]
struct DecodeCache {
    pages: Vec<CachedPage>,
    index: FxHashMap<Addr, usize>,
    /// Last page served — straight-line code hits this without hashing.
    last: Option<(Addr, usize)>,
    /// Snapshot of `PhysMem::code_gen` the cached pages were filled under.
    gen: u64,
}

impl DecodeCache {
    fn clear(&mut self) {
        self.pages.clear();
        self.index.clear();
        self.last = None;
    }

    /// Decodes and caches the page at `base` in translation epoch `epoch`;
    /// `None` if the page is not fully RAM-backed (such fetches stay on
    /// the uncached path).
    fn fill(&mut self, mem: &mut PhysMem, base: Addr, epoch: u64) -> Option<usize> {
        let (words, secure) = mem.code_page_snapshot(base)?;
        let entries: Box<[(Word, Insn, Cond)]> = words
            .iter()
            .map(|&w| {
                let i = decode(w);
                let c = i.cond();
                (w, i, c)
            })
            .collect();
        mem.watch_code_page(base);
        let idx = self.pages.len();
        self.pages.push(CachedPage {
            base,
            secure,
            epoch,
            entries,
        });
        self.index.insert(base, idx);
        self.last = Some((base, idx));
        Some(idx)
    }
}

/// A fused fast-path entry: the last fetch's translation *and* decoded
/// page, validated together so the common straight-line/loop case costs a
/// single compare chain per step. Only formed after the page's secure
/// attribute admitted the translation's bus attributes; a hit replays the
/// identical translation, so that check's outcome is unchanged and no
/// fault the uncached path would raise can be masked. Dropped at every
/// translation-epoch change, so a present entry also proves that the
/// per-instruction path translated its VA page in the current epoch.
#[derive(Clone, Copy, Debug)]
struct HotFetch {
    va_page: Addr,
    world: World,
    ttbr0: Addr,
    idx: usize,
    /// The physical page and bus attributes the translation resolved to.
    pa_page: Addr,
    attrs: AccessAttrs,
}

/// Exit indices: which way a block's pass left it, and so the slot of
/// [`Block::succ`] its successor link is recorded in. A pass that ran
/// its whole body leaves by [`EXIT_FALL`] (no ending branch, or its
/// condition failed) or [`EXIT_TAKEN`]; one that took its `i`th side
/// exit leaves by `EXIT_SIDE + i`.
pub(crate) const EXIT_FALL: u8 = 0;
/// Took the ending branch.
pub(crate) const EXIT_TAKEN: u8 = 1;
/// The first side exit's index.
pub(crate) const EXIT_SIDE: u8 = 2;

/// The most side exits one block holds. A conditional `B` past them ends
/// the block as its ending branch, so a block has at most
/// [`LINK_SLOTS`] exits.
const MAX_SIDE_EXITS: usize = 6;

/// Successor-link slots per block: fall-through, ending branch, and one
/// per side exit.
pub(crate) const LINK_SLOTS: usize = EXIT_SIDE as usize + MAX_SIDE_EXITS;

/// A block: a run of decoded instructions along its fall-through path,
/// held as its compiled micro-op trace.
///
/// Admission rules (checked at build time, from the already-validated
/// decode cache): the body holds instructions that cannot touch the PC —
/// data-processing, multiply, `MOVW`/`MOVT`, `MRS`, and single-register
/// loads/stores (decode maps any PC-involving form to [`Insn::Unknown`],
/// which is never admitted) — and up to [`MAX_SIDE_EXITS`] conditional
/// `B`s, its side exits (static targets). `LDM`/`STM`, `BX`, `SVC` and
/// every privileged/undefined instruction terminate the block *before*
/// themselves; an unconditional `B`, any `BL`, and a conditional `B`
/// past the side-exit bound terminate it *inclusively*. A block holds at
/// least two instructions or at least one direct branch, so a lone
/// branch is a block too (which linked traces chain through).
/// ALU-class body instructions can neither fault nor write memory;
/// loads/stores *can*, so the runner executes them only through the
/// data-TLB hit path and otherwise stops the trace at the retired prefix,
/// falling back to exact per-instruction stepping (see
/// `Machine::step_superblock`). A store that bumps the code generation
/// retires and then stops the trace the same way, so the generation
/// validated at entry never moves under instructions executed from the
/// trace.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Entry virtual address and the context it was built under; all
    /// three are re-validated on every dispatch.
    pub(crate) entry_va: Addr,
    pub(crate) world: World,
    pub(crate) ttbr0: Addr,
    /// The physical page the block was decoded from, and the bus
    /// attributes its fetch carried: what a later epoch's translation of
    /// the entry page must resolve to again before the block may run.
    pub(crate) pa_page: Addr,
    pub(crate) attrs: AccessAttrs,
    /// The translation epoch the block was built or last confirmed in. It
    /// runs (by dispatch or by a linked hop) only in that epoch.
    pub(crate) epoch: u64,
    /// Upper bound on the cycles one pass of the block can charge: the
    /// whole fall-through path with every condition assumed true, plus
    /// one taken branch when the block has any (a pass takes at most
    /// one). Used to hoist the interrupt-wake compare out of the block:
    /// if `cycles + max_charge < wake`, no per-instruction wake check
    /// inside the block could have fired.
    pub(crate) max_charge: u64,
    /// Chained successors, indexed by exit index ([`EXIT_FALL`],
    /// [`EXIT_TAKEN`], `EXIT_SIDE + i`): the block id the corresponding
    /// exit last dispatched to. Purely a probe shortcut — the successor
    /// is re-validated like any dispatch (by the dispatcher, or by the
    /// micro-op runner before it hops), so a stale link costs a hash
    /// probe, never correctness.
    pub(crate) succ: [Option<u32>; LINK_SLOTS],
    /// The compiled trace: the block's only executable form, built with
    /// it and living as long as it, across translation epochs. Confirming
    /// the block in a new epoch resets the trace's per-site data
    /// translations, so it needs no re-validation beyond the block's own.
    pub(crate) trace: UopTrace,
}

/// Index sentinel: "no worthwhile block starts at this address" (the entry
/// instruction already terminates the trace) — cached so hopeless PCs are
/// rejected with one probe instead of a rebuild attempt per dispatch.
const NO_BLOCK: u32 = u32::MAX;

/// Block-engine statistics, surfaced through
/// [`crate::Machine::superblock_stats`]. Host-side only — never part of
/// architectural state or machine equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SbStats {
    /// Blocks built from decoded pages, each compiled to its trace.
    pub built: u64,
    /// Dispatches served from the block cache (including chained ones).
    pub hits: u64,
    /// Dispatches resolved through a successor link, skipping the probe.
    pub chained: u64,
    /// Blocks kept from an earlier translation epoch and confirmed in the
    /// current one (each also counts as a dispatch hit in `hits`).
    pub revalidated: u64,
    /// Whole-cache invalidations caused by a code-generation bump (a store
    /// — guest, monitor, or in-trace — landed in a watched code page).
    pub inval_code_gen: u64,
    /// Whole-cache invalidations caused by switching the accelerator on
    /// or off. The TLB machinery (`tlb_flush`, `load_ttbr0`, page-table
    /// stores) does not drop blocks: it starts a new translation epoch,
    /// in which kept blocks are confirmed before they run.
    pub inval_toggle: u64,
    /// Data-TLB lookups served (from [`crate::dtlb::DataTlb`], merged in
    /// by [`crate::Machine::superblock_stats`]).
    pub dtlb_hits: u64,
    /// Data-TLB lookups that missed or refused the fast path.
    pub dtlb_misses: u64,
    /// Data-TLB whole-cache invalidations across all causes.
    pub dtlb_invalidations: u64,
    /// Dispatches executed through a micro-op trace: one per runner call
    /// that retired at least one instruction, plus one per hop that call
    /// made (see `uop_linked`).
    pub uop_hits: u64,
    /// Successor links the micro-op runner followed straight into the
    /// next trace without returning to the dispatcher (linked
    /// chaining; a self-loop is a link back to the same trace). Each hop
    /// also counts as a chained dispatch hit in `hits`, `chained` and
    /// `uop_hits`, exactly as the dispatch it replaces would have.
    pub uop_linked: u64,
}

impl SbStats {
    /// Total block-cache invalidations across both causes.
    pub fn invalidations(&self) -> u64 {
        self.inval_code_gen + self.inval_toggle
    }
}

/// Why the block cache is being dropped (statistics attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SbInvalCause {
    /// The code generation moved: some store hit a watched code page.
    CodeGen,
    /// An accelerator toggle (counted in [`SbStats::inval_toggle`]).
    Toggle,
}

/// The block cache (see the module docs' *Compiled blocks* section).
#[derive(Clone, Debug, Default)]
struct SbCache {
    blocks: Vec<Block>,
    /// Entry VA → block id (or [`NO_BLOCK`]). Keyed by VA alone; the
    /// block's recorded world/`TTBR0` and epoch are validated on every
    /// hit, and a block rebuilt at the same VA reuses the old one's slot.
    index: FxHashMap<Addr, u32>,
    /// Snapshot of `PhysMem::code_gen` the blocks were built under.
    gen: u64,
    /// The last block dispatched and the exit index it left by — the
    /// chain source the next dispatch links (or follows).
    last: Option<(u32, u8)>,
    stats: SbStats,
}

/// The fetch accelerator: decode cache + one-entry translation cache.
///
/// Lives in [`crate::Machine`] but is **not** architectural state: it is
/// excluded from machine equality and never affects simulated counters.
#[derive(Clone, Debug)]
pub struct FetchAccel {
    enabled: bool,
    dcache: DecodeCache,
    fetch_tc: Option<FetchEntry>,
    hot: Option<HotFetch>,
    /// The current translation epoch (see the module docs' *Code cache
    /// across enclave entries*).
    epoch: u64,
    /// The epoch the first secure-world run since the last trim began in;
    /// `None` when no such run has happened, which makes a trim a no-op.
    trim_from: Option<u64>,
    sb: SbCache,
    /// Host-side statistics: fetches served from the decode cache.
    served: u64,
    /// Host-side statistics: pages decoded and cached.
    fills: u64,
}

impl FetchAccel {
    /// A fresh, enabled accelerator with nothing cached.
    pub fn new() -> FetchAccel {
        FetchAccel {
            enabled: true,
            dcache: DecodeCache::default(),
            fetch_tc: None,
            hot: None,
            epoch: 0,
            trim_from: None,
            sb: SbCache::default(),
            served: 0,
            fills: 0,
        }
    }

    /// Whether the accelerator is consulted at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns the accelerator on or off (off forces every fetch down the
    /// uncached path — used by the differential tests and benchmarks).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Drops every cached page, the translation entry, and all blocks (a
    /// toggle invalidation; generation bumps are detected lazily in
    /// `FetchAccel::sb_dispatch` and `FetchAccel::fetch`, and a TLB flush
    /// only starts a new epoch, see `FetchAccel::new_epoch`).
    pub fn invalidate(&mut self) {
        self.dcache.clear();
        self.fetch_tc = None;
        self.hot = None;
        self.sb_invalidate(SbInvalCause::Toggle);
    }

    /// Starts a new translation epoch, as a TLB flush, `TTBR0` load or
    /// page-table store does: drops the translation entry and the fused
    /// hot-fetch entry, whose validity rests on TLB residency, and keeps
    /// decoded pages and blocks. Kept blocks run again once confirmed in
    /// the new epoch (see [`FetchAccel::sb_dispatch`]).
    pub(crate) fn new_epoch(&mut self) {
        self.fetch_tc = None;
        self.hot = None;
        self.epoch += 1;
    }

    /// Notes that a secure-world run is starting, so the next trim keeps
    /// what was used from this epoch on.
    pub(crate) fn note_secure_run(&mut self) {
        self.trim_from.get_or_insert(self.epoch);
    }

    /// Keeps only the blocks and decoded pages used since the first
    /// secure-world run after the previous trim: blocks built or
    /// confirmed from that run's starting epoch on, and pages served
    /// since then or backing a kept block. When anything is dropped, links
    /// are remapped, the block or page index is rebuilt (a rebuilt block
    /// index forgets its [`NO_BLOCK`] memos), the storage shrunk to the
    /// kept set, and the code watch narrowed to the kept pages. `Machine`
    /// calls it when a run returns to the normal world; without a secure
    /// run since the last trim it does nothing, so it runs once per run
    /// however many world switches follow.
    ///
    /// Under the default monitor every entry flushes the TLB, so the run
    /// began in a fresh epoch and exactly its working set is kept. When
    /// an entry skips the flush (the §8.1 knob), blocks confirmed in the
    /// shared epoch before the run are kept too, until an epoch passes.
    pub(crate) fn trim(&mut self, mem: &mut PhysMem) {
        let Some(from) = self.trim_from.take() else {
            return;
        };
        if self.sb.blocks.iter().any(|b| b.epoch < from) {
            let mut kept = 0u32;
            let remap: Vec<u32> = self
                .sb
                .blocks
                .iter()
                .map(|b| {
                    if b.epoch < from {
                        return NO_BLOCK;
                    }
                    kept += 1;
                    kept - 1
                })
                .collect();
            let mut ids = remap.iter();
            self.sb
                .blocks
                .retain(|_| ids.next().is_some_and(|&n| n != NO_BLOCK));
            for b in &mut self.sb.blocks {
                for s in &mut b.succ {
                    *s = s.map(|t| remap[t as usize]).filter(|&n| n != NO_BLOCK);
                }
            }
            // At rest a platform holds the kept set, not the capacity the
            // largest run grew the cache to.
            self.sb.blocks.shrink_to_fit();
            self.sb.index.clear();
            for (id, b) in self.sb.blocks.iter().enumerate() {
                self.sb.index.insert(b.entry_va, id as u32);
            }
            self.sb.index.shrink_to_fit();
            self.sb.last = None;
        }
        if self.dcache.pages.iter().any(|p| p.epoch < from) {
            // A kept block's page must stay decoded, and so watched: a
            // store into it is what tells the block it is stale. (A block
            // whose page is no longer decoded predates a code-generation
            // bump, and the next dispatch drops it.)
            for b in &self.sb.blocks {
                if let Some(&i) = self.dcache.index.get(&b.pa_page) {
                    let p = &mut self.dcache.pages[i];
                    p.epoch = p.epoch.max(from);
                }
            }
            self.dcache.pages.retain(|p| p.epoch >= from);
            self.dcache.pages.shrink_to_fit();
            self.dcache.index.clear();
            mem.clear_code_watch();
            for (i, p) in self.dcache.pages.iter().enumerate() {
                self.dcache.index.insert(p.base, i);
                mem.watch_code_page(p.base);
            }
            self.dcache.last = None;
            self.hot = None;
        }
    }

    /// Block-engine statistics.
    pub fn sb_stats(&self) -> SbStats {
        self.sb.stats
    }

    /// Number of blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.sb.blocks.len()
    }

    /// Whether a block-cache invalidation would be *counted* (blocks or
    /// index entries are cached) — the condition under which the machine
    /// records an `sb-inval` trace event, keeping events 1:1 with the
    /// statistics.
    pub(crate) fn sb_has_cached(&self) -> bool {
        !self.sb.blocks.is_empty() || !self.sb.index.is_empty()
    }

    /// Drops every block and the chain source, attributing the drop to
    /// `cause` (counted only when something was actually cached).
    fn sb_invalidate(&mut self, cause: SbInvalCause) {
        if self.sb_has_cached() {
            match cause {
                SbInvalCause::CodeGen => self.sb.stats.inval_code_gen += 1,
                SbInvalCause::Toggle => self.sb.stats.inval_toggle += 1,
            }
        }
        self.sb.blocks.clear();
        self.sb.index.clear();
        self.sb.last = None;
    }

    /// Counts one micro-op runner call that retired instructions: the
    /// dispatched trace plus the `hops` successor links the runner then
    /// followed itself. Each hop is a chained dispatch hit the dispatcher
    /// did not have to serve, so it counts as one in `hits`, `chained`
    /// and `uop_hits`, and in `uop_linked`.
    pub(crate) fn sb_note_uop_run(&mut self, hops: u64) {
        let s = &mut self.sb.stats;
        s.hits += hops;
        s.chained += hops;
        s.uop_hits += 1 + hops;
        s.uop_linked += hops;
    }

    /// Looks up (or builds) the block entered at `pc` under
    /// `(world, ttbr0)`, with `gen_now` the current `PhysMem::code_gen`.
    /// Returns its id, or `None` to stay on the per-instruction path.
    ///
    /// Probe order: the previous block's successor link for its recorded
    /// exit, then the entry-VA index, then a build attempt. Every path
    /// re-validates `(entry VA, world, TTBR0, epoch)` against the block and
    /// the cache-wide generation against `gen_now`, so a stale link or
    /// index entry is a missed shortcut, never a wrong dispatch. A block
    /// the index finds from an earlier epoch is confirmed through the
    /// hot-fetch entry before it runs (see the module docs' *Code cache
    /// across enclave entries*); until the per-instruction path has
    /// fetched from its page in this epoch, the answer is `None`.
    pub(crate) fn sb_dispatch(
        &mut self,
        pc: Addr,
        world: World,
        ttbr0: Addr,
        gen_now: u64,
        trace: &mut FlightRecorder,
        cycle: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        if self.sb.gen != gen_now {
            // A store landed in a watched code page: every block may hold
            // stale decodes of it.
            if self.sb_has_cached() {
                trace.record(
                    cycle,
                    Event::SbInval {
                        cause: InvalCause::CodeGen,
                    },
                );
            }
            self.sb_invalidate(SbInvalCause::CodeGen);
            self.sb.gen = gen_now;
        }
        let prev = self.sb.last.take();
        if let Some((pid, exit)) = prev {
            if let Some(id) = self.sb.blocks[pid as usize].succ[exit as usize] {
                let b = &self.sb.blocks[id as usize];
                if b.entry_va == pc && b.world == world && b.ttbr0 == ttbr0 && b.epoch == self.epoch
                {
                    self.sb.stats.hits += 1;
                    self.sb.stats.chained += 1;
                    return Some(id);
                }
            }
        }
        let id = match self.sb.index.get(&pc).copied() {
            Some(NO_BLOCK) => return None,
            Some(id) => {
                let b = &self.sb.blocks[id as usize];
                let rebuild = if b.world != world || b.ttbr0 != ttbr0 {
                    // Same VA under a different context.
                    true
                } else if b.epoch != self.epoch {
                    // Kept from an earlier epoch: the hot-fetch entry must
                    // show this epoch's translation of the entry page, and
                    // it must resolve where the block was decoded.
                    let h = self.hot.filter(|h| {
                        h.va_page == page_base(pc)
                            && h.world == world
                            && h.ttbr0 == ttbr0
                            && self.dcache.gen == gen_now
                    })?;
                    if h.pa_page == b.pa_page && h.attrs == b.attrs {
                        self.sb_confirm(id);
                        false
                    } else {
                        // The page now maps elsewhere.
                        true
                    }
                } else {
                    false
                };
                if rebuild {
                    self.sb_build(pc, world, ttbr0, gen_now, Some(id), trace, cycle)?
                } else {
                    self.sb.stats.hits += 1;
                    id
                }
            }
            None => self.sb_build(pc, world, ttbr0, gen_now, None, trace, cycle)?,
        };
        if let Some((pid, exit)) = prev {
            // Remember where the previous block's exit led: next time the
            // same exit is taken, the probe above short-circuits.
            self.sb.blocks[pid as usize].succ[exit as usize] = Some(id);
        }
        Some(id)
    }

    /// Confirms block `id`, kept from an earlier translation epoch, in the
    /// current one. Its trace's per-site data translations were formed in
    /// an earlier epoch, so they are reset: each site refills from the
    /// data-TLB, which holds only this epoch's translations.
    fn sb_confirm(&mut self, id: u32) {
        let b = &mut self.sb.blocks[id as usize];
        b.epoch = self.epoch;
        for site in b.trace.sites.iter() {
            site.set(None);
        }
        self.sb.stats.revalidated += 1;
    }

    /// Forms a block starting at `pc` from the decoded page the hot-fetch
    /// entry points at (see [`Block`] for the admission rules) and
    /// compiles it into its micro-op trace, in the slot `slot` when it
    /// replaces a block at the same VA.
    #[allow(clippy::too_many_arguments)]
    fn sb_build(
        &mut self,
        pc: Addr,
        world: World,
        ttbr0: Addr,
        gen_now: u64,
        slot: Option<u32>,
        trace: &mut FlightRecorder,
        cycle: u64,
    ) -> Option<u32> {
        if self.dcache.gen != gen_now || !word_aligned(pc) {
            return None; // Stale decodes; the per-insn fetch reconciles.
        }
        // Blocks are built only behind a validated hot-fetch entry for this
        // exact `(VA page, world, TTBR0)`: that entry carries the proof that
        // the translation is in the TLB and the secure-attribute check
        // passed, which is what entitles every instruction in the trace to
        // account `hit + read + INSN` exactly like the per-insn hot path.
        let h = self.hot?;
        if h.va_page != page_base(pc) || h.world != world || h.ttbr0 != ttbr0 {
            return None;
        }
        let page = &self.dcache.pages[h.idx];
        let start = (page_offset(pc) / WORD_BYTES) as usize;
        let mut len = 0;
        let mut side_exits = 0;
        let mut max_charge = 0u64;
        let mut end = UopEnd::Fall;
        for &(_, insn, _) in &page.entries[start..] {
            match insn {
                Insn::Dp { .. } | Insn::Movw { .. } | Insn::Movt { .. } | Insn::Mrs { .. } => {
                    max_charge += cost::INSN;
                    len += 1;
                }
                Insn::Mul { .. } => {
                    max_charge += cost::INSN + cost::MUL;
                    len += 1;
                }
                // Single-register loads/stores are memory-inclusive: the
                // runner executes them through the data-TLB hit path and
                // stops the block at the retired prefix on any hazard
                // (miss, permission refusal, alignment, access fault,
                // watched-page store) — see `Machine::step_superblock`.
                Insn::Ldr { .. } | Insn::Str { .. } => {
                    max_charge += cost::INSN + cost::MEM;
                    len += 1;
                }
                // A conditional `B` is a side exit: the scan goes on down
                // its fall-through path.
                Insn::B { cond, .. } if cond != Cond::Al && side_exits < MAX_SIDE_EXITS => {
                    max_charge += cost::INSN;
                    side_exits += 1;
                    len += 1;
                }
                Insn::B { cond, offset } | Insn::Bl { cond, offset } => {
                    let va = pc.wrapping_add(len as u32 * WORD_BYTES);
                    end = UopEnd::Branch {
                        cond,
                        target: branch_target(va, offset),
                        link: matches!(insn, Insn::Bl { .. }),
                    };
                    max_charge += cost::INSN;
                    break;
                }
                // Anything that can fault, write memory, or redirect the
                // PC ends the block *before* itself.
                _ => break,
            }
        }
        let with_branch = matches!(end, UopEnd::Branch { .. });
        if side_exits > 0 || with_branch {
            // A pass takes at most one branch: a taken side exit leaves.
            max_charge += cost::BRANCH_TAKEN;
        } else if len < 2 {
            // Too short to beat per-insn dispatch; remember that. A lone
            // direct branch is admitted: linked chains run through it
            // instead of returning to the dispatcher.
            self.sb.index.insert(pc, NO_BLOCK);
            return None;
        }
        trace.record(
            cycle,
            Event::SbBuild {
                entry_va: pc,
                len: (len + with_branch as usize) as u32,
            },
        );
        let block = Block {
            entry_va: pc,
            world,
            ttbr0,
            pa_page: h.pa_page,
            attrs: h.attrs,
            epoch: self.epoch,
            max_charge,
            succ: [None; LINK_SLOTS],
            trace: crate::uop::specialise(pc, &page.entries[start..start + len], end),
        };
        let id = match slot {
            Some(id) => {
                self.sb.blocks[id as usize] = block;
                id
            }
            None => {
                self.sb.blocks.push(block);
                self.sb.blocks.len() as u32 - 1
            }
        };
        self.sb.index.insert(pc, id);
        self.sb.stats.built += 1;
        Some(id)
    }

    /// Every cached block, indexed by the ids [`FetchAccel::sb_dispatch`]
    /// returns and [`Block::succ`] links hold.
    ///
    /// Takes `&self` so the caller can hold the blocks while mutating the
    /// machine's other fields through split borrows.
    pub(crate) fn sb_blocks(&self) -> &[Block] {
        &self.sb.blocks
    }

    /// Records the exit index the dispatched block `id` left by after
    /// retiring `insns` instructions. `None` (a block that did not fit
    /// whole, or a hazard stop mid-trace) breaks the chain.
    pub(crate) fn sb_note_exit(&mut self, id: u32, exit: Option<u8>, insns: u64) {
        self.served += insns;
        self.sb.last = exit.map(|k| (id, k));
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.dcache.pages.len()
    }

    /// Fetches served from the decode cache (host-side statistic).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Pages decoded and cached (host-side statistic).
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// The fused fast path: serves the instruction at virtual address `pc`
    /// when the last fetch's translation and decoded page both still apply
    /// (same VA page, world and `TTBR0`; no store into a watched code page
    /// since). On a hit the caller must account one TLB hit, one memory
    /// read and the instruction cycle — exactly what the uncached path
    /// would have recorded (see [`FetchAccel::fetch_tc_lookup`] and
    /// [`FetchAccel::fetch`], whose accounting this combines).
    #[inline]
    pub(crate) fn hot_fetch(
        &mut self,
        pc: Addr,
        world: World,
        ttbr0: Addr,
        mem: &PhysMem,
    ) -> Option<(Word, Insn, Cond)> {
        if !self.enabled {
            return None;
        }
        let h = self.hot.as_ref()?;
        if h.va_page != page_base(pc)
            || h.world != world
            || h.ttbr0 != ttbr0
            || self.dcache.gen != mem.code_gen()
            || !word_aligned(pc)
        {
            return None;
        }
        self.served += 1;
        let page = &self.dcache.pages[h.idx];
        Some(page.entries[(page_offset(pc) / WORD_BYTES) as usize])
    }

    /// Consults the one-entry translation cache for the fetch of `pc`.
    ///
    /// A hit is returned only if the entry was formed under the same world
    /// and `TTBR0`; the caller must account the TLB hit the lookup this
    /// replaces would have recorded.
    #[inline]
    pub(crate) fn fetch_tc_lookup(
        &self,
        pc: Addr,
        world: World,
        ttbr0: Addr,
    ) -> Option<(Addr, AccessAttrs)> {
        if !self.enabled {
            return None;
        }
        let e = self.fetch_tc.as_ref()?;
        if e.va_page == page_base(pc) && e.world == world && e.ttbr0 == ttbr0 {
            Some((e.pa_page | page_offset(pc), e.attrs))
        } else {
            None
        }
    }

    /// Records a successful fetch translation for `pc`.
    pub(crate) fn fetch_tc_fill(
        &mut self,
        pc: Addr,
        pa: Addr,
        attrs: AccessAttrs,
        world: World,
        ttbr0: Addr,
    ) {
        if !self.enabled {
            return;
        }
        self.fetch_tc = Some(FetchEntry {
            va_page: page_base(pc),
            pa_page: page_base(pa),
            attrs,
            world,
            ttbr0,
        });
    }

    /// Serves the instruction at physical address `ppc`, or `None` to send
    /// the fetch down the uncached path.
    ///
    /// On a hit this bumps `mem.reads` by one — the read the uncached path
    /// would have performed — keeping the access counters bit-identical.
    #[inline]
    pub(crate) fn fetch(
        &mut self,
        mem: &mut PhysMem,
        ppc: Addr,
        attrs: AccessAttrs,
    ) -> Option<(Word, Insn, Cond)> {
        if !self.enabled {
            return None;
        }
        if self.dcache.gen != mem.code_gen() {
            // A store landed in a watched code page since the last fetch.
            self.dcache.clear();
            self.hot = None;
            mem.clear_code_watch();
            self.dcache.gen = mem.code_gen();
        }
        if !word_aligned(ppc) {
            return None; // Let the uncached path raise the alignment fault.
        }
        let base = page_base(ppc);
        let idx = match self.dcache.last {
            Some((b, i)) if b == base => i,
            _ => match self.dcache.index.get(&base) {
                Some(&i) => {
                    self.dcache.last = Some((base, i));
                    i
                }
                None => {
                    let i = self.dcache.fill(mem, base, self.epoch)?;
                    self.fills += 1;
                    i
                }
            },
        };
        let page = &mut self.dcache.pages[idx];
        page.epoch = self.epoch;
        if page.secure && !attrs.secure {
            // The bus would reject this fetch; take the uncached path so
            // the fault is raised (and left uncounted) exactly as without
            // the cache.
            return None;
        }
        // Arm the fused fast path for the next step: the translation cache
        // already holds this page's mapping (the caller translates before
        // fetching), and the secure check above just passed for `attrs`,
        // which are the attributes that translation yields.
        if let Some(tc) = self.fetch_tc {
            if tc.pa_page == base {
                self.hot = Some(HotFetch {
                    va_page: tc.va_page,
                    world: tc.world,
                    ttbr0: tc.ttbr0,
                    idx,
                    pa_page: tc.pa_page,
                    attrs: tc.attrs,
                });
            }
        }
        mem.reads += 1; // The word read the uncached path would have done.
        self.served += 1;
        Some(page.entries[(page_offset(ppc) / WORD_BYTES) as usize])
    }
}

impl Default for FetchAccel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with_code(words: &[Word], secure: bool) -> PhysMem {
        let mut m = PhysMem::new();
        m.add_region(0x8000_0000, 0x4000, secure);
        m.load_words(0x8000_2000, words).unwrap();
        m
    }

    #[test]
    fn hit_replays_word_and_counts_one_read() {
        let mut mem = mem_with_code(&[0xe3a0_0001, 0xef00_0000], true);
        let mut acc = FetchAccel::new();
        let r0 = mem.reads;
        let (w, i, c) = acc
            .fetch(&mut mem, 0x8000_2000, AccessAttrs::MONITOR)
            .unwrap();
        assert_eq!(w, 0xe3a0_0001);
        assert_eq!(i, decode(0xe3a0_0001));
        assert_eq!(c, i.cond());
        assert_eq!(mem.reads, r0 + 1, "hit must count exactly one read");
        assert_eq!(acc.cached_pages(), 1);
        assert_eq!(acc.fills(), 1);
        // Second fetch on the same page: served from cache, one more read.
        let (w, _, _) = acc
            .fetch(&mut mem, 0x8000_2004, AccessAttrs::MONITOR)
            .unwrap();
        assert_eq!(w, 0xef00_0000);
        assert_eq!(mem.reads, r0 + 2);
        assert_eq!(acc.served(), 2);
        assert_eq!(acc.fills(), 1);
    }

    #[test]
    fn write_to_cached_page_invalidates() {
        let mut mem = mem_with_code(&[0xe3a0_0001], true);
        let mut acc = FetchAccel::new();
        acc.fetch(&mut mem, 0x8000_2000, AccessAttrs::MONITOR)
            .unwrap();
        mem.write(0x8000_2000, 0xef00_0000, AccessAttrs::MONITOR)
            .unwrap();
        let (w, i, _) = acc
            .fetch(&mut mem, 0x8000_2000, AccessAttrs::MONITOR)
            .unwrap();
        assert_eq!(w, 0xef00_0000, "stale decode served after overwrite");
        assert_eq!(i, decode(0xef00_0000));
        assert_eq!(acc.fills(), 2, "page must be re-decoded after the store");
    }

    #[test]
    fn write_to_unwatched_page_keeps_cache() {
        let mut mem = mem_with_code(&[0xe3a0_0001], true);
        let mut acc = FetchAccel::new();
        acc.fetch(&mut mem, 0x8000_2000, AccessAttrs::MONITOR)
            .unwrap();
        // A data page the accelerator never cached.
        mem.write(0x8000_3000, 7, AccessAttrs::MONITOR).unwrap();
        acc.fetch(&mut mem, 0x8000_2000, AccessAttrs::MONITOR)
            .unwrap();
        assert_eq!(acc.fills(), 1, "unrelated stores must not invalidate");
    }

    #[test]
    fn secure_page_not_served_to_nonsecure_fetch() {
        let mut mem = mem_with_code(&[0xe3a0_0001], true);
        let mut acc = FetchAccel::new();
        acc.fetch(&mut mem, 0x8000_2000, AccessAttrs::MONITOR)
            .unwrap();
        let r0 = mem.reads;
        assert!(acc
            .fetch(&mut mem, 0x8000_2000, AccessAttrs::NORMAL)
            .is_none());
        assert_eq!(mem.reads, r0, "rejected fetch must not count a read");
    }

    #[test]
    fn unaligned_and_unmapped_fall_back() {
        let mut mem = mem_with_code(&[0xe3a0_0001], false);
        let mut acc = FetchAccel::new();
        assert!(acc
            .fetch(&mut mem, 0x8000_2002, AccessAttrs::NORMAL)
            .is_none());
        assert!(acc
            .fetch(&mut mem, 0x4000_0000, AccessAttrs::NORMAL)
            .is_none());
    }

    #[test]
    fn disabled_accelerator_serves_nothing() {
        let mut mem = mem_with_code(&[0xe3a0_0001], false);
        let mut acc = FetchAccel::new();
        acc.set_enabled(false);
        assert!(acc
            .fetch(&mut mem, 0x8000_2000, AccessAttrs::NORMAL)
            .is_none());
        assert!(acc
            .fetch_tc_lookup(0x8000, World::Secure, 0x8000_0000)
            .is_none());
    }

    #[test]
    fn fetch_tc_validates_world_and_ttbr0() {
        let mut acc = FetchAccel::new();
        acc.fetch_tc_fill(
            0x8123,
            0x8000_2123,
            AccessAttrs::ENCLAVE,
            World::Secure,
            0x8000_0000,
        );
        let (pa, attrs) = acc
            .fetch_tc_lookup(0x8ffc, World::Secure, 0x8000_0000)
            .unwrap();
        assert_eq!(pa, 0x8000_2ffc);
        assert_eq!(attrs, AccessAttrs::ENCLAVE);
        // Different page, world, or TTBR0: miss.
        assert!(acc
            .fetch_tc_lookup(0x9000, World::Secure, 0x8000_0000)
            .is_none());
        assert!(acc
            .fetch_tc_lookup(0x8ffc, World::Normal, 0x8000_0000)
            .is_none());
        assert!(acc
            .fetch_tc_lookup(0x8ffc, World::Secure, 0x8000_4000)
            .is_none());
    }
}
