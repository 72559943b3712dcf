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
//! the next fetch observes, dropping the whole cache. `Machine` also
//! drops it on `tlb_flush`, `load_ttbr0` and `note_pagetable_store`.
//!
//! # Superblocks
//!
//! On top of the decode cache sits a **superblock engine**: straight-line
//! traces of predecoded `(insn, cond)` entries, formed at a hot fetch and
//! ending at the first branch, PC-writing instruction, unhandled
//! exception source, or page boundary. Single-register loads and stores
//! are **memory-inclusive**: they ride inside the trace, executed through
//! the software data-TLB ([`crate::dtlb::DataTlb`]) hit path, with any
//! hazard stopping the block at an exactly-retired prefix. A trace is
//! validated **once** at entry (`(VA page, world, TTBR0, generation,
//! alignment)` — the same facts the per-instruction hot path re-checks
//! every step) and then executed in a tight loop by `Machine::run_user`,
//! with the TLB-hit / memory-read / cycle accounting batched per block so
//! the architecturally visible counters stay bit-for-bit identical to
//! per-instruction stepping (see `Block` for the admission rules that
//! make this sound). Blocks chain:
//! each records the block id its fall-through and taken-branch exits last
//! dispatched to, so steady-state loops skip even the hash probe.
//! Invalidation rides the existing generation mechanism — a bumped
//! generation (guest store, `mon_write`, page-table store) or an
//! accelerator-wide invalidation (`tlb_flush`, `load_ttbr0`) kills every
//! block along with the decoded pages they were built from.

use crate::decode::decode;
use crate::fxhash::FxHashMap;
use crate::insn::{Cond, Insn};
use crate::machine::cost;
use crate::mem::{AccessAttrs, PhysMem};
use crate::mode::World;
use crate::uop::UopTrace;
use crate::word::{page_base, page_offset, word_aligned, Addr, Word, WORD_BYTES};
use komodo_trace::{Event, FlightRecorder, InvalCause};

/// One physical code page, eagerly decoded.
#[derive(Clone, Debug)]
struct CachedPage {
    /// Whether the backing region is secure (for the bus-attribute check a
    /// real fetch would perform).
    secure: bool,
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

    /// Decodes and caches the page at `base`; `None` if the page is not
    /// fully RAM-backed (such fetches stay on the uncached path).
    fn fill(&mut self, mem: &mut PhysMem, base: Addr) -> Option<usize> {
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
        self.pages.push(CachedPage { secure, entries });
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
/// fault the uncached path would raise can be masked.
#[derive(Clone, Copy, Debug)]
struct HotFetch {
    va_page: Addr,
    world: World,
    ttbr0: Addr,
    idx: usize,
}

/// How a superblock's straight-line body ends.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockEnd {
    /// A direct `B`/`BL`: the target is static, so the branch itself is
    /// part of the block (taken → `target`, not taken → fall through).
    Branch {
        /// The branch's condition field.
        cond: Cond,
        /// Absolute taken-branch target (`va + 8 + offset*4`).
        target: Addr,
        /// `BL`: write the return address to `LR` when taken.
        link: bool,
    },
    /// The next instruction is not block-safe (potential exception source,
    /// indirect control flow, memory access) or the page ended; execution
    /// falls through to the per-instruction path.
    Fallthrough,
}

/// Which way the last dispatched superblock exited — the key under which
/// its successor link is recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExitKind {
    /// Fell through (body end, or branch condition false).
    Fall = 0,
    /// Took the ending branch.
    Taken = 1,
}

/// A superblock: a predecoded straight-line trace.
///
/// Admission rules (checked at build time, from the already-validated
/// decode cache): the body holds instructions that cannot touch the PC —
/// data-processing, multiply, `MOVW`/`MOVT`, `MRS`, and single-register
/// loads/stores (decode maps any PC-involving form to [`Insn::Unknown`],
/// which is never admitted). `LDM`/`STM`, `BX`, `SVC` and every
/// privileged/undefined instruction terminate the trace *before*
/// themselves; a direct `B`/`BL` terminates it *inclusively* (its target
/// is static). A trace holds at least two instructions, or is a lone
/// direct branch with an empty body (which promoted traces chain
/// through). ALU-class body instructions can neither fault nor write
/// memory; loads/stores *can*, so the runner executes them only through
/// the data-TLB hit path and otherwise stops the block at the retired
/// prefix, falling back to exact per-instruction stepping (see
/// `Machine::step_superblock`). A store that bumps the code generation
/// retires and then stops the block the same way, so the generation
/// validated at entry never moves under instructions executed from the
/// trace.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Entry virtual address and the context it was built under; all
    /// three are re-validated on every dispatch.
    pub(crate) entry_va: Addr,
    pub(crate) world: World,
    pub(crate) ttbr0: Addr,
    /// The straight-line body (condition fields pre-extracted).
    pub(crate) body: Box<[(Insn, Cond)]>,
    /// How the trace ends.
    pub(crate) end: BlockEnd,
    /// Upper bound on the cycles one execution of the block can charge
    /// (every condition assumed true, branch assumed taken). Used to hoist
    /// the interrupt-wake compare out of the block: if
    /// `cycles + max_charge < wake`, no per-instruction wake check inside
    /// the block could have fired.
    pub(crate) max_charge: u64,
    /// Chained successors, indexed by [`ExitKind`]: the block id the
    /// corresponding exit last dispatched to. Purely a probe shortcut —
    /// the successor is re-validated like any dispatch (by the
    /// dispatcher, or by the micro-op runner before it hops), so a stale
    /// link costs a hash probe, never correctness.
    pub(crate) succ: [Option<u32>; 2],
    /// Dispatch hits since the block was built; crossing the promotion
    /// threshold triggers one-time micro-op specialisation.
    pub(crate) hot: u64,
    /// The specialised micro-op trace, once promoted. Dies with the
    /// block on every invalidation, so it needs no re-validation beyond
    /// the block's own.
    pub(crate) uop: Option<Box<UopTrace>>,
}

/// Index sentinel: "no worthwhile block starts at this address" (the entry
/// instruction already terminates the trace) — cached so hopeless PCs are
/// rejected with one probe instead of a rebuild attempt per dispatch.
const NO_BLOCK: u32 = u32::MAX;

/// Default dispatch-hit count at which a superblock is promoted to a
/// specialised micro-op trace. High enough that cold traces never pay
/// the one-time specialisation cost, low enough that a loop of any
/// interesting trip count runs specialised almost immediately.
const DEFAULT_UOP_THRESHOLD: u64 = 16;

/// Superblock-engine statistics, surfaced through
/// [`crate::Machine::superblock_stats`]. Host-side only — never part of
/// architectural state or machine equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SbStats {
    /// Traces built from decoded pages.
    pub built: u64,
    /// Dispatches served from the block cache (including chained ones).
    pub hits: u64,
    /// Dispatches resolved through a successor link, skipping the probe.
    pub chained: u64,
    /// Whole-cache invalidations caused by a code-generation bump (a store
    /// — guest, monitor, or in-block — landed in a watched code page).
    pub inval_code_gen: u64,
    /// Whole-cache invalidations driven by the TLB machinery (`tlb_flush`,
    /// `load_ttbr0`, page-table stores) or an accelerator toggle.
    pub inval_tlb: u64,
    /// Data-TLB lookups served (from [`crate::dtlb::DataTlb`], merged in
    /// by [`crate::Machine::superblock_stats`]).
    pub dtlb_hits: u64,
    /// Data-TLB lookups that missed or refused the fast path.
    pub dtlb_misses: u64,
    /// Data-TLB whole-cache invalidations across all causes.
    pub dtlb_invalidations: u64,
    /// Hot superblocks promoted to specialised micro-op traces.
    pub uop_promoted: u64,
    /// Dispatches executed through a specialised micro-op trace: one per
    /// runner call that retired at least one instruction, plus one per
    /// hop that call made (see `uop_linked`).
    pub uop_hits: u64,
    /// Successor links the micro-op runner followed straight into the
    /// next promoted trace without returning to the dispatcher (linked
    /// chaining; a self-loop is a link back to the same trace). Each hop
    /// also counts as a chained dispatch hit in `hits`, `chained` and
    /// `uop_hits`, exactly as the dispatch it replaces would have.
    pub uop_linked: u64,
    /// Whole-cache invalidations that dropped at least one specialised
    /// trace (micro-op traces die with their superblocks).
    pub uop_invalidations: u64,
}

impl SbStats {
    /// Total superblock-cache invalidations across both causes.
    pub fn invalidations(&self) -> u64 {
        self.inval_code_gen + self.inval_tlb
    }
}

/// Why the superblock cache is being dropped (statistics attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SbInvalCause {
    /// The code generation moved: some store hit a watched code page.
    CodeGen,
    /// TLB/TTBR-driven (`tlb_flush`, `load_ttbr0`, page-table store) or an
    /// accelerator toggle.
    Tlb,
}

/// The block cache (see the module docs' *Superblocks* section).
#[derive(Clone, Debug, Default)]
struct SbCache {
    blocks: Vec<Block>,
    /// Entry VA → block id (or [`NO_BLOCK`]). Keyed by VA alone; the
    /// block's recorded world/`TTBR0` are validated on every hit.
    index: FxHashMap<Addr, u32>,
    /// Snapshot of `PhysMem::code_gen` the blocks were built under.
    gen: u64,
    /// The last block dispatched and how it exited — the chain source the
    /// next dispatch links (or follows).
    last: Option<(u32, ExitKind)>,
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
    /// Whether the superblock engine runs on top of the decode cache.
    sb_enabled: bool,
    /// Whether hot superblocks are promoted to micro-op traces.
    uop_enabled: bool,
    /// Dispatch hits before a superblock is specialised.
    uop_threshold: u64,
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
            sb_enabled: true,
            uop_enabled: true,
            uop_threshold: DEFAULT_UOP_THRESHOLD,
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

    /// Drops every cached page, the translation entry, and all
    /// superblocks (a TLB/TTBR-driven or toggle invalidation; generation
    /// bumps are detected lazily in `FetchAccel::sb_dispatch` and
    /// `FetchAccel::fetch`).
    pub fn invalidate(&mut self) {
        self.dcache.clear();
        self.fetch_tc = None;
        self.hot = None;
        self.sb_invalidate(SbInvalCause::Tlb);
    }

    /// Whether the superblock engine is active (requires the accelerator
    /// itself to be enabled).
    pub fn superblocks_enabled(&self) -> bool {
        self.enabled && self.sb_enabled
    }

    /// Turns the superblock engine on or off, dropping all blocks either
    /// way. Off leaves the PR-1 accelerator layers (decode cache, fused
    /// hot fetch, translation caches) intact — used by the differential
    /// tests and benchmarks to isolate the engine's contribution.
    pub fn set_superblocks(&mut self, on: bool) {
        self.sb_enabled = on;
        self.sb_invalidate(SbInvalCause::Tlb);
    }

    /// Whether the micro-op specialisation tier is active (requires the
    /// superblock engine, and therefore the accelerator, to be enabled).
    pub fn uops_enabled(&self) -> bool {
        self.superblocks_enabled() && self.uop_enabled
    }

    /// Turns the micro-op tier on or off, dropping all blocks either way
    /// (their specialised traces die with them). Off leaves the
    /// superblock engine itself running — used by the differential tests
    /// and benchmarks to isolate the tier's contribution.
    pub fn set_uops(&mut self, on: bool) {
        self.uop_enabled = on;
        self.sb_invalidate(SbInvalCause::Tlb);
    }

    /// Sets the promotion threshold: dispatch hits a superblock must
    /// accumulate before it is specialised (clamped to at least 1; the
    /// differential tests lower it to force promotion quickly).
    pub fn set_uop_threshold(&mut self, hits: u64) {
        self.uop_threshold = hits.max(1);
    }

    /// Superblock-engine statistics.
    pub fn sb_stats(&self) -> SbStats {
        self.sb.stats
    }

    /// Number of superblocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.sb.blocks.len()
    }

    /// Whether a superblock invalidation would be *counted* (blocks or
    /// index entries are cached) — the condition under which the machine
    /// records an `sb-inval` trace event, keeping events 1:1 with the
    /// statistics.
    pub(crate) fn sb_has_cached(&self) -> bool {
        !self.sb.blocks.is_empty() || !self.sb.index.is_empty()
    }

    /// Whether any cached superblock carries a specialised micro-op
    /// trace — the condition under which an invalidation is counted (and
    /// trace-evented) as a uop invalidation, keeping events 1:1 with the
    /// statistics.
    pub(crate) fn sb_has_uops(&self) -> bool {
        self.sb.blocks.iter().any(|b| b.uop.is_some())
    }

    /// Drops every superblock and the chain source, attributing the drop
    /// to `cause` (counted only when something was actually cached).
    fn sb_invalidate(&mut self, cause: SbInvalCause) {
        if self.sb_has_uops() {
            self.sb.stats.uop_invalidations += 1;
        }
        if !self.sb.blocks.is_empty() || !self.sb.index.is_empty() {
            match cause {
                SbInvalCause::CodeGen => self.sb.stats.inval_code_gen += 1,
                SbInvalCause::Tlb => self.sb.stats.inval_tlb += 1,
            }
        }
        self.sb.blocks.clear();
        self.sb.index.clear();
        self.sb.last = None;
    }

    /// Counts one dispatch hit against block `id` and specialises it
    /// into a micro-op trace once it crosses the promotion threshold.
    /// Called from the two cache-hit paths in [`FetchAccel::sb_dispatch`]
    /// — builds don't count, so a trace invalidated every dispatch never
    /// pays the specialisation cost.
    fn sb_promote_if_hot(&mut self, id: u32, trace: &mut FlightRecorder, cycle: u64) {
        if !self.uop_enabled {
            return;
        }
        let b = &mut self.sb.blocks[id as usize];
        if b.uop.is_some() {
            return;
        }
        b.hot += 1;
        if b.hot < self.uop_threshold {
            return;
        }
        let t = crate::uop::specialise(b);
        trace.record(
            cycle,
            Event::UopPromote {
                entry_va: b.entry_va,
                len: t.body.len() as u32,
            },
        );
        b.uop = Some(Box::new(t));
        self.sb.stats.uop_promoted += 1;
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

    /// Looks up (or builds) the superblock entered at `pc` under
    /// `(world, ttbr0)`, with `gen_now` the current `PhysMem::code_gen`.
    /// Returns its id, or `None` to stay on the per-instruction path.
    ///
    /// Probe order: the previous block's successor link for its recorded
    /// exit, then the entry-VA index, then a build attempt. Every path
    /// re-validates `(entry VA, world, TTBR0)` against the block and the
    /// cache-wide generation against `gen_now`, so a stale link or index
    /// entry is a missed shortcut, never a wrong dispatch.
    pub(crate) fn sb_dispatch(
        &mut self,
        pc: Addr,
        world: World,
        ttbr0: Addr,
        gen_now: u64,
        trace: &mut FlightRecorder,
        cycle: u64,
    ) -> Option<u32> {
        if !self.enabled || !self.sb_enabled {
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
            if self.sb_has_uops() {
                trace.record(
                    cycle,
                    Event::UopInval {
                        cause: InvalCause::CodeGen,
                    },
                );
            }
            self.sb_invalidate(SbInvalCause::CodeGen);
            self.sb.gen = gen_now;
        }
        let prev = self.sb.last.take();
        if let Some((pid, kind)) = prev {
            if let Some(id) = self.sb.blocks[pid as usize].succ[kind as usize] {
                let b = &self.sb.blocks[id as usize];
                if b.entry_va == pc && b.world == world && b.ttbr0 == ttbr0 {
                    self.sb.stats.hits += 1;
                    self.sb.stats.chained += 1;
                    self.sb_promote_if_hot(id, trace, cycle);
                    return Some(id);
                }
            }
        }
        let id = match self.sb.index.get(&pc).copied() {
            Some(NO_BLOCK) => return None,
            Some(id) => {
                let b = &self.sb.blocks[id as usize];
                if b.world == world && b.ttbr0 == ttbr0 {
                    self.sb.stats.hits += 1;
                    self.sb_promote_if_hot(id, trace, cycle);
                    id
                } else {
                    // Same VA under a different context (the old block
                    // stays allocated but unreachable until invalidation).
                    self.sb_build(pc, world, ttbr0, gen_now, trace, cycle)?
                }
            }
            None => self.sb_build(pc, world, ttbr0, gen_now, trace, cycle)?,
        };
        if let Some((pid, kind)) = prev {
            // Remember where the previous block's exit led: next time the
            // same exit is taken, the probe above short-circuits.
            self.sb.blocks[pid as usize].succ[kind as usize] = Some(id);
        }
        Some(id)
    }

    /// Forms a trace starting at `pc` from the decoded page the hot-fetch
    /// entry points at (see [`Block`] for the admission rules).
    fn sb_build(
        &mut self,
        pc: Addr,
        world: World,
        ttbr0: Addr,
        gen_now: u64,
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
        let h = self.hot.as_ref()?;
        if h.va_page != page_base(pc) || h.world != world || h.ttbr0 != ttbr0 {
            return None;
        }
        let page = &self.dcache.pages[h.idx];
        let start = (page_offset(pc) / WORD_BYTES) as usize;
        let mut body = Vec::new();
        let mut max_charge = 0u64;
        let mut end = BlockEnd::Fallthrough;
        for &(_, insn, cond) in &page.entries[start..] {
            match insn {
                Insn::Dp { .. } | Insn::Movw { .. } | Insn::Movt { .. } | Insn::Mrs { .. } => {
                    max_charge += cost::INSN;
                    body.push((insn, cond));
                }
                Insn::Mul { .. } => {
                    max_charge += cost::INSN + cost::MUL;
                    body.push((insn, cond));
                }
                // Single-register loads/stores are memory-inclusive: the
                // runner executes them through the data-TLB hit path and
                // stops the block at the retired prefix on any hazard
                // (miss, permission refusal, alignment, access fault,
                // watched-page store) — see `Machine::step_superblock`.
                Insn::Ldr { .. } | Insn::Str { .. } => {
                    max_charge += cost::INSN + cost::MEM;
                    body.push((insn, cond));
                }
                Insn::B { cond, offset } | Insn::Bl { cond, offset } => {
                    let va = pc.wrapping_add(body.len() as u32 * WORD_BYTES);
                    end = BlockEnd::Branch {
                        cond,
                        target: va
                            .wrapping_add(8)
                            .wrapping_add((offset as u32).wrapping_mul(4)),
                        link: matches!(insn, Insn::Bl { .. }),
                    };
                    max_charge += cost::INSN + cost::BRANCH_TAKEN;
                    break;
                }
                // Anything that can fault, write memory, or redirect the
                // PC ends the trace *before* itself.
                _ => break,
            }
        }
        let with_branch = matches!(end, BlockEnd::Branch { .. });
        if !with_branch && body.len() < 2 {
            // Too short to beat per-insn dispatch; remember that. A lone
            // direct branch is admitted: once promoted, linked chains run
            // through it instead of returning to the dispatcher.
            self.sb.index.insert(pc, NO_BLOCK);
            return None;
        }
        let id = self.sb.blocks.len() as u32;
        trace.record(
            cycle,
            Event::SbBuild {
                entry_va: pc,
                len: (body.len() + with_branch as usize) as u32,
            },
        );
        self.sb.blocks.push(Block {
            entry_va: pc,
            world,
            ttbr0,
            body: body.into_boxed_slice(),
            end,
            max_charge,
            succ: [None, None],
            hot: 0,
            uop: None,
        });
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

    /// Records how the dispatched block `id` exited after retiring
    /// `insns` instructions. `None` (wake fallback or a mid-block
    /// step-budget stop) breaks the chain.
    pub(crate) fn sb_note_exit(&mut self, id: u32, exit: Option<ExitKind>, insns: u64) {
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
                    let i = self.dcache.fill(mem, base)?;
                    self.fills += 1;
                    i
                }
            },
        };
        let page = &self.dcache.pages[idx];
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
