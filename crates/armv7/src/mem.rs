//! Physical memory with TrustZone partitioning.
//!
//! Memory is "a mapping from word-aligned addresses to 32-bit values"
//! (paper §5.1). A TrustZone-aware memory controller tags regions as secure
//! and rejects non-secure accesses to them (§3.3); the Komodo bootloader
//! reserves one such region for the monitor and the secure page pool.
//!
//! The model also counts word accesses, which feeds the monitor's cycle
//! accounting for Table 3.
//!
//! Storage is sparse, so a platform costs the host the pages it has
//! written rather than the size of its RAM banks: each region is a table
//! of 4 kB frames, an absent frame reads as zero, and only a store of a
//! non-zero word allocates one. Equality compares contents, so residency
//! is invisible to everything but [`PhysMem::resident_pages`].

use crate::error::{MemFault, MemFaultKind};
use crate::word::{
    page_aligned, page_base, page_offset, word_aligned, Addr, Word, PAGE_SIZE, WORDS_PER_PAGE,
    WORD_BYTES,
};

/// Security attribute of an access, as driven onto the bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessAttrs {
    /// Whether the access is issued with the secure attribute.
    pub secure: bool,
    /// Whether the access comes from privileged execution.
    pub privileged: bool,
}

impl AccessAttrs {
    /// Secure privileged access (the monitor).
    pub const MONITOR: AccessAttrs = AccessAttrs {
        secure: true,
        privileged: true,
    };
    /// Secure unprivileged access (enclave user mode).
    pub const ENCLAVE: AccessAttrs = AccessAttrs {
        secure: true,
        privileged: false,
    };
    /// Non-secure access (normal-world OS or application, or a device).
    pub const NORMAL: AccessAttrs = AccessAttrs {
        secure: false,
        privileged: true,
    };
}

/// One page of RAM contents, allocated on the first non-zero store.
type Frame = Box<[Word; WORDS_PER_PAGE]>;

/// What every absent frame reads as.
static ZERO_FRAME: [Word; WORDS_PER_PAGE] = [0; WORDS_PER_PAGE];

fn zero_frame() -> Frame {
    // Through `vec!` so the allocation is zeroed in place rather than
    // copied from a 4 kB stack temporary.
    vec![0; WORDS_PER_PAGE]
        .into_boxed_slice()
        .try_into()
        .expect("a page of words")
}

/// A contiguous RAM region, stored one page frame at a time.
///
/// Frame `i` holds the physical page `page_base(base) + i * PAGE_SIZE`;
/// an absent frame reads as zero. Only a non-zero store allocates one, so
/// a region holds exactly the pages ever written with non-zero data.
#[derive(Clone, Debug)]
struct Region {
    base: Addr,
    len_bytes: u32,
    frames: Vec<Option<Frame>>,
    /// Per-frame code-watch flags (see [`PhysMem::watch_code_page`]).
    watched: Vec<bool>,
    /// Secure regions are invisible to non-secure accesses.
    secure: bool,
}

impl Region {
    fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && (addr - self.base) < self.len_bytes
    }

    /// Frame index and word index within the frame of word `addr`.
    #[inline]
    fn slot(&self, addr: Addr) -> (usize, usize) {
        let frame = (page_base(addr) - page_base(self.base)) / PAGE_SIZE;
        let word = page_offset(addr) / WORD_BYTES;
        (frame as usize, word as usize)
    }

    #[inline]
    fn word(&self, addr: Addr) -> Word {
        let (f, w) = self.slot(addr);
        self.frames[f].as_ref().map_or(0, |frame| frame[w])
    }
}

/// Contents equality: an absent frame equals an all-zero one, so a page
/// written and then zeroed back equals a page never written.
impl PartialEq for Region {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base
            && self.len_bytes == other.len_bytes
            && self.secure == other.secure
            && self
                .frames
                .iter()
                .zip(&other.frames)
                .all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => a == b,
                    (Some(f), None) | (None, Some(f)) => **f == ZERO_FRAME,
                    (None, None) => true,
                })
    }
}

fn region_for(regions: &[Region], addr: Addr) -> Option<&Region> {
    regions.iter().find(|r| r.contains(addr))
}

/// Physical memory: a set of disjoint RAM regions plus access counters.
#[derive(Clone, Debug)]
pub struct PhysMem {
    regions: Vec<Region>,
    /// Number of word reads since construction (cycle accounting input).
    pub reads: u64,
    /// Number of word writes since construction.
    pub writes: u64,
    /// `(region, frame)` of every page whose decoded contents the fetch
    /// accelerator holds — the frames whose `watched` flag is set, kept
    /// so that clearing touches only them. Host-side state, not part of
    /// the architectural memory contents.
    watch_list: Vec<(usize, usize)>,
    /// Generation counter bumped by every write into a watched page; the
    /// accelerator compares it to detect stale decoded code.
    code_gen: u64,
}

/// Architectural equality: region contents and access counters. The code
/// watch is host-side accelerator bookkeeping and deliberately excluded —
/// two machines that executed identically compare equal regardless of
/// whether the fetch accelerator was on. Frame residency is excluded too:
/// an absent frame equals an all-zero one.
impl PartialEq for PhysMem {
    fn eq(&self, other: &Self) -> bool {
        self.regions == other.regions && self.reads == other.reads && self.writes == other.writes
    }
}

impl PhysMem {
    /// An empty physical address space.
    pub fn new() -> PhysMem {
        PhysMem {
            regions: Vec::new(),
            reads: 0,
            writes: 0,
            watch_list: Vec::new(),
            code_gen: 0,
        }
    }

    /// Adds a zero-initialised RAM region. No page frame is allocated
    /// until the region is first written with non-zero data.
    ///
    /// # Panics
    ///
    /// Panics if the region is unaligned, empty, overflows the address
    /// space, or overlaps an existing region — these are platform
    /// construction errors, not runtime conditions.
    pub fn add_region(&mut self, base: Addr, size: u32, secure: bool) {
        assert!(word_aligned(base) && word_aligned(size) && size > 0);
        assert!(base.checked_add(size - 1).is_some(), "region overflow");
        for r in &self.regions {
            let r_end = r.base as u64 + r.len_bytes as u64;
            let end = base as u64 + size as u64;
            assert!(
                (base as u64) >= r_end || end <= r.base as u64,
                "region overlap"
            );
        }
        let nframes = ((page_base(base + (size - 1)) - page_base(base)) / PAGE_SIZE + 1) as usize;
        self.regions.push(Region {
            base,
            len_bytes: size,
            frames: vec![None; nframes],
            watched: vec![false; nframes],
            secure,
        });
    }

    /// Zeroes every region's contents by dropping all page frames, and
    /// resets the access counters and code watch — the memory half of
    /// the fast re-boot path. A reset memory is indistinguishable
    /// (contents, counters, equality, resident frames) from one freshly
    /// built with the same [`PhysMem::add_region`] calls. The code
    /// generation stays monotone so any decode cache still holding
    /// pre-reset contents observes a bump.
    pub fn reset_contents(&mut self) {
        self.clear_code_watch();
        for r in &mut self.regions {
            r.frames.fill(None);
        }
        self.reads = 0;
        self.writes = 0;
        self.code_gen = self.code_gen.wrapping_add(1);
    }

    /// Number of page frames currently allocated across all regions — a
    /// host-side footprint probe. Architecturally invisible: an absent
    /// frame reads as zero.
    pub fn resident_pages(&self) -> usize {
        self.regions
            .iter()
            .map(|r| r.frames.iter().filter(|f| f.is_some()).count())
            .sum()
    }

    /// Every allocated page frame, as `(physical page base, contents)`,
    /// in region order and then address order. An observer's view: it
    /// bumps no access counter and checks no bus attribute. Pages it does
    /// not yield read as zero, and a yielded frame may itself be all zero
    /// (written, then zeroed back), so a digest over it should skip zero
    /// frames to keep the meaning of memory equality.
    pub fn resident_frames(&self) -> impl Iterator<Item = (Addr, &[Word; WORDS_PER_PAGE])> {
        self.regions.iter().flat_map(|r| {
            let first = page_base(r.base);
            r.frames.iter().enumerate().filter_map(move |(i, f)| {
                f.as_deref()
                    .map(|frame| (first + i as u32 * PAGE_SIZE, frame))
            })
        })
    }

    /// Whether `addr` lies in a secure region.
    pub fn is_secure(&self, addr: Addr) -> bool {
        region_for(&self.regions, addr).is_some_and(|r| r.secure)
    }

    /// Whether `addr` is backed by RAM at all.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        region_for(&self.regions, addr).is_some()
    }

    /// Reads the word at physical address `addr` with bus attributes
    /// `attrs`, enforcing TrustZone partitioning.
    #[inline]
    pub fn read(&mut self, addr: Addr, attrs: AccessAttrs) -> Result<Word, MemFault> {
        if !word_aligned(addr) {
            return Err(MemFault::new(addr, MemFaultKind::Unaligned, false));
        }
        let Some(r) = region_for(&self.regions, addr) else {
            return Err(MemFault::new(addr, MemFaultKind::Unmapped, false));
        };
        if r.secure && !attrs.secure {
            return Err(MemFault::new(addr, MemFaultKind::SecurityViolation, false));
        }
        self.reads += 1;
        Ok(r.word(addr))
    }

    /// Observer read: the word at `addr` if word-aligned and RAM-backed,
    /// without bumping the access counters or enforcing bus attributes.
    /// For host-side observers only (e.g. the flight recorder assembling
    /// a page-DB transition event) — architectural accesses must use
    /// [`PhysMem::read`] so the counters and TrustZone checks apply.
    pub fn peek(&self, addr: Addr) -> Option<Word> {
        if !word_aligned(addr) {
            return None;
        }
        region_for(&self.regions, addr).map(|r| r.word(addr))
    }

    /// Writes the word at physical address `addr`. Storing zero into an
    /// absent frame counts, and invalidates decoded code like any other
    /// store, but allocates nothing.
    #[inline]
    pub fn write(&mut self, addr: Addr, val: Word, attrs: AccessAttrs) -> Result<(), MemFault> {
        if !word_aligned(addr) {
            return Err(MemFault::new(addr, MemFaultKind::Unaligned, true));
        }
        let Some(r) = self.regions.iter_mut().find(|r| r.contains(addr)) else {
            return Err(MemFault::new(addr, MemFaultKind::Unmapped, true));
        };
        if r.secure && !attrs.secure {
            return Err(MemFault::new(addr, MemFaultKind::SecurityViolation, true));
        }
        self.writes += 1;
        let (f, w) = r.slot(addr);
        match &mut r.frames[f] {
            Some(frame) => frame[w] = val,
            absent if val != 0 => absent.insert(zero_frame())[w] = val,
            None => {}
        }
        if r.watched[f] {
            self.code_gen = self.code_gen.wrapping_add(1);
        }
        Ok(())
    }

    /// Records `n` word reads in one batch — the micro-op runner's
    /// accounting for the instruction fetches its trace replays, each of
    /// which the uncached path would have performed as a counted
    /// [`PhysMem::read`].
    #[inline]
    pub(crate) fn note_reads(&mut self, n: u64) {
        self.reads += n;
    }

    /// Registers the page at `page` (a page base) for write monitoring on
    /// behalf of the fetch accelerator: any subsequent write into it bumps
    /// [`PhysMem::code_gen`]. The page must be one
    /// [`PhysMem::code_page_snapshot`] served, so it lies wholly inside one
    /// region and one frame.
    pub(crate) fn watch_code_page(&mut self, page: Addr) {
        debug_assert!(self.code_page_snapshot(page).is_some());
        let ri = self
            .regions
            .iter()
            .position(|r| r.contains(page))
            .expect("a snapshotted page is RAM-backed");
        let r = &mut self.regions[ri];
        let (f, _) = r.slot(page);
        if !r.watched[f] {
            r.watched[f] = true;
            self.watch_list.push((ri, f));
        }
    }

    /// Drops all watched pages (the accelerator has dropped its copies).
    /// The generation counter is left monotone.
    pub(crate) fn clear_code_watch(&mut self) {
        for (ri, f) in self.watch_list.drain(..) {
            self.regions[ri].watched[f] = false;
        }
    }

    /// Current code-page write generation (see [`PhysMem::watch_code_page`]).
    #[inline]
    pub(crate) fn code_gen(&self) -> u64 {
        self.code_gen
    }

    /// Raw snapshot of one fully-RAM-backed page for decode-cache fill:
    /// the page's words and whether its region is secure. An absent frame
    /// is served from one static zero page. Bypasses the access counters
    /// and attribute checks — callers must re-impose both (the accelerator
    /// does) to stay architecturally invisible.
    pub(crate) fn code_page_snapshot(&self, page: Addr) -> Option<(&[Word], bool)> {
        debug_assert!(page_aligned(page));
        let r = region_for(&self.regions, page)?;
        if r.len_bytes - (page - r.base) < PAGE_SIZE {
            return None; // Page straddles the region end; stay uncached.
        }
        let words = match &r.frames[r.slot(page).0] {
            Some(frame) => &frame[..],
            None => &ZERO_FRAME[..],
        };
        Some((words, r.secure))
    }

    /// Reads a byte (for guest `LDRB`); the containing word is read and the
    /// byte extracted little-endian, as on ARM.
    pub fn read_byte(&mut self, addr: Addr, attrs: AccessAttrs) -> Result<u8, MemFault> {
        let w = self.read(addr & !3, attrs)?;
        Ok((w >> ((addr & 3) * 8)) as u8)
    }

    /// Writes a byte (for guest `STRB`) with read-modify-write of the word.
    pub fn write_byte(&mut self, addr: Addr, val: u8, attrs: AccessAttrs) -> Result<(), MemFault> {
        let aligned = addr & !3;
        let w = self.read(aligned, attrs)?;
        let shift = (addr & 3) * 8;
        let nw = (w & !(0xffu32 << shift)) | ((val as u32) << shift);
        self.write(aligned, nw, attrs)
    }

    /// The region a bulk access of `n` words at `addr` may take in one
    /// step: `addr` is word-aligned, the whole range lies in that one
    /// region, and `attrs` pass its TrustZone check. `None` means some
    /// word of the range would fault, or lies in another region.
    fn bulk_region(&self, addr: Addr, n: usize, attrs: AccessAttrs) -> Option<usize> {
        if !word_aligned(addr) {
            return None;
        }
        let ri = self.regions.iter().position(|r| r.contains(addr))?;
        let r = &self.regions[ri];
        let fits =
            u64::from(addr - r.base) + n as u64 * u64::from(WORD_BYTES) <= u64::from(r.len_bytes);
        (fits && (!r.secure || attrs.secure)).then_some(ri)
    }

    /// Reads `out.len()` consecutive words starting at `addr`, exactly as
    /// that many [`PhysMem::read`]s in address order would: the same
    /// words, the same `reads` count, and on a fault the same first
    /// fault, with the words before it already in `out`. A range that
    /// lies in one region and passes its TrustZone check takes one region
    /// lookup, one check and one counter bump; any other range runs the
    /// per-word loop.
    pub fn read_words(
        &mut self,
        addr: Addr,
        out: &mut [Word],
        attrs: AccessAttrs,
    ) -> Result<(), MemFault> {
        let Some(ri) = self.bulk_region(addr, out.len(), attrs) else {
            for (i, o) in out.iter_mut().enumerate() {
                *o = self.read(addr.wrapping_add(i as u32 * WORD_BYTES), attrs)?;
            }
            return Ok(());
        };
        let r = &self.regions[ri];
        for (at, n) in chunks_by_frame(addr, out.len()) {
            let (f, w) = r.slot(addr + at as u32 * WORD_BYTES);
            let chunk = &mut out[at..at + n];
            match &r.frames[f] {
                Some(frame) => chunk.copy_from_slice(&frame[w..w + n]),
                None => chunk.fill(0),
            }
        }
        self.reads += out.len() as u64;
        Ok(())
    }

    /// Writes `words` to consecutive words starting at `addr`, exactly as
    /// that many [`PhysMem::write`]s in address order would: the same
    /// contents, resident frames and `writes` count, and on a fault the
    /// same first fault with the words before it written. The code
    /// generation moves if any watched frame was written. A range that
    /// lies in one region and passes its TrustZone check takes one region
    /// lookup, one check and one counter bump; any other range runs the
    /// per-word loop.
    pub fn write_words(
        &mut self,
        addr: Addr,
        words: &[Word],
        attrs: AccessAttrs,
    ) -> Result<(), MemFault> {
        let Some(ri) = self.bulk_region(addr, words.len(), attrs) else {
            for (i, &w) in words.iter().enumerate() {
                self.write(addr.wrapping_add(i as u32 * WORD_BYTES), w, attrs)?;
            }
            return Ok(());
        };
        let r = &mut self.regions[ri];
        let mut watched = false;
        for (at, n) in chunks_by_frame(addr, words.len()) {
            let (f, w) = r.slot(addr + at as u32 * WORD_BYTES);
            let chunk = &words[at..at + n];
            match &mut r.frames[f] {
                Some(frame) => frame[w..w + n].copy_from_slice(chunk),
                absent if chunk.iter().any(|&v| v != 0) => {
                    absent.insert(zero_frame())[w..w + n].copy_from_slice(chunk)
                }
                None => {}
            }
            watched |= r.watched[f];
        }
        self.writes += words.len() as u64;
        if watched {
            self.code_gen = self.code_gen.wrapping_add(1);
        }
        Ok(())
    }

    /// Copies `words.len()` words into memory starting at `addr` (loader
    /// and test convenience; monitor-attributed).
    pub fn load_words(&mut self, addr: Addr, words: &[Word]) -> Result<(), MemFault> {
        self.write_words(addr, words, AccessAttrs::MONITOR)
    }

    /// Reads `n` words starting at `addr` (test convenience).
    pub fn dump_words(&mut self, addr: Addr, n: usize) -> Result<Vec<Word>, MemFault> {
        let mut out = vec![0; n];
        self.read_words(addr, &mut out, AccessAttrs::MONITOR)?;
        Ok(out)
    }
}

/// Splits `n` words starting at the word-aligned `addr` at page-frame
/// boundaries, as `(index of the chunk's first word, chunk length)`.
fn chunks_by_frame(addr: Addr, n: usize) -> impl Iterator<Item = (usize, usize)> {
    let first = WORDS_PER_PAGE - (page_offset(addr) / WORD_BYTES) as usize;
    let mut at = 0;
    std::iter::from_fn(move || {
        (at < n).then(|| {
            let len = if at == 0 { first } else { WORDS_PER_PAGE }.min(n - at);
            at += len;
            (at - len, len)
        })
    })
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMem {
        let mut m = PhysMem::new();
        m.add_region(0x0000_0000, 0x1_0000, false);
        m.add_region(0x8000_0000, 0x1_0000, true);
        m
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write(0x100, 0xdeadbeef, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.read(0x100, AccessAttrs::NORMAL).unwrap(), 0xdeadbeef);
    }

    #[test]
    fn normal_world_blocked_from_secure() {
        let mut m = mem();
        m.write(0x8000_0000, 7, AccessAttrs::MONITOR).unwrap();
        let err = m.read(0x8000_0000, AccessAttrs::NORMAL).unwrap_err();
        assert_eq!(err.kind, MemFaultKind::SecurityViolation);
        let err = m.write(0x8000_0004, 1, AccessAttrs::NORMAL).unwrap_err();
        assert_eq!(err.kind, MemFaultKind::SecurityViolation);
        // The secret is untouched.
        assert_eq!(m.read(0x8000_0000, AccessAttrs::MONITOR).unwrap(), 7);
    }

    #[test]
    fn enclave_attrs_reach_secure() {
        let mut m = mem();
        m.write(0x8000_0000, 9, AccessAttrs::ENCLAVE).unwrap();
        assert_eq!(m.read(0x8000_0000, AccessAttrs::ENCLAVE).unwrap(), 9);
    }

    #[test]
    fn unmapped_and_unaligned_fault() {
        let mut m = mem();
        assert_eq!(
            m.read(0x4000_0000, AccessAttrs::MONITOR).unwrap_err().kind,
            MemFaultKind::Unmapped
        );
        assert_eq!(
            m.read(0x102, AccessAttrs::MONITOR).unwrap_err().kind,
            MemFaultKind::Unaligned
        );
    }

    #[test]
    fn byte_access_little_endian() {
        let mut m = mem();
        m.write(0x200, 0x0403_0201, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.read_byte(0x200, AccessAttrs::NORMAL).unwrap(), 0x01);
        assert_eq!(m.read_byte(0x203, AccessAttrs::NORMAL).unwrap(), 0x04);
        m.write_byte(0x201, 0xff, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.read(0x200, AccessAttrs::NORMAL).unwrap(), 0x0403_ff01);
    }

    #[test]
    fn access_counters_increment() {
        let mut m = mem();
        let r0 = m.reads;
        let w0 = m.writes;
        m.write(0x100, 1, AccessAttrs::NORMAL).unwrap();
        m.read(0x100, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.reads, r0 + 1);
        assert_eq!(m.writes, w0 + 1);
        // Faulting accesses do not count.
        let _ = m.read(0x8000_0000, AccessAttrs::NORMAL);
        assert_eq!(m.reads, r0 + 1);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_rejected() {
        let mut m = PhysMem::new();
        m.add_region(0, 0x1000, false);
        m.add_region(0x800, 0x1000, false);
    }

    #[test]
    fn load_dump_roundtrip() {
        let mut m = mem();
        m.load_words(0x400, &[1, 2, 3]).unwrap();
        assert_eq!(m.dump_words(0x400, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn code_watch_generation_tracks_writes_into_watched_pages() {
        let mut m = mem();
        assert_eq!(m.code_gen(), 0);
        m.write(0x1000, 1, AccessAttrs::NORMAL).unwrap(); // Unwatched.
        assert_eq!(m.code_gen(), 0);
        m.watch_code_page(0x1000);
        m.write(0x1ffc, 2, AccessAttrs::NORMAL).unwrap(); // Same page.
        assert_eq!(m.code_gen(), 1);
        m.write_byte(0x1003, 0xab, AccessAttrs::NORMAL).unwrap(); // RMW path.
        assert_eq!(m.code_gen(), 2);
        m.write(0x2000, 3, AccessAttrs::NORMAL).unwrap(); // Next page.
        assert_eq!(m.code_gen(), 2);
        m.clear_code_watch();
        m.write(0x1000, 4, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.code_gen(), 2, "cleared watch must stop bumping");
    }

    #[test]
    fn code_page_snapshot_is_raw_and_bounded() {
        let mut m = mem();
        m.write(0x1004, 42, AccessAttrs::NORMAL).unwrap();
        let r0 = m.reads;
        let (words, secure) = m.code_page_snapshot(0x1000).unwrap();
        assert_eq!(words.len(), WORDS_PER_PAGE);
        assert_eq!(words[1], 42);
        assert!(!secure);
        assert!(m.code_page_snapshot(0x8000_0000).unwrap().1);
        assert_eq!(m.reads, r0, "snapshots must not count as reads");
        assert!(m.code_page_snapshot(0x4000_0000).is_none());
    }

    #[test]
    fn peek_is_counter_free_and_attribute_blind() {
        let mut m = mem();
        m.write(0x1004, 42, AccessAttrs::NORMAL).unwrap();
        let (r0, w0) = (m.reads, m.writes);
        assert_eq!(m.peek(0x1004), Some(42));
        assert_eq!(m.peek(0x8000_0000), Some(0), "secure RAM is peekable");
        assert_eq!(m.peek(0x1002), None, "unaligned");
        assert_eq!(m.peek(0x4000_0000), None, "unmapped");
        assert_eq!((m.reads, m.writes), (r0, w0), "peek must not count");
    }

    #[test]
    fn only_non_zero_stores_allocate_frames() {
        let mut m = mem();
        assert_eq!(m.resident_pages(), 0, "regions start with no frames");
        m.write(0x1000, 0, AccessAttrs::NORMAL).unwrap();
        m.write_byte(0x8000_0003, 0, AccessAttrs::MONITOR).unwrap();
        assert_eq!(m.resident_pages(), 0, "zero stores allocate nothing");
        assert_eq!(m.writes, 2, "but they count");
        m.write(0x1ffc, 5, AccessAttrs::NORMAL).unwrap();
        m.write(0x1000, 6, AccessAttrs::NORMAL).unwrap(); // Same frame.
        m.write_byte(0x8000_2001, 7, AccessAttrs::MONITOR).unwrap();
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.peek(0x1ffc), Some(5));
        assert_eq!(m.peek(0x8000_2000), Some(0x700));
        assert_eq!(m.peek(0x8000_3000), Some(0), "absent frames read zero");
        m.reset_contents();
        assert_eq!(m.resident_pages(), 0, "reset drops every frame");
        assert_eq!(m.peek(0x1ffc), Some(0));
        assert_eq!(m, mem(), "a reset memory equals a fresh one");
    }

    #[test]
    fn watched_absent_frame_bumps_on_zero_and_non_zero_stores() {
        let mut m = mem();
        let (words, _) = m.code_page_snapshot(0x2000).unwrap();
        assert!(words.iter().all(|&w| w == 0), "served from the zero page");
        m.watch_code_page(0x2000);
        m.write(0x2000, 0, AccessAttrs::NORMAL).unwrap();
        assert_eq!((m.code_gen(), m.resident_pages()), (1, 0));
        m.write(0x2004, 3, AccessAttrs::NORMAL).unwrap();
        assert_eq!((m.code_gen(), m.resident_pages()), (2, 1));
        m.reset_contents();
        assert_eq!(m.code_gen(), 3, "reset keeps the generation monotone");
        m.write(0x2004, 3, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.code_gen(), 3, "reset clears the watch");
    }

    #[test]
    fn unaligned_region_frames_follow_physical_pages() {
        // A region may start and end mid-page: its frames still cover
        // whole physical pages, and only a wholly-covered page snapshots.
        let mut m = PhysMem::new();
        m.add_region(0x4000_0800, 0x2000, false); // ..0x4000_2800.
        m.write(0x4000_0ffc, 1, AccessAttrs::NORMAL).unwrap();
        m.write(0x4000_1000, 2, AccessAttrs::NORMAL).unwrap();
        m.write(0x4000_27fc, 3, AccessAttrs::NORMAL).unwrap();
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.dump_words(0x4000_0ffc, 2).unwrap(), vec![1, 2]);
        assert_eq!(m.peek(0x4000_27fc), Some(3));
        assert_eq!(m.peek(0x4000_2800), None);
        assert_eq!(m.peek(0x4000_07fc), None);
        assert!(m.code_page_snapshot(0x4000_0000).is_none());
        assert_eq!(m.code_page_snapshot(0x4000_1000).unwrap().0[0], 2);
        assert!(m.code_page_snapshot(0x4000_2000).is_none());
    }

    #[test]
    fn equality_ignores_code_watch_state() {
        let mut a = mem();
        let mut b = mem();
        a.write(0x100, 9, AccessAttrs::NORMAL).unwrap();
        b.write(0x100, 9, AccessAttrs::NORMAL).unwrap();
        a.watch_code_page(0x1000);
        assert_eq!(a, b, "watch bookkeeping must be invisible to equality");
        b.write(0x104, 1, AccessAttrs::NORMAL).unwrap();
        assert_ne!(a, b);
    }
}
