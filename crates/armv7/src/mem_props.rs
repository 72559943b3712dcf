//! `PhysMem` against a dense reference model.
//!
//! `PhysMem` stores each region as page frames that exist only once a
//! non-zero word lands in them. The model here is the layout it replaced:
//! one dense `Vec<Word>` per region, a set of watched page bases and
//! plain counters. Random sequences of word and byte accesses (zero and
//! non-zero values, secure and normal attributes, unmapped and unaligned
//! addresses), resets, and code-page watches run on both; after every
//! step the result or fault, both access counters, the code generation,
//! the resident frame count and the contents of every touched address
//! must agree.
//!
//! The bulk word ranges ([`PhysMem::read_words`], [`PhysMem::write_words`])
//! are checked against the per-word loop they stand for, run on a twin
//! memory: the result or first fault, the words read, both counters, the
//! contents, the resident frames and whether the code generation moved
//! must agree after every call.

use std::collections::BTreeSet;

use proptest::prelude::*;

use crate::error::{MemFault, MemFaultKind};
use crate::mem::{AccessAttrs, PhysMem};
use crate::word::{page_base, word_aligned, Addr, Word, PAGE_SIZE, WORD_BYTES};

/// `(base, size, secure)`: two page-aligned regions and one that starts
/// and ends mid-page, so frames and regions do not line up.
const REGIONS: [(Addr, u32, bool); 3] = [
    (0x0000_0000, 0x3000, false),
    (0x8000_0000, 0x3000, true),
    (0x4000_0800, 0x2000, false),
];

/// Address bases the generator offsets from: the regions' pages, plus a
/// range with no RAM at all.
const BASES: [Addr; 4] = [0x0000_0000, 0x8000_0000, 0x4000_0000, 0x2000_0000];

fn build() -> PhysMem {
    build_from(&REGIONS)
}

fn build_from(regions: &[(Addr, u32, bool)]) -> PhysMem {
    let mut m = PhysMem::new();
    for &(base, size, secure) in regions {
        m.add_region(base, size, secure);
    }
    m
}

/// The dense reference.
#[derive(Debug)]
struct Dense {
    words: Vec<Vec<Word>>,
    reads: u64,
    writes: u64,
    watched: BTreeSet<Addr>,
    code_gen: u64,
    /// Pages that took a non-zero store since the last reset: exactly the
    /// frames `PhysMem` may hold.
    written: BTreeSet<Addr>,
}

impl Dense {
    fn new() -> Dense {
        Dense {
            words: REGIONS
                .iter()
                .map(|&(_, size, _)| vec![0; (size / WORD_BYTES) as usize])
                .collect(),
            reads: 0,
            writes: 0,
            watched: BTreeSet::new(),
            code_gen: 0,
            written: BTreeSet::new(),
        }
    }

    /// Region index and word index of `addr`, if RAM-backed.
    fn locate(addr: Addr) -> Option<(usize, usize)> {
        REGIONS
            .iter()
            .enumerate()
            .find_map(|(i, &(base, size, _))| {
                (addr >= base && addr - base < size)
                    .then(|| (i, ((addr - base) / WORD_BYTES) as usize))
            })
    }

    fn check(addr: Addr, attrs: AccessAttrs, write: bool) -> Result<(usize, usize), MemFault> {
        if !word_aligned(addr) {
            return Err(MemFault::new(addr, MemFaultKind::Unaligned, write));
        }
        let (r, w) =
            Self::locate(addr).ok_or(MemFault::new(addr, MemFaultKind::Unmapped, write))?;
        if REGIONS[r].2 && !attrs.secure {
            return Err(MemFault::new(addr, MemFaultKind::SecurityViolation, write));
        }
        Ok((r, w))
    }

    fn read(&mut self, addr: Addr, attrs: AccessAttrs) -> Result<Word, MemFault> {
        let (r, w) = Self::check(addr, attrs, false)?;
        self.reads += 1;
        Ok(self.words[r][w])
    }

    fn write(&mut self, addr: Addr, val: Word, attrs: AccessAttrs) -> Result<(), MemFault> {
        let (r, w) = Self::check(addr, attrs, true)?;
        self.writes += 1;
        self.words[r][w] = val;
        if val != 0 {
            self.written.insert(page_base(addr));
        }
        if self.watched.contains(&page_base(addr)) {
            self.code_gen += 1;
        }
        Ok(())
    }

    fn read_byte(&mut self, addr: Addr, attrs: AccessAttrs) -> Result<u8, MemFault> {
        let w = self.read(addr & !3, attrs)?;
        Ok((w >> ((addr & 3) * 8)) as u8)
    }

    fn write_byte(&mut self, addr: Addr, val: u8, attrs: AccessAttrs) -> Result<(), MemFault> {
        let w = self.read(addr & !3, attrs)?;
        let shift = (addr & 3) * 8;
        self.write(
            addr & !3,
            (w & !(0xff << shift)) | ((val as u32) << shift),
            attrs,
        )
    }

    fn peek(&self, addr: Addr) -> Option<Word> {
        if !word_aligned(addr) {
            return None;
        }
        Self::locate(addr).map(|(r, w)| self.words[r][w])
    }

    /// The page's words and security if it lies wholly in one region.
    fn page(&self, page: Addr) -> Option<(&[Word], bool)> {
        let (r, w) = Self::locate(page)?;
        let (base, size, secure) = REGIONS[r];
        let words = (PAGE_SIZE / WORD_BYTES) as usize;
        (page - base + PAGE_SIZE <= size).then(|| (&self.words[r][w..w + words], secure))
    }

    fn reset(&mut self) {
        for r in &mut self.words {
            r.fill(0);
        }
        self.reads = 0;
        self.writes = 0;
        self.watched.clear();
        self.code_gen += 1;
        self.written.clear();
    }
}

#[derive(Clone, Debug)]
enum Op {
    Read(Addr, bool),
    Write(Addr, Word, bool),
    ReadByte(Addr, bool),
    WriteByte(Addr, u8, bool),
    /// Snapshot the page holding the address and, if that succeeds, watch
    /// it: the fetch accelerator's fill sequence.
    Watch(Addr),
    ClearWatch,
    Reset,
}

fn attrs(secure: bool) -> AccessAttrs {
    if secure {
        AccessAttrs::MONITOR
    } else {
        AccessAttrs::NORMAL
    }
}

fn arb_addr() -> impl Strategy<Value = Addr> {
    // Mostly word-aligned; one draw in four is a raw byte offset (three
    // quarters of those unaligned). Offsets run past the largest region
    // so region ends are probed too.
    let offset = prop_oneof![
        (0u32..0xd00).prop_map(|i| i * WORD_BYTES),
        (0u32..0xd00).prop_map(|i| i * WORD_BYTES),
        (0u32..0xd00).prop_map(|i| i * WORD_BYTES),
        0u32..0x3400,
    ];
    (0usize..BASES.len(), offset).prop_map(|(b, off)| BASES[b] + off)
}

fn arb_val() -> impl Strategy<Value = Word> {
    prop_oneof![Just(0u32), Just(0u32), any::<u32>()]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_addr(), any::<bool>()).prop_map(|(a, s)| Op::Read(a, s)),
        (arb_addr(), arb_val(), any::<bool>()).prop_map(|(a, v, s)| Op::Write(a, v, s)),
        (arb_addr(), arb_val(), any::<bool>()).prop_map(|(a, v, s)| Op::Write(a, v, s)),
        (arb_addr(), any::<bool>()).prop_map(|(a, s)| Op::ReadByte(a, s)),
        (arb_addr(), any::<u8>(), any::<bool>()).prop_map(|(a, v, s)| Op::WriteByte(a, v, s)),
        arb_addr().prop_map(Op::Watch),
        (0u8..8).prop_map(|k| if k == 0 { Op::Reset } else { Op::ClearWatch }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_memory_matches_dense_model(ops in proptest::collection::vec(arb_op(), 1..160)) {
        let mut m = build();
        let mut d = Dense::new();
        let mut touched = BTreeSet::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Read(a, s) => {
                    prop_assert_eq!(m.read(a, attrs(s)), d.read(a, attrs(s)), "step {i}: {op:?}");
                    touched.insert(a);
                }
                Op::Write(a, v, s) => {
                    prop_assert_eq!(m.write(a, v, attrs(s)), d.write(a, v, attrs(s)), "step {i}: {op:?}");
                    touched.insert(a);
                }
                Op::ReadByte(a, s) => {
                    prop_assert_eq!(m.read_byte(a, attrs(s)), d.read_byte(a, attrs(s)), "step {i}: {op:?}");
                    touched.insert(a & !3);
                }
                Op::WriteByte(a, v, s) => {
                    prop_assert_eq!(m.write_byte(a, v, attrs(s)), d.write_byte(a, v, attrs(s)), "step {i}: {op:?}");
                    touched.insert(a & !3);
                }
                Op::Watch(a) => {
                    let page = page_base(a);
                    let snap = m.code_page_snapshot(page).map(|(w, s)| (w.to_vec(), s));
                    let want = d.page(page).map(|(w, s)| (w.to_vec(), s));
                    prop_assert!(snap == want, "step {i}: snapshot of {page:#x} differs");
                    if snap.is_some() {
                        m.watch_code_page(page);
                        d.watched.insert(page);
                    }
                }
                Op::ClearWatch => {
                    m.clear_code_watch();
                    d.watched.clear();
                }
                Op::Reset => {
                    m.reset_contents();
                    d.reset();
                }
            }
            prop_assert_eq!((m.reads, m.writes), (d.reads, d.writes), "step {i}: {op:?}");
            prop_assert_eq!(m.code_gen(), d.code_gen, "step {i}: {op:?}");
            prop_assert_eq!(m.resident_pages(), d.written.len(), "step {i}: {op:?}");
            for &a in &touched {
                prop_assert_eq!(m.peek(a), d.peek(a), "step {i}: peek {a:#x}");
            }
        }
        // Equality is over contents, not residency: a memory rebuilt with
        // only the model's non-zero words (so frames zeroed back are
        // absent) and the same counters equals the one that ran.
        let mut fresh = build();
        for (r, &(base, _, _)) in REGIONS.iter().enumerate() {
            for (w, &val) in d.words[r].iter().enumerate() {
                if val != 0 {
                    fresh.write(base + w as u32 * WORD_BYTES, val, AccessAttrs::MONITOR).unwrap();
                }
            }
        }
        fresh.reads = m.reads;
        fresh.writes = m.writes;
        prop_assert!(fresh == m, "contents-equal memories must compare equal");
        prop_assert!(m.clone() == m);
        // Zeroing every word back leaves frames resident, yet the memory
        // equals one that was never written.
        for (r, &(base, _, _)) in REGIONS.iter().enumerate() {
            for (w, &val) in d.words[r].iter().enumerate() {
                if val != 0 {
                    m.write(base + w as u32 * WORD_BYTES, 0, AccessAttrs::MONITOR).unwrap();
                }
            }
        }
        let mut never = build();
        never.reads = m.reads;
        never.writes = m.writes;
        prop_assert!(never == m, "zeroed-back frames must equal absent ones");
        prop_assert!(m == never, "equality must be symmetric");
    }
}

#[test]
fn zeroed_back_page_equals_never_written() {
    let mut a = build();
    let mut b = build();
    for addr in [0x0ffc, 0x1000, 0x8000_2008, 0x4000_27fc] {
        a.write(addr, 0xdead_beef, AccessAttrs::MONITOR).unwrap();
        a.write(addr, 0, AccessAttrs::MONITOR).unwrap();
        b.write(addr, 0, AccessAttrs::MONITOR).unwrap();
        b.write(addr, 0, AccessAttrs::MONITOR).unwrap();
    }
    assert_eq!(a.resident_pages(), 4);
    assert_eq!(b.resident_pages(), 0);
    assert!(a == b, "an all-zero frame equals an absent one");
    assert!(b == a, "equality must be symmetric");
    b.write(0x1004, 1, AccessAttrs::MONITOR).unwrap();
    a.write(0x1004, 2, AccessAttrs::MONITOR).unwrap();
    assert!(a != b, "present frames still compare by content");
}

/// [`REGIONS`] plus a secure page right after the first normal region, so
/// a range can run off one region's end into the next.
const BULK_REGIONS: [(Addr, u32, bool); 4] = [
    REGIONS[0],
    REGIONS[1],
    REGIONS[2],
    (0x0000_3000, 0x1000, true),
];

#[derive(Clone, Debug)]
enum BulkOp {
    Read(Addr, usize, bool),
    /// `len` words from [`fill`]: all zero for `None`, else a seeded mix
    /// of zero and non-zero words.
    Write(Addr, usize, Option<u32>, bool),
    /// One non-zero store, so later ranges meet present frames.
    Poke(Addr, Word),
    Watch(Addr),
    ClearWatch,
}

fn fill(seed: Option<u32>, len: usize) -> Vec<Word> {
    let Some(seed) = seed else {
        return vec![0; len];
    };
    (0..len as u32)
        .map(|i| {
            let x = (seed ^ i).wrapping_mul(0x9e37_79b9).rotate_left(13);
            if x % 4 == 0 {
                0
            } else {
                x
            }
        })
        .collect()
}

fn arb_bulk_addr() -> impl Strategy<Value = Addr> {
    let offset = prop_oneof![
        // A few words short of a page boundary: the range crosses frames,
        // or runs off a region's end.
        (1u32..4, 0u32..24).prop_map(|(p, d)| p * PAGE_SIZE - d * WORD_BYTES),
        (0u32..0xd00).prop_map(|i| i * WORD_BYTES),
        0u32..0x3400,
    ];
    (0usize..BASES.len(), offset).prop_map(|(b, off)| BASES[b] + off)
}

fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..40, 1000usize..1100, 0usize..2600]
}

fn arb_bulk_op() -> impl Strategy<Value = BulkOp> {
    let seed = prop_oneof![Just(None), any::<u32>().prop_map(Some)];
    prop_oneof![
        (arb_bulk_addr(), arb_len(), any::<bool>()).prop_map(|(a, n, s)| BulkOp::Read(a, n, s)),
        (arb_bulk_addr(), arb_len(), seed, any::<bool>())
            .prop_map(|(a, n, f, s)| BulkOp::Write(a, n, f, s)),
        (arb_addr(), 1u32..u32::MAX).prop_map(|(a, v)| BulkOp::Poke(a & !3, v)),
        arb_addr().prop_map(BulkOp::Watch),
        Just(BulkOp::ClearWatch),
    ]
}

/// The per-word loop [`PhysMem::read_words`] stands for.
fn read_each(
    m: &mut PhysMem,
    addr: Addr,
    out: &mut [Word],
    attrs: AccessAttrs,
) -> Result<(), MemFault> {
    for (i, o) in out.iter_mut().enumerate() {
        *o = m.read(addr + i as u32 * WORD_BYTES, attrs)?;
    }
    Ok(())
}

/// The per-word loop [`PhysMem::write_words`] stands for.
fn write_each(
    m: &mut PhysMem,
    addr: Addr,
    words: &[Word],
    attrs: AccessAttrs,
) -> Result<(), MemFault> {
    for (i, &w) in words.iter().enumerate() {
        m.write(addr + i as u32 * WORD_BYTES, w, attrs)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bulk_ranges_match_the_per_word_loop(ops in proptest::collection::vec(arb_bulk_op(), 1..48)) {
        let mut bulk = build_from(&BULK_REGIONS);
        let mut each = build_from(&BULK_REGIONS);
        for (i, op) in ops.iter().enumerate() {
            let gens = (bulk.code_gen(), each.code_gen());
            match *op {
                BulkOp::Read(a, n, s) => {
                    // Pre-filled, so words a fault leaves unread compare too.
                    let (mut got, mut want) = (vec![!0; n], vec![!0; n]);
                    let r = bulk.read_words(a, &mut got, attrs(s));
                    prop_assert_eq!(r, read_each(&mut each, a, &mut want, attrs(s)), "step {i}: {op:?}");
                    prop_assert!(got == want, "step {i}: {op:?}: words read differ");
                }
                BulkOp::Write(a, n, seed, s) => {
                    let words = fill(seed, n);
                    let r = bulk.write_words(a, &words, attrs(s));
                    prop_assert_eq!(r, write_each(&mut each, a, &words, attrs(s)), "step {i}: {op:?}");
                }
                BulkOp::Poke(a, v) => {
                    let r = bulk.write(a, v, AccessAttrs::MONITOR);
                    prop_assert_eq!(r, each.write(a, v, AccessAttrs::MONITOR), "step {i}: {op:?}");
                }
                BulkOp::Watch(a) => {
                    let page = page_base(a);
                    if bulk.code_page_snapshot(page).is_some() {
                        bulk.watch_code_page(page);
                        each.watch_code_page(page);
                    }
                }
                BulkOp::ClearWatch => {
                    bulk.clear_code_watch();
                    each.clear_code_watch();
                }
            }
            prop_assert!(bulk == each, "step {i}: {op:?}: contents or counters differ");
            prop_assert_eq!((bulk.reads, bulk.writes), (each.reads, each.writes), "step {i}: {op:?}");
            prop_assert_eq!(bulk.resident_pages(), each.resident_pages(), "step {i}: {op:?}");
            prop_assert_eq!(
                bulk.code_gen() != gens.0,
                each.code_gen() != gens.1,
                "step {i}: {op:?}: code generation"
            );
        }
    }
}
