//! Memoised page measurement.
//!
//! `MapSecure` extends an enclave's measurement with a whole page: 64
//! SHA-256 compressions from the address space's running hash. A service
//! loads the same image over and over, so the same page is absorbed from
//! the same running hash on every request. This memo keeps the results of
//! the most recent such compressions, per thread (a fleet shard is one
//! thread, so no lock is needed), keyed by the running hash and every word
//! of the page. A candidate is found by a 64-bit hash of that key and then
//! checked word for word against it, so a hit returns exactly what
//! [`Sha256::compress_words`] returns. The monitor charges the same
//! simulated cycles and writes the same state either way: the memo is
//! host time only.
//!
//! Clients predicting a measurement (`komodo_spec::measure::Measurement`,
//! `komodo::measure_image`) do not use it, so the refinement tests and
//! every quote check compare the monitor against an independent hash.

use std::cell::RefCell;

use komodo_armv7::word::WORDS_PER_PAGE;
use komodo_crypto::sha256::Sha256;

/// Entries kept per thread: 4 KiB of page each, so 64 KiB in all. An
/// image measures a few pages (the notary and the RA enclave three each).
pub(crate) const CAPACITY: usize = 16;

/// One remembered compression: `state` absorbing `page` gives `out`.
struct Entry {
    hash: u64,
    state: [u32; 8],
    page: Box<[u32; WORDS_PER_PAGE]>,
    out: [u32; 8],
    last_use: u64,
}

#[derive(Default)]
struct Memo {
    entries: Vec<Entry>,
    clock: u64,
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
}

/// Absorbs `page` into the running hash `h`, with the result of
/// `Sha256::compress_words(h, page)`.
pub(crate) fn compress_page(h: &mut [u32; 8], page: &[u32; WORDS_PER_PAGE]) {
    MEMO.with_borrow_mut(|memo| memo.compress(h, page));
}

impl Memo {
    fn compress(&mut self, h: &mut [u32; 8], page: &[u32; WORDS_PER_PAGE]) {
        self.clock += 1;
        let hash = key_hash(h, page);
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.state == *h && *e.page == *page)
        {
            e.last_use = self.clock;
            *h = e.out;
            return;
        }
        let state = *h;
        Sha256::compress_words(h, page);
        if self.entries.len() < CAPACITY {
            self.entries.push(Entry {
                hash,
                state,
                page: Box::new(*page),
                out: *h,
                last_use: self.clock,
            });
            return;
        }
        let e = self
            .entries
            .iter_mut()
            .min_by_key(|e| e.last_use)
            .expect("a full table has entries");
        e.hash = hash;
        e.state = state;
        e.page.copy_from_slice(page);
        e.out = *h;
        e.last_use = self.clock;
    }
}

/// A 64-bit hash of the key: four independent multiply-rotate lanes over
/// the state and the page, two words per step.
fn key_hash(state: &[u32; 8], page: &[u32; WORDS_PER_PAGE]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lanes = [0u64; 4];
    for block in state.chunks_exact(8).chain(page.chunks_exact(8)) {
        for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            let v = u64::from(pair[0]) | u64::from(pair[1]) << 32;
            *lane = (*lane ^ v).wrapping_mul(K).rotate_left(29);
        }
    }
    lanes
        .iter()
        .fold(0, |acc, &l| (acc ^ l).wrapping_mul(K).rotate_left(29))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(seed: u32) -> Box<[u32; WORDS_PER_PAGE]> {
        let mut p = Box::new([0u32; WORDS_PER_PAGE]);
        for (i, w) in p.iter_mut().enumerate() {
            *w = (seed ^ i as u32).wrapping_mul(0x9e37_79b9).rotate_left(7);
        }
        p
    }

    /// `compress_page` from `h`, checked against the plain compression.
    fn check(h: [u32; 8], p: &[u32; WORDS_PER_PAGE]) {
        let (mut got, mut want) = (h, h);
        compress_page(&mut got, p);
        Sha256::compress_words(&mut want, p);
        assert_eq!(got, want, "memoised compression differs");
    }

    #[test]
    fn one_page_under_two_running_states() {
        let p = page(1);
        let mut other = komodo_crypto::sha256::H0;
        other[7] ^= 1;
        for _ in 0..2 {
            check(komodo_crypto::sha256::H0, &p);
            check(other, &p);
        }
    }

    #[test]
    fn pages_differing_in_one_word() {
        let base = page(2);
        let h = komodo_crypto::sha256::H0;
        check(h, &base);
        for at in [0, WORDS_PER_PAGE / 2, WORDS_PER_PAGE - 1] {
            let mut p = base.clone();
            p[at] ^= 0x8000_0000;
            check(h, &p);
            check(h, &base);
        }
    }

    #[test]
    fn more_keys_than_the_table_holds() {
        let pages: Vec<_> = (0..3 * CAPACITY as u32).map(page).collect();
        let mut h = komodo_crypto::sha256::H0;
        for round in 0..3u32 {
            for p in &pages {
                check(h, p);
            }
            // Revisit a window that fits, then one that does not.
            for p in pages.iter().take(CAPACITY).chain(&pages) {
                check(h, p);
            }
            h[round as usize] = h[round as usize].wrapping_add(1);
        }
    }
}
