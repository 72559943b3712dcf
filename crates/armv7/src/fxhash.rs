//! A fast non-cryptographic hasher for the simulator's hot-path maps.
//!
//! The default `std` hasher (SipHash-1-3) is keyed and DoS-resistant, which
//! the TLB and decode-cache maps do not need: their keys are page-aligned
//! guest addresses produced by the simulated program, not attacker-chosen
//! host input, and lookups sit directly on the fetch path. This is the
//! multiply-xor scheme used by the Rust compiler's own tables ("FxHash"),
//! implemented locally because the build is hermetic (no crate registry).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the FxHash scheme (64-bit golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash state: one 64-bit word folded with rotate-xor-multiply.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u32(0x8000_2000);
        b.write_u32(0x8000_2000);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_pages() {
        let mut seen = std::collections::HashSet::new();
        for page in (0u32..64).map(|i| 0x8000_0000 + i * 0x1000) {
            let mut h = FxHasher::default();
            h.write_u32(page);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 64, "page-aligned keys must not collide");
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        m.insert(0x1000, 7);
        assert_eq!(m.get(&0x1000), Some(&7));
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3]); // Shorter than one 8-byte chunk.
        let short = h.finish();
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 0, 0, 0, 0, 0, 9]); // One full chunk plus a tail.
        assert_ne!(h.finish(), short);
    }
}
