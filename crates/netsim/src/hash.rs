//! In-tree FxHash-style hasher for hot-path lookup tables.
//!
//! The standard library's default `HashMap` hasher (SipHash-1-3) is
//! DoS-resistant but costs tens of cycles per lookup — wasted work for
//! simulator-internal tables whose keys are trusted integers (timer
//! tokens, flow ids). This is the classic multiply-rotate scheme used by
//! rustc's `FxHashMap`: one rotate, one xor and one multiply per word.
//!
//! The hasher has **no random state** (unlike `RandomState`), so a map's
//! bucket order — hence its drop order and the heap layout it leaves — is
//! the same in every process. No call site iterates a map for results.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-shot multiply-rotate hasher (FxHash scheme).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for c in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }
}

/// `HashMap` with the fast deterministic hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_and_is_deterministic() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..1000u64 {
                m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            }
            m
        };
        let m = build();
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m[&i.wrapping_mul(0x9E37_79B9_7F4A_7C15)], i);
        }
        // No random state: two maps built identically hash identically.
        let mut keys_a: Vec<_> = m.keys().copied().collect();
        let mut keys_b: Vec<_> = build().keys().copied().collect();
        keys_a.sort_unstable();
        keys_b.sort_unstable();
        assert_eq!(keys_a, keys_b);
    }

    #[test]
    fn distinct_words_rarely_collide() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<FxHasher> = Default::default();
        let mut hashes: Vec<u64> = (0..10_000u64).map(|i| bh.hash_one(i)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 10_000);
    }
}
