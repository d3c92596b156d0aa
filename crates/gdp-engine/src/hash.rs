//! A small, fast, non-cryptographic hasher (FxHash-style).
//!
//! The engine hashes short keys — interned symbol ids, `(Sym, arity)` pairs,
//! small integers — on every indexed clause lookup. SipHash (the standard
//! library default) is overkill for these internal, attacker-free keys; the
//! multiply-rotate scheme below (the same recipe rustc uses) is markedly
//! faster on short integer keys. Implemented locally to avoid an extra
//! dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with the multiply-rotate `FxHasher` below.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with the multiply-rotate `FxHasher` below.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher specialized for short keys.
#[derive(Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn equal_keys_hash_equal() {
        fn h(bytes: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        }
        assert_eq!(h(b"elevation"), h(b"elevation"));
        assert_ne!(h(b"elevation"), h(b"vegetation"));
    }

    #[test]
    fn short_and_unaligned_inputs() {
        // Exercise the remainder path: inputs of every length 0..=16.
        let data = b"abcdefghijklmnop";
        let mut seen = FxHashSet::default();
        for len in 0..=data.len() {
            let mut hasher = FxHasher::default();
            hasher.write(&data[..len]);
            seen.insert(hasher.finish());
        }
        // All prefixes should hash distinctly (no accidental collisions for
        // this fixed input — a regression canary, not a universal property).
        assert_eq!(seen.len(), data.len() + 1);
    }
}
