//! A small Fx-style hasher for the crate's hot hash tables.
//!
//! The structural hash is probed on every AND construction, and the
//! resynthesis memo on every re-synthesised cut. Their keys are literal
//! indices this crate assigns in creation order and truth tables it
//! computes, never values read from input, so SipHash's resistance to
//! crafted collisions buys nothing there; this multiply-rotate hash (the
//! scheme rustc uses for its own tables) costs one multiply per word. No
//! table using it is ever iterated, so its order cannot leak into any
//! output.

use std::hash::{BuildHasherDefault, Hasher};

/// A `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate word hasher.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves the low bits weakest, and the table indexes
    /// buckets by the low bits, so the well-mixed high bits are rotated
    /// down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(x: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn equal_keys_hash_equal_and_order_matters() {
        assert_eq!(hash_of((3u32, 7u32)), hash_of((3u32, 7u32)));
        assert_ne!(hash_of((3u32, 7u32)), hash_of((7u32, 3u32)));
    }

    #[test]
    fn consecutive_literal_pairs_spread_over_low_bits() {
        // Strash keys are pairs of nearby literal indices; their hashes
        // must not pile up in a few buckets of a small table.
        let mut buckets = [0u32; 64];
        for a in 0..64u32 {
            for b in a..a + 16 {
                buckets[(hash_of((a, b)) & 63) as usize] += 1;
            }
        }
        let max = *buckets.iter().max().expect("non-empty");
        assert!(max < 3 * 16, "worst bucket holds {max} of 1024 keys");
    }
}
