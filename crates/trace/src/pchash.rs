//! A keyed, fast hasher for the per-record maps keyed by branch PC.
//!
//! Packing a trace, tabulating its sites and the two-pass and alias
//! analyses all look up a hash map once per dynamic branch, keyed by a
//! PC (or a PC and a counter id). The standard library's SipHash costs
//! more than everything else those loops do. [`PcBuildHasher`] is a
//! multiply–xorshift hash instead: one rotate, xor and multiply per
//! word, then a 64-bit finaliser so the low bits that pick a bucket
//! depend on every input bit (PCs are word-aligned, so their own low
//! bits are constant).
//!
//! **Why it is keyed.** `repro serve` packs traces whose PCs a client
//! chooses. With a fixed hash function a client could pick PCs that all
//! land in one bucket and turn every lookup into a linear scan. The key
//! is drawn once per process from [`RandomState`], so the bucket a PC
//! lands in cannot be predicted from outside.
//!
//! **Why no result depends on it.** The maps are only ever probed or
//! folded with order-independent sums: packed site ids are assigned in
//! first-seen order, [`site_table`](crate::site_table) sorts by PC, and
//! the analyses add up per-entry tallies. Iteration order, and so the
//! key, is invisible in every output.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Odd multiplier of the per-word mixing step (the 64-bit golden
/// ratio, as in Fibonacci hashing).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A [`HashMap`] hashed by [`PcBuildHasher`].
pub type PcMap<K, V> = HashMap<K, V, PcBuildHasher>;

/// The process-wide hash key, drawn from [`RandomState`] on first use.
fn process_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(MIX))
}

/// Builds [`PcHasher`]s seeded with the process-wide key.
///
/// ```
/// use bpred_trace::pchash::PcMap;
///
/// let mut sites: PcMap<u64, u32> = PcMap::default();
/// sites.insert(0x4000, 0);
/// assert_eq!(sites.get(&0x4000), Some(&0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PcBuildHasher {
    key: u64,
}

impl Default for PcBuildHasher {
    fn default() -> Self {
        Self { key: process_key() }
    }
}

impl BuildHasher for PcBuildHasher {
    type Hasher = PcHasher;

    fn build_hasher(&self) -> PcHasher {
        PcHasher { state: self.key }
    }
}

/// The multiply–xorshift hasher behind [`PcMap`]. Over a single `u64`
/// it is a bijection, so two distinct PCs never share a full hash.
#[derive(Debug, Clone, Copy)]
pub struct PcHasher {
    state: u64,
}

impl Hasher for PcHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.state = (self.state.rotate_left(23) ^ value).wrapping_mul(MIX);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The murmur3 64-bit finaliser: every output bit depends on
        // every input bit.
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_one(key: u64, value: u64) -> u64 {
        PcBuildHasher { key }.hash_one(value)
    }

    #[test]
    fn the_key_is_fixed_for_the_process() {
        assert_eq!(PcBuildHasher::default().key, PcBuildHasher::default().key);
        let a = PcBuildHasher::default().hash_one(0x4000u64);
        assert_eq!(a, PcBuildHasher::default().hash_one(0x4000u64));
    }

    #[test]
    fn the_key_changes_the_hash() {
        assert_ne!(hash_one(1, 0x4000), hash_one(2, 0x4000));
    }

    #[test]
    fn aligned_pcs_spread_over_the_low_bits() {
        // Word-aligned PCs of one small loop nest must not pile into a
        // few buckets of a 256-bucket table.
        let mut buckets = [0u32; 256];
        for i in 0..4096u64 {
            buckets[(hash_one(7, 0x40_0000 + i * 4) & 255) as usize] += 1;
        }
        let fullest = buckets.iter().copied().max().unwrap();
        assert!(fullest < 40, "fullest of 256 buckets holds {fullest}");
    }

    #[test]
    fn byte_writes_fold_whole_words() {
        let mut words = PcBuildHasher { key: 9 }.build_hasher();
        words.write_u64(0x0102_0304_0506_0708);
        let mut bytes = PcBuildHasher { key: 9 }.build_hasher();
        bytes.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn maps_keyed_by_pc_and_counter_work() {
        let mut m: PcMap<(u64, usize), u32> = PcMap::default();
        *m.entry((0x100, 3)).or_default() += 1;
        *m.entry((0x100, 3)).or_default() += 1;
        *m.entry((0x100, 4)).or_default() += 1;
        assert_eq!(m.len(), 2);
        assert_eq!(m[&(0x100, 3)], 2);
    }
}
