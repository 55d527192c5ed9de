//! Fast hashing for per-packet state maps.
//!
//! Every packet the data plane scores touches several hash maps: the four
//! AfterImage aggregate maps, the flow table, the flow-label fold, HELAD's
//! per-channel smoothing history, and the shard's owned-flow set; every
//! evicted flow touches Slips' behaviour maps. `std::collections::HashMap`
//! hashes with SipHash-1-3, a keyed PRF that costs more than the lookup it
//! serves. This module swaps in the FxHash of the Rust compiler
//! (`rustc-hash`): [`FxHasher`] / [`FxBuildHasher`], and the std
//! collections over them, [`FxHashMap`] and [`FxHashSet`]. Every per-packet
//! map is one of those two.
//!
//! # What Fx gives up
//!
//! Fx is unkeyed, so it resists neither crafted collisions nor unbounded
//! key growth, and keys here come from header fields an attacker can
//! spoof. Only two of the maps are capped: `FlowTable`'s flow map by
//! `FlowTableConfig::max_flows`, and each of AfterImage's three entity maps
//! by `AfterImageConfig::max_entities`. The rest grow with every distinct
//! source key a spoofed flood mints: the assembler's label fold (bounded
//! only by its 10-minute label horizon times the key rate), the shard's
//! owned-flow set, HELAD's channel history and Slips' behaviour maps (never
//! pruned). Bounding them is the "bounded state under adversarial key
//! churn" item of `ROADMAP.md`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

/// Multiplier from the `rustc-hash` crate (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style hasher: one rotate + xor + multiply per 8-byte word.
///
/// Not cryptographic and not DoS-resistant (see module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The state with its high half folded onto its low half. The multiply
    /// carries entropy upward only, so a key that varies in a high byte of
    /// its last word (the host octet of an IPv4 address does) leaves the
    /// low bits constant — and `HashMap` picks a bucket from the low bits.
    /// The top 32 bits are untouched.
    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plugs into std collections.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A std `HashMap` hashed with [`FxHasher`]; create with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A std `HashSet` hashed with [`FxHasher`]; create with `default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes one value with [`FxHasher`].
#[inline]
pub fn fx_hash<T: Hash>(value: &T) -> u64 {
    FxBuildHasher.hash_one(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_hashmap_accepts_the_build_hasher() {
        let mut map: FxHashMap<u32, u32> = FxHashMap::default();
        map.insert(1, 2);
        assert_eq!(map.get(&1), Some(&2));
    }

    #[test]
    fn churn_compacts_in_place_without_losing_entries() {
        // A sliding window of live keys: every insert lands on a fresh key,
        // every removal leaves a tombstone, so the table must reclaim them
        // over and over. At constant load it must do so without growing.
        let mut map: FxHashMap<u64, u64> = FxHashMap::with_capacity_and_hasher(64, FxBuildHasher);
        let capacity = map.capacity();
        for i in 0..10_000u64 {
            assert_eq!(map.insert(i, i * 3), None);
            if i >= 20 {
                assert_eq!(map.remove(&(i - 20)), Some((i - 20) * 3));
            }
            for live in i.saturating_sub(19)..=i {
                assert_eq!(map.get(&live), Some(&(live * 3)), "key {live} lost at step {i}");
            }
            assert!(
                map.capacity() <= capacity,
                "churn at constant load grew the table at step {i}"
            );
        }
        assert_eq!(map.len(), 20);
    }
}
