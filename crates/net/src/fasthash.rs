//! Fast hashing for per-packet state maps.
//!
//! Every packet the data plane scores touches several hash maps: the four
//! AfterImage aggregate maps, the flow table, the flow-label fold, and (for
//! HELAD) the per-channel smoothing history. `std::collections::HashMap`
//! hashes with SipHash-1-3 — a keyed PRF whose DoS resistance this
//! workload does not need (keys are derived from already-parsed header
//! fields, and every map is bounded by an explicit entity budget, not by
//! attacker-controlled growth). This module provides the two pieces that
//! take SipHash off the per-packet path:
//!
//! * [`FxHasher`] / [`FxBuildHasher`] — the multiply-fold hash used by the
//!   Rust compiler itself (`rustc-hash`): one rotate, one xor, one multiply
//!   per word. Usable directly with std collections:
//!   `HashMap::with_hasher(FxBuildHasher)`.
//! * [`FastMap`] — an open-addressing (linear-probe, tombstone) hash map
//!   built on [`FxHasher`] with exactly the API surface the data plane
//!   uses. Probing walks one flat slot array, so the common hit case is a
//!   single cache line instead of SipHash rounds plus bucket indirection.
//!
//! Behavioural parity with `HashMap` (insert/get/remove/iterate under
//! arbitrary key sequences) is pinned by the `proptest_fasthash`
//! integration test.

use std::hash::{BuildHasher, Hash, Hasher};

/// Multiplier from the `rustc-hash` crate (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style hasher: one rotate + xor + multiply per 8-byte word.
///
/// Not cryptographic and not DoS-resistant — use only for maps whose keys
/// are not attacker-chosen or whose size is externally bounded (see module
/// docs).
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
    #[inline]
    fn finish(&self) -> u64 {
        self.state
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

/// `BuildHasher` for [`FxHasher`]; plugs into std collections
/// (`HashMap::with_hasher(FxBuildHasher)`) and backs [`FastMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Hashes one value with [`FxHasher`].
#[inline]
pub fn fx_hash<T: Hash>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// One slot of the open-addressing table.
#[derive(Debug, Clone)]
enum Slot<K, V> {
    /// Never occupied: probes stop here.
    Empty,
    /// Previously occupied: probes continue, inserts may reuse.
    Tombstone,
    /// Live entry.
    Full(K, V),
}

impl<K, V> Slot<K, V> {
    fn is_full(&self) -> bool {
        matches!(self, Slot::Full(..))
    }
}

/// An open-addressing hash map over [`FxHasher`] (see module docs).
///
/// Drop-in for the `std::collections::HashMap` usage of the per-packet
/// state maps: linear probing over one flat slot array, tombstone
/// deletion (compacted in place, without reallocating, when tombstones
/// fill the table), capacity doubling at 7/8 load. Iteration order is
/// unspecified, exactly like `HashMap`.
///
/// # Examples
///
/// ```
/// use idsbench_net::fasthash::FastMap;
///
/// let mut map: FastMap<u32, &str> = FastMap::new();
/// map.insert(1, "one");
/// assert_eq!(map.get(&1), Some(&"one"));
/// *map.entry_or_insert_with(2, || "two") = "TWO";
/// assert_eq!(map.remove(&2), Some("TWO"));
/// assert_eq!(map.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FastMap<K, V> {
    slots: Vec<Slot<K, V>>,
    /// Live entries.
    len: usize,
    /// Dead slots still blocking probe chains.
    tombstones: usize,
}

impl<K, V> Default for FastMap<K, V> {
    fn default() -> Self {
        FastMap { slots: Vec::new(), len: 0, tombstones: 0 }
    }
}

impl<K: Hash + Eq, V> FastMap<K, V> {
    /// Creates an empty map without allocating.
    pub fn new() -> Self {
        FastMap { slots: Vec::new(), len: 0, tombstones: 0 }
    }

    /// Creates a map presized for `capacity` live entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut map = FastMap::new();
        if capacity > 0 {
            map.rebuild((capacity * 8 / 7 + 1).next_power_of_two().max(16));
        }
        map
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Probe start index for a hash.
    #[inline]
    fn index_of(&self, hash: u64) -> usize {
        // Fold the high bits down: linear probing with a power-of-two mask
        // only sees the low bits, and Fx concentrates entropy high.
        ((hash ^ (hash >> 32)) as usize) & (self.slots.len() - 1)
    }

    /// Finds the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: &K) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut idx = self.index_of(fx_hash(key));
        let mask = self.slots.len() - 1;
        loop {
            match &self.slots[idx] {
                Slot::Empty => return None,
                Slot::Full(k, _) if k == key => return Some(idx),
                _ => idx = (idx + 1) & mask,
            }
        }
    }

    /// Finds the slot to insert `key` into: its current slot if present
    /// (`true`), else the first reusable slot of its probe chain (`false`).
    #[inline]
    fn find_insert(&self, key: &K) -> (usize, bool) {
        let mut idx = self.index_of(fx_hash(key));
        let mask = self.slots.len() - 1;
        let mut reusable: Option<usize> = None;
        loop {
            match &self.slots[idx] {
                Slot::Empty => return (reusable.unwrap_or(idx), false),
                Slot::Tombstone => reusable = reusable.or(Some(idx)),
                Slot::Full(k, _) if k == key => return (idx, true),
                Slot::Full(..) => {}
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Grows (or compacts tombstones) so one more entry always fits under
    /// the 7/8 load ceiling.
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        if cap == 0 {
            self.rebuild(16);
        } else if (self.len + self.tombstones + 1) * 8 > cap * 7 {
            // Double when genuinely full; compact in place when tombstones
            // are the bulk.
            if (self.len + 1) * 4 > cap * 3 {
                self.rebuild(cap * 2);
            } else {
                self.compact();
            }
        }
    }

    /// Clears every tombstone without allocating: each live entry is lifted
    /// out and re-placed at the first free slot of its own probe chain.
    ///
    /// The walk starts just past an empty slot, so it meets every cluster
    /// (maximal run of non-empty slots) from its first slot. An entry's home
    /// slot lies in its cluster at or before the entry, and every slot from
    /// there up to the entry has already been rewritten — so the entry lands
    /// at or before where it was, never among slots the walk has yet to
    /// visit.
    fn compact(&mut self) {
        let mask = self.slots.len() - 1;
        let start = self
            .slots
            .iter()
            .position(|slot| matches!(slot, Slot::Empty))
            .expect("the 7/8 load ceiling leaves an empty slot");
        for step in 1..=mask {
            let from = (start + step) & mask;
            if let Slot::Full(k, v) = std::mem::replace(&mut self.slots[from], Slot::Empty) {
                self.place(k, v);
            }
        }
        self.tombstones = 0;
    }

    /// Rehashes every live entry into a fresh table of `new_cap` slots.
    fn rebuild(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        let old = std::mem::replace(
            &mut self.slots,
            (0..new_cap).map(|_| Slot::Empty).collect::<Vec<_>>(),
        );
        self.tombstones = 0;
        for slot in old {
            if let Slot::Full(k, v) = slot {
                self.place(k, v);
            }
        }
    }

    /// Puts an entry known to be absent into the first non-full slot of its
    /// probe chain (rehashing only: `len` is the caller's business).
    fn place(&mut self, key: K, value: V) {
        let mask = self.slots.len() - 1;
        let mut idx = self.index_of(fx_hash(&key));
        while self.slots[idx].is_full() {
            idx = (idx + 1) & mask;
        }
        self.slots[idx] = Slot::Full(key, value);
    }

    /// Inserts, returning the previous value for the key (like
    /// `HashMap::insert`).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.reserve_one();
        let (idx, existed) = self.find_insert(&key);
        if matches!(self.slots[idx], Slot::Tombstone) {
            self.tombstones -= 1;
        }
        let prev = std::mem::replace(&mut self.slots[idx], Slot::Full(key, value));
        match prev {
            Slot::Full(_, v) => Some(v),
            _ => {
                debug_assert!(!existed);
                self.len += 1;
                None
            }
        }
    }

    /// Shared borrow of the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|idx| match &self.slots[idx] {
            Slot::Full(_, v) => v,
            _ => unreachable!("find returned a non-full slot"),
        })
    }

    /// Mutable borrow of the value for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).map(|idx| match &mut self.slots[idx] {
            Slot::Full(_, v) => v,
            _ => unreachable!("find returned a non-full slot"),
        })
    }

    /// Whether `key` has a live entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Removes and returns the value for `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.find(key)?;
        let slot = std::mem::replace(&mut self.slots[idx], Slot::Tombstone);
        self.len -= 1;
        self.tombstones += 1;
        match slot {
            Slot::Full(_, v) => Some(v),
            _ => unreachable!("find returned a non-full slot"),
        }
    }

    /// Mutable borrow of the value for `key`, inserting `default()` first
    /// when absent — `map.entry(key).or_insert_with(default)`.
    pub fn entry_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        self.reserve_one();
        let (idx, existed) = self.find_insert(&key);
        if !existed {
            if matches!(self.slots[idx], Slot::Tombstone) {
                self.tombstones -= 1;
            }
            self.slots[idx] = Slot::Full(key, default());
            self.len += 1;
        }
        match &mut self.slots[idx] {
            Slot::Full(_, v) => v,
            _ => unreachable!("slot filled above"),
        }
    }

    /// Iterates over `(&key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Full(k, v) => Some((k, v)),
            _ => None,
        })
    }

    /// Iterates over `(&key, &mut value)` pairs in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.slots.iter_mut().filter_map(|slot| match slot {
            Slot::Full(k, v) => Some((&*k, v)),
            _ => None,
        })
    }

    /// Iterates over the keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over the values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates over the values mutably in unspecified order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.iter_mut().map(|(_, v)| v)
    }

    /// Keeps only the entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        for slot in &mut self.slots {
            if let Slot::Full(k, v) = slot {
                if !keep(k, v) {
                    *slot = Slot::Tombstone;
                    self.len -= 1;
                    self.tombstones += 1;
                }
            }
        }
    }

    /// Empties the map, yielding every entry (like `HashMap::drain`; the
    /// backing storage is released rather than kept, which suits the
    /// end-of-stream flush this is used for).
    pub fn drain(&mut self) -> impl Iterator<Item = (K, V)> {
        self.len = 0;
        self.tombstones = 0;
        std::mem::take(&mut self.slots).into_iter().filter_map(|slot| match slot {
            Slot::Full(k, v) => Some((k, v)),
            _ => None,
        })
    }

    /// Removes every entry, keeping the allocated table.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = Slot::Empty;
        }
        self.len = 0;
        self.tombstones = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut map = FastMap::new();
        assert!(map.is_empty());
        assert_eq!(map.insert("a", 1), None);
        assert_eq!(map.insert("b", 2), None);
        assert_eq!(map.insert("a", 10), Some(1));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&"a"), Some(&10));
        assert!(map.contains_key(&"b"));
        assert_eq!(map.remove(&"a"), Some(10));
        assert_eq!(map.remove(&"a"), None);
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(&"a"), None);
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        // Force collisions by overfilling a small table repeatedly.
        let mut map = FastMap::with_capacity(4);
        for i in 0..64u64 {
            map.insert(i, i * 2);
        }
        for i in (0..64).step_by(2) {
            assert_eq!(map.remove(&i), Some(i * 2));
        }
        for i in (1..64).step_by(2) {
            assert_eq!(map.get(&i), Some(&(i * 2)), "key {i} lost after deletions");
        }
        // Reinsert over tombstones.
        for i in (0..64).step_by(2) {
            assert_eq!(map.insert(i, i + 1000), None);
        }
        assert_eq!(map.len(), 64);
    }

    #[test]
    fn churn_compacts_in_place_without_losing_entries() {
        // A sliding window of live keys: every insert lands on a fresh key,
        // every removal leaves a tombstone, so the fixed-size table must
        // compact over and over — in place, never by reallocating.
        let mut map = FastMap::with_capacity(24);
        let slots = map.slots.len();
        let storage = map.slots.as_ptr();
        for i in 0..10_000u64 {
            assert_eq!(map.insert(i, i * 3), None);
            if i >= 20 {
                assert_eq!(map.remove(&(i - 20)), Some((i - 20) * 3));
            }
            for live in i.saturating_sub(19)..=i {
                assert_eq!(map.get(&live), Some(&(live * 3)), "key {live} lost at step {i}");
            }
        }
        assert_eq!(map.len(), 20);
        assert_eq!(map.slots.len(), slots, "churn at constant load must not grow the table");
        assert_eq!(map.slots.as_ptr(), storage, "compaction must reuse the slot array");
        assert!(map.tombstones < slots);
    }

    #[test]
    fn entry_or_insert_with_matches_entry_semantics() {
        let mut map: FastMap<u8, Vec<u32>> = FastMap::new();
        map.entry_or_insert_with(7, Vec::new).push(1);
        map.entry_or_insert_with(7, || panic!("must not re-init")).push(2);
        assert_eq!(map.get(&7), Some(&vec![1, 2]));
    }

    #[test]
    fn iteration_retain_drain_clear() {
        let mut map = FastMap::new();
        for i in 0..10u32 {
            map.insert(i, i);
        }
        assert_eq!(map.iter().count(), 10);
        assert_eq!(map.values().sum::<u32>(), 45);
        for v in map.values_mut() {
            *v *= 10;
        }
        map.retain(|k, _| k % 2 == 0);
        assert_eq!(map.len(), 5);
        assert_eq!(map.keys().filter(|k| **k % 2 == 1).count(), 0);
        let mut drained: Vec<(u32, u32)> = map.drain().collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![(0, 0), (2, 20), (4, 40), (6, 60), (8, 80)]);
        assert!(map.is_empty());
        map.insert(1, 1);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get(&1), None);
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_ne!(fx_hash(&1u64), fx_hash(&2u64));
        // Sequential keys must not collide on the low bits after the fold.
        let mut low: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for i in 0..256u64 {
            let h = fx_hash(&i);
            low.insert((h ^ (h >> 32)) & 0xff);
        }
        assert!(low.len() > 128, "low-bit spread too weak: {}", low.len());
    }

    #[test]
    fn std_hashmap_accepts_the_build_hasher() {
        let mut map: std::collections::HashMap<u32, u32, FxBuildHasher> =
            std::collections::HashMap::with_hasher(FxBuildHasher);
        map.insert(1, 2);
        assert_eq!(map.get(&1), Some(&2));
    }
}
