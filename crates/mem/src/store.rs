//! The flat simulated memory contents.
//!
//! Because the memory system resolves coherence atomically (DESIGN.md), data
//! values are always globally consistent and can live in one flat store.
//! Caches model tags/state for timing and protocol behaviour only. Eager
//! version management still works exactly as in the paper: new values go *in
//! place* (straight into this store) and old values are saved in the
//! transaction's log (by the TM crate) before the first transactional
//! overwrite.

use std::collections::HashMap;

use ltse_sim::rng::Mix64BuildHasher;

use crate::addr::WordAddr;

/// Word-addressable simulated memory. Unwritten words read as zero.
///
/// ```
/// use ltse_mem::{MemStore, WordAddr};
///
/// let mut m = MemStore::new();
/// assert_eq!(m.read(WordAddr(64)), 0);
/// m.write(WordAddr(64), 7);
/// assert_eq!(m.read(WordAddr(64)), 7);
/// ```
#[derive(Clone, Default)]
pub struct MemStore {
    words: HashMap<u64, u64, Mix64BuildHasher>,
}

/// Renders the nonzero words in **address order**. The backing map is a
/// `HashMap` whose iteration order follows its bucket layout, which depends
/// on insertion history, so a derived `Debug` would differ between stores
/// with equal contents and anything quoting it in a report or failure
/// message would break byte-identical repro output.
impl std::fmt::Debug for MemStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter_sorted()).finish()
    }
}

impl MemStore {
    /// Creates an all-zero memory.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Reads one word (zero if never written).
    pub fn read(&self, addr: WordAddr) -> u64 {
        self.words.get(&addr.0).copied().unwrap_or(0)
    }

    /// Writes one word in place.
    pub fn write(&mut self, addr: WordAddr, value: u64) {
        if value == 0 {
            self.words.remove(&addr.0);
        } else {
            self.words.insert(addr.0, value);
        }
    }

    /// Atomically applies `f` to a word and returns `(old, new)` — the
    /// building block for the simulated CAS/fetch-and-add the lock baseline
    /// uses.
    pub fn update(&mut self, addr: WordAddr, f: impl FnOnce(u64) -> u64) -> (u64, u64) {
        let old = self.read(addr);
        let new = f(old);
        self.write(addr, new);
        (old, new)
    }

    /// Number of nonzero words (diagnostics only).
    pub fn nonzero_words(&self) -> usize {
        self.words.len()
    }

    /// The nonzero words in **ascending address order** — the only iteration
    /// this type exposes. Dumps, fingerprints, and divergence reports must
    /// come through here: the backing `HashMap`'s own order depends on
    /// insertion history and would leak it into any output built from it.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (WordAddr, u64)> + '_ {
        let mut entries: Vec<(u64, u64)> = self.words.iter().map(|(&a, &v)| (a, v)).collect();
        entries.sort_unstable_by_key(|&(a, _)| a);
        entries.into_iter().map(|(a, v)| (WordAddr(a), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let m = MemStore::new();
        assert_eq!(m.read(WordAddr(12345)), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = MemStore::new();
        m.write(WordAddr(1), 42);
        m.write(WordAddr(2), 43);
        assert_eq!(m.read(WordAddr(1)), 42);
        assert_eq!(m.read(WordAddr(2)), 43);
    }

    #[test]
    fn writing_zero_reclaims() {
        let mut m = MemStore::new();
        m.write(WordAddr(1), 42);
        m.write(WordAddr(1), 0);
        assert_eq!(m.nonzero_words(), 0);
        assert_eq!(m.read(WordAddr(1)), 0);
    }

    #[test]
    fn debug_and_iteration_are_sorted_regardless_of_insert_order() {
        // Stores with the same contents written in different orders (forward,
        // reverse, and a stride permutation; enough keys, some far apart,
        // that the hash table's bucket layout differs) must render
        // identically and iterate in ascending address order.
        let addrs: Vec<u64> = (0..64)
            .map(|i| (i * 0x9E37) % 4096 + if i % 5 == 0 { 1 << 40 } else { 0 })
            .collect();
        let mut expected: Vec<(u64, u64)> = addrs.iter().map(|&x| (x, x + 1)).collect();
        expected.sort_unstable();
        let orders: [Vec<u64>; 3] = [
            addrs.clone(),
            addrs.iter().rev().copied().collect(),
            (0..addrs.len())
                .map(|i| addrs[(i * 37) % addrs.len()])
                .collect(),
        ];
        let mut renders = Vec::new();
        for order in &orders {
            let mut m = MemStore::new();
            for &x in order {
                m.write(WordAddr(x), x + 1);
            }
            let seq: Vec<(u64, u64)> = m.iter_sorted().map(|(a, v)| (a.0, v)).collect();
            assert_eq!(seq, expected, "iter_sorted must ascend");
            assert_eq!(seq.len(), m.nonzero_words());
            renders.push(format!("{m:?}"));
        }
        assert!(renders.windows(2).all(|w| w[0] == w[1]), "{renders:?}");
    }

    #[test]
    fn update_returns_old_and_new() {
        let mut m = MemStore::new();
        m.write(WordAddr(9), 10);
        let (old, new) = m.update(WordAddr(9), |v| v + 5);
        assert_eq!((old, new), (10, 15));
        assert_eq!(m.read(WordAddr(9)), 15);
    }
}
