//! The idealized perfect signature (the paper's "P" configuration).

use std::collections::{BTreeSet, HashSet};

use ltse_sim::rng::Mix64BuildHasher;

use crate::traits::{SavedSignature, Signature};

/// An exact read- or write-set: no false positives, unbounded size.
///
/// The paper uses perfect signatures as an unimplementable upper bound
/// ("idealized signatures that record exact read- and write-sets, regardless
/// of their size", §6.3 Result 1). [`Signature::storage_bits`] reports 0 to
/// reflect that no fixed hardware budget corresponds to it.
///
/// The set is a [`mix64`](ltse_sim::rng::mix64)-hashed `HashSet`: exact
/// shadow sets answer a membership query on every conflict check, so lookups
/// must be cheap. Its bucket order depends on insertion history, so every
/// view whose order is observable ([`PerfectSignature::iter`],
/// [`Signature::save`], `Debug`) sorts first, which keeps whole-run
/// determinism intact.
///
/// ```
/// use ltse_sig::{PerfectSignature, Signature};
///
/// let mut s = PerfectSignature::new();
/// s.insert(10);
/// assert!(s.maybe_contains(10));
/// assert!(!s.maybe_contains(11)); // never a false positive
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PerfectSignature {
    set: HashSet<u64, Mix64BuildHasher>,
}

/// Renders the set in ascending order, whatever the insertion order.
impl std::fmt::Debug for PerfectSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfectSignature")
            .field("set", &self.set.iter().collect::<BTreeSet<_>>())
            .finish()
    }
}

impl PerfectSignature {
    /// Creates an empty perfect signature.
    pub fn new() -> Self {
        PerfectSignature::default()
    }

    /// Number of distinct addresses recorded (the exact set size reported in
    /// the paper's Table 2 read/write-set statistics).
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no addresses are recorded.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates the exact address set in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.sorted().into_iter()
    }

    /// Whether the two sets share an address.
    pub fn intersects(&self, other: &PerfectSignature) -> bool {
        !self.set.is_disjoint(&other.set)
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.set.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

impl Signature for PerfectSignature {
    fn insert(&mut self, a: u64) {
        self.set.insert(a);
    }

    fn maybe_contains(&self, a: u64) -> bool {
        self.set.contains(&a)
    }

    fn clear(&mut self) {
        self.set.clear();
    }

    fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    fn union_with(&mut self, other: &dyn Signature) {
        match other.save() {
            SavedSignature::Exact(es) => self.set.extend(es),
            SavedSignature::Bits(_) => {
                panic!("cannot union a hashed signature into a perfect signature")
            }
        }
    }

    fn save(&self) -> SavedSignature {
        SavedSignature::Exact(self.sorted())
    }

    fn restore(&mut self, saved: &SavedSignature) {
        match saved {
            SavedSignature::Exact(es) => {
                self.set = es.iter().copied().collect();
            }
            SavedSignature::Bits(_) => panic!("saved state shape mismatch"),
        }
    }

    fn saturation(&self) -> f64 {
        // A perfect signature never saturates; report a proxy that grows with
        // set size so dashboards can still plot it.
        1.0 - 1.0 / (1.0 + self.set.len() as f64)
    }

    fn storage_bits(&self) -> usize {
        0
    }

    fn clone_box(&self) -> Box<dyn Signature> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactness() {
        let mut s = PerfectSignature::new();
        for a in (0..1000u64).step_by(3) {
            s.insert(a);
        }
        for a in 0..1000u64 {
            assert_eq!(s.maybe_contains(a), a % 3 == 0);
        }
    }

    #[test]
    fn no_aliasing_ever() {
        let mut s = PerfectSignature::new();
        s.insert(5);
        assert!(!s.maybe_contains(5 + 64));
        assert!(!s.maybe_contains(5 + (1 << 40)));
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut s = PerfectSignature::new();
        s.insert(1);
        s.insert(1 << 50);
        let saved = s.save();
        let mut t = PerfectSignature::new();
        t.restore(&saved);
        assert_eq!(s, t);
    }

    #[test]
    fn union_is_set_union() {
        let mut a = PerfectSignature::new();
        let mut b = PerfectSignature::new();
        a.insert(1);
        b.insert(2);
        b.insert(1);
        a.union_with(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut s = PerfectSignature::new();
        s.insert(9);
        s.clear();
        assert!(Signature::is_empty(&s));
        assert!(!s.maybe_contains(9));
    }

    #[test]
    fn saturation_grows_but_below_one() {
        let mut s = PerfectSignature::new();
        let s0 = s.saturation();
        s.insert(1);
        let s1 = s.saturation();
        s.insert(2);
        let s2 = s.saturation();
        assert!(s0 < s1 && s1 < s2 && s2 < 1.0);
    }

    #[test]
    fn rehash_page_exact() {
        let mut s = PerfectSignature::new();
        s.insert(100);
        s.rehash_page(64, 1024, 64);
        assert!(s.maybe_contains(100));
        assert!(s.maybe_contains(1024 + 36));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ordered_views_ascend_whatever_the_insertion_order() {
        // Enough addresses, some far apart, that the hash table's bucket
        // order differs between insertion orders.
        let addrs: Vec<u64> = (0..200u64)
            .map(|i| (i * 0x9E37) % 5000 + if i % 7 == 0 { 1 << 45 } else { 0 })
            .collect();
        let mut expected = addrs.clone();
        expected.sort_unstable();
        expected.dedup();
        let orders: [Vec<u64>; 3] = [
            addrs.clone(),
            addrs.iter().rev().copied().collect(),
            (0..addrs.len())
                .map(|i| addrs[(i * 53) % addrs.len()])
                .collect(),
        ];
        let mut debugs = Vec::new();
        for order in &orders {
            let mut s = PerfectSignature::new();
            for &a in order {
                s.insert(a);
            }
            assert_eq!(s.iter().collect::<Vec<_>>(), expected);
            assert_eq!(s.save(), SavedSignature::Exact(expected.clone()));
            debugs.push(format!("{s:?}"));
        }
        assert!(debugs.windows(2).all(|w| w[0] == w[1]), "{debugs:?}");
        let listed: Vec<String> = expected.iter().map(u64::to_string).collect();
        assert_eq!(
            debugs[0],
            format!("PerfectSignature {{ set: {{{}}} }}", listed.join(", "))
        );
    }

    #[test]
    fn intersects_is_set_overlap() {
        let mut a = PerfectSignature::new();
        let mut b = PerfectSignature::new();
        a.insert(1);
        b.insert(2);
        assert!(!a.intersects(&b));
        b.insert(1 + (1 << 40));
        assert!(!a.intersects(&b), "exact sets never alias");
        b.insert(1);
        assert!(a.intersects(&b) && b.intersects(&a));
    }
}
