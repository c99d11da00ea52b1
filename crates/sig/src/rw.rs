//! The paired read/write signatures a thread context owns, with the paper's
//! conflict semantics.

use crate::{SavedSignature, SigRepr, Signature, SignatureKind};

/// Whether a memory access (or the coherence request it generates) reads or
/// writes — the `O` in the paper's `INSERT(O, A)` / `CONFLICT(O, A)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigOp {
    /// A load / GETS.
    Read,
    /// A store / GETM.
    Write,
}

impl std::fmt::Display for SigOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SigOp::Read => "read",
            SigOp::Write => "write",
        })
    }
}

/// A read-signature / write-signature pair — what Figure 1 of the paper adds
/// to each thread context (one "actual signature needs two copies of the
/// illustrated hardware for read- and write-sets", Figure 3 caption).
///
/// Conflict semantics (paper §2, "Eager Conflict Detection"):
///
/// * an incoming **read** (GETS) conflicts if the address may be in the
///   **write**-set;
/// * an incoming **write** (GETM) conflicts if the address may be in the
///   **read- or write**-set.
///
/// ```
/// use ltse_sig::{ReadWriteSignature, SignatureKind, SigOp};
///
/// let mut rw = ReadWriteSignature::new(&SignatureKind::Perfect);
/// rw.insert(SigOp::Read, 1);
/// assert!(rw.conflicts_with(SigOp::Write, 1));
/// assert!(!rw.conflicts_with(SigOp::Read, 1)); // read-read never conflicts
/// ```
/// The pair is backed by [`SigRepr`], the enum-dispatched representation, so
/// the per-access conflict check is a `match` plus word ops rather than two
/// virtual calls. Boxed [`Signature`] trait objects appear only at the API
/// edges ([`ReadWriteSignature::from_parts`], [`ReadWriteSignature::read_sig`]).
#[derive(Debug, Clone)]
pub struct ReadWriteSignature {
    read: SigRepr,
    write: SigRepr,
    kind: SignatureKind,
}

impl ReadWriteSignature {
    /// Creates an empty pair of the given kind.
    pub fn new(kind: &SignatureKind) -> Self {
        ReadWriteSignature {
            read: SigRepr::new(kind),
            write: SigRepr::new(kind),
            kind: *kind,
        }
    }

    /// Assembles a pair from pre-built signatures (used by the OS model to
    /// materialize summary signatures from counting structures). The boxed
    /// contents are copied verbatim into the enum representation.
    ///
    /// # Panics
    ///
    /// Panics if `read`/`write` do not actually match `kind` (their saved
    /// shape fails to load into a fresh signature of that kind).
    pub fn from_parts(kind: &SignatureKind, read: Box<dyn Signature>, write: Box<dyn Signature>) -> Self {
        ReadWriteSignature {
            read: SigRepr::from_boxed(kind, read.as_ref()),
            write: SigRepr::from_boxed(kind, write.as_ref()),
            kind: *kind,
        }
    }

    /// The configured signature kind.
    pub fn kind(&self) -> SignatureKind {
        self.kind
    }

    /// `INSERT(op, a)`: records a local access.
    #[inline]
    pub fn insert(&mut self, op: SigOp, a: u64) {
        match op {
            SigOp::Read => self.read.insert_block(a),
            SigOp::Write => self.write.insert_block(a),
        }
    }

    /// `CONFLICT(op, a)`: does an incoming access of kind `op` to address `a`
    /// conflict with this context's sets? An incoming write consults both.
    #[inline]
    pub fn conflicts_with(&self, op: SigOp, a: u64) -> bool {
        match op {
            SigOp::Read => self.write.test_block(a),
            SigOp::Write => self.in_either_set(a),
        }
    }

    /// Whether `a` may be in the write-set (needed for logging decisions and
    /// sticky-state bookkeeping).
    #[inline]
    pub fn in_write_set(&self, a: u64) -> bool {
        self.write.test_block(a)
    }

    /// Whether `a` may be in the read-set.
    #[inline]
    pub fn in_read_set(&self, a: u64) -> bool {
        self.read.test_block(a)
    }

    /// Whether `a` may be in either set (used to decide if an evicted block
    /// is "transactional" and needs a sticky directory state). For two
    /// filters, hashing `a` per filter is cheaper than building a
    /// [`crate::SigProbe`].
    #[inline]
    pub fn in_either_set(&self, a: u64) -> bool {
        self.read.test_block(a) || self.write.test_block(a)
    }

    /// `CLEAR` on both sets — the core of LogTM-SE's local commit.
    pub fn clear(&mut self) {
        self.read.clear_all();
        self.write.clear_all();
    }

    /// Whether both sets are empty (no transaction footprint).
    pub fn is_empty(&self) -> bool {
        self.read.is_clear() && self.write.is_clear()
    }

    /// Saves both signatures — the log-frame header signature-save area.
    pub fn save(&self) -> (SavedSignature, SavedSignature) {
        (self.read.save_state(), self.write.save_state())
    }

    /// Restores a previously saved pair.
    ///
    /// # Panics
    ///
    /// Panics if the saved shapes don't match the configured kind.
    pub fn restore(&mut self, saved: &(SavedSignature, SavedSignature)) {
        self.read.restore_saved(&saved.0);
        self.write.restore_saved(&saved.1);
    }

    /// Unions another pair into this one (summary-signature construction) —
    /// a word-level OR, no per-address probing.
    pub fn union_with(&mut self, other: &ReadWriteSignature) {
        self.read.union_repr(&other.read);
        self.write.union_repr(&other.write);
    }

    /// Folds both of this pair's sets into a single signature (a summary
    /// signature is one signature covering reads and writes, §4.1).
    pub fn fold_into(&self, summary: &mut dyn Signature) {
        summary.union_with(&self.read);
        summary.union_with(&self.write);
    }

    /// Mean saturation across the two filters.
    pub fn saturation(&self) -> f64 {
        (self.read.fill() + self.write.fill()) / 2.0
    }

    /// Conservative page-remap of both sets (paper §4.2).
    pub fn rehash_page(&mut self, old_page_base_block: u64, new_page_base_block: u64, blocks: u64) {
        Signature::rehash_page(&mut self.read, old_page_base_block, new_page_base_block, blocks);
        Signature::rehash_page(&mut self.write, old_page_base_block, new_page_base_block, blocks);
    }

    /// Read-only access to the read signature as a trait object (API edge).
    pub fn read_sig(&self) -> &dyn Signature {
        &self.read
    }

    /// Read-only access to the write signature as a trait object (API edge).
    pub fn write_sig(&self) -> &dyn Signature {
        &self.write
    }

    /// The read set's enum representation (hot-path consumers).
    #[inline]
    pub fn read_repr(&self) -> &SigRepr {
        &self.read
    }

    /// The write set's enum representation (hot-path consumers).
    #[inline]
    pub fn write_repr(&self) -> &SigRepr {
        &self.write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<SignatureKind> {
        let mut v = SignatureKind::figure4_set();
        v.push(SignatureKind::Bloom { bits: 1024, k: 4 });
        v
    }

    #[test]
    fn read_read_never_conflicts_exactly() {
        // With a perfect signature, read-read sharing must not conflict.
        let mut rw = ReadWriteSignature::new(&SignatureKind::Perfect);
        rw.insert(SigOp::Read, 42);
        assert!(!rw.conflicts_with(SigOp::Read, 42));
    }

    #[test]
    fn write_conflicts_with_everything() {
        for kind in kinds() {
            let mut rw = ReadWriteSignature::new(&kind);
            rw.insert(SigOp::Write, 7);
            assert!(rw.conflicts_with(SigOp::Read, 7), "{kind}");
            assert!(rw.conflicts_with(SigOp::Write, 7), "{kind}");
        }
    }

    #[test]
    fn incoming_write_conflicts_with_read_set() {
        for kind in kinds() {
            let mut rw = ReadWriteSignature::new(&kind);
            rw.insert(SigOp::Read, 9);
            assert!(rw.conflicts_with(SigOp::Write, 9), "{kind}");
        }
    }

    #[test]
    fn commit_clear_releases_isolation() {
        for kind in kinds() {
            let mut rw = ReadWriteSignature::new(&kind);
            rw.insert(SigOp::Write, 3);
            rw.clear();
            assert!(rw.is_empty(), "{kind}");
            assert!(!rw.conflicts_with(SigOp::Read, 3), "{kind}");
        }
    }

    #[test]
    fn save_restore_roundtrip() {
        for kind in kinds() {
            let mut rw = ReadWriteSignature::new(&kind);
            rw.insert(SigOp::Read, 11);
            rw.insert(SigOp::Write, 22);
            let saved = rw.save();
            let mut fresh = ReadWriteSignature::new(&kind);
            fresh.restore(&saved);
            assert!(fresh.conflicts_with(SigOp::Write, 11), "{kind}");
            assert!(fresh.conflicts_with(SigOp::Read, 22), "{kind}");
        }
    }

    #[test]
    fn fold_into_summary_covers_both_sets() {
        let kind = SignatureKind::paper_bs_2kb();
        let mut rw = ReadWriteSignature::new(&kind);
        rw.insert(SigOp::Read, 100);
        rw.insert(SigOp::Write, 200);
        let mut summary = kind.build();
        rw.fold_into(summary.as_mut());
        assert!(summary.maybe_contains(100));
        assert!(summary.maybe_contains(200));
    }

    #[test]
    fn union_with_merges_pairs() {
        let kind = SignatureKind::paper_dbs_2kb();
        let mut a = ReadWriteSignature::new(&kind);
        let mut b = ReadWriteSignature::new(&kind);
        a.insert(SigOp::Read, 1);
        b.insert(SigOp::Write, 2);
        a.union_with(&b);
        assert!(a.in_read_set(1));
        assert!(a.in_write_set(2));
    }

    #[test]
    fn in_either_set_tracks_both() {
        let mut rw = ReadWriteSignature::new(&SignatureKind::Perfect);
        rw.insert(SigOp::Read, 1);
        rw.insert(SigOp::Write, 2);
        assert!(rw.in_either_set(1));
        assert!(rw.in_either_set(2));
        assert!(!rw.in_either_set(3));
    }
}
