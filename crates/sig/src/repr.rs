//! Enum-dispatched signature representation for the conflict-check hot path.
//!
//! Every simulated memory reference performs at least one `CONFLICT(O, A)`
//! lookup, and summary-equipped contexts perform several. Routing those
//! lookups through `Box<dyn Signature>` costs a virtual call per probe;
//! [`SigRepr`] flattens the same six implementations into one enum whose
//! `insert`/`maybe_contains` are branch-predictable word operations on a
//! [`SigBits`] array, so the compiler inlines the whole membership test.
//!
//! `SigRepr` produces **bit-for-bit identical** filter contents and
//! membership answers to the boxed implementations in
//! [`crate::BloomSignature`], [`crate::BitSelectSignature`], etc. — the index
//! math is the same — which the differential tests below (and the property
//! tests in `tests/`) pin down. Boxed signatures remain the API at the
//! edges: [`crate::SignatureKind::build`], summary-signature
//! materialization, and [`Signature`] trait objects generally. `SigRepr`
//! itself implements [`Signature`], so the two worlds interconvert freely.

use ltse_sim::rng::mix64;

use crate::bits::SigBits;
use crate::{PerfectSignature, SavedSignature, Signature, SignatureKind};

/// Maximum number of bit indices a [`SigProbe`] can carry (Bloom filters
/// with more hashes fall back to per-signature testing).
const PROBE_MAX_INDICES: usize = 8;

/// A precompiled membership test: the kind-specific hash of one address,
/// computed once by [`SigRepr::probe`] and reusable against every signature
/// of the same kind via [`SigRepr::test_probe`]. See `probe` for the
/// sweep-shaped use case.
#[derive(Debug, Clone, Copy)]
pub enum SigProbe {
    /// Membership ⇔ for each of the first `n` entries, the filter word at
    /// `word[i]` has some bit of `mask[i]` set. The word/mask split is
    /// precomputed here so the per-signature test is a bare load-AND — no
    /// shifts in the sweep's inner loop.
    Indices {
        /// Filter word index of each probed bit.
        word: [u32; PROBE_MAX_INDICES],
        /// Single-bit mask within that word.
        mask: [u64; PROBE_MAX_INDICES],
        /// How many of `word`/`mask` are meaningful.
        n: u8,
    },
    /// The probed address, for kinds that don't compile to bit indices
    /// (perfect signatures, Bloom filters with more than
    /// [`PROBE_MAX_INDICES`] hashes): testing falls back to the full
    /// per-signature membership check.
    Fallback(u64),
}

impl SigProbe {
    #[inline]
    fn indices(src: &[u32]) -> SigProbe {
        let mut word = [0u32; PROBE_MAX_INDICES];
        let mut mask = [0u64; PROBE_MAX_INDICES];
        for (i, &idx) in src.iter().enumerate() {
            word[i] = idx / 64;
            mask[i] = 1u64 << (idx % 64);
        }
        SigProbe::Indices {
            word,
            mask,
            n: src.len() as u8,
        }
    }

    /// Tests this probe directly against a raw filter — the innermost loop
    /// of a sweep where the caller has already resolved each signature's
    /// [`SigBits`] via [`SigRepr::filter_bits`]. This removes the last
    /// per-signature dispatch: each test is `n` word loads and ANDs.
    ///
    /// # Panics
    ///
    /// Panics if the probe is a [`SigProbe::Fallback`] (perfect signatures
    /// and very wide Bloom filters don't compile to indices; callers taking
    /// this path should first check that [`SigRepr::probe`] returned
    /// [`SigProbe::Indices`]).
    #[inline]
    pub fn test_bits(&self, bits: &SigBits) -> bool {
        match self {
            SigProbe::Indices { word, mask, n } => {
                let words = bits.words();
                let mut ok = true;
                for i in 0..*n as usize {
                    ok &= words[word[i] as usize] & mask[i] != 0;
                }
                ok
            }
            SigProbe::Fallback(_) => {
                panic!("fallback probe cannot be tested against raw filter bits")
            }
        }
    }
}

/// A signature as a flat enum over the concrete implementations, dispatched
/// by `match` instead of vtable. Used by [`crate::ReadWriteSignature`] on the
/// per-access conflict path.
#[derive(Debug, Clone)]
pub enum SigRepr {
    /// Exact sets (the paper's idealized "P" configuration).
    Perfect(PerfectSignature),
    /// Bit-select over the low address bits ("BS").
    BitSelect {
        /// Packed filter bits.
        bits: SigBits,
        /// `bits.len() - 1`, for the index mask.
        mask: u64,
    },
    /// Bit-select at macroblock granularity ("CBS").
    CoarseBitSelect {
        /// Packed filter bits.
        bits: SigBits,
        /// `bits.len() - 1`, for the index mask.
        mask: u64,
        /// `log2(blocks per macroblock)`.
        shift: u32,
    },
    /// Two-field decode into two halves ("DBS").
    DoubleBitSelect {
        /// Packed filter bits (both halves).
        bits: SigBits,
        /// Bits per half (`bits.len() / 2`).
        half: usize,
        /// `log2(half)`: width of each decoded field.
        field_bits: u32,
    },
    /// Generic k-hash Bloom filter.
    Bloom {
        /// Packed filter bits.
        bits: SigBits,
        /// Number of hash functions.
        k: u32,
        /// `bits.len() - 1`, for the index mask.
        mask: u64,
    },
    /// Bulk-style permute-then-decode DBS.
    PermutedDbs {
        /// Packed filter bits (both halves).
        bits: SigBits,
        /// Bits per half (`bits.len() / 2`).
        half: usize,
        /// `log2(half)`: width of each decoded field.
        field_bits: u32,
    },
}

/// Bloom hash `i` of address `a`: identical to `BloomSignature::index`.
#[inline]
fn bloom_index(a: u64, i: u32, mask: u64) -> usize {
    let salted = a
        .wrapping_mul(2 * i as u64 + 1)
        .wrapping_add(0xA076_1D64_78BD_642Fu64.wrapping_mul(i as u64 + 1));
    (mix64(salted) & mask) as usize
}

/// DBS field decode: identical to `DoubleBitSelectSignature::indices`.
#[inline]
fn dbs_indices(a: u64, half: usize, field_bits: u32) -> (usize, usize) {
    let mask = half as u64 - 1;
    let lo = (a & mask) as usize;
    let hi = ((a >> field_bits) & mask) as usize;
    (lo, half + hi)
}

/// The fixed bit permutation: identical to
/// `PermutedBitSelectSignature::permute`.
#[inline]
fn permute(a: u64) -> u64 {
    let x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    x ^ (x >> 17)
}

impl SigRepr {
    /// Creates an empty representation of the given kind.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid geometries as the boxed constructors
    /// (non-power-of-two sizes, `k == 0`, DBS smaller than 4 bits).
    pub fn new(kind: &SignatureKind) -> Self {
        fn checked_bits(bits: usize) -> SigBits {
            assert!(
                bits.is_power_of_two(),
                "signature size must be a power of two, got {bits}"
            );
            SigBits::new(bits)
        }
        match *kind {
            SignatureKind::Perfect => SigRepr::Perfect(PerfectSignature::new()),
            SignatureKind::BitSelect { bits } => SigRepr::BitSelect {
                bits: checked_bits(bits),
                mask: bits as u64 - 1,
            },
            SignatureKind::CoarseBitSelect {
                bits,
                blocks_per_macroblock,
            } => {
                assert!(
                    blocks_per_macroblock.is_power_of_two(),
                    "macroblock size must be a power of two"
                );
                SigRepr::CoarseBitSelect {
                    bits: checked_bits(bits),
                    mask: bits as u64 - 1,
                    shift: blocks_per_macroblock.trailing_zeros(),
                }
            }
            SignatureKind::DoubleBitSelect { bits } => {
                assert!(bits >= 4, "DBS needs at least 4 bits");
                SigRepr::DoubleBitSelect {
                    bits: checked_bits(bits),
                    half: bits / 2,
                    field_bits: (bits / 2).trailing_zeros(),
                }
            }
            SignatureKind::Bloom { bits, k } => {
                assert!(k > 0, "Bloom signature needs at least one hash");
                SigRepr::Bloom {
                    bits: checked_bits(bits),
                    k,
                    mask: bits as u64 - 1,
                }
            }
            SignatureKind::PermutedDbs { bits } => {
                assert!(bits >= 4, "DBS needs at least 4 bits");
                SigRepr::PermutedDbs {
                    bits: checked_bits(bits),
                    half: bits / 2,
                    field_bits: (bits / 2).trailing_zeros(),
                }
            }
        }
    }

    /// Builds a representation of `kind` holding the same set as `boxed`
    /// (via save/restore, so the filter words are copied verbatim).
    pub fn from_boxed(kind: &SignatureKind, boxed: &dyn Signature) -> Self {
        let mut repr = SigRepr::new(kind);
        repr.restore_saved(&boxed.save());
        repr
    }

    /// `INSERT(A)`: adds block address `a`.
    #[inline]
    pub fn insert_block(&mut self, a: u64) {
        match self {
            SigRepr::Perfect(p) => Signature::insert(p, a),
            SigRepr::BitSelect { bits, mask } => bits.insert((a & *mask) as usize),
            SigRepr::CoarseBitSelect { bits, mask, shift } => {
                bits.insert(((a >> *shift) & *mask) as usize)
            }
            SigRepr::DoubleBitSelect {
                bits,
                half,
                field_bits,
            } => {
                let (lo, hi) = dbs_indices(a, *half, *field_bits);
                bits.insert(lo);
                bits.insert(hi);
            }
            SigRepr::Bloom { bits, k, mask } => {
                for i in 0..*k {
                    bits.insert(bloom_index(a, i, *mask));
                }
            }
            SigRepr::PermutedDbs {
                bits,
                half,
                field_bits,
            } => {
                let (lo, hi) = dbs_indices(permute(a), *half, *field_bits);
                bits.insert(lo);
                bits.insert(hi);
            }
        }
    }

    /// `CONFLICT(A)`: whether `a` may be in the set. The hot-path lookup —
    /// a handful of word ops per variant, fully inlinable.
    #[inline]
    pub fn test_block(&self, a: u64) -> bool {
        match self {
            SigRepr::Perfect(p) => p.maybe_contains(a),
            SigRepr::BitSelect { bits, mask } => bits.test((a & *mask) as usize),
            SigRepr::CoarseBitSelect { bits, mask, shift } => {
                bits.test(((a >> *shift) & *mask) as usize)
            }
            SigRepr::DoubleBitSelect {
                bits,
                half,
                field_bits,
            } => {
                let (lo, hi) = dbs_indices(a, *half, *field_bits);
                bits.test(lo) && bits.test(hi)
            }
            SigRepr::Bloom { bits, k, mask } => {
                (0..*k).all(|i| bits.test(bloom_index(a, i, *mask)))
            }
            SigRepr::PermutedDbs {
                bits,
                half,
                field_bits,
            } => {
                let (lo, hi) = dbs_indices(permute(a), *half, *field_bits);
                bits.test(lo) && bits.test(hi)
            }
        }
    }

    /// Compiles the membership test for `a` into a [`SigProbe`]: the
    /// kind-specific hashing is done **once**, and the resulting bit indices
    /// can then be tested against any number of signatures of the same kind
    /// and geometry with [`SigRepr::test_probe`] — pure word loads, no
    /// hashing and no dispatch in the inner loop.
    ///
    /// This is the fast path for sweep-shaped checks (one incoming request
    /// against many contexts' signatures, or a read/write pair): all
    /// signatures in a simulated system share one configured kind, so the
    /// probe is computed per *address*, not per *signature*.
    #[inline]
    pub fn probe(&self, a: u64) -> SigProbe {
        match self {
            SigRepr::Perfect(_) => SigProbe::Fallback(a),
            SigRepr::BitSelect { mask, .. } => SigProbe::indices(&[(a & *mask) as u32]),
            SigRepr::CoarseBitSelect { mask, shift, .. } => {
                SigProbe::indices(&[((a >> *shift) & *mask) as u32])
            }
            SigRepr::DoubleBitSelect {
                half, field_bits, ..
            } => {
                let (lo, hi) = dbs_indices(a, *half, *field_bits);
                SigProbe::indices(&[lo as u32, hi as u32])
            }
            SigRepr::Bloom { k, mask, .. } => {
                if *k as usize > PROBE_MAX_INDICES {
                    return SigProbe::Fallback(a);
                }
                let mut idx = [0u32; PROBE_MAX_INDICES];
                for i in 0..*k {
                    idx[i as usize] = bloom_index(a, i, *mask) as u32;
                }
                SigProbe::indices(&idx[..*k as usize])
            }
            SigRepr::PermutedDbs {
                half, field_bits, ..
            } => {
                let (lo, hi) = dbs_indices(permute(a), *half, *field_bits);
                SigProbe::indices(&[lo as u32, hi as u32])
            }
        }
    }

    /// Tests a precompiled probe against this signature. Must only be given
    /// probes built (via [`SigRepr::probe`]) from a signature of the **same
    /// kind and geometry** — the bit indices are meaningless in any other
    /// filter. Answers are bit-for-bit identical to
    /// [`SigRepr::test_block`] on the probed address.
    #[inline]
    pub fn test_probe(&self, p: &SigProbe) -> bool {
        match p {
            SigProbe::Fallback(a) => self.test_block(*a),
            SigProbe::Indices { .. } => {
                let bits = match self {
                    SigRepr::BitSelect { bits, .. }
                    | SigRepr::CoarseBitSelect { bits, .. }
                    | SigRepr::DoubleBitSelect { bits, .. }
                    | SigRepr::Bloom { bits, .. }
                    | SigRepr::PermutedDbs { bits, .. } => bits,
                    SigRepr::Perfect(_) => {
                        unreachable!("index probe tested against a perfect signature")
                    }
                };
                p.test_bits(bits)
            }
        }
    }

    /// The packed filter backing this signature, or `None` for the perfect
    /// (exact-set) representation. Sweep-shaped callers resolve each
    /// signature's filter once, then drive [`SigProbe::test_bits`] directly.
    #[inline]
    pub fn filter_bits(&self) -> Option<&SigBits> {
        match self {
            SigRepr::Perfect(_) => None,
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => Some(bits),
        }
    }

    /// `CLEAR`: empties the set.
    pub fn clear_all(&mut self) {
        match self {
            SigRepr::Perfect(p) => Signature::clear(p),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => bits.clear(),
        }
    }

    /// Whether the set is empty.
    pub fn is_clear(&self) -> bool {
        match self {
            SigRepr::Perfect(p) => Signature::is_empty(p),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => bits.is_empty(),
        }
    }

    /// Word-level set union with another representation of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (different variants or sizes).
    pub fn union_repr(&mut self, other: &SigRepr) {
        match (&mut *self, other) {
            (SigRepr::Perfect(a), SigRepr::Perfect(b)) => a.union_with(b),
            (SigRepr::BitSelect { bits: a, .. }, SigRepr::BitSelect { bits: b, .. })
            | (SigRepr::CoarseBitSelect { bits: a, .. }, SigRepr::CoarseBitSelect { bits: b, .. })
            | (SigRepr::DoubleBitSelect { bits: a, .. }, SigRepr::DoubleBitSelect { bits: b, .. })
            | (SigRepr::Bloom { bits: a, .. }, SigRepr::Bloom { bits: b, .. })
            | (SigRepr::PermutedDbs { bits: a, .. }, SigRepr::PermutedDbs { bits: b, .. }) => {
                a.union_with(b)
            }
            _ => panic!("cannot union signatures of different kinds"),
        }
    }

    /// Whether the two sets may overlap: a word-wise AND scan for hashed
    /// signatures (no per-address probing). Conservative in exactly the way
    /// the underlying filters are.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (different variants or sizes).
    pub fn intersects_repr(&self, other: &SigRepr) -> bool {
        match (self, other) {
            (SigRepr::Perfect(a), SigRepr::Perfect(b)) => a.intersects(b),
            (SigRepr::BitSelect { bits: a, .. }, SigRepr::BitSelect { bits: b, .. })
            | (SigRepr::CoarseBitSelect { bits: a, .. }, SigRepr::CoarseBitSelect { bits: b, .. })
            | (SigRepr::DoubleBitSelect { bits: a, .. }, SigRepr::DoubleBitSelect { bits: b, .. })
            | (SigRepr::Bloom { bits: a, .. }, SigRepr::Bloom { bits: b, .. })
            | (SigRepr::PermutedDbs { bits: a, .. }, SigRepr::PermutedDbs { bits: b, .. }) => {
                a.intersects(b)
            }
            _ => panic!("cannot intersect signatures of different kinds"),
        }
    }

    /// Captures the state in the same wire format as the boxed signatures
    /// (so saves interconvert freely across the API edge).
    pub fn save_state(&self) -> SavedSignature {
        match self {
            SigRepr::Perfect(p) => p.save(),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => SavedSignature::Bits(bits.words().to_vec()),
        }
    }

    /// Restores previously saved state.
    ///
    /// # Panics
    ///
    /// Panics if the saved shape does not match this representation.
    pub fn restore_saved(&mut self, saved: &SavedSignature) {
        match (&mut *self, saved) {
            (SigRepr::Perfect(p), _) => p.restore(saved),
            (
                SigRepr::BitSelect { bits, .. }
                | SigRepr::CoarseBitSelect { bits, .. }
                | SigRepr::DoubleBitSelect { bits, .. }
                | SigRepr::Bloom { bits, .. }
                | SigRepr::PermutedDbs { bits, .. },
                SavedSignature::Bits(words),
            ) => bits.load_words(words),
            _ => panic!("saved state shape mismatch"),
        }
    }

    /// Occupied fraction, matching the boxed implementations' definition.
    pub fn fill(&self) -> f64 {
        match self {
            SigRepr::Perfect(p) => p.saturation(),
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => bits.set_count() as f64 / bits.len() as f64,
        }
    }

    /// Hardware cost in bits (0 for perfect).
    pub fn bits_len(&self) -> usize {
        match self {
            SigRepr::Perfect(_) => 0,
            SigRepr::BitSelect { bits, .. }
            | SigRepr::CoarseBitSelect { bits, .. }
            | SigRepr::DoubleBitSelect { bits, .. }
            | SigRepr::Bloom { bits, .. }
            | SigRepr::PermutedDbs { bits, .. } => bits.len(),
        }
    }
}

/// `SigRepr` is itself a [`Signature`], so it can stand wherever a boxed
/// trait object is expected (summary folding, analysis helpers) while the
/// hot path keeps calling the inherent inline methods.
impl Signature for SigRepr {
    fn insert(&mut self, a: u64) {
        self.insert_block(a);
    }

    fn maybe_contains(&self, a: u64) -> bool {
        self.test_block(a)
    }

    fn clear(&mut self) {
        self.clear_all();
    }

    fn is_empty(&self) -> bool {
        self.is_clear()
    }

    fn union_with(&mut self, other: &dyn Signature) {
        self.restore_merge(other.save());
    }

    fn save(&self) -> SavedSignature {
        self.save_state()
    }

    fn restore(&mut self, saved: &SavedSignature) {
        self.restore_saved(saved);
    }

    fn saturation(&self) -> f64 {
        self.fill()
    }

    fn storage_bits(&self) -> usize {
        self.bits_len()
    }

    fn clone_box(&self) -> Box<dyn Signature> {
        Box::new(self.clone())
    }
}

impl SigRepr {
    /// Unions a saved state into the current contents (trait-object union
    /// support, matching the boxed implementations' behaviour).
    fn restore_merge(&mut self, saved: SavedSignature) {
        match (&mut *self, saved) {
            (SigRepr::Perfect(p), SavedSignature::Exact(es)) => {
                for a in es {
                    Signature::insert(p, a);
                }
            }
            (
                SigRepr::BitSelect { bits, .. }
                | SigRepr::CoarseBitSelect { bits, .. }
                | SigRepr::DoubleBitSelect { bits, .. }
                | SigRepr::Bloom { bits, .. }
                | SigRepr::PermutedDbs { bits, .. },
                SavedSignature::Bits(words),
            ) => {
                let mut tmp = SigBits::new(bits.len());
                tmp.load_words(&words);
                bits.union_with(&tmp);
            }
            (SigRepr::Perfect(_), SavedSignature::Bits(_)) => {
                panic!("cannot union a hashed signature into a perfect signature")
            }
            (_, SavedSignature::Exact(_)) => {
                panic!("cannot union a perfect signature into a hashed signature")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<SignatureKind> {
        vec![
            SignatureKind::Perfect,
            SignatureKind::paper_bs_2kb(),
            SignatureKind::paper_bs_64(),
            SignatureKind::paper_cbs_2kb(),
            SignatureKind::paper_dbs_2kb(),
            SignatureKind::Bloom { bits: 1024, k: 4 },
            SignatureKind::PermutedDbs { bits: 512 },
        ]
    }

    #[test]
    fn probe_matches_test_block_for_every_kind() {
        for kind in all_kinds() {
            let mut a = SigRepr::new(&kind);
            let mut b = SigRepr::new(&kind); // differently filled second target
            for i in 0..200u64 {
                a.insert_block(mix64(i) >> 24);
                b.insert_block(mix64(i ^ 0xF00D) >> 24);
            }
            for i in 0..20_000u64 {
                let addr = mix64(i.wrapping_mul(31)) >> 22;
                let p = a.probe(addr);
                assert_eq!(a.test_probe(&p), a.test_block(addr), "{kind} self");
                assert_eq!(b.test_probe(&p), b.test_block(addr), "{kind} other");
            }
        }
    }

    #[test]
    fn test_bits_matches_test_probe_for_hashed_kinds() {
        for kind in all_kinds() {
            if matches!(kind, SignatureKind::Perfect) {
                continue;
            }
            let mut s = SigRepr::new(&kind);
            for i in 0..150u64 {
                s.insert_block(mix64(i) >> 24);
            }
            let bits = s.filter_bits().expect("hashed kind has a filter");
            for i in 0..5_000u64 {
                let addr = mix64(i ^ 0xBEEF) >> 22;
                let p = s.probe(addr);
                assert!(matches!(p, SigProbe::Indices { .. }), "{kind}");
                assert_eq!(p.test_bits(bits), s.test_block(addr), "{kind}");
            }
        }
    }

    #[test]
    fn perfect_has_no_filter_bits() {
        let s = SigRepr::new(&SignatureKind::Perfect);
        assert!(s.filter_bits().is_none());
    }

    #[test]
    #[should_panic(expected = "fallback probe")]
    fn fallback_probe_rejects_raw_bits() {
        let perfect = SigRepr::new(&SignatureKind::Perfect);
        let hashed = SigRepr::new(&SignatureKind::paper_bs_2kb());
        let p = perfect.probe(1);
        p.test_bits(hashed.filter_bits().unwrap());
    }

    #[test]
    fn wide_bloom_probe_falls_back() {
        let kind = SignatureKind::Bloom { bits: 4096, k: 12 };
        let mut s = SigRepr::new(&kind);
        s.insert_block(99);
        let p = s.probe(99);
        assert!(matches!(p, SigProbe::Fallback(99)));
        assert!(s.test_probe(&p));
        assert!(!s.test_probe(&s.probe(100)));
    }

    #[test]
    fn matches_boxed_membership_bit_for_bit() {
        for kind in all_kinds() {
            let mut boxed = kind.build();
            let mut repr = SigRepr::new(&kind);
            for i in 0..300u64 {
                let a = i.wrapping_mul(0x9E37_79B9).wrapping_add(i << 20);
                boxed.insert(a);
                repr.insert_block(a);
            }
            for probe in 0..20_000u64 {
                assert_eq!(
                    boxed.maybe_contains(probe),
                    repr.test_block(probe),
                    "{kind} diverges at probe {probe}"
                );
            }
            assert_eq!(boxed.save(), repr.save_state(), "{kind} words differ");
            assert_eq!(boxed.saturation(), repr.fill(), "{kind}");
            assert_eq!(boxed.storage_bits(), repr.bits_len(), "{kind}");
        }
    }

    #[test]
    fn from_boxed_roundtrips() {
        for kind in all_kinds() {
            let mut boxed = kind.build();
            for a in [1u64, 77, 4096, 1 << 33] {
                boxed.insert(a);
            }
            let repr = SigRepr::from_boxed(&kind, boxed.as_ref());
            for a in [1u64, 77, 4096, 1 << 33] {
                assert!(repr.test_block(a), "{kind}");
            }
            assert_eq!(repr.save_state(), boxed.save(), "{kind}");
        }
    }

    #[test]
    fn clear_and_union() {
        for kind in all_kinds() {
            let mut a = SigRepr::new(&kind);
            let mut b = SigRepr::new(&kind);
            a.insert_block(10);
            b.insert_block(20);
            assert!(!a.is_clear());
            a.union_repr(&b);
            assert!(a.test_block(10) && a.test_block(20), "{kind}");
            a.clear_all();
            assert!(a.is_clear(), "{kind}");
        }
    }

    #[test]
    fn intersects_is_conservative_and_detects_overlap() {
        for kind in all_kinds() {
            let mut a = SigRepr::new(&kind);
            let mut b = SigRepr::new(&kind);
            a.insert_block(42);
            assert!(!SigRepr::new(&kind).intersects_repr(&a), "{kind}: empty");
            b.insert_block(42);
            assert!(a.intersects_repr(&b), "{kind}: shared element must hit");
        }
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn union_kind_mismatch_panics() {
        let mut a = SigRepr::new(&SignatureKind::paper_bs_2kb());
        let b = SigRepr::new(&SignatureKind::paper_dbs_2kb());
        a.union_repr(&b);
    }

    #[test]
    fn trait_object_interop() {
        let kind = SignatureKind::paper_dbs_2kb();
        let mut repr = SigRepr::new(&kind);
        repr.insert_block(123);
        // A boxed signature can union a SigRepr through the trait.
        let mut boxed = kind.build();
        boxed.union_with(&repr);
        assert!(boxed.maybe_contains(123));
        // And vice versa.
        let mut repr2 = SigRepr::new(&kind);
        Signature::union_with(&mut repr2, boxed.as_ref());
        assert!(repr2.test_block(123));
    }

    #[test]
    fn rehash_page_matches_boxed() {
        for kind in all_kinds() {
            let mut boxed = kind.build();
            let mut repr = SigRepr::new(&kind);
            boxed.insert(100);
            repr.insert_block(100);
            boxed.rehash_page(64, 512, 64);
            Signature::rehash_page(&mut repr, 64, 512, 64);
            assert_eq!(boxed.save(), repr.save_state(), "{kind}");
        }
    }
}

