//! Seedable, dependency-free pseudo-random number generators.
//!
//! Every stochastic decision in the simulator (workload access patterns,
//! run perturbation, abort backoff jitter) draws from these generators so
//! that a run is exactly reproducible from `(config, seed)`. The paper's
//! methodology (§6.1) pseudo-randomly perturbs each simulation to produce
//! 95 % confidence intervals; we reproduce that by running each datapoint
//! under several seeds.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — tiny, fast, used for seeding and one-shot hashing.
//! * [`Xoshiro256StarStar`] — the workhorse stream generator.

/// SplitMix64: a 64-bit generator with excellent avalanche behaviour,
/// primarily used to expand a single `u64` seed into independent streams.
///
/// Algorithm from Sebastiano Vigna's public-domain reference implementation.
///
/// # Example
///
/// ```
/// use ltse_sim::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot 64→64-bit mix with strong avalanche; handy for hashing addresses
/// into signature bit positions.
///
/// ```
/// use ltse_sim::rng::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(7), mix64(7));
/// ```
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Hasher`](std::hash::Hasher) built on [`mix64`]: one mix per 64-bit
/// word written. The simulator's address-keyed maps and sets use it instead
/// of std's SipHash, which is randomly keyed per process and costs several
/// times more per lookup; simulated addresses need neither property. The
/// same keys hash the same way in every process.
///
/// Byte input is folded eight bytes at a time (little-endian, the last
/// chunk zero-padded), so every `Hash` implementation works, not only
/// integer keys.
///
/// ```
/// use std::collections::HashSet;
/// use ltse_sim::rng::Mix64BuildHasher;
///
/// let mut blocks: HashSet<u64, Mix64BuildHasher> = HashSet::default();
/// blocks.insert(0x40);
/// assert!(blocks.contains(&0x40));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix64Hasher {
    state: u64,
}

impl std::hash::Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = mix64(self.state ^ x);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// Builds [`Mix64Hasher`]s: the `S` parameter of the simulator's
/// `HashMap`/`HashSet`s (construct them with `default()`).
pub type Mix64BuildHasher = std::hash::BuildHasherDefault<Mix64Hasher>;

/// xoshiro256**: the general-purpose stream generator used throughout the
/// simulator.
///
/// Algorithm by Blackman & Vigna (public domain). State is seeded through
/// [`SplitMix64`] per the authors' recommendation, so any `u64` seed —
/// including zero — yields a valid nonzero state.
///
/// # Example
///
/// ```
/// use ltse_sim::rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::new(7);
/// let x = rng.gen_range(0, 10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[lo, hi)` via Lemire's unbiased bounded sampling.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range requires lo < hi (got {lo}..{hi})");
        let span = hi - lo;
        // Lemire's method: multiply-shift with rejection for the biased zone.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(0, n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53-bit mantissa comparison keeps this exact for p in [0,1].
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Samples a geometric-ish skewed index in `[0, n)`: index 0 is hottest,
    /// each subsequent index half as likely. Useful for modelling the hot
    /// metadata blocks that dominate the paper's BerkeleyDB lock subsystem.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_skewed_index(&mut self, n: usize) -> usize {
        assert!(n > 0);
        let mut i = 0;
        while i + 1 < n && self.gen_bool(0.5) {
            i += 1;
        }
        i
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Splits off an independently-seeded child generator; used to give each
    /// simulated thread its own stream.
    pub fn split(&mut self) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(1);
        let mut c = Xoshiro256StarStar::new(2);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Xoshiro256StarStar::new(9);
        for _ in 0..10_000 {
            let v = rng.gen_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = Xoshiro256StarStar::new(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values should appear");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Xoshiro256StarStar::new(3);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_roughly_calibrated() {
        let mut rng = Xoshiro256StarStar::new(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn skewed_index_prefers_low_indices() {
        let mut rng = Xoshiro256StarStar::new(17);
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            counts[rng.gen_skewed_index(4)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256StarStar::new(23);
        let mut xs: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn split_streams_diverge() {
        let mut root = Xoshiro256StarStar::new(31);
        let mut a = root.split();
        let mut b = root.split();
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn mix64_hasher_is_deterministic_and_total() {
        use std::hash::{BuildHasher, Hasher};
        let build = Mix64BuildHasher::default();
        // Integer keys: one mix of the key, identical across hashers.
        assert_eq!(build.hash_one(7u64), mix64(7));
        assert_eq!(
            build.hash_one(7u64),
            Mix64BuildHasher::default().hash_one(7u64)
        );
        // Byte input of any length is folded, never rejected: an exact
        // 8-byte chunk hashes like the equal integer, and a short tail is
        // zero-padded.
        let bytes = |b: &[u8]| {
            let mut h = Mix64Hasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(bytes(&7u64.to_le_bytes()), mix64(7));
        assert_eq!(bytes(&[1, 2, 3]), mix64(0x03_02_01));
        assert_eq!(bytes(&[]), 0);
        assert_ne!(bytes(&[0; 9]), bytes(&[0; 8]), "each chunk mixes");
        // Strings, tuples and slices go through `write`.
        assert_ne!(build.hash_one("abc"), build.hash_one("abd"));
        assert_ne!(build.hash_one((1u32, 2u8)), build.hash_one((2u32, 1u8)));
        assert_ne!(
            build.hash_one([1u16, 2, 3].as_slice()),
            build.hash_one([1u16, 2].as_slice())
        );
    }

    #[test]
    fn mix64_avalanches() {
        // flipping one input bit should flip roughly half the output bits
        let base = mix64(0x1234_5678);
        let flipped = mix64(0x1234_5679);
        let diff = (base ^ flipped).count_ones();
        assert!((16..=48).contains(&diff), "weak avalanche: {diff} bits");
    }
}
