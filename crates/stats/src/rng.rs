//! Deterministic seed derivation and the workspace's random streams.
//!
//! Every experiment in the repository is parameterised by a single `u64`
//! seed. Sub-systems (population generator, samplers, per-account jitter)
//! derive independent streams from that master seed with [`derive_seed`], so
//! adding a new consumer never perturbs the streams of existing ones.
//!
//! The generator is [`StdRng`], xoshiro256\*\* seeded through splitmix64,
//! with the draws the workspace makes under rand 0.8's names: [`Rng`]'s
//! `gen` and `gen_range`, [`SliceRandom`]'s `shuffle` and `choose`, and
//! [`index::sample`]. Its streams are pinned by known-answer tests, so a
//! seed's output never depends on a dependency's release.

use std::collections::HashSet;
use std::ops::{Range, RangeInclusive};

/// Derives a child seed from a master seed and a textual label.
///
/// The derivation is a small, fixed FNV-1a-style mix — stable across
/// platforms and Rust releases (unlike `DefaultHasher`), which keeps every
/// table in `EXPERIMENTS.md` bit-reproducible.
///
/// ```
/// use fakeaudit_stats::rng::derive_seed;
/// let a = derive_seed(42, "population");
/// let b = derive_seed(42, "sampler");
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, "population"));
/// ```
pub fn derive_seed(master: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ master.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for byte in label.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche so nearby seeds diverge.
    mix64(h)
}

/// Creates a [`StdRng`] from a master seed and label via [`derive_seed`].
///
/// ```
/// use fakeaudit_stats::rng::{rng_for, Rng};
/// let mut r = rng_for(7, "demo");
/// let x: f64 = r.gen();
/// assert!((0.0..1.0).contains(&x));
/// ```
pub fn rng_for(master: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, label))
}

/// Creates a [`StdRng`] for the `i`-th element of a keyed family of streams
/// (e.g. one stream per synthetic account).
pub fn rng_for_indexed(master: u64, label: &str, index: u64) -> StdRng {
    let base = derive_seed(master, label);
    StdRng::seed_from_u64(derive_seed(base, &format!("#{index}")))
}

/// The splitmix64 finaliser: an avalanche of one word.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One splitmix64 step: advances `state` and returns its mixed word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

/// A word's top 53 bits as a uniform draw in `[0, 1)`.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A splitmix64 uniform stream: one word of state, for streams that need
/// only bits and unit floats.
///
/// Fault schedules draw from it, and committed golden fixtures pin their
/// exact draw sequence.
///
/// ```
/// use fakeaudit_stats::rng::DetStream;
/// let mut a = DetStream::new(7, "faults");
/// let mut b = DetStream::new(7, "faults");
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!((0.0..1.0).contains(&a.next_f64()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetStream {
    state: u64,
}

impl DetStream {
    /// A stream seeded from a master seed and label via [`derive_seed`].
    pub fn new(master: u64, label: &str) -> DetStream {
        DetStream {
            state: derive_seed(master, label),
        }
    }

    /// The next 64 uniform bits (one splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// The next uniform draw in `[0, 1)`, at 53-bit resolution.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// A source of random words and the draws built on them (rand 0.8's
/// `RngCore` and `Rng` in one trait).
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A value of a [`Standard`] type: an `f64` uniform in `[0, 1)`, or a
    /// raw `u64`.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniform over `range`, half-open or inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform, G: SampleRange<T>>(&mut self, range: G) -> T {
        range.sample_single(self)
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// xoshiro256\*\*: the workspace's seeded generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for StdRng {
    /// The state is four consecutive splitmix64 words from `state`.
    fn seed_from_u64(mut state: u64) -> Self {
        let s = [
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        ];
        StdRng { s }
    }
}

/// Types [`Rng::gen`] can draw.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for u64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Types [`Rng::gen_range`] can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)`.
    fn in_range<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform in `[low, high]`.
    fn in_range_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Uniform in `[0, span)` for `1 <= span <= 2^64`: the widening multiply
/// of one word.
fn below<R: Rng + ?Sized>(rng: &mut R, span: u128) -> u128 {
    (u128::from(rng.next_u64()) * span) >> 64
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn in_range<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128;
                (low as i128 + below(rng, span) as i128) as $t
            }
            fn in_range_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128 + 1;
                (low as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

uniform_int!(u8, i32, i64, u64, usize);

impl SampleUniform for f64 {
    /// `low + (high - low) * u`; a product that rounds up to `high` yields
    /// `low`.
    fn in_range<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        let x = low + (high - low) * rng.gen::<f64>();
        if x < high {
            x
        } else {
            low
        }
    }
    fn in_range_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low <= high, "gen_range: empty range");
        (low + (high - low) * rng.gen::<f64>()).min(high)
    }
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::in_range(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::in_range_inclusive(rng, low, high)
    }
}

/// Shuffling and choosing over slices.
pub trait SliceRandom {
    /// The element type.
    type Item;
    /// Fisher–Yates shuffle in place, from the last element down.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    /// One uniformly chosen element, `None` when empty.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }
}

/// Index sampling without replacement.
pub mod index {
    use super::{HashSet, Rng};

    /// Distinct indices drawn from `0..length`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct IndexVec(Vec<usize>);

    impl IndexVec {
        /// The indices, in draw order.
        pub fn into_vec(self) -> Vec<usize> {
            self.0
        }
    }

    /// `amount` distinct indices uniform over `0..length`: a partial
    /// Fisher–Yates shuffle when `amount` is at least a quarter of
    /// `length`, Floyd's algorithm below that.
    ///
    /// # Panics
    ///
    /// Panics if `amount > length`.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
        assert!(amount <= length, "index::sample: amount exceeds length");
        if amount * 4 >= length {
            let mut all: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                all.swap(i, j);
            }
            all.truncate(amount);
            return IndexVec(all);
        }
        let mut chosen = HashSet::with_capacity(amount);
        let mut out = Vec::with_capacity(amount);
        for j in (length - amount)..length {
            let t = rng.gen_range(0..=j);
            let pick = if chosen.contains(&t) { j } else { t };
            chosen.insert(pick);
            out.push(pick);
        }
        IndexVec(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(1, "x"), derive_seed(1, "x"));
    }

    #[test]
    fn derive_seed_separates_labels() {
        assert_ne!(derive_seed(1, "x"), derive_seed(1, "y"));
    }

    #[test]
    fn derive_seed_separates_masters() {
        assert_ne!(derive_seed(1, "x"), derive_seed(2, "x"));
    }

    #[test]
    fn derive_seed_nearby_masters_diverge() {
        // splitmix finaliser: consecutive masters should not produce
        // consecutive child seeds.
        let a = derive_seed(100, "s");
        let b = derive_seed(101, "s");
        assert!(a.abs_diff(b) > 1 << 20);
    }

    #[test]
    fn rng_for_reproduces_streams() {
        let xs: Vec<u64> = {
            let mut r = rng_for(9, "stream");
            (0..8).map(|_| r.gen()).collect()
        };
        let ys: Vec<u64> = {
            let mut r = rng_for(9, "stream");
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(xs, ys);
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let mut a = rng_for_indexed(3, "acct", 0);
        let mut b = rng_for_indexed(3, "acct", 1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
    }

    #[test]
    fn empty_label_is_valid() {
        // Degenerate but allowed: an empty label still yields a usable seed.
        let s = derive_seed(5, "");
        assert_ne!(s, 5);
    }

    #[test]
    fn det_stream_is_reproducible_and_label_separated() {
        let draws = |master, label: &str| {
            let mut s = DetStream::new(master, label);
            (0..16).map(|_| s.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(3, "a"), draws(3, "a"));
        assert_ne!(draws(3, "a"), draws(3, "b"));
        assert_ne!(draws(3, "a"), draws(4, "a"));
    }

    // Known answers for the generator: any change to the xoshiro256**
    // step, its splitmix64 seeding, or how a draw consumes words or maps
    // them to values changes every seeded output in the repository.

    #[test]
    fn std_rng_words_match_the_known_answers() {
        let words = |seed| {
            let mut r = StdRng::seed_from_u64(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(
            words(0),
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0,
                0x6aa5_94f1_262d_2d2c,
                0xbba5_ad4a_1f84_2e59,
                0xffef_8375_d9eb_caca,
                0x6c16_0dee_d2f5_4c98,
                0x8920_ad64_8fc3_0a3f,
            ]
        );
        assert_eq!(
            words(1),
            [
                0xb3f2_af6d_0fc7_10c5,
                0x853b_5596_4736_4cea,
                0x92f8_9756_082a_4514,
                0x642e_1c7b_c266_a3a7,
                0xb27a_48e2_9a23_3673,
                0x24c1_2312_6ffd_a722,
                0x1230_04ef_8df5_10e6,
                0x6195_4dcc_47b1_e89d,
            ]
        );
        assert_eq!(
            words(2014),
            [
                0x1c7c_d458_21c6_a3b6,
                0x7d00_d37d_82ce_f61b,
                0x5f40_6e60_4792_4fef,
                0x4ff5_bab2_f60a_0607,
                0xff86_db88_a620_e90d,
                0x8eff_34a1_de94_d867,
                0x988b_a8f6_7eed_ce18,
                0x829b_e309_b40c_27ef,
            ]
        );
    }

    #[test]
    fn draws_match_the_known_answers() {
        // One stream, so a draw that consumes one word too many or too few
        // also moves every answer after it.
        let mut r = StdRng::seed_from_u64(7);
        assert_eq!(r.gen::<f64>(), 0.700_576_482_179_689_6);
        assert_eq!(r.gen::<f64>(), 0.278_751_229_473_784_3);
        assert_eq!(r.gen::<u64>(), 15_488_392_906_492_639_638);
        assert_eq!(r.gen_range(0..3u8), 2);
        assert_eq!(r.gen_range(0..=u8::MAX), 253);
        assert_eq!(r.gen_range(-10_000..10_000i32), 7_455);
        assert_eq!(r.gen_range(-5..=5i32), -5);
        assert_eq!(r.gen_range(-3_000..3_000i64), -2_374);
        assert_eq!(r.gen_range(0..600u64), 242);
        assert_eq!(r.gen_range(0..1_000usize), 151);
        assert_eq!(r.gen_range(0..=9usize), 5);
        assert_eq!(r.gen_range(-100.0..100.0), 46.371_641_409_122_76);
        assert_eq!(r.gen_range(0.5..=0.95), 0.922_534_519_422_021_4);
        let mut v: Vec<usize> = (0..10).collect();
        v.shuffle(&mut r);
        assert_eq!(v, [5, 6, 3, 7, 0, 2, 1, 9, 4, 8]);
        assert_eq!([10, 20, 30, 40, 50].choose(&mut r), Some(&40));
        // Dense (8 * 4 >= 20): partial Fisher–Yates.
        assert_eq!(
            index::sample(&mut r, 20, 8).into_vec(),
            [5, 15, 4, 3, 13, 7, 12, 8]
        );
        // Sparse (8 * 4 < 33): Floyd; at j = 31 the draw is taken
        // already, so 31 is picked.
        assert_eq!(
            index::sample(&mut r, 33, 8).into_vec(),
            [3, 22, 27, 26, 12, 10, 31, 30]
        );
        // At 5 * 4 == 20 the dense branch still runs.
        assert_eq!(index::sample(&mut r, 20, 5).into_vec(), [19, 17, 5, 12, 6]);
    }

    #[test]
    fn det_stream_f64_is_uniformish() {
        let mut s = DetStream::new(11, "u");
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
