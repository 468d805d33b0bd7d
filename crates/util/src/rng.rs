//! Deterministic, seedable pseudo-random number generation.
//!
//! The whole reproduction depends on bit-for-bit reproducible runs: dataset
//! generators, property-test case generation and the figure harnesses all
//! derive from seeds recorded in `EXPERIMENTS.md`. Owning the generator
//! in-repo pins the exact sequence forever, independent of any external
//! crate's version bumps.
//!
//! Two classic generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit state mixer. Used to expand a single
//!   `u64` seed into larger state and to derive independent per-case seeds.
//! * [`Rng`] — xoshiro256++, a fast general-purpose generator with 256 bits
//!   of state, seeded from a `u64` via SplitMix64 (the seeding procedure its
//!   authors recommend).
//!
//! [`Rng`] carries the sampling helpers the workloads need: uniform ranges
//! over integers and floats, Bernoulli draws, Fisher–Yates [`Rng::shuffle`]
//! and [`Rng::weighted_choice`].

/// SplitMix64: one multiply-xorshift round per output.
///
/// Passes BigCrush on its own; here it mostly turns one seed word into many
/// decorrelated words (xoshiro state, per-case seeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the repo's general-purpose deterministic generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single word by running SplitMix64, as the
    /// xoshiro reference implementation recommends.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Rng { s }
    }

    /// The next uniformly distributed 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `range` (half-open, `lo..hi`).
    ///
    /// Works for the integer types used across the repo and for `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T: UniformRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from `[0, bound)` without modulo bias
    /// (Lemire's multiply-shift rejection method).
    #[inline]
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded_u64 needs a non-zero bound");
        // Widening multiply maps a 64-bit draw onto [0, bound); reject the
        // low-product draws that would make some buckets one draw larger.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }

    /// Index drawn proportionally to `weights` (e.g. `[3, 1]` picks index 0
    /// three times as often as index 1).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_choice(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weighted_choice needs a positive total weight");
        let mut draw = self.bounded_u64(total);
        for (i, &w) in weights.iter().enumerate() {
            let w = w as u64;
            if draw < w {
                return i;
            }
            draw -= w;
        }
        unreachable!("draw below total weight")
    }
}

/// Types [`Rng::gen_range`] can sample uniformly over a half-open range.
pub trait UniformRange: Copy + PartialOrd {
    /// A uniform draw from `[lo, hi)`.
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            #[inline]
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range over empty range {lo}..{hi}");
                let span = (hi as i128 - lo as i128) as u64;
                lo.wrapping_add(rng.bounded_u64(span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformRange for f64 {
    #[inline]
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range over empty range {lo}..{hi}");
        let v = lo + rng.gen_f64() * (hi - lo);
        // Guard against rounding up to the excluded endpoint.
        if v < hi {
            v
        } else {
            lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567, from the public-domain reference
        // implementation by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_streams_are_deterministic_and_seed_sensitive() {
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        let mut c = Rng::seed_from_u64(100);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn bounded_draws_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1 << 33] {
            for _ in 0..200 {
                assert!(rng.bounded_u64(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Rng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut fnv = crate::Fnv::new();
        words.into_iter().for_each(|w| fnv.push(w));
        fnv.finish()
    }

    /// Every sampling helper's stream, digit for digit: 100,000 draws each
    /// from a fresh seed, `f64`s by their bits. The dataset generators, and
    /// through them every simulated number, depend on these, so an edit that
    /// moves one (a reordered float operation, a changed rejection test)
    /// fails here rather than as a moved fingerprint downstream.
    #[test]
    fn sampling_streams_are_pinned() {
        type Draw = fn(&mut Rng) -> u64;
        let streams: [(&str, Draw, u64); 10] = [
            ("f64 in 0.0001..1.0", |r| r.gen_range(0.0001..1.0).to_bits(), 0xfc15_4103_f168_132d),
            ("f64 in 0.0..1.0", |r| r.gen_range(0.0..1.0).to_bits(), 0x0b1a_d9de_ebf9_f4d9),
            ("f64 in -1.0..1.0", |r| r.gen_range(-1.0..1.0).to_bits(), 0xc6e4_f8a7_a557_c5fa),
            ("u64 in 0..100", |r| r.gen_range(0u64..100), 0x3007_34a1_fec7_726d),
            ("gen_bool(0.5)", |r| r.gen_bool(0.5) as u64, 0x59db_45e4_3670_65e4),
            ("bounded_u64(1)", |r| r.bounded_u64(1), 0xe3db_d3f7_83ed_c725),
            ("bounded_u64(3)", |r| r.bounded_u64(3), 0xcd21_05d0_f0c7_9b87),
            ("bounded_u64(10)", |r| r.bounded_u64(10), 0x278b_2fcd_6ddb_66e8),
            ("bounded_u64(2^33)", |r| r.bounded_u64(1 << 33), 0xe1e3_0810_2833_3d34),
            // Rejects about half its draws.
            ("bounded_u64(2^63 + 1)", |r| r.bounded_u64((1 << 63) + 1), 0x4f5b_adde_baee_10e8),
        ];
        let mut digests: Vec<(&str, u64, u64)> = streams
            .into_iter()
            .map(|(name, draw, pinned)| {
                let mut rng = Rng::seed_from_u64(2026);
                (name, digest((0..100_000).map(|_| draw(&mut rng))), pinned)
            })
            .collect();
        // 100 successive shuffles of 0..1000: ~100,000 bounded draws.
        let mut rng = Rng::seed_from_u64(2026);
        let mut v: Vec<u64> = (0..1000).collect();
        let shuffles = digest((0..100).flat_map(|_| {
            rng.shuffle(&mut v);
            v.clone()
        }));
        digests.push(("shuffle(0..1000)", shuffles, 0xb024_9de4_4c25_cee5));
        let moved: Vec<String> = digests
            .into_iter()
            .filter(|&(_, got, pinned)| got != pinned)
            .map(|(name, got, pinned)| format!("{name}: {pinned:#018x} -> {got:#018x}"))
            .collect();
        assert!(moved.is_empty(), "sampling streams moved:\n{}", moved.join("\n"));
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = Rng::seed_from_u64(5);
        let mut counts = [0u32; 3];
        for _ in 0..6000 {
            counts[rng.weighted_choice(&[3, 1, 0])] += 1;
        }
        assert_eq!(counts[2], 0, "zero weight never chosen");
        assert!(counts[0] > 2 * counts[1], "3:1 skew visible: {counts:?}");
    }
}
