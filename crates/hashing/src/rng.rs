//! The workspace's seeded generator.
//!
//! Every random choice the engine makes — the k-wise hash
//! coefficients and fingerprint points of each `ℓ0`-sampler
//! (Lemma 3.1), the graph generators of `mpc-graph`, the property-test
//! cases — is drawn from [`StdRng`], seeded with
//! [`StdRng::seed_from_u64`]. The w.h.p. bounds of the paper hold over
//! those draws; this workspace fixes them by seed instead, so the
//! generator is part of the algorithm's definition: every golden
//! digest and every snapshot byte is a function of its output.
//!
//! The stream is xoshiro256++ whose four state words are the first
//! four outputs of [`splitmix64`] from the seed. `gen_range` reduces a
//! word by rejection above the largest multiple of the span
//! (exactly uniform), `gen_bool` and `f64` ranges use the top 53
//! bits, and `shuffle` is Fisher–Yates from the back. None of that may
//! change: `seeded_outputs_are_pinned` below records the stream, and
//! it fails before any golden does.
//!
//! # Examples
//!
//! ```
//! use mpc_hashing::rng::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x: u32 = rng.gen_range(0..10);
//! assert!(x < 10);
//! assert_eq!(StdRng::seed_from_u64(7).gen_range(0..10u32), x);
//! ```

use core::ops::{Range, RangeInclusive};

/// One SplitMix64 step: advances `state` and returns the next output.
///
/// It seeds [`StdRng`], and it is a generator in its own right for
/// streams that must not depend on anything but this arithmetic (the
/// golden-digest tests draw from it directly).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's generator: xoshiro256++ seeded through
/// [`splitmix64`].
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Builds a generator whose stream is a deterministic function of
    /// `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Samples uniformly from `range`: a half-open or inclusive
    /// integer range, or a half-open `f64` range.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — a probability outside [0, 1] is a caller bug"
    )]
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
        unit_f64(self.next_u64()) < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

/// A range [`StdRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

/// The top 53 bits of `word` as a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform in `0..n`: rejects words above the largest multiple of `n`
/// that fits in a `u64`, so the reduction is exact.
///
/// # Panics
///
/// In debug builds, panics if `n == 0`.
#[inline]
#[expect(
    clippy::disallowed_macros,
    reason = "a debug_assert!, which clippy reads as the assert! it expands to; every caller passes a nonzero span"
)]
fn uniform_below(rng: &mut StdRng, n: u64) -> u64 {
    debug_assert!(n > 0);
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

/// The one precondition of every [`SampleRange`].
///
/// # Panics
///
/// Panics if `nonempty` is false.
#[inline]
#[expect(
    clippy::disallowed_macros,
    reason = "documented \"# Panics\" precondition — an empty range has nothing to sample"
)]
fn ensure_nonempty(nonempty: bool) {
    assert!(nonempty, "gen_range: empty range");
}

/// Half-open ranges of `$t`, whose span is computed in the unsigned
/// type `$u` of the same width.
macro_rules! impl_sample_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                ensure_nonempty(self.start < self.end);
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                self.start.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_sample_range!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i32 => u32, i64 => u64, isize => usize
);

macro_rules! impl_sample_range_inclusive {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                ensure_nonempty(start <= end);
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_range_inclusive!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        ensure_nonempty(self.start < self.end);
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(3..17u32);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5..=9usize);
            assert!((5..=9).contains(&y));
            let z = rng.gen_range(-4..4i64);
            assert!((-4..4).contains(&z));
            let f = rng.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&hits), "p=0.5 gave {hits}/10000");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn empty_half_open_range_panics() {
        let (start, end) = (3u32, 3u32);
        StdRng::seed_from_u64(5).gen_range(start..end);
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn empty_inclusive_range_panics() {
        let (start, end) = (4usize, 3usize);
        StdRng::seed_from_u64(5).gen_range(start..=end);
    }

    #[test]
    #[should_panic(expected = "gen_bool: p = 1.5 out of range")]
    fn gen_bool_above_one_panics() {
        StdRng::seed_from_u64(5).gen_bool(1.5);
    }

    /// Known answers, recorded from this implementation: every seeded
    /// stream in the workspace (hash coefficients, graph generators,
    /// property cases, and through them every golden digest and
    /// snapshot byte) is this generator's output, so any change to it
    /// must fail here first.
    #[test]
    fn seeded_outputs_are_pinned() {
        let mut rng = StdRng::seed_from_u64(0);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a
            ]
        );

        // One stream through every sampler, in order.
        let mut rng = StdRng::seed_from_u64(7);
        macro_rules! four {
            ($($draw:tt)*) => {
                (0..4).map(|_| rng.$($draw)*).collect::<Vec<_>>()
            };
        }
        assert_eq!(four!(gen_range(0..200u8)), [61, 116, 178, 156]);
        assert_eq!(four!(gen_range(0..=u8::MAX)), [118, 137, 128, 40]);
        assert_eq!(four!(gen_range(100..60_000u16)), [14865, 45269, 6441, 8090]);
        assert_eq!(four!(gen_range(3..17u32)), [8, 12, 14, 4]);
        assert_eq!(
            four!(gen_range(0..=u32::MAX)),
            [3423823333, 314747582, 2353255723, 2747708316]
        );
        assert_eq!(
            four!(gen_range(0..1u64 << 48)),
            [
                117784090361332,
                174183981380180,
                247639255943523,
                235462759498162
            ]
        );
        assert_eq!(
            four!(gen_range(0..=u64::MAX)),
            [
                0xd7c7_fc5d_5daa_fb0e,
                0x017b_70be_b6f8_1a0c,
                0x0163_19a0_b87a_7819,
                0x1edc_5ff1_a2b0_8acd
            ]
        );
        assert_eq!(four!(gen_range(0..1000usize)), [631, 411, 336, 936]);
        assert_eq!(four!(gen_range(5..=9usize)), [8, 5, 9, 9]);
        assert_eq!(four!(gen_range(-50..50i32)), [-41, 14, -7, 47]);
        assert_eq!(four!(gen_range(-4..4i64)), [3, 2, 3, 0]);
        assert_eq!(four!(gen_range(-1000..-10isize)), [-713, -529, -391, -626]);
        assert_eq!(
            four!(gen_range(0.25..0.75f64).to_bits()),
            [
                0x3fd9_850b_03de_06a7,
                0x3fe5_90a9_b189_cdc6,
                0x3fd1_c04a_68ee_e2a3,
                0x3fe0_81b8_bcd3_5bf0
            ]
        );
        let coins: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.5)).collect();
        assert_eq!(coins, [true, false, false, false, true, true, false, true]);
        let mut v: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [3, 2, 6, 0, 9, 1, 5, 7, 4, 8]);
    }
}
