//! The benchmark's own random numbers: xoshiro256** seeded through
//! SplitMix64.
//!
//! Streams must not move when `vendor/rand` is swapped for the real
//! crate or `mpc_graph::gen` is edited, so nothing here depends on
//! either. The algorithms are the public-domain reference ones
//! (Blackman–Vigna); the unit tests pin their first outputs.

/// One SplitMix64 step: advances `state` and returns the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256**, the stream every generator in this benchmark draws
/// from.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expands `seed` into the 256-bit state with SplitMix64, as the
    /// reference implementation recommends.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, bound)` by the multiply-shift map (bias below
    /// `bound / 2^64`, far under anything a workload can observe).
    /// `bound` must be positive.
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "empty range");
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        // 53 uniform mantissa bits, the usual [0, 1) construction.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs of the reference splitmix64.c from state 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = Rng::seeded(0xB11);
        let mut b = Rng::seeded(0xB11);
        let mut c = Rng::seeded(0xB12);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::seeded(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_tracks_its_probability() {
        let mut r = Rng::seeded(2);
        let hits = (0..20_000).filter(|_| r.chance(0.15)).count();
        assert!((2_600..3_400).contains(&hits), "{hits}");
    }
}
