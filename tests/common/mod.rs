//! Seeded case generation for the property suites.
//!
//! Each property runs a fixed number of cases drawn in order from one
//! generator, so a failure names the index of a case that replays
//! exactly. The draws follow one convention, which keeps every suite's
//! cases the ones it has always run: a tuple's fields left to right, a
//! vector's length before its elements, a fair coin as
//! `gen_bool(0.5)`.

use mpc_stream::hashing::rng::StdRng;
use std::ops::Range;

/// The generator every property starts from; its seed spells
/// "proptest" in ASCII.
pub fn case_rng() -> StdRng {
    StdRng::seed_from_u64(0x7072_6F70_7465_7374)
}

/// A vector whose length is drawn from `len` before its elements are
/// drawn in order. A fixed length `k` is `k..k + 1`, which still
/// draws one word.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(len);
    (0..len).map(|_| element(rng)).collect()
}
