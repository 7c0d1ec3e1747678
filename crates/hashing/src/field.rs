//! Arithmetic in the Mersenne-prime field `GF(p)` with `p = 2^61 - 1`.
//!
//! All sketch fingerprints and hash families in this workspace work
//! over this field. Elements are stored as `u64` values in `[0, p)`.

/// The Mersenne prime `2^61 - 1`.
pub const P: u64 = (1u64 << 61) - 1;

/// A field element of `GF(2^61 - 1)`.
///
/// The wrapped value is always kept reduced into `[0, P)`.
///
/// # Examples
///
/// ```
/// use mpc_hashing::field::M61;
///
/// let a = M61::new(5);
/// let b = M61::new(7);
/// assert_eq!((a * b).value(), 35);
/// assert_eq!((a - b) + b, a);
/// ```
/// The `repr(transparent)` layout is a documented guarantee: an
/// `M61` is exactly one `u64` holding the canonical representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct M61(u64);

impl M61 {
    /// The additive identity.
    pub const ZERO: M61 = M61(0);
    /// The multiplicative identity.
    pub const ONE: M61 = M61(1);

    /// Creates a field element, reducing the input modulo `P`.
    #[inline]
    pub fn new(v: u64) -> Self {
        M61(reduce_once(v % (2 * P)))
    }

    /// Creates a field element from a signed integer (negative values
    /// map to the additive inverse of their magnitude).
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        if v >= 0 {
            M61::new(v as u64)
        } else {
            -M61::new(v.unsigned_abs())
        }
    }

    /// Creates a field element from a value that is **already
    /// reduced** into `[0, P)` — the fast constructor for kernel code
    /// whose arithmetic maintains the reduction invariant itself
    /// (e.g. a conditional-subtract modular add). Debug builds verify
    /// the claim; release builds trust it, so callers must only pass
    /// values below [`P`].
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub fn from_reduced(v: u64) -> Self {
        debug_assert!(v < P, "from_reduced got unreduced value {v}");
        M61(v)
    }

    /// Returns the canonical representative in `[0, P)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Raises `self` to the power `e` by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = M61::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            e >>= 1;
        }
        acc
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero (zero has no inverse).
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — zero has no inverse"
    )]
    pub fn inverse(self) -> Self {
        assert!(self.0 != 0, "zero has no multiplicative inverse");
        // Fermat: a^(p-2) = a^{-1} mod p.
        self.pow(P - 2)
    }

    /// Whether this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

// By hand: a tuple struct has no field names to list.
impl mpc_snapshot::Persist for M61 {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        w.put_u64(self.0);
    }
    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        let v = r.take_u64()?;
        if v >= P {
            return Err(mpc_snapshot::SnapshotError::Corrupt(format!(
                "field element {v} is not reduced modulo 2^61 - 1"
            )));
        }
        Ok(M61(v))
    }
}

/// One conditional subtraction, valid for inputs `< 2P`.
#[inline]
fn reduce_once(v: u64) -> u64 {
    if v >= P {
        v - P
    } else {
        v
    }
}

/// Reduces a 128-bit product modulo the Mersenne prime using the
/// identity `2^61 ≡ 1 (mod p)`.
#[inline]
fn reduce128(v: u128) -> u64 {
    let lo = (v as u64) & P;
    let hi = (v >> 61) as u64;
    reduce_once(reduce_once(lo + (hi & P)) + (hi >> 61))
}

impl std::ops::Add for M61 {
    type Output = M61;
    #[inline]
    fn add(self, rhs: M61) -> M61 {
        M61(reduce_once(self.0 + rhs.0))
    }
}

impl std::ops::AddAssign for M61 {
    #[inline]
    fn add_assign(&mut self, rhs: M61) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for M61 {
    type Output = M61;
    #[inline]
    fn sub(self, rhs: M61) -> M61 {
        M61(reduce_once(self.0 + P - rhs.0))
    }
}

impl std::ops::SubAssign for M61 {
    #[inline]
    fn sub_assign(&mut self, rhs: M61) {
        *self = *self - rhs;
    }
}

impl std::ops::Neg for M61 {
    type Output = M61;
    #[inline]
    fn neg(self) -> M61 {
        M61(reduce_once(P - self.0))
    }
}

impl std::ops::Mul for M61 {
    type Output = M61;
    #[inline]
    fn mul(self, rhs: M61) -> M61 {
        M61(reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl std::ops::MulAssign for M61 {
    #[inline]
    fn mul_assign(&mut self, rhs: M61) {
        *self = *self * rhs;
    }
}

impl std::fmt::Display for M61 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for M61 {
    fn from(v: u64) -> Self {
        M61::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_of_large_inputs() {
        assert_eq!(M61::new(P).value(), 0);
        assert_eq!(M61::new(P + 1).value(), 1);
        assert_eq!(M61::new(2 * P - 1).value(), P - 1);
        assert_eq!(M61::new(u64::MAX).value(), u64::MAX % P);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = M61::new(123_456_789);
        let b = M61::new(P - 5);
        assert_eq!((a + b) - b, a);
        assert_eq!((a - b) + b, a);
        assert_eq!(a + (-a), M61::ZERO);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let cases = [
            (0u64, 0u64),
            (1, P - 1),
            (P - 1, P - 1),
            (1 << 60, 1 << 60),
            (987_654_321, 123_456_789),
        ];
        for (x, y) in cases {
            let expect = ((x as u128 * y as u128) % P as u128) as u64;
            assert_eq!((M61::new(x) * M61::new(y)).value(), expect, "{x} * {y}");
        }
    }

    #[test]
    fn pow_small_cases() {
        let a = M61::new(3);
        assert_eq!(a.pow(0), M61::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(4).value(), 81);
        // Fermat's little theorem.
        assert_eq!(a.pow(P - 1), M61::ONE);
    }

    #[test]
    fn inverse_is_inverse() {
        for v in [1u64, 2, 3, 7, P - 1, 1 << 33] {
            let a = M61::new(v);
            assert_eq!(a * a.inverse(), M61::ONE, "v = {v}");
        }
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        let _ = M61::ZERO.inverse();
    }

    #[test]
    fn from_i64_negative() {
        let a = M61::from_i64(-3);
        assert_eq!(a + M61::new(3), M61::ZERO);
        assert_eq!(M61::from_i64(5), M61::new(5));
    }

    #[test]
    fn display_and_debug_nonempty() {
        assert_eq!(format!("{}", M61::new(7)), "7");
        assert!(!format!("{:?}", M61::ZERO).is_empty());
    }
}
