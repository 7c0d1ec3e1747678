//! The [`Persist`] trait and its implementations for the std types
//! the workspace's state is built from.
//!
//! Every encoding is self-delimiting (fixed-width scalars,
//! length-prefixed collections) and has exactly one byte
//! representation per value, so `save → load → save` reproduces the
//! original bytes — the round-trip stability the snapshot test suite
//! pins for every maintainer kind.

use crate::error::SnapshotError;
use crate::format::{SnapshotReader, SnapshotWriter};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A value that can be serialized into a snapshot section and
/// reconstructed from one.
///
/// Implementations across the workspace follow two rules:
///
/// 1. **Save accumulated state, reconstruct derived state.** Seeds
///    and counters are written; hash coefficient tables, power
///    tables, and sampler families are rebuilt from them on load, so
///    restored randomness continues the original stream bit-for-bit.
/// 2. **Decode defensively.** `load` returns
///    [`SnapshotError::Corrupt`] on anything structurally invalid;
///    it never panics on attacker-shaped bytes.
pub trait Persist: Sized {
    /// Appends this value's encoding to the writer's open section.
    fn save(&self, w: &mut SnapshotWriter);

    /// Decodes one value from the cursor.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncated or invalid bytes.
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! persist_scalar {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Persist for $ty {
            fn save(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }
            fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
        }
    };
}

persist_scalar!(u8, put_u8, take_u8);
persist_scalar!(u32, put_u32, take_u32);
persist_scalar!(u64, put_u64, take_u64);
persist_scalar!(i64, put_i64, take_i64);
persist_scalar!(i128, put_i128, take_i128);
persist_scalar!(usize, put_usize, take_usize);
persist_scalar!(f64, put_f64, take_f64);
persist_scalar!(bool, put_bool, take_bool);

impl Persist for u16 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u32(u32::from(*self));
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let v = r.take_u32()?;
        u16::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("u16 out of range: {v}")))
    }
}

impl Persist for String {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_str()
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        // Guard the pre-allocation: a corrupted length must not OOM
        // before the per-element decode detects the truncation.
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(SnapshotError::Corrupt(format!("invalid Option tag {b}"))),
        }
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::load(r)?;
            let v = V::load(r)?;
            // `save` iterates the map, so keys arrive strictly
            // ascending; anything else would drop an entry silently.
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(SnapshotError::Corrupt(
                    "map keys are not strictly ascending".into(),
                ));
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            let item = T::load(r)?;
            // Same rule as the map: `save` writes a set in order.
            if out.last().is_some_and(|last| *last >= item) {
                return Err(SnapshotError::Corrupt(
                    "set elements are not strictly ascending".into(),
                ));
            }
            out.insert(item);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Persist> Persist for Arc<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        T::save(self, w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Arc::new(T::load(r)?))
    }
}

/// Implements [`Persist`] for a struct from **one** list of its fields.
///
/// `save` writes each listed field through its own [`Persist`] impl in
/// list order; `load` reads them back in the same order into a struct
/// literal. The two halves cannot drift apart because there is only
/// one statement of the layout, and a field missing from the list is a
/// compile error in the literal.
///
/// The optional `check |s| <expr>` clause runs on the decoded value
/// before it is returned; `<expr>` is a `Result<(), String>` (a block
/// with early `return`s is fine) and an `Err` becomes
/// [`SnapshotError::Corrupt`](crate::SnapshotError::Corrupt) carrying
/// that message.
///
/// Types that are not "fields in order, then validate" — tagged enums,
/// state rebuilt on load, loaders that must validate before they
/// allocate — implement [`Persist`] by hand; see the crate README.
///
/// # Examples
///
/// ```
/// use mpc_snapshot::{load_section, persist_struct, save_section, Snapshot, SnapshotWriter};
///
/// struct Span {
///     lo: u64,
///     hi: u64,
/// }
/// persist_struct!(Span { lo, hi } check |s| if s.lo <= s.hi {
///     Ok(())
/// } else {
///     Err(format!("span {}..{} is reversed", s.lo, s.hi))
/// });
///
/// let mut w = SnapshotWriter::new(0);
/// save_section(&mut w, "span", &Span { lo: 2, hi: 9 });
/// let snap = Snapshot::from_bytes(&w.finish())?;
/// let span: Span = load_section(&snap, "span")?;
/// assert_eq!((span.lo, span.hi), (2, 9));
/// # Ok::<(), mpc_snapshot::SnapshotError>(())
/// ```
#[macro_export]
macro_rules! persist_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::persist_struct!($ty { $($field),+ } check |_loaded| ::std::result::Result::Ok(()));
    };
    ($ty:ident { $($field:ident),+ $(,)? } check |$s:ident| $check:expr) => {
        impl $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::SnapshotWriter) {
                $($crate::Persist::save(&self.$field, w);)+
            }
            fn load(
                r: &mut $crate::SnapshotReader<'_>,
            ) -> ::std::result::Result<Self, $crate::SnapshotError> {
                fn check($s: &$ty) -> ::std::result::Result<(), ::std::string::String> {
                    $check
                }
                let loaded = $ty { $($field: $crate::Persist::load(r)?,)+ };
                check(&loaded).map_err($crate::SnapshotError::Corrupt)?;
                ::std::result::Result::Ok(loaded)
            }
        }
    };
}

/// Saves one value as the entire content of a named section.
pub fn save_section<T: Persist>(w: &mut SnapshotWriter, name: &str, value: &T) -> u64 {
    w.begin_section(name);
    value.save(w);
    w.end_section()
}

/// Loads one value from an entire named section, requiring the
/// section to be fully consumed.
///
/// # Errors
///
/// [`SnapshotError::MissingSection`] or any decode failure.
pub fn load_section<T: Persist>(
    snap: &crate::format::Snapshot,
    name: &str,
) -> Result<T, SnapshotError> {
    let mut r = snap.section(name)?;
    let v = T::load(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Snapshot;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapshotWriter::new(0);
        save_section(&mut w, "t", v);
        let first = w.finish();
        let snap = Snapshot::from_bytes(&first).unwrap();
        let loaded: T = load_section(&snap, "t").unwrap();
        assert_eq!(&loaded, v);
        // Byte-stability: re-saving the loaded value reproduces the
        // identical container.
        let mut w2 = SnapshotWriter::new(0);
        save_section(&mut w2, "t", &loaded);
        assert_eq!(w2.finish(), first);
    }

    #[test]
    fn std_types_round_trip_byte_stably() {
        round_trip(&42u8);
        round_trip(&7u16);
        round_trip(&u32::MAX);
        round_trip(&u64::MAX);
        round_trip(&-5i64);
        round_trip(&i128::MIN);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&0.25f64);
        round_trip(&String::from("käse"));
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Option::<u64>::None);
        round_trip(&Some(9u64));
        round_trip(&BTreeMap::from([(1u32, vec![2u64]), (3, vec![])]));
        round_trip(&BTreeSet::from([4u64, 7]));
        round_trip(&(1u64, String::from("x")));
        round_trip(&(1u64, 2u32, vec![false, true]));
        round_trip(&Arc::new(11u64));
    }

    /// Loads a `T` from a section holding exactly `words`.
    fn load_words<T: Persist>(words: &[u64]) -> Result<T, SnapshotError> {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("t");
        for &word in words {
            w.put_u64(word);
        }
        w.end_section();
        load_section(&Snapshot::from_bytes(&w.finish()).unwrap(), "t")
    }

    #[test]
    fn unordered_or_duplicate_keys_are_corrupt() {
        // No `save` writes these: it iterates the collection, so keys
        // are strictly ascending. Loaded as-is, `(5,1), (2,7), (5,9)`
        // would come back as `{2: 7, 5: 9}` — an entry gone.
        for map in [
            &[3, 5, 1, 2, 7, 5, 9][..],
            &[2, 5, 1, 2, 7],
            &[2, 5, 1, 5, 9],
        ] {
            let res = load_words::<BTreeMap<u64, u64>>(map);
            assert!(matches!(res, Err(SnapshotError::Corrupt(_))), "{map:?}");
        }
        for set in [&[3, 5, 2, 5][..], &[2, 5, 2], &[2, 5, 5]] {
            let res = load_words::<BTreeSet<u64>>(set);
            assert!(matches!(res, Err(SnapshotError::Corrupt(_))), "{set:?}");
        }
        let ok: BTreeMap<u64, u64> = load_words(&[2, 2, 7, 5, 9]).unwrap();
        assert_eq!(ok, BTreeMap::from([(2, 7), (5, 9)]));
    }

    #[derive(Debug, PartialEq)]
    struct Plain {
        id: u32,
        tags: Vec<u64>,
    }
    crate::persist_struct!(Plain { id, tags });

    #[derive(Debug, PartialEq)]
    struct Span {
        lo: u64,
        hi: u64,
    }
    crate::persist_struct!(Span { lo, hi } check |s| {
        if s.lo > s.hi {
            return Err(format!("span {}..{} is reversed", s.lo, s.hi));
        }
        Ok(())
    });

    #[test]
    fn persist_struct_round_trips_and_writes_fields_in_list_order() {
        let plain = Plain {
            id: 7,
            tags: vec![3, 1],
        };
        round_trip(&plain);
        round_trip(&Span { lo: 2, hi: 9 });

        let mut whole = SnapshotWriter::new(0);
        save_section(&mut whole, "t", &plain);
        let mut by_field = SnapshotWriter::new(0);
        by_field.begin_section("t");
        plain.id.save(&mut by_field);
        plain.tags.save(&mut by_field);
        by_field.end_section();
        assert_eq!(whole.finish(), by_field.finish());
    }

    #[test]
    fn persist_struct_check_and_truncation_are_corrupt() {
        match load_words::<Span>(&[9, 2]) {
            Err(SnapshotError::Corrupt(msg)) => assert_eq!(msg, "span 9..2 is reversed"),
            other => panic!("reversed span must be Corrupt, got {other:?}"),
        }
        let res = load_words::<Span>(&[9]);
        assert!(matches!(res, Err(SnapshotError::Corrupt(_))), "{res:?}");
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        let v = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut w = SnapshotWriter::new(0);
        save_section(&mut w, "t", &v);
        let snap = Snapshot::from_bytes(&w.finish()).unwrap();
        let loaded: f64 = load_section(&snap, "t").unwrap();
        assert_eq!(loaded.to_bits(), v.to_bits());
    }

    #[test]
    fn corrupted_length_does_not_allocate_unbounded() {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("t");
        w.put_u64(u64::MAX); // absurd element count, no elements
        w.end_section();
        let snap = Snapshot::from_bytes(&w.finish()).unwrap();
        let res: Result<Vec<u64>, _> = load_section(&snap, "t");
        assert!(matches!(res, Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn invalid_tags_are_corrupt_not_panics() {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("t");
        w.put_u8(7);
        w.end_section();
        let snap = Snapshot::from_bytes(&w.finish()).unwrap();
        let opt: Result<Option<u64>, _> = load_section(&snap, "t");
        assert!(matches!(opt, Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn partial_section_consumption_is_an_error() {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("t");
        w.put_u64(1);
        w.put_u64(2);
        w.end_section();
        let snap = Snapshot::from_bytes(&w.finish()).unwrap();
        let res: Result<u64, _> = load_section(&snap, "t");
        assert!(matches!(res, Err(SnapshotError::Corrupt(_))));
    }
}
