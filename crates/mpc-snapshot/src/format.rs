//! The on-disk container: magic, format version, stream epoch, a
//! section table with per-section FNV-1a checksums, and the section
//! payloads. See `crates/mpc-snapshot/README.md` for the byte-level
//! specification.
//!
//! All integers are little-endian. The container is serialized by
//! [`SnapshotWriter::finish`] (to bytes) or streamed section by
//! section by [`SnapshotWriter::write_to`] (to a file), and fully
//! validated (magic, version, table shape, every checksum) by
//! [`Snapshot::from_bytes`]/[`Snapshot::read_from`] before any section
//! is handed out. A parsed [`Snapshot`] holds the file's bytes once.

use crate::error::SnapshotError;
use std::ops::Range;
use std::path::Path;

/// The 8-byte file magic: `MPCSNAP` plus the container generation.
pub const MAGIC: [u8; 8] = *b"MPCSNAP1";

/// The current format version. Bump on any incompatible change to
/// the container layout *or* to any `Persist` encoding.
pub const FORMAT_VERSION: u32 = 2;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the dependency-free checksum guarding
/// every section payload. Not cryptographic; it detects the
/// truncation/bit-rot class of corruption, which is the threat model
/// of a host-side checkpoint file.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Builds a snapshot: named sections are opened, filled through the
/// `put_*` primitives (the sink every [`Persist::save`] writes to),
/// and sealed into the checksummed container.
///
/// [`Persist::save`]: crate::Persist::save
///
/// # Examples
///
/// ```
/// use mpc_snapshot::{Snapshot, SnapshotWriter};
///
/// let mut w = SnapshotWriter::new(7);
/// w.begin_section("numbers");
/// w.put_u64(42);
/// w.end_section();
/// let bytes = w.finish();
/// let snap = Snapshot::from_bytes(&bytes).unwrap();
/// assert_eq!(snap.epoch(), 7);
/// assert_eq!(snap.section("numbers").unwrap().take_u64().unwrap(), 42);
/// ```
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    epoch: u64,
    sections: Vec<(String, Vec<u8>)>,
    open: bool,
}

impl SnapshotWriter {
    /// Starts an empty snapshot carrying `epoch` in its header.
    pub fn new(epoch: u64) -> Self {
        SnapshotWriter {
            epoch,
            sections: Vec::new(),
            open: false,
        }
    }

    /// Opens a new section. Section names must be unique within one
    /// snapshot and at most `u16::MAX` bytes.
    ///
    /// # Panics
    ///
    /// Panics if a section is already open, on a duplicate name, or
    /// on an over-long name — all caller bugs, not data-dependent
    /// conditions.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" contract — caller bugs, not data-dependent conditions"
    )]
    pub fn begin_section(&mut self, name: &str) {
        assert!(!self.open, "begin_section with a section already open");
        assert!(
            name.len() <= usize::from(u16::MAX),
            "section name longer than u16::MAX bytes"
        );
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate section name {name:?}"
        );
        self.sections.push((name.to_string(), Vec::new()));
        self.open = true;
    }

    /// Seals the open section, returning its payload size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if no section is open.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" contract — unbalanced section calls are a caller bug"
    )]
    pub fn end_section(&mut self) -> u64 {
        assert!(self.open, "end_section without begin_section");
        self.open = false;
        self.sections.last().map_or(0, |(_, b)| b.len() as u64)
    }

    #[expect(
        clippy::disallowed_macros,
        clippy::expect_used,
        reason = "every put_* needs an open section (a caller bug otherwise), and an open section is the last one"
    )]
    fn buf(&mut self) -> &mut Vec<u8> {
        assert!(self.open, "put_* outside an open section");
        &mut self
            .sections
            .last_mut()
            .expect("open implies a section exists")
            .1
    }

    /// Appends raw bytes to the open section.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf().extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf().push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i128`.
    pub fn put_i128(&mut self, v: i128) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit on every
    /// host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by its IEEE-754 bit pattern — bit-exact
    /// round-tripping, no parsing, NaN-safe.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.put_bytes(v.as_bytes());
    }

    /// The epoch this snapshot will carry.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The header and the section table (name, length, FNV-1a
    /// checksum per section): everything in front of the payloads.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" contract — finishing inside a section is a caller bug"
    )]
    fn header(&self) -> Vec<u8> {
        assert!(!self.open, "finish with a section still open");
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        }
        out
    }

    /// Serializes the container: header, section table, then the
    /// payloads in table order.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open.
    pub fn finish(self) -> Vec<u8> {
        let mut out = self.header();
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the container to `path` — the bytes [`finish`] would
    /// return, streamed: header and table, then each section payload
    /// straight from its buffer, with no concatenated copy. Returns the
    /// total bytes written. The write goes through a `.tmp` sibling
    /// and an atomic rename, so a crash mid-write never leaves a
    /// half-snapshot under the final name.
    ///
    /// [`finish`]: SnapshotWriter::finish
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the snapshot container is the one sanctioned file I/O path"
    )]
    pub fn write_to(self, path: &Path) -> Result<u64, SnapshotError> {
        use std::io::Write;
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let header = self.header();
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp).map_err(io)?;
        file.write_all(&header).map_err(io)?;
        let mut written = header.len() as u64;
        for (_, payload) in &self.sections {
            file.write_all(payload).map_err(io)?;
            written += payload.len() as u64;
        }
        drop(file);
        std::fs::rename(&tmp, path).map_err(io)?;
        Ok(written)
    }
}

/// Takes the `N` bytes at `*at` and advances past them, or `None` when
/// fewer remain.
fn take_array<const N: usize>(bytes: &[u8], at: &mut usize) -> Option<[u8; N]> {
    let (head, _) = bytes.get(*at..)?.split_first_chunk::<N>()?;
    *at += N;
    Some(*head)
}

/// A parsed, checksum-verified snapshot. Constructing one validates
/// the whole container; [`Snapshot::section`] then hands out cursors
/// over individual payloads, which are ranges of the one buffer the
/// snapshot owns.
#[derive(Debug, Clone)]
pub struct Snapshot {
    version: u32,
    epoch: u64,
    bytes: Vec<u8>,
    sections: Vec<(String, Range<usize>)>,
}

impl Snapshot {
    /// Parses and fully validates a serialized snapshot: magic,
    /// version, table shape, and every section's checksum. Copies
    /// `bytes` once; [`Snapshot::read_from`] does not copy at all.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::Corrupt`] on structural damage, or
    /// [`SnapshotError::ChecksumMismatch`] naming the damaged section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Snapshot::parse(bytes.to_vec())
    }

    fn parse(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let truncated = || SnapshotError::Corrupt("truncated header/table".into());
        let take = |at: &mut usize, n: usize| -> Result<&[u8], SnapshotError> {
            let end = at
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(truncated)?;
            let s = &bytes[*at..end];
            *at = end;
            Ok(s)
        };
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut at = MAGIC.len();
        let version = u32::from_le_bytes(take_array(&bytes, &mut at).ok_or_else(truncated)?);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let epoch = u64::from_le_bytes(take_array(&bytes, &mut at).ok_or_else(truncated)?);
        let count = u32::from_le_bytes(take_array(&bytes, &mut at).ok_or_else(truncated)?) as usize;
        let mut table: Vec<(String, u64, u64)> = Vec::new();
        for _ in 0..count {
            let name_len = u16::from_le_bytes(take_array(&bytes, &mut at).ok_or_else(truncated)?);
            let name = std::str::from_utf8(take(&mut at, usize::from(name_len))?)
                .map_err(|_| SnapshotError::Corrupt("non-UTF-8 section name".into()))?
                .to_string();
            let len = u64::from_le_bytes(take_array(&bytes, &mut at).ok_or_else(truncated)?);
            let sum = u64::from_le_bytes(take_array(&bytes, &mut at).ok_or_else(truncated)?);
            table.push((name, len, sum));
        }
        let mut sections = Vec::with_capacity(count);
        for (name, len, sum) in table {
            let len = usize::try_from(len)
                .map_err(|_| SnapshotError::Corrupt(format!("section `{name}` length overflow")))?;
            let start = at;
            let payload = take(&mut at, len)
                .map_err(|_| SnapshotError::Corrupt(format!("section `{name}` truncated")))?;
            if fnv1a(payload) != sum {
                return Err(SnapshotError::ChecksumMismatch { section: name });
            }
            sections.push((name, start..at));
        }
        if at != bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the last section",
                bytes.len() - at
            )));
        }
        Ok(Snapshot {
            version,
            epoch,
            bytes,
            sections,
        })
    }

    /// Reads and validates a snapshot file; the buffer it was read
    /// into becomes the snapshot's own.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure, then everything
    /// [`Snapshot::from_bytes`] reports.
    #[expect(
        clippy::disallowed_methods,
        reason = "the snapshot container is the one sanctioned file I/O path"
    )]
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        Snapshot::parse(std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?)
    }

    /// The container format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The stream epoch embedded at write time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Section names in write order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// A cursor over one section's payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] if absent.
    pub fn section(&self, name: &str) -> Result<SnapshotReader<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, range)| SnapshotReader {
                section: n,
                bytes: &self.bytes[range.clone()],
                at: 0,
            })
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }
}

/// A decoding cursor over one section's payload — the source every
/// [`Persist::load`] reads from. Every `take_*` is bounds-checked and
/// reports the section it ran off the end of.
///
/// [`Persist::load`]: crate::Persist::load
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    section: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over a raw byte slice (for tests and for round-trip
    /// checks outside a full container).
    pub fn over(section: &'a str, bytes: &'a [u8]) -> Self {
        SnapshotReader {
            section,
            bytes,
            at: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Corrupt(format!(
            "section `{}` exhausted at byte {} of {}",
            self.section,
            self.at,
            self.bytes.len()
        ))
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.truncated())?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// Takes the next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        take_array(self.bytes, &mut self.at).ok_or_else(|| self.truncated())
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// As [`SnapshotReader::take_bytes`].
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`SnapshotReader::take_bytes`].
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`SnapshotReader::take_bytes`].
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Takes a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// As [`SnapshotReader::take_bytes`].
    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Takes a little-endian `i128`.
    ///
    /// # Errors
    ///
    /// As [`SnapshotReader::take_bytes`].
    pub fn take_i128(&mut self) -> Result<i128, SnapshotError> {
        Ok(i128::from_le_bytes(self.take_array()?))
    }

    /// Takes a `u64` and narrows it to the host `usize`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when truncated or when the value
    /// does not fit the host word.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| {
            SnapshotError::Corrupt(format!(
                "section `{}`: length {v} exceeds the host word",
                self.section
            ))
        })
    }

    /// Takes an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// As [`SnapshotReader::take_bytes`].
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Takes a `bool`, rejecting anything but 0/1.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation or a non-boolean
    /// byte.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!(
                "section `{}`: invalid bool byte {b}",
                self.section
            ))),
        }
    }

    /// Takes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation or invalid UTF-8.
    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.take_usize()?;
        let section = self.section;
        let bytes = self.take_bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| SnapshotError::Corrupt(format!("section `{section}`: non-UTF-8 string")))
    }

    /// Asserts the section is fully consumed — loaders call this last
    /// so trailing garbage (a mis-versioned encoder) is an error, not
    /// silently ignored state.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "section `{}`: {} undecoded trailing bytes",
                self.section,
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn container_round_trips() {
        let mut w = SnapshotWriter::new(9);
        w.begin_section("a");
        w.put_u64(1);
        w.put_str("hello");
        w.put_bool(true);
        w.put_f64(-0.5);
        w.put_i128(-(1i128 << 100));
        assert_eq!(w.end_section(), 8 + 8 + 5 + 1 + 8 + 16);
        w.begin_section("b");
        w.end_section();
        let bytes = w.finish();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.version(), FORMAT_VERSION);
        assert_eq!(snap.epoch(), 9);
        assert_eq!(snap.section_names(), vec!["a", "b"]);
        let mut r = snap.section("a").unwrap();
        assert_eq!(r.take_u64().unwrap(), 1);
        assert_eq!(r.take_str().unwrap(), "hello");
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap(), -0.5);
        assert_eq!(r.take_i128().unwrap(), -(1i128 << 100));
        r.expect_end().unwrap();
        assert!(matches!(
            snap.section("zzz"),
            Err(SnapshotError::MissingSection(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            Snapshot::from_bytes(b"NOTSNAP1rest"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            Snapshot::from_bytes(b""),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        // No reader is kept for older encodings: version 1 (the dense
        // arena pool) is as unsupported as a version from the future.
        for version in [1u8, 99] {
            let mut bytes = SnapshotWriter::new(0).finish();
            bytes[8] = version; // version field follows the magic
            assert_eq!(
                Snapshot::from_bytes(&bytes).unwrap_err(),
                SnapshotError::UnsupportedVersion(u32::from(version))
            );
        }
    }

    #[test]
    fn flipped_payload_bit_fails_its_checksum() {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("data");
        w.put_u64(0xDEAD_BEEF);
        w.end_section();
        let mut bytes = w.finish();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, "data"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_rejected() {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("data");
        w.put_u64(5);
        w.end_section();
        let bytes = w.finish();
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&extended),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn reader_reports_exhaustion_and_bad_bools() {
        let mut r = SnapshotReader::over("t", &[2]);
        assert!(matches!(r.take_u64(), Err(SnapshotError::Corrupt(_))));
        let mut r = SnapshotReader::over("t", &[2]);
        assert!(matches!(r.take_bool(), Err(SnapshotError::Corrupt(_))));
        let r = SnapshotReader::over("t", &[2]);
        assert!(r.expect_end().is_err());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "inspects on disk what the sanctioned write path left there"
    )]
    fn file_round_trip_is_atomic_under_the_final_name() {
        let dir = std::env::temp_dir().join("mpc-snapshot-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        let build = || {
            let mut w = SnapshotWriter::new(3);
            w.begin_section("s");
            w.put_u32(77);
            w.end_section();
            w.begin_section("empty");
            w.end_section();
            w.begin_section("tail");
            w.put_str("streamed");
            w.end_section();
            w
        };
        let written = build().write_to(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert!(!path.with_extension("tmp").exists());
        // The streamed file is byte for byte what `finish` returns.
        assert_eq!(std::fs::read(&path).unwrap(), build().finish());
        let snap = Snapshot::read_from(&path).unwrap();
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.section("s").unwrap().take_u32().unwrap(), 77);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            Snapshot::read_from(&path),
            Err(SnapshotError::Io(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate section")]
    fn duplicate_sections_panic() {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("x");
        w.end_section();
        w.begin_section("x");
    }
}
