//! `mpc-snapshot` — whole-session checkpoint/restore for the
//! streaming-MPC workspace.
//!
//! The paper's central asymmetry makes standing state precious: a
//! maintained structure answers in `O(1)` rounds while a from-scratch
//! rebuild re-pays the `Θ(log n)` Borůvka cascades the whole system
//! exists to avoid. This crate is the durability spine under that
//! state: a **dependency-free, versioned binary container** (magic +
//! format version + stream epoch + section table + per-section
//! FNV-1a checksums, all hand-rolled because the build environment is
//! offline) and the [`Persist`] trait every state-holding structure
//! in the workspace implements.
//!
//! # Layering
//!
//! This crate sits *below* everything else: it knows nothing about
//! graphs, sketches, or sessions. Each workspace crate implements
//! [`Persist`] for its own types (private fields stay private; through
//! [`persist_struct!`] wherever the type is a plain field list), the
//! session layer in `mpc-stream-core` assembles whole-session
//! snapshots from named sections, and the workspace `clippy.toml`
//! bans file I/O outside this crate's two file functions and the tool
//! crates — algorithm crates serialize through [`SnapshotWriter`], never
//! through the filesystem directly.
//!
//! # Encoding rules
//!
//! * Fixed-width little-endian scalars; length-prefixed collections;
//!   `f64` by IEEE-754 bit pattern. One byte representation per
//!   value, so `save → load → save` is byte-stable.
//! * **Accumulated state is saved; derived state is rebuilt.** Hash
//!   seeds and coefficients are written, power tables are not;
//!   restored randomness continues the original stream
//!   bit-identically.
//! * Decoders are total: corrupted input yields a typed
//!   [`SnapshotError`], never a panic or an unbounded allocation.
//!
//! # Examples
//!
//! ```
//! use mpc_snapshot::{load_section, save_section, Snapshot, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new(1); // stream epoch 1
//! save_section(&mut w, "loads", &vec![3u64, 1, 4]);
//! let bytes = w.finish();
//!
//! let snap = Snapshot::from_bytes(&bytes)?;
//! assert_eq!(snap.epoch(), 1);
//! let loads: Vec<u64> = load_section(&snap, "loads")?;
//! assert_eq!(loads, vec![3, 1, 4]);
//! # Ok::<(), mpc_snapshot::SnapshotError>(())
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

pub mod error;
pub mod format;
pub mod persist;

pub use error::SnapshotError;
pub use format::{fnv1a, Snapshot, SnapshotReader, SnapshotWriter, FORMAT_VERSION, MAGIC};
pub use persist::{load_section, save_section, Persist};
