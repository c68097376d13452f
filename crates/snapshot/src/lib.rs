//! # sea-snapshot — deterministic checkpoint/restore for the SEA stack
//!
//! The statistical fault-injection methodology of the paper needs thousands
//! of runs per workload, and every run used to re-execute the fault-free
//! prefix from reset up to the injection cycle. gem5 — the paper's
//! simulation vehicle — amortizes exactly this cost with boot/region
//! checkpoints; this crate is the SEA equivalent: a small, dependency-free
//! foundation the simulator crates build their checkpointing on.
//!
//! Three pieces, deliberately decoupled from the machine model so the
//! format stays stable while the simulator evolves:
//!
//! * **[`Snapshot`]** — the save/load contract. [`SnapWriter`] /
//!   [`SnapReader`] form a byte-exact little-endian codec with per-struct
//!   tags, so a field added to one component fails loudly at the tag
//!   boundary instead of silently misaligning the rest of the stream.
//! * **[`PageStore`]** — physical memory as copy-on-write 4 KiB pages
//!   behind a shared page table. Cloning a store is one reference bump; N
//!   restored machines share the golden image and pay for the table on
//!   their first write and for a page when they first write it.
//! * **checkpoint container** — [`encode_checkpoint`] / [`decode_checkpoint`]
//!   wrap a payload in a magic + format-version + provenance header with an
//!   FNV-1a content hash, so a stale or foreign checkpoint file is rejected
//!   before a single byte of machine state is trusted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod container;
mod pages;

pub use codec::{SnapReader, SnapWriter, Snapshot};
pub use container::{
    decode_checkpoint, encode_checkpoint, CheckpointMeta, SNAP_MAGIC, SNAP_VERSION,
};
pub use pages::{PageStore, PAGE_BYTES};

use std::fmt;

/// Why a snapshot stream or checkpoint container was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the expected data.
    Truncated {
        /// Bytes requested by the reader.
        needed: usize,
        /// Bytes left in the stream.
        remaining: usize,
    },
    /// The container does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The container was written by an incompatible format version.
    Version {
        /// Version found in the container.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The payload hash does not match the header — corruption or a
    /// torn write.
    HashMismatch {
        /// Hash recorded in the header.
        recorded: u64,
        /// Hash of the payload actually present.
        actual: u64,
    },
    /// The metadata section fails its CRC32 — a bit flip in the header
    /// would otherwise decode silently into wrong provenance or cycle.
    MetaCorrupt {
        /// CRC recorded in the container.
        recorded: u32,
        /// CRC of the metadata actually present.
        actual: u32,
    },
    /// A struct boundary tag did not match — layout skew between writer
    /// and reader.
    Tag {
        /// Tag the reader expected.
        expected: [u8; 4],
        /// Tag found in the stream.
        found: [u8; 4],
    },
    /// A decoded value is structurally impossible (e.g. a page index past
    /// the store size).
    Malformed(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes, {remaining} left"
                )
            }
            SnapError::BadMagic => write!(f, "not a sea-snapshot container (bad magic)"),
            SnapError::Version { found, expected } => {
                write!(
                    f,
                    "checkpoint format v{found}, this build reads v{expected}"
                )
            }
            SnapError::HashMismatch { recorded, actual } => write!(
                f,
                "payload hash mismatch: header {recorded:#018x}, content {actual:#018x}"
            ),
            SnapError::MetaCorrupt { recorded, actual } => write!(
                f,
                "metadata section CRC mismatch: header {recorded:#010x}, content {actual:#010x}"
            ),
            SnapError::Tag { expected, found } => write!(
                f,
                "section tag mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            SnapError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit over a byte slice — the stack's standard content hash
/// (the campaign journal uses the same function for config/golden hashes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
