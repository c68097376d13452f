//! # sea-snapshot — the copy-on-write memory SEA checkpoints are built on
//!
//! The statistical fault-injection methodology of the paper needs thousands
//! of runs per workload, and every run used to re-execute the fault-free
//! prefix from reset up to the injection cycle. gem5 — the paper's
//! simulation vehicle — amortizes exactly this cost with boot/region
//! checkpoints; SEA keeps its checkpoints in memory, as machine clones,
//! and this crate holds the one piece that makes a clone cheap:
//!
//! * **[`PageStore`]** — physical memory as copy-on-write 4 KiB pages
//!   behind a shared page table. Cloning a store is one reference bump; N
//!   restored machines share the golden image and pay for the table on
//!   their first write and for a page when they first write it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pages;

pub use pages::{PageStore, PAGE_BYTES};
