//! Shared plumbing of the SEA benchmark's two binaries: `sea-bench-e2e`
//! (end-to-end metrics through the public entry points, tracing off) and
//! `sea-bench-layers` (the traced run and the per-layer probes). See
//! `benchmark/README.md` for what is measured and why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod metrics;
pub mod oracle;
pub mod procstat;
pub mod span;
pub mod stats;
pub mod workload;

pub use sea_core::trace::json;
