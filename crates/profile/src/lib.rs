//! # sea-profile — cycle & vulnerability attribution profiling
//!
//! Observability beyond outcomes: the campaign stack (sea-injection)
//! measures per-structure AVF by injecting faults and classifying effects,
//! but it cannot say *why* a structure is vulnerable or where golden-run
//! cycles go. This crate adds three attribution views:
//!
//! * **Residency/liveness profiling** ([`StructureResidency`]) — lifetime
//!   tracking of cache lines, TLB entries and registers during the golden
//!   run (fill → last-read → evict intervals), folded into an ACE-style
//!   *predicted* per-structure AVF that `sea-analysis` renders next to the
//!   injection-*measured* AVF. This is the analytical cross-check in the
//!   spirit of the exhaustive-simulation tradition (ARMORY, Hoffmann et
//!   al. 2021).
//! * **Cycle attribution** ([`PcSampler`]) — a flat per-guest-PC profile
//!   (cycles, cache/TLB misses, stall-reason buckets) fed by a sampling
//!   hook in `System::step`.
//! * **Exports** — a Chrome trace-event JSON writer ([`chrome_trace`]) for
//!   sea-trace spans and campaign worker timelines, and a Prometheus
//!   text-exposition snapshot writer ([`PromWriter`], [`prom_flush`])
//!   rewritten periodically during campaigns.
//!
//! Like sea-trace, the hot-path discipline is *zero overhead when off*
//! (ZOFI, Porpodas 2019): the simulator's profiler slots are `None`
//! unless explicitly attached, and the detached path allocates nothing
//! (guarded by a test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod pc;
mod prom;
mod residency;

pub use chrome::{chrome_trace, stitch_chrome_trace, ChromeTrack};
pub use pc::{PcProfile, PcSampler, PcStats, SampleCounters};
pub use prom::{labels, prom_enabled, prom_flush, set_prom_out, PromWriter};
pub use residency::{StructureReport, StructureResidency};

/// Everything one profiled golden run produced: the per-PC cycle profile
/// plus one residency report per modeled SRAM structure, in the paper's
/// component order (RF, L1I$, L1D$, L2$, ITLB, DTLB).
#[derive(Clone, Debug, Default)]
pub struct ProfileData {
    /// Cycles the profiled run simulated.
    pub total_cycles: u64,
    /// Instructions the profiled run retired.
    pub instructions: u64,
    /// Flat per-guest-PC attribution profile.
    pub pc: PcProfile,
    /// Per-structure residency/ACE reports.
    pub structures: Vec<StructureReport>,
}

impl ProfileData {
    /// The report for one structure, by its short name (`"RF"`, `"L1D$"`…).
    pub fn structure(&self, name: &str) -> Option<&StructureReport> {
        self.structures.iter().find(|s| s.name == name)
    }
}
