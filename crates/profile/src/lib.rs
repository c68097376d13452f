//! # sea-profile — cycle & vulnerability attribution profiling
//!
//! Observability beyond outcomes: the campaign stack (sea-injection)
//! measures per-structure AVF by injecting faults and classifying effects,
//! but it cannot say *why* a structure is vulnerable or where golden-run
//! cycles go. This crate adds three attribution views:
//!
//! * **Liveness reports** ([`StructureReport`]) — per structure, the share
//!   of (bit, cycle) strikes the golden run's read horizon (the one the
//!   dead-cell pruner uses, in `sea-microarch`) does not prove Masked: a
//!   *predicted* AVF that `sea-analysis` renders next to the
//!   injection-*measured* AVF and that bounds it from above. This is the
//!   analytical cross-check in the spirit of the exhaustive-simulation
//!   tradition (ARMORY, Hoffmann et al. 2021).
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

pub use chrome::{chrome_trace, stitch_chrome_trace, ChromeTrack};
pub use pc::{PcProfile, PcSampler, PcStats, SampleCounters};
pub use prom::{labels, prom_enabled, prom_flush, set_prom_out, PromWriter};

/// Everything one profiled golden run produced: the per-PC cycle profile
/// plus one liveness report per modeled SRAM structure, in the paper's
/// component order (RF, L1I$, L1D$, L2$, ITLB, DTLB).
#[derive(Clone, Debug, Default)]
pub struct ProfileData {
    /// Cycles the profiled run simulated.
    pub total_cycles: u64,
    /// Instructions the profiled run retired.
    pub instructions: u64,
    /// Flat per-guest-PC attribution profile.
    pub pc: PcProfile,
    /// Per-structure liveness reports.
    pub structures: Vec<StructureReport>,
}

/// Liveness of one SRAM structure over one profiled run.
#[derive(Clone, Debug, PartialEq)]
pub struct StructureReport {
    /// Structure short name (matches `Component::short_name`).
    pub name: String,
    /// Slots: cache lines, TLB entries or register words.
    pub slots: u64,
    /// SRAM bits, every one of which a uniform campaign strike can hit.
    pub bits: u64,
    /// Σ over bits of the strike cycles at which the bit is live.
    pub live_bit_cycles: u64,
    /// Σ over slots of the cycles the slot held a valid line or entry.
    pub valid_slot_cycles: u64,
    /// Cycles the profiled run covered.
    pub total_cycles: u64,
}

/// `num / den`, 0 for an empty denominator.
fn share(num: u64, den: u128) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl StructureReport {
    /// Time-weighted fraction of slots holding a valid line or entry.
    pub fn occupancy(&self) -> f64 {
        share(
            self.valid_slot_cycles,
            u128::from(self.slots) * u128::from(self.total_cycles),
        )
    }

    /// The predicted AVF: the fraction of (bit, cycle) strikes that are
    /// live — the probability that a uniform campaign strike is not
    /// dead-pruned, and so an upper bound on the measured AVF.
    pub fn predicted_avf(&self) -> f64 {
        share(
            self.live_bit_cycles,
            u128::from(self.bits) * u128::from(self.total_cycles),
        )
    }
}

impl ProfileData {
    /// The report for one structure, by its short name (`"RF"`, `"L1D$"`…).
    pub fn structure(&self, name: &str) -> Option<&StructureReport> {
        self.structures.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bits: u64, live_bit_cycles: u64) -> StructureReport {
        StructureReport {
            name: "X".into(),
            slots: 1,
            bits,
            live_bit_cycles,
            valid_slot_cycles: 50,
            total_cycles: 100,
        }
    }

    #[test]
    fn dead_bits_dilute_predicted_avf() {
        // Ten bits live for the whole run, then ten more that never are.
        let (a, b) = (report(10, 1000), report(20, 1000));
        assert_eq!(a.predicted_avf(), 1.0);
        assert_eq!(b.predicted_avf(), 0.5);
        assert_eq!(a.occupancy(), 0.5);
    }

    #[test]
    fn empty_structure_reports_zero() {
        let r = StructureReport {
            total_cycles: 0,
            ..report(8, 0)
        };
        assert_eq!(r.predicted_avf(), 0.0);
        assert_eq!(r.occupancy(), 0.0);
    }
}
