//! # sea-injection — statistical microarchitectural fault injection
//!
//! The GeFIN equivalent (paper §IV-C): single-bit transient faults injected
//! uniformly over (bit, cycle) into the six modeled SRAM components —
//! physical register file, L1I, L1D, L2, ITLB, DTLB — with each run
//! classified as Masked / SDC / Application Crash / System Crash against
//! the golden output.
//!
//! Campaigns are deterministic (seeded), parallel (crossbeam worker pool),
//! and carry the statistical machinery of Leveugle et al. used by the
//! paper: sample-size selection at 99% confidence and the post-campaign
//! error-margin re-adjustment behind Table IV.
//!
//! Campaigns run under a [supervisor](crate::supervisor): per-run panic
//! isolation with bounded retry and anomaly quarantine, an append-only
//! outcome journal with crash-safe resume, worker respawn, and a per-run
//! wall-clock watchdog — the simulated counterpart of the paper's beam
//! harness surviving 260 beam-hours of crashes (§IV-B).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
pub mod convergence;
mod drive;
pub mod stats;
pub mod supervisor;
pub mod warp;

pub use campaign::{
    acquire_golden_and_checkpoints, class_index, generate_specs, run_campaign, run_cycles_snapshot,
    run_one, verdict_line, CampaignConfig, CampaignError, CampaignPlan, CampaignResult,
    ComponentResult, FaultModel, InjectionOutcome, InjectionSpec, SupervisionStats, CLASS_LABELS,
    DEAD_PRUNED, DEAD_PRUNED_BYTES, DEAD_PRUNED_INVALID, RECONVERGED, RECONVERGE_CYCLES_SAVED,
};
pub use convergence::{ConvergenceTracker, StratumSnapshot};
pub use drive::{drive, Driven, Live, RunPlan};
pub use sea_platform::ClassCounts;
pub use supervisor::{
    clear_stop, load_quarantine, open_journal, request_stop, run_one_caught, stop_requested,
    supervisor_health, FsyncPolicy, Journal, JournalAudit, JournalError, JournalFormat,
    JournalHeader, JournalSpec, RunAnomaly, RunVerdict, SupervisorConfig, SupervisorHealth,
};
