//! # sea-core — soft-error assessment for ARM-class CPUs
//!
//! SEA reproduces, end to end and from scratch, the methodology-comparison
//! study of *"Demystifying Soft Error Assessment Strategies on ARM CPUs:
//! Microarchitectural Fault Injection vs. Neutron Beam Experiments"*
//! (DSN 2019): the same 13 MiBench-class workloads run on a kernel over a
//! cycle-level microarchitectural CPU model, assessed both by statistical
//! fault injection (the GeFIN equivalent) and by a Monte-Carlo neutron-
//! beam model of the physical platform — and the two FIT estimates are
//! compared per effect class.
//!
//! This crate is the facade: [`Study`] orchestrates both methodologies,
//! and the building blocks re-export from the subsystem crates
//! ([`isa`], [`microarch`], [`kernel`], [`platform`], [`workloads`],
//! [`injection`], [`beam`], [`analysis`], [`trace`], [`profile`],
//! [`observe`]).
//!
//! # Quickstart
//!
//! ```no_run
//! use sea_core::{Study, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let study = Study { samples_per_component: 50, beam_strikes: 100, ..Study::default() };
//! let r = study.run_workload(Workload::MatMul)?;
//! println!(
//!     "{}: FI total {:.1} FIT vs beam total {:.1} FIT",
//!     r.workload,
//!     r.comparison.fi.total(),
//!     r.comparison.beam.total()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod setup;
mod spec;
mod study;

pub use setup::{setup_rows, SetupRow};
pub use spec::{workload_by_name, SpecError, StudySpec};
pub use study::{Study, StudyError, StudyResult, WorkloadStudy, DEFAULT_CHECKPOINT_INTERVAL};

pub use sea_analysis as analysis;
pub use sea_beam as beam;
pub use sea_durable as durable;
pub use sea_injection as injection;
pub use sea_isa as isa;
pub use sea_kernel as kernel;
pub use sea_microarch as microarch;
pub use sea_observe as observe;
pub use sea_platform as platform;
pub use sea_profile as profile;
pub use sea_trace as trace;
pub use sea_workloads as workloads;

pub use sea_analysis::{beam_fit, fi_fit, Comparison, FitRates, Overview};
pub use sea_beam::{BeamConfig, BeamResult, RawFitResult};
pub use sea_injection::{
    CampaignConfig, CampaignResult, ClassCounts, FsyncPolicy, JournalAudit, JournalFormat,
    JournalSpec, RunAnomaly, SupervisionStats, SupervisorConfig,
};
pub use sea_microarch::{Component, MachineConfig};
pub use sea_platform::FaultClass;
pub use sea_workloads::{Scale, Workload};
