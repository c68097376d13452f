//! # sea-beam — the neutron-beam experiment model
//!
//! SEA's substitute for the paper's LANSCE campaigns (§IV-B): a Monte-
//! Carlo model of accelerated neutron exposure over the *whole* platform.
//! Strikes into the six modeled SRAM arrays are replayed through the same
//! microarchitectural simulator and classifier the injection campaigns
//! use; strikes into the structures the simulator cannot model — the
//! proprietary FPGA–ARM bridge, core control latches, and SRAM exposed
//! while only the kernel is live between executions — take calibrated
//! analytic paths. This reproduces the over/under-estimation geometry of
//! the paper's Fig. 1: beam ≥ real ≥ fault injection.
//!
//! The crate also implements the paper's §VI FIT_raw measurement: the L1
//! fill/read-back microbenchmark run under beam, whose own output reports
//! the upsets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod raw_fit;
mod session;

pub use config::{
    acceleration_factor, fit_to_sigma, sigma_to_fit, BeamConfig, UnmodeledLogic, LANSCE_FLUX,
    NYC_FLUX_PER_HOUR,
};
pub use raw_fit::{measure_fit_raw, RawFitResult};
pub use session::{
    measure_kernel_residency, run_session, BeamError, BeamPlan, BeamResult, Strike, StrikeOrigin,
    StrikeOutcome,
};
