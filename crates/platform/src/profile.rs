//! Profiled golden runs.
//!
//! The profiling counterpart of [`golden_run`](crate::golden_run): the
//! same fault-free reference execution, but with the read-horizon recorder
//! and the per-PC sampler attached for its whole duration. The resulting
//! [`ProfileData`] carries, per structure, the predicted AVF — the share
//! of uniform strikes the horizon does not prove Masked — and the
//! cycle-attribution profile that `sea-analysis` renders next to the
//! injection-measured AVF.
//!
//! Profiling is attached to a *separate* boot — never to the machine a
//! campaign reuses — so campaign checkpoints and journals stay
//! byte-identical whether or not profiling ran.

use crate::run::{boot, GoldenError, GoldenRun, RunLimits, RunOutcome};
use sea_kernel::KernelConfig;
use sea_microarch::MachineConfig;
use sea_profile::ProfileData;
use sea_trace::{Level, Subsystem};

/// Runs `user` fault-free to completion with profilers attached,
/// returning both the golden reference and the attribution profile.
///
/// The architectural result (output, exit code, cycle count) is identical
/// to [`golden_run`](crate::golden_run) — the profilers are pure
/// observers — which the `profile` integration test asserts.
///
/// # Errors
///
/// Same failure modes as [`golden_run`](crate::golden_run).
pub fn profiled_golden_run(
    machine: MachineConfig,
    user: &sea_isa::Image,
    kernel: &KernelConfig,
    budget_cycles: u64,
) -> Result<(GoldenRun, ProfileData), GoldenError> {
    let (mut sys, boot) = boot(machine, user, kernel).map_err(GoldenError::Install)?;
    sys.profile_attach();
    let limits = RunLimits {
        max_cycles: budget_cycles,
        tick_window: u64::MAX,
        wall_ms: 0,
    };
    let span = sea_trace::span(Subsystem::Platform, Level::Info, "platform.golden_profiled");
    let outcome = crate::run::run(&mut sys, limits);
    let profile = sys.profile_take().unwrap_or_default();
    match outcome {
        RunOutcome::Exited {
            code: 0,
            output,
            overflow: false,
        } => {
            if let Some(mut s) = span {
                s.field("cycles", sys.cycles());
                s.field("hot_pcs", profile.pc.entries.len() as u64);
            }
            Ok((GoldenRun::of(&sys, output, boot), profile))
        }
        other => Err(GoldenError::NotClean(other)),
    }
}
