//! # sea-platform — the Zynq-like board model and run harness
//!
//! This crate plays the role of the paper's physical test infrastructure
//! (§IV-B): the Xilinx ZedBoard peripherals the kernel talks to, plus the
//! host-PC harness that watches "Alive" messages, compares outputs against
//! a golden reference, restarts crashed applications, and classifies every
//! run as Masked / SDC / Application Crash / System Crash.
//!
//! * [`Board`] — the memory-mapped device block (UART, mailbox, timer).
//! * [`run`] / [`RunLimits`] — step the machine to a terminal state.
//! * [`run_until_reconverged`] — the same, ending early as the golden run
//!   once the machine's live state equals a golden checkpoint.
//! * [`classify`] / [`FaultClass`] — the paper's four effect classes.
//! * [`golden_run`] — fault-free reference execution.
//! * [`golden_run_with_checkpoints`] / [`CheckpointSet`] — in-memory epoch
//!   checkpoints of the reference run, plus what it read last and when,
//!   restored by injection campaigns to skip the fault-free prefix (the
//!   gem5-checkpoint workflow of the paper's simulation arm).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod board;
mod checkpoint;
mod profile;
mod run;

pub use board::{Board, DEFAULT_OUTPUT_CAP};
pub use checkpoint::{
    boot_from_checkpoint, snapshot_metrics, Checkpoint, CheckpointSet, CheckpointStats,
};
pub use profile::profiled_golden_run;
pub use run::{
    boot, classify, golden_run, golden_run_with_checkpoints, kernel_residency, postmortem, run,
    run_until_reconverged, watchdog_kills, AppCrashKind, ClassCounts, FaultClass, GoldenError,
    GoldenRun, RunLimits, RunOutcome, SysCrashKind,
};
