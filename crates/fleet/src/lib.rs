//! # sea-fleet — a sharded multi-process campaign daemon with
//! deterministic merge
//!
//! The paper's campaigns (§IV, 5k–17k injections per workload on a
//! gem5-style model) are embarrassingly parallel, and the repo already
//! exploits that *within* one process (the supervisor's worker threads).
//! This crate scales the same experiment across worker **processes**
//! without giving up the single most valuable property the repo has
//! accumulated: the outcome journal of a campaign is a deterministic
//! function of its spec.
//!
//! A daemon ([`Daemon`]) accepts study specs ([`sea_core::StudySpec`])
//! over the embedded `sea-observe` HTTP surface (`POST /studies`), shards
//! each workload's injection index space into block claims served over a
//! line-JSON TCP protocol, and spawns `fleet worker` child processes that
//! rebuild the identical [`sea_injection::CampaignPlan`] and stream
//! verdicts into their own crash-consistent `.seaj` shard journals
//! (`sea-durable`). Workers that die (socket EOF) or stall past the grant
//! watchdog get their blocks requeued for other shards to steal; killed
//! blocks re-execute elsewhere and produce *byte-identical duplicate*
//! records, which the merge deduplicates.
//!
//! The protocol adds no latency of its own: every message leaves in one
//! write on a `TCP_NODELAY` socket, and a claim with nothing to grant is
//! long-polled — held by the daemon until a block frees up or the study
//! ends — instead of answered with a retry delay, so neither side ever
//! sleeps on a fixed timer (see [`proto`] and the `daemon` module).
//!
//! When a workload's index space is covered, the daemon performs the
//! **deterministic merge** ([`merge_shard_journals`]): identity headers
//! validated across shards, records stably sorted by spec index,
//! re-framed — the merged journal is byte-identical to a single-process
//! `--threads 1` run of the same spec (CI-enforced, including a
//! SIGKILL-a-worker case). Everything is resumable: on restart the daemon
//! rescans shard journals, recomputes the outstanding block set and
//! re-serves only unfinished work.
//!
//! The substitution story mirrors the rest of the repo: where DrSEUs
//! drives heterogeneous boards from a central database, `sea-fleet`
//! drives deterministic simulated campaigns from a filesystem registry —
//! and determinism upgrades "approximately collected results" to
//! "byte-identical to the reference run".
//!
//! A **telemetry plane** rides the same worker socket: workers push
//! throttled [`proto::ToDaemon::Telemetry`] frames (counter deltas,
//! histogram snapshots, supervisor health, recent trace events) that the
//! daemon aggregates ([`TelemetryBoard`]) into per-worker-labeled and
//! rolled-up `/metrics` series, a `workers` array in study status, a
//! multiplexed `/events` stream and stitched per-worker Chrome traces
//! (`/studies/<id>/trace`). The daemon's live convergence tracker also
//! closes the loop fleet-wide: a study with `stop_at_margin` set stops
//! granting blocks once every stratum's adjusted margin is under the
//! threshold, drains the fleet, and merges the partial shard journals
//! (audit-clean, duplicate-free — just not byte-identical to an
//! exhaustive run, exactly like single-process early stop).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod ledger;
mod merge;
pub mod proto;
mod registry;
mod telemetry;
mod worker;

pub use daemon::{Daemon, DaemonConfig};
pub use ledger::{Ledger, Outstanding};
pub use merge::{merge_shard_journals, scan_done, MergeAudit, MergeError, MergeFail};
pub use registry::{study_id, Registry};
pub use telemetry::{Frame, TelemetryBoard, WorkerState, HEALTH_FIELDS};
pub use worker::{canonicalize_spec, install_stop_signals, run_worker, WorkerError};
