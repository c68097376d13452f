//! Drives one study through an in-process `sea_fleet::Daemon`, timing
//! submit → merged journal from the daemon's own status document.
//!
//! `fleet submit --watch` must not be the timer: it sleeps 500 ms between
//! polls, so it measures its own poll interval (four 240-run studies each
//! took 3.01 s ± 5 ms through it). Here the status document is polled
//! every [`POLL`] instead.

use crate::json::{self, Json};
use sea_core::StudySpec;
use sea_fleet::{run_worker, Daemon, DaemonConfig, Registry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Status poll interval; also the resolution of every time reported here.
const POLL: Duration = Duration::from_millis(20);

/// A study that has not finished by then never will (the slowest
/// benchmark study takes seconds).
const GIVE_UP: Duration = Duration::from_secs(45);

/// One finished fleet study.
#[derive(Debug)]
pub struct FleetRun {
    /// Submit → study state `done` (shards merged, workers reaped).
    pub wall: Duration,
    /// Submit → first verdict record in any shard journal (`None` for a
    /// study with no runs).
    pub first_record: Option<Duration>,
    /// Submit → every planned verdict on disk in some shard.
    pub last_record: Option<Duration>,
    /// The merged journal.
    pub merged: PathBuf,
    /// Shard journals the workers wrote.
    pub shards: Vec<PathBuf>,
    /// The study's final status document.
    pub status: Json,
}

/// If this process was started as `<exe> worker --connect ADDR` — how the
/// daemon re-execs the current binary for each shard — become that
/// worker and never return.
pub fn become_worker_if_asked() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, flag, addr] = args.as_slice() {
        if cmd == "worker" && flag == "--connect" {
            let code = match run_worker(addr) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("{e}");
                    1
                }
            };
            std::process::exit(code);
        }
    }
}

/// Submit `spec_text` (one workload in its suite) to a fresh daemon over
/// `root` with `workers` worker processes and wait for the merged
/// journal.
///
/// The daemon's scheduler thread only returns on the process-wide stop
/// flag, so it is left running: callers are one-shot processes that exit
/// after reading the result. Worker processes are reaped by the daemon
/// before it reports `done`.
///
/// # Errors
///
/// Daemon start or submit failure, a study that fails, or one that does
/// not finish.
pub fn run_study(root: &Path, workers: u32, spec_text: &str) -> Result<FleetRun, String> {
    let spec = StudySpec::from_json(spec_text).map_err(|e| e.to_string())?;
    let [workload] = spec.suite.as_slice() else {
        return Err("a benchmark fleet study has exactly one workload".to_string());
    };
    let daemon = Arc::new(
        Daemon::start(DaemonConfig {
            root: root.to_path_buf(),
            workers,
            ..DaemonConfig::default()
        })
        .map_err(|e| format!("fleet daemon start: {e}"))?,
    );

    let t0 = Instant::now();
    let ack = daemon.submit(spec_text)?;
    let id = json::parse(&ack)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
        .ok_or_else(|| format!("submit ack carried no study id: {ack}"))?;
    // Submitted before the scheduler starts, so its first look finds the
    // study queued instead of sleeping through an idle interval.
    let scheduler = daemon.clone();
    std::thread::Builder::new()
        .name("fleet-scheduler".into())
        .spawn(move || scheduler.run())
        .map_err(|e| format!("fleet scheduler thread: {e}"))?;

    let (mut first_record, mut last_record) = (None, None);
    let status = loop {
        std::thread::sleep(POLL);
        let doc = daemon
            .study_status(&id)
            .and_then(|s| json::parse(&s).ok())
            .ok_or_else(|| format!("study {id} has no status document"))?;
        let now = t0.elapsed();
        let row = match doc.get("suite") {
            Some(Json::Arr(rows)) => rows.first(),
            _ => None,
        };
        let done = row.and_then(|r| r.get("done")).and_then(Json::as_u64);
        let total = row.and_then(|r| r.get("total")).and_then(Json::as_u64);
        if done > Some(0) {
            first_record.get_or_insert(now);
            if done == total {
                last_record.get_or_insert(now);
            }
        }
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => break doc,
            Some("failed") => {
                let why = doc.get("error").and_then(Json::as_str).unwrap_or("unknown");
                return Err(format!("study {id} failed: {why}"));
            }
            _ if now > GIVE_UP => return Err(format!("study {id} did not finish in {GIVE_UP:?}")),
            _ => {}
        }
    };
    let reg = Registry::new(root);
    Ok(FleetRun {
        wall: t0.elapsed(),
        first_record,
        last_record,
        merged: reg.merged_path(&id, workload.name()),
        shards: reg.shard_journals(&id, workload.name()),
        status,
    })
}
