//! The campaign daemon: study queue, block scheduler, worker supervisor,
//! deterministic merge.
//!
//! One daemon process owns the study registry and a local TCP socket.
//! Worker *processes* (spawned `fleet worker` children, or any process
//! calling [`crate::run_worker`]) connect, get a shard number plus the
//! canonical study spec, and claim contiguous blocks of the injection
//! index space. The daemon never executes a run, and full verdict
//! records live only in the workers' shard journals — but it is not
//! blind: `done` messages carry `(stratum, class)` observation pairs
//! that feed a live [`ConvergenceTracker`] (margins in status documents,
//! and the fleet-wide `stop_at_margin` early stop), and telemetry frames
//! feed the [`TelemetryBoard`] metrics plane. Its job reduces to
//! bookkeeping ([`Ledger`]), supervision (watchdog requeue, child
//! respawn with jittered backoff), aggregation and, once a workload's
//! index space is covered (or its margins converge), the deterministic
//! merge that folds the shard journals into one file — byte-identical to
//! a single-process campaign's when coverage was exhaustive.
//!
//! Nothing here sleeps on a fixed interval. The active-study state carries
//! a condition variable that every completion, requeue, margin stop,
//! departing worker, drain, submit and phase change notifies. A `claim`
//! (or `hello`) with nothing to hand out is held open on it — a long poll
//! of at most [`LONG_POLL`] — and answered the moment a block frees up or
//! the study ends; the scheduler wakes on it to merge as soon as the
//! ledger completes; the drain wakes on it as workers say goodbye.

use crate::ledger::Ledger;
use crate::merge::{merge_shard_journals, scan_done};
use crate::proto::{self, ToDaemon, ToWorker};
use crate::registry::{study_id, Registry};
use crate::telemetry::{Frame, TelemetryBoard};
use crate::worker::{canonicalize_spec, install_stop_signals};
use sea_core::{FaultClass, StudySpec};
use sea_injection::convergence::strata_json;
use sea_injection::stats::Z_99;
use sea_injection::supervisor::fnv1a;
use sea_injection::{
    open_journal, stop_requested, CampaignPlan, ConvergenceTracker, JournalFormat, JournalSpec,
};
use sea_microarch::{NullDevice, System};
use sea_profile::PromWriter;
use sea_trace::json::ObjWriter;
use sea_trace::{event, Level, Subsystem};
use sea_workloads::Workload;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Longest the scheduler waits on [`Shared::changed`]. Completions,
/// requeues, margin stops and submits all notify it; the bound only
/// covers what raises no event — the process-wide stop flag, a child
/// process exiting, the stall watchdog.
const TICK: Duration = Duration::from_millis(50);

/// Longest a `hello` or `claim` with nothing to hand out is held open
/// before it is answered `wait` (and the worker asks again at once). It
/// bounds how late a worker sees its own stop flag.
const LONG_POLL: Duration = Duration::from_millis(200);

/// How often `wind_down` re-checks a worker that has already said
/// goodbye: its process exits a moment after its socket closes, and that
/// exit raises no event.
const REAP_TICK: Duration = Duration::from_millis(2);

/// How long `wind_down` waits for workers to exit cleanly before killing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Registry root: studies, shard journals and merged journals live
    /// under `<root>/<study-id>/`.
    pub root: PathBuf,
    /// Worker processes to spawn per study (0 = spawn none; external
    /// workers may still connect).
    pub workers: u32,
    /// Optional HTTP bind address (e.g. `127.0.0.1:0`) for the
    /// `sea-observe` surface (`/studies`, `/status`, `/metrics`, ...).
    pub serve: Option<String>,
    /// A granted block whose worker has not reported for this long is
    /// requeued for another shard to steal.
    pub watchdog_ms: u64,
    /// Worker-process respawn budget per study.
    pub max_respawns: u32,
    /// Worker command line; `--connect <addr>` is appended. Empty means
    /// re-exec the current executable with a `worker` argument.
    pub worker_cmd: Vec<String>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            root: PathBuf::from("out/fleet"),
            workers: 2,
            serve: None,
            watchdog_ms: 120_000,
            max_respawns: 4,
            worker_cmd: Vec::new(),
        }
    }
}

/// Lifecycle of one study.
#[derive(Clone, Debug)]
enum Phase {
    Queued,
    Running(u32),
    Done,
    Failed(String),
}

impl Phase {
    fn state(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running(_) => "running",
            Phase::Done => "done",
            Phase::Failed(_) => "failed",
        }
    }
}

struct StudyRec {
    id: String,
    canonical: String,
    spec: StudySpec,
    phase: Phase,
}

/// The workload currently being sharded out.
struct Active {
    study_id: String,
    canonical: String,
    dir: PathBuf,
    wl: u32,
    workload: String,
    ledger: Ledger,
    tracker: ConvergenceTracker,
    shard_runs: BTreeMap<u32, u64>,
    /// The spec's `stop_at_margin`: stop granting once every stratum's
    /// adjusted margin is below this threshold.
    stop_at_margin: Option<f64>,
    /// Latched once the margin threshold is reached; claims get `exit`
    /// from then on and the scheduler merges the partial journals.
    stopped: bool,
}

/// State shared between the scheduler, worker connections and the HTTP
/// surface. Lock order where both are held: `active` before `studies`.
struct Shared {
    cfg: DaemonConfig,
    reg: Registry,
    addr: SocketAddr,
    studies: Mutex<Vec<StudyRec>>,
    active: Mutex<Option<Active>>,
    /// Paired with `active`; notified on every change a waiter may be
    /// blocked on: ledger progress or completion, a requeue, a margin
    /// stop, a worker leaving, the draining flag, a submit or phase change.
    /// Long-polled claims, the scheduler and the drain all wait on it.
    changed: Condvar,
    /// Telemetry aggregation (leaf lock; see `telemetry` module docs).
    board: TelemetryBoard,
    draining: AtomicBool,
    next_shard: AtomicU32,
    blocks_granted: AtomicU64,
    requeued_death: AtomicU64,
    requeued_stall: AtomicU64,
    child_respawns: AtomicU64,
    respawn_backoff_ms: AtomicU64,
    runs_done: AtomicU64,
    studies_done: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Total injection indices of one workload under a spec — the worker-side
/// [`sea_injection::CampaignPlan`] will arrive at the same number.
fn total_runs(spec: &StudySpec, w: Workload) -> u64 {
    let icfg = spec.study.injection_config_for(w);
    u64::from(icfg.samples_per_component) * icfg.components.len() as u64
}

/// Jittered exponential backoff before a worker-process respawn:
/// uniform-ish in `[base/2, base)` with `base = (10 << nth) ms`, capped at
/// half a second. Deterministic in `(nth, salt)` like the in-process
/// supervisor's, so respawn storms de-synchronize without a clock-seeded
/// RNG.
fn child_backoff_ms(nth: u64, salt: u64) -> u64 {
    let base = (10u64 << nth.min(6)).min(500);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&nth.to_le_bytes());
    key[8..].copy_from_slice(&salt.to_le_bytes());
    base / 2 + fnv1a(&key) % (base / 2).max(1)
}

fn ack(id: &str, state: &str) -> String {
    let mut o = ObjWriter::new();
    o.str_field("id", id).str_field("state", state);
    o.finish()
}

impl Shared {
    // ---- change notification ---------------------------------------------

    /// Wake every thread waiting on [`Shared::changed`]. The `active` lock
    /// is taken first, so a waiter that checked its condition under it
    /// cannot miss the change. Callers must not hold `studies`.
    fn wake(&self) {
        let _held = lock(&self.active);
        self.changed.notify_all();
    }

    /// Wait on [`Shared::changed`] for at most `timeout`.
    fn wait<'a>(
        &self,
        guard: MutexGuard<'a, Option<Active>>,
        timeout: Duration,
    ) -> MutexGuard<'a, Option<Active>> {
        match self.changed.wait_timeout(guard, timeout) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }

    /// Replace the active workload and wake everyone waiting on it.
    fn set_active(&self, next: Option<Active>) {
        *lock(&self.active) = next;
        self.changed.notify_all();
    }

    /// True when no study is queued or running: a welcomed worker then
    /// has nothing left to wait for.
    fn idle(&self) -> bool {
        !lock(&self.studies)
            .iter()
            .any(|s| matches!(s.phase, Phase::Queued | Phase::Running(_)))
    }

    // ---- worker socket ---------------------------------------------------

    /// Long-poll: answer with `decide`'s reply as soon as it has one,
    /// asking again after every change to the active-study state. After
    /// [`LONG_POLL`] with nothing to hand out, tell the worker to ask
    /// again at once.
    fn long_poll(
        &self,
        mut decide: impl FnMut(&mut Option<Active>) -> Option<ToWorker>,
    ) -> ToWorker {
        let deadline = Instant::now() + LONG_POLL;
        let mut active = lock(&self.active);
        loop {
            if let Some(reply) = decide(&mut active) {
                return reply;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return ToWorker::Wait { ms: 0 };
            }
            active = self.wait(active, left);
        }
    }

    /// The answer to shard `k`'s claim right now, or `None` while there is
    /// nothing to grant yet (everything granted, or between workloads).
    fn try_claim(&self, active: &mut Option<Active>, k: u32, study: &str) -> Option<ToWorker> {
        match active.as_mut() {
            None => {
                (self.draining.load(Ordering::Acquire) || self.idle()).then_some(ToWorker::Exit)
            }
            // A worker welcomed under an earlier study must not execute
            // grants of a different one — its journal dir and plan would
            // be wrong.
            Some(a) if a.study_id != study => Some(ToWorker::Exit),
            Some(a) if a.stopped => Some(ToWorker::Exit),
            Some(a) => {
                let (start, end) = a.ledger.claim(k, u64::from(self.cfg.workers.max(1)))?;
                self.blocks_granted.fetch_add(1, Ordering::Relaxed);
                Some(ToWorker::Grant {
                    wl: a.wl,
                    start,
                    end,
                })
            }
        }
    }

    /// Serve one worker connection until EOF/`bye`. Any abrupt end
    /// requeues everything granted to the connection's shard.
    fn serve_worker(&self, sock: TcpStream) {
        let Ok(clone) = sock.try_clone() else { return };
        let mut r = BufReader::new(clone);
        let mut w = sock;
        let mut shard: Option<u32> = None;
        let mut study: String = String::new();
        let mut clean = false;
        while let Ok(Some(line)) = proto::recv(&mut r) {
            let Ok(msg) = ToDaemon::decode(&line) else {
                break;
            };
            let reply = match msg {
                ToDaemon::Hello => self.long_poll(|active| {
                    if self.draining.load(Ordering::Acquire) {
                        return Some(ToWorker::Exit);
                    }
                    // With nothing to hand out yet, the worker waits
                    // without burning a shard number.
                    let a = active.as_ref()?;
                    let k = self.next_shard.fetch_add(1, Ordering::AcqRel);
                    shard = Some(k);
                    study = a.study_id.clone();
                    Some(ToWorker::Welcome {
                        shard: k,
                        dir: a.dir.display().to_string(),
                        spec: a.canonical.clone(),
                    })
                }),
                ToDaemon::Claim => {
                    let Some(k) = shard else {
                        // Protocol violation; cut the worker loose.
                        let _ = proto::send(&mut w, &ToWorker::Exit.encode());
                        break;
                    };
                    self.long_poll(|active| self.try_claim(active, k, &study))
                }
                ToDaemon::Done {
                    wl,
                    start,
                    end,
                    obs,
                } => {
                    if let Some(k) = shard {
                        let mut active = lock(&self.active);
                        if let Some(a) = active.as_mut() {
                            if a.study_id == study && a.wl == wl {
                                let fresh = a.ledger.mark_done(k, start, end);
                                if fresh > 0 {
                                    self.runs_done.fetch_add(fresh, Ordering::Relaxed);
                                    *a.shard_runs.entry(k).or_insert(0) += fresh;
                                    // Only first completions feed the live
                                    // margins; a stolen block's duplicate
                                    // re-execution must not double-count.
                                    for (s, c) in obs {
                                        if let Some(&class) = FaultClass::ALL.get(c as usize) {
                                            if (s as usize) < a.tracker.len() {
                                                a.tracker.record(s as usize, class);
                                            }
                                        }
                                    }
                                    margin_stop(a);
                                    self.changed.notify_all();
                                }
                            }
                        }
                    }
                    continue; // `done` takes no reply; a `claim` follows
                }
                ToDaemon::Telemetry {
                    seq: _,
                    runs,
                    elapsed_ms,
                    clock_us,
                    counters,
                    hists,
                    health,
                    events,
                } => {
                    if let Some(k) = shard {
                        let fresh = self.board.absorb(
                            k,
                            &study,
                            Frame {
                                runs,
                                elapsed_ms,
                                clock_us,
                                counters,
                                hists,
                                health,
                                events,
                            },
                        );
                        // Relay fresh worker events (tagged with study/
                        // shard/worker) into the shared tail so `/events`
                        // multiplexes the whole fleet.
                        if !fresh.is_empty() {
                            let tail = sea_observe::tail_sink();
                            for line in fresh {
                                tail.push_line(line);
                            }
                        }
                    }
                    continue; // fire-and-forget, like `done`
                }
                ToDaemon::Bye => {
                    clean = true;
                    break;
                }
            };
            if proto::send(&mut w, &reply.encode()).is_err() {
                break;
            }
        }
        if let Some(k) = shard {
            self.board.mark_gone(k, clean);
        }
        // A worker leaving wakes the drain as well as any claim that can
        // now steal its requeued blocks.
        let mut active = lock(&self.active);
        if let (Some(k), Some(a)) = (shard, active.as_mut()) {
            if a.study_id == study {
                let n = a.ledger.requeue_shard(k);
                if n > 0 {
                    self.requeued_death.fetch_add(n, Ordering::Relaxed);
                    event!(Subsystem::Harness, Level::Warn, "fleet.shard_requeued";
                           "shard" => u64::from(k),
                           "indices" => n,
                           "clean_bye" => clean);
                }
            }
        }
        self.changed.notify_all();
    }

    // ---- scheduler -------------------------------------------------------

    fn set_phase(&self, id: &str, phase: Phase) {
        if let Some(s) = lock(&self.studies).iter_mut().find(|s| s.id == id) {
            s.phase = phase;
        }
        // A held claim with no active workload answers `exit` once no
        // study is left queued or running.
        self.wake();
    }

    fn spawn_one(&self) -> std::io::Result<Child> {
        let (prog, args) = if self.cfg.worker_cmd.is_empty() {
            (std::env::current_exe()?, vec!["worker".to_string()])
        } else {
            (
                PathBuf::from(&self.cfg.worker_cmd[0]),
                self.cfg.worker_cmd[1..].to_vec(),
            )
        };
        Command::new(prog)
            .args(args)
            .arg("--connect")
            .arg(self.addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
    }

    fn spawn_fleet(&self, children: &mut Vec<Child>) {
        for _ in 0..self.cfg.workers {
            match self.spawn_one() {
                Ok(c) => {
                    event!(Subsystem::Harness, Level::Info, "fleet.worker_spawned";
                           "pid" => u64::from(c.id()));
                    children.push(c);
                }
                Err(e) => {
                    event!(Subsystem::Harness, Level::Error, "fleet.spawn_failed";
                           "error" => e.to_string());
                }
            }
        }
    }

    /// Reap exited worker processes and respawn them (jittered backoff)
    /// while the per-study budget lasts.
    fn reap(&self, children: &mut [Child], budget: &mut u32) {
        for slot in children.iter_mut() {
            let Ok(Some(status)) = slot.try_wait() else {
                continue;
            };
            if *budget == 0 {
                continue;
            }
            *budget -= 1;
            let nth = self.child_respawns.fetch_add(1, Ordering::Relaxed);
            let pause = child_backoff_ms(nth, self.runs_done.load(Ordering::Relaxed));
            self.respawn_backoff_ms.fetch_add(pause, Ordering::Relaxed);
            event!(Subsystem::Harness, Level::Warn, "fleet.worker_respawn";
                   "exit_code" => status.code().map_or(-1, i64::from),
                   "nth" => nth,
                   "backoff_ms" => pause);
            std::thread::sleep(Duration::from_millis(pause));
            match self.spawn_one() {
                Ok(c) => *slot = c,
                Err(e) => {
                    event!(Subsystem::Harness, Level::Error, "fleet.spawn_failed";
                           "error" => e.to_string());
                }
            }
        }
    }

    /// Drain the fleet: flip the draining flag (claims and hellos, held
    /// or new, now get `exit`), give workers [`DRAIN_TIMEOUT`] to leave,
    /// kill stragglers.
    fn wind_down(&self, mut children: Vec<Child>) {
        self.draining.store(true, Ordering::Release);
        self.wake();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut active = lock(&self.active);
        loop {
            children.retain_mut(|c| !matches!(c.try_wait(), Ok(Some(_))));
            let left = deadline.saturating_duration_since(Instant::now());
            if children.is_empty() || left.is_zero() {
                break;
            }
            active = self.wait(active, left.min(REAP_TICK));
        }
        drop(active);
        for c in &mut children {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.draining.store(false, Ordering::Release);
    }

    /// A workload that plans no runs gets no grant, so no worker opens a
    /// shard journal for it. The daemon opens one as a shard of its own —
    /// header only, the bytes a single-process campaign of zero runs
    /// writes — so the merge has the identity header to emit.
    fn empty_shard(&self, id: &str, spec: &StudySpec, w: Workload) -> Result<(), String> {
        let built = w.build(spec.study.scale);
        let cfg = spec.study.injection_config_for(w);
        let plan =
            CampaignPlan::new(w.name(), &built, &cfg).map_err(|e| format!("plan for {w}: {e}"))?;
        let jspec = JournalSpec {
            dir: self
                .reg
                .shard_dir(id, self.next_shard.fetch_add(1, Ordering::AcqRel)),
            resume: false,
            format: JournalFormat::Binary,
            fsync: spec.study.journal_fsync,
        };
        let (journal, _) =
            open_journal(&jspec, &plan.header()).map_err(|e| format!("journal: {e}"))?;
        journal.sync();
        Ok(())
    }

    /// Drive one study to completion (or to a stop-flag pause / failure).
    fn process_study(&self, id: &str, canonical: &str, spec: &StudySpec) {
        event!(Subsystem::Harness, Level::Info, "fleet.study_start";
               "id" => id.to_string(),
               "workloads" => spec.suite.len() as u64);
        // Never reuse a shard number that already has a journal directory
        // (a restarted daemon would otherwise double-book shard 0).
        if let Some(&max) = self.reg.existing_shards(id).last() {
            let cur = self.next_shard.load(Ordering::Acquire);
            if cur <= max {
                self.next_shard.store(max + 1, Ordering::Release);
            }
        }
        let mut children: Vec<Child> = Vec::new();
        let mut spawned = false;
        let mut respawn_budget = self.cfg.max_respawns;

        for (k, &w) in spec.suite.iter().enumerate() {
            let merged = self.reg.merged_path(id, w.name());
            if merged.exists() {
                continue;
            }
            let total = total_runs(spec, w);
            // Resume: everything any shard journal already holds is done.
            let ledger = Ledger::new(total, self.reg.done_indices(id, w.name()));
            if !ledger.complete() {
                let icfg = spec.study.injection_config_for(w);
                let probe = System::new(icfg.machine, NullDevice);
                let tracker = ConvergenceTracker::with_strata(
                    Z_99,
                    icfg.components
                        .iter()
                        .map(|&c| (c.short_name().to_string(), probe.component_bits(c))),
                );
                self.set_phase(id, Phase::Running(k as u32));
                self.set_active(Some(Active {
                    study_id: id.to_string(),
                    canonical: canonical.to_string(),
                    dir: self.reg.study_dir(id),
                    wl: k as u32,
                    workload: w.name().to_string(),
                    ledger,
                    tracker,
                    shard_runs: BTreeMap::new(),
                    stop_at_margin: spec.study.stop_at_margin,
                    stopped: false,
                }));
                if !spawned {
                    self.spawn_fleet(&mut children);
                    spawned = true;
                }
                let mut margin_stopped = false;
                loop {
                    if stop_requested() {
                        // Pause, resumable: shard journals keep the done
                        // set; the study re-queues on the next daemon run.
                        self.set_active(None);
                        self.wind_down(children);
                        self.set_phase(id, Phase::Queued);
                        event!(Subsystem::Harness, Level::Warn, "fleet.study_paused";
                               "id" => id.to_string(),
                               "workload" => w.name());
                        return;
                    }
                    {
                        let mut active = lock(&self.active);
                        if let Some(a) = active.as_mut() {
                            let stale = a.ledger.requeue_stalled(self.cfg.watchdog_ms);
                            if stale > 0 {
                                self.requeued_stall.fetch_add(stale, Ordering::Relaxed);
                                event!(Subsystem::Harness, Level::Warn, "fleet.stall_requeued";
                                       "workload" => w.name(),
                                       "indices" => stale);
                                self.changed.notify_all();
                            }
                            if a.stopped {
                                margin_stopped = true;
                                break;
                            }
                            if a.ledger.complete() {
                                break;
                            }
                        }
                        drop(self.wait(active, TICK));
                    }
                    self.reap(&mut children, &mut respawn_budget);
                }
                self.set_active(None);
                if margin_stopped {
                    // Drain the fleet before merging: exiting workers
                    // fsync and close their shard journals, so the merge
                    // below reads a quiescent set of files. Later
                    // workloads of the study respawn a fresh fleet.
                    self.wind_down(std::mem::take(&mut children));
                    spawned = false;
                }
            }
            let header = match total {
                0 => self.empty_shard(id, spec, w),
                _ => Ok(()),
            };
            let merge = header.and_then(|()| {
                merge_shard_journals(&self.reg.shard_journals(id, w.name()), &merged)
                    .map_err(|e| e.to_string())
            });
            match merge {
                Ok(audit) => {
                    event!(Subsystem::Harness, Level::Info, "fleet.merged";
                           "workload" => w.name(),
                           "shards" => audit.shards as u64,
                           "records_in" => audit.records_in,
                           "duplicates" => audit.duplicates,
                           "merged" => audit.merged,
                           "torn_bytes" => audit.torn_bytes);
                }
                Err(e) => {
                    event!(Subsystem::Harness, Level::Error, "fleet.merge_failed";
                           "id" => id.to_string(),
                           "workload" => w.name(),
                           "error" => e.clone());
                    self.set_phase(id, Phase::Failed(e));
                    self.wind_down(children);
                    return;
                }
            }
        }
        self.wind_down(children);
        self.set_phase(id, Phase::Done);
        self.studies_done.fetch_add(1, Ordering::Relaxed);
        event!(Subsystem::Harness, Level::Info, "fleet.study_done";
               "id" => id.to_string());
    }

    // ---- documents -------------------------------------------------------

    /// The daemon-level `/status` document.
    fn status_doc(&self) -> String {
        let (total, by_state) = {
            let studies = lock(&self.studies);
            let mut by = [0u64; 4];
            for s in studies.iter() {
                let k = match s.phase {
                    Phase::Queued => 0,
                    Phase::Running(_) => 1,
                    Phase::Done => 2,
                    Phase::Failed(_) => 3,
                };
                by[k] += 1;
            }
            (studies.len() as u64, by)
        };
        let mut o = ObjWriter::new();
        o.str_field("state", "fleet")
            .u64_field("studies", total)
            .u64_field("queued", by_state[0])
            .u64_field("running", by_state[1])
            .u64_field("done", by_state[2])
            .u64_field("failed", by_state[3])
            .u64_field("workers", u64::from(self.cfg.workers))
            .u64_field("runs_done", self.runs_done.load(Ordering::Relaxed));
        match lock(&self.active).as_ref() {
            Some(a) => {
                o.raw_field("active", &active_json(a));
            }
            None => {
                o.raw_field("active", "null");
            }
        }
        o.raw_field("workers", &self.board.workers_json(None));
        o.finish()
    }

    /// The daemon-level `/metrics` exposition.
    fn metrics_doc(&self) -> String {
        let mut w = PromWriter::new();
        w.counter(
            "sea_fleet_runs_done_total",
            "Injection runs completed across all shards and studies.",
            self.runs_done.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_blocks_granted_total",
            "Blocks granted to worker shards.",
            self.blocks_granted.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_requeued_death_total",
            "Indices requeued off dead worker connections.",
            self.requeued_death.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_requeued_stall_total",
            "Indices requeued by the grant watchdog.",
            self.requeued_stall.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_worker_respawns_total",
            "Worker processes respawned after exiting mid-study.",
            self.child_respawns.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_respawn_backoff_ms_total",
            "Milliseconds spent backing off before worker respawns.",
            self.respawn_backoff_ms.load(Ordering::Relaxed),
        );
        w.counter(
            "sea_fleet_studies_done_total",
            "Studies driven to completion by this daemon.",
            self.studies_done.load(Ordering::Relaxed),
        );
        if let Some(a) = lock(&self.active).as_ref() {
            w.gauge(
                "sea_fleet_active_done",
                "Completed indices of the workload being sharded out.",
                a.ledger.done_count() as f64,
            );
            w.gauge(
                "sea_fleet_active_total",
                "Total indices of the workload being sharded out.",
                a.ledger.total() as f64,
            );
            w.gauge(
                "sea_fleet_active_margin_adjusted",
                "Worst adjusted error margin across the active strata.",
                a.tracker.max_adjusted_margin(),
            );
            w.gauge(
                "sea_fleet_active_margin_stopped",
                "1 once the stop-at-margin threshold halted granting.",
                if a.stopped { 1.0 } else { 0.0 },
            );
        }
        self.board.prom_append(&mut w);
        w.finish()
    }
}

/// Fleet-wide convergence early stop: once every stratum's adjusted
/// margin is under the spec's threshold, latch `stopped` — claims get
/// `exit` from then on and the scheduler merges what exists.
fn margin_stop(a: &mut Active) {
    if !a.stopped && a.stop_at_margin.is_some_and(|m| a.tracker.converged(m)) {
        a.stopped = true;
        event!(Subsystem::Harness, Level::Info, "fleet.margin_stop";
               "study" => a.study_id.clone(),
               "workload" => a.workload.clone(),
               "done" => a.ledger.done_count(),
               "total" => a.ledger.total(),
               "margin_adjusted" => a.tracker.max_adjusted_margin());
    }
}

/// Live detail of the active workload (the `active` member of study and
/// daemon status documents).
fn active_json(a: &Active) -> String {
    let mut o = ObjWriter::new();
    o.str_field("workload", &a.workload)
        .u64_field("wl", u64::from(a.wl))
        .u64_field("total", a.ledger.total())
        .u64_field("done", a.ledger.done_count())
        .u64_field("outstanding", a.ledger.outstanding_count());
    let mut shards = ObjWriter::new();
    for (k, n) in &a.shard_runs {
        shards.u64_field(&k.to_string(), *n);
    }
    o.raw_field("shard_runs", &shards.finish())
        .f64_field("margin_adjusted", a.tracker.max_adjusted_margin())
        .bool_field("margin_stopped", a.stopped)
        .raw_field("strata", &strata_json(&a.tracker));
    o.finish()
}

impl sea_observe::StudyApi for Shared {
    fn submit(&self, spec_json: &str) -> Result<String, String> {
        let (canonical, spec) = canonicalize_spec(spec_json)?;
        if spec.study.journal_format != JournalFormat::Binary {
            return Err(
                "fleet studies require \"journal_format\":\"bin\" — the deterministic \
                 merge operates on binary .seaj shard journals"
                    .to_string(),
            );
        }
        let id = study_id(&canonical);
        let mut studies = lock(&self.studies);
        if let Some(existing) = studies.iter().find(|s| s.id == id) {
            // Idempotent: same canonical spec, same study.
            return Ok(ack(&id, existing.phase.state()));
        }
        self.reg
            .persist(&id, &canonical)
            .map_err(|e| format!("cannot persist study: {e}"))?;
        event!(Subsystem::Harness, Level::Info, "fleet.study_submitted";
               "id" => id.clone(),
               "workloads" => spec.suite.len() as u64);
        studies.push(StudyRec {
            id: id.clone(),
            canonical,
            spec,
            phase: Phase::Queued,
        });
        drop(studies);
        self.wake(); // an idle scheduler picks the study up at once
        Ok(ack(&id, "queued"))
    }

    fn list(&self) -> String {
        let studies = lock(&self.studies);
        let mut out = String::from("[");
        for (k, s) in studies.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let mut o = ObjWriter::new();
            o.str_field("id", &s.id)
                .str_field("state", s.phase.state())
                .u64_field("workloads", s.spec.suite.len() as u64);
            out.push_str(&o.finish());
        }
        out.push(']');
        out
    }

    fn status(&self, id: &str) -> Option<String> {
        let (spec, phase) = {
            let studies = lock(&self.studies);
            let s = studies.iter().find(|s| s.id == id)?;
            (s.spec.clone(), s.phase.clone())
        };
        let mut suite = String::from("[");
        for (k, w) in spec.suite.iter().enumerate() {
            if k > 0 {
                suite.push(',');
            }
            let total = total_runs(&spec, *w);
            let merged_path = self.reg.merged_path(id, w.name());
            let merged = merged_path.exists();
            // A margin-stopped merge covers less than `total`, so count
            // the merged journal's records instead of assuming coverage.
            let done = if merged {
                scan_done(&merged_path).len() as u64
            } else {
                self.reg.done_indices(id, w.name()).len() as u64
            };
            let mut row = ObjWriter::new();
            row.str_field("workload", w.name())
                .u64_field("total", total)
                .u64_field("done", done)
                .bool_field("merged", merged);
            suite.push_str(&row.finish());
        }
        suite.push(']');
        let mut o = ObjWriter::new();
        o.str_field("id", id).str_field("state", phase.state());
        if let Phase::Running(k) = phase {
            o.u64_field("running_wl", u64::from(k));
        }
        if let Phase::Failed(why) = &phase {
            o.str_field("error", why);
        }
        o.raw_field("suite", &suite);
        match lock(&self.active).as_ref() {
            Some(a) if a.study_id == id => {
                o.raw_field("active", &active_json(a));
                let rate = self.board.fleet_rate(id);
                o.f64_field("rate_per_sec", rate);
                let remaining = a.ledger.total().saturating_sub(a.ledger.done_count());
                // Non-finite (no live throughput yet) renders as null.
                o.f64_field("eta_sec", remaining as f64 / rate);
            }
            _ => {
                o.raw_field("active", "null");
            }
        }
        o.raw_field("workers", &self.board.workers_json(Some(id)));
        Some(o.finish())
    }

    fn journal(&self, id: &str) -> Result<PathBuf, String> {
        let (suite, phase) = {
            let studies = lock(&self.studies);
            let s = studies
                .iter()
                .find(|s| s.id == id)
                .ok_or_else(|| format!("unknown study {id}"))?;
            (s.spec.suite.clone(), s.phase.clone())
        };
        if !matches!(phase, Phase::Done) {
            return Err(format!("study {id} is {}, not done", phase.state()));
        }
        match suite.as_slice() {
            [w] => Ok(self.reg.merged_path(id, w.name())),
            _ => Err(format!(
                "study {id} spans {} workloads; fetch per-workload merged journals \
                 from {}",
                suite.len(),
                self.reg.study_dir(id).join("merged").display()
            )),
        }
    }

    fn trace(&self, id: &str) -> Option<String> {
        let known = lock(&self.studies).iter().any(|s| s.id == id);
        if !known && !self.board.knows_study(id) {
            return None;
        }
        Some(sea_profile::stitch_chrome_trace(&self.board.tracks_for(id)))
    }
}

/// Hand every accepted worker connection to `serve`, with Nagle's
/// algorithm off: a reply must not wait out the worker's delayed ACK.
/// Returns once the stop flag is up at an accept.
pub(crate) fn accept_workers(listener: TcpListener, mut serve: impl FnMut(TcpStream)) {
    for conn in listener.incoming() {
        if stop_requested() {
            break;
        }
        let Ok(c) = conn else { continue };
        // A socket that refuses the option is served anyway, just slower.
        let _ = c.set_nodelay(true);
        serve(c);
    }
}

/// A running fleet daemon.
pub struct Daemon {
    shared: Arc<Shared>,
    http: Option<SocketAddr>,
}

impl Daemon {
    /// Bind the worker socket (ephemeral local port), recover the study
    /// registry from disk, start the accept thread and — when configured
    /// — the HTTP surface.
    ///
    /// # Errors
    ///
    /// Socket binds that fail.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        install_stop_signals();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let reg = Registry::new(&cfg.root);
        let shared = Arc::new(Shared {
            cfg,
            reg,
            addr,
            studies: Mutex::new(Vec::new()),
            active: Mutex::new(None),
            changed: Condvar::new(),
            board: TelemetryBoard::new(),
            draining: AtomicBool::new(false),
            next_shard: AtomicU32::new(0),
            blocks_granted: AtomicU64::new(0),
            requeued_death: AtomicU64::new(0),
            requeued_stall: AtomicU64::new(0),
            child_respawns: AtomicU64::new(0),
            respawn_backoff_ms: AtomicU64::new(0),
            runs_done: AtomicU64::new(0),
            studies_done: AtomicU64::new(0),
        });

        // Recover persisted studies: fully merged ones are done, anything
        // else re-queues and resumes off its shard journals.
        {
            let mut studies = lock(&shared.studies);
            for (id, canonical) in shared.reg.load_all() {
                let Ok(spec) = StudySpec::from_json(&canonical) else {
                    continue;
                };
                let done = spec
                    .suite
                    .iter()
                    .all(|w| shared.reg.merged_path(&id, w.name()).exists());
                event!(Subsystem::Harness, Level::Info, "fleet.study_recovered";
                       "id" => id.clone(),
                       "done" => done);
                studies.push(StudyRec {
                    id,
                    canonical,
                    spec,
                    phase: if done { Phase::Done } else { Phase::Queued },
                });
            }
        }

        let accept = shared.clone();
        std::thread::Builder::new()
            .name("fleet-accept".into())
            .spawn(move || {
                accept_workers(listener, |c| {
                    let shared = accept.clone();
                    let _ = std::thread::Builder::new()
                        .name("fleet-conn".into())
                        .spawn(move || shared.serve_worker(c));
                })
            })?;

        let http = match &shared.cfg.serve {
            Some(bind) => {
                let bound = sea_observe::serve(bind)?;
                sea_observe::publish_studies(
                    Some(shared.clone() as Arc<dyn sea_observe::StudyApi>),
                );
                let s = shared.clone();
                sea_observe::publish_status(Some(Arc::new(move || s.status_doc())));
                let s = shared.clone();
                sea_observe::publish_metrics(Some(Arc::new(move || s.metrics_doc())));
                Some(bound)
            }
            None => None,
        };
        event!(Subsystem::Harness, Level::Info, "fleet.daemon_up";
               "worker_addr" => addr.to_string(),
               "http" => http.map_or_else(|| "off".to_string(), |a| a.to_string()));
        Ok(Daemon { shared, http })
    }

    /// The local socket workers connect to.
    pub fn worker_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The HTTP address, when `serve` was configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http
    }

    /// Submit a study spec directly (the HTTP `POST /studies` body goes
    /// through the same path).
    ///
    /// # Errors
    ///
    /// The rejection message (bad spec, non-binary journal format,
    /// persistence failure).
    pub fn submit(&self, spec_json: &str) -> Result<String, String> {
        sea_observe::StudyApi::submit(&*self.shared, spec_json)
    }

    /// Status document for one study, `None` when unknown.
    pub fn study_status(&self, id: &str) -> Option<String> {
        sea_observe::StudyApi::status(&*self.shared, id)
    }

    /// Run the scheduler until the process-wide stop flag fires: pick the
    /// first queued study, drive it to completion, repeat. Blocks.
    pub fn run(&self) {
        let shared = &self.shared;
        while !stop_requested() {
            // Looked for under the `active` lock, so a submit between the
            // look and the wait still wakes the wait.
            let active = lock(&shared.active);
            let next = lock(&shared.studies)
                .iter()
                .find(|s| matches!(s.phase, Phase::Queued))
                .map(|s| (s.id.clone(), s.canonical.clone(), s.spec.clone()));
            match next {
                Some((id, canonical, spec)) => {
                    drop(active);
                    shared.process_study(&id, &canonical, &spec);
                }
                None => drop(shared.wait(active, TICK)),
            }
        }
        // Let any connected workers drain cleanly before the process goes.
        shared.draining.store(true, Ordering::Release);
        shared.wake();
        event!(Subsystem::Harness, Level::Info, "fleet.daemon_down";
               "runs_done" => shared.runs_done.load(Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::scan_done;
    use crate::worker::run_worker;
    use sea_injection::{clear_stop, request_stop, run_campaign};

    fn tiny_spec() -> &'static str {
        r#"{"scale":"tiny","samples_per_component":3,"threads":1,"suite":["CRC32"]}"#
    }

    /// The study id out of a submit acknowledgement.
    fn ack_id(ack: &str) -> String {
        sea_trace::json::parse(ack)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    /// The single-process, one-thread journal of a one-workload spec,
    /// written under `dir`.
    fn reference_journal(spec_json: &str, dir: &std::path::Path) -> Vec<u8> {
        let spec = StudySpec::from_json(spec_json).unwrap();
        let w = spec.suite[0];
        let built = w.build(spec.study.scale);
        let mut icfg = spec.study.injection_config_for(w);
        icfg.journal = Some(JournalSpec {
            dir: dir.to_path_buf(),
            resume: false,
            format: JournalFormat::Binary,
            fsync: Default::default(),
        });
        run_campaign(w.name(), &built, &icfg).unwrap();
        std::fs::read(sea_injection::supervisor::journal_file(
            dir,
            "inject",
            w.name(),
            JournalFormat::Binary,
        ))
        .unwrap()
    }

    /// Wait (bounded) for a study to reach `done`; its status document.
    fn await_done(shared: &Shared, id: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = sea_observe::StudyApi::status(shared, id).unwrap();
            if status.contains("\"state\":\"done\"") || Instant::now() > deadline {
                return status;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn submit_rejects_jsonl_and_is_idempotent() {
        let root = std::env::temp_dir().join(format!("sea-fleet-api-{}", std::process::id()));
        let cfg = DaemonConfig {
            root: root.clone(),
            workers: 0,
            ..DaemonConfig::default()
        };
        let d = Daemon::start(cfg).unwrap();
        let err = d
            .submit(r#"{"scale":"tiny","journal_format":"jsonl","suite":["CRC32"]}"#)
            .unwrap_err();
        assert!(err.contains("journal_format"), "{err}");
        assert!(d.submit("][").is_err());

        let a = d.submit(tiny_spec()).unwrap();
        let b = d.submit(tiny_spec()).unwrap();
        assert_eq!(a, b, "resubmission is idempotent");
        assert!(a.contains("\"state\":\"queued\""), "{a}");
        let st = d.study_status(&ack_id(&a)).unwrap();
        assert!(st.contains("\"state\":\"queued\""), "{st}");
        assert!(d.study_status("ffffffffffffffff").is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn two_in_process_workers_reproduce_the_single_process_journal() {
        let _guard = sea_trace::test_lock();
        clear_stop();
        let root = std::env::temp_dir().join(format!("sea-fleet-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = DaemonConfig {
            root: root.join("fleet"),
            workers: 0, // the test drives run_worker() on threads instead
            watchdog_ms: 60_000,
            ..DaemonConfig::default()
        };
        let d = Daemon::start(cfg).unwrap();
        let id = ack_id(&d.submit(tiny_spec()).unwrap());
        let shared = d.shared.clone();
        let addr = d.worker_addr().to_string();
        let daemon = std::thread::spawn(move || d.run());
        let ws: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || run_worker(&addr))
            })
            .collect();
        for w in ws {
            w.join().unwrap().unwrap();
        }

        let reference = reference_journal(tiny_spec(), &root.join("ref"));
        await_done(&shared, &id);
        let reg = Registry::new(root.join("fleet"));
        let merged_path = reg.merged_path(&id, "CRC32");
        let merged = std::fs::read(&merged_path).expect("merged journal exists");
        assert_eq!(
            merged, reference,
            "merged shard journals are byte-identical"
        );
        assert_eq!(
            scan_done(&merged_path).len(),
            18,
            "3 samples x 6 components"
        );
        assert!(reg.existing_shards(&id).len() >= 2, "both shards journaled");

        request_stop();
        daemon.join().unwrap();
        clear_stop();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stop_at_margin_halts_granting_and_merges_a_clean_partial_journal() {
        let _guard = sea_trace::test_lock();
        clear_stop();
        let root = std::env::temp_dir().join(format!("sea-fleet-margin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = DaemonConfig {
            root: root.join("fleet"),
            workers: 0, // in-process run_worker() threads below
            watchdog_ms: 60_000,
            ..DaemonConfig::default()
        };
        let d = Daemon::start(cfg).unwrap();
        // 40 samples x 6 components = 240 planned runs; specs are ordered
        // by injection cycle, so strata interleave and every stratum
        // accumulates samples from the first blocks on. A loose 0.5
        // margin is reached long before the plan is exhausted.
        let spec_json = concat!(
            r#"{"scale":"tiny","samples_per_component":40,"threads":1,"#,
            r#""suite":["CRC32"],"stop_at_margin":0.5}"#
        );
        let id = ack_id(&d.submit(spec_json).unwrap());
        let shared = d.shared.clone();
        let addr = d.worker_addr().to_string();
        let daemon = std::thread::spawn(move || d.run());
        let ws: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || run_worker(&addr))
            })
            .collect();
        for w in ws {
            w.join().unwrap().unwrap();
        }

        let status = await_done(&shared, &id);
        let reg = Registry::new(root.join("fleet"));
        let done = scan_done(&reg.merged_path(&id, "crc32"));
        assert!(!done.is_empty(), "early stop still journals something");
        assert!(
            (done.len() as u64) < 240,
            "margin stop left the plan unfinished: {} of 240",
            done.len()
        );
        let mut uniq = done.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), done.len(), "merged journal has no duplicates");

        // The telemetry plane saw the fleet: the study status carries a
        // per-worker array, and the stitched trace parses as a chrome doc
        // with one thread-name metadata record per worker.
        let doc = sea_trace::json::parse(&status).unwrap();
        assert_eq!(doc.get("state").and_then(|s| s.as_str()), Some("done"));
        let workers = doc.get("workers").expect("status lists workers");
        match workers {
            sea_trace::json::Json::Arr(items) => assert!(
                items.len() >= 2,
                "both in-process workers reported telemetry"
            ),
            other => panic!("workers is not an array: {other:?}"),
        }
        let trace = sea_observe::StudyApi::trace(&*shared, &id).expect("stitched trace");
        let tdoc = sea_trace::json::parse(&trace).expect("trace parses as JSON");
        let events = tdoc.get("traceEvents").expect("traceEvents member");
        if let sea_trace::json::Json::Arr(evs) = events {
            let tids: std::collections::BTreeSet<u64> = evs
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
                .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
                .collect();
            assert!(tids.len() >= 2, "one tid track per worker: {tids:?}");
        } else {
            panic!("traceEvents is not an array");
        }

        request_stop();
        daemon.join().unwrap();
        clear_stop();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_study_that_plans_no_runs_merges_a_header_only_journal() {
        let _guard = sea_trace::test_lock();
        clear_stop();
        let root = std::env::temp_dir().join(format!("sea-fleet-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let d = Daemon::start(DaemonConfig {
            root: root.join("fleet"),
            workers: 0, // no worker ever connects: there is nothing to run
            ..DaemonConfig::default()
        })
        .unwrap();
        let spec_json =
            r#"{"scale":"tiny","samples_per_component":0,"threads":1,"suite":["CRC32"]}"#;
        let id = ack_id(&d.submit(spec_json).unwrap());
        let shared = d.shared.clone();
        let daemon = std::thread::spawn(move || d.run());

        let status = await_done(&shared, &id);
        assert!(status.contains("\"state\":\"done\""), "{status}");
        let merged = Registry::new(root.join("fleet")).merged_path(&id, "CRC32");
        assert_eq!(
            std::fs::read(&merged).unwrap(),
            reference_journal(spec_json, &root.join("ref")),
            "header-only merge == single-process --samples 0 journal"
        );
        assert!(scan_done(&merged).is_empty());

        request_stop();
        daemon.join().unwrap();
        clear_stop();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn claim_round_trips_do_not_wait_for_delayed_acks() {
        let _guard = sea_trace::test_lock();
        clear_stop();
        let root = std::env::temp_dir().join(format!("sea-fleet-rtt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let d = Daemon::start(DaemonConfig {
            root: root.join("fleet"),
            workers: 0, // the test is the only worker
            ..DaemonConfig::default()
        })
        .unwrap();
        // 60,000 indices: grants of 64 for far more than 500 claims.
        d.submit(r#"{"scale":"tiny","samples_per_component":10000,"threads":1,"suite":["CRC32"]}"#)
            .unwrap();
        let addr = d.worker_addr().to_string();
        let daemon = std::thread::spawn(move || d.run());

        let mut link = crate::worker::Link::dial(&addr).unwrap();
        link.send(&ToDaemon::Hello).unwrap();
        assert!(matches!(link.recv().unwrap(), ToWorker::Welcome { .. }));
        let started = Instant::now();
        let mut last = None;
        for _ in 0..500 {
            // `done` and `claim` back to back, as a worker sends them: the
            // pair Nagle's algorithm would hold for the daemon's delayed
            // ACK, about 40 ms a round.
            if let Some((wl, start, end)) = last {
                link.send(&ToDaemon::Done {
                    wl,
                    start,
                    end,
                    obs: Vec::new(),
                })
                .unwrap();
            }
            link.send(&ToDaemon::Claim).unwrap();
            match link.recv().unwrap() {
                ToWorker::Grant { wl, start, end } => last = Some((wl, start, end)),
                other => panic!("expected a grant, got {other:?}"),
            }
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "500 claim->grant round trips took {took:?}"
        );

        link.send(&ToDaemon::Bye).unwrap();
        request_stop();
        daemon.join().unwrap();
        clear_stop();
        std::fs::remove_dir_all(&root).unwrap();
    }
}
