//! The shard worker: one process, one shard journal, zero shared state.
//!
//! A worker connects to the daemon, learns its shard number and the
//! canonical study spec, and from then on is a pure claim-execute-journal
//! loop. Determinism does the heavy lifting: the worker rebuilds the
//! *same* [`CampaignPlan`] a single-process campaign would (same
//! workload build, same config hashes, same golden run, same cycle-sorted
//! spec sequence), so executing index `i` here produces the byte-for-byte
//! journal line a single-process run would have written — which is the
//! whole reason the daemon's merge can be byte-identical.
//!
//! On SIGTERM/SIGINT (or a daemon `exit`), the worker finishes the index
//! in flight, fsyncs its journal, says `bye`, and exits; the unexecuted
//! remainder of its block is requeued by the daemon for another shard to
//! steal.

use crate::proto::{self, ToDaemon, ToWorker};
use sea_core::StudySpec;
use sea_injection::supervisor::{
    journal_file, supervisor_health, INFLIGHT_REQUEUES, QUARANTINED, RESPAWN_BACKOFF_MS,
    WORKER_RESPAWNS,
};
use sea_injection::{
    class_index, open_journal, run_cycles_snapshot, stop_requested, verdict_line, CampaignPlan,
    JournalSpec,
};
use sea_observe::TailSink;
use sea_trace::json::{self, Json};
use sea_trace::{event, span, Level, Subsystem};
use std::collections::HashSet;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker failure (the process exits non-zero; the daemon requeues).
#[derive(Debug)]
pub struct WorkerError(pub String);

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet worker: {}", self.0)
    }
}

impl std::error::Error for WorkerError {}

fn fail(msg: impl Into<String>) -> WorkerError {
    WorkerError(msg.into())
}

/// Install SIGTERM/SIGINT handlers that raise the process-wide stop flag,
/// so campaign loops (and the fleet claim loop) drain cleanly. Shared by
/// the worker and the campaign bins. Safe to call more than once.
pub fn install_stop_signals() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let flag = Arc::new(AtomicBool::new(false));
        for sig in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
            let _ = signal_hook::flag::register(sig, flag.clone());
        }
        // Bridge the async-signal-safe flag to the supervisor's stop
        // predicate without doing anything non-trivial in the handler.
        std::thread::Builder::new()
            .name("sea-stop-watch".into())
            .spawn(move || loop {
                if flag.load(std::sync::atomic::Ordering::Relaxed) {
                    sea_injection::request_stop();
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            })
            .ok();
    });
}

/// Minimum interval between telemetry frames. Frames piggyback on
/// protocol round-trips (claims, dones, wait heartbeats), so this is a
/// throttle, not a timer — an idle worker still heartbeats because the
/// daemon answers a held claim with `wait` at least every long-poll
/// window, and the worker claims again.
const TELEMETRY_MIN_INTERVAL: Duration = Duration::from_millis(200);

/// Trace events retained for relay between two frames.
const TELEMETRY_TAIL_CAP: usize = 256;

/// Per-worker telemetry state: what has been pushed, and the local tail
/// ring the worker's own trace events land in.
struct Telemetry {
    started: Instant,
    seq: u64,
    runs: u64,
    blocks: u64,
    last_push: Option<Instant>,
    last_event_seq: u64,
    framer: sea_trace::DeltaFramer,
    /// `None` when the hosting process already routes trace events to a
    /// sink of its own (in-process embedding): we must not clobber it,
    /// so frames then carry no event lines.
    tail: Option<Arc<TailSink>>,
}

impl Telemetry {
    fn new() -> Telemetry {
        let tail = if sea_trace::sink_installed() {
            None
        } else {
            let t = Arc::new(TailSink::new(TELEMETRY_TAIL_CAP));
            sea_trace::install_sink(t.clone());
            // Campaign-grade harness events (block spans, worker lifecycle)
            // are what the daemon stitches; leave other subsystems alone.
            if !sea_trace::enabled(Subsystem::Harness, Level::Info) {
                sea_trace::set_level(Subsystem::Harness, Level::Info);
            }
            Some(t)
        };
        Telemetry {
            started: Instant::now(),
            seq: 0,
            runs: 0,
            blocks: 0,
            last_push: None,
            last_event_seq: 0,
            framer: sea_trace::DeltaFramer::new(),
            tail,
        }
    }

    /// Build the next frame, or `None` while throttled (`force` skips the
    /// throttle — used right after welcome and right before bye).
    fn frame(&mut self, force: bool) -> Option<ToDaemon> {
        if !force
            && self
                .last_push
                .is_some_and(|t| t.elapsed() < TELEMETRY_MIN_INTERVAL)
        {
            return None;
        }
        self.last_push = Some(Instant::now());
        self.seq += 1;
        // Land this thread's buffered events in the tail before reading it.
        sea_trace::flush_thread();
        let mut counters = Vec::new();
        let mut delta = |framer: &mut sea_trace::DeltaFramer, name: &str, value: u64| {
            let d = framer.frame(name, value);
            if d > 0 {
                counters.push((name.to_string(), d));
            }
        };
        delta(&mut self.framer, "fleet.worker_runs", self.runs);
        delta(&mut self.framer, "fleet.worker_blocks", self.blocks);
        for c in [
            &WORKER_RESPAWNS,
            &INFLIGHT_REQUEUES,
            &QUARANTINED,
            &RESPAWN_BACKOFF_MS,
            // Execution-tier residency: the daemon's `/studies/<id>` worker
            // rows and prometheus rollup derive per-worker tier from these.
            &sea_injection::warp::WARP_HANDOFFS,
            &sea_injection::warp::WARP_CURSOR_RESETS,
            &sea_injection::warp::WARP_PREFIX_CYCLES_SAVED,
            &sea_injection::warp::WARP_ADVANCE_CYCLES,
            &sea_injection::warp::FASTPATH_UOP_HITS,
            &sea_injection::warp::FASTPATH_UOP_MISSES,
            &sea_injection::warp::FASTPATH_LATCH_HITS,
            &sea_injection::warp::FASTPATH_LINE_HITS,
            &sea_injection::DEAD_PRUNED,
            &sea_injection::DEAD_PRUNED_BYTES,
            &sea_injection::DEAD_PRUNED_INVALID,
            &sea_injection::RECONVERGED,
            &sea_injection::RECONVERGE_CYCLES_SAVED,
        ] {
            delta(&mut self.framer, c.name(), c.get());
        }
        let cycles = run_cycles_snapshot();
        let hists = if cycles.count > 0 {
            vec![cycles.to_json()]
        } else {
            Vec::new()
        };
        let h = supervisor_health();
        let events = match &self.tail {
            Some(t) => {
                let (next, items) = t.since(self.last_event_seq, 64);
                self.last_event_seq = next;
                items
            }
            None => Vec::new(),
        };
        Some(ToDaemon::Telemetry {
            seq: self.seq,
            runs: self.runs,
            elapsed_ms: self.started.elapsed().as_millis() as u64,
            clock_us: sea_trace::clock_us(),
            counters,
            hists,
            health: [
                h.respawns,
                h.requeues,
                h.watchdog_kills,
                h.quarantined,
                h.respawn_backoff_ms,
            ],
            events,
        })
    }

    /// Push a frame if the throttle allows; telemetry is best-effort, so
    /// a send failure is surfaced as the error the *next* protocol
    /// message would hit anyway.
    fn push(&mut self, link: &mut Link, force: bool) -> Result<(), WorkerError> {
        if let Some(frame) = self.frame(force) {
            link.send(&frame)?;
        }
        Ok(())
    }
}

/// A worker's connection to the daemon.
pub(crate) struct Link {
    r: BufReader<TcpStream>,
    w: TcpStream,
}

impl Link {
    /// Connect to the daemon with Nagle's algorithm off: a `done` or a
    /// telemetry frame followed straight by a `claim` must not wait out
    /// the daemon's delayed ACK.
    pub(crate) fn dial(connect: &str) -> Result<Link, WorkerError> {
        let sock = TcpStream::connect(connect)
            .map_err(|e| fail(format!("cannot connect to daemon at {connect}: {e}")))?;
        sock.set_nodelay(true).map_err(|e| fail(e.to_string()))?;
        let r = BufReader::new(sock.try_clone().map_err(|e| fail(e.to_string()))?);
        Ok(Link { r, w: sock })
    }

    pub(crate) fn send(&mut self, m: &ToDaemon) -> Result<(), WorkerError> {
        proto::send(&mut self.w, &m.encode()).map_err(|e| fail(format!("daemon gone: {e}")))
    }

    pub(crate) fn recv(&mut self) -> Result<ToWorker, WorkerError> {
        let line = proto::recv(&mut self.r)
            .map_err(|e| fail(format!("daemon gone: {e}")))?
            .ok_or_else(|| fail("daemon closed the connection"))?;
        ToWorker::decode(&line).map_err(|e| fail(e.to_string()))
    }
}

/// What `next_grant` resolved to.
enum Next {
    Grant { wl: u32, start: u64, end: u64 },
    Exit,
}

/// Honour a `wait`: the daemon long-polls before sending one and asks
/// for 0 ms, so this is normally no pause at all.
fn pause(ms: u64) {
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms.min(2_000)));
    }
}

/// Claim until the daemon grants, tells us to exit, or the stop flag
/// fires. Each round trip piggybacks a (throttled) telemetry frame, so a
/// worker whose claims end in `wait` still heartbeats.
fn next_grant(link: &mut Link, tel: &mut Telemetry) -> Result<Next, WorkerError> {
    loop {
        if stop_requested() {
            return Ok(Next::Exit);
        }
        tel.push(link, false)?;
        link.send(&ToDaemon::Claim)?;
        match link.recv()? {
            ToWorker::Grant { wl, start, end } => return Ok(Next::Grant { wl, start, end }),
            ToWorker::Wait { ms } => pause(ms),
            ToWorker::Exit => return Ok(Next::Exit),
            ToWorker::Welcome { .. } => return Err(fail("unexpected welcome")),
        }
    }
}

/// Run the worker loop against a daemon at `connect` (e.g.
/// `127.0.0.1:41234`). Returns when the daemon says `exit`, the stop flag
/// fires, or the study has no more work for us.
///
/// # Errors
///
/// [`WorkerError`] on protocol violations, a vanished daemon, an invalid
/// spec, or a poisoned (unwritable) shard journal.
pub fn run_worker(connect: &str) -> Result<(), WorkerError> {
    install_stop_signals();
    let mut link = Link::dial(connect)?;

    // Hello → Welcome (the daemon may ask us to wait while it spins up).
    let (shard, dir, spec_text) = loop {
        link.send(&ToDaemon::Hello)?;
        match link.recv()? {
            ToWorker::Welcome { shard, dir, spec } => break (shard, dir, spec),
            ToWorker::Wait { ms } => pause(ms),
            ToWorker::Exit => return Ok(()),
            ToWorker::Grant { .. } => return Err(fail("grant before welcome")),
        }
    };
    let spec = StudySpec::from_json(&spec_text).map_err(|e| fail(format!("bad spec: {e}")))?;
    let shard_dir = PathBuf::from(&dir).join(format!("shard-{shard}"));
    let mut tel = Telemetry::new();
    event!(Subsystem::Harness, Level::Info, "fleet.worker_start";
           "shard" => u64::from(shard),
           "dir" => shard_dir.display().to_string(),
           "suite" => spec.suite.len() as u64);
    // First frame right away so the daemon's board sees this shard (and
    // its clock offset) before any block completes.
    tel.push(&mut link, true)?;

    let mut pending: Option<(u32, u64, u64)> = None;
    'study: loop {
        // Acquire the next grant (possibly one left over from a workload
        // switch below).
        let (wl, mut start, mut end) = match pending.take() {
            Some(g) => g,
            None => match next_grant(&mut link, &mut tel)? {
                Next::Grant { wl, start, end } => (wl, start, end),
                Next::Exit => break 'study,
            },
        };
        let w = *spec
            .suite
            .get(wl as usize)
            .ok_or_else(|| fail(format!("grant for workload {wl} outside the suite")))?;

        // Build the identical plan a single-process campaign would use.
        let built = w.build(spec.study.scale);
        let cfg = spec.study.injection_config();
        let plan = CampaignPlan::new(w.name(), &built, &cfg)
            .map_err(|e| fail(format!("plan for {w}: {e}")))?;
        let jspec = JournalSpec {
            resume: true,
            fsync: spec.study.journal_fsync,
            ..JournalSpec::new(&shard_dir)
        };
        let (journal, entries) =
            open_journal(&jspec, &plan.header()).map_err(|e| fail(format!("journal: {e}")))?;
        let mut local_done: HashSet<u64> = entries
            .iter()
            .filter_map(|e| e.get("i").and_then(Json::as_u64))
            .collect();
        let journal_path = journal_file(&jspec.dir, "inject", w.name());

        // Execute grants for this workload until the daemon switches us to
        // another one (or tells us to stop).
        loop {
            let runs = end.min(plan.total()).saturating_sub(start);
            let mut obs: Vec<(u32, u32)> = Vec::with_capacity(runs as usize);
            let mut block_runs = 0u64;
            {
                let mut block_span = span(Subsystem::Harness, Level::Info, "fleet.block");
                for i in start..end.min(plan.total()) {
                    if local_done.contains(&i) {
                        continue; // resumed: our own journal already has it
                    }
                    let verdict = plan.run_index(i);
                    journal.append(&verdict_line(i, &verdict));
                    if journal.poisoned() {
                        return Err(fail(format!(
                            "shard journal {} is poisoned; aborting so the daemon reassigns",
                            journal_path.display()
                        )));
                    }
                    local_done.insert(i);
                    block_runs += 1;
                    if let Some(o) = &verdict.outcome {
                        obs.push((plan.stratum_of(i) as u32, class_index(o.class) as u32));
                    }
                }
                if let Some(s) = block_span.as_mut() {
                    s.field("wl", u64::from(wl));
                    s.field("start", start);
                    s.field("end", end);
                    s.field("runs", block_runs);
                    s.field("worker", u64::from(shard));
                }
            }
            tel.runs += block_runs;
            tel.blocks += 1;
            // The block is durable before the daemon hears "done" — a
            // worker killed right here merely re-runs the block elsewhere,
            // producing byte-identical duplicate lines the merge drops.
            journal.sync();
            link.send(&ToDaemon::Done {
                wl,
                start,
                end,
                obs,
            })?;
            match next_grant(&mut link, &mut tel)? {
                Next::Grant {
                    wl: nwl,
                    start: ns,
                    end: ne,
                } => {
                    if nwl == wl {
                        (start, end) = (ns, ne);
                    } else {
                        pending = Some((nwl, ns, ne));
                        continue 'study;
                    }
                }
                Next::Exit => break 'study,
            }
        }
    }
    event!(Subsystem::Harness, Level::Info, "fleet.worker_exit";
           "shard" => u64::from(shard),
           "stopped" => stop_requested());
    let _ = tel.push(&mut link, true);
    let _ = link.send(&ToDaemon::Bye);
    Ok(())
}

/// Parse a `spec` JSON text and return its canonical form plus the parsed
/// spec — the submission-side counterpart of what the daemon does, shared
/// so clients compute the same study id.
///
/// # Errors
///
/// The spec parse error, stringified.
pub fn canonicalize_spec(text: &str) -> Result<(String, StudySpec), String> {
    let spec = StudySpec::from_json(text).map_err(|e| e.to_string())?;
    let canonical = spec.to_json();
    // Round-trip sanity: canonical must re-parse to itself.
    debug_assert_eq!(
        StudySpec::from_json(&canonical).map(|s| s.to_json()),
        Ok(canonical.clone())
    );
    let _ = json::parse(&canonical).expect("canonical spec is valid JSON");
    Ok((canonical, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::accept_workers;
    use sea_injection::{clear_stop, request_stop};

    #[test]
    fn both_ends_of_a_worker_connection_have_nagle_off() {
        let _guard = sea_trace::test_lock();
        clear_stop();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let acceptor = std::thread::spawn(move || {
            accept_workers(listener, |c| tx.send(c.nodelay().unwrap()).unwrap())
        });
        let link = Link::dial(&addr).unwrap();
        assert!(link.w.nodelay().unwrap(), "worker-connected socket");
        assert!(rx.recv().unwrap(), "daemon-accepted socket");
        // The acceptor checks the stop flag at its next accept.
        request_stop();
        drop(TcpStream::connect(&addr));
        acceptor.join().unwrap();
        clear_stop();
    }
}
