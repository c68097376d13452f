//! Campaign supervision: panic isolation, retry, quarantine, journals.
//!
//! The paper's beam methodology survives 260 beam-hours only because the
//! harness itself is resilient: a watchdog watches the "Alive" heartbeat,
//! crashed boards are power-cycled, and the fluence accounting continues
//! across restarts (§IV-B). This module gives the *campaign runners* the
//! same property:
//!
//! * **Per-run panic isolation** — [`run_one_caught`] wraps each injected
//!   execution in `catch_unwind`, so a simulator panic triggered by
//!   corrupted microarchitectural state becomes a [`RunAnomaly`] record
//!   (with a post-mortem snapshot) instead of killing the campaign.
//! * **Bounded retry + quarantine** — [`crate::CampaignPlan::attempt`]
//!   retries a panicking run up to [`SupervisorConfig::max_attempts`]
//!   times, distinguishing deterministic panics from flaky ones, and
//!   appends every anomaly to a replayable [`Quarantine`] file (see the
//!   `replay` bench binary).
//! * **Journal + resume** — [`Journal`] is an append-only, crash-consistent
//!   outcome log built on `sea-durable`: a `.seaj` binary file of
//!   CRC32-framed, sequence-numbered records whose payloads are JSON lines
//!   (`journal export` prints them). The quarantine is the same container
//!   under its own header. On resume the
//!   header (seed, config hash, golden hash, total) is validated, a torn
//!   or corrupt tail from the crash is truncated, and completed runs are
//!   skipped, so a killed campaign continues where it stopped without
//!   re-simulating finished work. Write faults (disk-full, EIO) retry
//!   with bounded backoff, then poison the journal so the campaign drains
//!   cleanly leaving a valid resumable prefix.
//! * **Worker supervision** — [`run_supervised_until`] pulls work through a
//!   self-healing pool: a worker that dies mid-campaign is respawned (its
//!   in-flight item is requeued), degrading gracefully to fewer threads
//!   once the respawn budget is exhausted.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use sea_durable::{DurableWriter, Scan, SeajError};
pub use sea_durable::{FsyncPolicy, JournalFormat};
use sea_platform::{postmortem, CheckpointSet, RunLimits};
use sea_trace::json::{self, Json, ObjWriter};
use sea_trace::{event, Counter, Level, Subsystem};
use sea_workloads::BuiltWorkload;

use crate::campaign::{CampaignConfig, InjectionOutcome, InjectionSpec};

// ---------------------------------------------------------------------------
// Health counters
// ---------------------------------------------------------------------------

/// Workers respawned after dying mid-campaign (process-wide, monotone).
pub static WORKER_RESPAWNS: Counter = Counter::new("supervisor.worker_respawns");
/// Work items requeued off a dead worker (its in-flight item plus the
/// unprocessed remainder of its claimed block).
pub static INFLIGHT_REQUEUES: Counter = Counter::new("supervisor.inflight_requeues");
/// Anomaly records written to quarantine files.
pub static QUARANTINED: Counter = Counter::new("supervisor.quarantined");
/// Milliseconds spent in respawn backoff before restarting dead workers
/// (process-wide, monotone). A pool that keeps dying does not thrash: each
/// respawn waits a jittered, exponentially growing delay first.
pub static RESPAWN_BACKOFF_MS: Counter = Counter::new("supervisor.respawn_backoff_ms");

/// Point-in-time supervisor health, aggregated across every campaign in
/// the process — the numbers behind the `/status` `health` object and the
/// `sea_supervisor_*` Prometheus counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorHealth {
    /// Worker respawns ([`WORKER_RESPAWNS`]).
    pub respawns: u64,
    /// Requeued work items ([`INFLIGHT_REQUEUES`]).
    pub requeues: u64,
    /// Runs killed by the wall-clock watchdog
    /// ([`sea_platform::watchdog_kills`]).
    pub watchdog_kills: u64,
    /// Quarantined anomalies ([`QUARANTINED`]).
    pub quarantined: u64,
    /// Milliseconds spent backing off before worker respawns
    /// ([`RESPAWN_BACKOFF_MS`]).
    pub respawn_backoff_ms: u64,
}

/// Read every supervisor health counter at once.
pub fn supervisor_health() -> SupervisorHealth {
    SupervisorHealth {
        respawns: WORKER_RESPAWNS.get(),
        requeues: INFLIGHT_REQUEUES.get(),
        watchdog_kills: sea_platform::watchdog_kills(),
        quarantined: QUARANTINED.get(),
        respawn_backoff_ms: RESPAWN_BACKOFF_MS.get(),
    }
}

// ---------------------------------------------------------------------------
// Cooperative stop flag
// ---------------------------------------------------------------------------

/// Process-wide cooperative stop request (SIGTERM/SIGINT drains, fleet
/// daemon-initiated worker shutdown). Checked by every campaign and beam
/// stop predicate.
static STOP: AtomicBool = AtomicBool::new(false);

/// Ask every running campaign/session in this process to stop: workers
/// finish their in-flight run, drain, and journals/metrics flush on the
/// normal exit path. Signal-handler-safe (a single atomic store).
pub fn request_stop() {
    STOP.store(true, Ordering::SeqCst);
}

/// True once [`request_stop`] has been called (and not yet cleared).
pub fn stop_requested() -> bool {
    STOP.load(Ordering::SeqCst)
}

/// Re-arm after a drained stop — for long-lived daemons that run several
/// studies in one process, and for tests.
pub fn clear_stop() {
    STOP.store(false, Ordering::SeqCst);
}

/// Supervision knobs shared by injection campaigns and beam sessions.
///
/// The two function-pointer hooks exist for fault-injection *into the
/// harness itself* (tests and the CI resume job): `panic_hook` fires
/// inside the caught region (a panic there is captured as an anomaly),
/// `worker_hook` fires outside it (a panic there kills the worker thread
/// and exercises the respawn path).
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Attempts per run before the spec is quarantined without an outcome
    /// (≥ 1; the paper's harness likewise bounds per-board restarts).
    pub max_attempts: u32,
    /// Per-run wall-clock budget in milliseconds (0 = disabled). This
    /// complements the cycle budget: a pathological run that burns host
    /// time without advancing simulated cycles cannot stall a worker
    /// forever.
    pub run_wall_ms: u64,
    /// Total worker respawns allowed before the pool degrades to fewer
    /// threads.
    pub max_worker_respawns: usize,
    /// Quarantine file for anomaly records (a `.seaj` log).
    pub quarantine: Option<PathBuf>,
    /// Test-only fault hook, called *inside* the caught region with the
    /// spec index before each attempt.
    pub panic_hook: Option<fn(u64, &InjectionSpec)>,
    /// Test-only fault hook, called in the worker loop *outside* the
    /// caught region with (worker, spec index).
    pub worker_hook: Option<fn(usize, u64)>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_attempts: 2,
            run_wall_ms: 0,
            max_worker_respawns: 4,
            quarantine: None,
            panic_hook: None,
            worker_hook: None,
        }
    }
}

/// One supervised run that panicked: everything needed to report, count,
/// and deterministically replay it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunAnomaly {
    /// Spec index within the campaign's deterministic spec sequence.
    pub index: u64,
    /// The injected fault.
    pub spec: InjectionSpec,
    /// Workload display name.
    pub workload: String,
    /// Campaign RNG seed (spec regeneration key).
    pub seed: u64,
    /// Campaign configuration hash (see [`config_hash`]).
    pub config_hash: u64,
    /// Golden-output hash (pins the workload build/scale).
    pub golden_hash: u64,
    /// Attempts made (1..=max_attempts).
    pub attempts: u32,
    /// Whether every attempt panicked (true) or a retry succeeded (false).
    pub deterministic: bool,
    /// The panic payload, stringified.
    pub panic_msg: String,
    /// `sea_platform::postmortem` snapshot at the failed attempt, plus the
    /// architectural state fingerprint.
    pub postmortem: String,
}

/// A panic captured at the simulator boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct CaughtPanic {
    /// The panic payload, stringified.
    pub message: String,
    /// Post-mortem snapshot of the machine the panic unwound out of.
    pub postmortem: String,
}

/// Stringify a panic payload (the common `&str`/`String` cases).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// 64-bit FNV-1a over raw bytes (journal/quarantine config hashing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic hash of everything that shapes a campaign's *physics*:
/// machine, kernel, sample count, targeted components, fault model, and
/// golden budget. Runtime-only knobs (threads, journal, supervision) are
/// deliberately excluded — resuming with a different thread count is
/// valid, resuming against a different machine is not.
pub fn config_hash(cfg: &CampaignConfig) -> u64 {
    fnv1a(
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{}",
            cfg.machine,
            cfg.kernel,
            cfg.samples_per_component,
            cfg.components,
            cfg.fault_model,
            cfg.golden_budget_cycles,
        )
        .as_bytes(),
    )
}

/// Hash of the workload's golden output (plus image text size): pins the
/// exact benchmark build and input scale a journal or quarantine record
/// was produced against.
pub fn golden_hash(workload: &BuiltWorkload) -> u64 {
    let mut h = fnv1a(&workload.golden);
    h = h.wrapping_mul(0x100_0000_01b3) ^ workload.image.text_bytes() as u64;
    h
}

// ---------------------------------------------------------------------------
// Quarantine
// ---------------------------------------------------------------------------

/// Header blob of a quarantine file; its records are [`RunAnomaly`]
/// JSON lines.
const QUARANTINE_HEADER: &[u8] = br#"{"journal":"sea-quarantine","v":1}"#;

/// Append-only `.seaj` log of [`RunAnomaly`] records, shared by all
/// workers of a campaign. Each record is `fdatasync`ed as it lands, so a
/// crash or power cut costs at most the record being appended.
pub struct Quarantine {
    inner: Mutex<JournalInner>,
    written: AtomicU64,
}

impl Quarantine {
    /// Opens the quarantine at `path` for appending, creating it (header
    /// first) when it is missing or empty. A torn or corrupt tail left by
    /// a crash is truncated away, as a journal's is on resume.
    ///
    /// # Errors
    ///
    /// I/O failures, and `InvalidData` for an existing file that is not a
    /// quarantine (it is left untouched).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Quarantine> {
        let path = path.as_ref();
        let fsync = FsyncPolicy::EveryN(1);
        let existing = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let (w, next_seq) = if existing.is_empty() {
            let mut w = DurableWriter::create(path, fsync)?;
            w.append(&sea_durable::encode_file_header(QUARANTINE_HEADER))?;
            (w, 1)
        } else {
            let scan = scan_quarantine(path, &existing)?;
            if scan.torn_bytes > 0 {
                event!(Subsystem::Injection, Level::Warn, "quarantine.torn_tail";
                       "path" => path.display().to_string(),
                       "dropped_bytes" => scan.torn_bytes as u64);
            }
            let w = DurableWriter::open_at(path, scan.valid_len as u64, fsync)?;
            (w, scan.last_seq + 1)
        };
        Ok(Quarantine {
            inner: Mutex::new(JournalInner { w, next_seq }),
            written: AtomicU64::new(0),
        })
    }

    /// Appends one anomaly record.
    pub fn record(&self, a: &RunAnomaly) {
        let mut o = ObjWriter::new();
        o.str_field("rec", "anomaly")
            .str_field("workload", &a.workload)
            .str_field("seed", &format!("{:016x}", a.seed))
            .str_field("cfg", &format!("{:016x}", a.config_hash))
            .str_field("golden", &format!("{:016x}", a.golden_hash))
            .u64_field("i", a.index)
            .str_field("component", a.spec.component.short_name())
            .u64_field("bit", a.spec.bit)
            .u64_field("cycle", a.spec.cycle)
            .u64_field("attempts", a.attempts as u64)
            .bool_field("deterministic", a.deterministic)
            .str_field("panic", &a.panic_msg)
            .str_field("postmortem", &a.postmortem);
        let mut inner = self.inner.lock();
        let rec = sea_durable::encode_record(inner.next_seq, o.finish().as_bytes());
        if let Err(e) = inner.w.append(&rec) {
            event!(Subsystem::Injection, Level::Error, "quarantine.write_failed";
                   "error" => e.to_string());
            return;
        }
        inner.next_seq += 1;
        self.written.fetch_add(1, Ordering::Relaxed);
        QUARANTINED.inc();
    }

    /// Number of records appended by this handle.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

/// CRC-walks the image of the quarantine at `path`, refusing anything
/// that is not one.
fn scan_quarantine<'a>(path: &Path, bytes: &'a [u8]) -> std::io::Result<Scan<'a>> {
    let invalid = |why: &dyn std::fmt::Display| {
        let why = format!("{}: {why}", path.display());
        std::io::Error::new(std::io::ErrorKind::InvalidData, why)
    };
    let scan = sea_durable::scan(bytes).map_err(|e| invalid(&e))?;
    if scan.header != QUARANTINE_HEADER {
        return Err(invalid(&"not a quarantine file"));
    }
    Ok(scan)
}

fn parse_hex64(j: Option<&Json>) -> Option<u64> {
    u64::from_str_radix(j?.as_str()?, 16).ok()
}

/// Loads every anomaly record in the valid prefix of a quarantine file.
///
/// # Errors
///
/// I/O failures, and `InvalidData` for a file that is not a quarantine.
pub fn load_quarantine(path: impl AsRef<Path>) -> std::io::Result<Vec<RunAnomaly>> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    let scan = scan_quarantine(path, &bytes)?;
    Ok(scan
        .records
        .iter()
        .filter_map(|r| decode_anomaly(&json::parse(std::str::from_utf8(r).ok()?).ok()?))
        .collect())
}

fn decode_anomaly(j: &Json) -> Option<RunAnomaly> {
    let component = sea_microarch::Component::from_short_name(
        j.get("component").and_then(Json::as_str).unwrap_or(""),
    )?;
    Some(RunAnomaly {
        index: j.get("i")?.as_u64()?,
        spec: InjectionSpec {
            component,
            bit: j.get("bit")?.as_u64()?,
            cycle: j.get("cycle")?.as_u64()?,
        },
        workload: j.get("workload")?.as_str()?.to_string(),
        seed: parse_hex64(j.get("seed"))?,
        config_hash: parse_hex64(j.get("cfg"))?,
        golden_hash: parse_hex64(j.get("golden"))?,
        attempts: j.get("attempts")?.as_u64()? as u32,
        deterministic: j.get("deterministic")?.as_bool()?,
        panic_msg: j.get("panic")?.as_str()?.to_string(),
        postmortem: j.get("postmortem")?.as_str()?.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// Where (and whether) a campaign journals its outcomes.
#[derive(Clone, Debug)]
pub struct JournalSpec {
    /// Directory holding one journal file per (workload, kind).
    pub dir: PathBuf,
    /// Validate an existing journal and skip its completed runs instead of
    /// truncating it.
    pub resume: bool,
    /// Always [`JournalFormat::Binary`], the only format; kept for the
    /// benchmark's `JournalSpec` literal.
    pub format: JournalFormat,
    /// How often appended records are `fdatasync`ed.
    pub fsync: FsyncPolicy,
}

impl JournalSpec {
    /// A fresh (non-resuming) journal in `dir` with the default fsync
    /// cadence.
    pub fn new(dir: impl Into<PathBuf>) -> JournalSpec {
        JournalSpec {
            dir: dir.into(),
            resume: false,
            format: JournalFormat::default(),
            fsync: FsyncPolicy::default(),
        }
    }
}

/// The identity a journal is bound to; all fields are validated on resume.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalHeader {
    /// `"inject"` or `"beam"`.
    pub kind: &'static str,
    /// Workload display name.
    pub workload: String,
    /// Campaign RNG seed (specs regenerate deterministically from it).
    pub seed: u64,
    /// Campaign configuration hash.
    pub config_hash: u64,
    /// Golden-output hash.
    pub golden_hash: u64,
    /// Legacy checkpoint provenance hash, a function of `config_hash` and
    /// `golden_hash` alone ([`crate::CampaignPlan::header`]); the same
    /// whether or not the campaign checkpoints, so enabling checkpointing
    /// never forks journal identity.
    pub ckpt: u64,
    /// Total planned runs.
    pub total: u64,
}

/// Journal open/validation error.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An existing journal does not match this campaign (wrong seed,
    /// config, workload build, or run count).
    Header(String),
    /// The file's container structure is untrustworthy beyond tail repair:
    /// wrong magic, wrong container version, or a corrupt file header.
    /// (A torn *tail* is not an error — it is truncated and resumed.)
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Header(s) => write!(f, "journal header mismatch: {s}"),
            JournalError::Corrupt(s) => write!(
                f,
                "journal corrupt: {s} (delete the file or rerun without --resume to start over)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// The `.seaj` journal file for one (workload, kind) pair inside a journal
/// dir.
pub fn journal_file(dir: &Path, kind: &str, workload: &str) -> PathBuf {
    let slug: String = workload
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{slug}.{kind}.seaj"))
}

/// Write-side summary of one journal's life in this process — the row
/// behind the post-run journal audit table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalAudit {
    /// Records appended by this handle.
    pub appended: u64,
    /// Records replayed from an existing journal on resume.
    pub resumed: u64,
    /// Torn/corrupt tail bytes truncated on resume.
    pub torn_bytes: u64,
    /// Explicit `fdatasync` calls issued by the fsync policy.
    pub fsyncs: u64,
    /// Append attempts that failed and were retried.
    pub retries: u64,
    /// True when a write fault exhausted its retries and the journal
    /// refused further appends (the campaign drained early).
    pub poisoned: bool,
}

struct JournalInner {
    w: DurableWriter,
    next_seq: u64,
}

/// An open append-only outcome journal backed by a [`DurableWriter`]:
/// records are CRC32-framed, fsynced per the [`FsyncPolicy`], and written
/// all-or-nothing so a crash or write fault always leaves a valid
/// resumable prefix.
pub struct Journal {
    inner: Mutex<JournalInner>,
    sub: Subsystem,
    appended: AtomicU64,
    resumed: u64,
    torn_bytes: u64,
    poisoned: AtomicBool,
}

impl Journal {
    /// Appends one entry line (the caller provides the serialized object,
    /// without trailing newline) as a framed record payload.
    pub fn append(&self, line: &str) {
        if self.poisoned.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        let rec = sea_durable::encode_record(inner.next_seq, line.as_bytes());
        match inner.w.append(&rec) {
            Ok(()) => {
                inner.next_seq += 1;
                self.appended.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                // The writer rolled the file back to the last good record
                // and poisoned itself after bounded retries; surface the
                // fault once and let the campaign drain cleanly.
                self.poisoned.store(true, Ordering::Relaxed);
                event!(self.sub, Level::Error, "journal.write_failed";
                       "error" => e.to_string(),
                       "valid_bytes" => inner.w.len());
            }
        }
    }

    /// True once a write fault exhausted its retries; the campaign's stop
    /// predicate consults this to abort cleanly with a resumable prefix.
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Force an `fdatasync` of everything appended so far.
    pub fn sync(&self) {
        self.inner.lock().w.sync();
    }

    /// Write-side summary for the post-run audit table.
    pub fn audit(&self) -> JournalAudit {
        let stats = self.inner.lock().w.stats();
        JournalAudit {
            appended: self.appended.load(Ordering::Relaxed),
            resumed: self.resumed,
            torn_bytes: self.torn_bytes,
            fsyncs: stats.fsyncs,
            retries: stats.retries,
            poisoned: self.poisoned(),
        }
    }
}

/// Journal format version. v2 added the `ckpt` provenance field and, in
/// the same change, cycle-sorted spec sequences — a v1 journal's indices
/// mean different specs, so v1 files are rejected rather than misread.
const JOURNAL_VERSION: u64 = 2;

fn header_line(h: &JournalHeader) -> String {
    let mut o = ObjWriter::new();
    o.str_field("journal", "sea-campaign")
        .u64_field("v", JOURNAL_VERSION)
        .str_field("kind", h.kind)
        .str_field("workload", &h.workload)
        .str_field("seed", &format!("{:016x}", h.seed))
        .str_field("cfg", &format!("{:016x}", h.config_hash))
        .str_field("golden", &format!("{:016x}", h.golden_hash))
        .str_field("ckpt", &format!("{:016x}", h.ckpt))
        .u64_field("total", h.total);
    o.finish()
}

fn validate_header(line: &str, want: &JournalHeader) -> Result<(), String> {
    let j = json::parse(line).map_err(|e| format!("unreadable header: {e}"))?;
    if j.get("journal").and_then(Json::as_str) != Some("sea-campaign") {
        return Err("not a sea-campaign journal".to_string());
    }
    match j.get("v").and_then(Json::as_u64) {
        Some(JOURNAL_VERSION) => {}
        v => {
            return Err(format!(
                "format version: journal has {v:?}, this build writes {JOURNAL_VERSION}"
            ))
        }
    }
    let checks: [(&str, String, Option<String>); 6] = [
        (
            "kind",
            want.kind.to_string(),
            j.get("kind").and_then(Json::as_str).map(String::from),
        ),
        (
            "workload",
            want.workload.clone(),
            j.get("workload").and_then(Json::as_str).map(String::from),
        ),
        (
            "seed",
            format!("{:016x}", want.seed),
            j.get("seed").and_then(Json::as_str).map(String::from),
        ),
        (
            "cfg",
            format!("{:016x}", want.config_hash),
            j.get("cfg").and_then(Json::as_str).map(String::from),
        ),
        (
            "golden",
            format!("{:016x}", want.golden_hash),
            j.get("golden").and_then(Json::as_str).map(String::from),
        ),
        (
            "ckpt",
            format!("{:016x}", want.ckpt),
            j.get("ckpt").and_then(Json::as_str).map(String::from),
        ),
    ];
    for (name, want_v, got) in checks {
        match got {
            Some(g) if g == want_v => {}
            got => {
                return Err(format!(
                    "{name}: journal has {got:?}, campaign wants {want_v:?}"
                ))
            }
        }
    }
    if j.get("total").and_then(Json::as_u64) != Some(want.total) {
        return Err(format!("total: campaign plans {} runs", want.total));
    }
    Ok(())
}

fn journal_sub(kind: &str) -> Subsystem {
    if kind == "beam" {
        Subsystem::Beam
    } else {
        Subsystem::Injection
    }
}

/// Opens (or resumes) the journal for `header`, returning the open journal
/// plus the already-completed entry objects (empty for a fresh journal).
///
/// On resume the header is validated against `header`, then the record
/// region is walked with CRC/sequence validation. A torn or corrupt
/// *tail* — a partial record from the crash, a flipped bit, a sequence
/// gap — is truncated away with a warning and those runs are simply
/// re-executed; only an untrustworthy header is a hard error. An existing
/// but *empty* file (crashed before the header landed) is recreated fresh.
///
/// # Errors
///
/// I/O failures, header mismatches ([`JournalError::Header`]), and
/// structurally corrupt containers ([`JournalError::Corrupt`]).
pub fn open_journal(
    spec: &JournalSpec,
    header: &JournalHeader,
) -> Result<(Journal, Vec<Json>), JournalError> {
    std::fs::create_dir_all(&spec.dir).map_err(JournalError::Io)?;
    let path = journal_file(&spec.dir, header.kind, &header.workload);
    let sub = journal_sub(header.kind);
    let existing = if spec.resume && path.exists() {
        std::fs::read(&path).map_err(JournalError::Io)?
    } else {
        Vec::new()
    };

    if spec.resume && path.exists() && existing.is_empty() {
        // Crashed after create but before the header write: nothing to
        // resume, nothing to mis-trust. Recreate.
        event!(sub, Level::Warn, "journal.empty_recreated";
               "path" => path.display().to_string());
    }

    if !existing.is_empty() {
        let scan = sea_durable::scan(&existing).map_err(|e| match e {
            SeajError::NotSeaj | SeajError::Version(_) => {
                JournalError::Corrupt(format!("{}: {e}", path.display()))
            }
            SeajError::CorruptHeader(_) => JournalError::Corrupt(format!(
                "{}: {e}; the campaign identity cannot be trusted",
                path.display()
            )),
        })?;
        let header_str = std::str::from_utf8(scan.header).map_err(|_| {
            JournalError::Corrupt(format!("{}: header is not UTF-8", path.display()))
        })?;
        validate_header(header_str, header).map_err(JournalError::Header)?;
        // Walk records tracking byte offsets so a CRC-valid but non-entry
        // payload (should never happen) truncates too.
        let record_bytes: usize = scan
            .records
            .iter()
            .map(|r| r.len() + sea_durable::RECORD_OVERHEAD)
            .sum();
        let mut valid_len = scan.valid_len - record_bytes;
        let mut next_seq = 1u64;
        let mut entries = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for payload in &scan.records {
            let Some(j) = std::str::from_utf8(payload)
                .ok()
                .and_then(|line| json::parse(line).ok())
            else {
                break;
            };
            let Some(i) = j.get("i").and_then(Json::as_u64) else {
                break;
            };
            if i < header.total && seen.insert(i) {
                entries.push(j);
            }
            valid_len += payload.len() + sea_durable::RECORD_OVERHEAD;
            next_seq += 1;
        }

        let torn_bytes = (existing.len() - valid_len) as u64;
        if torn_bytes > 0 {
            event!(sub, Level::Warn, "journal.torn_tail";
                   "path" => path.display().to_string(),
                   "dropped_bytes" => torn_bytes,
                   "valid_bytes" => valid_len as u64);
        }
        let w = DurableWriter::open_at(&path, valid_len as u64, spec.fsync)
            .map_err(JournalError::Io)?;
        event!(sub, Level::Info, "supervisor.resume";
               "kind" => header.kind,
               "workload" => header.workload.clone(),
               "done" => entries.len() as u64,
               "total" => header.total);
        let resumed = entries.len() as u64;
        return Ok((
            Journal {
                inner: Mutex::new(JournalInner { w, next_seq }),
                sub,
                appended: AtomicU64::new(0),
                resumed,
                torn_bytes,
                poisoned: AtomicBool::new(false),
            },
            entries,
        ));
    }

    // Fresh journal (or an empty leftover being recreated).
    let mut w = DurableWriter::create(&path, spec.fsync).map_err(JournalError::Io)?;
    w.append(&sea_durable::encode_file_header(
        header_line(header).as_bytes(),
    ))
    .map_err(JournalError::Io)?;
    // The identity must survive a crash even under `--fsync none`.
    w.sync();
    Ok((
        Journal {
            inner: Mutex::new(JournalInner { w, next_seq: 1 }),
            sub,
            appended: AtomicU64::new(0),
            resumed: 0,
            torn_bytes: 0,
            poisoned: AtomicBool::new(false),
        },
        Vec::new(),
    ))
}

// ---------------------------------------------------------------------------
// Panic-isolated runs
// ---------------------------------------------------------------------------

/// Runs one injected execution with the simulator panic boundary: a panic
/// anywhere between the bit flip and the terminal state is captured
/// together with a post-mortem snapshot of the wedged machine.
///
/// Unwind-safety audit: the `System` crosses the `catch_unwind` boundary
/// under `AssertUnwindSafe`. After a panic it is only *read* (the
/// post-mortem snapshot and state fingerprint) and then dropped — every
/// attempt acquires a fresh machine (a from-reset boot, or an independent
/// COW clone of a checkpoint), so no half-mutated microarchitectural state
/// can leak into another run.
///
/// On success also returns the number of cycles this attempt actually
/// simulated (terminal cycle minus the restored checkpoint's cycle) — the
/// work-weighted progress unit that keeps ETA honest when checkpoint
/// restores skip fault-free prefixes of wildly different lengths.
///
/// # Errors
///
/// Returns the captured panic when the simulator panicked.
pub fn run_one_caught(
    workload: &BuiltWorkload,
    cfg: &CampaignConfig,
    ckpts: Option<&CheckpointSet>,
    index: u64,
    spec: InjectionSpec,
    limits: RunLimits,
) -> Result<(InjectionOutcome, u64), CaughtPanic> {
    // The machine to strike — or, for a strike dead-cell pruning answers,
    // the verdict, which needs none.
    let mut run = match crate::campaign::dead_pruned(workload, cfg, ckpts, spec, limits) {
        Some(outcome) => Err(outcome),
        None => Ok(crate::campaign::machine_toward(
            workload, cfg, ckpts, spec.cycle,
        )),
    };
    let start_cycles = run.as_ref().map_or(0, |sys| sys.cycles());
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if let Some(hook) = cfg.supervisor.panic_hook {
            hook(index, &spec);
        }
        match &mut run {
            Ok(sys) => crate::campaign::inject_and_run(sys, workload, cfg, ckpts, spec, limits),
            Err(outcome) => *outcome,
        }
    }));
    let sim_cycles = run
        .as_ref()
        .map_or(0, |sys| sys.cycles().saturating_sub(start_cycles));
    let caught = caught.map(|out| (out, sim_cycles));
    caught.map_err(|payload| {
        // Only the test hook can panic on a pruned strike; its post-mortem
        // gets the machine the strike would have started from.
        let sys = run
            .unwrap_or_else(|_| crate::campaign::machine_toward(workload, cfg, ckpts, spec.cycle));
        let message = panic_message(payload.as_ref());
        let pm = format!(
            "{}state_fingerprint={:#018x}\n",
            postmortem(&sys),
            sys.state_fingerprint()
        );
        event!(Subsystem::Injection, Level::Info, "supervisor.panic";
               cycle = sys.cycles();
               "index" => index,
               "component" => spec.component.short_name(),
               "bit" => spec.bit,
               "panic" => message.clone());
        CaughtPanic {
            message,
            postmortem: pm,
        }
    })
}

/// A supervised run's result: an outcome, an anomaly, or both (a flaky
/// panic that succeeded on retry yields an outcome *and* an anomaly
/// record). The outcome is an [`InjectionOutcome`] unless a plan wraps it
/// (a beam strike's origin and class).
#[derive(Clone, Debug, PartialEq)]
pub struct RunVerdict<O = InjectionOutcome> {
    /// The classified outcome, absent when every attempt panicked.
    pub outcome: Option<O>,
    /// The anomaly record, present when any attempt panicked.
    pub anomaly: Option<RunAnomaly>,
    /// Cycles the successful attempt actually simulated (post-restore
    /// suffix only). Zero when every attempt panicked or when the verdict
    /// was recovered from a journal rather than re-run. Deliberately *not*
    /// part of [`InjectionOutcome`]: it depends on which checkpoint was
    /// restored, so it must never feed journal lines or cross-campaign
    /// equivalence checks.
    pub sim_cycles: u64,
}

impl<O> RunVerdict<O> {
    /// The same verdict with its outcome mapped through `f`.
    pub fn map<T>(self, f: impl FnOnce(O) -> T) -> RunVerdict<T> {
        RunVerdict {
            outcome: self.outcome.map(f),
            anomaly: self.anomaly,
            sim_cycles: self.sim_cycles,
        }
    }
}

/// Identity fields stamped onto anomaly records.
#[derive(Clone, Debug)]
pub struct RunIdentity {
    /// Workload display name.
    pub workload: String,
    /// Campaign seed.
    pub seed: u64,
    /// Campaign configuration hash.
    pub config_hash: u64,
    /// Golden-output hash.
    pub golden_hash: u64,
}

// ---------------------------------------------------------------------------
// Supervised worker pool
// ---------------------------------------------------------------------------

/// What the pool observed while draining the work list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Worker threads started initially.
    pub workers: usize,
    /// Workers respawned after dying mid-campaign.
    pub respawns: u32,
    /// Items abandoned because they kept killing workers even after the
    /// respawn budget was spent.
    pub lost: Vec<u64>,
    /// True when the pool drained early because a commit or the stop
    /// predicate asked it to (see [`run_supervised_until`]); remaining
    /// items were skipped, not lost.
    pub stopped: bool,
}

const IDLE: u64 = u64::MAX;

/// Delay before the `nth` worker respawn of a pool: 10 ms doubling per
/// respawn, capped at 1 s, with deterministic ±50% jitter drawn from the
/// process-wide respawn count (`salt`) so concurrent pools desynchronize.
fn respawn_backoff_ms(nth: u32, salt: u64) -> u64 {
    let base = (10u64 << nth.min(7)).min(1_000);
    let jitter = fnv1a(&salt.to_le_bytes()) % base;
    base / 2 + jitter / 2
}

/// Runs `f` over every index in `pending` on a supervised worker pool and
/// hands each result to `commit`, one at a time and strictly in `pending`
/// order, whatever order the workers finish in.
///
/// Work is claimed in contiguous blocks, not single items: campaign specs
/// are cycle-sorted, so a block of adjacent indices shares (or neighbors)
/// one restore checkpoint, and the worker that claimed it keeps that
/// machine state hot instead of interleaving with every other worker. A
/// result that finishes before an earlier index is held until the
/// contiguous prefix is ready; `commit` runs under one lock. A worker that
/// panics is respawned (its in-flight item *and* the unprocessed remainder
/// of its claimed block requeued) until `max_worker_respawns` is
/// exhausted; after that the pool degrades to the surviving workers, and
/// any item left over is retried once on the supervisor thread itself so
/// a poisoned item cannot discard the rest of the campaign. Items that
/// still panic there are [`PoolStats::lost`]: their place in the order is
/// skipped when the held tail is committed at the end.
///
/// The pool stops early when `commit` returns true — no later result is
/// committed, so the committed indices are the same prefix of `pending` at
/// any thread count — or when the `stop` predicate, checked before each
/// claim, fires (workers finish their in-flight run, then drain). Either
/// way, remaining items are *skipped* — not run, not lost — held results
/// are dropped, and `PoolStats::stopped` records it. Events go to `sub`,
/// and each worker's span is `beam.worker` or `injection.worker` after it.
pub fn run_supervised_until<T, F, C>(
    pending: &[u64],
    threads: usize,
    sup: &SupervisorConfig,
    sub: Subsystem,
    stop: Option<&(dyn Fn() -> bool + Sync)>,
    f: F,
    commit: C,
) -> PoolStats
where
    T: Send,
    F: Fn(u64) -> T + Sync,
    C: FnMut(u64, T) -> bool + Send,
{
    let halted = AtomicBool::new(false);
    let should_stop = || halted.load(Ordering::SeqCst) || stop.is_some_and(|s| s());
    let worker_event = if sub == Subsystem::Beam {
        "beam.worker"
    } else {
        "injection.worker"
    };
    let threads = threads.min(pending.len()).max(1);
    // Block size balances locality (bigger = fewer checkpoint switches per
    // worker) against tail imbalance (smaller = the last blocks spread
    // evenly). Eight blocks per worker keeps the tail short.
    let block = (pending.len() / (threads * 8)).clamp(1, 64);
    let next = AtomicUsize::new(0);
    let retry: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let slots: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(IDLE)).collect();
    // Per-worker claimed-block remainders, drained back into `retry` if
    // the worker dies before finishing its block.
    let claims: Vec<Mutex<Vec<u64>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    // The position in `pending` of the next index to commit, the results
    // that finished ahead of it, and the callback.
    let committer = Mutex::new((0usize, HashMap::new(), commit));
    // Holds `done`, then commits the contiguous run of held results. Past
    // a missing index it waits or, with `past_holes` (every index still
    // missing is lost), skips it. A commit that returns true halts the
    // pool, and whatever is held then is dropped.
    let release = |done: Option<(u64, T)>, past_holes: bool| {
        let mut guard = committer.lock();
        let (next, held, commit) = &mut *guard;
        held.extend(done);
        while let Some(&i) = pending.get(*next) {
            if halted.load(Ordering::SeqCst) {
                held.clear();
                break;
            }
            match held.remove(&i) {
                Some(t) => halted.fetch_or(commit(i, t), Ordering::SeqCst),
                None if past_holes => false,
                None => break,
            };
            *next += 1;
        }
    };
    let respawns = AtomicUsize::new(0);

    let body = |w: usize| {
        // A span (not a bare event) so the worker's lifetime lands in the
        // capture with `ts_us`/`dur_us` — the Chrome-trace export renders
        // one timeline slice per worker from exactly these fields.
        let mut wspan = sea_trace::span(sub, Level::Info, worker_event);
        let started = std::time::Instant::now();
        let mut runs = 0u64;
        loop {
            if should_stop() {
                break;
            }
            // Claim order: own block remainder, then the shared retry
            // queue, then a fresh block. Each lock is taken and released
            // in its own statement — chaining them in one expression would
            // hold the first guard across the later acquisitions (guard
            // temporaries live to the end of the statement), and the
            // fresh-block arm re-locks `claims[w]`.
            let mut item = claims[w].lock().pop();
            if item.is_none() {
                item = retry.lock().pop();
            }
            if item.is_none() {
                let start = next.fetch_add(block, Ordering::Relaxed);
                if start < pending.len() {
                    let end = (start + block).min(pending.len());
                    // Stash the block tail (reversed, so pop() walks it in
                    // ascending cycle order) and take the head now.
                    claims[w]
                        .lock()
                        .extend(pending[start + 1..end].iter().rev().copied());
                    item = Some(pending[start]);
                }
            }
            let Some(i) = item else { break };
            slots[w].store(i, Ordering::SeqCst);
            if let Some(hook) = sup.worker_hook {
                hook(w, i);
            }
            release(Some((i, f(i))), false);
            slots[w].store(IDLE, Ordering::SeqCst);
            runs += 1;
        }
        let secs = started.elapsed().as_secs_f64();
        if let Some(s) = wspan.as_mut() {
            s.field("worker", w as u64);
            s.field("runs", runs);
            s.field("secs", secs);
            s.field(
                "runs_per_sec",
                if secs > 0.0 { runs as f64 / secs } else { 0.0 },
            );
        }
        drop(wspan);
        // Flush before the closure returns: the scope join can complete
        // before this thread's TLS destructors run, so the drop-time ring
        // flush may race with sink teardown.
        sea_trace::flush_thread();
    };

    crossbeam::scope(|scope| {
        let body = &body;
        let mut handles: Vec<_> = (0..threads)
            .map(|w| (w, scope.spawn(move |_| body(w))))
            .collect();
        let mut budget = sup.max_worker_respawns;
        while let Some((w, h)) = handles.pop() {
            if h.join().is_ok() {
                continue;
            }
            // The worker died outside the per-run panic boundary. Requeue
            // whatever it was holding — the in-flight item and the
            // unprocessed remainder of its claimed block — and, budget
            // permitting, respawn it.
            let inflight = slots[w].swap(IDLE, Ordering::SeqCst);
            let unclaimed = std::mem::take(&mut *claims[w].lock());
            let requeued_block = unclaimed.len();
            INFLIGHT_REQUEUES.add(requeued_block as u64 + u64::from(inflight != IDLE));
            {
                let mut r = retry.lock();
                if inflight != IDLE {
                    r.push(inflight);
                }
                r.extend(unclaimed);
            }
            event!(sub, Level::Warn, "supervisor.worker_died";
                   "worker" => w,
                   "inflight" => if inflight == IDLE { -1i64 } else { inflight as i64 },
                   "requeued_block" => requeued_block as u64,
                   "respawns_left" => budget as u64);
            if budget > 0 {
                budget -= 1;
                let nth = respawns.fetch_add(1, Ordering::Relaxed);
                WORKER_RESPAWNS.inc();
                // Back off before restarting: a worker that dies instantly
                // (poisoned state, resource exhaustion) must not burn the
                // whole respawn budget in a hot loop. Exponential with
                // deterministic jitter so sibling pools don't thunder.
                let pause = respawn_backoff_ms(nth as u32, WORKER_RESPAWNS.get());
                RESPAWN_BACKOFF_MS.add(pause);
                event!(sub, Level::Warn, "supervisor.respawn_backoff";
                       "worker" => w,
                       "nth" => nth as u64,
                       "ms" => pause);
                std::thread::sleep(std::time::Duration::from_millis(pause));
                handles.push((w, scope.spawn(move |_| body(w))));
            }
        }
    })
    .expect("supervisor thread panicked");

    // Anything still queued (or never claimed, if every worker died with
    // the respawn budget spent) has no live worker left to take it. Run it
    // on this thread, still behind a panic guard; items that *still* panic
    // outside the run boundary are recorded as lost, not fatal. Then the
    // held tail is committed in order, past the lost indices. After a
    // stop, leftovers are skipped entirely.
    let stopped = should_stop();
    let mut lost = Vec::new();
    if !stopped {
        let mut leftovers = std::mem::take(&mut *retry.lock());
        for q in &claims {
            leftovers.append(&mut q.lock());
        }
        loop {
            let start = next.fetch_add(block, Ordering::Relaxed);
            if start >= pending.len() {
                break;
            }
            let end = (start + block).min(pending.len());
            leftovers.extend_from_slice(&pending[start..end]);
        }
        for i in leftovers {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(t) => release(Some((i, t)), false),
                Err(_) => lost.push(i),
            }
        }
        release(None, true);
    }
    lost.sort_unstable();
    PoolStats {
        workers: threads,
        respawns: respawns.load(Ordering::Relaxed) as u32,
        lost,
        stopped: should_stop(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"campaign"), fnv1a(b"campaign"));
    }

    #[test]
    fn journal_file_slugs_workload_names() {
        let p = journal_file(Path::new("j"), "inject", "Jpeg C");
        assert_eq!(p, PathBuf::from("j/jpeg_c.inject.seaj"));
        let p = journal_file(Path::new("j"), "beam", "CRC32");
        assert_eq!(p, PathBuf::from("j/crc32.beam.seaj"));
    }

    fn anomaly(index: u64) -> RunAnomaly {
        RunAnomaly {
            index,
            spec: InjectionSpec {
                component: sea_microarch::Component::L1D,
                bit: index,
                cycle: 100 * index,
            },
            workload: "CRC32".to_string(),
            seed: 1,
            config_hash: 2,
            golden_hash: 3,
            attempts: 2,
            deterministic: true,
            panic_msg: format!("panic {index}"),
            postmortem: "pc=0x8000".to_string(),
        }
    }

    #[test]
    fn a_record_cut_mid_append_costs_only_that_record() {
        let dir = std::env::temp_dir().join(format!("sea_quarantine_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.seaj");
        let q = Quarantine::open(&path).unwrap();
        q.record(&anomaly(1));
        let one = std::fs::metadata(&path).unwrap().len();
        q.record(&anomaly(2));
        let two = std::fs::metadata(&path).unwrap().len();
        drop(q);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..((one + two) / 2) as usize]).unwrap();

        let q = Quarantine::open(&path).unwrap();
        q.record(&anomaly(3));
        drop(q);
        assert_eq!(
            load_quarantine(&path).unwrap(),
            vec![anomaly(1), anomaly(3)]
        );

        // A file that is not a quarantine is refused and left as it was.
        let journal = sea_durable::encode_file_header(br#"{"journal":"sea-campaign"}"#);
        for other in [journal, b"{\"rec\":\"anomaly\"}\n".to_vec()] {
            std::fs::write(&path, &other).unwrap();
            assert!(Quarantine::open(&path).is_err());
            assert!(load_quarantine(&path).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), other);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_round_trips_and_rejects_mismatch() {
        let h = JournalHeader {
            kind: "inject",
            workload: "Qsort".to_string(),
            seed: 0xDEFA_0001,
            config_hash: 0x1234,
            golden_hash: 0x5678,
            ckpt: 0x9ABC,
            total: 900,
        };
        let line = header_line(&h);
        assert!(validate_header(&line, &h).is_ok());
        let mut other = h.clone();
        other.seed = 1;
        assert!(validate_header(&line, &other).is_err());
        let mut other = h.clone();
        other.total = 901;
        assert!(validate_header(&line, &other).is_err());
        let mut other = h.clone();
        other.ckpt = 0x9ABD;
        assert!(validate_header(&line, &other).is_err());
        assert!(validate_header("{\"x\":1}", &h).is_err());
        assert!(validate_header("not json", &h).is_err());
        // A v1 journal predates cycle-sorted specs: its indices mean
        // different specs, so it must be rejected, not resumed.
        let v1 = line.replacen("\"v\":2", "\"v\":1", 1);
        let err = validate_header(&v1, &h).unwrap_err();
        assert!(err.contains("format version"), "{err}");
    }

    /// Runs `f` over `0..n` on the pool; returns what was committed, in
    /// commit order, and the pool's stats. The commit asks to stop once
    /// `stop_at` results are in.
    fn pool(
        n: u64,
        threads: usize,
        sup: &SupervisorConfig,
        stop_at: usize,
        f: impl Fn(u64) -> u64 + Sync,
    ) -> (Vec<(u64, u64)>, PoolStats) {
        let pending: Vec<u64> = (0..n).collect();
        let mut journal = Vec::new();
        let stats = run_supervised_until(
            &pending,
            threads,
            sup,
            Subsystem::Injection,
            None,
            f,
            |i, t| {
                journal.push((i, t));
                journal.len() >= stop_at
            },
        );
        (journal, stats)
    }

    fn indices(journal: &[(u64, u64)]) -> Vec<u64> {
        journal.iter().map(|&(i, _)| i).collect()
    }

    #[test]
    fn pool_commits_every_item_in_index_order() {
        let (journal, stats) = pool(200, 4, &SupervisorConfig::default(), usize::MAX, |i| i * 2);
        assert_eq!(journal, (0..200).map(|i| (i, i * 2)).collect::<Vec<_>>());
        assert_eq!(stats.respawns, 0);
        assert!(stats.lost.is_empty());
        assert!(!stats.stopped);
    }

    #[test]
    fn pool_survives_worker_death_and_requeues_inflight() {
        static FIRED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        FIRED.store(false, Ordering::SeqCst);
        fn kill_once(_w: usize, i: u64) {
            if i == 7 && !FIRED.swap(true, Ordering::SeqCst) {
                panic!("induced worker death");
            }
        }
        let sup = SupervisorConfig {
            worker_hook: Some(kill_once),
            ..SupervisorConfig::default()
        };
        let backoff_before = RESPAWN_BACKOFF_MS.get();
        let (journal, stats) = pool(32, 3, &sup, usize::MAX, |i| i);
        assert_eq!(
            indices(&journal),
            (0..32).collect::<Vec<_>>(),
            "item 7 must be requeued and committed in its place"
        );
        assert_eq!(stats.respawns, 1);
        assert!(stats.lost.is_empty());
        assert!(
            RESPAWN_BACKOFF_MS.get() > backoff_before,
            "a respawn must pay its backoff delay"
        );
    }

    #[test]
    fn respawn_backoff_grows_is_jittered_and_capped() {
        for nth in 0..20 {
            let base = (10u64 << nth.min(7)).min(1_000);
            for salt in 0..50 {
                let ms = respawn_backoff_ms(nth, salt);
                assert!(ms >= base / 2, "respawn {nth} salt {salt}: {ms} < {base}/2");
                assert!(ms < base, "respawn {nth} salt {salt}: {ms} >= {base}");
            }
        }
        // Different salts actually spread (jitter is not degenerate).
        let spread: std::collections::HashSet<u64> =
            (0..50).map(|s| respawn_backoff_ms(6, s)).collect();
        assert!(spread.len() > 10);
    }

    #[test]
    fn stop_flag_round_trips() {
        clear_stop();
        assert!(!stop_requested());
        request_stop();
        assert!(stop_requested());
        clear_stop();
        assert!(!stop_requested());
    }

    #[test]
    fn a_commit_stop_yields_an_exact_prefix_at_four_threads() {
        // Even indices finish late, so workers complete out of order.
        fn delay_even(_w: usize, i: u64) {
            if i.is_multiple_of(2) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let sup = SupervisorConfig {
            worker_hook: Some(delay_even),
            ..SupervisorConfig::default()
        };
        let (journal, stats) = pool(100, 4, &sup, 10, |i| i);
        assert!(stats.stopped);
        assert!(stats.lost.is_empty(), "skipped items are not lost");
        assert_eq!(indices(&journal), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pool_abandons_items_that_exhaust_the_respawn_budget() {
        fn kill_always(_w: usize, i: u64) {
            if i == 5 {
                panic!("hard worker killer");
            }
        }
        let sup = SupervisorConfig {
            worker_hook: Some(kill_always),
            max_worker_respawns: 2,
            ..SupervisorConfig::default()
        };
        let (journal, stats) = pool(16, 2, &sup, usize::MAX, |i| i);
        // Item 5 keeps killing workers; everything else must finish. The
        // final inline retry does not run the worker hook, so item 5 is
        // recovered there (f itself is panic-free here) and committed in
        // its place.
        assert_eq!(stats.respawns, 2);
        assert_eq!(indices(&journal), (0..16).collect::<Vec<_>>());
        assert!(stats.lost.is_empty());
    }

    #[test]
    fn a_lost_item_leaves_one_hole_and_the_rest_commits_in_order() {
        let sup = SupervisorConfig {
            max_worker_respawns: 1,
            ..SupervisorConfig::default()
        };
        // Item 5 panics outside any run boundary, on a worker and again on
        // the supervisor thread's retry.
        let (journal, stats) = pool(16, 2, &sup, usize::MAX, |i| {
            assert_ne!(i, 5, "poisoned item");
            i
        });
        assert_eq!(stats.lost, vec![5]);
        assert_eq!(
            indices(&journal),
            (0..16).filter(|&i| i != 5).collect::<Vec<_>>()
        );
    }
}
