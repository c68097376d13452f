//! One run driver for injection campaigns and beam sessions.
//!
//! A campaign and a beam session are the same pipeline over different
//! index spaces: a deterministic plan of indices, each classified under
//! the supervisor and journaled as one record line. [`drive`] owns
//! everything about running such a plan — journal open and resume, the
//! pending list, progress with a work-weighted ETA, the running margins,
//! `/status` and `/metrics`, the stop predicate, the supervised pool, and
//! the drain, span, supervision, checkpoint and sync bookkeeping at the
//! end — so resume, early stop and drain behave alike for both. A
//! [`RunPlan`] supplies only what differs: what an index classifies to, how
//! that half of its record line reads and writes, its strata, and its own
//! live series.

use std::sync::Arc;

use sea_platform::{CheckpointSet, CheckpointStats, FaultClass};
use sea_profile::PromWriter;
use sea_trace::json::{Json, ObjWriter};
use sea_trace::{event, Level, Progress, Subsystem};

use crate::campaign::{
    class_index, CampaignPlan, InjectionSpec, SupervisionStats, CLASS_LABELS, DEAD_PRUNED,
    DEAD_PRUNED_BYTES, DEAD_PRUNED_INVALID, RECONVERGED, RECONVERGE_CYCLES_SAVED,
};
use crate::convergence::{status_document, ConvergenceTracker};
use crate::supervisor::{
    journal_file, open_journal, run_supervised_until, stop_requested, Journal, JournalAudit,
    JournalError, JournalHeader, RunAnomaly, RunVerdict,
};

/// A plan's live state, shared with the observe thread.
pub struct Live {
    /// Runs done in this process, per class, with the work-weighted ETA.
    pub progress: Progress,
    /// Running margins, one stratum per [`RunPlan::strata`] entry.
    pub tracker: ConvergenceTracker,
    /// Indices recovered from the journal before any ran here.
    pub resumed: u64,
}

/// A deterministic, index-addressable plan that [`drive`] runs.
pub trait RunPlan: Sync {
    /// What one index classifies to.
    type Outcome: Clone + Send;
    /// What [`RunPlan::prom`] and [`RunPlan::status_extras`] read of the
    /// plan. Observe renders them on its own thread, so it is owned.
    type Gauges: Send + Sync + 'static;

    /// The campaign plan whose golden run, checkpoints, supervision policy
    /// and runtime knobs this plan's simulated indices run under (the plan
    /// itself, for a campaign).
    fn campaign(&self) -> &CampaignPlan<'_>;
    /// The journal identity header. Its `kind` also names the `/status`
    /// kind and the trace events; its `total` is the number of indices.
    fn header(&self) -> JournalHeader;
    /// Executes index `i`.
    fn run_index(&self, i: u64) -> RunVerdict<Self::Outcome>;
    /// The injection index `i` simulates, if it simulates one.
    fn spec(&self, i: u64) -> Option<InjectionSpec>;
    /// Convergence strata as `(label, population bits)`.
    fn strata(&self) -> Vec<(String, u64)>;
    /// The stratum index `i` samples.
    fn stratum_of(&self, i: u64) -> usize;
    /// The effect class of an outcome.
    fn class(o: &Self::Outcome) -> FaultClass;
    /// Writes the outcome half of a record line.
    fn write_outcome(o: &Self::Outcome, w: &mut ObjWriter);
    /// Reads the outcome half of index `i`'s record line back.
    fn read_outcome(&self, i: u64, j: &Json) -> Option<Self::Outcome>;
    /// The plan data the live renderers need.
    fn gauges(&self) -> Self::Gauges;
    /// The plan's own `/metrics` series.
    fn prom(g: &Self::Gauges, live: &Live, w: &mut PromWriter);
    /// Top-level members `/status` appends, pre-serialized.
    fn status_extras(g: &Self::Gauges, live: &Live) -> Vec<(&'static str, String)>;

    /// Planned cost of index `i`, the unit of the work-weighted ETA: the
    /// golden suffix past the nearest checkpoint for a simulated index,
    /// nothing for one classified without a machine. A finished index is
    /// credited with this figure whatever it actually simulated — the
    /// cursor, pruning and the reconvergence cut all make runs cheaper
    /// than planned, and crediting simulated cycles against a planned
    /// total would leave a finished run looking part-done.
    fn expected_work(&self, i: u64) -> u64 {
        self.spec(i)
            .map_or(0, |s| self.campaign().strike_work(s.cycle))
    }
}

/// What [`drive`] hands back for the plan to fold.
#[derive(Clone, Debug)]
pub struct Driven<O> {
    /// Each index's outcome (resumed or run here), `None` where none was
    /// recorded.
    pub outcomes: Vec<Option<O>>,
    /// Anomalies (panicking runs), in index order.
    pub anomalies: Vec<RunAnomaly>,
    /// Supervision counters.
    pub supervision: SupervisionStats,
    /// Indices with a record: resumed plus run here.
    pub sampled: u64,
    /// The stop predicate fired before every index ran.
    pub stopped: bool,
    /// Checkpoint usage (None with checkpointing off).
    pub checkpoints: Option<CheckpointStats>,
    /// Journal write-side audit (None without a journal).
    pub journal: Option<JournalAudit>,
}

/// How one journal kind names itself in traces and `/metrics`.
struct Names {
    sub: Subsystem,
    run: &'static str,
    poisoned: &'static str,
    drained: &'static str,
    early_stop: &'static str,
    supervision: &'static str,
    checkpoints: &'static str,
    /// `/metrics` prefix and unit of the progress series.
    series: (&'static str, &'static str),
}

const INJECT: Names = Names {
    sub: Subsystem::Injection,
    run: "injection.campaign",
    poisoned: "injection.journal_poisoned_abort",
    drained: "injection.stop_drained",
    early_stop: "injection.early_stop",
    supervision: "injection.supervision",
    checkpoints: "injection.checkpoints",
    series: ("sea_campaign", "runs"),
};

const BEAM: Names = Names {
    sub: Subsystem::Beam,
    run: "beam.session",
    poisoned: "beam.journal_poisoned_abort",
    drained: "beam.stop_drained",
    early_stop: "beam.early_stop",
    supervision: "beam.supervision",
    checkpoints: "beam.checkpoints",
    series: ("sea_beam", "strikes"),
};

/// One journal record: the index, then the plan's outcome fields (flagged
/// `flaky` when a retry recovered from a panic), or the anomaly when every
/// attempt panicked.
pub(crate) fn record_line<O>(
    i: u64,
    v: &RunVerdict<O>,
    write_outcome: impl FnOnce(&O, &mut ObjWriter),
) -> String {
    let mut w = ObjWriter::new();
    w.u64_field("i", i);
    match (&v.outcome, &v.anomaly) {
        (Some(o), anomaly) => {
            write_outcome(o, &mut w);
            if anomaly.is_some() {
                // The outcome is authoritative; the anomaly lives in the
                // quarantine file.
                w.bool_field("flaky", true);
            }
        }
        (None, Some(a)) => {
            w.bool_field("anomaly", true)
                .bool_field("deterministic", a.deterministic)
                .u64_field("attempts", a.attempts as u64)
                .str_field("panic", &a.panic_msg);
        }
        (None, None) => unreachable!("a supervised run yields an outcome or an anomaly"),
    }
    w.finish()
}

/// Decodes one journal record back into `(index, outcome, anomaly)`. Only
/// the index and the classification travel through the journal; the rest
/// is regenerated from the plan.
fn decode_record<P: RunPlan>(
    plan: &P,
    j: &Json,
) -> Option<(usize, Option<P::Outcome>, Option<RunAnomaly>)> {
    let i = j.get("i")?.as_u64()?;
    if j.get("anomaly").and_then(Json::as_bool) != Some(true) {
        return Some((i as usize, Some(plan.read_outcome(i, j)?), None));
    }
    let id = plan.campaign().identity();
    let anomaly = RunAnomaly {
        index: i,
        spec: plan.spec(i)?,
        workload: id.workload.clone(),
        seed: id.seed,
        config_hash: id.config_hash,
        golden_hash: id.golden_hash,
        attempts: j.get("attempts")?.as_u64()? as u32,
        deterministic: j.get("deterministic")?.as_bool()?,
        panic_msg: j.get("panic")?.as_str()?.to_string(),
        // The snapshot lives in the quarantine file, not the journal.
        postmortem: String::new(),
    };
    Some((i as usize, None, Some(anomaly)))
}

/// The live `/metrics` document: progress and per-class tallies, the
/// plan's own series, the early exits, supervisor health and margins.
/// Also rewritten (atomically, throttled) to the `--prom-out` target, so a
/// textfile collector or plain `watch cat` gives a live dashboard.
fn prom_document<P: RunPlan>(names: &Names, g: &P::Gauges, live: &Live) -> String {
    let (prefix, unit) = names.series;
    let mut w = PromWriter::new();
    w.gauge(
        &format!("{prefix}_{unit}_done"),
        "Indices completed this session.",
        live.progress.done() as f64,
    );
    w.gauge(
        &format!("{prefix}_{unit}_per_sec"),
        "Current throughput.",
        live.progress.runs_per_sec(),
    );
    for (label, count) in CLASS_LABELS.iter().zip(live.progress.class_counts()) {
        w.counter(
            &format!("{prefix}_class_{label}_total"),
            "Indices classified into this fault-effect class.",
            count,
        );
    }
    P::prom(g, live, &mut w);
    w.counter(
        "sea_dead_pruned_total",
        "Injected runs answered at the strike: the golden run never reads the struck cells again.",
        DEAD_PRUNED.get(),
    );
    w.counter(
        "sea_dead_pruned_bytes_total",
        "Dead-pruned runs whose struck line is read again but whose struck byte is never consumed.",
        DEAD_PRUNED_BYTES.get(),
    );
    w.counter(
        "sea_dead_pruned_invalid_total",
        "Dead-pruned runs that struck an invalid cache line or TLB entry, not its valid bit.",
        DEAD_PRUNED_INVALID.get(),
    );
    w.counter(
        "sea_reconverged_total",
        "Injected runs cut at an epoch checkpoint whose live state they had rejoined.",
        RECONVERGED.get(),
    );
    w.counter(
        "sea_reconverge_cycles_saved_total",
        "Golden cycles left unsimulated by reconverged runs.",
        RECONVERGE_CYCLES_SAVED.get(),
    );
    crate::convergence::prom_append(&mut w, &live.tracker);
    w.finish()
}

/// Runs every index of `plan` its journal does not already hold, on a
/// supervised pool steered by the campaign configuration's runtime knobs.
///
/// Each finished index is committed in index order, whatever order the
/// workers finish in: with `journal` set it is appended as one record,
/// then it joins the live state and the returned outcomes, so a journal's
/// bytes do not depend on the thread count. A resumed journal's records
/// are skipped, so an interrupted run continues where it stopped. With
/// `serve` set, `/status`, `/metrics` and the journal tail are served
/// live. The run stops early — workers finish their in-flight index, the
/// journal stays a valid resumable prefix — on a process-wide stop
/// request, a poisoned journal, or at the first commit after which every
/// stratum's adjusted margin is within `stop_at_margin`.
///
/// # Errors
///
/// Fails when the journal cannot be opened or does not match the plan.
pub fn drive<P: RunPlan>(plan: &P) -> Result<Driven<P::Outcome>, JournalError> {
    let header = plan.header();
    let names = if header.kind == "beam" {
        &BEAM
    } else {
        &INJECT
    };
    let campaign = plan.campaign();
    let cfg = campaign.config();
    let workload = &header.workload;

    let mut outcomes: Vec<Option<P::Outcome>> = vec![None; header.total as usize];
    let mut anomalies = Vec::new();
    let mut done = vec![false; header.total as usize];
    let mut resumed = 0u64;
    let journal = match &cfg.journal {
        Some(spec) => {
            let (journal, entries) = open_journal(spec, &header)?;
            for (i, outcome, anomaly) in entries.iter().filter_map(|e| decode_record(plan, e)) {
                done[i] = true;
                resumed += 1;
                outcomes[i] = outcome;
                anomalies.extend(anomaly);
            }
            Some(journal)
        }
        None => None,
    };
    let pending: Vec<u64> = (0..header.total).filter(|&i| !done[i as usize]).collect();
    let planned = pending.len() as u64;
    let work: u64 = pending.iter().map(|&i| plan.expected_work(i)).sum();

    let run_span = sea_trace::span(names.sub, Level::Info, names.run);
    let live = Arc::new(Live {
        progress: Progress::new(
            format!("{} {workload}", header.kind),
            planned,
            &CLASS_LABELS,
        ),
        tracker: ConvergenceTracker::with_strata(crate::stats::Z_99, plan.strata()),
        resumed,
    });
    live.progress.set_total_work(work);
    // Seeded with the resumed outcomes, so a resumed run's margins start
    // where the journal left them.
    for (i, o) in outcomes.iter().enumerate() {
        if let Some(o) = o {
            live.tracker.record(plan.stratum_of(i as u64), P::class(o));
        }
    }

    // The observability providers are read-only closures over the live
    // state, pulled only when a request arrives; the server itself starts
    // only with `serve` set.
    let gauges = Arc::new(plan.gauges());
    {
        let (live, gauges, workload) = (live.clone(), gauges.clone(), workload.clone());
        let (kind, stop_at) = (header.kind, cfg.stop_at_margin);
        sea_observe::publish_status(Some(Arc::new(move || {
            status_document(
                kind,
                &workload,
                planned,
                live.resumed,
                &live.progress,
                &live.tracker,
                stop_at,
                &P::status_extras(&gauges, &live),
            )
        })));
    }
    {
        let (live, gauges) = (live.clone(), gauges.clone());
        sea_observe::publish_metrics(Some(Arc::new(move || {
            prom_document::<P>(names, &gauges, &live)
        })));
    }
    let journal_path = cfg
        .journal
        .as_ref()
        .map(|s| journal_file(&s.dir, header.kind, workload));
    sea_observe::publish_journal(journal_path.as_deref());
    if let Some(addr) = &cfg.serve {
        match sea_observe::serve(addr) {
            Ok(bound) => event!(names.sub, Level::Info, "observe.serving";
                   "addr" => bound.to_string(),
                   "workload" => workload.clone()),
            Err(e) => event!(names.sub, Level::Warn, "observe.serve_failed";
                   "addr" => addr.clone(),
                   "error" => e.to_string()),
        }
    }

    let threads = match cfg.threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    let converged = || {
        cfg.stop_at_margin
            .is_some_and(|m| live.tracker.converged(m))
    };
    // The margin term only matters before the first commit, when a resumed
    // journal has already converged; after that the commits decide.
    let stop =
        || stop_requested() || journal.as_ref().is_some_and(Journal::poisoned) || converged();
    let pool = run_supervised_until(
        &pending,
        threads,
        &cfg.supervisor,
        names.sub,
        Some(&stop),
        |i| plan.run_index(i),
        // Commits arrive in index order, so the journal, the live state
        // and the returned outcomes all hold the same prefix, and an early
        // stop lands on the same index at any thread count.
        |i, v: RunVerdict<P::Outcome>| {
            if let Some(j) = &journal {
                j.append(&record_line(i, &v, P::write_outcome));
            }
            let class = v.outcome.as_ref().map(P::class);
            live.progress.record(class.map(class_index));
            live.progress.record_work(plan.expected_work(i));
            if let Some(class) = class {
                live.tracker.record(plan.stratum_of(i), class);
            }
            sea_profile::prom_flush(false, || prom_document::<P>(names, &gauges, &live));
            outcomes[i as usize] = v.outcome;
            anomalies.extend(v.anomaly);
            converged()
        },
    );
    let (done_runs, secs) = live.progress.finish();
    // The ~1 Hz throttle can swallow the last interval.
    sea_profile::prom_flush(true, || prom_document::<P>(names, &gauges, &live));
    if journal.as_ref().is_some_and(Journal::poisoned) {
        event!(names.sub, Level::Error, names.poisoned;
               "workload" => workload.clone(),
               "done" => done_runs,
               "planned" => planned);
    } else if pool.stopped && stop_requested() {
        event!(names.sub, Level::Info, names.drained;
               "workload" => workload.clone(),
               "done" => done_runs,
               "planned" => planned);
    } else if pool.stopped {
        event!(names.sub, Level::Info, names.early_stop;
               "workload" => workload.clone(),
               "done" => done_runs,
               "planned" => planned,
               "max_adjusted_margin" => live.tracker.max_adjusted_margin());
    }
    // This thread's closing events reach the `/events` tail promptly.
    sea_trace::flush_thread();
    if let Some(mut s) = run_span {
        s.field("workload", workload.clone());
        s.field("runs", done_runs);
        s.field(
            "runs_per_sec",
            if secs > 0.0 {
                done_runs as f64 / secs
            } else {
                0.0
            },
        );
        s.field("workers", pool.workers);
        s.field("resumed", resumed);
        s.field("work", work);
    }

    let sampled = resumed + done_runs;
    let supervision = SupervisionStats {
        completed: outcomes.iter().flatten().count() as u64,
        resumed,
        quarantined: anomalies.len() as u64,
        flaky_recovered: anomalies.iter().filter(|a| !a.deterministic).count() as u64,
        worker_respawns: pool.respawns,
        lost: pool.lost.len() as u64,
    };
    if supervision.quarantined > 0 || supervision.lost > 0 || supervision.worker_respawns > 0 {
        event!(names.sub, Level::Warn, names.supervision;
               "workload" => workload.clone(),
               "quarantined" => supervision.quarantined,
               "flaky_recovered" => supervision.flaky_recovered,
               "worker_respawns" => supervision.worker_respawns,
               "lost" => supervision.lost);
    }
    let checkpoints = campaign.checkpoints().map(CheckpointSet::stats);
    if let Some(s) = checkpoints {
        event!(names.sub, Level::Info, names.checkpoints;
               "workload" => workload.clone(),
               "epochs" => s.epochs,
               "restores" => s.restores,
               "prefix_cycles_saved" => s.prefix_cycles_saved,
               "golden_cycles" => campaign.golden_cycles());
    }
    // Make the tail durable before handing the result back, whatever the
    // fsync policy chose to defer.
    if let Some(j) = &journal {
        j.sync();
    }
    Ok(Driven {
        outcomes,
        anomalies,
        supervision,
        sampled,
        stopped: pool.stopped,
        checkpoints,
        journal: journal.as_ref().map(Journal::audit),
    })
}
