//! Beam sessions: Monte-Carlo neutron exposure of the whole platform.
//!
//! Physically, a beam run is a Poisson process: strikes arrive at rate
//! `flux × σ` for every structure with cross-section `σ`, and the paper
//! keeps the error rate below one per 1,000 executions so events never
//! overlap (§IV-B). Simulating millions of clean executions would be
//! wasted work, so the session uses importance sampling: only struck
//! executions are simulated, and the represented fluence is recovered from
//! the total cross-section–time product. Strikes into *modeled* SRAM are
//! replayed through the same simulator and classifier the injection
//! campaigns use; strikes into the unmodeled platform logic take the
//! analytic paths of [`crate::UnmodeledLogic`].
//!
//! Sessions run under the same supervisor as injection campaigns
//! (`sea_injection::supervisor`): strike simulations are panic-isolated
//! and quarantined, and with [`BeamConfig::journal`] set the strike log is
//! journaled so an interrupted session resumes without losing fluence
//! accounting — the paper's watchdog/restart protocol (§IV-B).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sea_injection::supervisor::{
    attempt_run, fnv1a, golden_hash, journal_file, open_journal, run_supervised_until, Journal,
    JournalAudit, JournalError, JournalHeader, PoolStats, Quarantine, RunIdentity,
};
use sea_injection::{
    acquire_golden_and_checkpoints, class_index, CampaignConfig, ConvergenceTracker, InjectionSpec,
    RunAnomaly, SupervisionStats, CLASS_LABELS,
};
use sea_microarch::{Component, System};
use sea_platform::{boot, run, CheckpointStats, ClassCounts, FaultClass, GoldenRun, RunLimits};
use sea_snapshot::CheckpointMeta;
use sea_trace::json::{Json, ObjWriter};
use sea_trace::{event, Level, Progress, Subsystem};
use sea_workloads::BuiltWorkload;

use std::sync::Arc;

use crate::config::{sigma_to_fit, BeamConfig, NYC_FLUX_PER_HOUR};

/// What the supervised pool yields per strike: a classified outcome,
/// an anomaly record, or (for a flaky panic) both.
type StrikeVerdict = (Option<StrikeOutcome>, Option<RunAnomaly>);

/// Where a sampled strike landed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StrikeOrigin {
    /// Modeled SRAM during execution (simulated via injection).
    Sram(Component),
    /// Unmodeled platform logic (FPGA–ARM bridge, interfaces).
    PlatformLogic,
    /// Unmodeled core control latches.
    CoreLatch,
    /// Modeled SRAM during the harness idle window (kernel-only live).
    IdleSram,
}

/// Stable lowercase name of a strike origin (used in trace records).
fn origin_name(origin: StrikeOrigin) -> &'static str {
    match origin {
        StrikeOrigin::Sram(_) => "sram",
        StrikeOrigin::PlatformLogic => "platform_logic",
        StrikeOrigin::CoreLatch => "core_latch",
        StrikeOrigin::IdleSram => "idle_sram",
    }
}

/// One sampled strike and its classified effect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StrikeOutcome {
    /// Strike location category.
    pub origin: StrikeOrigin,
    /// Effect class.
    pub class: FaultClass,
}

/// Result of a beam session for one workload.
#[derive(Clone, Debug)]
pub struct BeamResult {
    /// Workload display name.
    pub workload: String,
    /// Effect tallies over all sampled strikes.
    pub counts: ClassCounts,
    /// Per-origin tallies.
    pub by_origin: Vec<(StrikeOrigin, ClassCounts)>,
    /// Represented fluence in n/cm².
    pub fluence: f64,
    /// Represented effective beam time in seconds.
    pub beam_seconds: f64,
    /// Equivalent natural exposure at NYC flux, in years.
    pub nyc_years: f64,
    /// Number of executions the session represents.
    pub runs_represented: f64,
    /// Fault-free execution length in cycles.
    pub golden_cycles: u64,
    /// Measured fraction of cache SRAM holding kernel-region data at the
    /// end of a fault-free run (drives the idle-window model; §VI).
    pub kernel_resident_frac: f64,
    /// Measured I-cache residency of the program text,
    /// `min(1, L1I bytes / text bytes)` (§VI's check-routine discussion).
    pub code_residency: f64,
    /// Anomalies (panicking strike simulations) captured by the
    /// supervisor, in strike-index order.
    pub anomalies: Vec<RunAnomaly>,
    /// Supervision counters.
    pub supervision: SupervisionStats,
    /// Checkpoint usage for simulated strikes (None when checkpointing
    /// was disabled).
    pub checkpoints: Option<CheckpointStats>,
    /// Strike-log write-side audit (None when journaling was disabled).
    pub journal: Option<JournalAudit>,
}

impl BeamResult {
    /// FIT rate of one (non-masked) effect class.
    pub fn fit(&self, class: FaultClass) -> f64 {
        sigma_to_fit(self.counts.count(class) as f64 / self.fluence)
    }

    /// Total FIT across SDC + AppCrash + SysCrash.
    pub fn total_fit(&self) -> f64 {
        self.fit(FaultClass::Sdc) + self.fit(FaultClass::AppCrash) + self.fit(FaultClass::SysCrash)
    }
}

/// Beam-session error.
#[derive(Debug)]
pub enum BeamError {
    /// The fault-free run failed.
    Golden(sea_platform::GoldenError),
    /// The strike-log journal could not be opened or does not match this
    /// session.
    Journal(JournalError),
}

impl std::fmt::Display for BeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeamError::Golden(e) => write!(f, "golden run failed: {e}"),
            BeamError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BeamError {}

/// Measures the kernel-resident fraction of cache SRAM after a fault-free
/// run: the share of valid lines (weighted by size) whose physical address
/// is below the user page pool — i.e. kernel text/data/stack/page tables.
pub fn measure_kernel_residency(
    workload: &BuiltWorkload,
    cfg: &BeamConfig,
) -> Result<f64, BeamError> {
    let (mut sys, _) = boot(cfg.machine, &workload.image, &cfg.kernel)
        .map_err(|e| BeamError::Golden(sea_platform::GoldenError::Install(e)))?;
    let limits = RunLimits {
        max_cycles: cfg.golden_budget_cycles,
        tick_window: u64::MAX,
        wall_ms: 0,
    };
    let _ = run(&mut sys, limits);
    let mut kernel_bits = 0f64;
    let mut total_bits = 0f64;
    for cache in [&sys.mem.l1i, &sys.mem.l1d, &sys.mem.l2] {
        let per_line = cache.total_bits() as f64 / cache.lines() as f64;
        total_bits += cache.total_bits() as f64;
        kernel_bits += cache
            .valid_line_addrs()
            .filter(|&a| a < sea_kernel::USER_POOL_BASE)
            .count() as f64
            * per_line;
    }
    Ok(kernel_bits / total_bits)
}

struct Weights {
    sram_run: f64,
    sys_run: f64,
    app_run: f64,
    sram_idle: f64,
    sys_idle: f64,
}

impl Weights {
    fn total(&self) -> f64 {
        self.sram_run + self.sys_run + self.app_run + self.sram_idle + self.sys_idle
    }
}

/// Hash of everything that shapes a session's physics (machine, kernel,
/// beam parameters, strike count). Runtime knobs (threads, journal,
/// supervision) are excluded — resuming with a different thread count is
/// valid, resuming against different physics is not.
fn beam_config_hash(cfg: &BeamConfig, strikes: u32) -> u64 {
    fnv1a(
        format!(
            "{:?}|{:?}|{}|{}|{}|{:?}|{}|{}|{}|{}",
            cfg.machine,
            cfg.kernel,
            cfg.clock_hz,
            cfg.flux,
            cfg.sigma_bit,
            cfg.unmodeled,
            cfg.idle_frac,
            cfg.kernel_critical_frac,
            cfg.golden_budget_cycles,
            strikes,
        )
        .as_bytes(),
    )
}

/// Serializes one completed strike as a journal entry line.
fn strike_line(i: u64, out: Option<&StrikeOutcome>, anomaly: Option<&RunAnomaly>) -> String {
    let mut w = ObjWriter::new();
    w.u64_field("i", i);
    match (out, anomaly) {
        (Some(o), flaky) => {
            w.str_field("origin", origin_name(o.origin));
            if let StrikeOrigin::Sram(c) = o.origin {
                w.str_field("component", c.short_name());
            }
            w.str_field("class", &o.class.to_string());
            if flaky.is_some() {
                w.bool_field("flaky", true);
            }
        }
        (None, Some(a)) => {
            w.bool_field("anomaly", true)
                .bool_field("deterministic", a.deterministic)
                .u64_field("attempts", a.attempts as u64)
                .str_field("panic", &a.panic_msg);
        }
        (None, None) => unreachable!("a strike yields an outcome or an anomaly"),
    }
    w.finish()
}

/// Decodes a journal entry back into a strike record.
fn decode_strike(
    j: &Json,
    specs: &[Option<InjectionSpec>],
    id: &RunIdentity,
) -> Option<(usize, Option<StrikeOutcome>, Option<RunAnomaly>)> {
    let i = j.get("i")?.as_u64()? as usize;
    if i >= specs.len() {
        return None;
    }
    if j.get("anomaly").and_then(Json::as_bool) == Some(true) {
        let anomaly = RunAnomaly {
            index: i as u64,
            spec: (*specs.get(i)?)?,
            workload: id.workload.clone(),
            seed: id.seed,
            config_hash: id.config_hash,
            golden_hash: id.golden_hash,
            attempts: j.get("attempts")?.as_u64()? as u32,
            deterministic: j.get("deterministic")?.as_bool()?,
            panic_msg: j.get("panic")?.as_str()?.to_string(),
            postmortem: String::new(),
        };
        return Some((i, None, Some(anomaly)));
    }
    let origin = match j.get("origin")?.as_str()? {
        "sram" => StrikeOrigin::Sram(Component::from_short_name(j.get("component")?.as_str()?)?),
        "platform_logic" => StrikeOrigin::PlatformLogic,
        "core_latch" => StrikeOrigin::CoreLatch,
        "idle_sram" => StrikeOrigin::IdleSram,
        _ => return None,
    };
    let class = FaultClass::from_name(j.get("class")?.as_str()?)?;
    Some((i, Some(StrikeOutcome { origin, class }), None))
}

/// Prometheus snapshot of a live beam session: strike progress, per-class
/// tallies, the represented fluence so far, and the shared supervisor-
/// health and convergence series.
fn beam_prom_snapshot(
    progress: &Progress,
    tracker: &ConvergenceTracker,
    fluence_per_strike: f64,
    resumed: u64,
) -> String {
    let mut w = sea_profile::PromWriter::new();
    w.gauge(
        "sea_beam_strikes_done",
        "Strikes sampled this session.",
        progress.done() as f64,
    );
    w.gauge(
        "sea_beam_strikes_per_sec",
        "Current session throughput.",
        progress.runs_per_sec(),
    );
    w.gauge(
        "sea_beam_fluence_n_cm2",
        "Represented fluence of the strikes sampled so far (n/cm2).",
        (resumed + progress.done()) as f64 * fluence_per_strike,
    );
    for (label, count) in CLASS_LABELS.iter().zip(progress.class_counts()) {
        w.counter(
            &format!("sea_beam_class_{label}_total"),
            "Strikes classified into this fault-effect class.",
            count,
        );
    }
    sea_injection::prom_append_early_exits(&mut w);
    sea_injection::convergence::prom_append(&mut w, tracker);
    w.finish()
}

/// Runs a beam session sampling `strikes` struck executions.
///
/// ```no_run
/// use sea_beam::{run_session, BeamConfig};
/// use sea_platform::FaultClass;
/// use sea_workloads::{Scale, Workload};
///
/// # fn main() -> Result<(), sea_beam::BeamError> {
/// let built = Workload::Fft.build(Scale::Default);
/// let r = run_session("FFT", &built, &BeamConfig::default(), 600)?;
/// println!(
///     "{:.1} NYC-years of exposure → SDC {:.2} FIT, SysCrash {:.2} FIT",
///     r.nyc_years, r.fit(FaultClass::Sdc), r.fit(FaultClass::SysCrash),
/// );
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Fails if the fault-free run does not complete cleanly, or if a resumed
/// strike-log journal does not match this session.
pub fn run_session(
    name: &str,
    workload: &BuiltWorkload,
    cfg: &BeamConfig,
    strikes: u32,
) -> Result<BeamResult, BeamError> {
    // Simulated SRAM strikes reuse the injection machinery (and its
    // supervisor policy) with an inline config; the same config carries
    // the checkpoint policy into the shared golden-run acquisition.
    let inj_cfg = CampaignConfig {
        machine: cfg.machine,
        kernel: cfg.kernel,
        samples_per_component: 0,
        components: vec![],
        seed: cfg.seed,
        threads: cfg.threads,
        fault_model: sea_injection::FaultModel::SingleBit,
        golden_budget_cycles: cfg.golden_budget_cycles,
        supervisor: cfg.supervisor.clone(),
        journal: None,
        checkpoints: cfg.checkpoints.clone(),
        fast_path: cfg.fast_path,
        // The beam session drives its own server and stop predicate; the
        // inner injection config must never start a second one.
        serve: None,
        stop_at_margin: None,
        warp: cfg.warp.then(sea_injection::WarpPolicy::default),
    };
    let id = RunIdentity {
        workload: name.to_string(),
        seed: cfg.seed,
        config_hash: beam_config_hash(cfg, strikes),
        golden_hash: golden_hash(workload),
    };
    let (golden, ckpts): (GoldenRun, _) =
        acquire_golden_and_checkpoints(workload, &inj_cfg, id.config_hash, id.golden_hash)
            .map_err(|e| match e {
                sea_injection::CampaignError::Golden(g) => BeamError::Golden(g),
                sea_injection::CampaignError::Journal(j) => BeamError::Journal(j),
            })?;
    let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period)
        .with_wall_ms(cfg.supervisor.run_wall_ms);
    let kernel_frac = measure_kernel_residency(workload, cfg)?;

    let probe = System::new(cfg.machine, sea_microarch::NullDevice);
    let sram_bits = probe.total_modeled_bits();
    let l1i_bytes = cfg.machine.l1i.size_bytes as f64;
    let code_residency = (l1i_bytes / workload.image.text_bytes().max(1) as f64).min(1.0);

    let t_run = golden.cycles as f64 / cfg.clock_hz;
    let t_idle = t_run * cfg.idle_frac;
    let sigma_sram = cfg.sigma_bit * sram_bits as f64;
    let w = Weights {
        sram_run: sigma_sram * t_run,
        sys_run: cfg.unmodeled.sigma_syscrash * t_run,
        app_run: cfg.unmodeled.sigma_appcrash * code_residency * t_run,
        sram_idle: sigma_sram * t_idle,
        sys_idle: cfg.unmodeled.sigma_syscrash * t_idle,
    };

    // Component selection within modeled SRAM is proportional to size.
    let comp_bits: Vec<(Component, u64)> = Component::ALL
        .iter()
        .map(|&c| (c, probe.component_bits(c)))
        .collect();

    // Pre-sample every strike deterministically.
    #[derive(Clone, Copy)]
    enum Plan {
        Simulate(InjectionSpec),
        Analytic(StrikeOrigin, FaultClass),
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut plans: Vec<Plan> = Vec::with_capacity(strikes as usize);
    for _ in 0..strikes {
        let x = rng.gen_range(0.0..w.total());
        if x < w.sram_run {
            // Simulated SRAM strike during execution.
            let mut pick = rng.gen_range(0..sram_bits);
            let mut component = Component::L2;
            let mut bit = 0;
            for &(c, b) in &comp_bits {
                if pick < b {
                    component = c;
                    bit = pick;
                    break;
                }
                pick -= b;
            }
            plans.push(Plan::Simulate(InjectionSpec {
                component,
                bit,
                cycle: rng.gen_range(0..golden.cycles),
            }));
        } else if x < w.sram_run + w.sys_run + w.sys_idle {
            plans.push(Plan::Analytic(
                StrikeOrigin::PlatformLogic,
                FaultClass::SysCrash,
            ));
        } else if x < w.sram_run + w.sys_run + w.sys_idle + w.app_run {
            plans.push(Plan::Analytic(
                StrikeOrigin::CoreLatch,
                FaultClass::AppCrash,
            ));
        } else {
            // Idle-window SRAM strike: only kernel-resident lines are live;
            // a critical hit surfaces as a system crash at the next
            // execution attempt, anything else is overwritten.
            let class = if rng.gen_range(0.0..1.0) < kernel_frac * cfg.kernel_critical_frac {
                FaultClass::SysCrash
            } else {
                FaultClass::Masked
            };
            plans.push(Plan::Analytic(StrikeOrigin::IdleSram, class));
        }
    }
    let plan_specs: Vec<Option<InjectionSpec>> = plans
        .iter()
        .map(|p| match p {
            Plan::Simulate(spec) => Some(*spec),
            Plan::Analytic(..) => None,
        })
        .collect();

    // Journal: open (or resume, skipping already-simulated strikes so the
    // fluence accounting continues across restarts).
    let mut outcome_by_idx: Vec<Option<StrikeOutcome>> = vec![None; plans.len()];
    let mut anomalies: Vec<RunAnomaly> = Vec::new();
    let mut done = vec![false; plans.len()];
    let mut resumed = 0u64;
    let journal = match &cfg.journal {
        Some(spec) => {
            let header = JournalHeader {
                kind: "beam",
                workload: id.workload.clone(),
                seed: id.seed,
                config_hash: id.config_hash,
                golden_hash: id.golden_hash,
                // Stamped whether or not checkpointing is on (the value is
                // interval-independent), so checkpointed and from-reset
                // sessions write byte-identical strike logs.
                ckpt: CheckpointMeta::provenance(id.config_hash, id.golden_hash),
                total: plans.len() as u64,
            };
            let (journal, entries) = open_journal(spec, &header).map_err(BeamError::Journal)?;
            for e in &entries {
                let Some((i, outcome, anomaly)) = decode_strike(e, &plan_specs, &id) else {
                    continue;
                };
                if done[i] {
                    continue;
                }
                done[i] = true;
                resumed += 1;
                outcome_by_idx[i] = outcome;
                anomalies.extend(anomaly);
            }
            Some(journal)
        }
        None => None,
    };
    let pending: Vec<u64> = (0..plans.len() as u64)
        .filter(|&i| !done[i as usize])
        .collect();

    let quarantine = match &cfg.supervisor.quarantine {
        Some(path) => {
            Some(Quarantine::open(path).map_err(|e| BeamError::Journal(JournalError::Io(e)))?)
        }
        None => None,
    };

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        cfg.threads
    };
    let session_span = sea_trace::span(Subsystem::Beam, Level::Info, "beam.session");
    let progress = Arc::new(Progress::new(
        format!("beam {name}"),
        pending.len() as u64,
        &CLASS_LABELS,
    ));

    // The beam has no per-component populations: the live margin tracks
    // the session-wide effect-class proportions over sampled strikes, with
    // an unbounded population (each strike is one draw from the Poisson
    // arrival process, not from a finite bit pool).
    let tracker = Arc::new(ConvergenceTracker::with_strata(
        sea_injection::stats::Z_99,
        [(String::from("beam"), u64::MAX)],
    ));
    for o in outcome_by_idx.iter().flatten() {
        tracker.record(0, o.class);
    }
    // Represented fluence grows linearly with sampled strikes:
    // n / (flux · Σσt) executions, each t_run of beam time, at `flux`.
    let fluence_per_strike = t_run / w.total();
    {
        let progress = progress.clone();
        let tracker = tracker.clone();
        let workload_name = name.to_string();
        let planned = pending.len() as u64;
        let stop_at = cfg.stop_at_margin;
        sea_observe::publish_status(Some(Arc::new(move || {
            let sampled = resumed + progress.done();
            sea_injection::convergence::status_document(
                "beam",
                &workload_name,
                planned,
                resumed,
                &progress,
                &tracker,
                stop_at,
                &[(
                    "fluence_n_cm2",
                    format!("{:e}", sampled as f64 * fluence_per_strike),
                )],
            )
        })));
    }
    {
        let progress = progress.clone();
        let tracker = tracker.clone();
        sea_observe::publish_metrics(Some(Arc::new(move || {
            beam_prom_snapshot(&progress, &tracker, fluence_per_strike, resumed)
        })));
    }
    match &cfg.journal {
        Some(spec) => {
            sea_observe::publish_journal(Some(&journal_file(&spec.dir, "beam", name, spec.format)))
        }
        None => sea_observe::publish_journal(None),
    }
    if let Some(addr) = &cfg.serve {
        match sea_observe::serve(addr) {
            Ok(bound) => event!(Subsystem::Beam, Level::Info, "observe.serving";
                   "addr" => bound.to_string(),
                   "workload" => name.to_string()),
            Err(e) => event!(Subsystem::Beam, Level::Warn, "observe.serve_failed";
                   "addr" => addr.clone(),
                   "error" => e.to_string()),
        }
    }

    // Stop early on statistical convergence, on a poisoned strike log
    // (after a write fault exhausts its retries, further strikes would be
    // unjournaled, unresumable), or on a process-wide stop request
    // (SIGTERM/SIGINT drain, daemon-initiated shutdown) — in every case
    // the strike log stays a valid resumable prefix.
    let margin_stop = cfg.stop_at_margin.map(|m| {
        let tracker = tracker.clone();
        move || tracker.converged(m)
    });
    let journal_ref = journal.as_ref();
    let stop_pred: Box<dyn Fn() -> bool + Sync + '_> = Box::new(move || {
        sea_injection::stop_requested()
            || journal_ref.is_some_and(|j| j.poisoned())
            || margin_stop.as_ref().is_some_and(|f| f())
    });
    let stop_ref: Option<&(dyn Fn() -> bool + Sync)> = Some(&*stop_pred);
    let (fresh, pool): (Vec<(u64, StrikeVerdict)>, PoolStats) = run_supervised_until(
        &pending,
        threads,
        &cfg.supervisor,
        Subsystem::Beam,
        "beam.worker",
        stop_ref,
        |i| {
            let (out, anomaly) = match plans[i as usize] {
                Plan::Analytic(origin, class) => {
                    // Strikes into unmodeled logic take the PL-bridge
                    // analytic path; log them with the same record shape
                    // as simulated ones.
                    event!(Subsystem::Beam, Level::Info, "beam.strike";
                           "origin" => origin_name(origin),
                           "modeled" => false,
                           "class" => class.to_string());
                    (Some(StrikeOutcome { origin, class }), None)
                }
                Plan::Simulate(spec) => {
                    let v = attempt_run(
                        workload,
                        &inj_cfg,
                        &id,
                        ckpts.as_ref(),
                        i,
                        spec,
                        limits,
                        quarantine.as_ref(),
                    );
                    let out = v.outcome.map(|o| {
                        event!(Subsystem::Beam, Level::Info, "beam.strike";
                               cycle = spec.cycle;
                               "origin" => origin_name(StrikeOrigin::Sram(spec.component)),
                               "component" => spec.component.short_name(),
                               "bit" => spec.bit,
                               "modeled" => true,
                               "class" => o.class.to_string());
                        StrikeOutcome {
                            origin: StrikeOrigin::Sram(spec.component),
                            class: o.class,
                        }
                    });
                    (out, v.anomaly)
                }
            };
            if let Some(j) = &journal {
                j.append(&strike_line(i, out.as_ref(), anomaly.as_ref()));
            }
            progress.record(out.as_ref().map(|o| class_index(o.class)));
            // Record after the journal append: a strike that trips the
            // stop predicate already has its log line, keeping an
            // early-stopped strike log a prefix of the full session's.
            if let Some(o) = &out {
                tracker.record(0, o.class);
            }
            sea_profile::prom_flush(false, || {
                beam_prom_snapshot(&progress, &tracker, fluence_per_strike, resumed)
            });
            (out, anomaly)
        },
    );
    let (done_strikes, secs) = progress.finish();
    sea_profile::prom_flush(true, || {
        beam_prom_snapshot(&progress, &tracker, fluence_per_strike, resumed)
    });
    if journal.as_ref().is_some_and(|j| j.poisoned()) {
        event!(Subsystem::Beam, Level::Error, "beam.journal_poisoned_abort";
               "workload" => name.to_string(),
               "done" => done_strikes,
               "planned" => pending.len() as u64);
    } else if pool.stopped {
        event!(Subsystem::Beam, Level::Info, "beam.early_stop";
               "workload" => name.to_string(),
               "done" => done_strikes,
               "planned" => pending.len() as u64,
               "max_adjusted_margin" => tracker.max_adjusted_margin());
    }
    sea_trace::flush_thread();
    if let Some(mut s) = session_span {
        s.field("workload", name.to_string());
        s.field("strikes", done_strikes);
        s.field(
            "strikes_per_sec",
            if secs > 0.0 {
                done_strikes as f64 / secs
            } else {
                0.0
            },
        );
        s.field("resumed", resumed);
    }

    let sampled_strikes = resumed + fresh.len() as u64;
    for (i, (out, anomaly)) in fresh {
        outcome_by_idx[i as usize] = out;
        anomalies.extend(anomaly);
    }
    anomalies.sort_by_key(|a| a.index);

    let mut counts = ClassCounts::default();
    let mut by_origin: std::collections::BTreeMap<StrikeOrigin, ClassCounts> =
        std::collections::BTreeMap::new();
    for o in outcome_by_idx.iter().flatten() {
        counts.add(o.class);
        by_origin.entry(o.origin).or_default().add(o.class);
    }
    let supervision = SupervisionStats {
        completed: counts.total(),
        resumed,
        quarantined: anomalies.len() as u64,
        flaky_recovered: anomalies.iter().filter(|a| !a.deterministic).count() as u64,
        worker_respawns: pool.respawns,
        lost: pool.lost.len() as u64,
    };
    let ckpt_stats = ckpts.as_ref().map(|c| c.stats());
    if let Some(s) = ckpt_stats {
        event!(Subsystem::Beam, Level::Info, "beam.checkpoints";
               "workload" => name.to_string(),
               "epochs" => s.epochs,
               "restores" => s.restores,
               "prefix_cycles_saved" => s.prefix_cycles_saved,
               "golden_cycles" => golden.cycles);
    }

    // Represented exposure: strikes arrive at flux × Σ(σ·t) per execution.
    // An early-stopped session represents only the strikes it actually
    // sampled — scaling the fluence down keeps the cross-sections (and so
    // the FIT rates) unbiased estimators.
    let represented = if pool.stopped {
        sampled_strikes as f64
    } else {
        strikes as f64
    };
    let runs_represented = represented / (cfg.flux * w.total());
    // FIT normalization uses *effective* beam time only — execution windows
    // — matching the paper's "260 effective beam hours (not considering
    // setup, initialization, and recover from crash times)". Strikes landed
    // during the idle windows still count (their corruption surfaces during
    // the next execution), but the overhead time does not dilute the rate.
    let beam_seconds = runs_represented * t_run;
    let fluence = cfg.flux * beam_seconds;
    let nyc_years = fluence / NYC_FLUX_PER_HOUR / 24.0 / 365.25;
    event!(Subsystem::Beam, Level::Info, "beam.fluence";
           "workload" => name.to_string(),
           "strikes" => strikes,
           "fluence_n_cm2" => fluence,
           "beam_seconds" => beam_seconds,
           "nyc_years" => nyc_years,
           "runs_represented" => runs_represented);

    if let Some(j) = &journal {
        j.sync();
    }
    let journal_audit = journal.as_ref().map(Journal::audit);

    Ok(BeamResult {
        workload: name.to_string(),
        counts,
        by_origin: by_origin.into_iter().collect(),
        fluence,
        beam_seconds,
        nyc_years,
        runs_represented,
        golden_cycles: golden.cycles,
        kernel_resident_frac: kernel_frac,
        code_residency,
        anomalies,
        supervision,
        checkpoints: ckpt_stats,
        journal: journal_audit,
    })
}
