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
//! A session is a [`BeamPlan`] run by the same driver as injection
//! campaigns (`sea_injection::drive`): strike simulations are
//! panic-isolated and quarantined, and with [`BeamConfig::journal`] set the
//! strike log is journaled so an interrupted session resumes without
//! losing fluence accounting — the paper's watchdog/restart protocol
//! (§IV-B).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sea_injection::supervisor::{fnv1a, golden_hash, JournalAudit, JournalHeader, RunIdentity};
use sea_injection::{
    drive, CampaignConfig, CampaignError, CampaignPlan, InjectionSpec, Live, RunAnomaly, RunPlan,
    RunVerdict, SupervisionStats,
};
use sea_microarch::{Component, System};
use sea_platform::{
    boot, kernel_residency, run, CheckpointStats, ClassCounts, FaultClass, RunLimits,
};
use sea_trace::json::{Json, ObjWriter};
use sea_trace::{event, Level, Subsystem};
use sea_workloads::BuiltWorkload;

use crate::config::{sigma_to_fit, BeamConfig, NYC_FLUX_PER_HOUR};

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

/// Beam-session error: sessions fail the way campaigns do, on a broken
/// golden run or a strike log that does not match the session.
pub type BeamError = CampaignError;

/// Measures the kernel-resident fraction of cache SRAM after a fault-free
/// run ([`kernel_residency`]) by booting and running the program once
/// more. A session reads the same value off its own golden run
/// ([`sea_platform::GoldenRun::kernel_resident_frac`]); this separate run
/// is the oracle that reading is tested against.
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
    Ok(kernel_residency(&sys))
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

/// One pre-sampled strike of a session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strike {
    /// Modeled SRAM during execution: replayed through the injection
    /// machinery.
    Simulate(InjectionSpec),
    /// Unmodeled logic, or SRAM during the idle window: classified when
    /// it is sampled.
    Analytic(StrikeOrigin, FaultClass),
}

/// A beam session's deterministic, index-addressable plan: every strike
/// pre-sampled from the seed, the campaign plan the simulated ones replay
/// on, and the cross-section–time product that turns sampled strikes into
/// fluence. [`run_session`] drives it.
pub struct BeamPlan<'a> {
    /// Golden run, checkpoints and supervision for simulated strikes,
    /// under the session's identity; it plans no injections of its own.
    sim: CampaignPlan<'a>,
    strikes: Vec<Strike>,
    /// Σσ·t over one execution window: strikes arrive at `flux × sigma_t`
    /// per execution.
    sigma_t: f64,
    /// One fault-free execution, in seconds.
    t_run: f64,
    code_residency: f64,
}

impl<'a> BeamPlan<'a> {
    /// Runs the golden reference and pre-samples `strikes` strikes.
    ///
    /// # Errors
    ///
    /// Fails when the golden run does not complete cleanly or the
    /// quarantine file cannot be opened.
    pub fn new(
        name: &str,
        workload: &'a BuiltWorkload,
        cfg: &BeamConfig,
        strikes: u32,
    ) -> Result<Self, BeamError> {
        // Simulated SRAM strikes reuse the injection machinery (and its
        // supervisor policy) with an inline config, which also carries the
        // checkpoint interval and the runtime knobs the driver reads.
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
            journal: cfg.journal.clone(),
            checkpoint_interval: cfg.checkpoint_interval,
            fast_path: cfg.fast_path,
            serve: cfg.serve.clone(),
            stop_at_margin: cfg.stop_at_margin,
            // Strikes arrive in sampling order, not cycle order, so a
            // cursor would be re-seeded on almost every hand-off and add a
            // clone to the restore + advance every strike pays anyway.
            warp: false,
        };
        let id = RunIdentity {
            workload: name.to_string(),
            seed: cfg.seed,
            config_hash: beam_config_hash(cfg, strikes),
            golden_hash: golden_hash(workload),
        };
        let sim = CampaignPlan::with_identity(workload, inj_cfg, id)?;
        let golden_cycles = sim.golden_cycles();
        let kernel_frac = sim.golden().kernel_resident_frac;

        let probe = System::new(cfg.machine, sea_microarch::NullDevice);
        let sram_bits = probe.total_modeled_bits();
        let l1i_bytes = cfg.machine.l1i.size_bytes as f64;
        let code_residency = (l1i_bytes / workload.image.text_bytes().max(1) as f64).min(1.0);

        let t_run = golden_cycles as f64 / cfg.clock_hz;
        let t_idle = t_run * cfg.idle_frac;
        // Strike weights, σ·t per strike target.
        let sigma_sram = cfg.sigma_bit * sram_bits as f64;
        let sram_run = sigma_sram * t_run;
        let sys_run = cfg.unmodeled.sigma_syscrash * t_run;
        let app_run = cfg.unmodeled.sigma_appcrash * code_residency * t_run;
        let sram_idle = sigma_sram * t_idle;
        let sys_idle = cfg.unmodeled.sigma_syscrash * t_idle;
        let sigma_t = sram_run + sys_run + app_run + sram_idle + sys_idle;

        // Component selection within modeled SRAM is proportional to size.
        let comp_bits: Vec<(Component, u64)> = Component::ALL
            .iter()
            .map(|&c| (c, probe.component_bits(c)))
            .collect();

        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let strikes = (0..strikes)
            .map(|_| {
                let x = rng.gen_range(0.0..sigma_t);
                if x < sram_run {
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
                    Strike::Simulate(InjectionSpec {
                        component,
                        bit,
                        cycle: rng.gen_range(0..golden_cycles),
                    })
                } else if x < sram_run + sys_run + sys_idle {
                    Strike::Analytic(StrikeOrigin::PlatformLogic, FaultClass::SysCrash)
                } else if x < sram_run + sys_run + sys_idle + app_run {
                    Strike::Analytic(StrikeOrigin::CoreLatch, FaultClass::AppCrash)
                } else {
                    // Idle-window SRAM strike: only kernel-resident lines
                    // are live; a critical hit surfaces as a system crash
                    // at the next execution attempt, anything else is
                    // overwritten.
                    let critical = rng.gen_range(0.0..1.0) < kernel_frac * cfg.kernel_critical_frac;
                    let class = if critical {
                        FaultClass::SysCrash
                    } else {
                        FaultClass::Masked
                    };
                    Strike::Analytic(StrikeOrigin::IdleSram, class)
                }
            })
            .collect();
        Ok(BeamPlan {
            sim,
            strikes,
            sigma_t,
            t_run,
            code_residency,
        })
    }

    /// Every pre-sampled strike, in index order.
    pub fn strikes(&self) -> &[Strike] {
        &self.strikes
    }
}

impl RunPlan for BeamPlan<'_> {
    type Outcome = StrikeOutcome;
    /// Represented fluence per sampled strike (n/cm²).
    type Gauges = f64;

    fn campaign(&self) -> &CampaignPlan<'_> {
        &self.sim
    }

    fn header(&self) -> JournalHeader {
        JournalHeader {
            kind: "beam",
            total: self.strikes.len() as u64,
            ..self.sim.header()
        }
    }

    fn run_index(&self, i: u64) -> RunVerdict<StrikeOutcome> {
        match self.strikes[i as usize] {
            Strike::Analytic(origin, class) => {
                // Logged with the same record shape as simulated strikes.
                event!(Subsystem::Beam, Level::Info, "beam.strike";
                       "origin" => origin_name(origin),
                       "modeled" => false,
                       "class" => class.to_string());
                RunVerdict {
                    outcome: Some(StrikeOutcome { origin, class }),
                    anomaly: None,
                    sim_cycles: 0,
                }
            }
            Strike::Simulate(spec) => self.sim.attempt(i, spec).map(|o| {
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
            }),
        }
    }

    fn spec(&self, i: u64) -> Option<InjectionSpec> {
        match self.strikes.get(i as usize)? {
            Strike::Simulate(spec) => Some(*spec),
            Strike::Analytic(..) => None,
        }
    }

    /// One session-wide stratum over the effect-class proportions, with
    /// an unbounded population: each strike is one draw from the Poisson
    /// arrival process, not from a finite bit pool.
    fn strata(&self) -> Vec<(String, u64)> {
        vec![(String::from("beam"), u64::MAX)]
    }

    fn stratum_of(&self, _: u64) -> usize {
        0
    }

    fn class(o: &StrikeOutcome) -> FaultClass {
        o.class
    }

    fn write_outcome(o: &StrikeOutcome, w: &mut ObjWriter) {
        w.str_field("origin", origin_name(o.origin));
        if let StrikeOrigin::Sram(c) = o.origin {
            w.str_field("component", c.short_name());
        }
        w.str_field("class", &o.class.to_string());
    }

    fn read_outcome(&self, _: u64, j: &Json) -> Option<StrikeOutcome> {
        let origin = match j.get("origin")?.as_str()? {
            "sram" => {
                StrikeOrigin::Sram(Component::from_short_name(j.get("component")?.as_str()?)?)
            }
            "platform_logic" => StrikeOrigin::PlatformLogic,
            "core_latch" => StrikeOrigin::CoreLatch,
            "idle_sram" => StrikeOrigin::IdleSram,
            _ => return None,
        };
        let class = FaultClass::from_name(j.get("class")?.as_str()?)?;
        Some(StrikeOutcome { origin, class })
    }

    /// Each strike represents `1 / (flux · Σσt)` executions of `t_run`
    /// beam time at `flux`.
    fn gauges(&self) -> f64 {
        self.t_run / self.sigma_t
    }

    fn prom(fluence_per_strike: &f64, live: &Live, w: &mut sea_profile::PromWriter) {
        w.gauge(
            "sea_beam_fluence_n_cm2",
            "Represented fluence of the strikes sampled so far (n/cm2).",
            (live.resumed + live.progress.done()) as f64 * fluence_per_strike,
        );
    }

    fn status_extras(fluence_per_strike: &f64, live: &Live) -> Vec<(&'static str, String)> {
        let sampled = live.resumed + live.progress.done();
        vec![(
            "fluence_n_cm2",
            format!("{:e}", sampled as f64 * fluence_per_strike),
        )]
    }
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
    let plan = BeamPlan::new(name, workload, cfg, strikes)?;
    let run = drive(&plan).map_err(BeamError::Journal)?;

    let mut counts = ClassCounts::default();
    let mut by_origin: std::collections::BTreeMap<StrikeOrigin, ClassCounts> =
        std::collections::BTreeMap::new();
    for o in run.outcomes.iter().flatten() {
        counts.add(o.class);
        by_origin.entry(o.origin).or_default().add(o.class);
    }

    // Represented exposure: strikes arrive at flux × Σ(σ·t) per execution.
    // An early-stopped session represents only the strikes it actually
    // sampled — scaling the fluence down keeps the cross-sections (and so
    // the FIT rates) unbiased estimators.
    let represented = if run.stopped {
        run.sampled as f64
    } else {
        f64::from(strikes)
    };
    let runs_represented = represented / (cfg.flux * plan.sigma_t);
    // FIT normalization uses *effective* beam time only — execution windows
    // — matching the paper's "260 effective beam hours (not considering
    // setup, initialization, and recover from crash times)". Strikes landed
    // during the idle windows still count (their corruption surfaces during
    // the next execution), but the overhead time does not dilute the rate.
    let beam_seconds = runs_represented * plan.t_run;
    let fluence = cfg.flux * beam_seconds;
    let nyc_years = fluence / NYC_FLUX_PER_HOUR / 24.0 / 365.25;
    event!(Subsystem::Beam, Level::Info, "beam.fluence";
           "workload" => name.to_string(),
           "strikes" => strikes,
           "fluence_n_cm2" => fluence,
           "beam_seconds" => beam_seconds,
           "nyc_years" => nyc_years,
           "runs_represented" => runs_represented);

    let golden = plan.sim.golden();
    Ok(BeamResult {
        workload: name.to_string(),
        counts,
        by_origin: by_origin.into_iter().collect(),
        fluence,
        beam_seconds,
        nyc_years,
        runs_represented,
        golden_cycles: golden.cycles,
        kernel_resident_frac: golden.kernel_resident_frac,
        code_residency: plan.code_residency,
        anomalies: run.anomalies,
        supervision: run.supervision,
        checkpoints: run.checkpoints,
        journal: run.journal,
    })
}
