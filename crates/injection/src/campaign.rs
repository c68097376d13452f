//! Statistical fault-injection campaigns (the GeFIN equivalent, §IV-C).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sea_kernel::KernelConfig;
use sea_microarch::{ArrayKind, Component, DeadCell, FaultProbe, MachineConfig, RunEnd, System};
use sea_platform::{
    boot, classify, golden_run, golden_run_with_checkpoints, run_until_reconverged, Board,
    CheckpointSet, CheckpointStats, ClassCounts, FaultClass, GoldenRun, RunLimits,
};
use sea_trace::json::{Json, ObjWriter};
use sea_trace::{event, Counter, Histogram, Level, Subsystem};
use sea_workloads::BuiltWorkload;

use crate::drive::{drive, record_line, Live, RunPlan};
use crate::supervisor::{
    config_hash, fnv1a, golden_hash, run_one_caught, CaughtPanic, JournalAudit, JournalError,
    JournalHeader, JournalSpec, Quarantine, RunAnomaly, RunIdentity, RunVerdict, SupervisorConfig,
};

/// Class-name labels for progress meters, index-aligned with
/// [`FaultClass::ALL`].
pub const CLASS_LABELS: [&str; 4] = ["masked", "sdc", "app", "sys"];

/// Cycles actually simulated per injection run (the post-restore suffix),
/// recorded by [`CampaignPlan::attempt`] for the Prometheus campaign
/// snapshot and fleet telemetry.
static RUN_SIM_CYCLES: Histogram = Histogram::new("inject.run_sim_cycles");

/// Injected runs answered at the strike cycle by dead-cell pruning: the
/// golden run never reads the struck cells again, so they were credited
/// with the golden ending without being simulated at all.
pub static DEAD_PRUNED: Counter = Counter::new("campaign.dead_pruned");
/// The share of [`DEAD_PRUNED`] that needed the byte-granular argument: a
/// data bit of a line the golden run reads again, in a byte no CPU read
/// consumes again ([`DeadCell::Unconsumed`]).
pub static DEAD_PRUNED_BYTES: Counter = Counter::new("campaign.dead_pruned_bytes");
/// The share of [`DEAD_PRUNED`] that needed the fill ledger: a cell of an
/// invalid line or TLB entry other than its valid bit
/// ([`DeadCell::Invalid`]).
pub static DEAD_PRUNED_INVALID: Counter = Counter::new("campaign.dead_pruned_invalid");
/// Injected runs ended early by the reconvergence cut at an epoch: their
/// live state equalled the golden checkpoint's at the same cycle, so they
/// were credited with the golden ending instead of being simulated to
/// `exit()`.
pub static RECONVERGED: Counter = Counter::new("campaign.reconverged");
/// Golden cycles those runs left unsimulated (golden end − cut cycle).
pub static RECONVERGE_CYCLES_SAVED: Counter = Counter::new("campaign.reconverge_cycles_saved");

/// Snapshot of the process-wide per-run simulated-cycle histogram, for
/// telemetry push and cross-process merge.
pub fn run_cycles_snapshot() -> sea_trace::HistSnapshot {
    RUN_SIM_CYCLES.snapshot()
}

/// Index of a class within [`FaultClass::ALL`] / [`CLASS_LABELS`].
pub fn class_index(class: FaultClass) -> usize {
    FaultClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class in ALL")
}

/// The spatial fault model of a strike.
///
/// The paper (§II-B) notes that real strikes in recent technologies can
/// upset multiple adjacent cells, while injection campaigns typically use
/// the simplified single-bit model — one of the sources of uncertainty in
/// Fig 1. The multi-bit variants let campaigns quantify that gap (see the
/// `ablation_multibit` bench binary).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultModel {
    /// Classic single-bit transient (the paper's campaigns).
    SingleBit,
    /// Two adjacent bits upset by one strike.
    DoubleBitAdjacent,
    /// A burst of `n` adjacent bits (clamped to the component's end).
    Burst(u8),
}

impl FaultModel {
    /// Number of bits this model flips.
    pub fn width(self) -> u64 {
        match self {
            FaultModel::SingleBit => 1,
            FaultModel::DoubleBitAdjacent => 2,
            FaultModel::Burst(n) => n.max(1) as u64,
        }
    }
}

/// One planned injection: a transient fault at (`component`, `bit`),
/// struck at `cycle`. The number of upset bits starting at `bit` is set by
/// the campaign's [`FaultModel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InjectionSpec {
    /// Target component.
    pub component: Component,
    /// Flat bit index within the component.
    pub bit: u64,
    /// Injection time in cycles from reset.
    pub cycle: u64,
}

/// Outcome of one injection run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InjectionOutcome {
    /// The injected fault.
    pub spec: InjectionSpec,
    /// Which array the bit landed in (data/tag/state).
    pub array: ArrayKind,
    /// Whether the struck entry/line held valid state.
    pub was_valid: bool,
    /// Effect classification.
    pub class: FaultClass,
}

/// Per-component campaign results.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentResult {
    /// The component.
    pub component: Component,
    /// SRAM bits of the component (the statistical population).
    pub bits: u64,
    /// Class tallies.
    pub counts: ClassCounts,
    /// Tallies restricted to faults that landed in tag arrays (for the
    /// paper's TLB tag-vs-target analysis, §V-B).
    pub tag_counts: ClassCounts,
    /// Every raw outcome, in spec-index order (deterministic across thread
    /// interleavings).
    pub outcomes: Vec<InjectionOutcome>,
}

impl ComponentResult {
    /// Achieved error margin at 99% confidence after the paper's
    /// `p`-re-adjustment.
    pub fn error_margin(&self) -> f64 {
        crate::stats::adjusted_error_margin(
            self.bits,
            self.counts.total(),
            crate::stats::Z_99,
            self.counts.avf(),
        )
    }
}

/// What the supervisor observed while running a campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Runs with a classified outcome (including resumed ones).
    pub completed: u64,
    /// Runs skipped because a resumed journal already recorded them.
    pub resumed: u64,
    /// Anomalies recorded (panicking runs, deterministic or flaky).
    pub quarantined: u64,
    /// Anomalies that recovered on retry (flaky panics).
    pub flaky_recovered: u64,
    /// Worker threads respawned after dying mid-campaign.
    pub worker_respawns: u32,
    /// Runs abandoned entirely (kept killing workers outside the per-run
    /// panic boundary even after the respawn budget was spent).
    pub lost: u64,
}

/// Full campaign result for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignResult {
    /// Workload display name.
    pub workload: String,
    /// Golden (fault-free) run data.
    pub golden_cycles: u64,
    /// Per-component results, in [`Component::ALL`] order.
    pub per_component: Vec<ComponentResult>,
    /// Anomalies (panicking runs) captured by the supervisor, in
    /// spec-index order.
    pub anomalies: Vec<RunAnomaly>,
    /// Supervision counters.
    pub supervision: SupervisionStats,
    /// Checkpoint usage (None when checkpointing was disabled).
    pub checkpoints: Option<CheckpointStats>,
    /// Journal write-side audit (None when journaling was disabled).
    pub journal: Option<JournalAudit>,
}

impl CampaignResult {
    /// Result for one component.
    pub fn component(&self, c: Component) -> &ComponentResult {
        self.per_component
            .iter()
            .find(|r| r.component == c)
            .expect("component present")
    }

    /// Total injections across components.
    pub fn total_injections(&self) -> u64 {
        self.per_component.iter().map(|r| r.counts.total()).sum()
    }
}

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Machine model.
    pub machine: MachineConfig,
    /// Kernel/boot parameters.
    pub kernel: KernelConfig,
    /// Faults per component (the paper uses 1,000).
    pub samples_per_component: u32,
    /// Components to target (default: all six).
    pub components: Vec<Component>,
    /// RNG seed — campaigns are fully reproducible.
    pub seed: u64,
    /// Worker threads; 0 = available parallelism.
    pub threads: usize,
    /// Spatial fault model (default: single bit, as in the paper).
    pub fault_model: FaultModel,
    /// Cycle budget for the fault-free reference run.
    pub golden_budget_cycles: u64,
    /// Supervision policy: panic isolation, retry, quarantine, respawn.
    pub supervisor: SupervisorConfig,
    /// Outcome journal location and resume behavior (None = no journal).
    pub journal: Option<JournalSpec>,
    /// Initial epoch interval, in cycles, of the in-memory checkpoints the
    /// golden run captures (0 = off: every run boots from reset). The
    /// recorder only ever doubles the stride, at its cap of 32
    /// checkpoints; a golden run shorter than the interval keeps only the
    /// cycle-0 epoch.
    ///
    /// A runtime-only knob, like `threads`: it changes how fast a campaign
    /// runs, never what it computes, so it is excluded from the campaign
    /// configuration hash and a journal written either way is byte-identical.
    pub checkpoint_interval: u64,
    /// Arm the execution fast path (µop cache + translation latches) on
    /// every injected run's machine.
    ///
    /// Like `checkpoint_interval`, a runtime-only speed knob: the fast
    /// path is bit-for-bit transparent (identical counters, verdicts and
    /// journal bytes — held by the rows of `tests/fastpath_equivalence.rs`),
    /// so it is excluded from the campaign configuration hash.
    pub fast_path: bool,
    /// Serve live observability (`/status`, `/metrics`, `/events`, …) on
    /// this address while the campaign runs (e.g. `"127.0.0.1:9100"`).
    ///
    /// Observation is read-only by construction — providers snapshot the
    /// campaign's atomics — so this is a runtime-only knob excluded from
    /// the configuration hash, and the outcome journal stays
    /// byte-identical with it on or off (held by `tests/observe.rs`).
    pub serve: Option<String>,
    /// Stop injecting once every targeted component's *adjusted* 99%
    /// error margin (§IV-C) is at or below this fraction (e.g. `0.04`).
    ///
    /// Runs already completed keep their journal lines: at any thread
    /// count the early-stopped journal is an exact byte-prefix of the
    /// full-sample journal, and resuming it without the stop completes
    /// the campaign. Excluded from the configuration hash for exactly
    /// that resume path.
    pub stop_at_margin: Option<f64>,
    /// Two-tier prefix execution: serve each run's machine from a
    /// per-worker warp cursor (see [`crate::warp`]) instead of
    /// re-simulating the fault-free prefix from the nearest checkpoint
    /// (or reset) every time.
    ///
    /// Like `checkpoint_interval` and `fast_path`, a runtime-only speed
    /// knob: the cursor clone is bit-equivalent to a from-reset machine by
    /// the determinism contract, so verdicts and journal bytes are
    /// identical with it on or off (held by the rows of
    /// `tests/warp_equivalence.rs`) and it is excluded from the campaign
    /// configuration hash.
    pub warp: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            // The uniformly scaled configuration pairs with the scaled
            // benchmark inputs (DESIGN.md §1): it preserves the paper's
            // footprint-to-capacity ratios, which drive the kernel-cache-
            // residency effects behind the System-Crash analysis.
            machine: MachineConfig::cortex_a9_scaled(),
            kernel: KernelConfig::default(),
            samples_per_component: 150,
            components: Component::ALL.to_vec(),
            seed: 0xDEFA_0001,
            threads: 0,
            fault_model: FaultModel::SingleBit,
            golden_budget_cycles: 500_000_000,
            supervisor: SupervisorConfig::default(),
            journal: None,
            checkpoint_interval: 0,
            fast_path: false,
            serve: None,
            stop_at_margin: None,
            warp: false,
        }
    }
}

/// Error of a campaign or a beam session.
#[derive(Debug)]
pub enum CampaignError {
    /// The fault-free run failed; the workload/setup is broken.
    Golden(sea_platform::GoldenError),
    /// The outcome journal could not be opened or does not match this
    /// campaign or session.
    Journal(JournalError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Golden(e) => write!(f, "golden run failed: {e}"),
            CampaignError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// A machine ready to run toward `cycle`: the nearest checkpoint at or
/// before the injection cycle when a set is available, a from-reset boot
/// otherwise. Restore and reset are bit-equivalent by the determinism
/// contract (held by `tests/checkpoint_equivalence.rs`), so
/// which path is taken never changes an outcome.
pub(crate) fn machine_toward(
    workload: &BuiltWorkload,
    cfg: &CampaignConfig,
    ckpts: Option<&CheckpointSet>,
    cycle: u64,
) -> System<Board> {
    // The handoff: a clone of this worker's cursor, which inherits its
    // armed fast path — exactly what is armed below, already warm.
    let handoff = crate::warp::with_cursor_at(workload, cfg, ckpts, cycle, |cursor| {
        let mut sys = cursor.clone();
        if !cfg.fast_path {
            sys.fastpath_disable();
        }
        sys
    });
    if let Some(sys) = handoff {
        return sys;
    }
    let mut sys = match ckpts.and_then(|c| c.restore_at(cycle)) {
        Some(sys) => sys,
        None => {
            boot(cfg.machine, &workload.image, &cfg.kernel)
                .expect("boot succeeded for the golden run, must succeed here")
                .0
        }
    };
    if cfg.fast_path {
        // Armed cold on both the restore and the reset path (restored
        // machines never carry fast-path state — it is not snapshotted).
        sys.fastpath_enable(sea_microarch::FastPathConfig::default());
    }
    sys
}

/// Runs one injected execution: boots a fresh machine (or restores the
/// nearest checkpoint), advances it to `spec.cycle`, flips the bit, and
/// runs to a terminal state — or, with `ckpts`, only as far as one of the
/// two early exits needs: no machine at all when the golden run never
/// reads the struck cells again ([`dead_pruned`]), else to the first golden
/// checkpoint the run has provably rejoined. `ckpts: None` is the uncut,
/// from-reset reference every accelerated path is diffed against.
pub fn run_one(
    workload: &BuiltWorkload,
    cfg: &CampaignConfig,
    ckpts: Option<&CheckpointSet>,
    spec: InjectionSpec,
    limits: RunLimits,
) -> InjectionOutcome {
    if let Some(outcome) = dead_pruned(workload, cfg, ckpts, spec, limits) {
        return outcome;
    }
    let mut sys = machine_toward(workload, cfg, ckpts, spec.cycle);
    inject_and_run(&mut sys, workload, cfg, ckpts, spec, limits)
}

/// The cells one strike flips: `width` adjacent cells of the component
/// starting at `spec.bit`. A strike starting near the array's last cell
/// wraps onto the first cells (the flat bit index is a ring), so every
/// model always flips its full width.
fn struck_bits(cfg: &CampaignConfig, spec: InjectionSpec, bits: u64) -> impl Iterator<Item = u64> {
    (0..cfg.fault_model.width()).map(move |k| (spec.bit + k) % bits)
}

/// Dead-cell pruning, the first of the two early exits: when the sealed
/// golden run reads none of the struck cells in any step from the strike
/// on ([`sea_microarch::ReadHorizon`]), the struck machine can only finish
/// as the golden run does, and the verdict is known without a flip, a
/// suffix or a state comparison. `None` when the filter is unarmed (no
/// sealed horizon, or limits that expire before the golden exit) or any
/// struck cell is still live.
///
/// The journal line still records what the struck cell held (`array`,
/// `was_valid`): the horizon's fill ledger knows that too, so no machine is
/// acquired at all — unless provenance tracing wants the `dead@` record,
/// which carries the golden machine's cycle and mode at the strike
/// boundary.
pub(crate) fn dead_pruned(
    workload: &BuiltWorkload,
    cfg: &CampaignConfig,
    ckpts: Option<&CheckpointSet>,
    spec: InjectionSpec,
    limits: RunLimits,
) -> Option<InjectionOutcome> {
    let (_, golden) = ckpts?.golden_end(limits)?;
    let horizon = ckpts?.horizon()?;
    let bits = horizon.component_bits(spec.component);
    let mut why = DeadCell::Unread;
    for b in struck_bits(cfg, spec, bits) {
        why = why.max(horizon.dead_at(spec.component, b, spec.cycle)?);
    }
    DEAD_PRUNED.inc();
    match why {
        DeadCell::Unread => {}
        DeadCell::Invalid => DEAD_PRUNED_INVALID.inc(),
        DeadCell::Unconsumed => DEAD_PRUNED_BYTES.inc(),
    }
    let site = horizon.site_at(spec.component, spec.bit, spec.cycle);
    let class = classify(golden, &workload.golden);
    if sea_trace::enabled(Subsystem::Injection, Level::Info) {
        let strike = |sys: &System<Board>| FaultProbe::dead(site, sys.cycles(), sys.cpu.cpsr.mode);
        let probe = crate::warp::with_cursor_at(workload, cfg, ckpts, spec.cycle, strike)
            .unwrap_or_else(|| {
                let mut sys = machine_toward(workload, cfg, ckpts, spec.cycle);
                while sys.cycles() < spec.cycle {
                    sys.step();
                }
                strike(&sys)
            });
        probe.emit_record(&class.to_string(), probe.flip_cycle, RunEnd::Dead);
    }
    Some(InjectionOutcome {
        spec,
        array: site.array,
        was_valid: site.was_valid,
        class,
    })
}

/// The injection body shared by [`run_one`] and the supervised path
/// (`supervisor::run_one_caught`, which boots outside the panic boundary
/// so the machine survives an unwind for the post-mortem), for strikes
/// [`dead_pruned`] could not answer.
pub(crate) fn inject_and_run(
    sys: &mut System<Board>,
    workload: &BuiltWorkload,
    cfg: &CampaignConfig,
    ckpts: Option<&CheckpointSet>,
    spec: InjectionSpec,
    limits: RunLimits,
) -> InjectionOutcome {
    let fastpath_before = sys.fastpath_stats();
    // Phase 1: fault-free prefix (no terminal event can fire before the
    // golden run's end, and spec.cycle < golden cycles).
    while sys.cycles() < spec.cycle {
        sys.step();
    }
    let bits = sys.component_bits(spec.component);
    // Arm a provenance probe only when someone is listening — the probe adds
    // a per-step drain to the run.
    let provenance = sea_trace::enabled(Subsystem::Injection, Level::Info);
    let site = if provenance {
        sys.flip_bit_probed(spec.component, spec.bit)
    } else {
        sys.flip_bit(spec.component, spec.bit)
    };
    // Multi-bit models upset the adjacent cells of the same array.
    for b in struck_bits(cfg, spec, bits).skip(1) {
        sys.flip_bit(spec.component, b);
        event!(Subsystem::Injection, Level::Debug, "injection.multibit";
               cycle = spec.cycle;
               "component" => site.component.short_name(),
               "bit" => b,
               "wrapped" => b < spec.bit);
    }
    // Phase 2: run to a terminal state under the watchdog — or only until
    // the machine has provably rejoined the golden path at an epoch.
    let (outcome, saved) = run_until_reconverged(sys, limits, ckpts);
    if let Some(saved) = saved {
        RECONVERGED.inc();
        RECONVERGE_CYCLES_SAVED.add(saved);
    }
    let class = classify(&outcome, &workload.golden);
    crate::warp::bank_fastpath_delta(fastpath_before, sys.fastpath_stats());
    if let Some(probe) = sys.take_probe() {
        let end = if saved.is_some() {
            RunEnd::Reconverged
        } else {
            RunEnd::Terminal
        };
        probe.emit_record(&class.to_string(), sys.cycles(), end);
    }
    InjectionOutcome {
        spec,
        array: site.array,
        was_valid: site.was_valid,
        class,
    }
}

/// Serializes one completed run as a journal entry line. Public because
/// fleet shard workers must write byte-identical lines to what a
/// single-process campaign journals — this function *is* the byte contract
/// the deterministic merge relies on.
pub fn verdict_line(i: u64, v: &RunVerdict) -> String {
    record_line(i, v, <CampaignPlan as RunPlan>::write_outcome)
}

/// Generates the campaign's deterministic spec sequence (shared with the
/// `replay` binary, which must regenerate the exact sequence from the
/// seed).
pub fn generate_specs(cfg: &CampaignConfig, golden_cycles: u64) -> Vec<InjectionSpec> {
    let probe = System::new(cfg.machine, sea_microarch::NullDevice);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut specs: Vec<InjectionSpec> = Vec::new();
    for &component in &cfg.components {
        let bits = probe.component_bits(component);
        for _ in 0..cfg.samples_per_component {
            specs.push(InjectionSpec {
                component,
                bit: rng.gen_range(0..bits),
                cycle: rng.gen_range(0..golden_cycles),
            });
        }
    }
    // Order by injection cycle (stable, so equal cycles keep their seeded
    // draw order). The *set* of specs is untouched — the RNG draws above
    // are already made — but cycle order gives checkpointed campaigns
    // restore locality: a worker claiming a contiguous index block keeps
    // re-cloning the same hot checkpoint instead of hopping across epochs.
    specs.sort_by_key(|s| s.cycle);
    specs
}

/// The deterministic execution plan of a campaign: golden run (plus any
/// checkpoints), run limits, the seeded spec sequence, identity hashes,
/// and quarantine — everything needed to execute an arbitrary spec index
/// exactly as a single-process campaign would.
///
/// [`run_campaign`] builds one and [`drive`]s it; fleet shard workers
/// build the *same* plan independently in their own process (same
/// workload + config ⇒ same hashes, same golden run, same spec sequence)
/// and execute only the index blocks the daemon grants them, which is what
/// makes the merged shard journals byte-identical to a single-process run.
pub struct CampaignPlan<'a> {
    workload: &'a BuiltWorkload,
    cfg: CampaignConfig,
    golden: GoldenRun,
    ckpts: Option<CheckpointSet>,
    limits: RunLimits,
    specs: Vec<InjectionSpec>,
    id: RunIdentity,
    quarantine: Option<Quarantine>,
    stratum_of: Vec<usize>,
}

impl<'a> CampaignPlan<'a> {
    /// Builds the plan: golden reference run (capturing checkpoints when
    /// the interval is non-zero), run limits, and the deterministic spec
    /// sequence.
    ///
    /// # Errors
    ///
    /// Fails when the golden run does not complete cleanly or the
    /// quarantine file cannot be opened.
    pub fn new(
        name: &str,
        workload: &'a BuiltWorkload,
        cfg: &'a CampaignConfig,
    ) -> Result<Self, CampaignError> {
        let id = RunIdentity {
            workload: name.to_string(),
            seed: cfg.seed,
            config_hash: config_hash(cfg),
            golden_hash: golden_hash(workload),
        };
        CampaignPlan::with_identity(workload, cfg.clone(), id)
    }

    /// [`CampaignPlan::new`] under an identity of the caller's: the
    /// journal header and anomaly records carry `id`. A beam session
    /// replays its SRAM strikes on such a plan, built with no components,
    /// hence no specs of its own.
    ///
    /// # Errors
    ///
    /// As [`CampaignPlan::new`].
    pub fn with_identity(
        workload: &'a BuiltWorkload,
        cfg: CampaignConfig,
        id: RunIdentity,
    ) -> Result<Self, CampaignError> {
        let (golden, ckpts) = acquire_golden_and_checkpoints(workload, &cfg)?;
        let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period)
            .with_wall_ms(cfg.supervisor.run_wall_ms);
        let specs = generate_specs(&cfg, golden.cycles);
        let stratum_of = specs
            .iter()
            .map(|s| {
                cfg.components
                    .iter()
                    .position(|&c| c == s.component)
                    .unwrap_or(usize::MAX)
            })
            .collect();
        let quarantine = match &cfg.supervisor.quarantine {
            Some(path) => Some(
                Quarantine::open(path).map_err(|e| CampaignError::Journal(JournalError::Io(e)))?,
            ),
            None => None,
        };
        Ok(CampaignPlan {
            workload,
            cfg,
            golden,
            ckpts,
            limits,
            specs,
            id,
            quarantine,
            stratum_of,
        })
    }

    /// The configuration every run executes under; its runtime knobs
    /// (threads, journal, serve, stop) also steer [`drive`].
    pub(crate) fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// The fault-free reference run.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// Cycles of the fault-free reference run.
    pub fn golden_cycles(&self) -> u64 {
        self.golden.cycles
    }

    /// The deterministic, cycle-sorted spec sequence.
    pub fn specs(&self) -> &[InjectionSpec] {
        &self.specs
    }

    /// Total planned runs (`specs().len()`).
    pub fn total(&self) -> u64 {
        self.specs.len() as u64
    }

    /// Identity hashes stamped onto journals and anomaly records.
    pub fn identity(&self) -> &RunIdentity {
        &self.id
    }

    /// Checkpoints acquired for this plan (None with checkpointing off).
    pub fn checkpoints(&self) -> Option<&CheckpointSet> {
        self.ckpts.as_ref()
    }

    /// Convergence stratum of spec `i`: the index of its component within
    /// `cfg.components` (`usize::MAX` if somehow absent).
    pub fn stratum_of(&self, i: u64) -> usize {
        self.stratum_of[i as usize]
    }

    /// The journal identity header every process sharing this plan writes
    /// — shard journals carry the full-campaign `total`, so identity
    /// validation and the deterministic merge work across processes.
    pub fn header(&self) -> JournalHeader {
        JournalHeader {
            kind: "inject",
            workload: self.id.workload.clone(),
            seed: self.id.seed,
            config_hash: self.id.config_hash,
            golden_hash: self.id.golden_hash,
            ckpt: header_ckpt(self.id.config_hash, self.id.golden_hash),
            total: self.total(),
        }
    }

    /// Executes spec `i` under the full supervision policy (panic
    /// isolation, bounded retry, quarantine).
    pub fn run_index(&self, i: u64) -> RunVerdict {
        self.attempt(i, self.specs[i as usize])
    }

    /// Executes `spec` as index `i` under the full supervision policy:
    /// panic isolation plus bounded retry, quarantining any anomaly. What
    /// the successful attempt simulated lands in the per-run cycle
    /// histogram.
    pub fn attempt(&self, i: u64, spec: InjectionSpec) -> RunVerdict {
        let max_attempts = self.cfg.supervisor.max_attempts.max(1);
        let mut last_panic: Option<CaughtPanic> = None;
        let mut attempts = 0u32;
        let mut outcome = None;
        let mut sim_cycles = 0u64;
        while attempts < max_attempts {
            attempts += 1;
            let ckpts = self.ckpts.as_ref();
            match run_one_caught(self.workload, &self.cfg, ckpts, i, spec, self.limits) {
                Ok((out, sim)) => {
                    outcome = Some(out);
                    sim_cycles = sim;
                    break;
                }
                Err(p) => last_panic = Some(p),
            }
        }
        let anomaly = last_panic.map(|p| {
            let a = RunAnomaly {
                index: i,
                spec,
                workload: self.id.workload.clone(),
                seed: self.id.seed,
                config_hash: self.id.config_hash,
                golden_hash: self.id.golden_hash,
                attempts,
                deterministic: outcome.is_none(),
                panic_msg: p.message,
                postmortem: p.postmortem,
            };
            if let Some(q) = &self.quarantine {
                q.record(&a);
            }
            a
        });
        RUN_SIM_CYCLES.record(sim_cycles);
        RunVerdict {
            outcome,
            anomaly,
            sim_cycles,
        }
    }

    /// Planned cost of a strike at `cycle`: the golden suffix past the
    /// nearest checkpoint at or before it (the whole run, from reset,
    /// without checkpoints).
    pub(crate) fn strike_work(&self, cycle: u64) -> u64 {
        self.golden
            .cycles
            .saturating_sub(crate::warp::baseline(self.checkpoints(), cycle))
    }
}

impl RunPlan for CampaignPlan<'_> {
    type Outcome = InjectionOutcome;
    /// The prefix tier `/status` reports.
    type Gauges = &'static str;

    fn campaign(&self) -> &CampaignPlan<'_> {
        self
    }

    fn header(&self) -> JournalHeader {
        CampaignPlan::header(self)
    }

    fn run_index(&self, i: u64) -> RunVerdict {
        CampaignPlan::run_index(self, i)
    }

    fn spec(&self, i: u64) -> Option<InjectionSpec> {
        self.specs.get(i as usize).copied()
    }

    /// One stratum per targeted component (§IV-C live margins).
    fn strata(&self) -> Vec<(String, u64)> {
        let probe = System::new(self.cfg.machine, sea_microarch::NullDevice);
        self.cfg
            .components
            .iter()
            .map(|&c| (c.short_name().to_string(), probe.component_bits(c)))
            .collect()
    }

    fn stratum_of(&self, i: u64) -> usize {
        CampaignPlan::stratum_of(self, i)
    }

    fn class(o: &InjectionOutcome) -> FaultClass {
        o.class
    }

    fn write_outcome(o: &InjectionOutcome, w: &mut ObjWriter) {
        w.str_field("class", &o.class.to_string())
            .str_field("array", o.array.name())
            .bool_field("valid", o.was_valid);
    }

    fn read_outcome(&self, i: u64, j: &Json) -> Option<InjectionOutcome> {
        Some(InjectionOutcome {
            spec: self.spec(i)?,
            array: ArrayKind::from_name(j.get("array")?.as_str()?)?,
            was_valid: j.get("valid")?.as_bool()?,
            class: FaultClass::from_name(j.get("class")?.as_str()?)?,
        })
    }

    fn gauges(&self) -> &'static str {
        if self.cfg.warp {
            "warp"
        } else {
            "detailed"
        }
    }

    /// Checkpoint restores, the per-run cycle histogram, and what the warp
    /// cursor and the fast path served.
    fn prom(_: &&'static str, _: &Live, w: &mut sea_profile::PromWriter) {
        let (saves, restores, prefix_saved) = sea_platform::snapshot_metrics();
        w.counter("sea_checkpoint_saves_total", "Checkpoints captured.", saves);
        w.counter(
            "sea_checkpoint_restores_total",
            "Injection runs started from a restored checkpoint.",
            restores,
        );
        w.counter(
            "sea_checkpoint_prefix_cycles_saved_total",
            "Fault-free prefix cycles skipped by checkpoint restores.",
            prefix_saved,
        );
        w.histogram(
            "sea_campaign_run_sim_cycles",
            "Cycles simulated per injection run (post-restore suffix).",
            &RUN_SIM_CYCLES.snapshot(),
        );
        w.counter(
            "sea_warp_handoffs_total",
            "Runs served from a warp-cursor clone.",
            crate::warp::WARP_HANDOFFS.get(),
        );
        w.counter(
            "sea_warp_cursor_resets_total",
            "Warp cursors discarded and re-seeded.",
            crate::warp::WARP_CURSOR_RESETS.get(),
        );
        w.counter(
            "sea_warp_prefix_cycles_saved_total",
            "Fault-free prefix cycles skipped by warp-cursor handoffs.",
            crate::warp::WARP_PREFIX_CYCLES_SAVED.get(),
        );
        w.counter(
            "sea_warp_advance_cycles_total",
            "Detailed cycles stepped on warp cursors toward strike cycles.",
            crate::warp::WARP_ADVANCE_CYCLES.get(),
        );
        w.counter(
            "sea_fastpath_uop_hits_total",
            "Fetched words decoded from the µop cache during injected runs.",
            crate::warp::FASTPATH_UOP_HITS.get(),
        );
        w.counter(
            "sea_fastpath_uop_misses_total",
            "Fetched words fully decoded during injected runs.",
            crate::warp::FASTPATH_UOP_MISSES.get(),
        );
        w.counter(
            "sea_fastpath_latch_hits_total",
            "Translations served by page latches during injected runs.",
            crate::warp::FASTPATH_LATCH_HITS.get(),
        );
        w.counter(
            "sea_fastpath_line_hits_total",
            "L1 accesses served by line latches during injected runs.",
            crate::warp::FASTPATH_LINE_HITS.get(),
        );
    }

    fn status_extras(tier: &&'static str, _: &Live) -> Vec<(&'static str, String)> {
        vec![("tier", format!("\"{tier}\""))]
    }
}

/// Runs a full statistical campaign for one workload.
///
/// ```no_run
/// use sea_injection::{run_campaign, CampaignConfig};
/// use sea_workloads::{Scale, Workload};
///
/// # fn main() -> Result<(), sea_injection::CampaignError> {
/// let built = Workload::Qsort.build(Scale::Default);
/// let result = run_campaign("Qsort", &built, &CampaignConfig::default())?;
/// for c in &result.per_component {
///     println!("{}: AVF {:.1}% ±{:.1}%",
///         c.component, 100.0 * c.counts.avf(), 100.0 * c.error_margin());
/// }
/// # Ok(())
/// # }
/// ```
///
/// Runs execute under the campaign supervisor: a simulator panic is
/// captured per-run (with bounded retry and quarantine) instead of
/// aborting the campaign, and with [`CampaignConfig::journal`] set,
/// completed runs are journaled so an interrupted campaign can resume.
///
/// # Errors
///
/// Fails if the fault-free run does not complete cleanly, or if a resumed
/// journal does not match this campaign.
pub fn run_campaign(
    name: &str,
    workload: &BuiltWorkload,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, CampaignError> {
    let plan = CampaignPlan::new(name, workload, cfg)?;
    let run = drive(&plan).map_err(CampaignError::Journal)?;

    let probe = System::new(cfg.machine, sea_microarch::NullDevice);
    let per_component = cfg
        .components
        .iter()
        .map(|&component| {
            let mut counts = ClassCounts::default();
            let mut tag_counts = ClassCounts::default();
            let outcomes: Vec<InjectionOutcome> = run
                .outcomes
                .iter()
                .flatten()
                .filter(|o| o.spec.component == component)
                .copied()
                .collect();
            for o in &outcomes {
                counts.add(o.class);
                if o.array == ArrayKind::Tag {
                    tag_counts.add(o.class);
                }
            }
            ComponentResult {
                component,
                bits: probe.component_bits(component),
                counts,
                tag_counts,
                outcomes,
            }
        })
        .collect();

    // One summary event per campaign (not per run — the counters are
    // process-wide monotone): which execution tier served the prefix, and
    // what the cursor bought. The trace-summary tool renders these as its
    // tier-residency section.
    event!(Subsystem::Injection, Level::Info, "injection.tier";
           "workload" => name.to_string(),
           "tier" => RunPlan::gauges(&plan),
           "warp_handoffs" => crate::warp::WARP_HANDOFFS.get(),
           "warp_cursor_resets" => crate::warp::WARP_CURSOR_RESETS.get(),
           "warp_prefix_cycles_saved" => crate::warp::WARP_PREFIX_CYCLES_SAVED.get(),
           "warp_advance_cycles" => crate::warp::WARP_ADVANCE_CYCLES.get(),
           "fastpath_uop_hits" => crate::warp::FASTPATH_UOP_HITS.get(),
           "fastpath_uop_misses" => crate::warp::FASTPATH_UOP_MISSES.get(),
           "dead_pruned" => DEAD_PRUNED.get(),
           "dead_pruned_bytes" => DEAD_PRUNED_BYTES.get(),
           "dead_pruned_invalid" => DEAD_PRUNED_INVALID.get(),
           "reconverged" => RECONVERGED.get(),
           "reconverge_cycles_saved" => RECONVERGE_CYCLES_SAVED.get());

    Ok(CampaignResult {
        workload: name.to_string(),
        golden_cycles: plan.golden_cycles(),
        per_component,
        anomalies: run.anomalies,
        supervision: run.supervision,
        checkpoints: run.checkpoints,
        journal: run.journal,
    })
}

/// The journal header's `ckpt` field: `fnv1a(2u32 ‖ config_hash ‖
/// golden_hash)`, little-endian. It once named the on-disk checkpoint
/// format (version 2) a campaign's checkpoints were valid for; that format
/// is gone, but every journal written since carries this value, so it
/// stays exactly as it was — resumes and fleet merges compare headers byte
/// for byte.
fn header_ckpt(config_hash: u64, golden_hash: u64) -> u64 {
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&config_hash.to_le_bytes());
    bytes.extend_from_slice(&golden_hash.to_le_bytes());
    fnv1a(&bytes)
}

/// Runs the golden reference: with `cfg.checkpoint_interval` 0 this is
/// exactly [`golden_run`]; otherwise epoch checkpoints and the read
/// horizon are captured in memory during the run.
///
/// Public because `sea-beam` sessions share the same golden-run +
/// checkpoint acquisition.
pub fn acquire_golden_and_checkpoints(
    workload: &BuiltWorkload,
    cfg: &CampaignConfig,
) -> Result<(GoldenRun, Option<CheckpointSet>), CampaignError> {
    let (machine, image, kernel) = (cfg.machine, &workload.image, &cfg.kernel);
    let budget = cfg.golden_budget_cycles;
    if cfg.checkpoint_interval == 0 {
        let golden = golden_run(machine, image, kernel, budget).map_err(CampaignError::Golden)?;
        return Ok((golden, None));
    }
    let (golden, set) =
        golden_run_with_checkpoints(machine, image, kernel, budget, cfg.checkpoint_interval)
            .map_err(CampaignError::Golden)?;
    Ok((golden, Some(set)))
}
