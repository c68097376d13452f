//! The run harness: boots the machine, watches the board, and classifies
//! each run the way the paper's beam harness does (§IV-B).

use std::fmt;

use sea_isa::Image;
use sea_kernel::{install, BootInfo, InstallError, KernelConfig};
use sea_microarch::{MachineConfig, ReadHorizon, StepOutcome, System};
use sea_trace::{event, Counter, Level, Subsystem};

use crate::board::Board;
use crate::checkpoint::{CheckpointSet, EpochRecorder};

/// Runs killed by the wall-clock watchdog (process-wide, monotone) — one
/// of the supervisor health counters surfaced on `/metrics` and `/status`.
static WALL_TIMEOUTS: Counter = Counter::new("platform.wall_timeouts");

/// How many runs the wall-clock watchdog has killed in this process.
pub fn watchdog_kills() -> u64 {
    WALL_TIMEOUTS.get()
}

/// Why a run counted as an Application Crash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppCrashKind {
    /// The kernel delivered a fatal signal (ESR code attached).
    Signal(u32),
    /// The application stopped making progress while the kernel kept
    /// ticking — the beam harness's "board reachable, app restarted" case.
    Hang,
}

/// Why a run counted as a System Crash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SysCrashKind {
    /// The kernel panicked (ESR code attached).
    Panic(u32),
    /// Kernel tick heartbeats stopped — the "no connection to the board"
    /// case.
    KernelHang,
    /// The core could not reach its exception vectors.
    LockedUp,
    /// The machine executed HALT outside the expected power-off path.
    UnexpectedHalt,
}

/// Terminal state of one run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The application exited; payload is the exit code and output.
    Exited {
        /// Exit code passed to `exit()`.
        code: u32,
        /// Collected output bytes.
        output: Vec<u8>,
        /// Whether output exceeded the cap.
        overflow: bool,
    },
    /// Application crash.
    AppCrash(AppCrashKind),
    /// System crash.
    SysCrash(SysCrashKind),
}

/// The paper's four fault-effect classes (§IV-C).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FaultClass {
    /// No observable effect.
    Masked,
    /// Silent data corruption: wrong output with a normal exit.
    Sdc,
    /// Application crash.
    AppCrash,
    /// System crash.
    SysCrash,
}

impl FaultClass {
    /// All classes in reporting order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::Masked,
        FaultClass::Sdc,
        FaultClass::AppCrash,
        FaultClass::SysCrash,
    ];

    /// Parse a class from its display name (used when decoding campaign
    /// journals).
    pub fn from_name(s: &str) -> Option<FaultClass> {
        match s {
            "Masked" => Some(FaultClass::Masked),
            "SDC" => Some(FaultClass::Sdc),
            "AppCrash" => Some(FaultClass::AppCrash),
            "SysCrash" => Some(FaultClass::SysCrash),
            _ => None,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultClass::Masked => "Masked",
            FaultClass::Sdc => "SDC",
            FaultClass::AppCrash => "AppCrash",
            FaultClass::SysCrash => "SysCrash",
        })
    }
}

/// Per-class tallies of classified runs.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ClassCounts {
    /// No observable effect.
    pub masked: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Application crashes.
    pub app_crash: u64,
    /// System crashes.
    pub sys_crash: u64,
}

impl ClassCounts {
    /// Adds one observation.
    pub fn add(&mut self, class: FaultClass) {
        match class {
            FaultClass::Masked => self.masked += 1,
            FaultClass::Sdc => self.sdc += 1,
            FaultClass::AppCrash => self.app_crash += 1,
            FaultClass::SysCrash => self.sys_crash += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.app_crash + self.sys_crash
    }

    /// Architectural vulnerability factor: fraction of non-masked runs.
    pub fn avf(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.total() - self.masked) as f64 / self.total() as f64
    }

    /// Count in one class.
    pub fn count(&self, class: FaultClass) -> u64 {
        match class {
            FaultClass::Masked => self.masked,
            FaultClass::Sdc => self.sdc,
            FaultClass::AppCrash => self.app_crash,
            FaultClass::SysCrash => self.sys_crash,
        }
    }

    /// Fraction of runs in one class.
    pub fn rate(&self, class: FaultClass) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.count(class) as f64 / self.total() as f64
    }
}

/// Classifies a finished run against the golden output.
///
/// Output-overflow handling: an exit with overflowed output whose captured
/// bytes never deviated from the golden stream (one is a prefix of the
/// other) shows *runaway output*, not data corruption — the fault broke the
/// application's control flow, so it counts as an application crash, the
/// same bucket the beam harness uses when it must restart a flooding app.
/// Any byte deviation in the captured output is evidence of corruption and
/// stays SDC.
pub fn classify(outcome: &RunOutcome, golden: &[u8]) -> FaultClass {
    match outcome {
        RunOutcome::Exited {
            code,
            output,
            overflow,
        } => {
            if *code == 0 && !*overflow && output == golden {
                FaultClass::Masked
            } else if *code == 0
                && *overflow
                && (output.starts_with(golden) || golden.starts_with(output))
            {
                FaultClass::AppCrash
            } else {
                FaultClass::Sdc
            }
        }
        RunOutcome::AppCrash(_) => FaultClass::AppCrash,
        RunOutcome::SysCrash(_) => FaultClass::SysCrash,
    }
}

/// Watchdog and budget limits for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunLimits {
    /// Hard cycle budget; exceeding it is a hang.
    pub max_cycles: u64,
    /// If the kernel's tick heartbeat is older than this when the budget
    /// expires (or terminal states never arrive), the kernel is dead.
    pub tick_window: u64,
    /// Wall-clock budget in milliseconds, 0 = disabled. Complements the
    /// cycle budget: a run that burns host time without advancing
    /// simulated cycles fast enough cannot stall a campaign worker
    /// forever. Expiry classifies through the same tick-heartbeat split
    /// as cycle-budget exhaustion.
    pub wall_ms: u64,
}

impl RunLimits {
    /// Limits derived from a golden run: budget = `factor`× golden cycles
    /// (+ slack), tick window = 10 tick periods. Saturates instead of
    /// overflowing for budgets near `u64::MAX`.
    pub fn from_golden(golden_cycles: u64, tick_period: u32) -> RunLimits {
        RunLimits {
            max_cycles: golden_cycles.saturating_mul(3).saturating_add(100_000),
            tick_window: 10 * tick_period as u64,
            wall_ms: 0,
        }
    }

    /// The same limits with a wall-clock budget attached.
    pub fn with_wall_ms(mut self, wall_ms: u64) -> RunLimits {
        self.wall_ms = wall_ms;
        self
    }
}

/// Steps the machine until a terminal condition and returns the outcome.
///
/// Terminal conditions, in priority order: kernel panic, fatal signal,
/// application exit, vector lock-up, unexpected halt, cycle budget
/// exhaustion (split into app-hang vs kernel-hang by the tick heartbeat).
pub fn run(sys: &mut System<Board>, limits: RunLimits) -> RunOutcome {
    run_observed(sys, limits, None, None).0
}

/// [`run`] with the reconvergence cut: whenever the machine stands exactly
/// on a capture cycle of `golden` and its live state equals the golden
/// machine captured there ([`CheckpointSet::converged_at`]), the run ends
/// at once with the golden run's own terminal outcome — by determinism the
/// rest of the run would have been the rest of the golden run, bit for
/// bit. The second value is `Some(golden cycles left unsimulated)` when
/// the cut was taken; the machine then stands at the cut cycle, not at
/// `exit()`.
///
/// With `golden` absent, unsealed, or ending past `limits.max_cycles`,
/// this is exactly [`run`], which stays the uncut reference.
pub fn run_until_reconverged(
    sys: &mut System<Board>,
    limits: RunLimits,
    golden: Option<&CheckpointSet>,
) -> (RunOutcome, Option<u64>) {
    run_observed(sys, limits, None, golden)
}

/// The run loop plus its closing trace record. At most one of the two
/// riders is present: the golden run records `epochs`, injected runs
/// compare against `golden`.
fn run_observed(
    sys: &mut System<Board>,
    limits: RunLimits,
    epochs: Option<&mut EpochRecorder>,
    golden: Option<&CheckpointSet>,
) -> (RunOutcome, Option<u64>) {
    let (outcome, cut) = run_inner(sys, limits, epochs, golden);
    event!(Subsystem::Platform, Level::Info, "platform.run_end";
           cycle = sys.cycles();
           "outcome" => if cut.is_some() { "reconverged" } else { outcome_name(&outcome) },
           "ticks" => sys.dev.tick_count(),
           "output_bytes" => sys.dev.output().len());
    (outcome, cut)
}

/// Short stable name of a terminal state (used in trace records).
fn outcome_name(outcome: &RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Exited { .. } => "exited",
        RunOutcome::AppCrash(AppCrashKind::Signal(_)) => "signal",
        RunOutcome::AppCrash(AppCrashKind::Hang) => "hang",
        RunOutcome::SysCrash(SysCrashKind::Panic(_)) => "panic",
        RunOutcome::SysCrash(SysCrashKind::KernelHang) => "kernel_hang",
        RunOutcome::SysCrash(SysCrashKind::LockedUp) => "locked_up",
        RunOutcome::SysCrash(SysCrashKind::UnexpectedHalt) => "unexpected_halt",
    }
}

/// Budget-expiry classification: the kernel tick heartbeat decides
/// app-hang vs kernel-hang, exactly like the beam harness's "board
/// reachable?" check.
fn hang_outcome(sys: &System<Board>, limits: RunLimits, now: u64) -> RunOutcome {
    let kernel_alive =
        sys.dev.tick_count() > 0 && now.saturating_sub(sys.dev.last_tick()) <= limits.tick_window;
    if kernel_alive {
        RunOutcome::AppCrash(AppCrashKind::Hang)
    } else {
        RunOutcome::SysCrash(SysCrashKind::KernelHang)
    }
}

fn run_inner(
    sys: &mut System<Board>,
    limits: RunLimits,
    mut epochs: Option<&mut EpochRecorder>,
    golden: Option<&CheckpointSet>,
) -> (RunOutcome, Option<u64>) {
    let deadline = (limits.wall_ms > 0)
        .then(|| std::time::Instant::now() + std::time::Duration::from_millis(limits.wall_ms));
    // The cut is armed only when the golden ending is known and reachable
    // under `limits`; `next` is then the first capture cycle not yet
    // behind the machine, so an unarmed or exhausted cut costs the loop
    // one never-taken compare per step.
    let cut = golden.and_then(|set| Some((set, set.golden_end(limits)?)));
    let captures = cut.map_or(&[][..], |(set, _)| set.epoch_cycles());
    let mut at = captures.partition_point(|&c| c < sys.cycles());
    let mut next = captures.get(at).copied().unwrap_or(u64::MAX);
    // The recorder's next epoch boundary, mirrored here so the per-step
    // test stays inline and the recorder is called only when it captures.
    let mut next_epoch = epochs.as_deref().map_or(u64::MAX, EpochRecorder::next);
    let mut steps = 0u32;
    let outcome = loop {
        // Top of the loop is a clean boundary: the initial machine, or one
        // whose last step passed every terminal check below — the same
        // boundaries the golden run captured its checkpoints on.
        if sys.cycles() >= next {
            let now = sys.cycles();
            if now == next {
                if let Some((set, (end, golden_outcome))) = cut {
                    if set.converged_at(sys) {
                        return (golden_outcome.clone(), Some(end.saturating_sub(now)));
                    }
                }
            }
            at += captures[at..].partition_point(|&c| c <= now);
            next = captures.get(at).copied().unwrap_or(u64::MAX);
        }
        let step = sys.step();
        let now = sys.cycles();
        if let Some(code) = sys.dev.panic_code() {
            break RunOutcome::SysCrash(SysCrashKind::Panic(code));
        }
        if let Some(code) = sys.dev.signal_code() {
            break RunOutcome::AppCrash(AppCrashKind::Signal(code));
        }
        if let Some(code) = sys.dev.exit_code() {
            break RunOutcome::Exited {
                code,
                output: sys.dev.output().to_vec(),
                overflow: sys.dev.output_overflowed(),
            };
        }
        match step {
            StepOutcome::LockedUp => break RunOutcome::SysCrash(SysCrashKind::LockedUp),
            StepOutcome::Halted => break RunOutcome::SysCrash(SysCrashKind::UnexpectedHalt),
            StepOutcome::Executed => {}
        }
        if now > limits.max_cycles {
            break hang_outcome(sys, limits, now);
        }
        // Epoch checkpoints are only captured on clean, non-terminal cycle
        // boundaries — a checkpoint of a machine that is about to be
        // declared dead would be useless to restore.
        if now >= next_epoch {
            if let Some(rec) = epochs.as_deref_mut() {
                rec.capture(sys);
                next_epoch = rec.next();
            }
        }
        // The wall-clock watchdog only needs coarse resolution; polling
        // the host clock every step would dominate the simulator loop.
        steps = steps.wrapping_add(1);
        if steps & 0x1fff == 0 {
            if let Some(d) = deadline {
                if std::time::Instant::now() >= d {
                    WALL_TIMEOUTS.inc();
                    event!(Subsystem::Platform, Level::Warn, "platform.wall_timeout";
                           cycle = now;
                           "wall_ms" => limits.wall_ms);
                    break hang_outcome(sys, limits, now);
                }
            }
        }
    };
    (outcome, None)
}

/// Builds a machine, installs the kernel and `user`, and returns it ready
/// to run (CPU at the reset vector).
///
/// # Errors
///
/// Propagates [`InstallError`] from the loader.
pub fn boot(
    machine: MachineConfig,
    user: &Image,
    kernel: &KernelConfig,
) -> Result<(System<Board>, BootInfo), InstallError> {
    let mut sys = System::new(machine, Board::new());
    let info = install(&mut sys, user, kernel)?;
    Ok((sys, info))
}

/// Result of a fault-free reference execution.
#[derive(Clone, Debug)]
pub struct GoldenRun {
    /// The reference output.
    pub output: Vec<u8>,
    /// Exit code (must be 0 for a usable golden run).
    pub exit_code: u32,
    /// Total cycles to completion.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Full performance-counter snapshot.
    pub counters: sea_microarch::Counters,
    /// Boot information (heap placement etc.).
    pub boot: BootInfo,
    /// Share of cache SRAM holding kernel-region lines when the run ended
    /// ([`kernel_residency`]).
    pub kernel_resident_frac: f64,
}

impl GoldenRun {
    /// The reference data of `sys`, which has just exited cleanly with
    /// `output`.
    pub(crate) fn of(sys: &System<Board>, output: Vec<u8>, boot: BootInfo) -> GoldenRun {
        GoldenRun {
            output,
            exit_code: 0,
            cycles: sys.cycles(),
            instructions: sys.cpu.counters.instructions,
            counters: sys.cpu.counters,
            boot,
            kernel_resident_frac: kernel_residency(sys),
        }
    }
}

/// The share of cache SRAM (L1I, L1D and L2, weighted by bits) held by
/// valid lines whose physical address lies below the user page pool:
/// kernel text, data, stack and page tables. Read at the end of a
/// fault-free run, it drives the beam's idle-window model (§VI).
pub fn kernel_residency(sys: &System<Board>) -> f64 {
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
    kernel_bits / total_bits
}

/// Errors from a golden (fault-free) run.
#[derive(Clone, Debug)]
pub enum GoldenError {
    /// Install failed.
    Install(InstallError),
    /// The fault-free run did not exit cleanly — the workload is broken.
    NotClean(RunOutcome),
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Install(e) => write!(f, "install failed: {e}"),
            GoldenError::NotClean(o) => write!(f, "golden run did not exit cleanly: {o:?}"),
        }
    }
}

impl std::error::Error for GoldenError {}

/// Runs `user` fault-free to completion and captures the reference data
/// every campaign compares against.
///
/// ```no_run
/// use sea_platform::golden_run;
/// use sea_kernel::KernelConfig;
/// use sea_microarch::MachineConfig;
/// # fn image() -> sea_isa::Image { unimplemented!() }
///
/// # fn main() -> Result<(), sea_platform::GoldenError> {
/// let g = golden_run(MachineConfig::cortex_a9(), &image(), &KernelConfig::default(), 50_000_000)?;
/// println!("{} cycles, {} output bytes", g.cycles, g.output.len());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Fails if the program cannot be installed or does not exit cleanly
/// within `budget_cycles`.
pub fn golden_run(
    machine: MachineConfig,
    user: &Image,
    kernel: &KernelConfig,
    budget_cycles: u64,
) -> Result<GoldenRun, GoldenError> {
    Ok(golden_run_observed(machine, user, kernel, budget_cycles, None)?.0)
}

/// [`golden_run`] that additionally captures epoch checkpoints while the
/// reference execution runs, for prefix-sharing injection campaigns, and
/// seals the set with the run's ending and its read horizon
/// ([`ReadHorizon`]: for every injectable cell, the last step that read
/// it).
///
/// `interval` is the initial epoch stride in cycles. The stride adapts to
/// the run's actual length, so the set stays small whatever the workload.
/// The returned [`GoldenRun`] is computed by the *same* code path as
/// [`golden_run`], and the horizon recorder is a pure observer on the
/// reference tier — checkpointing cannot change the reference.
///
/// # Errors
///
/// Same failure modes as [`golden_run`].
///
/// # Panics
///
/// Panics if `interval` is 0.
pub fn golden_run_with_checkpoints(
    machine: MachineConfig,
    user: &Image,
    kernel: &KernelConfig,
    budget_cycles: u64,
    interval: u64,
) -> Result<(GoldenRun, CheckpointSet), GoldenError> {
    let mut rec = EpochRecorder::new(interval);
    let (golden, horizon) =
        golden_run_observed(machine, user, kernel, budget_cycles, Some(&mut rec))?;
    let set = rec.into_set(&golden, horizon);
    Ok((golden, set))
}

fn golden_run_observed(
    machine: MachineConfig,
    user: &Image,
    kernel: &KernelConfig,
    budget_cycles: u64,
    mut epochs: Option<&mut EpochRecorder>,
) -> Result<(GoldenRun, Option<ReadHorizon>), GoldenError> {
    let (mut sys, boot) = boot(machine, user, kernel).map_err(GoldenError::Install)?;
    if let Some(rec) = epochs.as_deref_mut() {
        // The post-install, pre-run machine: the floor checkpoint every
        // injection cycle can fall back to.
        rec.epoch_zero(&sys);
        sys.horizon_attach();
    }
    let limits = RunLimits {
        max_cycles: budget_cycles,
        tick_window: u64::MAX,
        wall_ms: 0,
    };
    let span = sea_trace::span(Subsystem::Platform, Level::Info, "platform.golden");
    let outcome = run_observed(&mut sys, limits, epochs, None).0;
    let horizon = sys.horizon_take();
    match outcome {
        RunOutcome::Exited {
            code: 0,
            output,
            overflow: false,
        } => {
            if let Some(mut s) = span {
                s.field("cycles", sys.cycles());
                s.field("instructions", sys.cpu.counters.instructions);
                s.field("output_bytes", output.len());
            }
            Ok((GoldenRun::of(&sys, output, boot), horizon))
        }
        other => Err(GoldenError::NotClean(other)),
    }
}

/// Renders a post-mortem report of a stopped machine: core state, fault
/// registers, board observations, and (when tracing is enabled) the final
/// PCs — the view an engineer gets from a debugger after a beam crash.
pub fn postmortem(sys: &System<Board>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let cpu = &sys.cpu;
    let _ = writeln!(out, "== postmortem ==");
    let _ = writeln!(
        out,
        "pc={:#010x} mode={:?} elr={:#010x} esr={:#010x} far={:#010x}",
        cpu.pc, cpu.cpsr.mode, cpu.elr, cpu.esr, cpu.far
    );
    let _ = writeln!(
        out,
        "cycles={} instructions={} ticks={} alive={} last_tick@{}",
        cpu.counters.cycles,
        cpu.counters.instructions,
        sys.dev.tick_count(),
        sys.dev.alive_count(),
        sys.dev.last_tick()
    );
    let _ = writeln!(
        out,
        "exit={:?} signal={:?} panic={:?} output_bytes={}",
        sys.dev.exit_code(),
        sys.dev.signal_code(),
        sys.dev.panic_code(),
        sys.dev.output().len()
    );
    let trace = cpu.trace();
    if !trace.is_empty() {
        let _ = write!(out, "trace:");
        for pc in trace {
            let _ = write!(out, " {pc:#x}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_golden_saturates_instead_of_overflowing() {
        // Small budgets behave exactly as before.
        let l = RunLimits::from_golden(1_000_000, 20_000);
        assert_eq!(l.max_cycles, 3_100_000);
        assert_eq!(l.tick_window, 200_000);
        assert_eq!(l.wall_ms, 0);
        // The boundary: golden_cycles * 3 would overflow u64.
        let boundary = u64::MAX / 3;
        assert_eq!(RunLimits::from_golden(boundary + 1, 1).max_cycles, u64::MAX);
        // Exactly at the multiplication limit, the +100_000 slack saturates.
        assert_eq!(RunLimits::from_golden(boundary, 1).max_cycles, u64::MAX);
        assert_eq!(RunLimits::from_golden(u64::MAX, 1).max_cycles, u64::MAX);
    }

    #[test]
    fn with_wall_ms_sets_only_the_wall_budget() {
        let l = RunLimits::from_golden(500, 10).with_wall_ms(2_000);
        assert_eq!(l.wall_ms, 2_000);
        assert_eq!(l.max_cycles, 101_500);
    }

    #[test]
    fn fault_class_names_round_trip() {
        for c in FaultClass::ALL {
            assert_eq!(FaultClass::from_name(&c.to_string()), Some(c));
        }
        assert_eq!(FaultClass::from_name("Sdc"), None);
    }
}
