//! The end-to-end study: both methodologies over the benchmark suite.

use sea_analysis::{beam_fit, fi_fit, Comparison, Overview};
use sea_beam::{measure_fit_raw, run_session, BeamConfig, BeamResult, RawFitResult};
use sea_injection::{run_campaign, CampaignConfig, CampaignResult};
use sea_kernel::KernelConfig;
use sea_microarch::MachineConfig;
use sea_workloads::{Scale, Workload};

/// Everything measured for one workload.
#[derive(Clone, Debug)]
pub struct WorkloadStudy {
    /// The workload.
    pub workload: Workload,
    /// Fault-injection campaign results (per-component AVFs).
    pub campaign: CampaignResult,
    /// Beam session results.
    pub beam: BeamResult,
    /// FIT comparison derived from both.
    pub comparison: Comparison,
}

/// Results across the whole suite.
#[derive(Clone, Debug)]
pub struct StudyResult {
    /// Per-workload results, in the paper's order.
    pub workloads: Vec<WorkloadStudy>,
    /// The Fig 10 aggregate.
    pub overview: Overview,
    /// Per-bit raw FIT used for the AVF→FIT conversion.
    pub fit_raw: f64,
}

impl StudyResult {
    /// All comparisons, borrowed.
    pub fn comparisons(&self) -> Vec<Comparison> {
        self.workloads
            .iter()
            .map(|w| w.comparison.clone())
            .collect()
    }
}

/// Study error.
#[derive(Debug)]
pub enum StudyError {
    /// An injection campaign failed.
    Campaign(sea_injection::CampaignError),
    /// A beam session failed.
    Beam(sea_beam::BeamError),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::Campaign(e) => write!(f, "injection campaign failed: {e}"),
            StudyError::Beam(e) => write!(f, "beam session failed: {e}"),
        }
    }
}

impl std::error::Error for StudyError {}

/// Initial epoch interval of the default in-memory checkpoints, in
/// cycles. The epoch recorder only ever doubles the stride (when it hits
/// its cap of 32 checkpoints); it never shortens it. A golden run shorter
/// than the interval keeps only the cycle-0 epoch: tiny CRC32 runs
/// 50,918 cycles, so it gets one.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 65_536;

/// Configuration of a full reproduction study.
///
/// The defaults give a campaign that completes in minutes; the paper-scale
/// equivalents (`samples_per_component = 1000`, more strikes) are a field
/// away. Every speed knob is on by default (`fast_path`, `warp`,
/// in-memory checkpoints); [`Study::reference`] switches them off.
#[derive(Clone, Debug)]
pub struct Study {
    /// Benchmark input scale.
    pub scale: Scale,
    /// Machine configuration (shared by both methodologies, Table II).
    pub machine: MachineConfig,
    /// Kernel configuration.
    pub kernel: KernelConfig,
    /// Injected faults per component per workload (paper: 1,000).
    pub samples_per_component: u32,
    /// Sampled beam strikes per workload.
    pub beam_strikes: u32,
    /// Per-bit raw FIT for the AVF→FIT conversion (paper: 2.76×10⁻⁵,
    /// measured with the L1 probe — see [`Study::measure_fit_raw`]).
    pub fit_raw: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Cycle budget for fault-free reference runs.
    pub golden_budget_cycles: u64,
    /// Journal directory for outcome/strike logs (None = no journal).
    pub journal_dir: Option<std::path::PathBuf>,
    /// Resume from an existing journal instead of starting over.
    pub resume: bool,
    /// Journal fsync cadence (how much recent work a power cut may cost).
    pub journal_fsync: sea_injection::FsyncPolicy,
    /// Quarantine file for anomaly records (None = no quarantine file;
    /// anomalies are still counted in results).
    pub quarantine: Option<std::path::PathBuf>,
    /// Per-run wall-clock budget in milliseconds (0 = disabled).
    pub run_wall_ms: u64,
    /// Initial checkpoint epoch interval in cycles (0 = off; default
    /// [`DEFAULT_CHECKPOINT_INTERVAL`]). Checkpoints live in memory for
    /// the duration of each campaign/session. They also arm the
    /// reconvergence cut and dead-cell pruning; journals are
    /// byte-identical either way.
    pub checkpoint_interval: u64,
    /// Write per-workload attribution profiles (hotspots + predicted-vs-
    /// measured AVF) to this file. None = profiling stays off and no
    /// profiler is ever attached to any machine.
    pub profile_out: Option<std::path::PathBuf>,
    /// Write a Chrome trace-event JSON rendering of the captured trace to
    /// this file at the end of the run (load via `chrome://tracing` or
    /// Perfetto).
    pub chrome_trace: Option<std::path::PathBuf>,
    /// Rewrite a Prometheus text-exposition snapshot of live campaign
    /// metrics to this file (~1 Hz) while campaigns run.
    pub prom_out: Option<std::path::PathBuf>,
    /// Arm the microarchitectural execution fast path (µop cache +
    /// translation latches) on every injected/struck machine (default
    /// on). Bit-exact by construction — journals, counters and verdicts
    /// are byte-identical either way — so this is a pure speed knob like
    /// `threads`.
    pub fast_path: bool,
    /// Serve each run's machine from a per-worker warp cursor
    /// (`sea_injection::warp`) instead of re-simulating the fault-free
    /// prefix from the nearest checkpoint (or reset). Bit-exact like
    /// `fast_path` — the cursor clone is bit-equivalent to a from-reset
    /// machine by the determinism contract — so journals and verdicts are
    /// byte-identical either way; a pure speed knob (default on). Steers
    /// injection campaigns only: beam sessions never use the cursor.
    pub warp: bool,
    /// Bind address for the live observability HTTP server (e.g.
    /// `127.0.0.1:9099`; `None` = no server). Serves `/status`,
    /// `/metrics`, `/events`, `/journal/tail` and `/healthz` while
    /// campaigns and sessions run. A runtime-only knob: journals are
    /// byte-identical with the server on or off.
    pub serve: Option<String>,
    /// Stop each campaign/session early once every tracked stratum's
    /// adjusted 99%-confidence error margin falls to or below this value
    /// (`None` = run every planned sample). Early-stopped journals are a
    /// byte-prefix of the full run's, so a later resume without the knob
    /// completes the campaign.
    pub stop_at_margin: Option<f64>,
}

impl Default for Study {
    fn default() -> Study {
        Study {
            scale: Scale::Default,
            machine: MachineConfig::cortex_a9_scaled(),
            kernel: KernelConfig::default(),
            samples_per_component: 150,
            beam_strikes: 600,
            fit_raw: 2.76e-5,
            seed: 0x5EA_0001,
            threads: 0,
            golden_budget_cycles: 500_000_000,
            journal_dir: None,
            resume: false,
            journal_fsync: sea_injection::FsyncPolicy::default(),
            quarantine: None,
            run_wall_ms: 0,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            profile_out: None,
            chrome_trace: None,
            prom_out: None,
            fast_path: true,
            warp: true,
            serve: None,
            stop_at_margin: None,
        }
    }
}

impl Study {
    /// This study on the reference tier: no fast path, no cursor and no
    /// in-memory checkpoints, so every run boots from reset and runs
    /// uncut — the differential oracle the accelerated defaults are
    /// diffed against (`--reference` on the command line).
    pub fn reference(self) -> Study {
        Study {
            fast_path: false,
            warp: false,
            checkpoint_interval: 0,
            ..self
        }
    }

    /// The supervision policy both methodologies run under.
    fn supervisor_config(&self) -> sea_injection::SupervisorConfig {
        sea_injection::SupervisorConfig {
            run_wall_ms: self.run_wall_ms,
            quarantine: self.quarantine.clone(),
            ..sea_injection::SupervisorConfig::default()
        }
    }

    /// The journal location both methodologies write to (they use
    /// distinct file suffixes inside the directory).
    fn journal_spec(&self) -> Option<sea_injection::JournalSpec> {
        self.journal_dir
            .as_ref()
            .map(|dir| sea_injection::JournalSpec {
                resume: self.resume,
                fsync: self.journal_fsync,
                ..sea_injection::JournalSpec::new(dir)
            })
    }

    /// The injection-campaign configuration this study uses.
    pub fn injection_config(&self) -> CampaignConfig {
        CampaignConfig {
            machine: self.machine,
            kernel: self.kernel,
            samples_per_component: self.samples_per_component,
            components: sea_microarch::Component::ALL.to_vec(),
            seed: self.seed,
            threads: self.threads,
            fault_model: sea_injection::FaultModel::SingleBit,
            golden_budget_cycles: self.golden_budget_cycles,
            supervisor: self.supervisor_config(),
            journal: self.journal_spec(),
            checkpoint_interval: self.checkpoint_interval,
            fast_path: self.fast_path,
            serve: self.serve.clone(),
            stop_at_margin: self.stop_at_margin,
            warp: self.warp,
        }
    }

    /// The beam configuration this study uses.
    pub fn beam_config(&self) -> BeamConfig {
        BeamConfig {
            machine: self.machine,
            kernel: self.kernel,
            sigma_bit: sea_beam::fit_to_sigma(self.fit_raw),
            seed: self.seed,
            threads: self.threads,
            golden_budget_cycles: self.golden_budget_cycles,
            supervisor: self.supervisor_config(),
            journal: self.journal_spec(),
            checkpoint_interval: self.checkpoint_interval,
            fast_path: self.fast_path,
            serve: self.serve.clone(),
            stop_at_margin: self.stop_at_margin,
            ..BeamConfig::default()
        }
    }

    /// [`Study::injection_config`]: every workload gets the same one. Kept
    /// for the benchmark, which calls it.
    pub fn injection_config_for(&self, _w: Workload) -> CampaignConfig {
        self.injection_config()
    }

    /// [`Study::beam_config`]: every workload gets the same one. Kept for
    /// the benchmark, which calls it.
    pub fn beam_config_for(&self, _w: Workload) -> BeamConfig {
        self.beam_config()
    }

    /// Runs both methodologies for one workload.
    ///
    /// # Errors
    ///
    /// Propagates campaign/beam failures (broken golden runs).
    pub fn run_workload(&self, w: Workload) -> Result<WorkloadStudy, StudyError> {
        let built = w.build(self.scale);
        let icfg = self.injection_config();
        let campaign = run_campaign(w.name(), &built, &icfg).map_err(StudyError::Campaign)?;
        let bcfg = self.beam_config();
        let beam =
            run_session(w.name(), &built, &bcfg, self.beam_strikes).map_err(StudyError::Beam)?;
        let comparison = Comparison {
            workload: w.name().to_string(),
            fi: fi_fit(&campaign, self.fit_raw),
            beam: beam_fit(&beam),
        };
        Ok(WorkloadStudy {
            workload: w,
            campaign,
            beam,
            comparison,
        })
    }

    /// Runs the full 13-benchmark study.
    ///
    /// # Errors
    ///
    /// Propagates the first per-workload failure.
    pub fn run_all(&self) -> Result<StudyResult, StudyError> {
        self.run_suite(&Workload::ALL)
    }

    /// Runs the study over a chosen subset of benchmarks.
    ///
    /// # Errors
    ///
    /// Propagates the first per-workload failure.
    pub fn run_suite(&self, suite: &[Workload]) -> Result<StudyResult, StudyError> {
        let mut workloads = Vec::new();
        for &w in suite {
            workloads.push(self.run_workload(w)?);
        }
        let comparisons: Vec<Comparison> = workloads.iter().map(|w| w.comparison.clone()).collect();
        Ok(StudyResult {
            overview: Overview::from_comparisons(&comparisons),
            workloads,
            fit_raw: self.fit_raw,
        })
    }

    /// Runs the paper's §VI FIT_raw measurement (the L1 probe under beam).
    pub fn measure_fit_raw(&self, strikes: u32) -> RawFitResult {
        measure_fit_raw(&self.beam_config(), strikes)
    }

    /// Profiles one workload's golden run (the read horizon's liveness
    /// reports plus the per-PC cycle sampler), when `profile_out` asks for
    /// profiling.
    ///
    /// Runs on a dedicated boot — campaign machines never carry profilers,
    /// so journals and checkpoints are byte-identical with profiling on or
    /// off. Returns `None` when profiling is off or the golden run is not
    /// clean (campaigns will surface that error themselves).
    pub fn profile_workload(&self, w: Workload) -> Option<sea_profile::ProfileData> {
        self.profile_out.as_ref()?;
        let built = w.build(self.scale);
        sea_platform::profiled_golden_run(
            self.machine,
            &built.image,
            &self.kernel,
            self.golden_budget_cycles,
        )
        .ok()
        .map(|(_, profile)| profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_study_config_is_the_per_workload_config() {
        for s in [Study::default(), Study::default().reference()] {
            for w in [Workload::Crc32, Workload::Qsort] {
                let (i, b) = (s.injection_config(), s.beam_config());
                assert_eq!(format!("{i:?}"), format!("{:?}", s.injection_config_for(w)));
                assert_eq!(format!("{b:?}"), format!("{:?}", s.beam_config_for(w)));
                assert_eq!(i.checkpoint_interval, s.checkpoint_interval);
                assert_eq!(b.checkpoint_interval, s.checkpoint_interval);
            }
        }
    }
}
