//! Beam-experiment configuration: flux, cross-sections, and the
//! unmodeled-platform model.

use sea_kernel::KernelConfig;
use sea_microarch::MachineConfig;

/// JEDEC JESD89A reference neutron flux at New York City sea level,
/// in n/cm²/h (§II-A of the paper).
pub const NYC_FLUX_PER_HOUR: f64 = 13.0;

/// LANSCE accelerated beam flux in n/cm²/s (§IV-B: ~3.5×10⁵).
pub const LANSCE_FLUX: f64 = 3.5e5;

/// The acceleration factor the paper quotes (~8 orders of magnitude).
pub fn acceleration_factor() -> f64 {
    LANSCE_FLUX * 3600.0 / NYC_FLUX_PER_HOUR
}

/// Converts a measured cross-section (cm²) into a FIT rate (failures per
/// 10⁹ hours at NYC flux).
pub fn sigma_to_fit(sigma_cm2: f64) -> f64 {
    sigma_cm2 * NYC_FLUX_PER_HOUR * 1e9
}

/// Converts a FIT rate back into a cross-section.
pub fn fit_to_sigma(fit: f64) -> f64 {
    fit / (NYC_FLUX_PER_HOUR * 1e9)
}

/// The parts of the physical platform the simulator cannot model — the
/// paper's explanation for the beam's crash-rate excess (Fig 1, §VI):
/// the proprietary FPGA–ARM bridge and board interfaces (system crashes)
/// and the core's logic/control latches (application crashes).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct UnmodeledLogic {
    /// Effective cross-section of platform logic whose corruption hangs
    /// the system (cm²).
    pub sigma_syscrash: f64,
    /// Effective cross-section of core control latches whose corruption
    /// derails the application (cm²); scaled per benchmark by the code's
    /// I-cache residency (§VI's SDC-check-routine discussion).
    pub sigma_appcrash: f64,
}

impl Default for UnmodeledLogic {
    fn default() -> UnmodeledLogic {
        UnmodeledLogic {
            // ≈8 FIT of intrinsic platform SysCrash exposure per execution
            // window (the effective-fluence accounting multiplies this by
            // the idle-overhead share) and ≈10 FIT of control-latch
            // AppCrash at full residency. Calibrated so the Fig 10
            // aggregate lands at the paper's ~11x total ratio; see
            // EXPERIMENTS.md for the discussion.
            sigma_syscrash: fit_to_sigma(8.0),
            sigma_appcrash: fit_to_sigma(10.0),
        }
    }
}

/// Full beam-campaign configuration.
#[derive(Clone, Debug)]
pub struct BeamConfig {
    /// Machine model (must match the fault-injection setup, Table II).
    pub machine: MachineConfig,
    /// Kernel parameters.
    pub kernel: KernelConfig,
    /// Core clock for cycle→second conversion (Zynq: 667 MHz).
    pub clock_hz: f64,
    /// Accelerated beam flux (n/cm²/s).
    pub flux: f64,
    /// Per-bit SRAM cross-section (cm²). The default reproduces the
    /// paper's measured FIT_raw of 2.76×10⁻⁵ per bit.
    pub sigma_bit: f64,
    /// Unmodeled platform logic.
    pub unmodeled: UnmodeledLogic,
    /// Fraction of each execution's duration spent with the beam on but
    /// only the kernel live (harness overhead: output checks, restarts);
    /// §VI attributes part of the System-Crash excess to this exposure.
    pub idle_frac: f64,
    /// Probability that a strike into a kernel-resident cache line during
    /// the idle window takes the system down.
    pub kernel_critical_frac: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads; 0 = available parallelism.
    pub threads: usize,
    /// Cycle budget for the fault-free reference run and the residency
    /// measurement.
    pub golden_budget_cycles: u64,
    /// Supervision policy (panic isolation, retry, quarantine, respawn) —
    /// the simulated counterpart of the paper's watchdog/restart protocol.
    pub supervisor: sea_injection::SupervisorConfig,
    /// Strike-log journal location and resume behavior (None = no
    /// journal). Mirrors the paper's restart-without-losing-fluence
    /// protocol: a resumed session skips already-simulated strikes.
    pub journal: Option<sea_injection::JournalSpec>,
    /// Initial epoch interval, in cycles, of the in-memory checkpoints
    /// simulated SRAM strikes restore from (0 = off: every strike boots
    /// from reset). A runtime-only knob like `threads`: it is excluded
    /// from the session hash and never changes an outcome.
    pub checkpoint_interval: u64,
    /// Arm the microarchitectural execution fast path on every simulated
    /// strike's machine. A runtime-only knob like `checkpoint_interval`:
    /// bit-exact by construction, excluded from the session hash.
    pub fast_path: bool,
    /// Bind address for the live observability server (`None` = no
    /// server). A runtime-only knob like `threads`: it is excluded from
    /// the session hash and a served session writes a byte-identical
    /// strike log.
    pub serve: Option<String>,
    /// Stop the session early once the session-wide adjusted error margin
    /// (99% confidence over the effect-class proportions) falls to or
    /// below this value (`None` = sample every planned strike). An
    /// early-stopped strike log is a byte-prefix of the full session's,
    /// and the represented fluence is scaled to the strikes actually
    /// sampled so FIT rates stay unbiased.
    pub stop_at_margin: Option<f64>,
}

impl Default for BeamConfig {
    fn default() -> BeamConfig {
        BeamConfig {
            // Scaled with the benchmark inputs; see CampaignConfig.
            machine: MachineConfig::cortex_a9_scaled(),
            kernel: KernelConfig::default(),
            clock_hz: 667e6,
            flux: LANSCE_FLUX,
            sigma_bit: fit_to_sigma(2.76e-5),
            unmodeled: UnmodeledLogic::default(),
            idle_frac: 0.5,
            kernel_critical_frac: 0.35,
            seed: 0xBEA0_0001,
            threads: 0,
            golden_budget_cycles: 500_000_000,
            supervisor: sea_injection::SupervisorConfig::default(),
            journal: None,
            checkpoint_interval: 0,
            fast_path: false,
            serve: None,
            stop_at_margin: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceleration_is_about_eight_orders_of_magnitude() {
        let acc = acceleration_factor();
        assert!((1e7..1e9).contains(&acc), "acceleration {acc}");
    }

    #[test]
    fn sigma_fit_roundtrip_and_paper_value() {
        let sigma = fit_to_sigma(2.76e-5);
        // ≈2.1×10⁻¹⁵ cm²/bit, in line with published 28 nm SRAM data.
        assert!((1e-15..4e-15).contains(&sigma), "sigma {sigma}");
        assert!((sigma_to_fit(sigma) - 2.76e-5).abs() < 1e-12);
    }

    #[test]
    fn default_config_is_consistent() {
        let c = BeamConfig::default();
        assert!(c.idle_frac >= 0.0 && c.kernel_critical_frac <= 1.0);
        assert!(c.sigma_bit > 0.0 && c.flux > 0.0);
    }
}
