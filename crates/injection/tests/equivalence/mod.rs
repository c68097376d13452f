//! The differential oracle: no speed tier may change what a campaign
//! computes. Per tiny workload, one live reference-tier campaign (every run
//! from reset, uncut) writes the journal each row of [`ROWS`] must
//! reproduce byte for byte, with equal tallies, while the counters the row
//! names move. A new accelerator adds a row here and a `#[test]` naming it
//! in the suite of its tier (`checkpoint_`, `fastpath_`, `warp_equivalence`).
//! The campaign with every speed key on, and so with the reconvergence cut
//! and dead-cell pruning armed, is diffed in one process and through a
//! fleet by `sea-bench`'s `reconverge_journals`.
//!
//! Each suite includes this file as `mod equivalence;` and uses a part of
//! it; beside the table stay the bug localisers' fixture and single runs.
#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use sea_injection::supervisor::journal_file;
use sea_injection::warp::{FASTPATH_UOP_HITS, WARP_HANDOFFS};
use sea_injection::{
    run_campaign, run_one, CampaignConfig, CampaignResult, InjectionSpec, JournalFormat,
    JournalSpec,
};
use sea_microarch::{Component, System};
use sea_platform::{boot, golden_run_with_checkpoints, Board, CheckpointSet, GoldenRun, RunLimits};
use sea_trace::Counter;
use sea_workloads::{BuiltWorkload, Scale, Workload};

/// Epoch stride of the checkpointed rows and of the fixture's set.
pub const STRIDE: u64 = 2_048;

/// The tiny workloads every row is diffed on.
const WORKLOADS: [Workload; 2] = [Workload::Crc32, Workload::MatMul];

/// One execution configuration: its name, fast path, cursor, in-memory
/// checkpoints (or every run from reset), and the process-wide counters
/// that must move in its campaign, or it never left the reference path. A
/// checkpointed row must also restore.
pub struct Row(&'static str, bool, bool, bool, &'static [&'static Counter]);

#[rustfmt::skip]
pub static ROWS: &[Row] = &[
    //  name                       fast   warp   checkpoints  must move
    Row("checkpoints in memory",   false, false, true,        &[]),
    Row("fast path",               true,  false, false,       &[&FASTPATH_UOP_HITS]),
    Row("fast path + checkpoints", true,  false, true,        &[&FASTPATH_UOP_HITS]),
    Row("cursor",                  false, true,  false,       &[&WARP_HANDOFFS]),
    Row("cursor + checkpoints",    false, true,  true,        &[&WARP_HANDOFFS]),
];

/// The reference journal and result of one workload.
type Want = (Vec<u8>, CampaignResult);

/// The counters are process-wide: every production call of a suite holds
/// this lock, so a row's deltas belong to that row.
pub fn production() -> MutexGuard<'static, ()> {
    static PRODUCTION: Mutex<()> = Mutex::new(());
    PRODUCTION.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh directory of this process's, for one campaign's files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_equivalence_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `cfg` with 8 samples a component on two threads, journaled in
/// `dir`: the journal bytes and the result.
fn campaign(w: Workload, built: &BuiltWorkload, mut cfg: CampaignConfig, dir: &Path) -> Want {
    cfg.samples_per_component = 8;
    cfg.threads = 2;
    cfg.journal = Some(JournalSpec::new(dir));
    let result = run_campaign(w.name(), built, &cfg).unwrap();
    let journal = journal_file(dir, "inject", w.name(), JournalFormat::Binary);
    (fs::read(journal).unwrap(), result)
}

/// Workload `i`'s build and its reference journal and result, run once
/// per suite. Called under [`production`].
fn reference(i: usize) -> &'static (BuiltWorkload, Want) {
    static REFERENCE: [OnceLock<(BuiltWorkload, Want)>; 2] = [OnceLock::new(), OnceLock::new()];
    REFERENCE[i].get_or_init(|| {
        let w = WORKLOADS[i];
        let built = w.build(Scale::Tiny);
        let dir = scratch(&format!("reference_{}", w.name()));
        let want = campaign(w, &built, CampaignConfig::default(), &dir);
        let _ = fs::remove_dir_all(dir);
        (built, want)
    })
}

impl Row {
    /// Runs this row's campaign in `dir`; the errors name what diverged.
    fn check(&self, w: Workload, built: &BuiltWorkload, want: &Want, dir: &Path) -> Vec<String> {
        let Row(_, fast_path, warp, ckpts, counters) = *self;
        let cfg = CampaignConfig {
            fast_path,
            warp,
            checkpoint_interval: if ckpts { STRIDE } else { 0 },
            ..CampaignConfig::default()
        };
        let mut errors = Vec::new();
        let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
        let (journal, got) = campaign(w, built, cfg, &dir.join("journal"));
        for (c, before) in counters.iter().zip(before) {
            if c.get() <= before {
                errors.push(format!("{} never moved", c.name()));
            }
        }
        let stats = got.checkpoints.unwrap_or_default();
        if ckpts && (stats.restores == 0 || stats.prefix_cycles_saved == 0) {
            errors.push(format!("no prefix restored: {stats:?}"));
        }
        if journal != want.0 {
            errors.push("journal bytes differ".into());
        }
        if got.golden_cycles != want.1.golden_cycles || got.per_component != want.1.per_component {
            errors.push("tallies differ".into());
        }
        errors
    }
}

/// The row named `name` against the reference journal of every workload;
/// a failure lists what diverged on each.
pub fn assert_row(name: &str) {
    let (i, row) = (ROWS.iter().enumerate())
        .find(|(_, row)| row.0 == name)
        .unwrap_or_else(|| panic!("no row named {name:?}"));
    let _serial = production();
    let mut failures = Vec::new();
    for (k, w) in WORKLOADS.into_iter().enumerate() {
        let (built, want) = reference(k);
        let dir = scratch(&format!("row{i}_{}", w.name()));
        let errors = row.check(w, built, want, &dir);
        let _ = fs::remove_dir_all(&dir);
        if !errors.is_empty() {
            failures.push(format!("{w}: {}", errors.join("; ")));
        }
    }
    assert!(
        failures.is_empty(),
        "row {name:?} diverged from the reference tier:\n  {}",
        failures.join("\n  ")
    );
}

/// The indices of the rows whose fast-path and cursor flags `keep` selects.
pub fn rows_where(keep: fn(bool, bool) -> bool) -> Vec<usize> {
    (0..ROWS.len())
        .filter(|&i| keep(ROWS[i].1, ROWS[i].2))
        .collect()
}

/// CRC32's golden run and its checkpoint set at [`STRIDE`], built once
/// for the single-run tests.
pub fn fixture() -> &'static (BuiltWorkload, GoldenRun, CheckpointSet) {
    static FIXTURE: OnceLock<(BuiltWorkload, GoldenRun, CheckpointSet)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cfg = CampaignConfig::default();
        let built = Workload::Crc32.build(Scale::Tiny);
        let budget = cfg.golden_budget_cycles;
        let (golden, ckpts) =
            golden_run_with_checkpoints(cfg.machine, &built.image, &cfg.kernel, budget, STRIDE)
                .unwrap();
        (built, golden, ckpts)
    })
}

/// A fresh boot of the fixture's workload stepped to `cycle`, with the
/// fast path armed from reset or not.
pub fn booted(fast_path: bool, cycle: u64) -> System<Board> {
    let cfg = CampaignConfig::default();
    let (mut sys, _) = boot(cfg.machine, &fixture().0.image, &cfg.kernel).unwrap();
    if fast_path {
        sys.fastpath_enable(sea_microarch::FastPathConfig::default());
    }
    step_to(&mut sys, cycle);
    sys
}

pub fn step_to(sys: &mut System<Board>, cycle: u64) {
    while sys.cycles() < cycle {
        sys.step();
    }
}

/// One fault of the fixture's workload, in component `which` at a bit and
/// strike cycle given as fractions of their range, classifies the same
/// under row `row`'s tiers as on the reference tier, metadata included.
pub fn classifies_identically(row: usize, which: usize, bit_frac: f64, cycle_frac: f64) {
    let (built, golden, ckpts) = fixture();
    let Row(name, fast_path, warp, armed, _) = ROWS[row];
    let reference = CampaignConfig::default();
    let cfg = CampaignConfig {
        fast_path,
        warp,
        ..CampaignConfig::default()
    };
    let component = Component::ALL[which];
    let bits = booted(false, 0).component_bits(component);
    let spec = InjectionSpec {
        component,
        bit: ((bits as f64 * bit_frac) as u64).min(bits - 1),
        cycle: ((golden.cycles as f64 * cycle_frac) as u64).min(golden.cycles - 1),
    };
    let limits = RunLimits::from_golden(golden.cycles, reference.kernel.tick_period);
    let ckpts = armed.then_some(ckpts);
    let _serial = production();
    let a = run_one(built, &reference, None, spec, limits);
    let b = run_one(built, &cfg, ckpts, spec, limits);
    prop_assert_eq!(a, b, "{}: outcome mismatch for {:?}", name, spec);
}
