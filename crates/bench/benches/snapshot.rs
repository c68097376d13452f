//! Criterion microbenchmarks for in-memory checkpoint/restore: the cost of
//! one injected run from reset vs. from the nearest golden-run checkpoint
//! (the campaign hot path), and the raw capture/restore primitives.

use criterion::{criterion_group, criterion_main, Criterion};

use sea_core::injection::{run_one, CampaignConfig, InjectionSpec};
use sea_core::microarch::Component;
use sea_core::platform::{golden_run_with_checkpoints, Checkpoint, RunLimits};
use sea_core::workloads::{Scale, Workload};

/// Epoch stride of the benchmarked sets: the tiny CRC32 run is ~51k
/// cycles, shorter than the default stride, so this gives it several
/// epochs to restore from.
const EPOCH_STRIDE: u64 = 8_192;

/// One injected run, late in the golden run (75% in — past the median of
/// a uniform campaign), booted from reset vs. restored from the nearest
/// epoch checkpoint. The gap between these two is the campaign speedup.
fn bench_injected_run_paths(c: &mut Criterion) {
    let built = Workload::Crc32.build(Scale::Tiny);
    let cfg = CampaignConfig {
        samples_per_component: 0,
        components: vec![],
        threads: 1,
        ..CampaignConfig::default()
    };
    let (golden, ckpts) = golden_run_with_checkpoints(
        cfg.machine,
        &built.image,
        &cfg.kernel,
        cfg.golden_budget_cycles,
        EPOCH_STRIDE,
    )
    .unwrap();
    let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period);
    let spec = InjectionSpec {
        component: Component::L1D,
        bit: 12345,
        cycle: golden.cycles * 3 / 4,
    };
    c.bench_function("injected_run_from_reset", |b| {
        b.iter(|| run_one(&built, &cfg, None, spec, limits))
    });
    c.bench_function("injected_run_from_checkpoint", |b| {
        b.iter(|| run_one(&built, &cfg, Some(&ckpts), spec, limits))
    });
}

/// The raw checkpoint primitives on a mid-run machine: COW capture and
/// restore (clone).
fn bench_snapshot_primitives(c: &mut Criterion) {
    let built = Workload::Crc32.build(Scale::Tiny);
    let cfg = CampaignConfig::default();
    let (golden, ckpts) = golden_run_with_checkpoints(
        cfg.machine,
        &built.image,
        &cfg.kernel,
        cfg.golden_budget_cycles,
        EPOCH_STRIDE,
    )
    .unwrap();
    let sys = ckpts
        .restore_at(golden.cycles / 2)
        .expect("mid-run checkpoint");
    c.bench_function("checkpoint_capture", |b| {
        b.iter(|| Checkpoint::capture(&sys))
    });
    let ck = Checkpoint::capture(&sys);
    c.bench_function("checkpoint_restore", |b| b.iter(|| ck.restore()));
}

criterion_group!(benches, bench_injected_run_paths, bench_snapshot_primitives);
criterion_main!(benches);
