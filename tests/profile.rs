//! Zero-overhead and pure-observer guarantees of `sea-profile`.
//!
//! The profiling subsystem promises that campaign machines never pay for
//! it: with profiling off (the default), the hot simulation path takes
//! one relaxed atomic load and allocates nothing, and attaching the
//! profilers to a dedicated golden run changes no architectural result.
//! These tests pin all three properties with a counting global allocator
//! and a side-by-side golden run. The profile's predicted AVF is the read
//! horizon's exact live share: the tests below check it against a cycle
//! by cycle scan of the horizon, and against an unpruned campaign.

use sea_core::injection::supervisor::journal_file;
use sea_core::injection::{generate_specs, run_campaign};
use sea_core::kernel::KernelConfig;
use sea_core::microarch::{ReadHorizon, System as Machine};
use sea_core::platform::{boot, golden_run, profiled_golden_run, run, Board, RunLimits};
use sea_core::{Component, MachineConfig, Scale, Study, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

// Thread-local counting allocator: measures only the measuring thread, so
// the cargo test harness running other tests concurrently cannot pollute
// the window.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn machine() -> MachineConfig {
    MachineConfig::cortex_a9_scaled()
}

/// With profiling off, steady-state stepping performs zero heap
/// allocations: the profiler hooks are `Option::None` checks, and
/// everything else in the simulator is preallocated.
#[test]
fn disabled_profiling_path_never_allocates() {
    // The profiling tests below attach profilers: take turns.
    let _guard = sea_core::trace::test_lock();
    let built = Workload::Crc32.build(Scale::Tiny);
    let (mut sys, _boot) = boot(machine(), &built.image, &KernelConfig::default()).expect("boot");
    // Warm up: first touches of pages, cache fills, and the output
    // buffer's geometric growth all allocate; steady state must not.
    for _ in 0..60_000 {
        sys.step();
    }
    let before = thread_allocs();
    for _ in 0..10_000 {
        sys.step();
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "profiling-disabled stepping must not allocate ({delta} allocations in 10k steps)"
    );
}

/// Attaching the profilers changes no architectural result: same exit
/// code, same output, same cycle and instruction counts.
#[test]
fn profiled_golden_run_is_a_pure_observer() {
    let _guard = sea_core::trace::test_lock();
    let built = Workload::Crc32.build(Scale::Tiny);
    let kernel = KernelConfig::default();
    let budget = 500_000_000;
    let plain = golden_run(machine(), &built.image, &kernel, budget).expect("plain golden");
    let (profiled, profile) =
        profiled_golden_run(machine(), &built.image, &kernel, budget).expect("profiled golden");
    assert_eq!(plain.cycles, profiled.cycles);
    assert_eq!(plain.instructions, profiled.instructions);
    assert_eq!(plain.output, profiled.output);
    assert_eq!(plain.exit_code, profiled.exit_code);
    // And the profile actually observed the run.
    assert_eq!(profile.total_cycles, plain.cycles);
    assert!(!profile.pc.entries.is_empty());
    assert_eq!(profile.structures.len(), 6);
    for s in &profile.structures {
        let avf = s.predicted_avf();
        assert!(
            (0.0..=1.0).contains(&avf),
            "{}: AVF {avf} out of range",
            s.name
        );
    }
    // The caches saw traffic; the ACE prediction is non-trivial somewhere.
    assert!(profile.structures.iter().any(|s| s.predicted_avf() > 0.0));
}

/// The predicted-vs-measured table renders for a real (tiny) campaign:
/// predicted AVF from the profiled golden run next to the measured AVF of
/// an actual injection campaign.
#[test]
fn predicted_vs_measured_avf_table_renders() {
    let _guard = sea_core::trace::test_lock();
    let study = Study {
        scale: Scale::Tiny,
        samples_per_component: 6,
        threads: 2,
        profile_out: Some(std::path::PathBuf::from("unused.txt")),
        ..Study::default()
    };
    let w = Workload::Crc32;
    let built = w.build(study.scale);
    let cfg = study.injection_config();
    let campaign =
        sea_core::injection::run_campaign(w.name(), &built, &cfg).expect("tiny campaign");
    let profile = study.profile_workload(w).expect("profile");
    let table = sea_core::analysis::profile::render_avf_table(&profile, Some(&campaign));
    // All six structures with both columns populated.
    for name in ["RF", "L1I$", "L1D$", "L2$", "ITLB", "DTLB"] {
        assert!(table.contains(name), "{table}");
    }
    assert!(table.contains('x') || table.contains("inf"), "{table}");
    let report = sea_core::analysis::profile::render_profile(w.name(), &profile, Some(&campaign));
    assert!(report.contains("hot PCs"), "{report}");
    assert!(report.contains("predicted vs measured AVF"), "{report}");
}

const BUDGET: u64 = 500_000_000;

/// The tiny golden run of `w` with the profilers attached: the machine at
/// its exit and the horizon they recorded — the one its profile reports
/// from, which this also checks.
fn profiled(w: Workload) -> (Machine<Board>, ReadHorizon) {
    let built = w.build(Scale::Tiny);
    let kernel = KernelConfig::default();
    let (mut sys, _) = boot(machine(), &built.image, &kernel).expect("boot");
    sys.profile_attach();
    let limits = RunLimits {
        max_cycles: BUDGET,
        tick_window: u64::MAX,
        wall_ms: 0,
    };
    run(&mut sys, limits);
    let horizon = sys.horizon_take().expect("a profiler records the horizon");
    let (_, profile) =
        profiled_golden_run(machine(), &built.image, &kernel, BUDGET).expect("profiled golden");
    let reports = Component::ALL.map(|c| horizon.report(c));
    assert_eq!(profile.structures, reports, "{w:?}");
    (sys, horizon)
}

/// The predicted RF AVF counts the FP words: FFT reads s0–s31, so their
/// bits are live for a share of its run; CRC32 never reads one, so theirs
/// are live only inside the final step, where no cell is ever dead.
#[test]
fn predicted_rf_avf_counts_fp_words() {
    let _guard = sea_core::trace::test_lock();
    let fp_share = |w: Workload| {
        let (sys, horizon) = profiled(w);
        let fp = 16 * 32..48 * 32;
        let live: u64 = fp
            .clone()
            .map(|b| horizon.live_cycles(Component::RegFile, b))
            .sum();
        live as f64 / (fp.count() as u64 * sys.cycles()) as f64
    };
    let (fft, crc) = (fp_share(Workload::Fft), fp_share(Workload::Crc32));
    assert!(fft > 0.05 && fft < 1.0, "FFT FP words live {fft}");
    assert!(crc < 1e-3, "CRC32 FP words live {crc}");
}

/// `live_cycles` counts exactly the strike cycles `dead_at` leaves live,
/// for every kind of cell: integer and FP register words; cache data,
/// tag, valid and dirty bits; TLB VPN, valid, PPN, permission and filler
/// bits — in lines and entries the run fills and in ones it never does.
/// The scan covers `[0, golden_cycles)`, so strikes inside the final step
/// are counted too; a never-read filler bit is live there and nowhere else.
#[test]
fn live_cycles_equal_a_scan_of_dead_at() {
    let _guard = sea_core::trace::test_lock();
    for w in [Workload::Crc32, Workload::MatMul] {
        let (sys, horizon) = profiled(w);
        let end = sys.cycles();
        let probes = [end / 4, end / 2, 3 * end / 4, end - 1];
        // Words 0–15 are the integer registers, 16–47 are s0–s31.
        let words = [0, 1, 2, 3, 7, 12, 13, 14, 15, 16, 17, 18, 24, 31, 40, 47];
        let mut bits: Vec<(Component, u64)> = words
            .map(|word| (Component::RegFile, word * 32 + word % 32))
            .to_vec();
        for (c, cache) in [
            (Component::L1I, &sys.mem.l1i),
            (Component::L1D, &sys.mem.l1d),
            (Component::L2, &sys.mem.l2),
        ] {
            let ever_valid = |line: &u32| {
                probes
                    .iter()
                    .any(|&t| horizon.line_at(c, *line, t).is_some())
            };
            let mut lines: Vec<u32> = (0..cache.lines()).filter(ever_valid).take(4).collect();
            assert!(!lines.is_empty(), "{w:?} {c}");
            let never = (0..cache.lines()).filter(|l| !ever_valid(l));
            lines.extend(never.take(5 - lines.len()));
            let (data, tag) = (
                8 * u64::from(cache.line_bytes()),
                u64::from(cache.tag_bits()),
            );
            for line in lines {
                let base = u64::from(line) * cache.bits_per_line();
                let within = [
                    (u64::from(line) * 37) % data,
                    data + 3,
                    data + tag,
                    data + tag + 1,
                ];
                bits.extend(within.map(|b| (c, base + b)));
            }
        }
        for c in [Component::ITlb, Component::DTlb] {
            let ever_valid = |e: &u64| {
                probes
                    .iter()
                    .any(|&t| horizon.site_at(c, 64 * e, t).was_valid)
            };
            let mut entries: Vec<u64> = (0..64).filter(ever_valid).take(3).collect();
            assert!(!entries.is_empty(), "{w:?} {c}");
            let never = (0..64).filter(|e| !ever_valid(e));
            entries.extend(never.take(4 - entries.len()));
            for e in entries {
                bits.extend([5, 25, 40, 42, 50].map(|b| (c, 64 * e + b)));
            }
        }
        for &(c, bit) in &bits {
            let scanned = (0..end)
                .filter(|&t| horizon.dead_at(c, bit, t).is_none())
                .count() as u64;
            assert_eq!(horizon.live_cycles(c, bit), scanned, "{w:?} {c} bit {bit}");
        }
        // A filler bit: live exactly inside the final step.
        let filler = horizon.live_cycles(Component::DTlb, 50);
        assert!(filler > 0 && filler < end / 100, "{w:?}: {filler}");
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_profile_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Soundness of the prediction: in an unpruned, from-reset campaign every
/// strike that is not Masked is live in the profiled run's horizon. So per
/// component the measured AVF never exceeds the live share of the drawn
/// strikes, whose expectation is the predicted AVF.
#[test]
fn unmasked_strikes_are_live_so_predicted_bounds_measured() {
    let _guard = sea_core::trace::test_lock();
    for w in [Workload::Crc32, Workload::MatMul] {
        let (sys, horizon) = profiled(w);
        let dir = scratch(w.name());
        let study = Study {
            scale: Scale::Tiny,
            samples_per_component: 100,
            threads: 2,
            journal_dir: Some(dir.clone()),
            ..Study::default()
        }
        .reference();
        let cfg = study.injection_config();
        let campaign = run_campaign(w.name(), &w.build(Scale::Tiny), &cfg).expect("campaign");
        assert_eq!(campaign.golden_cycles, sys.cycles());
        let specs = generate_specs(&cfg, campaign.golden_cycles);
        let journal = std::fs::read(journal_file(&dir, "inject", w.name())).expect("journal");
        let lines = sea_core::durable::export_jsonl(&journal).expect("export");
        let records = String::from_utf8(lines).expect("utf-8");
        let mut unmasked = 0;
        for (i, line) in records.lines().skip(1).enumerate() {
            assert!(line.starts_with(&format!("{{\"i\":{i},")), "{line}");
            if !line.contains("\"class\":\"Masked\"") {
                unmasked += 1;
                let s = specs[i];
                assert!(
                    horizon.reads_from(s.component, s.bit, s.cycle),
                    "{w:?}: record {i} ({line}) struck a dead cell: {s:?}"
                );
            }
        }
        assert_eq!(records.lines().count(), specs.len() + 1);
        assert!(unmasked > 0, "{w:?}: nothing to check");
        for r in &campaign.per_component {
            let c = r.component;
            let drawn = specs.iter().filter(|s| s.component == c);
            let live = drawn
                .clone()
                .filter(|s| horizon.reads_from(c, s.bit, s.cycle));
            let live_share = live.count() as f64 / drawn.count() as f64;
            let (measured, predicted) = (r.counts.avf(), horizon.report(c).predicted_avf());
            // Strike by strike: no more of the drawn strikes are unmasked
            // than are live. The prediction is the live share of every
            // (bit, cycle), which a draw of 100 strikes estimates within
            // the campaign's 99% margin.
            assert!(
                measured <= live_share,
                "{w:?} {c}: {measured} > {live_share}"
            );
            assert!(
                measured <= predicted + r.error_margin(),
                "{w:?} {c}: measured {measured} > predicted {predicted} + margin"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
