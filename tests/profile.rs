//! Zero-overhead and pure-observer guarantees of `sea-profile`.
//!
//! The profiling subsystem promises that campaign machines never pay for
//! it: with profiling off (the default), the hot simulation path takes
//! one relaxed atomic load and allocates nothing, and attaching the
//! profilers to a dedicated golden run changes no architectural result.
//! These tests pin all three properties with a counting global allocator
//! and a side-by-side golden run.

use sea_core::kernel::KernelConfig;
use sea_core::platform::{boot, golden_run, profiled_golden_run};
use sea_core::{MachineConfig, Scale, Study, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    assert!(report.contains("structure traffic"), "{report}");
}

/// The predicted RF AVF counts the FP words: FFT keeps FP values live, so
/// the 48 tracked words together are resident for longer than the 16
/// integer words could be even if every one of them were live for the
/// whole run — every cycle beyond that is an interval a hooked FP def
/// opened and hooked FP reads extend. CRC32 never touches an FP register
/// and stays under that bound.
#[test]
fn predicted_rf_avf_counts_fp_words() {
    let _guard = sea_core::trace::test_lock();
    let rf_of = |w: Workload| {
        let built = w.build(Scale::Tiny);
        let (_, profile) = profiled_golden_run(
            machine(),
            &built.image,
            &KernelConfig::default(),
            500_000_000,
        )
        .expect("profiled golden");
        profile.structures[0].clone()
    };
    let (fft, crc) = (rf_of(Workload::Fft), rf_of(Workload::Crc32));
    assert_eq!((fft.name.as_str(), fft.slots), ("RF", 48));
    assert!(fft.resident_cycles > 16 * fft.total_cycles, "{fft:?}");
    assert!(crc.resident_cycles <= 16 * crc.total_cycles, "{crc:?}");
    assert!(fft.predicted_avf() > 0.0 && fft.predicted_avf() < 1.0);
}
