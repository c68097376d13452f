//! What a beam session plans before it strikes: the kernel residency it
//! reads off its own golden run, and the work each strike is planned at.

use sea_beam::{measure_kernel_residency, run_session, BeamConfig, BeamPlan, Strike};
use sea_injection::RunPlan;
use sea_trace::{Level, MemorySink, Subsystem, Value};
use sea_workloads::{Scale, Workload};
use std::sync::Arc;

/// Epoch stride of the checkpointed sessions: several epochs even in the
/// shortest tiny run.
const EPOCH_STRIDE: u64 = 8_192;

/// The session reads kernel residency off the machine its golden run ends
/// on, on both golden paths: from reset and checkpointed in memory. The
/// separate boot-and-run of `measure_kernel_residency` is the oracle, bit
/// for bit.
#[test]
fn kernel_residency_is_read_off_the_golden_run() {
    // Its sessions must not land in the other test's trace sink.
    let _guard = sea_trace::test_lock();
    for w in [
        Workload::Qsort,
        Workload::MatMul,
        Workload::Crc32,
        Workload::StringSearch,
        Workload::SusanC,
    ] {
        let built = w.build(Scale::Tiny);
        let oracle = measure_kernel_residency(&built, &BeamConfig::default())
            .expect("oracle run")
            .to_bits();
        for checkpoint_interval in [0, EPOCH_STRIDE] {
            let cfg = BeamConfig {
                checkpoint_interval,
                ..BeamConfig::default()
            };
            let r = run_session(w.name(), &built, &cfg, 0).expect("session");
            assert_eq!(
                r.kernel_resident_frac.to_bits(),
                oracle,
                "{w} with checkpoint interval {checkpoint_interval}"
            );
        }
    }
}

/// Simulated strikes are planned at the golden suffix past their nearest
/// epoch, analytic strikes at nothing, and the session's progress carries
/// the sum (reported on its `beam.session` span).
#[test]
fn strikes_are_planned_at_their_simulated_work() {
    let _guard = sea_trace::test_lock();
    let built = Workload::Qsort.build(Scale::Tiny);
    let cfg = BeamConfig {
        threads: 1,
        checkpoint_interval: EPOCH_STRIDE,
        ..BeamConfig::default()
    };
    let plan = BeamPlan::new("Qsort", &built, &cfg, 120).expect("plan");
    let golden = plan.campaign().golden_cycles();
    let epochs = plan
        .campaign()
        .checkpoints()
        .expect("checkpoints")
        .epoch_cycles();
    let (mut simulated, mut analytic) = (0, 0);
    for (i, strike) in plan.strikes().iter().enumerate() {
        let work = plan.expected_work(i as u64);
        match strike {
            Strike::Simulate(spec) => {
                let epoch = epochs.iter().rev().find(|&&e| e <= spec.cycle);
                assert_eq!(work, golden - epoch.expect("epoch zero"), "strike {i}");
                simulated += 1;
            }
            Strike::Analytic(..) => {
                assert_eq!(work, 0, "strike {i}");
                analytic += 1;
            }
        }
    }
    assert!(simulated > 0 && analytic > 0, "{simulated} / {analytic}");
    let planned: u64 = (0..120).map(|i| plan.expected_work(i)).sum();

    let sink = Arc::new(MemorySink::keeping(&["beam.session"]));
    sea_trace::install_sink(sink.clone());
    sea_trace::set_level(Subsystem::Beam, Level::Info);
    run_session("Qsort", &built, &cfg, 120).expect("session");
    sea_trace::flush_thread();
    sea_trace::disable_all();
    sea_trace::uninstall_sink();
    let spans = sink.take();
    assert_eq!(spans.len(), 1);
    assert!(
        matches!(spans[0].get("work"), Some(Value::U64(w)) if *w == planned),
        "{:?} != {planned}",
        spans[0].get("work")
    );
}
