//! A process-wide stop request drains a beam session the way it drains a
//! campaign. Its own test binary: the stop flag is process-wide.

use sea_beam::{run_session, BeamConfig};
use sea_injection::{clear_stop, request_stop, SupervisorConfig};
use sea_trace::{Level, MemorySink, Subsystem};
use sea_workloads::{Scale, Workload};
use std::sync::Arc;

/// Raises the stop flag as strike 10 is claimed, like a SIGTERM mid-run.
fn stop_at_ten(_worker: usize, i: u64) {
    if i == 10 {
        request_stop();
    }
}

#[test]
fn a_stop_request_is_logged_as_a_drain_not_an_early_stop() {
    let _guard = sea_trace::test_lock();
    let sink = Arc::new(MemorySink::keeping(&[
        "beam.stop_drained",
        "beam.early_stop",
    ]));
    sea_trace::install_sink(sink.clone());
    sea_trace::set_level(Subsystem::Beam, Level::Info);
    let built = Workload::Qsort.build(Scale::Tiny);
    let cfg = BeamConfig {
        threads: 1,
        supervisor: SupervisorConfig {
            worker_hook: Some(stop_at_ten),
            ..SupervisorConfig::default()
        },
        ..BeamConfig::default()
    };
    clear_stop();
    let full = run_session("Qsort", &built, &BeamConfig::default(), 40).expect("full");
    let drained = run_session("Qsort", &built, &cfg, 40);
    clear_stop();
    sea_trace::flush_thread();
    sea_trace::disable_all();
    sea_trace::uninstall_sink();

    let drained = drained.expect("drained session");
    // The strike in flight when the flag rose still finishes.
    assert_eq!(drained.counts.total(), 11);
    assert!((drained.fluence - full.fluence * 11.0 / 40.0).abs() <= 1e-12 * full.fluence);
    let names: Vec<&str> = sink.take().iter().map(|e| e.name).collect();
    assert_eq!(names, ["beam.stop_drained"]);
}
