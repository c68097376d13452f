//! The early exits are journal-neutral. A campaign with every speed key on
//! — and therefore with dead-cell pruning and the reconvergence cut armed
//! — must write, byte for byte, the journal the from-reset campaign writes
//! for the same spec (no checkpoint set, so nothing is ever pruned or cut:
//! the differential oracle), both in one process and merged out of a
//! two-worker fleet.
//!
//! One test function, in a file of its own: the fleet scheduler only stops
//! on the process-wide stop flag, which must not reach any other test.

use sea_core::durable::export_jsonl;
use sea_core::injection::supervisor::journal_file;
use sea_core::injection::{clear_stop, request_stop, run_campaign, DEAD_PRUNED, RECONVERGED};
use sea_core::{JournalFormat, JournalSpec, StudySpec};
use sea_fleet::{Daemon, DaemonConfig, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEC: &str = r#"{"scale":"tiny","samples_per_component":8,"threads":1,
    "suite":["CRC32","MatMul"],"fast_path":true,"warp":true,"checkpoint_interval":2048}"#;

#[test]
fn cut_campaign_journals_equal_the_from_reset_ones_in_process_and_through_a_fleet() {
    let root = std::env::temp_dir().join(format!("sea_reconverge_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = StudySpec::from_json(SPEC).unwrap();

    let mut reference = Vec::new();
    for &w in &spec.suite {
        let built = w.build(spec.study.scale);
        let journal =
            |dir: &str| journal_file(&root.join(dir), "inject", w.name(), JournalFormat::Binary);

        let mut reset = spec.study.injection_config_for(w);
        reset.checkpoint_interval = 0;
        reset.warp = false;
        reset.fast_path = false;
        reset.journal = Some(JournalSpec::new(root.join("reset")));
        let a = run_campaign(w.name(), &built, &reset).unwrap();
        assert!(a.checkpoints.is_none());

        let mut cut = spec.study.injection_config_for(w);
        cut.journal = Some(JournalSpec::new(root.join("cut")));
        let before = (DEAD_PRUNED.get(), RECONVERGED.get());
        let b = run_campaign(w.name(), &built, &cut).unwrap();
        assert!(DEAD_PRUNED.get() > before.0, "{w}: nothing was pruned");
        assert!(RECONVERGED.get() > before.1, "{w}: the cut never fired");

        assert_eq!(a.per_component, b.per_component, "{w}");
        let (ja, jb) = (
            std::fs::read(journal("reset")).unwrap(),
            std::fs::read(journal("cut")).unwrap(),
        );
        assert_eq!(ja, jb, "{w}: cut journal differs from the from-reset one");
        assert_eq!(
            export_jsonl(&ja).unwrap(),
            export_jsonl(&jb).unwrap(),
            "{w}: JSONL export differs"
        );
        reference.push((w, ja));
    }

    // The same spec through two worker processes.
    let daemon = Arc::new(
        Daemon::start(DaemonConfig {
            root: root.join("fleet"),
            workers: 2,
            // Publishes the daemon's `/metrics` provider; nothing connects.
            serve: Some("127.0.0.1:0".to_string()),
            worker_cmd: vec![
                env!("CARGO_BIN_EXE_fleet").to_string(),
                "worker".to_string(),
            ],
            ..DaemonConfig::default()
        })
        .unwrap(),
    );
    let ack = daemon.submit(SPEC).unwrap();
    let id = ack
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or_else(|| panic!("no id in ack: {ack}"))
        .to_string();
    let scheduler = {
        let daemon = daemon.clone();
        std::thread::spawn(move || daemon.run())
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let doc = daemon
            .study_status(&id)
            .expect("submitted study has a status");
        if doc.contains("\"state\":\"done\"") {
            break;
        }
        assert!(!doc.contains("\"state\":\"failed\""), "study failed: {doc}");
        assert!(Instant::now() < deadline, "study {id} timed out: {doc}");
        std::thread::sleep(Duration::from_millis(50));
    }
    // The workers ran armed: their telemetry reports pruned strikes.
    let pruned = loop {
        let metrics = sea_core::observe::metrics_document();
        let pruned = metrics
            .lines()
            .find_map(|l| l.strip_prefix("sea_fleet_campaign_dead_pruned_total "))
            .map_or(0.0, |v| v.trim().parse::<f64>().unwrap());
        if pruned > 0.0 || Instant::now() > deadline {
            break pruned;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(pruned > 0.0, "no worker pruned a strike");
    request_stop();
    scheduler.join().unwrap();
    clear_stop();

    let reg = Registry::new(root.join("fleet"));
    for (w, want) in &reference {
        assert!(
            reg.shard_journals(&id, w.name()).len() >= 2,
            "{w}: not sharded across two workers"
        );
        let merged = std::fs::read(reg.merged_path(&id, w.name())).unwrap();
        assert_eq!(&merged, want, "{w}: fleet-merged journal differs");
    }
    let _ = std::fs::remove_dir_all(&root);
}
