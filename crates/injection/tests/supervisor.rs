//! End-to-end supervision tests: panic isolation, quarantine + replay,
//! journal resume, and worker respawn on a tiny workload.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use sea_durable::RECORD_OVERHEAD;
use sea_injection::supervisor::journal_file;
use sea_injection::{
    load_quarantine, run_campaign, run_one_caught, CampaignConfig, CampaignError, InjectionSpec,
    JournalSpec,
};
use sea_microarch::Component;
use sea_workloads::{Scale, Workload};

/// A fresh scratch directory under the system temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_supervisor_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_cfg() -> CampaignConfig {
    CampaignConfig {
        samples_per_component: 4,
        components: vec![Component::RegFile, Component::L1D],
        threads: 1,
        ..CampaignConfig::default()
    }
}

fn deterministic_panic_hook(index: u64, _spec: &InjectionSpec) {
    if index == 3 {
        panic!("induced deterministic panic at index 3");
    }
}

#[test]
fn panicking_run_is_quarantined_and_the_campaign_completes() {
    let dir = scratch("quarantine");
    let qfile = dir.join("anomalies.seaj");
    let w = Workload::Crc32.build(Scale::Tiny);
    let mut cfg = tiny_cfg();
    cfg.supervisor.panic_hook = Some(deterministic_panic_hook);
    cfg.supervisor.quarantine = Some(qfile.clone());

    let res = run_campaign("CRC32", &w, &cfg).unwrap();

    // Seven of eight runs classified; the eighth is an anomaly, not a
    // crash of the whole campaign.
    assert_eq!(res.total_injections(), 7);
    assert_eq!(res.anomalies.len(), 1);
    let a = &res.anomalies[0];
    assert_eq!(a.index, 3);
    assert!(a.deterministic, "every attempt panicked");
    assert_eq!(a.attempts, cfg.supervisor.max_attempts);
    assert!(a.panic_msg.contains("induced deterministic panic"));
    assert!(
        a.postmortem.contains("state_fingerprint="),
        "postmortem carries the architectural fingerprint:\n{}",
        a.postmortem
    );
    assert_eq!(res.supervision.quarantined, 1);
    assert_eq!(res.supervision.flaky_recovered, 0);
    assert_eq!(res.supervision.completed, 7);

    // The quarantine file round-trips the anomaly (replay's input).
    let loaded = load_quarantine(&qfile).unwrap();
    assert_eq!(loaded.len(), 1);
    assert_eq!(loaded[0].index, a.index);
    assert_eq!(loaded[0].spec, a.spec);
    assert_eq!(loaded[0].panic_msg, a.panic_msg);
    assert_eq!(loaded[0].postmortem, a.postmortem);

    // Deterministic replay: the same (workload, config, spec) reproduces
    // the panic and the terminal machine state.
    let golden =
        sea_platform::golden_run(cfg.machine, &w.image, &cfg.kernel, cfg.golden_budget_cycles)
            .unwrap();
    let limits = sea_platform::RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period);
    let caught = run_one_caught(&w, &cfg, None, loaded[0].index, loaded[0].spec, limits)
        .expect_err("deterministic anomaly must panic again");
    assert_eq!(caught.message, a.panic_msg);
    assert_eq!(caught.postmortem, a.postmortem, "terminal state reproduced");

    let _ = fs::remove_dir_all(&dir);
}

static FLAKY_FIRED: AtomicBool = AtomicBool::new(false);

fn flaky_panic_hook(index: u64, _spec: &InjectionSpec) {
    if index == 5 && !FLAKY_FIRED.swap(true, Ordering::SeqCst) {
        panic!("induced flaky panic at index 5");
    }
}

#[test]
fn flaky_panic_recovers_on_retry_and_still_leaves_a_record() {
    let w = Workload::Crc32.build(Scale::Tiny);
    let mut cfg = tiny_cfg();
    cfg.supervisor.panic_hook = Some(flaky_panic_hook);

    let res = run_campaign("CRC32", &w, &cfg).unwrap();

    // The retry produced a classification, so no run is missing…
    assert_eq!(res.total_injections(), 8);
    // …but the anomaly is still on the record, marked non-deterministic.
    assert_eq!(res.anomalies.len(), 1);
    assert!(!res.anomalies[0].deterministic);
    assert_eq!(res.supervision.flaky_recovered, 1);
    assert_eq!(res.supervision.quarantined, 1);
}

#[test]
fn resumed_campaign_reproduces_the_uninterrupted_result() {
    let dir = scratch("resume");
    let w = Workload::Crc32.build(Scale::Tiny);

    // Reference: the same campaign with no journal at all.
    let reference = run_campaign("CRC32", &w, &tiny_cfg()).unwrap();

    // A clean journaled run (binary .seaj by default), which we then cut
    // mid-record to simulate a kill during an append: keep four complete
    // records plus a 7-byte torn fragment of the fifth.
    let mut cfg = tiny_cfg();
    cfg.journal = Some(JournalSpec::new(dir.clone()));
    run_campaign("CRC32", &w, &cfg).unwrap();
    let jpath = journal_file(&dir, "inject", "CRC32");
    let clean = fs::read(&jpath).unwrap();
    let scan = sea_durable::scan(&clean).unwrap();
    assert_eq!(scan.records.len(), 8, "8 outcome records");
    assert_eq!(scan.torn_bytes, 0);
    let tail: usize = scan.records[4..]
        .iter()
        .map(|r| r.len() + RECORD_OVERHEAD)
        .sum();
    let cut = scan.valid_len - tail + 7;
    fs::write(&jpath, &clean[..cut]).unwrap();

    // Resume: the torn fragment is truncated, the four journaled runs are
    // skipped, and the rest re-simulated.
    let mut cfg = tiny_cfg();
    cfg.journal = Some(JournalSpec {
        resume: true,
        ..JournalSpec::new(dir.clone())
    });
    let resumed = run_campaign("CRC32", &w, &cfg).unwrap();

    assert_eq!(resumed.supervision.resumed, 4);
    assert_eq!(resumed.supervision.completed, 8);
    assert_eq!(resumed.per_component, reference.per_component);
    assert_eq!(resumed.anomalies, reference.anomalies);
    assert_eq!(resumed.golden_cycles, reference.golden_cycles);
    let audit = resumed.journal.expect("journal audit");
    assert_eq!(audit.resumed, 4);
    assert_eq!(audit.appended, 4);
    assert_eq!(audit.torn_bytes, 7);
    assert!(!audit.poisoned);

    // Crash consistency: the resumed journal is byte-identical to the
    // uninterrupted one.
    assert_eq!(fs::read(&jpath).unwrap(), clean);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_recovers_the_prefix_before_a_flipped_record_byte() {
    let dir = scratch("bitflip");
    let w = Workload::Crc32.build(Scale::Tiny);

    let mut cfg = tiny_cfg();
    cfg.journal = Some(JournalSpec::new(dir.clone()));
    run_campaign("CRC32", &w, &cfg).unwrap();
    let jpath = journal_file(&dir, "inject", "CRC32");
    let clean = fs::read(&jpath).unwrap();
    let scan = sea_durable::scan(&clean).unwrap();
    // Flip a byte inside the sixth record's payload: the record CRC must
    // stop the walk there, and resume keeps the five records before it.
    let tail: usize = scan.records[5..]
        .iter()
        .map(|r| r.len() + RECORD_OVERHEAD)
        .sum();
    let mut corrupt = clean.clone();
    let victim = scan.valid_len - tail + RECORD_OVERHEAD / 2;
    corrupt[victim] ^= 0x01;
    fs::write(&jpath, &corrupt).unwrap();

    let mut cfg = tiny_cfg();
    cfg.journal = Some(JournalSpec {
        resume: true,
        ..JournalSpec::new(dir.clone())
    });
    let resumed = run_campaign("CRC32", &w, &cfg).unwrap();

    assert_eq!(resumed.supervision.resumed, 5);
    assert_eq!(resumed.supervision.completed, 8);
    let audit = resumed.journal.expect("journal audit");
    assert!(audit.torn_bytes > 0, "the corrupt suffix was truncated");
    assert_eq!(fs::read(&jpath).unwrap(), clean);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_of_an_empty_journal_restarts_cleanly() {
    let dir = scratch("empty");
    let w = Workload::Crc32.build(Scale::Tiny);
    let jpath = journal_file(&dir, "inject", "CRC32");
    fs::write(&jpath, b"").unwrap();

    let mut cfg = tiny_cfg();
    cfg.journal = Some(JournalSpec {
        resume: true,
        ..JournalSpec::new(dir.clone())
    });
    let res = run_campaign("CRC32", &w, &cfg).unwrap();
    assert_eq!(res.supervision.resumed, 0);
    assert_eq!(res.supervision.completed, 8);
    let audit = res.journal.expect("journal audit");
    assert_eq!(audit.appended, 8);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_file_that_is_not_a_seaj_journal() {
    let dir = scratch("notseaj");
    let w = Workload::Crc32.build(Scale::Tiny);
    let jpath = journal_file(&dir, "inject", "CRC32");
    fs::write(&jpath, b"this is not a journal, it is a text file\n").unwrap();

    let mut cfg = tiny_cfg();
    cfg.journal = Some(JournalSpec {
        resume: true,
        ..JournalSpec::new(dir.clone())
    });
    match run_campaign("CRC32", &w, &cfg) {
        Err(CampaignError::Journal(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("corrupt"), "actionable error: {msg}");
        }
        other => panic!("expected a journal corruption error, got {other:?}"),
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_journal_from_a_different_campaign() {
    let dir = scratch("mismatch");
    let w = Workload::Crc32.build(Scale::Tiny);

    let mut cfg = tiny_cfg();
    cfg.journal = Some(JournalSpec::new(dir.clone()));
    run_campaign("CRC32", &w, &cfg).unwrap();

    // Same journal, different seed: the spec sequence would not line up,
    // so the header check must refuse to resume.
    let mut cfg = tiny_cfg();
    cfg.seed ^= 1;
    cfg.journal = Some(JournalSpec {
        resume: true,
        ..JournalSpec::new(dir.clone())
    });
    match run_campaign("CRC32", &w, &cfg) {
        Err(CampaignError::Journal(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("seed"), "mismatch names the field: {msg}");
        }
        other => panic!("expected a journal header error, got {other:?}"),
    }

    let _ = fs::remove_dir_all(&dir);
}

static WORKER_KILLED: AtomicBool = AtomicBool::new(false);

fn kill_worker_once(_worker: usize, _index: u64) {
    if !WORKER_KILLED.swap(true, Ordering::SeqCst) {
        panic!("induced worker death");
    }
}

#[test]
fn dead_worker_is_respawned_and_no_run_is_lost() {
    let w = Workload::Crc32.build(Scale::Tiny);
    let mut cfg = tiny_cfg();
    cfg.threads = 2;
    cfg.supervisor.worker_hook = Some(kill_worker_once);

    let res = run_campaign("CRC32", &w, &cfg).unwrap();

    assert_eq!(res.total_injections(), 8, "the in-flight run was requeued");
    assert_eq!(res.supervision.worker_respawns, 1);
    assert_eq!(res.supervision.lost, 0);
    assert!(res.anomalies.is_empty(), "a worker death is not an anomaly");
}
