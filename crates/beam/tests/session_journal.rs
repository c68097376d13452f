//! Beam strike logs are pinned byte for byte.
//!
//! A journaled beam session writes one `.seaj` strike log. These tests pin
//! its bytes with a committed hash and hold the invariants a session
//! promises about them: checkpointing never changes a byte, a log cut
//! mid-record resumes to the uninterrupted log with the same tallies and
//! fluence, and `stop_at_margin` leaves a byte-prefix whose fluence is
//! scaled to the strikes actually sampled. All sessions run on one worker
//! thread, so records land in strike-index order.

use sea_beam::{run_session, BeamConfig, BeamResult};
use sea_injection::supervisor::{fnv1a, journal_file};
use sea_injection::JournalSpec;
use sea_workloads::{BuiltWorkload, Scale, Workload};
use std::path::{Path, PathBuf};

const STRIKES: u32 = 120;

/// FNV-1a of each workload's full strike log at `STRIKES` tiny strikes.
const PINNED: [(Workload, u64); 2] = [
    (Workload::Qsort, 0x6e7c_2ee5_4340_088a),
    (Workload::MatMul, 0xcaca_8c8a_b15a_d199),
];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_beam_journal_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn config(journal: &Path) -> BeamConfig {
    BeamConfig {
        threads: 1,
        journal: Some(JournalSpec::new(journal)),
        ..BeamConfig::default()
    }
}

fn log_path(dir: &Path, w: Workload) -> PathBuf {
    journal_file(dir, "beam", w.name())
}

fn session(w: Workload, built: &BuiltWorkload, cfg: &BeamConfig) -> (BeamResult, Vec<u8>) {
    let r = run_session(w.name(), built, cfg, STRIKES).expect("session");
    let dir = &cfg.journal.as_ref().expect("journaled").dir;
    let bytes = std::fs::read(log_path(dir, w)).expect("strike log");
    (r, bytes)
}

fn assert_same_tallies(a: &BeamResult, b: &BeamResult) {
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.by_origin, b.by_origin);
    assert_eq!(a.fluence.to_bits(), b.fluence.to_bits());
}

#[test]
fn strike_logs_match_their_pinned_hashes() {
    for (w, pinned) in PINNED {
        let built = w.build(Scale::Tiny);
        let (r, bytes) = session(w, &built, &config(&temp_dir(&format!("pin_{w}"))));
        assert_eq!(r.counts.total(), u64::from(STRIKES));
        assert_eq!(
            fnv1a(&bytes),
            pinned,
            "{w}: strike log hash {:#018x}",
            fnv1a(&bytes)
        );
    }
}

#[test]
fn checkpointed_sessions_write_the_from_reset_log() {
    for (w, _) in PINNED {
        let built = w.build(Scale::Tiny);
        let (reset, reset_log) = session(w, &built, &config(&temp_dir(&format!("reset_{w}"))));
        let mut cfg = config(&temp_dir(&format!("ckpt_{w}")));
        cfg.checkpoint_interval = 8_192;
        cfg.fast_path = true;
        let (ckpt, ckpt_log) = session(w, &built, &cfg);
        assert!(ckpt.checkpoints.is_some_and(|s| s.epochs > 0), "{w}");
        assert_eq!(reset_log, ckpt_log, "{w}: checkpointing changed the log");
        assert_same_tallies(&reset, &ckpt);
    }
}

#[test]
fn a_log_cut_mid_record_resumes_to_the_full_log() {
    for (w, _) in PINNED {
        let built = w.build(Scale::Tiny);
        let (full, full_log) = session(w, &built, &config(&temp_dir(&format!("full_{w}"))));
        let dir = temp_dir(&format!("cut_{w}"));
        std::fs::write(log_path(&dir, w), &full_log[..full_log.len() * 6 / 10]).expect("cut");
        let mut cfg = config(&dir);
        cfg.journal.as_mut().expect("journaled").resume = true;
        let (resumed, resumed_log) = session(w, &built, &cfg);
        let audit = resumed.journal.expect("journal audit");
        assert!(audit.resumed > 0 && audit.appended > 0, "{w}: {audit:?}");
        assert_eq!(full_log, resumed_log, "{w}: resumed log differs");
        assert_same_tallies(&full, &resumed);
    }
}

#[test]
fn margin_stop_leaves_a_prefix_with_scaled_fluence() {
    for (w, _) in PINNED {
        let built = w.build(Scale::Tiny);
        let (full, full_log) = session(w, &built, &config(&temp_dir(&format!("whole_{w}"))));
        let mut cfg = config(&temp_dir(&format!("stop_{w}")));
        cfg.stop_at_margin = Some(0.3);
        let (stopped, stopped_log) = session(w, &built, &cfg);
        assert!(
            stopped_log.len() < full_log.len(),
            "{w}: the margin stop never fired"
        );
        assert!(full_log.starts_with(&stopped_log), "{w}: not a byte-prefix");
        let sampled = stopped.counts.total() as f64;
        let expected = full.fluence * sampled / f64::from(STRIKES);
        assert!(
            (stopped.fluence - expected).abs() <= 1e-12 * expected,
            "{w}: fluence {} for {sampled} strikes, expected {expected}",
            stopped.fluence
        );
    }
}
