//! Kill-torture: SIGKILL a real journaled campaign child process at
//! arbitrary points, resume it, and require the final journals to be
//! byte-identical to an uninterrupted run's. This is the crash-consistency
//! contract of the `.seaj` format end to end — process death mid-append
//! must never cost more than the torn record the resume truncates.
//!
//! The CI `crash-torture` job runs the same loop from bash with more
//! cycles and truly random kill points; this in-tree version keeps a
//! deterministic spread of kill delays so it is reproducible offline.
//! Both run the campaign with `--reference`: the kills fire on a timer,
//! and the default speed tiers finish a tiny campaign before most of them
//! would land.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_torture_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fig4(journal: &Path) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_fig4"));
    c.args([
        "--tiny",
        "--samples",
        "8",
        "--strikes",
        "6",
        "--suite",
        "crc32",
    ])
    .arg("--journal")
    .arg(journal)
    .args(["--resume", "--reference"])
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    c
}

fn export(journal: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_journal"))
        .arg("export")
        .arg(journal)
        .output()
        .unwrap();
    assert!(out.status.success(), "journal export failed: {out:?}");
    out.stdout
}

#[test]
fn sigkilled_campaigns_resume_to_the_uninterrupted_journal() {
    let reference = scratch("reference");
    let tortured = scratch("tortured");

    // Uninterrupted reference run.
    let status = fig4(&reference).status().unwrap();
    assert!(status.success(), "reference run failed");

    // Torture: spawn the same campaign against its own journal dir and
    // SIGKILL it after increasing delays, then resume with a fresh child.
    // Early kills land before the journal header; late ones mid-stream.
    for delay_ms in [40u64, 120, 250, 500] {
        let mut child = fig4(&tortured).spawn().unwrap();
        std::thread::sleep(Duration::from_millis(delay_ms));
        // Still running: kill it mid-campaign. `kill` is SIGKILL on Unix,
        // so no atexit/Drop flushing softens the crash. A child that
        // finished before the delay elapsed degenerates this cycle to an
        // uninterrupted run, which must also resume cleanly.
        if child.try_wait().unwrap().is_none() {
            child.kill().unwrap();
            let _ = child.wait();
        }
    }

    // Final uninterrupted pass completes whatever survived the kills.
    let status = fig4(&tortured).status().unwrap();
    assert!(status.success(), "post-torture resume failed");

    // The contract: every journal the tortured directory ends up with is
    // export-identical to the uninterrupted reference.
    let mut journals: Vec<_> = std::fs::read_dir(&reference)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name())
        .collect();
    journals.sort();
    assert!(!journals.is_empty(), "reference run journaled nothing");
    for name in &journals {
        let a = export(&reference.join(name));
        let b = export(&tortured.join(name));
        assert!(!a.is_empty());
        assert_eq!(
            a,
            b,
            "journal {} diverged after kill-torture",
            name.to_string_lossy()
        );
        // Stronger still: the resumed container itself is byte-identical,
        // torn tail truncated and sequence numbers continued in place.
        assert_eq!(
            std::fs::read(reference.join(name)).unwrap(),
            std::fs::read(tortured.join(name)).unwrap(),
            "raw container {} diverged after kill-torture",
            name.to_string_lossy()
        );
    }

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&tortured);
}
