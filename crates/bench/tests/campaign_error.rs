//! A campaign that cannot start ends the binary with one line of error on
//! stderr and exit status 1 — no panic, no backtrace — and touches nothing
//! it refused.

use std::process::Command;

#[test]
fn a_refused_quarantine_is_one_error_line_and_exit_status_1() {
    let dir = std::env::temp_dir().join(format!("sea_campaign_error_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("notes.txt");
    let body = "not a journal, but somebody's notes\n";
    std::fs::write(&text, body).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
        .args([
            "--tiny",
            "--suite",
            "crc32",
            "--samples",
            "1",
            "--quarantine",
        ])
        .arg(&text)
        .output()
        .unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let naming: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("not a .seaj journal"))
        .collect();
    assert_eq!(naming.len(), 1, "{stderr}");
    assert!(naming[0].starts_with("error: CRC32: "), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "no table for a campaign that never ran"
    );
    assert_eq!(std::fs::read_to_string(&text).unwrap(), body);
    std::fs::remove_dir_all(&dir).unwrap();
}
