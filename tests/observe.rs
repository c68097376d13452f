//! Non-perturbation and early-stop guarantees of `sea-observe`.
//!
//! The observability server promises that watching a campaign never
//! changes it: with `--serve` on (and early-stop off) the outcome journal
//! is byte-identical to a serverless run, and with `--stop-at-margin` the
//! truncated journal is a clean byte-prefix of the full-sample run's.
//! These tests pin both invariants against real (tiny) campaigns and
//! exercise the HTTP surface end to end over a live socket.

use sea_core::{Scale, Study, Workload};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_observe_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn study(journal: &Path) -> Study {
    Study {
        scale: Scale::Tiny,
        samples_per_component: 6,
        journal_dir: Some(journal.to_path_buf()),
        ..Study::default()
    }
}

/// Reads the single journal file a campaign wrote under `dir`.
fn journal_bytes(dir: &Path) -> Vec<u8> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("journal dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one journal file expected: {files:?}");
    std::fs::read(files.pop().expect("file")).expect("journal bytes")
}

/// Minimal HTTP/1.1 GET against the embedded server; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    write!(conn, "GET {path} HTTP/1.1\r\nHost: sea\r\n\r\n").expect("request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

/// With the server on and early-stop off, the journal is byte-identical
/// to a serverless run — and the HTTP surface reports the finished
/// campaign correctly.
#[test]
fn served_campaign_journal_is_byte_identical_and_endpoints_answer() {
    let _guard = sea_core::trace::test_lock();
    let w = Workload::Crc32;
    let built = w.build(Scale::Tiny);

    let plain_dir = temp_dir("plain");
    let cfg = study(&plain_dir).injection_config_for(w);
    sea_core::injection::run_campaign(w.name(), &built, &cfg).expect("plain campaign");

    let served_dir = temp_dir("served");
    let mut cfg = study(&served_dir).injection_config_for(w);
    cfg.serve = Some("127.0.0.1:0".to_string());
    let r = sea_core::injection::run_campaign(w.name(), &built, &cfg).expect("served campaign");

    assert_eq!(
        journal_bytes(&plain_dir),
        journal_bytes(&served_dir),
        "serving a campaign must not change a single journal byte"
    );

    let addr = sea_core::observe::served_addr().expect("server bound");
    assert_eq!(http_get(addr, "/healthz"), "ok\n");

    let status = http_get(addr, "/status");
    let json = sea_core::trace::json::parse(&status).expect("status JSON");
    assert_eq!(
        json.get("state").and_then(|j| j.as_str()),
        Some("done"),
        "{status}"
    );
    assert_eq!(json.get("kind").and_then(|j| j.as_str()), Some("inject"));
    let total: u64 = r.per_component.iter().map(|c| c.counts.total()).sum();
    assert_eq!(json.get("done").and_then(|j| j.as_u64()), Some(total));
    let strata = status.matches("\"label\"").count();
    assert_eq!(strata, r.per_component.len(), "{status}");

    let metrics = http_get(addr, "/metrics");
    assert!(metrics.contains("sea_campaign_runs_done"), "{metrics}");
    assert!(
        metrics.contains("sea_convergence_margin_adjusted_"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sea_supervisor_worker_respawns_total"),
        "{metrics}"
    );

    let tail = http_get(addr, "/journal/tail?lines=3");
    assert_eq!(tail.lines().count(), 3, "{tail}");
    assert!(tail.lines().all(|l| l.starts_with('{')), "{tail}");

    sea_core::observe::shutdown();
    sea_core::observe::publish_status(None);
    sea_core::observe::publish_metrics(None);
    sea_core::observe::publish_journal(None);
}

/// `--stop-at-margin` truncates the journal to a byte-prefix of the
/// full-sample run's, with every component's adjusted margin at or below
/// the threshold.
#[test]
fn early_stopped_journal_is_a_byte_prefix_within_margin() {
    let _guard = sea_core::trace::test_lock();
    let w = Workload::Crc32;
    let built = w.build(Scale::Tiny);
    let threshold = 0.35;

    let full_dir = temp_dir("full");
    let mut cfg = study(&full_dir).injection_config_for(w);
    cfg.samples_per_component = 30;
    sea_core::injection::run_campaign(w.name(), &built, &cfg).expect("full campaign");

    let stopped_dir = temp_dir("stopped");
    let mut cfg = study(&stopped_dir).injection_config_for(w);
    cfg.samples_per_component = 30;
    cfg.stop_at_margin = Some(threshold);
    let r = sea_core::injection::run_campaign(w.name(), &built, &cfg).expect("stopped campaign");

    let full = journal_bytes(&full_dir);
    let stopped = journal_bytes(&stopped_dir);
    assert!(
        stopped.len() < full.len(),
        "early stop did not trigger: {} vs {} bytes",
        stopped.len(),
        full.len()
    );
    assert!(
        full.starts_with(&stopped),
        "early-stopped journal is not a byte-prefix of the full run's"
    );
    for c in &r.per_component {
        assert!(
            c.error_margin() <= threshold + 1e-9,
            "{}: margin {} above stop threshold",
            c.component.short_name(),
            c.error_margin()
        );
        assert!(c.counts.total() > 0, "stratum never sampled");
    }

    // A resume without the stop knob completes the campaign: the prefix
    // journal is a valid restart point, not a corrupt artifact.
    let mut s = study(&stopped_dir);
    s.resume = true;
    let mut cfg = s.injection_config_for(w);
    cfg.samples_per_component = 30;
    let resumed = sea_core::injection::run_campaign(w.name(), &built, &cfg).expect("resume");
    let total: u64 = resumed.per_component.iter().map(|c| c.counts.total()).sum();
    assert_eq!(total, 180, "resume must finish the remaining samples");
    assert!(resumed.supervision.resumed > 0);
}
