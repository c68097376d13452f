//! The fleet merge contract, end to end over real processes: a campaign
//! sharded across worker *processes* by the `fleet` daemon must merge to
//! a journal byte-identical to a single-process reference-tier run of the
//! same spec — including when a worker is SIGKILLed mid-campaign (its
//! blocks are stolen and the byte-identical duplicate records are
//! deduplicated), and across a daemon kill + restart (the new daemon
//! resumes off the shard journals without re-running completed work).

use sea_core::trace::json::{self, Json};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SUITE: &str = "CRC32";
const SLUG: &str = "crc32";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_fleet_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The study spec the fleet runs. A study the test interrupts is pinned
/// to the reference tier, so it is still running when the kill lands; on
/// the default speed tiers a worker finishes a tiny study first.
fn spec_json(samples: u32, interrupted: bool) -> String {
    let tier = if interrupted {
        r#","fast_path":false,"warp":false,"checkpoint_interval":0"#
    } else {
        ""
    };
    format!(
        r#"{{"scale":"tiny","samples_per_component":{samples},"threads":1,"suite":["{SUITE}"]{tier}}}"#
    )
}

/// The single-process reference journal: the same spec through the
/// ordinary `table4` campaign path with `--threads 1`, on the reference
/// tier (the fleet's workers run the default speed tiers).
fn reference_journal(dir: &Path, samples: u32) -> Vec<u8> {
    let status = Command::new(env!("CARGO_BIN_EXE_table4"))
        .args(["--tiny", "--threads", "1", "--reference", "--suite", SLUG])
        .arg("--samples")
        .arg(samples.to_string())
        .arg("--journal")
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "reference campaign failed");
    std::fs::read(dir.join(format!("{SLUG}.inject.seaj"))).unwrap()
}

struct Fleet {
    daemon: Child,
    worker_addr: String,
    http_addr: String,
}

impl Fleet {
    /// Start a daemon with `workers` self-spawned worker processes and
    /// scrape its bound addresses off stdout.
    fn start(root: &Path, workers: u32) -> Fleet {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .arg("serve")
            .arg("--root")
            .arg(root)
            .args(["--workers", &workers.to_string(), "--watchdog-ms", "60000"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut lines = BufReader::new(daemon.stdout.take().unwrap()).lines();
        let worker_line = lines.next().unwrap().unwrap();
        let http_line = lines.next().unwrap().unwrap();
        let worker_addr = worker_line
            .strip_prefix("fleet worker socket ")
            .unwrap_or_else(|| panic!("unexpected daemon output: {worker_line}"))
            .to_string();
        let http_addr = http_line
            .strip_prefix("fleet http http://")
            .and_then(|s| s.strip_suffix('/'))
            .unwrap_or_else(|| panic!("unexpected daemon output: {http_line}"))
            .to_string();
        Fleet {
            daemon,
            worker_addr,
            http_addr,
        }
    }

    /// Submit a spec and return the study id (without waiting).
    fn submit(&self, spec: &str) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(["submit", "--to", &self.http_addr, "--spec-json", spec])
            .stderr(Stdio::null())
            .output()
            .unwrap();
        assert!(out.status.success(), "submit failed: {out:?}");
        let ack = String::from_utf8(out.stdout).unwrap();
        let id = ack
            .split("\"id\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or_else(|| panic!("no id in ack: {ack}"))
            .to_string();
        assert_eq!(id.len(), 16, "{ack}");
        id
    }

    /// Block until the study reports done (panics on failed/timeout).
    fn wait_done(&self, id: &str, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            assert!(Instant::now() < deadline, "study {id} timed out");
            if let Ok(doc) = http_get(&self.http_addr, &format!("/studies/{id}")) {
                let doc = String::from_utf8_lossy(&doc);
                if doc.contains("\"state\":\"done\"") {
                    return;
                }
                assert!(!doc.contains("\"state\":\"failed\""), "study failed: {doc}");
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    fn spawn_worker(&self) -> Child {
        Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(["worker", "--connect", &self.worker_addr])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.daemon.kill();
        let _ = self.daemon.wait();
    }
}

/// Minimal HTTP GET returning the raw body bytes (journals are binary).
fn http_get(addr: &str, path: &str) -> Result<Vec<u8>, std::io::Error> {
    let mut conn = std::net::TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(conn, "GET {path} HTTP/1.1\r\nHost: sea\r\n\r\n")?;
    let mut response = Vec::new();
    conn.read_to_end(&mut response)?;
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no header terminator"))?;
    if !response.starts_with(b"HTTP/1.1 200") {
        return Err(std::io::Error::other("non-200"));
    }
    Ok(response[split + 4..].to_vec())
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

fn shard_dirs(study_dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(study_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
        .map(|e| e.path())
        .collect();
    out.sort();
    out
}

/// Default-tier workers (pruning and the reconvergence cut armed) merge to
/// the reference-tier journal, and the study API reports the study done.
#[test]
fn sharded_fleet_merge_is_byte_identical_to_single_process() {
    let root = scratch("merge");
    let reference = reference_journal(&root.join("ref"), 6);

    let fleet = Fleet::start(&root.join("fleet"), 3);
    let id = fleet.submit(&spec_json(6, false));
    fleet.wait_done(&id, Duration::from_secs(120));

    let study_dir = root.join("fleet").join(&id);
    let merged_path = study_dir.join("merged").join(format!("{SLUG}.inject.seaj"));
    let merged = std::fs::read(&merged_path).unwrap();
    assert_eq!(
        merged, reference,
        "merged journal != single-process journal"
    );
    assert_eq!(
        export(&merged_path),
        export(&root.join("ref").join(format!("{SLUG}.inject.seaj"))),
        "lossless export diverged"
    );
    assert!(
        shard_dirs(&study_dir).len() >= 2,
        "campaign was not sharded across >=2 worker processes"
    );
    // The merged journal is also what /studies/{id}/journal serves.
    let downloaded = http_get(&fleet.http_addr, &format!("/studies/{id}/journal")).unwrap();
    assert_eq!(downloaded, merged, "HTTP download diverged");

    // The study API: the study, its one merged suite row, and the list.
    let doc = http_get(&fleet.http_addr, &format!("/studies/{id}")).unwrap();
    let doc = json::parse(&String::from_utf8(doc).unwrap()).unwrap();
    let row = match doc.get("suite") {
        Some(Json::Arr(rows)) if rows.len() == 1 => &rows[0],
        _ => panic!("not one suite row: {doc:?}"),
    };
    let count = |k| row.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(row.get("merged").and_then(Json::as_bool), Some(true));
    assert!(
        count("done") == count("total") && count("done") > 0,
        "{row:?}"
    );
    let list = String::from_utf8(http_get(&fleet.http_addr, "/studies").unwrap()).unwrap();
    assert!(
        list.contains(&format!(r#"{{"id":"{id}","state":"done""#)),
        "{list}"
    );

    // The workers ran armed: their telemetry reports pruned strikes.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !String::from_utf8_lossy(&http_get(&fleet.http_addr, "/metrics").unwrap_or_default())
        .lines()
        .filter_map(|l| l.strip_prefix("sea_fleet_campaign_dead_pruned_total "))
        .any(|v| v.trim().parse::<f64>().unwrap() > 0.0)
    {
        assert!(Instant::now() < deadline, "no worker pruned a strike");
        std::thread::sleep(Duration::from_millis(50));
    }

    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killing_a_worker_mid_campaign_still_merges_byte_identical() {
    let root = scratch("kill");
    let reference = reference_journal(&root.join("ref"), 10);

    // No self-spawned workers: the test owns both worker processes so it
    // can SIGKILL one deterministically.
    let fleet = Fleet::start(&root.join("fleet"), 0);
    let id = fleet.submit(&spec_json(10, true));
    let mut victim = fleet.spawn_worker();
    let survivor = fleet.spawn_worker();

    // Kill the victim as soon as any shard journal exists, i.e. genuinely
    // mid-campaign.
    let study_dir = root.join("fleet").join(&id);
    let merged_path = study_dir.join("merged").join(format!("{SLUG}.inject.seaj"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        let journaled = shard_dirs(&study_dir)
            .iter()
            .any(|d| d.join(format!("{SLUG}.inject.seaj")).exists());
        if journaled {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    victim.kill().unwrap();
    let _ = victim.wait();
    assert!(
        !merged_path.exists(),
        "the kill landed after the merge, so it tested nothing; raise samples"
    );

    fleet.wait_done(&id, Duration::from_secs(120));
    let mut survivor = survivor;
    let _ = survivor.wait();

    let merged = std::fs::read(&merged_path).unwrap();
    assert_eq!(
        merged, reference,
        "merged journal != single-process journal after worker kill"
    );

    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn daemon_restart_resumes_without_rerunning_completed_blocks() {
    let root = scratch("restart");
    let reference = reference_journal(&root.join("ref"), 10);

    let fleet_root = root.join("fleet");
    let id;
    {
        let fleet = Fleet::start(&fleet_root, 0);
        id = fleet.submit(&spec_json(10, true));
        let mut worker = fleet.spawn_worker();
        // Let the worker journal some — but not all — of the campaign.
        let study_dir = fleet_root.join(&id);
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            let some_done = shard_dirs(&study_dir)
                .iter()
                .map(|d| sea_fleet::scan_done(&d.join(format!("{SLUG}.inject.seaj"))).len())
                .sum::<usize>()
                > 0;
            if some_done {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        worker.kill().unwrap();
        let _ = worker.wait();
        // Daemon dies too (SIGKILL via Drop) — half-finished study on disk.
    }
    let study_dir = fleet_root.join(&id);
    let done_before: Vec<u64> = shard_dirs(&study_dir)
        .iter()
        .flat_map(|d| sea_fleet::scan_done(&d.join(format!("{SLUG}.inject.seaj"))))
        .collect();
    assert!(
        !study_dir
            .join("merged")
            .join(format!("{SLUG}.inject.seaj"))
            .exists(),
        "study completed before the restart could interrupt it; raise samples"
    );

    // Restart: a fresh daemon over the same root recovers the study and
    // resumes; a fresh worker finishes only the outstanding work.
    let fleet = Fleet::start(&fleet_root, 0);
    let resubmit = fleet.submit(&spec_json(10, true));
    assert_eq!(resubmit, id, "study identity is the canonical spec hash");
    let worker = fleet.spawn_worker();
    fleet.wait_done(&id, Duration::from_secs(120));
    let mut worker = worker;
    let _ = worker.wait();

    let merged_path = study_dir.join("merged").join(format!("{SLUG}.inject.seaj"));
    assert_eq!(
        std::fs::read(&merged_path).unwrap(),
        reference,
        "merged journal != single-process journal after daemon restart"
    );
    // Nothing journaled before the restart was re-executed: each of those
    // indices appears exactly once across all shard journals.
    let mut counts = std::collections::HashMap::new();
    for d in shard_dirs(&study_dir) {
        for i in sea_fleet::scan_done(&d.join(format!("{SLUG}.inject.seaj"))) {
            *counts.entry(i).or_insert(0u32) += 1;
        }
    }
    for i in &done_before {
        assert_eq!(
            counts.get(i),
            Some(&1),
            "index {i} was re-executed after the restart"
        );
    }

    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}
