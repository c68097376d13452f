//! The whole benchmark at `--smoke` scale: every workload through its
//! real entry point (fleet worker processes included), oracle checked.

use sea_benchmark::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

const E2E: &str = env!("CARGO_BIN_EXE_sea-bench-e2e");
const LAYERS: &str = env!("CARGO_BIN_EXE_sea-bench-layers");

/// A result file under the benchmark's own (git-ignored) `out/`.
fn out_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("test-{}-{name}", std::process::id()))
}

fn workloads(doc: &Json) -> Vec<Json> {
    match doc.get("workloads") {
        Some(Json::Arr(rows)) => rows.clone(),
        other => panic!("no workloads in the document: {other:?}"),
    }
}

#[test]
fn smoke_runs_all_five_workloads_and_passes_the_oracle() {
    let started = Instant::now();
    let doc_path = out_file("e2e.json");
    let run = Command::new(E2E)
        .args(["--smoke", "--reps", "2", "--out"])
        .arg(&doc_path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert!(
        started.elapsed().as_secs() < 60,
        "--smoke must stay under a minute"
    );
    let text = std::fs::read_to_string(&doc_path).unwrap();
    let doc = json::parse(&text).unwrap();
    let rows = workloads(&doc);
    assert_eq!(rows.len(), 5);
    for row in &rows {
        let name = row.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(row.get("failed").and_then(Json::as_u64), Some(0), "{name}");
        assert!(
            row.get("attempted").and_then(Json::as_u64).unwrap() > 0,
            "{name}"
        );
        for metric in ["runs_per_s", "cpu_ms_per_run", "setup_s"] {
            let m = row.get("metrics").and_then(|m| m.get(metric)).unwrap();
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name} {metric}"
            );
            assert_eq!(
                m.get("n").and_then(Json::as_u64),
                Some(2),
                "{name} {metric}"
            );
        }
        // Tiny-scale runs are not blessed: the oracle is the reference
        // tier itself, except where the workload *is* the reference.
        let oracle = row.get("oracle").and_then(Json::as_str).unwrap();
        let want = if name == "fig4-crc32-default" {
            "self"
        } else {
            "differential"
        };
        assert_eq!(oracle, want, "{name}");
    }
    for key in ["nproc", "rustc", "commit", "seed", "reps", "smoke"] {
        assert!(
            doc.get("header").and_then(|h| h.get(key)).is_some(),
            "header.{key}"
        );
    }

    let _ = std::fs::remove_file(doc_path);
}

/// A one-workload result document with the given `runs_per_s` value and
/// quartiles, everything else steady.
fn result_doc(value: f64, q1: f64, q3: f64, fail_frac: f64) -> String {
    let steady = |v: f64| format!(r#"{{"value":{v},"n":5,"median":{v},"q1":{v},"q3":{v}}}"#);
    format!(
        r#"{{"bench":"sea-bench-e2e","schema":1,"header":{{"nproc":2,"seed":0,"reps":5,"smoke":false}},
"workloads":[{{"name":"w","metrics":{{
"runs_per_s":{{"value":{value},"n":5,"median":{q1},"q1":{q1},"q3":{q3}}},
"cpu_ms_per_run":{},"setup_s":{},"fail_frac":{{"value":{fail_frac}}}}}}}]}}"#,
        steady(10.0),
        steady(0.015)
    )
}

fn compare(old: &str, new: &str) -> (Option<i32>, String) {
    let (old_path, new_path) = (out_file("old.json"), out_file("new.json"));
    std::fs::write(&old_path, old).unwrap();
    std::fs::write(&new_path, new).unwrap();
    let out = Command::new(E2E)
        .arg("compare")
        .args([&old_path, &new_path])
        .output()
        .unwrap();
    for p in [old_path, new_path] {
        let _ = std::fs::remove_file(p);
    }
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn compare_says_ok_regressed_or_unresolved() {
    let base = result_doc(100.0, 98.0, 100.0, 0.0);
    // The same numbers: clean.
    let (code, table) = compare(&base, &base);
    assert_eq!(code, Some(0), "{table}");
    assert!(
        !table.contains("regressed") && !table.contains("unresolved"),
        "{table}"
    );
    // Within the bound: still clean.
    let (code, table) = compare(&base, &result_doc(80.0, 78.0, 80.0, 0.0));
    assert_eq!(code, Some(0), "{table}");
    // Throughput halved: one regressed row, non-zero exit.
    let (code, table) = compare(&base, &result_doc(50.0, 49.0, 50.0, 0.0));
    assert_eq!(code, Some(1), "{table}");
    assert_eq!(table.matches("regressed").count(), 1, "{table}");
    // A parent whose own reps scatter more than the bound resolves nothing.
    let (code, table) = compare(
        &result_doc(100.0, 60.0, 100.0, 0.0),
        &result_doc(50.0, 49.0, 50.0, 0.0),
    );
    assert_eq!(code, Some(0), "{table}");
    assert!(table.contains("unresolved"), "{table}");
    // Any rise of fail_frac regresses, whatever the timings say.
    let (code, table) = compare(&base, &result_doc(100.0, 98.0, 100.0, 0.01));
    assert_eq!(code, Some(1), "{table}");
    // A set-up 25 % slower but only 4 ms slower is under the floor.
    let slower = base.replace(r#""setup_s":{"value":0.015"#, r#""setup_s":{"value":0.019"#);
    let (code, table) = compare(&base, &slower);
    assert_eq!(code, Some(0), "{table}");
}

#[test]
fn the_traced_run_recomposes_every_verdict_and_its_shares_sum_to_100() {
    let doc_path = out_file("layers.json");
    let run = Command::new(LAYERS)
        .args(["--smoke", "--out"])
        .arg(&doc_path)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&doc_path).unwrap()).unwrap();
    let rows = workloads(&doc);
    assert_eq!(rows.len(), 5);
    for row in &rows {
        let name = row.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(
            row.get("correct").and_then(Json::as_bool),
            Some(true),
            "{name}"
        );
        assert_eq!(
            row.get("mismatched").and_then(Json::as_u64),
            Some(0),
            "{name}"
        );
        assert!(
            row.get("compared").and_then(Json::as_u64).unwrap() > 0,
            "{name}"
        );
        let sum = row.get("share_sum_pct").and_then(Json::as_f64).unwrap();
        assert!((sum - 100.0).abs() < 0.01, "{name}: shares sum to {sum}");
        let layers = row.get("layers").unwrap();
        let value = |m: &str| {
            layers
                .get(m)
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64)
        };
        assert!(value("microarch.golden_cycles").unwrap() > 0.0, "{name}");
        // A layer off the workload's path reads 0.
        let fleet = value("fleet.first_record_ms").unwrap();
        assert_eq!(fleet > 0.0, name == "fleet-matmul-2w", "{name}");
        assert_eq!(
            value("beam.setup_ms").unwrap() > 0.0,
            name == "fig3-qsort",
            "{name}"
        );
    }
    let _ = std::fs::remove_file(doc_path);
}
