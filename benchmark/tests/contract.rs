//! `BENCHMARK.json`, the metric tables and the workload files must tell
//! one story; the workload files must be specs the library accepts.

use sea_benchmark::json::{self, Json};
use sea_benchmark::metrics::{END_TO_END, LAYERS};
use sea_benchmark::oracle::Expected;
use sea_benchmark::workload::{Variant, WorkloadFile};
use sea_core::StudySpec;
use std::path::Path;

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = bench_dir().join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json is JSON")
}

fn rows(doc: &Json, key: &str) -> Vec<Json> {
    match doc.get(key) {
        Some(Json::Arr(rows)) => rows.clone(),
        other => panic!("BENCHMARK.json: {key} is {other:?}"),
    }
}

fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {row:?}"))
}

#[test]
fn benchmark_json_lists_the_workload_files() {
    let files = WorkloadFile::load_dir(&bench_dir().join("workloads")).unwrap();
    let on_disk: Vec<&str> = files.iter().map(|w| w.name.as_str()).collect();
    let doc = benchmark_json();
    let listed: Vec<String> = rows(&doc, "workloads")
        .iter()
        .map(|r| text(r, "name").to_string())
        .collect();
    assert_eq!(listed, on_disk);
    assert_eq!(
        on_disk,
        [
            "fig3-qsort",
            "fig4-crc32",
            "fig4-crc32-default",
            "fig4-matmul-t2",
            "fleet-matmul-2w"
        ]
    );
}

#[test]
fn benchmark_json_repeats_the_metric_tables() {
    let doc = benchmark_json();
    let e2e = rows(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (row, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(row, "name"), m.name);
        assert_eq!(text(row, "unit"), m.unit);
        assert_eq!(text(row, "better") == "higher", m.higher_is_better);
        assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound <= 0.25);
    }
    assert!(e2e
        .iter()
        .any(|r| text(r, "name") == "setup_s" && text(r, "unit") == "s"));
    let layers = rows(&doc, "per_layer");
    assert_eq!(layers.len(), LAYERS.len());
    for (row, m) in layers.iter().zip(&LAYERS) {
        assert_eq!(text(row, "name"), m.name);
        assert_eq!(text(row, "unit"), m.unit);
        assert_eq!(text(row, "better"), m.better);
    }
}

#[test]
fn every_workload_file_is_a_spec_the_library_accepts() {
    let dir = bench_dir().join("workloads");
    for w in WorkloadFile::load_dir(&dir).unwrap() {
        // The file as written, `bench` member and all.
        let raw = std::fs::read_to_string(dir.join(format!("{}.json", w.name))).unwrap();
        let spec = StudySpec::from_json(&raw).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(spec.suite.len(), 1, "{}: one guest per workload", w.name);
        // Canonical rendering is a fixed point.
        let canonical = spec.to_json();
        assert_eq!(
            StudySpec::from_json(&canonical).unwrap().to_json(),
            canonical
        );
        // What the program receives says the same as the file, plus seed.
        let seed = w.seed_for(0);
        let sent = w.spec_text(&Variant {
            seed,
            runs: w.runs,
            reference: false,
            tiny: false,
        });
        let mut with_seed = spec.clone();
        with_seed.study.seed = seed;
        assert_eq!(
            StudySpec::from_json(&sent).unwrap().to_json(),
            with_seed.to_json()
        );
        // The oracle's variant is the library default: no speed keys.
        let reference = StudySpec::from_json(&w.spec_text(&Variant {
            seed,
            runs: w.runs,
            reference: true,
            tiny: false,
        }))
        .unwrap();
        assert!(!reference.study.fast_path && !reference.study.warp);
        assert_eq!(
            (reference.study.checkpoint_interval, reference.study.threads),
            (0, 1)
        );
    }
}

#[test]
fn every_study_seed_of_every_workload_is_blessed() {
    let files = WorkloadFile::load_dir(&bench_dir().join("workloads")).unwrap();
    let expected = Expected::load(&bench_dir().join("expected.json")).unwrap();
    for w in &files {
        assert_eq!(w.seeds.len(), 8, "{}", w.name);
        for &seed in &w.seeds {
            let blessed = expected
                .get(&w.oracle, seed)
                .unwrap_or_else(|| panic!("{} has no blessed outcome at {seed:#x}", w.name));
            assert_eq!(blessed.runs, w.planned(w.runs), "{} at {seed:#x}", w.name);
        }
        // A workload that borrows another's oracle runs the same studies.
        let owner = files.iter().find(|o| o.name == w.oracle).unwrap();
        assert_eq!((&w.seeds, w.runs), (&owner.seeds, owner.runs), "{}", w.name);
    }
}

#[test]
fn a_spec_key_the_library_no_longer_knows_is_ignored() {
    let spec = StudySpec::from_json(
        r#"{"suite":["CRC32"],"threads":1,"a_knob_deleted_by_a_later_pr":true,"bench":{"kind":"inject"}}"#,
    )
    .unwrap();
    assert_eq!(spec.study.threads, 1);
}
