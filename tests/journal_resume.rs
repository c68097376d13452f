//! Journal resume and export, for both journal kinds.
//!
//! A campaign or beam session whose journal is cut mid-record — what a
//! SIGKILL during an append leaves — resumes at two threads to the same
//! tallies and outcomes as a clean run. Records land in completion order
//! at two threads, so results are compared, not bytes. And a binary
//! journal's JSONL export is byte-identical to a JSONL-mode journal.

use sea_core::durable::export_jsonl;
use sea_core::injection::supervisor::journal_file;
use sea_core::{JournalFormat, Scale, Study, Workload};
use std::path::{Path, PathBuf};

const W: Workload = Workload::Crc32;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sea_journal_resume_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn study(threads: usize, journal: Option<&Path>) -> Study {
    Study {
        scale: Scale::Tiny,
        samples_per_component: 6,
        beam_strikes: 60,
        threads,
        journal_dir: journal.map(Path::to_path_buf),
        ..Study::default()
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Inject,
    Beam,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Inject => "inject",
            Kind::Beam => "beam",
        }
    }

    /// Runs the study's campaign or session; returns its outcomes and how
    /// many records it replayed from the journal.
    fn run(self, s: &Study) -> (String, u64) {
        let built = W.build(s.scale);
        match self {
            Kind::Inject => {
                let cfg = s.injection_config_for(W);
                let r = sea_core::injection::run_campaign(W.name(), &built, &cfg).expect("run");
                (format!("{:?}", r.per_component), r.supervision.resumed)
            }
            Kind::Beam => {
                let cfg = s.beam_config_for(W);
                let r = sea_core::beam::run_session(W.name(), &built, &cfg, s.beam_strikes)
                    .expect("session");
                let tallies = format!("{:?} {:?} {:e}", r.counts, r.by_origin, r.fluence);
                (tallies, r.supervision.resumed)
            }
        }
    }

    fn journal(self, dir: &Path, format: JournalFormat) -> PathBuf {
        journal_file(dir, self.name(), W.name(), format)
    }
}

#[test]
fn a_torn_journal_resumes_at_two_threads_to_the_clean_results() {
    for kind in [Kind::Inject, Kind::Beam] {
        let (clean, _) = kind.run(&study(2, None));
        let dir = temp_dir(&format!("torn_{kind:?}"));
        kind.run(&study(2, Some(&dir)));
        let path = kind.journal(&dir, JournalFormat::Binary);
        let bytes = std::fs::read(&path).expect("journal");
        std::fs::write(&path, &bytes[..bytes.len() * 6 / 10]).expect("cut");
        let mut s = study(2, Some(&dir));
        s.resume = true;
        let (resumed, replayed) = kind.run(&s);
        assert!(replayed > 0, "{kind:?}: nothing resumed");
        assert_eq!(clean, resumed, "{kind:?}: resumed results differ");
    }
}

#[test]
fn a_binary_journal_exports_to_the_jsonl_journal_bytes() {
    for kind in [Kind::Inject, Kind::Beam] {
        let mut logs = Vec::new();
        for format in [JournalFormat::Binary, JournalFormat::Jsonl] {
            let dir = temp_dir(&format!("{format:?}_{kind:?}"));
            let mut s = study(1, Some(&dir));
            s.journal_format = format;
            kind.run(&s);
            logs.push(std::fs::read(kind.journal(&dir, format)).expect("journal"));
        }
        let exported = export_jsonl(&logs[0]).expect("binary journal");
        assert_eq!(exported, logs[1], "{kind:?}: export differs from JSONL");
    }
}
