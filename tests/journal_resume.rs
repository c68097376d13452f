//! Journal bytes, resume and export, for both journal kinds.
//!
//! Records are committed in index order, so a journal's bytes do not
//! depend on the thread count: at two and four threads, a full run, a run
//! cut mid-record — what a SIGKILL during an append leaves — and resumed,
//! and a margin-stopped run all write exactly the one-thread bytes. And a
//! binary journal's JSONL export is byte-identical to a JSONL-mode journal.

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

/// Runs `s` with its journal in a fresh directory named `name`; returns
/// the results and the journal's bytes.
fn journaled(kind: Kind, mut s: Study, name: &str) -> ((String, u64), Vec<u8>) {
    let dir = temp_dir(&format!("{name}_{kind:?}_t{}", s.threads));
    s.journal_dir = Some(dir.clone());
    let results = kind.run(&s);
    let bytes = std::fs::read(kind.journal(&dir, JournalFormat::Binary)).expect("journal");
    let _ = std::fs::remove_dir_all(&dir);
    (results, bytes)
}

/// Asserts `got == want`, naming the first differing byte rather than
/// printing both journals.
fn same_bytes(got: &[u8], want: &[u8], what: &str) {
    let at = got.iter().zip(want).position(|(g, w)| g != w);
    assert!(
        got == want,
        "{what}: journal differs from the one-thread bytes at byte {:?} ({} vs {} bytes)",
        at.unwrap_or(got.len().min(want.len())),
        got.len(),
        want.len()
    );
}

#[test]
fn a_torn_journal_resumes_at_any_thread_count_to_the_one_thread_bytes() {
    for kind in [Kind::Inject, Kind::Beam] {
        let ((clean, _), want) = journaled(kind, study(1, None), "reference");
        for threads in [2, 4] {
            let dir = temp_dir(&format!("torn_{kind:?}_t{threads}"));
            kind.run(&study(threads, Some(&dir)));
            let path = kind.journal(&dir, JournalFormat::Binary);
            let bytes = std::fs::read(&path).expect("journal");
            same_bytes(&bytes, &want, &format!("{kind:?} full, {threads} threads"));
            std::fs::write(&path, &bytes[..bytes.len() * 6 / 10]).expect("cut");
            let mut s = study(threads, Some(&dir));
            s.resume = true;
            let (resumed, replayed) = kind.run(&s);
            assert!(replayed > 0, "{kind:?}: nothing resumed");
            assert_eq!(clean, resumed, "{kind:?}: resumed results differ");
            let resumed = std::fs::read(&path).expect("journal");
            same_bytes(
                &resumed,
                &want,
                &format!("{kind:?} resumed, {threads} threads"),
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_margin_stop_writes_the_one_thread_prefix_at_any_thread_count() {
    for kind in [Kind::Inject, Kind::Beam] {
        let sized = |threads| Study {
            samples_per_component: 30,
            beam_strikes: 120,
            ..study(threads, None)
        };
        let stopping = |threads| Study {
            stop_at_margin: Some(0.35),
            ..sized(threads)
        };
        let (_, full) = journaled(kind, sized(1), "full");
        let (_, want) = journaled(kind, stopping(1), "stopped");
        assert!(
            want.len() < full.len() && full.starts_with(&want),
            "{kind:?}: the stopped journal is not a strict prefix of the full one"
        );
        for threads in [2, 4] {
            let (_, got) = journaled(kind, stopping(threads), "stopped");
            same_bytes(&got, &want, &format!("{kind:?} stopped, {threads} threads"));
        }
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
