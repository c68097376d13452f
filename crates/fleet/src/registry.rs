//! The on-disk study registry.
//!
//! Everything the daemon knows lives under one root directory, so a
//! restarted daemon recovers the full picture from a filesystem scan:
//!
//! ```text
//! <root>/
//!   <study-id>/spec.json            # canonical spec (identity)
//!   <study-id>/shard-<n>/<slug>.inject.seaj   # one journal per worker per workload
//!   <study-id>/merged/<slug>.inject.seaj      # deterministic merge output
//! ```
//!
//! A study's identity *is* the FNV-1a hash of its canonical spec
//! document, so resubmitting the same spec is idempotent — the daemon
//! answers with the existing study instead of queueing a duplicate.

use sea_core::StudySpec;
use sea_injection::supervisor::{fnv1a, journal_file};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Derive a study's identifier from its canonical spec rendering.
pub fn study_id(canonical_spec: &str) -> String {
    format!("{:016x}", fnv1a(canonical_spec.as_bytes()))
}

/// Path helpers over one registry root.
#[derive(Clone, Debug)]
pub struct Registry {
    root: PathBuf,
}

impl Registry {
    /// A registry rooted at `root` (created on first persist).
    pub fn new(root: impl Into<PathBuf>) -> Registry {
        Registry { root: root.into() }
    }

    /// The registry root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// One study's directory.
    pub fn study_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// One study's canonical spec file.
    pub fn spec_path(&self, id: &str) -> PathBuf {
        self.study_dir(id).join("spec.json")
    }

    /// One shard's journal directory within a study.
    pub fn shard_dir(&self, id: &str, shard: u32) -> PathBuf {
        self.study_dir(id).join(format!("shard-{shard}"))
    }

    /// The merged journal for one workload of a study.
    pub fn merged_path(&self, id: &str, workload: &str) -> PathBuf {
        journal_file(&self.study_dir(id).join("merged"), "inject", workload)
    }

    /// Persist a study's canonical spec, creating its directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist(&self, id: &str, canonical_spec: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(self.study_dir(id))?;
        std::fs::write(self.spec_path(id), canonical_spec)
    }

    /// Load every persisted study: `(id, canonical spec)`, sorted by id so
    /// recovery order is deterministic. Unreadable entries are skipped —
    /// a half-written spec from a crash must not wedge the daemon.
    pub fn load_all(&self) -> Vec<(String, String)> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for e in entries.flatten() {
            let id = e.file_name().to_string_lossy().to_string();
            let Ok(text) = std::fs::read_to_string(self.spec_path(&id)) else {
                continue;
            };
            // Only trust entries whose directory name matches their spec
            // hash — anything else is foreign or torn.
            if StudySpec::from_json(&text)
                .map(|s| study_id(&s.to_json()) == id)
                .unwrap_or(false)
            {
                out.push((id, text));
            }
        }
        out.sort();
        out
    }

    /// Numbered shard directories that already exist for a study.
    pub fn existing_shards(&self, id: &str) -> Vec<u32> {
        let Ok(entries) = std::fs::read_dir(self.study_dir(id)) else {
            return Vec::new();
        };
        let mut out: Vec<u32> = entries
            .flatten()
            .filter_map(|e| {
                e.file_name()
                    .to_string_lossy()
                    .strip_prefix("shard-")?
                    .parse()
                    .ok()
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Shard journal files for one workload (existing shards only; the
    /// files themselves may not exist yet).
    pub fn shard_journals(&self, id: &str, workload: &str) -> Vec<PathBuf> {
        self.existing_shards(id)
            .into_iter()
            .map(|k| journal_file(&self.shard_dir(id, k), "inject", workload))
            .collect()
    }

    /// Union of completed spec indices across every shard journal of one
    /// workload — the resume set a restarted daemon seeds its ledger with.
    pub fn done_indices(&self, id: &str, workload: &str) -> BTreeSet<u64> {
        let mut done = BTreeSet::new();
        for j in self.shard_journals(id, workload) {
            done.extend(crate::merge::scan_done(&j));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_registry_round_trips() {
        let spec = StudySpec::from_json(r#"{"scale":"tiny","suite":["MatMul"]}"#).unwrap();
        let canonical = spec.to_json();
        let id = study_id(&canonical);
        assert_eq!(id, study_id(&canonical), "deterministic");
        assert_eq!(id.len(), 16);

        let root = std::env::temp_dir().join(format!("sea-fleet-reg-{}", std::process::id()));
        let reg = Registry::new(&root);
        assert!(reg.load_all().is_empty());
        reg.persist(&id, &canonical).unwrap();
        // A foreign directory and a torn spec are both ignored.
        std::fs::create_dir_all(root.join("not-a-study")).unwrap();
        std::fs::write(root.join("not-a-study").join("spec.json"), "{{{").unwrap();
        assert_eq!(reg.load_all(), vec![(id.clone(), canonical.clone())]);

        assert!(reg.existing_shards(&id).is_empty());
        std::fs::create_dir_all(reg.shard_dir(&id, 0)).unwrap();
        std::fs::create_dir_all(reg.shard_dir(&id, 2)).unwrap();
        assert_eq!(reg.existing_shards(&id), vec![0, 2]);
        assert_eq!(reg.shard_journals(&id, "MatMul").len(), 2);
        assert!(reg.done_indices(&id, "MatMul").is_empty());
        assert!(reg
            .merged_path(&id, "Jpeg C")
            .ends_with(format!("{id}/merged/jpeg_c.inject.seaj")));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
