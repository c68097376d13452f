//! Benchmark workloads are data: each file under `benchmark/workloads/`
//! is a `StudySpec` JSON document plus one `"bench"` member that says how
//! the benchmark drives it. `StudySpec::from_json` ignores members it
//! does not know, so a spec keeps parsing when a later change deletes a
//! knob (`warp`, `fast_path`, `checkpoint_interval`) — the benchmark then
//! measures whatever the default policy has become, with no edit here.

use crate::json::{self, Json};
use sea_core::Component;
use std::path::Path;

/// First candidate of the seed survey that fills a workload's `seeds`
/// list (`sea-bench-layers --survey-seeds`).
pub const FIRST_CANDIDATE_SEED: u64 = 0xDEFA_0001;

/// Spec members that only change how fast a study runs. The oracle is the
/// same spec without them (library defaults = reference tier, from reset).
pub const SPEED_KEYS: [&str; 3] = ["fast_path", "warp", "checkpoint_interval"];

/// Which public entry point a workload goes through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `sea_injection::run_campaign`.
    Inject,
    /// `sea_beam::run_session`.
    Beam,
    /// `sea_fleet::Daemon`: submit → merged journal.
    Fleet,
}

impl Kind {
    /// Name used in workload files and on the child command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Inject => "inject",
            Kind::Beam => "beam",
            Kind::Fleet => "fleet",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn from_name(s: &str) -> Option<Kind> {
        [Kind::Inject, Kind::Beam, Kind::Fleet]
            .into_iter()
            .find(|k| k.name() == s)
    }

    /// The spec member that holds this kind's run count.
    fn runs_key(self) -> &'static str {
        match self {
            Kind::Beam => "beam_strikes",
            Kind::Inject | Kind::Fleet => "samples_per_component",
        }
    }
}

/// One variation of a workload's spec.
#[derive(Clone, Copy, Debug)]
pub struct Variant {
    /// Written into the spec's `seed` member.
    pub seed: u64,
    /// Written into the run-count member (0 = set-up only).
    pub runs: u32,
    /// Strip [`SPEED_KEYS`] and run on one thread: the oracle's spec.
    pub reference: bool,
    /// Tiny guest inputs (`--smoke`).
    pub tiny: bool,
}

/// A parsed workload file.
#[derive(Clone, Debug)]
pub struct WorkloadFile {
    /// File stem; the workload's name everywhere.
    pub name: String,
    /// Entry point.
    pub kind: Kind,
    /// Write a `.seaj` journal (in-process kinds; the fleet always does).
    pub journal: bool,
    /// Worker processes (fleet only, else 0).
    pub workers: u32,
    /// Workload whose blessed oracle entry applies: this one, unless the
    /// file says it executes the same runs as another (`same_runs_as`).
    pub oracle: String,
    /// One line: why the workload exists.
    pub why: String,
    /// The file's run count (samples per component, or strikes).
    pub runs: u32,
    /// Run count under `--smoke`.
    pub smoke_runs: u32,
    /// The study seeds the benchmark runs this workload at. A study's
    /// cost depends on where its faults land (±13 % between seeds on
    /// `fig4-crc32`), which would drown a change in seed luck; these are
    /// the eight of 48 surveyed seeds whose simulated work is closest to
    /// the median (within 1 %), so a benchmark seed changes *which* faults
    /// are injected but not how much there is to simulate — and every one
    /// of them has a blessed outcome in `expected.json`.
    pub seeds: Vec<u64>,
    /// Run count of the set-up measurement: 0 unless the entry point
    /// cannot take an empty study (the fleet daemon fails one at merge,
    /// "no shard journals"), then the smallest count it accepts.
    pub setup_runs: u32,
    spec: Vec<(String, Json)>,
}

fn member<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn set(obj: &mut Vec<(String, Json)>, key: &str, value: Json) {
    match obj.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => obj.push((key.to_string(), value)),
    }
}

impl WorkloadFile {
    /// Parse one workload document.
    ///
    /// # Errors
    ///
    /// A message naming the workload and the offending member.
    pub fn parse(name: &str, text: &str) -> Result<WorkloadFile, String> {
        let bad = |why: &str| format!("workload {name}: {why}");
        let Json::Obj(mut spec) = json::parse(text).map_err(|e| bad(&e.to_string()))? else {
            return Err(bad("expected a JSON object"));
        };
        let at = spec
            .iter()
            .position(|(k, _)| k == "bench")
            .ok_or_else(|| bad("no \"bench\" member"))?;
        let (_, bench) = spec.remove(at);
        let kind = bench
            .get("kind")
            .and_then(Json::as_str)
            .and_then(Kind::from_name)
            .ok_or_else(|| bad("bench.kind must be inject|beam|fleet"))?;
        let u32_of = |j: Option<&Json>, key: &str| -> Result<u32, String> {
            j.and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| bad(&format!("{key} must be a small integer")))
        };
        let runs = u32_of(member(&spec, kind.runs_key()), kind.runs_key())?;
        let smoke_runs = u32_of(bench.get("smoke_runs"), "bench.smoke_runs")?;
        let or = |key: &str, default: u32| match bench.get(key) {
            Some(n) => u32_of(Some(n), key),
            None => Ok(default),
        };
        let setup_runs = or("setup_runs", 0)?;
        let seeds = match bench.get("seeds") {
            Some(Json::Arr(items)) if !items.is_empty() => items
                .iter()
                .map(|j| {
                    j.as_str()
                        .and_then(|s| s.strip_prefix("0x"))
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| bad("bench.seeds holds 0x-hex strings"))
                })
                .collect::<Result<Vec<u64>, String>>()?,
            _ => return Err(bad("bench.seeds must list the study seeds")),
        };
        let workers = match kind {
            Kind::Fleet => u32_of(bench.get("workers"), "bench.workers")?,
            Kind::Inject | Kind::Beam => 0,
        };
        let why = bench
            .get("why")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("bench.why must say why the workload exists"))?
            .to_string();
        Ok(WorkloadFile {
            name: name.to_string(),
            kind,
            journal: bench
                .get("journal")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            workers,
            oracle: bench
                .get("same_runs_as")
                .and_then(Json::as_str)
                .unwrap_or(name)
                .to_string(),
            why,
            runs,
            smoke_runs,
            seeds,
            setup_runs,
            spec,
        })
    }

    /// The benchmark's workloads — all of them, or the one named `only` —
    /// each checked against this machine's core count.
    ///
    /// # Errors
    ///
    /// Unreadable files, an unknown name, or a refused thread count.
    pub fn select(dir: &Path, only: Option<&str>) -> Result<Vec<WorkloadFile>, String> {
        let mut chosen = WorkloadFile::load_dir(dir)?;
        if let Some(name) = only {
            chosen.retain(|w| w.name == name);
            if chosen.is_empty() {
                return Err(format!("no workload named {name:?}"));
            }
        }
        let nproc = crate::procstat::nproc();
        chosen.iter().try_for_each(|w| w.check_parallelism(nproc))?;
        Ok(chosen)
    }

    /// Every `*.json` under `dir`, sorted by name.
    ///
    /// # Errors
    ///
    /// Unreadable directory or file, or the first parse error.
    pub fn load_dir(dir: &Path) -> Result<Vec<WorkloadFile>, String> {
        let paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        let mut out = Vec::new();
        for p in paths {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("{}: not a UTF-8 file name", p.display()))?;
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            out.push(WorkloadFile::parse(name, &text)?);
        }
        if out.is_empty() {
            return Err(format!("{}: no workload files", dir.display()));
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// The spec document the program receives for one variant: the file's
    /// members (without `bench`) with seed and run count filled in.
    pub fn spec_text(&self, v: &Variant) -> String {
        let mut spec = self.spec.clone();
        set(&mut spec, "seed", Json::Str(format!("{:#x}", v.seed)));
        set(
            &mut spec,
            self.kind.runs_key(),
            Json::Num(f64::from(v.runs)),
        );
        if v.reference {
            spec.retain(|(k, _)| !SPEED_KEYS.contains(&k.as_str()));
            set(&mut spec, "threads", Json::Num(1.0));
        }
        if v.tiny {
            set(&mut spec, "scale", Json::Str("tiny".to_string()));
        }
        json::render(&Json::Obj(spec))
    }

    /// The study seed a benchmark seed selects.
    pub fn seed_for(&self, benchmark_seed: u64) -> u64 {
        self.seeds[(benchmark_seed % self.seeds.len() as u64) as usize]
    }

    /// The entry point a variant goes through: the oracle of a fleet
    /// study is the same study run in one process.
    pub fn kind_of(&self, v: &Variant) -> Kind {
        match (self.kind, v.reference) {
            (Kind::Fleet, true) => Kind::Inject,
            (k, _) => k,
        }
    }

    /// Classified runs a variant plans: every component gets `runs`
    /// injections; a beam session samples `runs` strikes.
    pub fn planned(&self, runs: u32) -> u64 {
        match self.kind {
            Kind::Beam => u64::from(runs),
            Kind::Inject | Kind::Fleet => u64::from(runs) * Component::ALL.len() as u64,
        }
    }

    /// The spec's `threads` member (0 = every core).
    pub fn threads(&self) -> u64 {
        member(&self.spec, "threads")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// Whether the reference variant differs from the workload itself —
    /// when it does not, a differential run against it proves nothing.
    pub fn differs_from_reference(&self) -> bool {
        self.kind == Kind::Fleet
            || self.threads() != 1
            || SPEED_KEYS.iter().any(|k| member(&self.spec, k).is_some())
    }

    /// A closed loop never has more clients than cores: refuse a workload
    /// whose `threads` or `workers` exceed `nproc`, or that leaves the
    /// thread count to the machine (`threads: 0`).
    ///
    /// # Errors
    ///
    /// The refusal message.
    pub fn check_parallelism(&self, nproc: usize) -> Result<(), String> {
        let clients = self.threads().max(u64::from(self.workers));
        if self.threads() == 0 {
            return Err(format!(
                "workload {}: \"threads\" must be fixed in the file (0 means \"every core\", \
                 which makes two machines' results incomparable)",
                self.name
            ));
        }
        if clients > nproc as u64 {
            return Err(format!(
                "workload {} needs {clients} cores (threads/workers) but this machine offers \
                 {nproc}; refusing to oversubscribe",
                self.name
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"suite":["CRC32"],"samples_per_component":30,"threads":2,
        "fast_path":true,"warp":true,"checkpoint_interval":65536,
        "bench":{"kind":"inject","journal":true,"smoke_runs":2,"seeds":["0xa","0xb","0xc"],"why":"test"}}"#;

    #[test]
    fn variants_edit_only_what_they_name() {
        let w = WorkloadFile::parse("t", DOC).unwrap();
        assert_eq!(
            (w.kind, w.journal, w.runs, w.smoke_runs),
            (Kind::Inject, true, 30, 2)
        );
        assert_eq!(w.setup_runs, 0);
        assert_eq!(
            (w.seed_for(0), w.seed_for(4), w.seed_for(u64::MAX)),
            (0xa, 0xb, 0xa)
        );
        assert_eq!(w.oracle, "t");
        let full = w.spec_text(&Variant {
            seed: 0xABC,
            runs: 30,
            reference: false,
            tiny: false,
        });
        assert_eq!(
            full,
            r#"{"suite":["CRC32"],"samples_per_component":30,"threads":2,"fast_path":true,"warp":true,"checkpoint_interval":65536,"seed":"0xabc"}"#
        );
        let reference = w.spec_text(&Variant {
            seed: 1,
            runs: 0,
            reference: true,
            tiny: true,
        });
        assert_eq!(
            reference,
            r#"{"suite":["CRC32"],"samples_per_component":0,"threads":1,"seed":"0x1","scale":"tiny"}"#
        );
        assert!(w.differs_from_reference());
        assert_eq!(w.planned(30), 180);
    }

    #[test]
    fn parallelism_is_refused_beyond_nproc() {
        let w = WorkloadFile::parse("t", DOC).unwrap();
        assert!(w.check_parallelism(2).is_ok());
        assert!(w.check_parallelism(1).unwrap_err().contains("2 cores"));
        let free = DOC.replace("\"threads\":2", "\"threads\":0");
        let w = WorkloadFile::parse("t", &free).unwrap();
        assert!(w.check_parallelism(64).unwrap_err().contains("fixed"));
    }

    #[test]
    fn malformed_files_are_rejected_with_the_member_named() {
        assert!(WorkloadFile::parse("t", "[]")
            .unwrap_err()
            .contains("object"));
        assert!(WorkloadFile::parse("t", "{}")
            .unwrap_err()
            .contains("bench"));
        let e = WorkloadFile::parse("t", r#"{"bench":{"kind":"x"}}"#).unwrap_err();
        assert!(e.contains("bench.kind"), "{e}");
        let no_seeds = DOC.replace(r#""seeds":["0xa","0xb","0xc"],"#, "");
        let e = WorkloadFile::parse("t", &no_seeds).unwrap_err();
        assert!(e.contains("bench.seeds"), "{e}");
        let e = WorkloadFile::parse("t", r#"{"bench":{"kind":"beam","smoke_runs":1,"why":"w"}}"#)
            .unwrap_err();
        assert!(e.contains("beam_strikes"), "{e}");
    }
}
