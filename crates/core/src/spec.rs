//! Wire-format study specification.
//!
//! The fleet daemon, its worker processes and the submission client all
//! need to agree on *exactly* the same [`Study`] — journal identity
//! headers hash the campaign configuration, so a spec that deserializes
//! even slightly differently in the worker than in the daemon would make
//! every shard journal unmergeable. This module is that contract: a
//! [`StudySpec`] is a `Study` plus a benchmark suite, (de)serialized
//! through the same hand-rolled JSON as everything else (DESIGN.md §5),
//! with a canonical rendering so `to_json` ∘ `from_json` is the identity
//! on documents it produced.
//!
//! Placement knobs (journal directories, quarantine files, serve
//! addresses, output paths) are deliberately *not* part of the wire
//! format: the daemon assigns per-shard locations itself, and none of
//! them participate in the configuration hash.

use crate::study::Study;
use sea_trace::json::{self, Json, ObjWriter};
use sea_workloads::{Scale, Workload};

/// A submittable study: the experiment parameters plus the benchmark
/// suite to run them over.
#[derive(Clone, Debug)]
pub struct StudySpec {
    /// The experiment parameters. Path/serve fields are ignored by
    /// serialization (the daemon owns placement).
    pub study: Study,
    /// Benchmarks to run, in order.
    pub suite: Vec<Workload>,
}

/// Why a spec document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Parse(String),
    /// A field has the wrong type or an invalid value.
    Field(&'static str, String),
    /// An unrecognized benchmark name in `suite`.
    UnknownWorkload(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec is not valid JSON: {e}"),
            SpecError::Field(k, why) => write!(f, "spec field '{k}': {why}"),
            SpecError::UnknownWorkload(w) => write!(f, "unknown workload '{w}' in suite"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Look up a benchmark by its paper display name (`Workload::name`).
pub fn workload_by_name(name: &str) -> Option<Workload> {
    Workload::ALL.into_iter().find(|w| w.name() == name)
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Default => "default",
        Scale::Tiny => "tiny",
    }
}

fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "default" => Some(Scale::Default),
        "tiny" => Some(Scale::Tiny),
        _ => None,
    }
}

impl StudySpec {
    /// A spec over the full Table III suite with default parameters.
    pub fn all(study: Study) -> StudySpec {
        StudySpec {
            study,
            suite: Workload::ALL.to_vec(),
        }
    }

    /// Canonical single-line JSON rendering.
    ///
    /// Fields appear in a fixed order, so two equal specs render to equal
    /// bytes (the fleet daemon derives study identifiers by hashing this
    /// document).
    pub fn to_json(&self) -> String {
        let s = &self.study;
        let mut o = ObjWriter::new();
        o.str_field("scale", scale_name(s.scale))
            .u64_field("samples_per_component", u64::from(s.samples_per_component))
            .u64_field("beam_strikes", u64::from(s.beam_strikes))
            .f64_field("fit_raw", s.fit_raw)
            .str_field("seed", &format!("{:#x}", s.seed))
            .u64_field("threads", s.threads as u64)
            .u64_field("golden_budget_cycles", s.golden_budget_cycles)
            .str_field("journal_format", &s.journal_format.to_string())
            .str_field("journal_fsync", &s.journal_fsync.to_string())
            .u64_field("run_wall_ms", s.run_wall_ms)
            .u64_field("checkpoint_interval", s.checkpoint_interval)
            .bool_field("fast_path", s.fast_path)
            .bool_field("warp", s.warp);
        match s.stop_at_margin {
            Some(m) => o.f64_field("stop_at_margin", m),
            None => o.raw_field("stop_at_margin", "null"),
        };
        let mut suite = String::from("[");
        for (i, w) in self.suite.iter().enumerate() {
            if i > 0 {
                suite.push(',');
            }
            json::write_escaped(w.name(), &mut suite);
        }
        suite.push(']');
        o.raw_field("suite", &suite);
        o.finish()
    }

    /// Parse a spec document.
    ///
    /// Every parameter is optional — omitted fields keep the
    /// [`Study::default`] value — but present fields must be well-typed,
    /// and unknown benchmark names are an error, so a typo'd spec fails
    /// loudly instead of silently running the wrong experiment.
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first offending field.
    pub fn from_json(text: &str) -> Result<StudySpec, SpecError> {
        let doc = json::parse(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        if !matches!(doc, Json::Obj(_)) {
            return Err(SpecError::Parse("expected a JSON object".to_string()));
        }
        let mut s = Study::default();
        if let Some(v) = doc.get("scale") {
            let name = v
                .as_str()
                .ok_or_else(|| SpecError::Field("scale", "expected a string".into()))?;
            s.scale = scale_by_name(name).ok_or_else(|| {
                SpecError::Field("scale", format!("'{name}' (expected default|tiny)"))
            })?;
        }
        if let Some(v) = doc.get("samples_per_component") {
            s.samples_per_component = u32_field(v, "samples_per_component")?;
        }
        if let Some(v) = doc.get("beam_strikes") {
            s.beam_strikes = u32_field(v, "beam_strikes")?;
        }
        if let Some(v) = doc.get("fit_raw") {
            s.fit_raw = v
                .as_f64()
                .ok_or_else(|| SpecError::Field("fit_raw", "expected a number".into()))?;
        }
        if let Some(v) = doc.get("seed") {
            s.seed = seed_field(v)?;
        }
        if let Some(v) = doc.get("threads") {
            s.threads = u32_field(v, "threads")? as usize;
        }
        if let Some(v) = doc.get("golden_budget_cycles") {
            s.golden_budget_cycles = v.as_u64().ok_or_else(|| {
                SpecError::Field("golden_budget_cycles", "expected an integer".into())
            })?;
        }
        if let Some(v) = doc.get("journal_format") {
            let name = v
                .as_str()
                .ok_or_else(|| SpecError::Field("journal_format", "expected a string".into()))?;
            s.journal_format = crate::JournalFormat::parse(name)
                .map_err(|e| SpecError::Field("journal_format", e))?;
        }
        if let Some(v) = doc.get("journal_fsync") {
            let name = v
                .as_str()
                .ok_or_else(|| SpecError::Field("journal_fsync", "expected a string".into()))?;
            s.journal_fsync = crate::FsyncPolicy::parse(name)
                .map_err(|e| SpecError::Field("journal_fsync", e))?;
        }
        if let Some(v) = doc.get("run_wall_ms") {
            s.run_wall_ms = v
                .as_u64()
                .ok_or_else(|| SpecError::Field("run_wall_ms", "expected an integer".into()))?;
        }
        if let Some(v) = doc.get("checkpoint_interval") {
            s.checkpoint_interval = v.as_u64().ok_or_else(|| {
                SpecError::Field("checkpoint_interval", "expected an integer".into())
            })?;
        }
        if let Some(v) = doc.get("fast_path") {
            s.fast_path = v
                .as_bool()
                .ok_or_else(|| SpecError::Field("fast_path", "expected a boolean".into()))?;
        }
        if let Some(v) = doc.get("warp") {
            s.warp = v
                .as_bool()
                .ok_or_else(|| SpecError::Field("warp", "expected a boolean".into()))?;
        }
        match doc.get("stop_at_margin") {
            None | Some(Json::Null) => {}
            Some(v) => {
                let m = v.as_f64().ok_or_else(|| {
                    SpecError::Field("stop_at_margin", "expected a number or null".into())
                })?;
                // NaN fails this check too: only strictly positive passes.
                if m <= 0.0 || m.is_nan() {
                    return Err(SpecError::Field(
                        "stop_at_margin",
                        "must be positive".into(),
                    ));
                }
                s.stop_at_margin = Some(m);
            }
        }
        let suite = match doc.get("suite") {
            None => Workload::ALL.to_vec(),
            Some(Json::Arr(items)) => {
                let mut suite = Vec::with_capacity(items.len());
                for item in items {
                    let name = item
                        .as_str()
                        .ok_or_else(|| SpecError::Field("suite", "expected strings".into()))?;
                    suite.push(
                        workload_by_name(name)
                            .ok_or_else(|| SpecError::UnknownWorkload(name.to_string()))?,
                    );
                }
                if suite.is_empty() {
                    return Err(SpecError::Field("suite", "must not be empty".into()));
                }
                suite
            }
            Some(_) => return Err(SpecError::Field("suite", "expected an array".into())),
        };
        Ok(StudySpec { study: s, suite })
    }
}

fn u32_field(v: &Json, k: &'static str) -> Result<u32, SpecError> {
    let n = v
        .as_u64()
        .ok_or_else(|| SpecError::Field(k, "expected an integer".into()))?;
    u32::try_from(n).map_err(|_| SpecError::Field(k, "out of range".into()))
}

/// Seeds are full-width u64s, which JSON numbers only hold exactly up to
/// 2^53 — so the canonical form is a hex string, but plain integers are
/// accepted too.
fn seed_field(v: &Json) -> Result<u64, SpecError> {
    if let Some(n) = v.as_u64() {
        return Ok(n);
    }
    let text = v
        .as_str()
        .ok_or_else(|| SpecError::Field("seed", "expected an integer or hex string".into()))?;
    let digits = text.strip_prefix("0x").unwrap_or(text);
    u64::from_str_radix(digits, 16).map_err(|_| SpecError::Field("seed", "bad hex".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq_modulo_placement(a: &Study, b: &Study) -> bool {
        // Compare only the wire fields; placement knobs stay default in
        // round-trips anyway.
        a.scale == b.scale
            && a.samples_per_component == b.samples_per_component
            && a.beam_strikes == b.beam_strikes
            && a.fit_raw == b.fit_raw
            && a.seed == b.seed
            && a.threads == b.threads
            && a.golden_budget_cycles == b.golden_budget_cycles
            && a.journal_format == b.journal_format
            && a.journal_fsync == b.journal_fsync
            && a.run_wall_ms == b.run_wall_ms
            && a.checkpoint_interval == b.checkpoint_interval
            && a.fast_path == b.fast_path
            && a.warp == b.warp
            && a.stop_at_margin == b.stop_at_margin
    }

    #[test]
    fn round_trips_canonically() {
        let spec = StudySpec {
            study: Study {
                scale: Scale::Tiny,
                samples_per_component: 24,
                beam_strikes: 48,
                seed: 0xDEAD_BEEF_0BAD_F00D,
                threads: 2,
                run_wall_ms: 5_000,
                journal_fsync: crate::FsyncPolicy::EveryN(8),
                fast_path: true,
                warp: true,
                stop_at_margin: Some(0.05),
                ..Study::default()
            },
            suite: vec![Workload::MatMul, Workload::Qsort],
        };
        let text = spec.to_json();
        let back = StudySpec::from_json(&text).unwrap();
        assert!(eq_modulo_placement(&back.study, &spec.study));
        assert_eq!(back.suite, spec.suite);
        // Canonical: re-rendering the parsed spec reproduces the bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn omitted_fields_default_and_suite_defaults_to_all() {
        let spec = StudySpec::from_json("{}").unwrap();
        assert!(eq_modulo_placement(&spec.study, &Study::default()));
        assert_eq!(spec.suite, Workload::ALL.to_vec());

        let spec = StudySpec::from_json(r#"{"samples_per_component":7}"#).unwrap();
        assert_eq!(spec.study.samples_per_component, 7);
        assert_eq!(spec.study.beam_strikes, Study::default().beam_strikes);
    }

    #[test]
    fn a_spec_without_speed_keys_runs_every_speed_tier() {
        let s = StudySpec::from_json("{}").unwrap().study;
        assert!(s.fast_path && s.warp);
        assert_eq!(s.checkpoint_interval, crate::DEFAULT_CHECKPOINT_INTERVAL);
        // Explicit off-values give the reference tier, as `--reference` does.
        let off =
            StudySpec::from_json(r#"{"fast_path":false,"warp":false,"checkpoint_interval":0}"#)
                .unwrap()
                .study;
        assert!(eq_modulo_placement(&off, &Study::default().reference()));
    }

    #[test]
    fn seeds_accept_hex_strings_and_integers() {
        let a = StudySpec::from_json(r#"{"seed":"0x5EA0001"}"#).unwrap();
        let b = StudySpec::from_json(r#"{"seed":99221505}"#).unwrap();
        assert_eq!(a.study.seed, 0x5EA_0001);
        assert_eq!(a.study.seed, b.study.seed);
    }

    #[test]
    fn bad_documents_fail_loudly() {
        assert!(matches!(
            StudySpec::from_json("not json"),
            Err(SpecError::Parse(_))
        ));
        assert!(matches!(
            StudySpec::from_json("[1,2]"),
            Err(SpecError::Parse(_))
        ));
        assert!(matches!(
            StudySpec::from_json(r#"{"scale":"huge"}"#),
            Err(SpecError::Field("scale", _))
        ));
        assert!(matches!(
            StudySpec::from_json(r#"{"suite":["NotABench"]}"#),
            Err(SpecError::UnknownWorkload(_))
        ));
        assert!(matches!(
            StudySpec::from_json(r#"{"suite":[]}"#),
            Err(SpecError::Field("suite", _))
        ));
        assert!(matches!(
            StudySpec::from_json(r#"{"stop_at_margin":-0.5}"#),
            Err(SpecError::Field("stop_at_margin", _))
        ));
        assert!(matches!(
            StudySpec::from_json(r#"{"journal_format":"xml"}"#),
            Err(SpecError::Field("journal_format", _))
        ));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(workload_by_name(w.name()), Some(w));
        }
        assert_eq!(workload_by_name("nope"), None);
    }
}
