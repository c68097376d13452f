//! The correctness oracle: what a study's runs were classified as, in a
//! form that can be compared across entry points (in-process result,
//! `.seaj` journal, fleet-merged journal) and stored in `expected.json`.
//!
//! A verdict is `(index, class, array, valid)`. Its hash is FNV-1a over
//! the verdicts *sorted by index*, because a multi-threaded journal is in
//! completion order. Extra members a journal line may grow later are
//! ignored, so the blessed hashes survive additive format changes.

use crate::json::{self, Json, ObjWriter};
use sea_core::injection::supervisor::fnv1a;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Class tallies `[masked, sdc, app_crash, sys_crash]` per stratum
/// (component for injection, strike origin for beam).
pub type Tallies = BTreeMap<String, [u64; 4]>;

/// What a set of runs was classified as.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Runs with a class.
    pub runs: u64,
    /// Per-stratum tallies; empty when the source has none (a journal
    /// does not say which component an index struck).
    pub tallies: Tallies,
    /// Verdict hash; `None` when the source keeps no per-run verdicts
    /// (an unjournaled beam session returns tallies only).
    pub hash: Option<u64>,
}

/// One run's verdict, ready to hash.
pub type Verdict = (u64, String);

/// Render one verdict's hashed text.
pub fn verdict(i: u64, class: &str, array: &str, valid: bool) -> Verdict {
    (i, format!("{i}\t{class}\t{array}\t{valid}\n"))
}

/// FNV-1a over the verdicts in index order.
pub fn verdict_hash(mut verdicts: Vec<Verdict>) -> u64 {
    verdicts.sort();
    let text: String = verdicts.into_iter().map(|(_, line)| line).collect();
    fnv1a(text.as_bytes())
}

/// What a `.seaj` journal holds.
#[derive(Debug, PartialEq)]
pub struct JournalRead {
    /// Records of classified runs, one verdict each.
    pub verdicts: Vec<Verdict>,
    /// Records that describe an anomaly (a panicking run) instead.
    pub anomalies: u64,
}

/// Decode the verdicts of the injection journal at `path`.
///
/// # Errors
///
/// Unreadable file, not a `.seaj` file, a torn tail (a finished study's
/// journal has none), or a record that is not a verdict line.
pub fn read_journal(path: &Path) -> Result<JournalRead, String> {
    let at = |e: String| format!("{}: {e}", path.display());
    let bytes = std::fs::read(path).map_err(|e| at(e.to_string()))?;
    decode_journal(&bytes).map_err(at)
}

fn decode_journal(bytes: &[u8]) -> Result<JournalRead, String> {
    let scan = sea_core::durable::scan(bytes).map_err(|e| e.to_string())?;
    if scan.torn_bytes > 0 {
        return Err(format!(
            "{} torn bytes after the last record",
            scan.torn_bytes
        ));
    }
    let mut out = JournalRead {
        verdicts: Vec::with_capacity(scan.records.len()),
        anomalies: 0,
    };
    for rec in &scan.records {
        let line = std::str::from_utf8(rec).map_err(|e| format!("journal record: {e}"))?;
        let j = json::parse(line).map_err(|e| format!("journal record: {e}"))?;
        if j.get("anomaly").and_then(Json::as_bool) == Some(true) {
            out.anomalies += 1;
            continue;
        }
        let fields = (
            j.get("i").and_then(Json::as_u64),
            j.get("class").and_then(Json::as_str),
            j.get("array").and_then(Json::as_str),
            j.get("valid").and_then(Json::as_bool),
        );
        let (Some(i), Some(class), Some(array), Some(valid)) = fields else {
            return Err(format!("journal record is not a verdict: {line}"));
        };
        out.verdicts.push(verdict(i, class, array, valid));
    }
    Ok(out)
}

/// Runs on which `got` disagrees with `want` (0 = agreement). A run that
/// changes class moves one count between two tally cells, so tallies
/// bound the number from below; a hash mismatch alone counts as one.
pub fn mismatches(got: &Outcome, want: &Outcome) -> u64 {
    let mut cells = 0u64;
    if !got.tallies.is_empty() && !want.tallies.is_empty() {
        let zero = [0u64; 4];
        let keys: BTreeSet<&String> = got.tallies.keys().chain(want.tallies.keys()).collect();
        for key in keys {
            let a = got.tallies.get(key).unwrap_or(&zero);
            let b = want.tallies.get(key).unwrap_or(&zero);
            cells += a.iter().zip(b).map(|(x, y)| x.abs_diff(*y)).sum::<u64>();
        }
    }
    let hash_differs = matches!((got.hash, want.hash), (Some(a), Some(b)) if a != b);
    cells
        .div_ceil(2)
        .max(got.runs.abs_diff(want.runs))
        .max(u64::from(hash_differs))
}

impl Outcome {
    /// `{"runs":..,"tallies":{..},"verdict_hash":"0x.."|null}`.
    pub fn to_json(&self) -> String {
        let mut t = ObjWriter::new();
        for (k, v) in &self.tallies {
            t.raw_field(k, &format!("[{},{},{},{}]", v[0], v[1], v[2], v[3]));
        }
        let mut o = ObjWriter::new();
        o.u64_field("runs", self.runs)
            .raw_field("tallies", &t.finish());
        match self.hash {
            Some(h) => o.str_field("verdict_hash", &format!("{h:#018x}")),
            None => o.raw_field("verdict_hash", "null"),
        };
        o.finish()
    }

    /// Inverse of [`Outcome::to_json`].
    pub fn from_json(j: &Json) -> Option<Outcome> {
        let mut tallies = Tallies::new();
        if let Json::Obj(members) = j.get("tallies")? {
            for (k, v) in members {
                let Json::Arr(cells) = v else { return None };
                let cells: Vec<u64> = cells.iter().filter_map(Json::as_u64).collect();
                tallies.insert(k.clone(), <[u64; 4]>::try_from(cells).ok()?);
            }
        }
        let hash = match j.get("verdict_hash")? {
            Json::Null => None,
            h => Some(u64::from_str_radix(h.as_str()?.strip_prefix("0x")?, 16).ok()?),
        };
        Some(Outcome {
            runs: j.get("runs")?.as_u64()?,
            tallies,
            hash,
        })
    }
}

/// The blessed oracle: workload → seed → what the reference tier
/// classified every run as.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expected(BTreeMap<String, BTreeMap<u64, Outcome>>);

impl Expected {
    /// Read `expected.json`.
    ///
    /// # Errors
    ///
    /// Unreadable or malformed file.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse the text [`Expected::render`] writes.
    ///
    /// # Errors
    ///
    /// Malformed document.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let bad = || "not an oracle file".to_string();
        let Json::Obj(workloads) = json::parse(text).map_err(|e| e.to_string())? else {
            return Err(bad());
        };
        let mut out = Expected::default();
        for (name, seeds) in workloads {
            let Json::Obj(seeds) = seeds else {
                return Err(bad());
            };
            for (seed, entry) in seeds {
                let seed = seed
                    .strip_prefix("0x")
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(bad)?;
                out.insert(&name, seed, Outcome::from_json(&entry).ok_or_else(bad)?);
            }
        }
        Ok(out)
    }

    /// The blessed outcome of `workload` at `seed`, if there is one.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&Outcome> {
        self.0.get(workload)?.get(&seed)
    }

    /// Record (or replace) one entry.
    pub fn insert(&mut self, workload: &str, seed: u64, outcome: Outcome) {
        self.0
            .entry(workload.to_string())
            .or_default()
            .insert(seed, outcome);
    }

    /// One entry per line, sorted — a re-bless diffs cleanly.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (k, (name, seeds)) in self.0.iter().enumerate() {
            if k > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                " {}: {{\n",
                json::render(&Json::Str(name.clone()))
            ));
            for (n, (seed, outcome)) in seeds.iter().enumerate() {
                if n > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&format!("  \"{seed:#x}\": {}", outcome.to_json()));
            }
            out.push_str("\n }");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tallies(cells: &[(&str, [u64; 4])]) -> Tallies {
        cells.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn hash_ignores_completion_order_but_not_content() {
        let a = vec![
            verdict(0, "Masked", "data", true),
            verdict(1, "SDC", "tag", false),
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(verdict_hash(a.clone()), verdict_hash(b));
        let c = vec![a[0].clone(), verdict(1, "SDC", "tag", true)];
        assert_ne!(verdict_hash(a), verdict_hash(c));
    }

    #[test]
    fn mismatches_count_moved_runs() {
        let want = Outcome {
            runs: 10,
            tallies: tallies(&[("RF", [4, 1, 0, 0]), ("L2", [5, 0, 0, 0])]),
            hash: Some(1),
        };
        assert_eq!(mismatches(&want, &want), 0);
        // One run moved Masked → SDC inside RF.
        let mut got = want.clone();
        got.tallies.insert("RF".into(), [3, 2, 0, 0]);
        got.hash = Some(2);
        assert_eq!(mismatches(&got, &want), 1);
        // Same tallies, different per-run verdicts: the hash still tells.
        let mut got = want.clone();
        got.hash = Some(9);
        assert_eq!(mismatches(&got, &want), 1);
        // A journal-only outcome (no tallies) compares by hash and count.
        let journal = Outcome {
            runs: 8,
            tallies: Tallies::new(),
            hash: Some(1),
        };
        assert_eq!(mismatches(&journal, &want), 2);
        // A stratum missing on one side counts in full.
        let mut got = want.clone();
        got.tallies.remove("L2");
        got.runs = 5;
        assert_eq!(mismatches(&got, &want), 5);
    }

    #[test]
    fn expected_round_trips_through_its_file_format() {
        let mut e = Expected::default();
        e.insert(
            "w",
            0xDEFA_0001,
            Outcome {
                runs: 3,
                tallies: tallies(&[("RF", [1, 1, 1, 0])]),
                hash: Some(0xFFFF_0000_0000_0001),
            },
        );
        e.insert("w", 0xDEFA_0002, Outcome::default());
        assert_eq!(Expected::parse(&e.render()).unwrap(), e);
        assert!(Expected::parse("[]").is_err());
        assert!(e.get("w", 0xDEFA_0001).is_some());
        assert!(e.get("w", 7).is_none() && e.get("x", 0xDEFA_0001).is_none());
    }
}
