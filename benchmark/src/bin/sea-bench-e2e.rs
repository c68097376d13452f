//! `sea-bench-e2e` — the end-to-end half of the SEA benchmark.
//!
//! Runs study-shaped workloads (`benchmark/workloads/*.json`) through the
//! entry points users call and reports, per workload, `runs_per_s`,
//! `cpu_ms_per_run`, `setup_s` and `fail_frac`, each rep checked against
//! an oracle. Tracing is off here; `sea-bench-layers` is the traced run.
//!
//! ```text
//! sea-bench-e2e [--workload NAME] [--reps N | --seconds S] [--seed S]
//!               [--smoke] [--out FILE] [--contract] [--noise] [--bless]
//! sea-bench-e2e compare OLD.json NEW.json
//! ```
//!
//! A campaign is a closed loop — each of the spec's `threads` (or the
//! fleet's `workers`) claims its next run when the previous one completes
//! — and every (workload, rep) is a fresh child process (this binary
//! re-exec'd as `child`), so cursors, µop caches and `VmHWM` start cold
//! every rep, as they do for a user. Every rep of a workload runs the
//! same spec with the same seed, so reps differ only by what the host did
//! to them. `--seed N` selects the N-th (mod 8) of the workload file's
//! equal-work study seeds, each of which has a blessed outcome.
//!
//! To keep the end-to-end numbers compiling whatever happens to the
//! layers below, the only `sea` items this file names are
//! `StudySpec::from_json`, `Study::{injection_config_for,
//! beam_config_for, journal_dir, beam_strikes}`, `Workload::build` (and
//! the `BuiltWorkload` it returns), `run_campaign` and `run_session`;
//! journals and the fleet go through the benchmark's own library.

use sea_benchmark::json::{self, Json, ObjWriter};
use sea_benchmark::metrics::{EndToEnd, END_TO_END};
use sea_benchmark::oracle::{self, Expected, Outcome, Tallies};
use sea_benchmark::stats::Summary;
use sea_benchmark::workload::{Kind, Variant, WorkloadFile};
use sea_benchmark::{fleet, procstat};
use sea_core::beam::run_session;
use sea_core::injection::run_campaign;
use sea_core::StudySpec;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Result-document schema; bump on any incompatible change.
const SCHEMA: u64 = 1;

/// The benchmark's directory, fixed when the binary is built (the build
/// happens inside the checkout that is being measured).
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Reps that measure set-up as well: the first few, so that on a workload
/// whose set-up is slow (the fleet's takes a quarter as long as its study)
/// the rest of a time budget buys full reps.
const SETUP_REPS: u32 = 4;

/// A child that has not finished by then is killed and its rep fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

fn die(msg: &str) -> ! {
    eprintln!("sea-bench-e2e: {msg}");
    std::process::exit(2);
}

// ---------------------------------------------------------------- child

/// What one child process measured about one study.
struct ChildOut {
    build_s: f64,
    call_s: f64,
    cpu_s: f64,
    peak_rss_kib: u64,
    anomalies: u64,
    outcome: Outcome,
}

impl ChildOut {
    fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.f64_field("build_s", self.build_s)
            .f64_field("call_s", self.call_s)
            .f64_field("cpu_s", self.cpu_s)
            .u64_field("peak_rss_kib", self.peak_rss_kib)
            .u64_field("anomalies", self.anomalies)
            .raw_field("outcome", &self.outcome.to_json());
        o.finish()
    }

    fn from_json(j: &Json) -> Option<ChildOut> {
        Some(ChildOut {
            build_s: j.get("build_s")?.as_f64()?,
            call_s: j.get("call_s")?.as_f64()?,
            cpu_s: j.get("cpu_s")?.as_f64()?,
            peak_rss_kib: j.get("peak_rss_kib")?.as_u64()?,
            anomalies: j.get("anomalies")?.as_u64()?,
            outcome: Outcome::from_json(j.get("outcome")?)?,
        })
    }
}

/// `[masked, sdc, app_crash, sys_crash]` of a class-count record.
macro_rules! class_cells {
    ($c:expr) => {
        [$c.masked, $c.sdc, $c.app_crash, $c.sys_crash]
    };
}

/// The single `.seaj` file a study wrote under `dir`, decoded.
fn read_only_journal(dir: &Path) -> Result<oracle::JournalRead, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seaj"))
        .collect();
    match (files.pop(), files.is_empty()) {
        (Some(path), true) => oracle::read_journal(&path),
        _ => Err(format!(
            "{}: expected exactly one .seaj journal",
            dir.display()
        )),
    }
}

/// The guest of a one-workload spec, built, with the time that took.
fn build_guest(
    spec: &StudySpec,
) -> Result<(sea_core::Workload, sea_core::workloads::BuiltWorkload, f64), String> {
    let [w] = spec.suite.as_slice() else {
        return Err("a benchmark spec has exactly one workload".into());
    };
    let t = Instant::now();
    let built = w.build(spec.study.scale);
    Ok((*w, built, t.elapsed().as_secs_f64()))
}

/// One study through `run_campaign`. The timed call is the entry point
/// alone; building the guest is timed separately (set-up pays both).
fn child_inject(spec: &StudySpec, journal: Option<PathBuf>) -> Result<ChildOut, String> {
    let (w, built, build_s) = build_guest(spec)?;
    let mut study = spec.study.clone();
    study.journal_dir = journal.clone();
    let cfg = study.injection_config_for(w);
    let t = Instant::now();
    let result = run_campaign(w.name(), &built, &cfg).map_err(|e| e.to_string())?;
    let call_s = t.elapsed().as_secs_f64();

    let tallies: Tallies = result
        .per_component
        .iter()
        .map(|c| (c.component.short_name().to_string(), class_cells!(c.counts)))
        .collect();
    let mut outcomes: Vec<_> = result
        .per_component
        .iter()
        .flat_map(|c| c.outcomes.iter())
        .collect();
    // Spec indices are the seeded draws stably sorted by strike cycle;
    // per-component outcomes are in index order, so this sort restores
    // the campaign's global index order.
    outcomes.sort_by_key(|o| o.spec.cycle);
    let from_result: Vec<_> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| oracle::verdict(i as u64, &o.class.to_string(), o.array.name(), o.was_valid))
        .collect();
    let runs = from_result.len() as u64;
    let hash = oracle::verdict_hash(from_result);
    if let Some(dir) = &journal {
        // The journal is the durable output: once its completion-order
        // records are sorted it must say exactly what the result says.
        let read = read_only_journal(dir)?;
        let records = read.verdicts.len() as u64;
        if records != runs || oracle::verdict_hash(read.verdicts) != hash {
            return Err(format!(
                "the journal ({records} verdicts) and the result ({runs}) disagree"
            ));
        }
    }
    Ok(ChildOut {
        build_s,
        call_s,
        cpu_s: 0.0,
        peak_rss_kib: 0,
        anomalies: result.anomalies.len() as u64,
        outcome: Outcome {
            runs,
            tallies,
            hash: Some(hash),
        },
    })
}

/// One study through `run_session`. Unjournaled sessions return tallies
/// only, so the oracle compares per-origin tallies.
fn child_beam(spec: &StudySpec, journal: Option<PathBuf>) -> Result<ChildOut, String> {
    let (w, built, build_s) = build_guest(spec)?;
    let mut study = spec.study.clone();
    study.journal_dir = journal;
    let cfg = study.beam_config_for(w);
    let t = Instant::now();
    let result =
        run_session(w.name(), &built, &cfg, study.beam_strikes).map_err(|e| e.to_string())?;
    let call_s = t.elapsed().as_secs_f64();
    Ok(ChildOut {
        build_s,
        call_s,
        cpu_s: 0.0,
        peak_rss_kib: 0,
        anomalies: result.anomalies.len() as u64,
        outcome: Outcome {
            runs: result.counts.total(),
            tallies: result
                .by_origin
                .iter()
                .map(|(origin, counts)| (format!("{origin:?}"), class_cells!(counts)))
                .collect(),
            hash: None,
        },
    })
}

/// One study through the fleet daemon: submit → merged journal.
fn child_fleet(spec_text: &str, root: &Path, workers: u32) -> Result<ChildOut, String> {
    let run = fleet::run_study(root, workers, spec_text)?;
    let read = oracle::read_journal(&run.merged)?;
    Ok(ChildOut {
        build_s: 0.0,
        call_s: run.wall.as_secs_f64(),
        cpu_s: 0.0,
        peak_rss_kib: 0,
        anomalies: read.anomalies,
        outcome: Outcome {
            runs: read.verdicts.len() as u64,
            tallies: Tallies::new(),
            hash: Some(oracle::verdict_hash(read.verdicts)),
        },
    })
}

/// `child KIND SPEC_FILE SCRATCH_DIR WORKERS`: run one study, print one
/// JSON line.
fn child_main(args: &[String]) -> ! {
    let [kind, spec_file, scratch, workers] = args else {
        die("usage: child KIND SPEC_FILE SCRATCH_DIR WORKERS");
    };
    let run = || -> Result<ChildOut, String> {
        let kind = Kind::from_name(kind).ok_or("unknown kind")?;
        let text = std::fs::read_to_string(spec_file).map_err(|e| format!("{spec_file}: {e}"))?;
        let spec = StudySpec::from_json(&text).map_err(|e| e.to_string())?;
        // "-" = no journal.
        let scratch = (scratch != "-").then(|| PathBuf::from(scratch));
        let mut out = match kind {
            Kind::Inject => child_inject(&spec, scratch),
            Kind::Beam => child_beam(&spec, scratch),
            Kind::Fleet => child_fleet(
                &text,
                &scratch.ok_or("a fleet study needs a root directory")?,
                workers.parse().map_err(|_| "WORKERS must be an integer")?,
            ),
        }?;
        out.cpu_s = procstat::cpu_time()
            .map_err(|e| e.to_string())?
            .as_secs_f64();
        out.peak_rss_kib = procstat::peak_rss_kib();
        Ok(out)
    };
    match run() {
        Ok(out) => {
            println!("{}", out.to_json());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("sea-bench-e2e child: {e}");
            std::process::exit(1);
        }
    }
}

// --------------------------------------------------------------- parent

/// Spawn one child for `variant` of `w` and collect what it measured.
fn run_child(w: &WorkloadFile, v: &Variant, scratch: &Path) -> Result<ChildOut, String> {
    let io = |e: std::io::Error| format!("{}: {e}", scratch.display());
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(io)?;
    let spec_file = scratch.join("spec.json");
    std::fs::write(&spec_file, w.spec_text(v)).map_err(io)?;
    let kind = w.kind_of(v);
    let data = scratch.join("data");
    let wants_dir = kind == Kind::Fleet || (w.journal && !v.reference);
    let mut child = Command::new(std::env::current_exe().map_err(io)?)
        .arg("child")
        .arg(kind.name())
        .arg(&spec_file)
        .arg(if wants_dir {
            data.as_os_str()
        } else {
            OsStr::new("-")
        })
        .arg(w.workers.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(io)?;
    // The child prints one short line, far below the pipe buffer, so it
    // can be waited for before its output is read.
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait().map_err(io)? {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child exceeded {CHILD_TIMEOUT:?} and was killed"));
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    let out = child.wait_with_output().map_err(io)?;
    let _ = std::fs::remove_dir_all(scratch);
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(ChildOut::from_json)
        .ok_or_else(|| format!("child printed no result: {line:?}"))
}

/// One measured rep.
struct Rep {
    failed: u64,
    runs_per_s: f64,
    cpu_ms_per_run: f64,
    /// Measured by the first [`SETUP_REPS`] reps only.
    setup_s: Option<f64>,
    peak_rss_kib: u64,
}

/// Everything measured for one workload.
struct WorkloadResult {
    name: String,
    kind: Kind,
    why: String,
    oracle: &'static str,
    /// The study seed the benchmark seed selected.
    seed: u64,
    /// Runs one rep plans.
    planned: u64,
    /// Reps whose two children both returned a result.
    reps: Vec<Rep>,
    /// Runs planned by reps whose call failed; all of them count as failed.
    lost: u64,
    /// Runs the differential check attempted, and found different.
    diff_attempted: u64,
    diff_failed: u64,
    notes: Vec<String>,
}

impl WorkloadResult {
    fn attempted(&self) -> u64 {
        self.reps.len() as u64 * self.planned + self.lost + self.diff_attempted
    }

    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum::<u64>() + self.lost + self.diff_failed
    }

    fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Per-rep samples of an end-to-end metric and their summary; `None`
    /// when no rep succeeded.
    fn summary(&self, m: &EndToEnd) -> Option<(Vec<f64>, Summary)> {
        let samples: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| match m.name {
                "runs_per_s" => Some(r.runs_per_s),
                "cpu_ms_per_run" => Some(r.cpu_ms_per_run),
                "setup_s" => r.setup_s,
                other => unreachable!("unknown metric {other}"),
            })
            .collect();
        let summary = (!samples.is_empty()).then(|| Summary::of(&samples))?;
        Some((samples, summary))
    }
}

/// The number a metric is known by: its best rep. Every rep of a
/// workload does identical work, and interference on a shared host only
/// ever slows a run down — in phases that outlast several reps, so the
/// median of a handful of reps moves with the neighbours while the best
/// rep moves with the code. Median and quartiles are reported beside it.
fn value_of(m: &EndToEnd, samples: &[f64]) -> f64 {
    let best = if m.higher_is_better {
        f64::max
    } else {
        f64::min
    };
    samples.iter().copied().reduce(best).unwrap_or(0.0)
}

enum Budget {
    Reps(u32),
    Seconds(f64),
}

struct Options {
    only: Option<String>,
    budget: Budget,
    seed: u64,
    smoke: bool,
    out: Option<PathBuf>,
    contract: bool,
}

/// How a study's verdicts are judged: planned runs that came back without
/// a class, runs quarantined as anomalies, and disagreements with the
/// wanted outcome (when there is one) all fail.
fn judge(planned: u64, out: &ChildOut, want: Option<&Outcome>) -> u64 {
    let missing = planned.saturating_sub(out.outcome.runs);
    let wrong = want.map_or(0, |w| oracle::mismatches(&out.outcome, w));
    (missing + out.anomalies + wrong).min(planned)
}

/// Measure one workload: run full children until the budget is spent,
/// each of the first [`SETUP_REPS`] preceded by a set-up child (run count
/// zero), and judge every rep — against
/// the blessed outcome when `expected.json` covers the seed, else against
/// the first rep (same spec, same seed: same verdicts). On an unblessed
/// seed the workload is also run against its own reference variant, at
/// reduced size.
fn measure(w: &WorkloadFile, opt: &Options, expected: &Expected, scratch: &Path) -> WorkloadResult {
    let runs = if opt.smoke { w.smoke_runs } else { w.runs };
    let planned = w.planned(runs);
    let mut res = WorkloadResult {
        name: w.name.clone(),
        kind: w.kind,
        why: w.why.clone(),
        oracle: "self",
        seed: w.seed_for(opt.seed),
        planned,
        reps: Vec::new(),
        lost: 0,
        diff_attempted: 0,
        diff_failed: 0,
        notes: Vec::new(),
    };
    let seed = res.seed;
    let variant = |runs: u32, reference: bool| Variant {
        seed,
        runs,
        reference,
        tiny: opt.smoke,
    };
    // Tiny-scale runs are not what `expected.json` blessed.
    let blessed = (!opt.smoke)
        .then(|| expected.get(&w.oracle, seed))
        .flatten();
    let mut first: Option<Outcome> = None;

    let started = Instant::now();
    for k in 0u32.. {
        // A time budget starts another rep only while at least half of
        // one as long as the average so far still fits: invocations then
        // take the budget on average and never a whole rep more.
        let elapsed = started.elapsed().as_secs_f64();
        match opt.budget {
            Budget::Reps(n) if k >= n => break,
            Budget::Seconds(s) if k > 0 && elapsed + 0.5 * elapsed / f64::from(k) > s => break,
            _ => {}
        }
        let setup = (k < SETUP_REPS)
            .then(|| run_child(w, &variant(w.setup_runs, false), scratch))
            .transpose();
        let full = run_child(w, &variant(runs, false), scratch);
        let (setup, full) = match (setup, full) {
            (Ok(setup), Ok(full)) => (setup, full),
            (setup, full) => {
                for e in [setup.err(), full.err()].into_iter().flatten() {
                    res.notes.push(format!("rep {k}: {e}"));
                }
                res.lost += planned;
                continue;
            }
        };
        let failed = judge(planned, &full, blessed.or(first.as_ref()));
        if failed > 0 {
            res.notes
                .push(format!("rep {k}: {failed} runs failed the oracle"));
        }
        res.reps.push(Rep {
            failed,
            runs_per_s: full.outcome.runs as f64 / full.call_s,
            cpu_ms_per_run: full.cpu_s * 1e3 / full.outcome.runs.max(1) as f64,
            setup_s: setup.map(|s| s.build_s + s.call_s),
            peak_rss_kib: full.peak_rss_kib,
        });
        first.get_or_insert(full.outcome);
    }

    if blessed.is_some() {
        res.oracle = "blessed";
    } else if w.differs_from_reference() {
        // Check the workload against the reference tier directly, on a
        // tenth of its runs (all of them at smoke scale, where they cost
        // nothing).
        res.oracle = "differential";
        let n = if opt.smoke { runs } else { (runs / 10).max(1) };
        res.diff_attempted = w.planned(n);
        let fast = run_child(w, &variant(n, false), scratch);
        let reference = run_child(w, &variant(n, true), scratch);
        res.diff_failed = match (fast, reference) {
            (Ok(fast), Ok(reference)) => judge(res.diff_attempted, &fast, Some(&reference.outcome)),
            (fast, reference) => {
                for e in [fast.err(), reference.err()].into_iter().flatten() {
                    res.notes.push(format!("differential: {e}"));
                }
                res.diff_attempted
            }
        };
        if res.diff_failed > 0 {
            res.notes.push(format!(
                "differential: {} of {} runs disagree with the reference tier",
                res.diff_failed, res.diff_attempted
            ));
        }
    }
    res
}

// ------------------------------------------------------------ reporting

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What makes two result files comparable, or visibly not.
fn header_json(opt: &Options) -> String {
    let mut h = ObjWriter::new();
    h.u64_field("nproc", procstat::nproc() as u64)
        .str_field(
            "rustc",
            &command_line("rustc", &["--version"], Path::new(".")),
        )
        .str_field(
            "commit",
            &command_line("git", &["rev-parse", "HEAD"], Path::new(BENCH_DIR)),
        )
        .u64_field("seed", opt.seed)
        .bool_field("smoke", opt.smoke);
    match opt.budget {
        Budget::Reps(n) => h.u64_field("reps", u64::from(n)),
        Budget::Seconds(s) => h.f64_field("seconds", s),
    };
    h.finish()
}

fn document(opt: &Options, results: &[WorkloadResult]) -> String {
    let mut rows = Vec::new();
    for r in results {
        let mut metrics = ObjWriter::new();
        for m in &END_TO_END {
            let Some((samples, s)) = r.summary(m) else {
                continue;
            };
            let cells: Vec<String> = samples.iter().map(|x| format!("{x}")).collect();
            let mut o = ObjWriter::new();
            o.str_field("unit", m.unit)
                .str_field(
                    "better",
                    if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    },
                )
                .f64_field("bound", m.bound)
                .f64_field("floor", m.floor)
                .f64_field("value", value_of(m, &samples))
                .u64_field("n", s.n as u64)
                .f64_field("median", s.median)
                .f64_field("q1", s.q1)
                .f64_field("q3", s.q3)
                .raw_field("samples", &format!("[{}]", cells.join(",")));
            metrics.raw_field(m.name, &o.finish());
        }
        let mut ff = ObjWriter::new();
        ff.str_field("unit", "fraction")
            .str_field("better", "lower")
            .f64_field("value", r.fail_frac());
        metrics.raw_field("fail_frac", &ff.finish());

        let notes: Vec<String> = r
            .notes
            .iter()
            .map(|n| json::render(&Json::Str(n.clone())))
            .collect();
        let mut o = ObjWriter::new();
        o.str_field("name", &r.name)
            .str_field("kind", r.kind.name())
            .str_field("why", &r.why)
            .str_field("oracle", r.oracle)
            .str_field("study_seed", &format!("{:#x}", r.seed))
            .u64_field("attempted", r.attempted())
            .u64_field("failed", r.failed())
            .u64_field(
                "peak_rss_kib",
                r.reps.iter().map(|x| x.peak_rss_kib).max().unwrap_or(0),
            )
            .raw_field("metrics", &metrics.finish())
            .raw_field("notes", &format!("[{}]", notes.join(",")));
        rows.push(o.finish());
    }
    let mut doc = ObjWriter::new();
    doc.str_field("bench", "sea-bench-e2e")
        .u64_field("schema", SCHEMA)
        .raw_field("header", &header_json(opt))
        .raw_field("workloads", &format!("[\n{}\n]", rows.join(",\n")));
    doc.finish()
}

fn print_table(results: &[WorkloadResult]) {
    eprintln!(
        "\n{:<20} {:<24} {:>3} {:>11} {:>11} {:>11} {:>11} {:>6}  oracle",
        "workload", "metric", "n", "value", "median", "q1", "q3", "iqr%"
    );
    for r in results {
        for m in &END_TO_END {
            let Some((samples, s)) = r.summary(m) else {
                continue;
            };
            eprintln!(
                "{:<20} {:<24} {:>3} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>6.2}  {}",
                r.name,
                format!("{} [{}]", m.name, m.unit),
                s.n,
                value_of(m, &samples),
                s.median,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                r.oracle
            );
        }
        eprintln!(
            "{:<20} {:<24} {:>3} {:>11.6}   ({} of {} runs failed)",
            r.name,
            "fail_frac [fraction]",
            r.reps.len(),
            r.fail_frac(),
            r.failed(),
            r.attempted()
        );
        for n in &r.notes {
            eprintln!("{:<20} ! {n}", r.name);
        }
    }
    eprintln!("(value = the best rep: highest runs_per_s, lowest cost)");
}

/// The one line the gating harness reads: `correct`, `attempted`,
/// `failed`, and every end-to-end metric's value.
fn contract_line(r: &WorkloadResult) -> String {
    let mut metrics = ObjWriter::new();
    for m in &END_TO_END {
        let value = r
            .summary(m)
            .map_or(0.0, |(samples, _)| value_of(m, &samples));
        let mut o = ObjWriter::new();
        o.f64_field("value", value).str_field("unit", m.unit);
        metrics.raw_field(m.name, &o.finish());
    }
    let mut o = ObjWriter::new();
    o.bool_field("correct", r.failed() == 0)
        .u64_field("attempted", r.attempted().max(1))
        .u64_field("failed", r.failed())
        .raw_field("metrics", &metrics.finish());
    o.finish()
}

// -------------------------------------------------------------- compare

/// Print the per-(workload, metric) comparison of two result documents;
/// true when nothing regressed.
fn compare_docs(old: &Json, new: &Json) -> Result<bool, String> {
    for (which, doc) in [("OLD", old), ("NEW", new)] {
        if doc.get("schema").and_then(Json::as_u64) != Some(SCHEMA) {
            return Err(format!(
                "{which} is not a schema-{SCHEMA} sea-bench-e2e document"
            ));
        }
    }
    let header = |d: &Json, k: &str| d.get("header").and_then(|h| h.get(k)).map(json::render);
    for key in [
        "nproc", "rustc", "seed", "reps", "seconds", "smoke", "commit",
    ] {
        let (a, b) = (header(old, key), header(new, key));
        if a != b {
            let show = |v: Option<String>| v.unwrap_or_else(|| "-".into());
            let weight = if key == "commit" {
                "note"
            } else {
                "NOT COMPARABLE"
            };
            println!(
                "{weight}: header.{key} differs: old {} new {}",
                show(a),
                show(b)
            );
        }
    }
    let rows = |d: &Json| match d.get("workloads") {
        Some(Json::Arr(rows)) => rows.clone(),
        _ => Vec::new(),
    };
    let old_rows = rows(old);
    println!(
        "{:<20} {:<15} {:>10} {:>10} {:>9} {:>10} {:>10} {:>9}  {:>7} {:>5}  verdict",
        "workload",
        "metric",
        "old value",
        "old med",
        "old iqr",
        "new value",
        "new med",
        "new iqr",
        "new/old",
        "bound"
    );
    let mut all_ok = true;
    for new_row in rows(new) {
        let name = new_row.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(old_row) = old_rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<20} (not in OLD)");
            continue;
        };
        let field = |row: &Json, m: &str, k: &str| {
            row.get("metrics")
                .and_then(|ms| ms.get(m))
                .and_then(|x| x.get(k))
                .and_then(Json::as_f64)
        };
        for m in &END_TO_END {
            // (value, median, iqr)
            let get = |row: &Json| {
                Some((
                    field(row, m.name, "value")?,
                    field(row, m.name, "median")?,
                    field(row, m.name, "q3")? - field(row, m.name, "q1")?,
                ))
            };
            let (Some((ov, om, oi)), Some((nv, nm, ni))) = (get(old_row), get(&new_row)) else {
                println!("{name:<20} {:<15} missing on one side: regressed", m.name);
                all_ok = false;
                continue;
            };
            let worse = if m.higher_is_better { ov - nv } else { nv - ov };
            let verdict = if oi / om > m.bound {
                // The parent's own reps scatter more than the bound: the
                // comparison cannot tell a regression from noise.
                "unresolved"
            } else if worse / ov > m.bound && worse > m.floor {
                all_ok = false;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{name:<20} {:<15} {ov:>10.4} {om:>10.4} {oi:>9.4} {nv:>10.4} {nm:>10.4} {ni:>9.4}  {:>7.3} {:>4.0}%  {verdict}",
                m.name,
                nv / ov,
                100.0 * m.bound,
            );
        }
        let (of, nf) = (
            field(old_row, "fail_frac", "value").unwrap_or(0.0),
            field(&new_row, "fail_frac", "value").unwrap_or(1.0),
        );
        all_ok &= nf <= of;
        println!(
            "{name:<20} {:<15} {of:>10.6} {:>31} {nf:>10.6} {:>31}  {:>5}  {}",
            "fail_frac",
            "",
            "",
            "any",
            if nf > of { "regressed" } else { "ok" }
        );
    }
    println!("(new/old: ratio of values, base = old value; iqr = q3 - q1 of the reps)");
    Ok(all_ok)
}

fn compare_main(args: &[String]) -> ! {
    let [old, new] = args else {
        die("usage: compare OLD.json NEW.json");
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("{p}: {e}")));
        json::parse(&text).unwrap_or_else(|e| die(&format!("{p}: {e}")))
    };
    match compare_docs(&load(old), &load(new)) {
        Ok(true) => std::process::exit(0),
        Ok(false) => std::process::exit(1),
        Err(e) => die(&e),
    }
}

// ----------------------------------------------------------------- main

fn parse_options(args: &[String]) -> (Options, bool, bool) {
    let mut opt = Options {
        only: None,
        budget: Budget::Reps(5),
        seed: 0,
        smoke: false,
        out: None,
        contract: false,
    };
    let (mut noise, mut bless) = (false, false);
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .unwrap_or_else(|| die(&format!("flag {} needs a value", args[i])))
        };
        let number = |what: &str| {
            value()
                .parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .unwrap_or_else(|| die(&format!("{what} must be a non-negative number")))
        };
        match args[i].as_str() {
            "--workload" | "--only" => opt.only = Some(value().clone()),
            "--reps" => opt.budget = Budget::Reps((number("--reps") as u32).max(1)),
            "--seconds" => opt.budget = Budget::Seconds(number("--seconds")),
            "--seed" => {
                opt.seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed must be a non-negative integer"));
            }
            "--out" => opt.out = Some(PathBuf::from(value())),
            flag @ ("--smoke" | "--contract" | "--noise" | "--bless") => {
                match flag {
                    "--smoke" => opt.smoke = true,
                    "--contract" => opt.contract = true,
                    "--noise" => noise = true,
                    _ => bless = true,
                }
                i += 1;
                continue;
            }
            other => die(&format!(
                "unknown argument `{other}` (see the file header for usage)"
            )),
        }
        i += 2;
    }
    (opt, noise, bless)
}

fn run_set(
    opt: &Options,
    workloads: &[WorkloadFile],
    expected: &Expected,
    scratch: &Path,
) -> Vec<WorkloadResult> {
    workloads
        .iter()
        .map(|w| {
            eprintln!("sea-bench-e2e: {} …", w.name);
            measure(w, opt, expected, scratch)
        })
        .collect()
}

/// Record the reference tier's outcome of every workload at each of its
/// study seeds into `expected.json`.
fn bless(workloads: &[WorkloadFile], scratch: &Path, path: &Path) {
    let mut expected = Expected::default();
    for w in workloads.iter().filter(|w| w.oracle == w.name) {
        for &seed in &w.seeds {
            eprintln!("sea-bench-e2e: blessing {} at {seed:#x} …", w.name);
            let v = Variant {
                seed,
                runs: w.runs,
                reference: true,
                tiny: false,
            };
            let out = run_child(w, &v, scratch).unwrap_or_else(|e| die(&e));
            if out.anomalies > 0 || out.outcome.runs != w.planned(w.runs) {
                die(&format!(
                    "{} at {seed:#x}: the reference run itself failed",
                    w.name
                ));
            }
            expected.insert(&w.name, seed, out.outcome);
        }
    }
    std::fs::write(path, expected.render())
        .unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    eprintln!("sea-bench-e2e: wrote {}", path.display());
}

fn main() {
    fleet::become_worker_if_asked();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        _ => {}
    }
    let (opt, noise, want_bless) = parse_options(&args);
    let bench_dir = Path::new(BENCH_DIR);
    let workloads = WorkloadFile::select(&bench_dir.join("workloads"), opt.only.as_deref())
        .unwrap_or_else(|e| die(&e));
    // Journals and fleet roots live here and are removed on success.
    let scratch = bench_dir
        .join("out")
        .join(format!("tmp-{}", std::process::id()));
    let expected_path = bench_dir.join("expected.json");

    if want_bless {
        bless(&workloads, &scratch, &expected_path);
        let _ = std::fs::remove_dir_all(&scratch);
        return;
    }
    let expected = Expected::load(&expected_path).unwrap_or_else(|e| die(&e));

    let results = run_set(&opt, &workloads, &expected, &scratch);
    let doc = document(&opt, &results);
    let mut ok = results.iter().all(|r| r.failed() == 0);
    print_table(&results);

    if noise {
        // The same code twice, back to back: every row must be `ok`, or
        // the benchmark's own bounds are tighter than its noise.
        let again = run_set(&opt, &workloads, &expected, &scratch);
        ok &= again.iter().all(|r| r.failed() == 0);
        print_table(&again);
        let parse = |d: &str| json::parse(d).expect("own document is valid JSON");
        let again_doc = document(&opt, &again);
        ok &= compare_docs(&parse(&doc), &parse(&again_doc)).unwrap_or_else(|e| die(&e));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    match &opt.out {
        Some(path) => std::fs::write(path, format!("{doc}\n"))
            .unwrap_or_else(|e| die(&format!("{}: {e}", path.display()))),
        None if !opt.contract => println!("{doc}"),
        None => {}
    }
    if opt.contract {
        let [r] = results.as_slice() else {
            die("--contract reports one workload: pass --workload NAME");
        };
        println!("{}", contract_line(r));
    }
    if !ok {
        eprintln!("sea-bench-e2e: FAILED — see the notes above");
        std::process::exit(1);
    }
}
