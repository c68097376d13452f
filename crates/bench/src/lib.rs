//! # sea-bench — regeneration harness for every table and figure
//!
//! One binary per artifact of the paper's evaluation:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1` | Table I — simulation throughput per abstraction layer |
//! | `table2` | Table II — setup attributes |
//! | `table3` | Table III — benchmark inputs and characteristics |
//! | `table4` | Table IV — per-component statistical error margins |
//! | `fig3` | Fig 3 — beam FIT rates per benchmark |
//! | `fig4` | Fig 4 — fault-injection effect classification |
//! | `fig5` | Fig 5 — fault-injection FIT rates |
//! | `fig6`–`fig9` | Figs 6–9 — beam/FI FIT ratios per class |
//! | `fig10` | Fig 10 — aggregate comparison overview |
//! | `fit_raw` | §VI — the L1 per-bit raw-FIT measurement |
//! | `counters` | §IV-D — the 7-counter setup cross-check |
//! | `replay` | re-execute a quarantined anomaly deterministically |
//! | `reproduce_all` | everything above, in order |
//!
//! Ablation binaries (`ablation_multibit`, `ablation_unmodeled`,
//! `ablation_cache_scaling`, `ablation_samples`, `ablation_tlb`) cover the
//! design choices DESIGN.md §4 calls out.
//!
//! Every binary accepts `--samples N` (faults/component), `--strikes N`
//! (beam strikes/benchmark), `--seed N`, `--threads N`, `--tiny`
//! (tiny inputs for smoke runs), `--suite A,B,…` (benchmark subset),
//! `--trace-out FILE.jsonl` (capture a structured `sea-trace` event
//! stream, with fault provenance, and print a trace summary at exit)
//! and `--progress` (live per-class progress meter on stderr).
//!
//! Campaign robustness flags (see README "Robustness" and "Durability"):
//! `--journal DIR` writes an append-only, crash-consistent `.seaj`
//! outcome journal per workload, `--fsync none|every-n=N` sets the
//! journal fsync cadence, `--resume` validates and continues an
//! interrupted journal (truncating a torn tail), `--quarantine FILE`
//! collects panicking runs as replayable anomaly records in a `.seaj`
//! log of their own, and `--run-timeout-ms N` puts a wall-clock watchdog
//! on every run. The `journal` binary audits `.seaj` files and exports
//! them as JSON Lines offline.
//!
//! Speed (see README "Performance"): by default every run is served from
//! the fast path (µop cache + translation latches), a per-worker warp
//! cursor (injection campaigns only) and in-memory golden-run epoch
//! checkpoints at an initial stride of 65,536 cycles,
//! which also arm the reconvergence cut and dead-cell pruning. All of it
//! is journal-neutral. `--reference` switches the three off, so every run
//! boots from reset on the reference tier — the differential oracle.
//! `--checkpoint-interval N` sets the epoch stride (0 = off).
//! `bash benchmark/run.sh` measures them end to end. `--help` lists every
//! flag.
//!
//! Profiling flags (see README "Profiling"): `--profile-out FILE` writes a
//! per-workload attribution report (cycle hotspots + predicted-vs-measured
//! AVF from a profiled golden run), `--chrome-trace FILE.json` renders the
//! captured trace as Chrome trace-event JSON (`chrome://tracing` /
//! Perfetto), and `--prom-out FILE.prom` rewrites a Prometheus
//! text-exposition snapshot of live campaign metrics about once a second.
//!
//! Observability flags (see README "Live monitoring"): `--serve ADDR`
//! starts the embedded HTTP server (`/status`, `/metrics`, `/events`,
//! `/journal/tail`, `/healthz`) for the life of the run without changing a
//! single journal byte; `--stop-at-margin PCT` ends each campaign/session
//! early once every stratum's adjusted 99%-confidence error margin
//! reaches PCT percent; `--convergence-out FILE` writes post-hoc
//! convergence curves (margin vs. sample count at doubling checkpoints)
//! for every campaign.
//! Fleet service (see README "Fleet service"): the `fleet` binary runs
//! the `sea-fleet` daemon (`fleet serve`), its worker processes (`fleet
//! worker --connect ADDR`) and a study-submission client (`fleet submit`).
//! Every campaign binary also installs graceful SIGTERM/SIGINT handling:
//! the signal raises the process-wide stop flag, workers drain, journals
//! flush, and an interrupted run resumes with `--resume`.
//!
//! Criterion microbenchmarks (`cargo bench -p sea-bench`) cover the
//! simulator kernels the tables depend on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sea_core::analysis::TraceSummary;
use sea_core::{
    trace, CampaignResult, Overview, Scale, Study, StudyResult, Workload, WorkloadStudy,
};
use std::path::PathBuf;
use std::sync::Arc;

/// What `--help` prints: every flag [`parse_options`] accepts.
const USAGE: &str = "\
usage: <binary> [flags]

  --samples N               injected faults per component (default 150)
  --strikes N               beam strikes per benchmark (default 600)
  --seed N                  RNG seed
  --threads N               worker threads (0 = every core, the default)
  --tiny                    tiny benchmark inputs, for smoke runs
  --suite A,B,...           benchmark subset (default: all 13)
  --reference               reference tier: no fast path, no warp cursor, no
                            in-memory checkpoints; every run boots from reset
                            (the default has all three on; journals are
                            byte-identical either way)
  --checkpoint-interval N   golden-run epoch stride in cycles (default 65536,
                            0 = off)
  --journal DIR             write a .seaj outcome journal per workload
  --fsync none|every-n=N    journal sync cadence (default every-n=64)
  --resume                  continue an interrupted journal
  --quarantine FILE         collect panicking runs in a .seaj quarantine
  --run-timeout-ms N        wall-clock watchdog per run
  --serve ADDR              live HTTP observability (/status, /metrics, ...)
  --stop-at-margin PCT      stop once every stratum's adjusted 99% margin <= PCT
  --convergence-out FILE    margin-vs-n curves at doubling checkpoints
  --trace-out FILE.jsonl    structured trace events, summary on exit
  --chrome-trace FILE.json  Chrome trace-event rendering of the trace
  --profile-out FILE        per-workload attribution report
  --prom-out FILE.prom      Prometheus snapshot, rewritten about once a second
  --progress                live progress meter on stderr
  --help                    this text
";

/// CLI options shared by every regeneration binary.
#[derive(Clone, Debug)]
pub struct Options {
    /// The study configuration.
    pub study: Study,
    /// Benchmarks to include.
    pub suite: Vec<Workload>,
    /// Write post-hoc convergence curves (error margin vs. sample count at
    /// doubling checkpoints) for every campaign to this file.
    pub convergence_out: Option<PathBuf>,
    /// Live tracing attached by `--trace-out` / `--chrome-trace` /
    /// `--serve`; flushes and summarizes when the last clone drops (end of
    /// `main`).
    pub trace: Option<Arc<TraceSession>>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            study: Study::default(),
            suite: Workload::ALL.to_vec(),
            convergence_out: None,
            trace: None,
        }
    }
}

/// A live trace capture: installs the sinks `--trace-out` and/or
/// `--chrome-trace` ask for and enables info-level events across all
/// subsystems for the life of the value. Dropping it flushes the capture:
/// the JSON-Lines file gets a [`trace summary`](TraceSummary) on stderr,
/// and the Chrome file is rendered from the in-memory capture via
/// [`sea_core::profile::chrome_trace`].
pub struct TraceSession {
    jsonl: Option<PathBuf>,
    chrome: Option<(PathBuf, Arc<trace::MemorySink>)>,
    serving: bool,
}

impl std::fmt::Debug for TraceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSession")
            .field("jsonl", &self.jsonl)
            .field("chrome", &self.chrome.as_ref().map(|(p, _)| p))
            .field("serving", &self.serving)
            .finish()
    }
}

impl TraceSession {
    /// Start capturing to a JSON-Lines file, a Chrome trace-event file,
    /// the observability server's `/events` ring (`serve`), or any
    /// combination (truncates existing files). Returns `None` when no
    /// target is requested.
    ///
    /// # Panics
    ///
    /// Panics if the JSON-Lines file cannot be created.
    pub fn start(
        jsonl: Option<PathBuf>,
        chrome: Option<PathBuf>,
        serve: bool,
    ) -> Option<TraceSession> {
        if jsonl.is_none() && chrome.is_none() && !serve {
            return None;
        }
        let mut sinks: Vec<Arc<dyn trace::Sink>> = Vec::new();
        if let Some(path) = &jsonl {
            let sink = trace::JsonlSink::create(path)
                .unwrap_or_else(|e| panic!("--trace-out {}: {e}", path.display()));
            sinks.push(Arc::new(sink));
        }
        let chrome = chrome.map(|path| (path, Arc::new(trace::MemorySink::new())));
        if let Some((_, mem)) = &chrome {
            sinks.push(mem.clone() as Arc<dyn trace::Sink>);
        }
        if serve {
            sinks.push(sea_core::observe::tail_sink() as Arc<dyn trace::Sink>);
        }
        let sink = if sinks.len() == 1 {
            sinks.pop().expect("one sink")
        } else {
            Arc::new(trace::Tee(sinks))
        };
        trace::install_sink(sink);
        trace::set_level_all(trace::Level::Info);
        Some(TraceSession {
            jsonl,
            chrome,
            serving: serve,
        })
    }

    /// Where the JSON-Lines stream is being written, if anywhere.
    pub fn path(&self) -> Option<&std::path::Path> {
        self.jsonl.as_deref()
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if self.serving {
            // Stop the observability server first: its workers drain
            // queued connections before exiting, so in-flight /status and
            // /events responses complete against a still-installed sink.
            sea_core::observe::shutdown();
            sea_core::observe::publish_status(None);
            sea_core::observe::publish_metrics(None);
            sea_core::observe::publish_journal(None);
        }
        trace::disable_all();
        trace::shutdown();
        trace::uninstall_sink();
        if let Some((path, mem)) = self.chrome.take() {
            let doc = sea_core::profile::chrome_trace(&mem.take());
            match std::fs::write(&path, doc) {
                Ok(()) => eprintln!("\nchrome trace written to {}", path.display()),
                Err(e) => eprintln!("chrome trace: cannot write {}: {e}", path.display()),
            }
        }
        let Some(jsonl) = &self.jsonl else { return };
        match std::fs::read_to_string(jsonl) {
            Ok(text) => {
                let summary = TraceSummary::from_jsonl(&text);
                eprintln!("\ntrace written to {}", jsonl.display());
                eprint!("{}", summary.render());
            }
            Err(e) => eprintln!("trace: cannot summarize {}: {e}", jsonl.display()),
        }
    }
}

/// The value of a campaign or beam session, or — when it failed — the
/// end of the process, as the `fleet` binary ends a failed study: one line
/// `error: <workload>: <error>` on stderr and exit status 1, no panic.
pub fn or_exit<T, E: std::fmt::Display>(workload: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {workload}: {e}");
        std::process::exit(1)
    })
}

/// Parses the common CLI flags from `std::env::args`.
///
/// # Panics
///
/// Panics with a usage message on malformed flags.
pub fn parse_options() -> Options {
    // Graceful SIGTERM/SIGINT for every regeneration binary: the signal
    // raises the process-wide stop flag, campaign/beam loops drain their
    // in-flight runs, journals flush, and the run is resumable with
    // `--resume` (README "Robustness").
    sea_fleet::install_stop_signals();
    let mut opts = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> String {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
                .clone()
        };
        match args[i].as_str() {
            "--samples" => {
                opts.study.samples_per_component = need(i).parse().expect("--samples N");
                i += 2;
            }
            "--strikes" => {
                opts.study.beam_strikes = need(i).parse().expect("--strikes N");
                i += 2;
            }
            "--seed" => {
                opts.study.seed = need(i).parse().expect("--seed N");
                i += 2;
            }
            "--threads" => {
                opts.study.threads = need(i).parse().expect("--threads N");
                i += 2;
            }
            "--tiny" => {
                opts.study.scale = Scale::Tiny;
                i += 1;
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--chrome-trace" => {
                opts.study.chrome_trace = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--profile-out" => {
                opts.study.profile_out = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--prom-out" => {
                opts.study.prom_out = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--progress" => {
                trace::set_progress(true);
                i += 1;
            }
            "--journal" => {
                opts.study.journal_dir = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--fsync" => {
                opts.study.journal_fsync = sea_core::durable::FsyncPolicy::parse(&need(i))
                    .unwrap_or_else(|e| panic!("--fsync: {e}"));
                i += 2;
            }
            "--resume" => {
                opts.study.resume = true;
                i += 1;
            }
            "--quarantine" => {
                opts.study.quarantine = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--run-timeout-ms" => {
                opts.study.run_wall_ms = need(i).parse().expect("--run-timeout-ms N");
                i += 2;
            }
            "--checkpoint-interval" => {
                opts.study.checkpoint_interval =
                    need(i).parse().expect("--checkpoint-interval CYCLES");
                i += 2;
            }
            "--reference" => {
                opts.study = opts.study.reference();
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--serve" => {
                opts.study.serve = Some(need(i));
                i += 2;
            }
            "--stop-at-margin" => {
                let pct: f64 = need(i).parse().expect("--stop-at-margin PCT");
                assert!(
                    pct > 0.0 && pct < 100.0,
                    "--stop-at-margin wants a percentage in (0, 100)"
                );
                opts.study.stop_at_margin = Some(pct / 100.0);
                i += 2;
            }
            "--convergence-out" => {
                opts.convergence_out = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--suite" => {
                opts.suite = need(i)
                    .split(',')
                    .map(|name| {
                        Workload::ALL
                            .into_iter()
                            .find(|w| {
                                w.name().eq_ignore_ascii_case(name)
                                    || w.name().replace(' ', "").eq_ignore_ascii_case(name)
                            })
                            .unwrap_or_else(|| panic!("unknown workload `{name}`"))
                    })
                    .collect();
                i += 2;
            }
            other => panic!("unknown flag `{other}` (--help lists the flags)"),
        }
    }
    opts.trace = TraceSession::start(
        trace_out,
        opts.study.chrome_trace.clone(),
        opts.study.serve.is_some(),
    )
    .map(Arc::new);
    sea_core::profile::set_prom_out(opts.study.prom_out.as_deref());
    opts
}

/// Profiles every workload's golden run and writes the attribution report
/// (cycle hotspots + predicted-vs-measured AVF) to `--profile-out`.
/// `campaigns` supplies injection-measured AVFs where available; workloads
/// without one still get their predicted column. A no-op when
/// `--profile-out` was not given.
pub fn write_profile_report(opts: &Options, campaigns: &[(Workload, &CampaignResult)]) {
    let Some(path) = &opts.study.profile_out else {
        return;
    };
    let mut out = String::new();
    for &w in &opts.suite {
        let Some(profile) = opts.study.profile_workload(w) else {
            eprintln!("profile: golden run for {w} not clean, skipped");
            continue;
        };
        let measured = campaigns.iter().find(|(cw, _)| *cw == w).map(|(_, c)| *c);
        out.push_str(&sea_core::analysis::profile::render_profile(
            w.name(),
            &profile,
            measured,
        ));
        out.push('\n');
    }
    match std::fs::write(path, out) {
        Ok(()) => eprintln!("profile report written to {}", path.display()),
        Err(e) => eprintln!("profile: cannot write {}: {e}", path.display()),
    }
}

/// Writes the post-hoc convergence curves (adjusted error margin vs.
/// sample count at doubling checkpoints, per component) for every campaign
/// to `--convergence-out`. A no-op when the flag was not given.
pub fn write_convergence_report(opts: &Options, campaigns: &[(Workload, &CampaignResult)]) {
    let Some(path) = &opts.convergence_out else {
        return;
    };
    let mut out = String::new();
    for (_, c) in campaigns {
        out.push_str(&sea_core::analysis::render_convergence(c));
        out.push('\n');
    }
    match std::fs::write(path, out) {
        Ok(()) => eprintln!("convergence curves written to {}", path.display()),
        Err(e) => eprintln!("convergence: cannot write {}: {e}", path.display()),
    }
}

/// Runs the full study for the configured suite, printing progress to
/// stderr.
///
/// # Panics
///
/// Panics if a golden run fails (setup bug).
pub fn run_study(opts: &Options) -> StudyResult {
    eprintln!(
        "study: {} benchmarks, {} faults/component, {} beam strikes (seed {:#x})",
        opts.suite.len(),
        opts.study.samples_per_component,
        opts.study.beam_strikes,
        opts.study.seed
    );
    let t0 = std::time::Instant::now();
    let mut workloads: Vec<WorkloadStudy> = Vec::new();
    for &w in &opts.suite {
        let t = std::time::Instant::now();
        workloads.push(opts.study.run_workload(w).expect("workload study"));
        eprintln!("  {w}: {:.1}s", t.elapsed().as_secs_f64());
    }
    let comparisons: Vec<_> = workloads.iter().map(|w| w.comparison.clone()).collect();
    eprintln!("study done in {:.1}s", t0.elapsed().as_secs_f64());
    // Supervision audit goes to stderr so stdout (the artifact itself)
    // stays byte-stable for diffing clean vs resumed runs.
    let sup_rows: Vec<_> = workloads
        .iter()
        .map(|w| {
            (
                w.workload.name().to_string(),
                w.campaign.supervision,
                w.beam.supervision,
            )
        })
        .collect();
    let noteworthy = sup_rows.iter().any(|(_, i, b)| {
        i.quarantined + i.lost + b.quarantined + b.lost > 0
            || i.worker_respawns + b.worker_respawns > 0
            || i.resumed + b.resumed > 0
    });
    if noteworthy {
        eprintln!("\nsupervision summary:");
        eprint!(
            "{}",
            sea_core::analysis::report::supervision_table(&sup_rows)
        );
    }
    // Checkpoint audit: only rendered when checkpoints were on
    // (stderr, like the supervision table, so artifacts stay byte-stable).
    let ckpt_rows: Vec<_> = workloads
        .iter()
        .map(|w| {
            (
                w.workload.name().to_string(),
                w.campaign.golden_cycles,
                w.campaign.checkpoints,
                w.beam.checkpoints,
            )
        })
        .collect();
    if ckpt_rows
        .iter()
        .any(|(_, _, i, b)| i.is_some() || b.is_some())
    {
        eprintln!("\ncheckpoint summary:");
        eprint!(
            "{}",
            sea_core::analysis::report::checkpoint_table(&ckpt_rows)
        );
    }
    // Journal durability audit: rendered when journaling was active and
    // something beyond plain appends happened (resume, torn tail, write
    // retries, or a poisoned writer).
    let journal_rows: Vec<_> = workloads
        .iter()
        .map(|w| {
            (
                w.workload.name().to_string(),
                w.campaign.journal,
                w.beam.journal,
            )
        })
        .collect();
    let journal_noteworthy = journal_rows.iter().any(|(_, i, b)| {
        [i, b]
            .into_iter()
            .flatten()
            .any(|a| a.resumed > 0 || a.torn_bytes > 0 || a.retries > 0 || a.poisoned)
    });
    if journal_noteworthy {
        eprintln!("\njournal summary:");
        eprint!(
            "{}",
            sea_core::analysis::report::journal_table(&journal_rows)
        );
    }
    let res = StudyResult {
        overview: Overview::from_comparisons(&comparisons),
        workloads,
        fit_raw: opts.study.fit_raw,
    };
    let campaigns: Vec<(Workload, &CampaignResult)> = res
        .workloads
        .iter()
        .map(|w| (w.workload, &w.campaign))
        .collect();
    write_profile_report(opts, &campaigns);
    write_convergence_report(opts, &campaigns);
    res
}

/// Shared rendering for the ratio figures (Figs 6–9).
pub mod figures {
    use sea_core::analysis::report::{log_bar, ratio_label};
    use sea_core::{Comparison, StudyResult};

    /// Prints a signed log-scale ratio chart, one row per benchmark.
    pub fn ratio_figure(title: &str, res: &StudyResult, metric: impl Fn(&Comparison) -> f64) {
        println!("{title}");
        println!("(negative ← fault injection higher | beam higher → positive; log scale)\n");
        let rows: Vec<(String, f64)> = res
            .workloads
            .iter()
            .map(|w| (w.comparison.workload.clone(), metric(&w.comparison)))
            .collect();
        let max = rows
            .iter()
            .map(|(_, r)| if r.is_finite() { r.abs() } else { 1000.0 })
            .fold(10.0f64, f64::max);
        let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4);
        for (name, r) in &rows {
            let bar = log_bar(*r, max, 30);
            if *r >= 0.0 {
                println!("{name:<name_w$} {:>31}|{bar:<30} {}", "", ratio_label(*r));
            } else {
                println!("{name:<name_w$} {:>31}|{:<30} {}", bar, "", ratio_label(*r));
            }
        }
    }
}
