//! `sea-bench-layers` — the traced half of the SEA benchmark.
//!
//! For one workload (or all of them) it replays the study from the
//! benchmark's own driver, with an in-memory span around every call into
//! a layer, and runs a handful of probes against single public functions.
//! The result is the per-layer metric table of `benchmark/README.md` plus
//! a self-time share table that sums to 100 %, and a Chrome trace under
//! `benchmark/out/`. Unlike `sea-bench-e2e` this file may name any public
//! function: if API drift breaks a probe, only this binary stops
//! compiling.
//!
//! ```text
//! sea-bench-layers [--workload NAME] [--seed S] [--seconds S] [--smoke]
//!                  [--out FILE] [--contract]
//! ```
//!
//! The replay has two passes over the same run indices. Pass A calls the
//! production path, `CampaignPlan::run_index(i)`, in index order on one
//! thread (cursor included). Pass B recomposes a run from the layers
//! below it — restore or boot, step the fault-free prefix, flip the bit,
//! run to a terminal state, classify, render the verdict line, append it
//! to a journal, update the convergence tracker — and must arrive at the
//! same verdict line for every index. A beam session has no per-index
//! entry point, so its pass A is `run_session` under a trace sink that
//! keeps the `beam.strike` events, and pass B replays the strikes those
//! events describe.
//!
//! A metric of a layer that is not on a workload's path reads 0 there
//! (`fleet.*` off the fleet workload, `durable.*` on unjournaled ones,
//! `microarch.fast_*` without `fast_path`, …).

use sea_benchmark::json::{self, Json, ObjWriter};
use sea_benchmark::metrics::LAYERS;
use sea_benchmark::span::Tracer;
use sea_benchmark::stats::{median, percentile};
use sea_benchmark::workload::{Kind, Variant, WorkloadFile, FIRST_CANDIDATE_SEED};
use sea_benchmark::{fleet, procstat};
use sea_core::beam::{measure_kernel_residency, run_session};
use sea_core::durable::{self, DurableWriter, FsyncPolicy};
use sea_core::injection::supervisor::{open_journal, JournalSpec, RunVerdict};
use sea_core::injection::{
    run_campaign, verdict_line, warp as cursor, CampaignConfig, CampaignPlan, ConvergenceTracker,
    InjectionOutcome, InjectionSpec, JournalFormat,
};
use sea_core::microarch::{FastPathConfig, NullDevice, StepOutcome, System, WarpConfig};
use sea_core::platform::{
    boot, classify, golden_run, golden_run_with_checkpoints, run, snapshot_metrics, Checkpoint,
    CheckpointSet, RunLimits,
};
use sea_core::trace::{self, Level, MemorySink, Subsystem, SummarySink, Value};
use sea_core::workloads::BuiltWorkload;
use sea_core::{Component, FaultClass, StudySpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SCHEMA: u64 = 1;
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn die(msg: &str) -> ! {
    eprintln!("sea-bench-layers: {msg}");
    std::process::exit(2);
}

/// The metric values of one traced run; every name starts at 0.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(LAYERS.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in metrics::LAYERS"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        for m in &LAYERS {
            let mut v = ObjWriter::new();
            v.f64_field("value", self.get(m.name))
                .str_field("unit", m.unit);
            o.raw_field(m.name, &v.finish());
        }
        o.finish()
    }
}

/// Wall seconds of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median wall seconds of `reps` calls of `f`.
fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, s) = timed(&mut f);
            std::hint::black_box(out);
            s
        })
        .collect();
    median(&samples)
}

struct Ctx<'a> {
    w: &'a WorkloadFile,
    spec: StudySpec,
    spec_text: String,
    scratch: PathBuf,
    /// Seconds pass B may spend before it stops taking new indices.
    recompose_budget_s: f64,
    nproc: usize,
}

/// What the replay checked.
#[derive(Default)]
struct Checks {
    /// Runs whose recomposed verdict was compared with production's.
    compared: u64,
    /// …and differed.
    mismatched: u64,
    notes: Vec<String>,
}

impl Checks {
    fn compare(&mut self, same: bool, what: impl FnOnce() -> String) {
        self.compared += 1;
        if !same {
            self.mismatched += 1;
            // The first few say what went wrong; the count says how often.
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }
}

// ------------------------------------------------------- guest probes

/// Probes of single functions on the workload's guest: build, boot,
/// golden runs, the execution tiers, clone and checkpoint costs.
fn guest_probes(ctx: &Ctx, l: &mut Layers) -> Result<(), String> {
    let study = &ctx.spec.study;
    let workload = ctx.spec.suite[0];
    l.set(
        "workloads.build_ms",
        1e3 * median_of(3, || workload.build(study.scale)),
    );
    let built = workload.build(study.scale);
    let fresh = || {
        boot(study.machine, &built.image, &study.kernel)
            .expect("the guest boots")
            .0
    };
    l.set("platform.boot_us", 1e6 * median_of(9, fresh));

    let budget = study.golden_budget_cycles;
    let golden = golden_run(study.machine, &built.image, &study.kernel, budget)
        .map_err(|e| e.to_string())?;
    l.set(
        "platform.golden_run_ms",
        1e3 * median_of(3, || {
            golden_run(study.machine, &built.image, &study.kernel, budget)
        }),
    );
    l.set("microarch.golden_cycles", golden.cycles as f64);
    l.set(
        "microarch.sim_ipc",
        golden.instructions as f64 / golden.cycles as f64,
    );

    // Half the run's instructions: safely inside the fault-free prefix on
    // every tier even though their cycle clocks drift apart.
    let steps = golden.instructions / 2;
    let msteps = |secs: f64| steps as f64 / secs / 1e6;
    let stepped = |sys: &mut System<_>| {
        for _ in 0..steps {
            sys.step();
        }
    };
    // Left mid-run afterwards: what a cursor handoff clones (fast-path
    // state included, when the study arms it).
    let mut mid = fresh();
    if study.fast_path {
        mid.fastpath_enable(FastPathConfig::default());
        let before = mid.cpu.counters;
        l.set(
            "microarch.fast_msteps_per_s",
            msteps(timed(|| stepped(&mut mid)).1),
        );
        let s = mid.fastpath_stats().expect("fast path armed");
        let accesses = mid.cpu.counters.delta(&before);
        l.set(
            "microarch.fast_uop_hit_rate",
            s.uop_hits as f64 / (s.uop_hits + s.uop_misses).max(1) as f64,
        );
        // A page latch can serve the translation of any L1 access.
        l.set(
            "microarch.fast_latch_hit_rate",
            s.latch_hits as f64 / (accesses.l1i_access + accesses.l1d_access).max(1) as f64,
        );
    } else {
        l.set(
            "microarch.ref_msteps_per_s",
            msteps(timed(|| stepped(&mut mid)).1),
        );
    }
    if study.warp {
        // The campaign's "warp" knob is the detailed cursor in
        // sea_injection::warp; `run_warp` itself is called only from
        // benches and tests, so this number moves no end-to-end metric.
        let mut sys = fresh();
        sys.warp_enable(WarpConfig::default());
        let (out, secs) = timed(|| sys.run_warp(steps));
        if out != StepOutcome::Executed {
            return Err(format!("run_warp stopped early: {out:?}"));
        }
        l.set("microarch.warp_msteps_per_s", msteps(secs));
    }
    l.set("microarch.clone_us", 1e6 * median_of(21, || mid.clone()));

    if study.checkpoint_interval != 0 {
        l.set(
            "snapshot.capture_us",
            1e6 * median_of(21, || Checkpoint::capture(&mid)),
        );
        let rss = procstat::rss_kib();
        let ((_, set), secs) = timed(|| {
            golden_run_with_checkpoints(
                study.machine,
                &built.image,
                &study.kernel,
                budget,
                study.checkpoint_interval,
            )
            .expect("the golden run already succeeded")
        });
        l.set("platform.golden_ckpt_ms", 1e3 * secs);
        l.set("snapshot.epochs", set.len() as f64);
        l.set(
            "snapshot.set_kib",
            procstat::rss_kib().saturating_sub(rss) as f64,
        );
        l.set(
            "snapshot.restore_us_p50",
            1e6 * median_of(21, || set.restore_at(golden.cycles / 2)),
        );
    }
    Ok(())
}

// ----------------------------------------------------- recomposed run

/// Process-wide cursor and checkpoint counters, read before and after a
/// pass to attribute the difference to it.
#[derive(Clone, Copy)]
struct Counters {
    handoffs: u64,
    resets: u64,
    advance_cycles: u64,
    ckpt_prefix_saved: u64,
}

fn counters() -> Counters {
    Counters {
        handoffs: cursor::WARP_HANDOFFS.get(),
        resets: cursor::WARP_CURSOR_RESETS.get(),
        advance_cycles: cursor::WARP_ADVANCE_CYCLES.get(),
        ckpt_prefix_saved: snapshot_metrics().2,
    }
}

/// Cursor and checkpoint accounting of one production pass over `runs`
/// simulated runs.
fn set_prefix_accounting(l: &mut Layers, before: Counters, runs: u64) {
    let now = counters();
    let per_run = |d: u64| d as f64 / runs.max(1) as f64;
    l.set(
        "injection.cursor_handoff_frac",
        per_run(now.handoffs - before.handoffs),
    );
    l.set(
        "injection.cursor_resets",
        per_run(now.resets - before.resets),
    );
    l.set(
        "snapshot.prefix_cycles_saved_per_run",
        per_run(now.ckpt_prefix_saved - before.ckpt_prefix_saved),
    );
}

/// The simulator-facing part of one run, recomposed from public layer
/// functions with a span around each: machine acquisition, fault-free
/// prefix, flip, run to a terminal state, classification.
struct Recomposer<'a> {
    built: &'a BuiltWorkload,
    cfg: &'a CampaignConfig,
    ckpts: Option<&'a CheckpointSet>,
    limits: RunLimits,
    prefix_cycles: u64,
    suffix_cycles: u64,
}

impl Recomposer<'_> {
    fn run(&mut self, tr: &mut Tracer, i: u64, s: InjectionSpec) -> InjectionOutcome {
        let idx = Some(i);
        let restored = self
            .ckpts
            .and_then(|set| tr.span("snapshot.restore_at", idx, |_| set.restore_at(s.cycle)));
        let mut sys = restored.unwrap_or_else(|| {
            tr.span("platform.boot", idx, |_| {
                boot(self.cfg.machine, &self.built.image, &self.cfg.kernel)
                    .expect("the golden run booted the same image")
                    .0
            })
        });
        if self.cfg.fast_path {
            sys.fastpath_enable(FastPathConfig::default());
        }
        let from = sys.cycles();
        tr.span("microarch.prefix_step", idx, |_| {
            while sys.cycles() < s.cycle {
                sys.step();
            }
        });
        self.prefix_cycles += sys.cycles() - from;
        let site = tr.span("microarch.flip_bit", idx, |_| {
            sys.flip_bit(s.component, s.bit)
        });
        let at = sys.cycles();
        let outcome = tr.span("platform.run", idx, |_| run(&mut sys, self.limits));
        self.suffix_cycles += sys.cycles() - at;
        let class = tr.span("platform.classify", idx, |_| {
            classify(&outcome, &self.built.golden)
        });
        // Tearing a machine down (caches, COW pages) is part of every run.
        tr.span("microarch.drop", idx, |_| drop(sys));
        InjectionOutcome {
            spec: s,
            array: site.array,
            was_valid: site.was_valid,
            class,
        }
    }
}

/// Visit `0..n` in a scattered but fixed order (a stride coprime to `n`),
/// so a pass cut short by its time budget still samples the whole cycle
/// range instead of its cheap end.
fn scattered(n: u64) -> impl Iterator<Item = u64> {
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = (n as f64 * 0.618) as u64 | 1;
    while n > 1 && gcd(stride, n) != 1 {
        stride += 2;
    }
    (0..n).map(move |k| (k * stride) % n.max(1))
}

/// Per-run layer metrics read off the recomposed pass's spans.
fn set_recomposed_metrics(l: &mut Layers, tr: &Tracer, rc: &Recomposer, runs: u64) {
    let ms = |name: &str, p: f64| {
        let d = tr.durations_s(name);
        if d.is_empty() {
            0.0
        } else {
            1e3 * percentile(&d, p)
        }
    };
    l.set("platform.suffix_ms_p50", ms("platform.run", 0.5));
    l.set("platform.suffix_ms_p95", ms("platform.run", 0.95));
    l.set("injection.prefix_ms_p50", ms("microarch.prefix_step", 0.5));
    l.set("platform.classify_us", 1e3 * ms("platform.classify", 0.5));
    l.set(
        "platform.suffix_cycles_per_run",
        rc.suffix_cycles as f64 / runs.max(1) as f64,
    );
    l.set("bench.replayed_runs", runs as f64);
}

// ------------------------------------------------------ inject replay

/// Replay an injection study (also the in-process shape of a fleet
/// study): production pass, recomposed pass, then the whole-campaign
/// comparisons.
fn trace_inject(ctx: &Ctx, l: &mut Layers, tr: &mut Tracer) -> Result<Checks, String> {
    let study = &ctx.spec.study;
    let workload = ctx.spec.suite[0];
    let journaled = ctx.w.journal || ctx.w.kind == Kind::Fleet;
    let mut checks = Checks::default();

    let driver = tr.enter("bench.driver", None);
    let built = tr.span("workloads.build", None, |_| workload.build(study.scale));
    let cfg = study.injection_config_for(workload);
    let plan = tr
        .span("injection.plan_new", None, |_| {
            CampaignPlan::new(workload.name(), &built, &cfg)
        })
        .map_err(|e| e.to_string())?;
    l.set(
        "injection.plan_new_ms",
        1e3 * tr.durations_s("injection.plan_new")[0],
    );
    let total = plan.total();

    // Pass A: the production path, in index order on this thread.
    let before = counters();
    let (verdicts, pass_a_s) = timed(|| {
        (0..total)
            .map(|i| tr.span("injection.run_index", Some(i), |_| plan.run_index(i)))
            .collect::<Vec<RunVerdict>>()
    });
    set_prefix_accounting(l, before, total);
    l.set(
        "injection.prefix_cycles_per_run",
        (counters().advance_cycles - before.advance_cycles) as f64 / total.max(1) as f64,
    );
    let run_s = tr.durations_s("injection.run_index");
    l.set("injection.run_ms_p50", 1e3 * percentile(&run_s, 0.5));
    l.set("injection.run_ms_p95", 1e3 * percentile(&run_s, 0.95));

    // Pass B: the same runs recomposed from the layers below.
    let journal = if journaled {
        let spec = JournalSpec {
            dir: ctx.scratch.join("recomposed"),
            resume: false,
            format: JournalFormat::Binary,
            fsync: study.journal_fsync,
        };
        Some(
            open_journal(&spec, &plan.header())
                .map_err(|e| e.to_string())?
                .0,
        )
    } else {
        None
    };
    let probe = System::new(cfg.machine, NullDevice);
    let tracker = ConvergenceTracker::with_strata(
        sea_core::injection::stats::Z_99,
        cfg.components
            .iter()
            .map(|&c| (c.short_name().to_string(), probe.component_bits(c))),
    );
    let mut rc = Recomposer {
        built: &built,
        cfg: &cfg,
        ckpts: plan.checkpoints(),
        limits: RunLimits::from_golden(plan.golden_cycles(), cfg.kernel.tick_period)
            .with_wall_ms(cfg.supervisor.run_wall_ms),
        prefix_cycles: 0,
        suffix_cycles: 0,
    };
    let started = Instant::now();
    let mut lines = Vec::new();
    for i in scattered(total) {
        if started.elapsed().as_secs_f64() > ctx.recompose_budget_s {
            break;
        }
        tr.span("bench.recomposed_run", Some(i), |tr| {
            let outcome = rc.run(tr, i, plan.specs()[i as usize]);
            let verdict = RunVerdict {
                outcome: Some(outcome),
                anomaly: None,
                sim_cycles: 0,
            };
            let line = tr.span("injection.verdict_line", Some(i), |_| {
                verdict_line(i, &verdict)
            });
            if let Some(j) = &journal {
                tr.span("durable.append", Some(i), |_| j.append(&line));
            }
            tr.span("injection.tracker_record", Some(i), |_| {
                tracker.record(plan.stratum_of(i), outcome.class)
            });
            checks.compare(line == verdict_line(i, &verdicts[i as usize]), || {
                format!("index {i}: recomposed {line} != production path")
            });
            lines.push(line);
        });
    }
    // Everything below is probes and untraced comparisons, not replay.
    tr.exit(driver);
    set_recomposed_metrics(l, tr, &rc, checks.compared);
    if !study.warp {
        // Without the cursor every run re-simulates its whole prefix.
        l.set(
            "injection.prefix_cycles_per_run",
            rc.prefix_cycles as f64 / checks.compared.max(1) as f64,
        );
    }
    if let Some(j) = &journal {
        j.sync();
        let audit = j.audit();
        let runs = checks.compared.max(1) as f64;
        l.set("durable.fsyncs_per_krun", 1e3 * audit.fsyncs as f64 / runs);
        let file = std::fs::read_dir(ctx.scratch.join("recomposed"))
            .ok()
            .and_then(|mut d| d.next())
            .and_then(|e| e.ok())
            .and_then(|e| e.metadata().ok())
            .map_or(0, |m| m.len());
        l.set("durable.bytes_per_run", file as f64 / runs);
        durable_probes(ctx, l, &lines)?;
    }

    // Nanosecond-scale calls: a span per call would time the timer, so
    // these two come from tight loops over the real verdicts.
    const LOOPS: usize = 20;
    let calls = (LOOPS * verdicts.len()).max(1) as f64;
    let (_, secs) = timed(|| {
        for _ in 0..LOOPS {
            for (i, v) in verdicts.iter().enumerate() {
                std::hint::black_box(verdict_line(i as u64, v));
            }
        }
    });
    l.set("injection.verdict_line_us", 1e6 * secs / calls);
    let (_, secs) = timed(|| {
        for _ in 0..LOOPS {
            for (i, v) in verdicts.iter().enumerate() {
                if let Some(o) = &v.outcome {
                    tracker.record(plan.stratum_of(i as u64), o.class);
                }
            }
        }
    });
    l.set("injection.tracker_record_ns", 1e9 * secs / calls);

    // Whole-campaign comparisons, untraced: the same spec through
    // `run_campaign` on one thread, on two, and under a trace sink.
    let campaign = |threads: usize| {
        let mut c = study.injection_config_for(workload);
        c.threads = threads;
        timed(|| run_campaign(workload.name(), &built, &c))
    };
    let (result, t1_s) = campaign(1);
    result.map_err(|e| e.to_string())?;
    l.set(
        "injection.supervisor_overhead_frac",
        1.0 - run_s.iter().sum::<f64>() / t1_s,
    );
    // Plan + traced pass A do the work `run_campaign` does on one thread.
    let traced_s = tr.durations_s("injection.plan_new")[0] + pass_a_s;
    l.set("bench.trace_overhead_frac", traced_s / t1_s - 1.0);
    if ctx.nproc >= 2 {
        let (result, t2_s) = campaign(2);
        result.map_err(|e| e.to_string())?;
        l.set("injection.t2_scaling", t1_s / t2_s);
    }
    trace::install_sink(Arc::new(SummarySink::new()));
    trace::set_level_all(Level::Info);
    let (result, sink_s) = campaign(1);
    trace::disable_all();
    trace::uninstall_sink();
    result.map_err(|e| e.to_string())?;
    l.set("trace.overhead_frac", sink_s / t1_s - 1.0);
    Ok(checks)
}

/// The journal writer alone, fed the real verdict lines: per-append cost
/// without fsync and with one per record.
fn durable_probes(ctx: &Ctx, l: &mut Layers, lines: &[String]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("durable probe: {e}");
    let path = ctx.scratch.join("append-probe.seaj");
    for (metric, policy, cap) in [
        ("durable.append_us_p50", FsyncPolicy::None, usize::MAX),
        // An fdatasync per record is milliseconds on a disk; 64 suffice.
        ("durable.append_sync_us_p50", FsyncPolicy::EveryN(1), 64),
    ] {
        let mut w = DurableWriter::create(&path, policy).map_err(io)?;
        w.append(&durable::encode_file_header(b"{}")).map_err(io)?;
        let mut samples = Vec::new();
        for (k, line) in lines.iter().take(cap).enumerate() {
            let rec = durable::encode_record(k as u64 + 1, line.as_bytes());
            let (res, secs) = timed(|| w.append(&rec));
            res.map_err(io)?;
            samples.push(secs);
        }
        if !samples.is_empty() {
            l.set(metric, 1e6 * median(&samples));
        }
    }
    Ok(())
}

// -------------------------------------------------------- beam replay

fn text_of(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(*s),
        Value::Text(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Run `f` with the trace plane recording the Beam subsystem's
/// `beam.strike` events, and return the simulated (SRAM) strikes among
/// them. Beam only: Injection at Info would arm the per-step provenance
/// probe and change what is being timed.
fn observing_strikes<T>(f: impl FnOnce() -> T) -> (T, Vec<trace::Event>) {
    let sink = Arc::new(MemorySink::keeping(&["beam.strike"]));
    trace::install_sink(sink.clone());
    trace::set_level(Subsystem::Beam, Level::Info);
    let out = f();
    trace::disable_all();
    trace::uninstall_sink();
    let mut strikes = sink.take();
    strikes.retain(|e| matches!(e.get("modeled"), Some(Value::Bool(true))));
    (out, strikes)
}

/// Replay a beam session: `run_session` under a sink that keeps the
/// `beam.strike` events (pass A), the simulated strikes recomposed from
/// the layers below (pass B), and the session without any sink.
fn trace_beam(ctx: &Ctx, l: &mut Layers, tr: &mut Tracer) -> Result<Checks, String> {
    let study = &ctx.spec.study;
    let workload = ctx.spec.suite[0];
    let name = workload.name();
    let mut checks = Checks::default();

    let built = workload.build(study.scale);
    let cfg = study.beam_config_for(workload);
    l.set(
        "beam.kernel_residency_ms",
        1e3 * median_of(3, || measure_kernel_residency(&built, &cfg)),
    );
    let (empty, secs) = timed(|| run_session(name, &built, &cfg, 0));
    empty.map_err(|e| e.to_string())?;
    l.set("beam.setup_ms", 1e3 * secs);

    // Pass A: the production path, its strikes observed through the
    // trace plane.
    let driver = tr.enter("bench.driver", None);
    let before = counters();
    let ((result, events), pass_a_s) = timed(|| {
        observing_strikes(|| {
            tr.span("beam.run_session", None, |_| {
                run_session(name, &built, &cfg, study.beam_strikes)
            })
        })
    });
    let result = result.map_err(|e| e.to_string())?;
    let strikes: Vec<(InjectionSpec, String)> = events
        .iter()
        .map(|e| {
            let spec = InjectionSpec {
                component: text_of(e.get("component")).and_then(Component::from_short_name)?,
                bit: match e.get("bit")? {
                    Value::U64(b) => *b,
                    _ => return None,
                },
                cycle: e.cycle?,
            };
            Some((spec, text_of(e.get("class"))?.to_string()))
        })
        .collect::<Option<_>>()
        .ok_or("a beam.strike event lacks component, bit, cycle or class")?;
    let simulated = strikes.len() as u64;
    l.set(
        "beam.sram_strike_frac",
        simulated as f64 / result.counts.total().max(1) as f64,
    );
    set_prefix_accounting(l, before, simulated);
    l.set(
        "injection.prefix_cycles_per_run",
        (counters().advance_cycles - before.advance_cycles) as f64 / simulated.max(1) as f64,
    );

    // Pass B: the simulated strikes recomposed. The session keeps its
    // checkpoint set private, so the replay captures its own.
    let budget = study.golden_budget_cycles;
    let (golden, set) = tr
        .span("platform.golden_run", None, |_| {
            if study.checkpoint_interval != 0 {
                golden_run_with_checkpoints(
                    study.machine,
                    &built.image,
                    &study.kernel,
                    budget,
                    study.checkpoint_interval,
                )
                .map(|(g, s)| (g, Some(s)))
            } else {
                golden_run(study.machine, &built.image, &study.kernel, budget).map(|g| (g, None))
            }
        })
        .map_err(|e| e.to_string())?;
    let inj_cfg = CampaignConfig {
        machine: cfg.machine,
        kernel: cfg.kernel,
        fast_path: cfg.fast_path,
        ..CampaignConfig::default()
    };
    let mut rc = Recomposer {
        built: &built,
        cfg: &inj_cfg,
        ckpts: set.as_ref(),
        limits: RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period)
            .with_wall_ms(cfg.supervisor.run_wall_ms),
        prefix_cycles: 0,
        suffix_cycles: 0,
    };
    let started = Instant::now();
    for k in scattered(simulated) {
        if started.elapsed().as_secs_f64() > ctx.recompose_budget_s {
            break;
        }
        let (spec, class) = &strikes[k as usize];
        let got: FaultClass = tr
            .span("bench.recomposed_run", Some(k), |tr| rc.run(tr, k, *spec))
            .class;
        checks.compare(got.to_string() == *class, || {
            format!("strike {spec:?}: recomposed {got}, session said {class}")
        });
    }
    tr.exit(driver);
    set_recomposed_metrics(l, tr, &rc, checks.compared);

    // The session with no sink at all: the base of both overheads.
    let (result, plain_s) = timed(|| run_session(name, &built, &cfg, study.beam_strikes));
    result.map_err(|e| e.to_string())?;
    l.set("trace.overhead_frac", pass_a_s / plain_s - 1.0);
    l.set("bench.trace_overhead_frac", pass_a_s / plain_s - 1.0);
    Ok(checks)
}

// -------------------------------------------------------- fleet probe

/// One fleet study plus the same study on two threads in this process,
/// then the journal layer's scan / export / merge on what the fleet left.
fn fleet_probes(ctx: &Ctx, l: &mut Layers) -> Result<(), String> {
    let run = fleet::run_study(&ctx.scratch.join("fleet"), ctx.w.workers, &ctx.spec_text)?;
    let ms = |d: std::time::Duration| 1e3 * d.as_secs_f64();
    if let (Some(first), Some(last)) = (run.first_record, run.last_record) {
        l.set("fleet.first_record_ms", ms(first));
        l.set("fleet.winddown_ms", ms(run.wall.saturating_sub(last)));
    }
    let roster = match run.status.get("workers") {
        Some(Json::Arr(workers)) => workers.len() as u64,
        _ => 0,
    };
    // A respawned worker joins as a new shard, so the roster outgrows
    // the configured fleet by exactly the respawns.
    l.set(
        "fleet.respawns",
        roster.saturating_sub(u64::from(ctx.w.workers)) as f64,
    );

    let merged =
        std::fs::read(&run.merged).map_err(|e| format!("{}: {e}", run.merged.display()))?;
    let mb = merged.len() as f64 / 1e6;
    let records = durable::scan(&merged)
        .map_err(|e| e.to_string())?
        .records
        .len();
    l.set(
        "durable.scan_mb_per_s",
        mb / median_of(9, || durable::scan(&merged).map(|s| s.valid_len)),
    );
    l.set(
        "durable.export_mb_per_s",
        mb / median_of(9, || durable::export_jsonl(&merged)),
    );
    let again = ctx.scratch.join("fleet").join("merge-probe.seaj");
    let (audit, secs) = timed(|| sea_fleet::merge_shard_journals(&run.shards, &again));
    let audit = audit.map_err(|e| e.to_string())?;
    l.set("durable.merge_ms", 1e3 * secs);
    // Runs a requeued block executed twice show up as byte-identical
    // duplicate records the merge drops.
    l.set("fleet.requeues", audit.duplicates as f64);

    if ctx.nproc >= 2 {
        let workload = ctx.spec.suite[0];
        let mut study = ctx.spec.study.clone();
        study.threads = 2;
        study.journal_dir = Some(ctx.scratch.join("inproc"));
        let built = workload.build(study.scale);
        let cfg = study.injection_config_for(workload);
        let (result, secs) = timed(|| run_campaign(workload.name(), &built, &cfg));
        result.map_err(|e| e.to_string())?;
        l.set("fleet.vs_inproc_ratio", secs / run.wall.as_secs_f64());
    }
    if records as u64 != ctx.w.planned(ctx.spec.study.samples_per_component) {
        return Err(format!("the merged journal holds {records} records"));
    }
    Ok(())
}

// -------------------------------------------------------- seed survey

/// Simulated cycles a workload's study executes at `seed` — the work
/// that decides how long a rep takes, free of host noise. Injection:
/// every run's simulated cycles plus what the cursor stepped. Beam: the
/// golden-run remainder after each simulated strike (what a masked run
/// costs), because a session keeps its per-strike cycles to itself.
fn simulated_work(w: &WorkloadFile, seed: u64) -> Result<u64, String> {
    let spec = StudySpec::from_json(&w.spec_text(&Variant {
        seed,
        runs: w.runs,
        reference: false,
        tiny: false,
    }))
    .map_err(|e| e.to_string())?;
    let (study, workload) = (&spec.study, spec.suite[0]);
    let built = workload.build(study.scale);
    if w.kind == Kind::Beam {
        let cfg = study.beam_config_for(workload);
        let (result, strikes) =
            observing_strikes(|| run_session(workload.name(), &built, &cfg, study.beam_strikes));
        let golden = result.map_err(|e| e.to_string())?.golden_cycles;
        return Ok(strikes
            .iter()
            .map(|e| golden.saturating_sub(e.cycle.unwrap_or(golden)))
            .sum());
    }
    let cfg = study.injection_config_for(workload);
    let plan = CampaignPlan::new(workload.name(), &built, &cfg).map_err(|e| e.to_string())?;
    let before = counters();
    let runs: u64 = (0..plan.total())
        .map(|i| plan.run_index(i).sim_cycles)
        .sum();
    Ok(runs + counters().advance_cycles - before.advance_cycles)
}

/// `--survey-seeds N`: print the simulated work of the workload's study
/// at each of N consecutive seeds and the eight closest to their median —
/// how the `seeds` list in a workload file is chosen.
fn survey_seeds(w: &WorkloadFile, from: u64, n: u64) {
    let mut work: Vec<(u64, u64)> = (from..from + n)
        .map(|seed| {
            let cycles = simulated_work(w, seed).unwrap_or_else(|e| die(&e));
            eprintln!("  {seed:#x}  {cycles}");
            (cycles, seed)
        })
        .collect();
    work.sort();
    let median = work[work.len() / 2].0;
    let (lo, hi) = (work[0].0, work[work.len() - 1].0);
    work.sort_by_key(|(cycles, _)| cycles.abs_diff(median));
    let picked: Vec<(u64, u64)> = work.into_iter().take(8).collect();
    let worst = picked
        .iter()
        .map(|(c, _)| c.abs_diff(median))
        .max()
        .unwrap_or(0);
    println!(
        "{}: work over {n} seeds {lo}..{hi} cycles (median {median}); the 8 nearest stay within {:.2} %:",
        w.name,
        100.0 * worst as f64 / median as f64
    );
    let list: Vec<String> = picked.iter().map(|(_, s)| format!("\"{s:#x}\"")).collect();
    println!("  \"seeds\": [{}]", list.join(", "));
}

// --------------------------------------------------------------- main

struct Options {
    only: Option<String>,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: Option<PathBuf>,
    contract: bool,
    survey_seeds: Option<u64>,
}

fn parse_options(args: &[String]) -> Options {
    let mut opt = Options {
        only: None,
        seed: 0,
        seconds: 18.0,
        smoke: false,
        out: None,
        contract: false,
        survey_seeds: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .unwrap_or_else(|| die(&format!("flag {} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--workload" | "--only" => opt.only = Some(value().clone()),
            "--survey-seeds" => {
                opt.survey_seeds = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| die("--survey-seeds needs a count")),
                );
            }
            "--seed" => {
                opt.seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed must be a non-negative integer"));
            }
            "--seconds" => {
                opt.seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| die("--seconds must be a non-negative number"));
            }
            "--out" => opt.out = Some(PathBuf::from(value())),
            "--smoke" => {
                opt.smoke = true;
                i += 1;
                continue;
            }
            "--contract" => {
                opt.contract = true;
                i += 1;
                continue;
            }
            other => die(&format!(
                "unknown argument `{other}` (see the file header for usage)"
            )),
        }
        i += 2;
    }
    opt
}

/// One row of the self-time table.
struct Share {
    span: &'static str,
    count: u64,
    total_ms: f64,
    self_ms: f64,
    /// Self time as a percentage of the `bench.driver` root.
    pct: f64,
}

/// One workload's traced run.
struct Traced {
    name: String,
    layers: Layers,
    checks: Checks,
    shares: Vec<Share>,
    share_sum: f64,
    trace_file: PathBuf,
    error: Option<String>,
}

fn trace_workload(w: &WorkloadFile, opt: &Options, scratch: &Path) -> Traced {
    let variant = Variant {
        seed: w.seed_for(opt.seed),
        runs: if opt.smoke { w.smoke_runs } else { w.runs },
        reference: false,
        tiny: opt.smoke,
    };
    let spec_text = w.spec_text(&variant);
    let mut layers = Layers::new();
    let mut tracer = Tracer::new();
    let _ = std::fs::remove_dir_all(scratch);
    let run = |layers: &mut Layers, tracer: &mut Tracer| -> Result<Checks, String> {
        std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let ctx = Ctx {
            w,
            spec: StudySpec::from_json(&spec_text).map_err(|e| e.to_string())?,
            spec_text: spec_text.clone(),
            scratch: scratch.to_path_buf(),
            // A quarter of the window: pass B is a sample of pass A.
            recompose_budget_s: opt.seconds / 4.0,
            nproc: procstat::nproc(),
        };
        guest_probes(&ctx, layers)?;
        let checks = match w.kind {
            Kind::Beam => trace_beam(&ctx, layers, tracer),
            Kind::Inject | Kind::Fleet => trace_inject(&ctx, layers, tracer),
        }?;
        if w.kind == Kind::Fleet {
            fleet_probes(&ctx, layers)?;
        }
        Ok(checks)
    };
    let (checks, error) = match run(&mut layers, &mut tracer) {
        Ok(checks) => (checks, None),
        Err(e) => (Checks::default(), Some(e)),
    };
    let _ = std::fs::remove_dir_all(scratch);
    layers.set("proc.peak_rss_kib", procstat::peak_rss_kib() as f64);

    // Self time per span name, as a share of the traced driver's wall.
    let times = tracer.self_times();
    let root_ns = times.get("bench.driver").map_or(0, |r| r.total_ns).max(1) as f64;
    let mut shares: Vec<Share> = times
        .iter()
        .map(|(name, t)| Share {
            span: name,
            count: t.count,
            total_ms: t.total_ns as f64 / 1e6,
            self_ms: t.self_ns as f64 / 1e6,
            pct: 100.0 * t.self_ns as f64 / root_ns,
        })
        .collect();
    shares.sort_by(|a, b| b.pct.total_cmp(&a.pct));
    let share_sum = shares.iter().map(|s| s.pct).sum();

    let out_dir = Path::new(BENCH_DIR).join("out");
    let trace_file = out_dir.join(format!("trace-{}.json", w.name));
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(&trace_file, tracer.chrome_json());
    }
    Traced {
        name: w.name.clone(),
        layers,
        checks,
        shares,
        share_sum,
        trace_file,
        error,
    }
}

impl Traced {
    fn ok(&self) -> bool {
        self.error.is_none()
            && self.checks.mismatched == 0
            && self.checks.compared > 0
            && (self.share_sum - 100.0).abs() < 0.01
    }

    fn failed(&self) -> u64 {
        if self.ok() {
            0
        } else {
            self.checks.mismatched.max(1)
        }
    }

    fn to_json(&self) -> String {
        let shares: Vec<String> = self
            .shares
            .iter()
            .map(|s| {
                let mut o = ObjWriter::new();
                o.str_field("span", s.span)
                    .u64_field("count", s.count)
                    .f64_field("total_ms", s.total_ms)
                    .f64_field("self_ms", s.self_ms)
                    .f64_field("share_pct", s.pct);
                o.finish()
            })
            .collect();
        let notes: Vec<String> = self
            .checks
            .notes
            .iter()
            .chain(&self.error)
            .map(|n| json::render(&Json::Str(n.clone())))
            .collect();
        let mut o = ObjWriter::new();
        o.str_field("name", &self.name)
            .bool_field("correct", self.ok())
            .u64_field("compared", self.checks.compared)
            .u64_field("mismatched", self.checks.mismatched)
            .raw_field("layers", &self.layers.to_json())
            .raw_field("shares", &format!("[{}]", shares.join(",")))
            .f64_field("share_sum_pct", self.share_sum)
            .str_field("trace_file", &self.trace_file.display().to_string())
            .raw_field("notes", &format!("[{}]", notes.join(",")));
        o.finish()
    }

    fn print(&self) {
        eprintln!("\n== {} ==", self.name);
        for m in &LAYERS {
            eprintln!(
                "  {:<38} {:>14.4} {:<10} moves: {}",
                m.name,
                self.layers.get(m.name),
                m.unit,
                m.moves
            );
        }
        eprintln!(
            "  self-time shares of the traced driver (bench.trace_overhead_frac = {:.3}):",
            self.layers.get("bench.trace_overhead_frac")
        );
        eprintln!(
            "  {:<26} {:>7} {:>12} {:>12} {:>8}",
            "span", "count", "total ms", "self ms", "share"
        );
        for s in &self.shares {
            eprintln!(
                "  {:<26} {:>7} {:>12.2} {:>12.2} {:>7.2}%",
                s.span, s.count, s.total_ms, s.self_ms, s.pct
            );
        }
        eprintln!(
            "  {:<26} {:>7} {:>12} {:>12} {:>7.2}%",
            "sum", "", "", "", self.share_sum
        );
        eprintln!(
            "  recomposed == production path on {} of {} runs; trace: {}",
            self.checks.compared - self.checks.mismatched,
            self.checks.compared,
            self.trace_file.display()
        );
        for n in self.checks.notes.iter().chain(&self.error) {
            eprintln!("  ! {n}");
        }
    }
}

fn main() {
    fleet::become_worker_if_asked();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = parse_options(&args);
    let bench_dir = Path::new(BENCH_DIR);
    let chosen = WorkloadFile::select(&bench_dir.join("workloads"), opt.only.as_deref())
        .unwrap_or_else(|e| die(&e));
    if let Some(n) = opt.survey_seeds {
        for w in &chosen {
            survey_seeds(w, FIRST_CANDIDATE_SEED, n);
        }
        return;
    }
    let scratch = bench_dir
        .join("out")
        .join(format!("tmp-{}", std::process::id()));
    let traced: Vec<Traced> = chosen
        .iter()
        .map(|w| {
            eprintln!("sea-bench-layers: {} …", w.name);
            let t = trace_workload(w, &opt, &scratch);
            t.print();
            t
        })
        .collect();

    let rows: Vec<String> = traced.iter().map(Traced::to_json).collect();
    let mut header = ObjWriter::new();
    header
        .u64_field("nproc", procstat::nproc() as u64)
        .u64_field("seed", opt.seed)
        .f64_field("seconds", opt.seconds)
        .bool_field("smoke", opt.smoke);
    let mut doc = ObjWriter::new();
    doc.str_field("bench", "sea-bench-layers")
        .u64_field("schema", SCHEMA)
        .raw_field("header", &header.finish())
        .raw_field("workloads", &format!("[\n{}\n]", rows.join(",\n")));
    let doc = doc.finish();
    match &opt.out {
        Some(path) => std::fs::write(path, format!("{doc}\n"))
            .unwrap_or_else(|e| die(&format!("{}: {e}", path.display()))),
        None if !opt.contract => println!("{doc}"),
        None => {}
    }
    if opt.contract {
        let [t] = traced.as_slice() else {
            die("--contract reports one workload: pass --workload NAME");
        };
        let mut o = ObjWriter::new();
        o.bool_field("correct", t.ok())
            .u64_field("attempted", t.checks.compared.max(1))
            .u64_field("failed", t.failed())
            .raw_field("metrics", &t.layers.to_json());
        println!("{}", o.finish());
    }
    if !traced.iter().all(Traced::ok) {
        eprintln!("sea-bench-layers: FAILED — see the notes above");
        std::process::exit(1);
    }
}
