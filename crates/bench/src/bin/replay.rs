//! `replay` — deterministic re-execution of quarantined anomalies.
//!
//! Reads a quarantine file produced by `--quarantine FILE`, rebuilds the
//! recorded workload, and re-runs each anomalous spec under the same
//! panic boundary the campaign used. A deterministic anomaly reproduces
//! its panic (the post-mortems are compared); a flaky one usually
//! classifies normally on replay. Use `--trace-out FILE.jsonl` to capture
//! the full `sea-trace` provenance stream of the replayed run, and
//! `--chrome-trace FILE.json` to render the same capture as Chrome
//! trace-event JSON for `chrome://tracing` / Perfetto.
//!
//! Every replay runs from reset: restore and reset are bit-equivalent,
//! so the reproduction verdict would be the same from a checkpoint.
//!
//! With `--serve ADDR`, the observability server runs for the life of the
//! replay: `/events` streams the provenance events of each re-executed
//! anomaly live (useful for long replays).
//!
//! Usage: `replay --quarantine FILE [--index N] [--trace-out FILE]
//! [--chrome-trace FILE] [--serve ADDR]`

use sea_core::injection::supervisor::{config_hash, golden_hash};
use sea_core::injection::{load_quarantine, run_one_caught, RunAnomaly};
use sea_core::platform::{golden_run, RunLimits};
use sea_core::{Scale, Study, Workload};
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    quarantine: PathBuf,
    index: Option<u64>,
    trace: Option<Arc<sea_bench::TraceSession>>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut quarantine = None;
    let mut index = None;
    let mut trace_out = None;
    let mut chrome_trace = None;
    let mut serve: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> String {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", argv[i]))
                .clone()
        };
        match argv[i].as_str() {
            "--quarantine" => {
                quarantine = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--index" => {
                index = Some(need(i).parse().expect("--index N"));
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--chrome-trace" => {
                chrome_trace = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--serve" => {
                serve = Some(need(i));
                i += 2;
            }
            other => panic!("unknown flag `{other}` (usage: replay --quarantine FILE [--index N] [--trace-out FILE] [--chrome-trace FILE] [--serve ADDR])"),
        }
    }
    let trace = sea_bench::TraceSession::start(trace_out, chrome_trace, serve.is_some());
    if let Some(addr) = &serve {
        match sea_core::observe::serve(addr) {
            Ok(bound) => eprintln!("observability server on http://{bound}"),
            Err(e) => eprintln!("cannot serve on {addr}: {e}"),
        }
    }
    Args {
        quarantine: quarantine.expect("replay needs --quarantine FILE"),
        index,
        trace: trace.map(Arc::new),
    }
}

/// Picks the input scale whose golden output matches the recorded hash;
/// falls back to `Default` (with a warning) when neither matches.
fn detect_scale(w: Workload, recorded: u64) -> Scale {
    for scale in [Scale::Default, Scale::Tiny] {
        if golden_hash(&w.build(scale)) == recorded {
            return scale;
        }
    }
    eprintln!(
        "warning: no input scale reproduces golden hash {recorded:#018x} for {}; \
         replaying at Default scale (results may diverge)",
        w.name()
    );
    Scale::Default
}

fn replay_one(a: &RunAnomaly) {
    println!(
        "replay #{}: {} into {} bit {} @ cycle {} ({})",
        a.index,
        a.workload,
        a.spec.component.short_name(),
        a.spec.bit,
        a.spec.cycle,
        if a.deterministic {
            "deterministic"
        } else {
            "flaky"
        }
    );
    let Some(w) = Workload::ALL.into_iter().find(|w| w.name() == a.workload) else {
        println!("  SKIP: unknown workload `{}`", a.workload);
        return;
    };
    let scale = detect_scale(w, a.golden_hash);
    let built = w.build(scale);
    let study = Study {
        scale,
        seed: a.seed,
        ..Study::default()
    };
    let cfg = study.injection_config();
    let cfg_hash = config_hash(&cfg);
    if cfg_hash != a.config_hash {
        eprintln!(
            "warning: replay config hash {cfg_hash:#018x} != recorded {:#018x} \
             (non-default campaign configuration?); replay may diverge",
            a.config_hash
        );
    }
    let golden = golden_run(
        cfg.machine,
        &built.image,
        &cfg.kernel,
        cfg.golden_budget_cycles,
    )
    .expect("golden run");
    let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period);
    match run_one_caught(&built, &cfg, None, a.index, a.spec, limits) {
        Ok((out, _sim_cycles)) => {
            println!(
                "  completed normally: class {} (array {:?}, valid {})",
                out.class, out.array, out.was_valid
            );
            if a.deterministic {
                println!("  NOTE: recorded as deterministic but did not reproduce — the");
                println!("  panic depended on state outside the (workload, spec) pair.");
            }
        }
        Err(caught) => {
            let reproduced = caught.message == a.panic_msg;
            println!(
                "  panicked again: {} (panic message {})",
                caught.message,
                if reproduced {
                    "MATCHES record"
                } else {
                    "DIFFERS from record"
                }
            );
            println!("  recorded post-mortem:\n{}", indent(&a.postmortem));
            println!("  replayed post-mortem:\n{}", indent(&caught.postmortem));
            if caught.postmortem == a.postmortem {
                println!("  terminal state reproduced bit-for-bit.");
            }
        }
    }
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let args = parse_args();
    let anomalies = load_quarantine(&args.quarantine)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", args.quarantine.display()));
    let selected: Vec<&RunAnomaly> = anomalies
        .iter()
        .filter(|a| args.index.is_none_or(|i| a.index == i))
        .collect();
    if selected.is_empty() {
        println!(
            "no anomalies{} in {} ({} records total)",
            args.index
                .map_or(String::new(), |i| format!(" with index {i}")),
            args.quarantine.display(),
            anomalies.len()
        );
        return;
    }
    println!(
        "{} anomaly record(s) selected from {}\n",
        selected.len(),
        args.quarantine.display()
    );
    for a in selected {
        replay_one(a);
        println!();
    }
    drop(args.trace);
}
