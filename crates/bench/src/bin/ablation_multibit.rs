//! Ablation — fault-model width: single-bit vs adjacent double-bit vs
//! 4-bit burst injections.
//!
//! The paper (§II-B) lists the single-bit simplification as a source of
//! fault-injection underestimation, since modern technologies see
//! multi-cell upsets. This ablation quantifies the gap on this setup.

use sea_core::analysis::report::table;
use sea_core::injection::{run_campaign, FaultModel};
use sea_core::FaultClass;

fn main() {
    let opts = sea_bench::parse_options();
    let suite = if opts.suite.len() > 3 {
        &opts.suite[..3]
    } else {
        &opts.suite[..]
    };
    let mut rows = Vec::new();
    for &w in suite {
        let built = w.build(opts.study.scale);
        for (name, model) in [
            ("single", FaultModel::SingleBit),
            ("double", FaultModel::DoubleBitAdjacent),
            ("burst4", FaultModel::Burst(4)),
        ] {
            eprintln!("  {w} / {name}...");
            let mut cfg = opts.study.injection_config();
            cfg.fault_model = model;
            let res = sea_bench::or_exit(w.name(), run_campaign(w.name(), &built, &cfg));
            let mut all = sea_core::ClassCounts::default();
            for c in &res.per_component {
                all.masked += c.counts.masked;
                all.sdc += c.counts.sdc;
                all.app_crash += c.counts.app_crash;
                all.sys_crash += c.counts.sys_crash;
            }
            rows.push(vec![
                w.name().to_string(),
                name.to_string(),
                format!("{:.1}%", 100.0 * all.avf()),
                format!("{:.1}%", 100.0 * all.rate(FaultClass::Sdc)),
                format!("{:.1}%", 100.0 * all.rate(FaultClass::AppCrash)),
                format!("{:.1}%", 100.0 * all.rate(FaultClass::SysCrash)),
            ]);
        }
    }
    println!("Ablation — spatial fault model (all components pooled)\n");
    println!(
        "{}",
        table(
            &["benchmark", "model", "AVF", "SDC", "AppCrash", "SysCrash"],
            &rows
        )
    );
    println!("expected: wider faults raise AVF — the single-bit model is a floor,");
    println!("one reason injection under-predicts the beam (paper Fig 1).");
}
