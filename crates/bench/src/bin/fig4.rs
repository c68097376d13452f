//! Fig 4 — fault-injection effect classification (AVF breakdown) for all
//! benchmarks in all six components.

use sea_core::analysis::report::table;
use sea_core::injection::run_campaign;
use sea_core::FaultClass;

fn main() {
    let opts = sea_bench::parse_options();
    let mut rows = Vec::new();
    let mut campaigns = Vec::new();
    for &w in &opts.suite {
        eprintln!("  {w}...");
        let built = w.build(opts.study.scale);
        let cfg = opts.study.injection_config();
        let res = sea_bench::or_exit(w.name(), run_campaign(w.name(), &built, &cfg));
        for c in &res.per_component {
            rows.push(vec![
                w.name().to_string(),
                c.component.short_name().to_string(),
                format!("{:5.1}%", 100.0 * c.counts.rate(FaultClass::Masked)),
                format!("{:5.1}%", 100.0 * c.counts.rate(FaultClass::Sdc)),
                format!("{:5.1}%", 100.0 * c.counts.rate(FaultClass::AppCrash)),
                format!("{:5.1}%", 100.0 * c.counts.rate(FaultClass::SysCrash)),
                format!("{:5.1}%", 100.0 * c.counts.avf()),
            ]);
        }
        campaigns.push((w, res));
    }
    let measured: Vec<_> = campaigns.iter().map(|(w, c)| (*w, c)).collect();
    sea_bench::write_profile_report(&opts, &measured);
    sea_bench::write_convergence_report(&opts, &measured);
    println!("Fig 4 — injection effect classification per benchmark & component\n");
    println!(
        "{}",
        table(
            &[
                "Benchmark",
                "Component",
                "Masked",
                "SDC",
                "AppCrash",
                "SysCrash",
                "AVF"
            ],
            &rows
        )
    );
    println!("expected shape: SDCs concentrate in L1D/L2 (data arrays); L1I faults crash;");
    println!("TLB physical targets are highly vulnerable; tag flips mostly benign.");
}
