//! Ablation — statistical convergence of the fault-sample size.
//!
//! Reruns one campaign at growing sample counts, showing the Leveugle
//! error margin shrinking toward the paper's 1,000-fault regime and the
//! AVF estimate stabilizing (Table IV's machinery).

use sea_core::analysis::report::table;
use sea_core::injection::run_campaign;
use sea_core::Component;

fn main() {
    let opts = sea_bench::parse_options();
    let w = opts.suite[0];
    let built = w.build(opts.study.scale);
    let mut rows = Vec::new();
    for n in [50u32, 100, 200, 400, 1000] {
        eprintln!("  {n} faults/component...");
        let mut cfg = opts.study.injection_config();
        cfg.samples_per_component = n;
        cfg.components = vec![Component::L1D];
        let res = sea_bench::or_exit(w.name(), run_campaign(w.name(), &built, &cfg));
        let c = res.component(Component::L1D);
        rows.push(vec![
            n.to_string(),
            format!("{:.1}%", 100.0 * c.counts.avf()),
            format!("±{:.1}%", 100.0 * c.error_margin()),
        ]);
    }
    println!("Ablation — L1D sample-size convergence ({w})\n");
    println!(
        "{}",
        table(&["faults", "AVF estimate", "99% margin"], &rows)
    );
    println!("expected: the margin decays ~1/sqrt(n); 1,000 faults reach the paper's");
    println!("1.7%-4.0% band (Table IV).");
}
