//! Table IV — min/max/average statistical error margin per component
//! across the workloads, after the paper's p-re-adjustment (99% conf.).

use sea_core::analysis::report::table;
use sea_core::{injection::run_campaign, Component};

fn main() {
    let opts = sea_bench::parse_options();
    let mut per_comp: std::collections::BTreeMap<Component, Vec<f64>> = Default::default();
    let mut campaigns = Vec::new();
    for &w in &opts.suite {
        eprintln!("  {w}...");
        let built = w.build(opts.study.scale);
        let cfg = opts.study.injection_config();
        let res = sea_bench::or_exit(w.name(), run_campaign(w.name(), &built, &cfg));
        for c in &res.per_component {
            per_comp
                .entry(c.component)
                .or_default()
                .push(c.error_margin());
        }
        campaigns.push((w, res));
    }
    let measured: Vec<_> = campaigns.iter().map(|(w, c)| (*w, c)).collect();
    sea_bench::write_profile_report(&opts, &measured);
    sea_bench::write_convergence_report(&opts, &measured);
    println!(
        "Table IV — error margins per component across {} workloads ({} faults each, 99% confidence)\n",
        opts.suite.len(),
        opts.study.samples_per_component
    );
    let rows: Vec<Vec<String>> = Component::ALL
        .iter()
        .map(|c| {
            let ms = &per_comp[c];
            let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
            let max = ms.iter().copied().fold(0.0f64, f64::max);
            let avg = ms.iter().sum::<f64>() / ms.len() as f64;
            vec![
                c.short_name().to_string(),
                format!("{:.1} %", 100.0 * min),
                format!("{:.1} %", 100.0 * max),
                format!("{:.1} %", 100.0 * avg),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["Component", "Min Err", "Max Err", "Avg Err"], &rows)
    );
    println!("(the paper's 1,000-fault campaigns land between 1.7% and 4.0%;\n run with --samples 1000 for the same regime)");
}
