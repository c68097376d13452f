//! Ablation — TLB virtual tag vs physical target vulnerability.
//!
//! §V-B of the paper: injections into the TLB's physical page (target)
//! cause wrong translations and permissions, while virtual-tag corruption
//! mostly produces harmless re-walks. This ablation separates the two
//! regions of every injected TLB fault.

use sea_core::analysis::report::table;
use sea_core::injection::run_campaign;
use sea_core::Component;

fn main() {
    let opts = sea_bench::parse_options();
    let mut rows = Vec::new();
    for &w in &opts.suite {
        eprintln!("  {w}...");
        let built = w.build(opts.study.scale);
        let mut cfg = opts.study.injection_config();
        cfg.components = vec![Component::ITlb, Component::DTlb];
        cfg.samples_per_component = cfg.samples_per_component.max(200);
        let res = sea_bench::or_exit(w.name(), run_campaign(w.name(), &built, &cfg));
        for c in &res.per_component {
            let tag = c.tag_counts;
            let data_total = c.counts.total() - tag.total();
            let data_nonmasked = (c.counts.total() - c.counts.masked) - (tag.total() - tag.masked);
            let data_avf = if data_total > 0 {
                data_nonmasked as f64 / data_total as f64
            } else {
                0.0
            };
            rows.push(vec![
                w.name().to_string(),
                c.component.short_name().to_string(),
                format!("{:.1}% ({} faults)", 100.0 * tag.avf(), tag.total()),
                format!("{:.1}% ({} faults)", 100.0 * data_avf, data_total),
            ]);
        }
    }
    println!("Ablation — TLB tag vs physical-target AVF\n");
    println!(
        "{}",
        table(
            &["benchmark", "TLB", "tag-region AVF", "target-region AVF"],
            &rows
        )
    );
    println!("expected: the tag region's AVF is near zero (misses → re-walks);");
    println!("the physical target carries the vulnerability (paper §V-B).");
}
