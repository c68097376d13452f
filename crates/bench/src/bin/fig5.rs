//! Fig 5 — fault-injection-predicted FIT rates per benchmark
//! (AVF × size × FIT_raw, summed over the six components).

use sea_core::analysis::fi_fit;
use sea_core::analysis::report::grouped_bars;
use sea_core::injection::run_campaign;

fn main() {
    let opts = sea_bench::parse_options();
    let mut items = Vec::new();
    let mut campaigns = Vec::new();
    for &w in &opts.suite {
        eprintln!("  {w}...");
        let built = w.build(opts.study.scale);
        let cfg = opts.study.injection_config();
        let res = run_campaign(w.name(), &built, &cfg).expect("campaign");
        let fit = fi_fit(&res, opts.study.fit_raw);
        items.push((
            w.name().to_string(),
            vec![fit.sdc, fit.app_crash, fit.sys_crash],
        ));
        campaigns.push((w, res));
    }
    let measured: Vec<_> = campaigns.iter().map(|(w, c)| (*w, c)).collect();
    sea_bench::write_profile_report(&opts, &measured);
    sea_bench::write_convergence_report(&opts, &measured);
    println!(
        "{}",
        grouped_bars(
            "Fig 5 — fault-injection FIT rates per benchmark (failures / 10^9 h)",
            &items,
            &["SDC", "AppCrash", "SysCrash"],
            48,
        )
    );
}
