//! Fig 3 — beam FIT rates (SDC / AppCrash / SysCrash) per benchmark.

use sea_core::analysis::report::grouped_bars;
use sea_core::beam::run_session;
use sea_core::FaultClass;

fn main() {
    let opts = sea_bench::parse_options();
    let mut items = Vec::new();
    for &w in &opts.suite {
        eprintln!("  {w}...");
        let built = w.build(opts.study.scale);
        let cfg = opts.study.beam_config();
        let r = sea_bench::or_exit(
            w.name(),
            run_session(w.name(), &built, &cfg, opts.study.beam_strikes),
        );
        items.push((
            w.name().to_string(),
            vec![
                r.fit(FaultClass::Sdc),
                r.fit(FaultClass::AppCrash),
                r.fit(FaultClass::SysCrash),
            ],
        ));
    }
    // Beam-only artifact: no injection-measured AVF to compare against, so
    // the report carries the predicted column alone.
    sea_bench::write_profile_report(&opts, &[]);
    println!(
        "{}",
        grouped_bars(
            "Fig 3 — beam FIT rates per benchmark (failures / 10^9 h)",
            &items,
            &["SDC", "AppCrash", "SysCrash"],
            48,
        )
    );
    println!("expected shape: SysCrash dominates for most benchmarks; FFT/Qsort lean AppCrash.");
}
