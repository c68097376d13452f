//! Ablation — unmodeled-platform cross-section sweep.
//!
//! Sweeps the PL-bridge (SysCrash) cross-section to show how the beam's
//! System-Crash excess (Fig 8) tracks the unmodeled-logic assumption, and
//! that SDC rates are insensitive to it.

use sea_core::analysis::report::table;
use sea_core::beam::{fit_to_sigma, run_session};
use sea_core::FaultClass;

fn main() {
    let opts = sea_bench::parse_options();
    let w = opts.suite[0];
    let built = w.build(opts.study.scale);
    let mut rows = Vec::new();
    for fit_sys in [0.0, 13.0, 26.0, 52.0, 104.0] {
        let mut cfg = opts.study.beam_config();
        cfg.unmodeled.sigma_syscrash = fit_to_sigma(fit_sys);
        let r = sea_bench::or_exit(
            w.name(),
            run_session(w.name(), &built, &cfg, opts.study.beam_strikes),
        );
        rows.push(vec![
            format!("{fit_sys:.0}"),
            format!("{:.2}", r.fit(FaultClass::Sdc)),
            format!("{:.2}", r.fit(FaultClass::AppCrash)),
            format!("{:.2}", r.fit(FaultClass::SysCrash)),
            format!("{:.2}", r.total_fit()),
        ]);
    }
    println!("Ablation — unmodeled platform logic sweep ({w})\n");
    println!(
        "{}",
        table(
            &[
                "sigma_sys (FIT)",
                "beam SDC",
                "beam AppCrash",
                "beam SysCrash",
                "beam total"
            ],
            &rows
        )
    );
    println!("expected: SysCrash tracks the sweep ~linearly; SDC stays flat —");
    println!("the beam/injection SysCrash gap is a platform property, not a core one.");
}
