//! The reconvergence cut's differential oracle: ending a run as the golden
//! run once its live state equals a golden checkpoint must never change a
//! verdict, and every machine the witness accepts must really be on the
//! golden path — stepped on with the uncut `platform::run`, it exits 0
//! with the golden output at exactly the golden cycle count.

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use sea_injection::{run_one, CampaignConfig, InjectionSpec};
use sea_microarch::Component;
use sea_platform::{
    boot, golden_run_with_checkpoints, run, run_until_reconverged, Checkpoint, CheckpointSet,
    GoldenRun, RunLimits, RunOutcome,
};
use sea_workloads::{BuiltWorkload, Scale, Workload};

const WORKLOADS: [Workload; 3] = [Workload::Crc32, Workload::MatMul, Workload::Qsort];

/// One workload's golden run with dense epochs (a reconverged run meets
/// the next one within 2,048 cycles), built once for all cases.
struct Fixture {
    built: BuiltWorkload,
    golden: GoldenRun,
    ckpts: CheckpointSet,
    limits: RunLimits,
}

fn fixture(w: usize) -> &'static Fixture {
    static FIXTURES: [OnceLock<Fixture>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    FIXTURES[w].get_or_init(|| {
        let cfg = CampaignConfig::default();
        let built = WORKLOADS[w].build(Scale::Tiny);
        let (golden, ckpts) = golden_run_with_checkpoints(
            cfg.machine,
            &built.image,
            &cfg.kernel,
            cfg.golden_budget_cycles,
            2_048,
        )
        .unwrap();
        assert!(ckpts.len() > 4, "too few epochs to ever meet one");
        let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period);
        Fixture {
            built,
            golden,
            ckpts,
            limits,
        }
    })
}

/// Every speed key on: checkpoint restores, the cursor (and with it the
/// compare-at-the-strike-cycle shortcut), the fast path.
fn accelerated() -> CampaignConfig {
    CampaignConfig {
        fast_path: true,
        warp: true,
        ..CampaignConfig::default()
    }
}

/// Serialises the production calls: `RECONVERGED` is process-wide.
static PRODUCTION: Mutex<()> = Mutex::new(());

fn golden_exit(f: &Fixture) -> RunOutcome {
    RunOutcome::Exited {
        code: 0,
        output: f.golden.output.clone(),
        overflow: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cut_run_equals_uncut_run_and_cut_machines_finish_as_golden(
        w in 0usize..3,
        target in 0usize..12,
        bit in any::<u64>(),
        cycle in any::<u64>(),
    ) {
        let f = fixture(w);
        let plain = CampaignConfig::default();
        let mut sys = boot(plain.machine, &f.built.image, &plain.kernel).unwrap().0;
        // Half the cases strike a component uniformly — at this scale
        // mostly cells nothing reads, cut where they stand. The other half
        // strike the integer registers, where a flip is live: it is
        // overwritten and the run rejoins at a later epoch, or it is
        // consumed and the run ends in any of the four classes, uncut.
        let (component, bits) = match Component::ALL.get(target) {
            Some(&c) => (c, sys.component_bits(c)),
            None => (Component::RegFile, 16 * 32),
        };
        let spec = InjectionSpec {
            component,
            bit: bit % bits,
            cycle: cycle % f.golden.cycles,
        };

        // The production paths: accelerated and cut against from reset.
        let production = PRODUCTION.lock().unwrap_or_else(|e| e.into_inner());
        let cut = run_one(&f.built, &accelerated(), Some(&f.ckpts), spec, f.limits);
        let uncut = run_one(&f.built, &plain, None, spec, f.limits);
        drop(production);
        prop_assert_eq!(cut, uncut, "{:?}", spec);

        // The same run recomposed, to get at the machine.
        while sys.cycles() < spec.cycle {
            sys.step();
        }
        let clean = sys.clone();
        sys.flip_bit(spec.component, spec.bit);
        // The witness the cursor shortcut relies on, against a fault-free
        // twin at the strike cycle.
        if sys.converges_with(&clean) {
            let mut on = sys.clone();
            prop_assert_eq!(run(&mut on, f.limits), golden_exit(f), "{:?}", spec);
            prop_assert_eq!(on.cycles(), f.golden.cycles);
        }
        // The cut itself: wherever it stops a machine, the uncut run takes
        // that machine to the golden exit at the golden cycle.
        let (outcome, saved) = run_until_reconverged(&mut sys, f.limits, Some(&f.ckpts));
        if let Some(saved) = saved {
            prop_assert_eq!(&outcome, &golden_exit(f));
            prop_assert_eq!(sys.cycles() + saved, f.golden.cycles);
            prop_assert_eq!(run(&mut sys, f.limits), golden_exit(f), "{:?}", spec);
            prop_assert_eq!(sys.cycles(), f.golden.cycles);
        }
    }
}

/// The cut must actually fire at this scale, or the property above is
/// vacuous — and limits that expire before the golden exit disarm it.
#[test]
fn cut_fires_on_dead_cell_flips_and_respects_the_cycle_budget() {
    let f = fixture(0);
    let cfg = CampaignConfig::default();
    let mut sys = f.ckpts.restore_at(f.golden.cycles / 2).unwrap();
    // The last L2 line is never filled by a tiny workload.
    let bit = sys.component_bits(Component::L2) - 1;
    assert!(!sys.flip_bit(Component::L2, bit).was_valid);

    let mut tight = sys.clone();
    let short = RunLimits {
        max_cycles: f.golden.cycles - 1,
        ..f.limits
    };
    let (outcome, saved) = run_until_reconverged(&mut tight, short, Some(&f.ckpts));
    assert_eq!(saved, None, "the golden exit lies past the budget");
    assert_eq!(outcome, run(&mut sys.clone(), short));

    let at = sys.cycles();
    let (outcome, saved) = run_until_reconverged(&mut sys, f.limits, Some(&f.ckpts));
    assert_eq!(outcome, golden_exit(f));
    assert_eq!(
        sys.cycles(),
        at,
        "a restored machine is cut where it stands"
    );
    assert_eq!(saved, Some(f.golden.cycles - at));

    // Checkpoints are machines, not how their run ended: a set of them is
    // unarmed until it is sealed with the golden run. Sealed without a
    // read horizon, it arms this cut alone.
    let mut loaded = CheckpointSet::new();
    for epoch in f.ckpts.epochs() {
        loaded.push(Checkpoint::capture(&f.ckpts.restore_at(epoch).unwrap()));
    }
    let mut flipped = loaded.restore_at(f.golden.cycles / 2).unwrap();
    flipped.flip_bit(Component::L2, bit);
    let (outcome, saved) = run_until_reconverged(&mut flipped.clone(), f.limits, Some(&loaded));
    assert_eq!((outcome, saved), (golden_exit(f), None));
    loaded.seal(&f.golden, None);
    let (outcome, saved) = run_until_reconverged(&mut flipped, f.limits, Some(&loaded));
    assert_eq!(
        (outcome, saved),
        (golden_exit(f), Some(f.golden.cycles - at))
    );

    // Through the campaign path the counters see it.
    let _production = PRODUCTION.lock().unwrap_or_else(|e| e.into_inner());
    let before = (
        sea_injection::RECONVERGED.get(),
        sea_injection::RECONVERGE_CYCLES_SAVED.get(),
    );
    let spec = InjectionSpec {
        component: Component::L2,
        bit,
        cycle: f.golden.cycles / 2,
    };
    run_one(&f.built, &cfg, Some(&loaded), spec, f.limits);
    assert!(sea_injection::RECONVERGED.get() > before.0);
    assert!(sea_injection::RECONVERGE_CYCLES_SAVED.get() > before.1);
}
