//! Dead-cell pruning's differential oracle: every strike the read horizon
//! answers ("the golden run never reads these cells again") is also run
//! uncut from reset with `platform::run`, and must end with the golden
//! `RunOutcome` at exactly the golden cycle count — never having been
//! read on the way, or, for a byte the struck line holds but no CPU read
//! consumes, never having made the core differ from the golden one at any
//! step. The production path must prune exactly the strikes the horizon
//! calls dead, report the site a real flip would have reported, and agree
//! with the from-reset campaign on every verdict, pruned or not. The fill
//! ledger the site comes from is checked against the golden machine itself.

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use sea_injection::{run_one, CampaignConfig, FaultModel, InjectionSpec, DEAD_PRUNED};
use sea_microarch::{ArrayKind, Cache, Component, DeadCell, System, Tlb};
use sea_platform::{
    boot, golden_run_with_checkpoints, run, Board, CheckpointSet, FaultClass, GoldenRun, RunLimits,
    RunOutcome,
};
use sea_workloads::{BuiltWorkload, Scale, Workload};

/// FFT is here for the FP registers: the other three never touch them.
const WORKLOADS: [Workload; 4] = [
    Workload::Crc32,
    Workload::MatMul,
    Workload::Qsort,
    Workload::Fft,
];

const MODELS: [FaultModel; 3] = [
    FaultModel::SingleBit,
    FaultModel::DoubleBitAdjacent,
    FaultModel::Burst(5),
];

struct Fixture {
    built: BuiltWorkload,
    golden: GoldenRun,
    ckpts: CheckpointSet,
    limits: RunLimits,
}

fn fixture(w: usize) -> &'static Fixture {
    static FIXTURES: [OnceLock<Fixture>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
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
        assert!(ckpts.horizon().is_some(), "a captured set is sealed armed");
        let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period);
        Fixture {
            built,
            golden,
            ckpts,
            limits,
        }
    })
}

/// Every speed key on, so the production path answers from the cursor.
fn accelerated(model: FaultModel) -> CampaignConfig {
    CampaignConfig {
        fast_path: true,
        warp: true,
        fault_model: model,
        ..CampaignConfig::default()
    }
}

/// The kinds of cell a strike can land in, each with its own granule in
/// the horizon. A TLB's "tag" here is the horizon's tag granule, VPN plus
/// the valid bit.
#[derive(Clone, Copy, Debug)]
enum Cell {
    RfInt,
    RfFp,
    Cache(Component, ArrayKind),
    Tlb(Component, ArrayKind),
}

const CELLS: [Cell; 15] = [
    Cell::RfInt,
    Cell::RfFp,
    Cell::Cache(Component::L1I, ArrayKind::Data),
    Cell::Cache(Component::L1I, ArrayKind::Tag),
    Cell::Cache(Component::L1I, ArrayKind::State),
    Cell::Cache(Component::L1D, ArrayKind::Data),
    Cell::Cache(Component::L1D, ArrayKind::Tag),
    Cell::Cache(Component::L1D, ArrayKind::State),
    Cell::Cache(Component::L2, ArrayKind::Data),
    Cell::Cache(Component::L2, ArrayKind::Tag),
    Cell::Cache(Component::L2, ArrayKind::State),
    Cell::Tlb(Component::ITlb, ArrayKind::Data),
    Cell::Tlb(Component::ITlb, ArrayKind::Tag),
    Cell::Tlb(Component::DTlb, ArrayKind::Data),
    Cell::Tlb(Component::DTlb, ArrayKind::Tag),
];

fn cache_of(sys: &System<Board>, c: Component) -> &Cache {
    match c {
        Component::L1I => &sys.mem.l1i,
        Component::L1D => &sys.mem.l1d,
        _ => &sys.mem.l2,
    }
}

fn tlb_of(sys: &System<Board>, c: Component) -> &Tlb {
    match c {
        Component::ITlb => &sys.itlb,
        _ => &sys.dtlb,
    }
}

/// Slot `pick` of `slots` — but half the time (odd `pick`) of the valid
/// ones only, when there are any: at tiny scale most lines and entries are
/// never filled, and a uniform choice would hardly ever strike a live one.
fn biased_slot(pick: u64, slots: u64, is_valid: impl Fn(u64) -> bool) -> u64 {
    let valid: Vec<u64> = (0..slots).filter(|&i| is_valid(i)).collect();
    if pick & 1 == 1 && !valid.is_empty() {
        valid[(pick >> 1) as usize % valid.len()]
    } else {
        (pick >> 1) % slots
    }
}

/// The strike into a `cell`-kind cell of `sys`, the golden machine at the
/// strike boundary: `pick` chooses the word, line or entry, `within` the
/// bit inside it.
fn strike_bit(sys: &System<Board>, cell: Cell, pick: u64, within: u64) -> (Component, u64) {
    match cell {
        Cell::RfInt => (Component::RegFile, pick % 16 * 32 + within % 32),
        Cell::RfFp => (Component::RegFile, (16 + pick % 32) * 32 + within % 32),
        Cell::Cache(c, kind) => {
            let cache = cache_of(sys, c);
            let line = biased_slot(pick, cache.lines().into(), |i| {
                cache.line_addr(i as u32).is_some()
            });
            let (data, tag) = (
                8 * u64::from(cache.line_bytes()),
                u64::from(cache.tag_bits()),
            );
            let offset = match kind {
                ArrayKind::Data => within % data,
                ArrayKind::Tag => data + within % tag,
                ArrayKind::State => data + tag + within % 2,
            };
            (c, line * cache.bits_per_line() + offset)
        }
        Cell::Tlb(c, kind) => {
            let tlb = tlb_of(sys, c);
            let slot = biased_slot(pick, tlb.total_bits() / 64, |i| tlb.bit_info(64 * i).1);
            let offset = match (kind, within % 23) {
                (ArrayKind::Data, k @ 0..=19) => k,
                (ArrayKind::Data, k) => 41 + k - 20,
                _ => 20 + within % 21,
            };
            (c, 64 * slot + offset)
        }
    }
}

/// The cells a `model` strike at `bit` flips (the campaign's ring).
fn struck(sys: &System<Board>, c: Component, bit: u64, model: FaultModel) -> Vec<u64> {
    let bits = sys.component_bits(c);
    (0..model.width()).map(|k| (bit + k) % bits).collect()
}

fn golden_exit(f: &Fixture) -> RunOutcome {
    RunOutcome::Exited {
        code: 0,
        output: f.golden.output.clone(),
        overflow: false,
    }
}

/// `DEAD_PRUNED` is process-wide; every production call in this file is
/// made under this lock so its delta belongs to that call.
static PRODUCTION: Mutex<()> = Mutex::new(());

/// Runs `spec` through the accelerated production path and says whether
/// dead-cell pruning answered it.
fn production(
    f: &Fixture,
    model: FaultModel,
    spec: InjectionSpec,
) -> (sea_injection::InjectionOutcome, bool) {
    let _guard = PRODUCTION.lock().unwrap_or_else(|e| e.into_inner());
    let before = DEAD_PRUNED.get();
    let out = run_one(
        &f.built,
        &accelerated(model),
        Some(&f.ckpts),
        spec,
        f.limits,
    );
    (out, DEAD_PRUNED.get() > before)
}

/// The golden machine at `cycle`'s step boundary, stepped from reset.
fn golden_at(f: &Fixture, cycle: u64) -> System<Board> {
    let cfg = CampaignConfig::default();
    let mut sys = boot(cfg.machine, &f.built.image, &cfg.kernel).unwrap().0;
    while sys.cycles() < cycle {
        sys.step();
    }
    sys
}

/// Steps the struck machine and an unstruck copy of the golden one together
/// to the golden exit, and requires the core — registers, pc, cpsr, cycle
/// count — to agree after every step: the corrupt byte is never consumed,
/// so nothing it holds can reach the core.
fn lockstep_to_exit(f: &Fixture, mut struck: System<Board>, mut golden: System<Board>) {
    while golden.cycles() < f.golden.cycles {
        struck.step();
        golden.step();
        let (a, b) = (&struck.cpu, &golden.cpu);
        assert_eq!(
            a.regs.words(),
            b.regs.words(),
            "registers at {}",
            b.counters.cycles
        );
        assert_eq!(
            (a.pc, a.cpsr),
            (b.pc, b.cpsr),
            "pc/cpsr at {}",
            b.counters.cycles
        );
        assert_eq!(struck.cycles(), golden.cycles());
    }
}

/// One strike, checked every way: returns why it was pruned, if it was.
fn check(
    f: &Fixture,
    cell: Cell,
    model: FaultModel,
    pick: u64,
    within: u64,
    cycle: u64,
) -> Option<DeadCell> {
    let mut sys = golden_at(f, cycle);
    let (component, bit) = strike_bit(&sys, cell, pick, within);
    let spec = InjectionSpec {
        component,
        bit,
        cycle,
    };
    let cells = struck(&sys, component, bit, model);
    let horizon = f.ckpts.horizon().unwrap();
    let dead = !cells
        .iter()
        .any(|&b| horizon.reads_from(component, b, cycle));

    // Production prunes exactly what the horizon calls dead, and agrees
    // with the from-reset reference either way.
    let (cut, pruned) = production(f, model, spec);
    prop_assert_eq!(pruned, dead, "{:?} {:?}", spec, model);
    let plain = CampaignConfig {
        fault_model: model,
        ..CampaignConfig::default()
    };
    let uncut = run_one(&f.built, &plain, None, spec, f.limits);
    prop_assert_eq!(cut, uncut, "{:?} {:?}", spec, model);

    // The weakest argument any struck cell needed.
    let why = cells
        .iter()
        .filter_map(|&b| horizon.dead_at(component, b, cycle))
        .max()
        .filter(|_| dead);
    if dead {
        // The uncut run of a pruned strike is the golden run to `exit()`.
        let unstruck = sys.clone();
        let site = sys.flip_bit_probed(component, bit);
        for &b in &cells[1..] {
            sys.flip_bit(component, b);
        }
        prop_assert_eq!((cut.array, cut.was_valid), (site.array, site.was_valid));
        prop_assert_eq!(cut.class, FaultClass::Masked);
        if why == Some(DeadCell::Unconsumed) {
            lockstep_to_exit(f, sys.clone(), unstruck);
        }
        prop_assert_eq!(
            run(&mut sys, f.limits),
            golden_exit(f),
            "{:?} {:?}",
            spec,
            model
        );
        prop_assert_eq!(sys.cycles(), f.golden.cycles);
        // The provenance watch — armed at the accessors, not at the
        // horizon's hooks — never sees the struck cell read. It watches a
        // whole line, so a byte-dead strike, whose line is read again, has
        // the lockstep witness above instead.
        let probe = sys.take_probe().unwrap();
        if why != Some(DeadCell::Unconsumed) {
            prop_assert!(!probe.activated(), "{:?} {:?}", spec, probe);
        }
    }
    why
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn pruned_strikes_run_uncut_to_the_golden_exit(
        w in 0usize..4,
        cell in 0usize..CELLS.len(),
        model in 0usize..3,
        pick in any::<u64>(),
        within in any::<u64>(),
        cycle in any::<u64>(),
    ) {
        let f = fixture(w);
        check(f, CELLS[cell], MODELS[model], pick, within, cycle % f.golden.cycles);
    }
}

/// The property above is vacuous for a kind of cell the generators never
/// prune, and toothless for one they always prune: every kind must yield
/// both, on at least one workload. (Only FFT keeps FP registers live.) And
/// each of the three arguments must prune something, or its branch of the
/// check above is never taken.
#[test]
fn every_kind_of_cell_yields_pruned_and_unpruned_strikes() {
    let mut reasons = std::collections::BTreeSet::new();
    for (k, &cell) in CELLS.iter().enumerate() {
        let (mut pruned, mut live) = (0, 0);
        // A fixed low-discrepancy walk over (workload, word, bit, cycle).
        for n in 0..48u64 {
            let f = fixture((n % 4) as usize);
            let cycle = (n * 7919 + k as u64 * 104_729) * 1_000_003 % f.golden.cycles;
            match check(
                f,
                cell,
                FaultModel::SingleBit,
                n * 2_654_435_761,
                n * 40_503,
                cycle,
            ) {
                Some(why) => {
                    pruned += 1;
                    reasons.insert(why);
                }
                None => live += 1,
            }
            if pruned > 0 && live > 0 {
                break;
            }
        }
        assert!(
            pruned > 0 && live > 0,
            "{cell:?}: {pruned} pruned, {live} live"
        );
    }
    assert_eq!(reasons.len(), 3, "arguments used: {reasons:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fill ledger is the golden machine's cache and TLB contents: at a
    /// random cycle, every line's validity and address and every entry's
    /// validity, read off the horizon, equal the machine's at that step
    /// boundary, reached by restoring the nearest epoch and stepping.
    #[test]
    fn the_fill_ledger_is_the_golden_machines_contents(w in 0usize..4, cycle in any::<u64>()) {
        let f = fixture(w);
        let cycle = cycle % f.golden.cycles;
        let horizon = f.ckpts.horizon().unwrap();
        let mut sys = f.ckpts.restore_at(cycle).unwrap();
        while sys.cycles() < cycle {
            sys.step();
        }
        for c in [Component::L1I, Component::L1D, Component::L2] {
            let cache = cache_of(&sys, c);
            for line in 0..cache.lines() {
                prop_assert_eq!(
                    horizon.line_at(c, line, cycle),
                    cache.line_addr(line),
                    "{:?} line {} at {}",
                    c,
                    line,
                    cycle
                );
            }
        }
        for c in [Component::ITlb, Component::DTlb] {
            for bit in (0..sys.component_bits(c)).step_by(64) {
                prop_assert_eq!(horizon.site_at(c, bit, cycle), sys.site_of(c, bit));
            }
        }
    }
}

/// A multi-bit strike is pruned only when *every* cell it flips is dead: a
/// pair or burst straddling a live and a dead register word must run.
#[test]
fn a_strike_straddling_a_live_and_a_dead_granule_is_not_pruned() {
    let f = fixture(0);
    let horizon = f.ckpts.horizon().unwrap();
    let cycle = f.golden.cycles / 2;
    // lr is word 15, s0 — which CRC32 never touches — word 16.
    let lr_msb = 15 * 32 + 31;
    assert!(horizon.reads_from(Component::RegFile, lr_msb, cycle));
    assert!(!horizon.reads_from(Component::RegFile, lr_msb + 1, cycle));
    for (model, bit) in [
        (FaultModel::DoubleBitAdjacent, lr_msb),
        (FaultModel::Burst(5), lr_msb - 2),
    ] {
        let spec = InjectionSpec {
            component: Component::RegFile,
            bit,
            cycle,
        };
        assert!(!production(f, model, spec).1, "{model:?}");
        // The dead half alone, and the same models one word further on,
        // are pruned.
        let dead_half = InjectionSpec {
            bit: lr_msb + 1,
            ..spec
        };
        assert!(production(f, model, dead_half).1, "{model:?}");
    }
    // The ring: a burst from the last FP bit wraps onto r0, which is live.
    let last = horizon.component_bits(Component::RegFile) - 1;
    assert!(!horizon.reads_from(Component::RegFile, last, cycle));
    assert!(horizon.reads_from(Component::RegFile, 0, cycle));
    let wrap = InjectionSpec {
        component: Component::RegFile,
        bit: last,
        cycle,
    };
    assert!(production(f, FaultModel::SingleBit, wrap).1);
    assert!(!production(f, FaultModel::DoubleBitAdjacent, wrap).1);
}

/// Limits that expire before the golden exit disarm the filter (the
/// golden ending is then not known to be the run's), as does a set sealed
/// without a horizon; and a strike inside the golden run's final step is
/// never pruned, whatever it hits.
#[test]
fn the_filter_is_armed_only_where_the_golden_ending_is_the_answer() {
    let f = fixture(0);
    let model = FaultModel::SingleBit;
    let spec = InjectionSpec {
        component: Component::RegFile,
        bit: 40 * 32,
        cycle: f.golden.cycles / 2,
    };
    assert!(production(f, model, spec).1);

    let _guard = PRODUCTION.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = accelerated(model);
    let before = DEAD_PRUNED.get();
    let short = RunLimits {
        max_cycles: f.golden.cycles - 1,
        ..f.limits
    };
    let plain = CampaignConfig::default();
    assert_eq!(
        run_one(&f.built, &cfg, Some(&f.ckpts), spec, short),
        run_one(&f.built, &plain, None, spec, short)
    );

    let (_, mut unarmed) = golden_run_with_checkpoints(
        plain.machine,
        &f.built.image,
        &plain.kernel,
        plain.golden_budget_cycles,
        2_048,
    )
    .unwrap();
    unarmed.seal(&f.golden, None);
    run_one(&f.built, &cfg, Some(&unarmed), spec, f.limits);

    let at_exit = InjectionSpec {
        cycle: f.golden.cycles - 1,
        ..spec
    };
    let out = run_one(&f.built, &cfg, Some(&f.ckpts), at_exit, f.limits);
    assert_eq!(out.class, FaultClass::Masked);
    assert_eq!(DEAD_PRUNED.get(), before, "none of the three was pruned");
}
