//! End-to-end injection-campaign smoke tests on a tiny workload.

use sea_injection::{run_campaign, run_one, CampaignConfig, InjectionSpec};
use sea_microarch::Component;
use sea_platform::{FaultClass, RunLimits};
use sea_workloads::{Scale, Workload};

fn tiny_cfg(samples: u32) -> CampaignConfig {
    CampaignConfig {
        samples_per_component: samples,
        ..CampaignConfig::default()
    }
}

#[test]
fn campaign_over_all_components_produces_all_counts() {
    let w = Workload::Crc32.build(Scale::Tiny);
    let cfg = tiny_cfg(25);
    let res = run_campaign("CRC32", &w, &cfg).unwrap();
    assert_eq!(res.per_component.len(), 6);
    assert_eq!(res.total_injections(), 25 * 6);
    for c in &res.per_component {
        assert_eq!(c.counts.total(), 25);
        assert!(c.counts.avf() <= 1.0);
        assert!(c.error_margin() > 0.0 && c.error_margin() < 1.0);
    }
    // Injections must produce at least some non-masked outcomes somewhere.
    let non_masked: u64 = res
        .per_component
        .iter()
        .map(|c| c.counts.total() - c.counts.masked)
        .sum();
    assert!(
        non_masked > 0,
        "150 injections with zero effect is implausible"
    );
}

#[test]
fn campaigns_are_deterministic_for_a_fixed_seed() {
    let w = Workload::MatMul.build(Scale::Tiny);
    let cfg = CampaignConfig {
        samples_per_component: 10,
        components: vec![Component::RegFile, Component::L1D],
        ..CampaignConfig::default()
    };
    let a = run_campaign("MatMul", &w, &cfg).unwrap();
    let b = run_campaign("MatMul", &w, &cfg).unwrap();
    for (x, y) in a.per_component.iter().zip(&b.per_component) {
        assert_eq!(x.counts, y.counts);
    }
}

#[test]
fn directed_injection_into_dead_register_is_masked() {
    // r11 high bit very late in the run: the value is dead; must be masked.
    let w = Workload::Crc32.build(Scale::Tiny);
    let cfg = tiny_cfg(1);
    let limits = RunLimits {
        max_cycles: 50_000_000,
        tick_window: 250_000,
        wall_ms: 0,
    };
    // Bit in the FP bank (s31), never used by CRC32.
    let spec = InjectionSpec {
        component: Component::RegFile,
        bit: (16 + 31) * 32 + 7,
        cycle: 60_000,
    };
    let out = run_one(&w, &cfg, None, spec, limits);
    assert_eq!(out.class, FaultClass::Masked);
}

#[test]
fn directed_injection_into_live_crc_accumulator_corrupts_output() {
    // CRC32 keeps its running CRC in r4 for the whole main loop; flipping
    // any bit of r4 mid-loop must surface as an SDC.
    let w = Workload::Crc32.build(Scale::Tiny);
    let cfg = tiny_cfg(1);
    let g = sea_platform::golden_run(cfg.machine, &w.image, &cfg.kernel, 100_000_000).unwrap();
    let limits = RunLimits {
        max_cycles: 50_000_000,
        tick_window: 250_000,
        wall_ms: 0,
    };
    // Strike in the middle of the CRC loop.
    let spec = InjectionSpec {
        component: Component::RegFile,
        bit: 4 * 32 + 13,
        cycle: g.cycles / 2,
    };
    let out = run_one(&w, &cfg, None, spec, limits);
    assert_eq!(
        out.class,
        FaultClass::Sdc,
        "live CRC register flip must corrupt the result"
    );
}

#[test]
fn tlb_tag_flips_are_mostly_benign() {
    // §V-B: virtual-tag corruption mostly causes re-walks, not failures.
    let w = Workload::Qsort.build(Scale::Tiny);
    let cfg = CampaignConfig {
        samples_per_component: 120,
        components: vec![Component::DTlb],
        ..CampaignConfig::default()
    };
    let res = run_campaign("Qsort", &w, &cfg).unwrap();
    let c = res.component(Component::DTlb);
    // Tag-region injections: VPN bits 20..40 of each 64-bit entry.
    if c.tag_counts.total() >= 10 {
        let tag_avf = c.tag_counts.avf();
        let all_avf = c.counts.avf();
        assert!(
            tag_avf <= all_avf + 0.05,
            "tag AVF {tag_avf} should not exceed overall {all_avf}"
        );
    }
}

#[test]
fn injection_during_kernel_boot_is_handled() {
    // cycle 0: the flip lands before the kernel's first instruction; the
    // campaign machinery must classify it like any other run.
    let w = Workload::MatMul.build(Scale::Tiny);
    let cfg = tiny_cfg(1);
    let limits = RunLimits {
        max_cycles: 50_000_000,
        tick_window: 250_000,
        wall_ms: 0,
    };
    for component in Component::ALL {
        let spec = InjectionSpec {
            component,
            bit: 0,
            cycle: 0,
        };
        let out = run_one(&w, &cfg, None, spec, limits);
        // Any class is acceptable; the point is totality (no panic/hang).
        let _ = out.class;
    }
}

#[test]
fn injection_at_last_bit_of_every_component() {
    let w = Workload::Crc32.build(Scale::Tiny);
    let cfg = tiny_cfg(1);
    let g = sea_platform::golden_run(cfg.machine, &w.image, &cfg.kernel, 100_000_000).unwrap();
    let limits = RunLimits::from_golden(g.cycles, cfg.kernel.tick_period);
    let probe = sea_microarch::System::new(cfg.machine, sea_microarch::NullDevice);
    for component in Component::ALL {
        let bits = probe.component_bits(component);
        let spec = InjectionSpec {
            component,
            bit: bits - 1,
            cycle: g.cycles - 1,
        };
        let out = run_one(&w, &cfg, None, spec, limits);
        // A flip at the very end of the run is almost always masked, and
        // must never wedge the harness.
        let _ = out.class;
    }
}

#[test]
fn multibit_models_flip_more_state() {
    use sea_injection::FaultModel;
    // A burst across a live register must behave like (at least) the
    // single-bit case; here we just pin totality + determinism.
    let w = Workload::MatMul.build(Scale::Tiny);
    let mut cfg = tiny_cfg(1);
    cfg.fault_model = FaultModel::Burst(8);
    let g = sea_platform::golden_run(cfg.machine, &w.image, &cfg.kernel, 100_000_000).unwrap();
    let limits = RunLimits::from_golden(g.cycles, cfg.kernel.tick_period);
    let spec = InjectionSpec {
        component: Component::RegFile,
        bit: 4 * 32,
        cycle: g.cycles / 3,
    };
    let a = run_one(&w, &cfg, None, spec, limits);
    let b = run_one(&w, &cfg, None, spec, limits);
    assert_eq!(a.class, b.class, "multi-bit runs must be deterministic");
}

#[test]
fn traced_campaign_emits_provenance_records() {
    let _guard = sea_trace::test_lock();
    let mem = std::sync::Arc::new(sea_trace::MemorySink::new());
    sea_trace::install_sink(mem.clone());
    sea_trace::set_level_all(sea_trace::Level::Info);

    let w = Workload::Crc32.build(Scale::Tiny);
    let cfg = CampaignConfig {
        samples_per_component: 4,
        components: vec![
            sea_microarch::Component::RegFile,
            sea_microarch::Component::L1D,
        ],
        threads: 2,
        ..CampaignConfig::default()
    };
    run_campaign("CRC32", &w, &cfg).unwrap();

    sea_trace::disable_all();
    sea_trace::flush_thread();
    sea_trace::uninstall_sink();
    let events = mem.take();
    let prov: Vec<_> = events
        .iter()
        .filter(|e| e.name == "injection.provenance")
        .collect();
    assert_eq!(
        prov.len(),
        8,
        "one provenance record per injection; got {}",
        prov.len()
    );
    let ends = events
        .iter()
        .filter(|e| e.name == "platform.run_end")
        .count();
    assert!(ends >= 8, "worker run_end events missing: {ends}");
    assert!(events.iter().any(|e| e.name == "injection.worker"));
}

#[test]
fn injection_header_ckpt_is_pinned() {
    // Every journal header carries this value, so resumes and fleet
    // merges of journals written by earlier builds depend on it staying
    // put: fnv1a(2u32 ‖ config_hash ‖ golden_hash), little-endian.
    let w = Workload::Crc32.build(Scale::Tiny);
    let cfg = CampaignConfig {
        components: Vec::new(),
        ..CampaignConfig::default()
    };
    let id = sea_injection::supervisor::RunIdentity {
        workload: "CRC32".into(),
        seed: 1,
        config_hash: 0x0123_4567_89ab_cdef,
        golden_hash: 0xfedc_ba98_7654_3210,
    };
    let plan = sea_injection::CampaignPlan::with_identity(&w, cfg, id).unwrap();
    assert_eq!(plan.header().ckpt, 0x97a6_bb0d_3559_fd67);
}
