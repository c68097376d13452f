//! Fast-path equivalence tests: the µop cache + translation-latch fast
//! path must be *bit-for-bit* transparent — identical counters, identical
//! deep state fingerprints, identical step outcomes — on fault-free runs,
//! across self-modifying code, and across injected flips into every
//! modeled SRAM array (including the L1I, the D-TLB, and the L2 lines that
//! cache page-table memory).

use sea_isa::{Asm, Cond, MemSize, Reg, SysReg};
use sea_microarch::{
    l1_entry, pte, Component, Device, FastPathConfig, MachineConfig, NullDevice, StepOutcome,
    System, WarpConfig, PAGE_SHIFT, PTE_EXEC, PTE_VALID, PTE_WRITE,
};

const TTBR: u32 = 0x0000_4000; // 16 KB L1 table at 16 KB
const L2_POOL: u32 = 0x0000_8000; // L2 tables allocated upward from here
const TEXT: u32 = 0x0001_0000;

/// Identity map VA=PA for the first 8 MB (supervisor rwx) plus the first
/// device page — same layout as the baremetal suite, so the page tables
/// themselves live in cacheable physical memory and are walked through the
/// L2 (an L2 flip can therefore corrupt page-table data).
fn build_tables<D: Device>(sys: &mut System<D>) {
    let mut next_l2 = L2_POOL;
    let mut alloc_l2 = || {
        let a = next_l2;
        next_l2 += 0x400;
        a
    };
    for mib in 0..8u32 {
        let l2 = alloc_l2();
        sys.mem
            .phys
            .write(TTBR + mib * 4, MemSize::Word, l1_entry(l2));
        for page in 0..256u32 {
            let ppn = (mib << 8) + page;
            sys.mem.phys.write(
                l2 + page * 4,
                MemSize::Word,
                pte(ppn, PTE_WRITE | PTE_EXEC | PTE_VALID),
            );
        }
    }
    let l2 = alloc_l2();
    sys.mem.phys.write(
        TTBR + (0xF000_0000u32 >> 20) * 4,
        MemSize::Word,
        l1_entry(l2),
    );
    sys.mem.phys.write(
        l2,
        MemSize::Word,
        pte(0xF000_0000 >> PAGE_SHIFT, PTE_WRITE | PTE_VALID),
    );
    sys.cpu.ttbr = TTBR;
}

fn machine_with(cfg: MachineConfig, build: impl FnOnce(&mut Asm)) -> System<NullDevice> {
    let mut sys = System::new(cfg, NullDevice);
    build_tables(&mut sys);
    let mut a = Asm::new();
    let entry = a.label("entry");
    a.bind(entry).unwrap();
    build(&mut a);
    let img = a.finish(entry).unwrap();
    for seg in img.segments() {
        sys.mem.phys.write_bytes(seg.vaddr, &seg.data);
    }
    sys.cpu.pc = img.entry();
    sys
}

fn halt(a: &mut Asm) {
    a.push(sea_isa::Insn::Halt { cond: Cond::Al });
}

/// A mixed workload: tight arithmetic (µop-cache heaven), a two-page
/// memory sweep (read-latch streaks + DTLB pressure), an explicit TLB
/// flush, and an SVC round trip (exception entry + ERET, both of which
/// clear the translation latches). Ends by storing the checksum.
fn mixed_workload(a: &mut Asm) {
    let loop1 = a.label("loop1");
    let outer = a.label("outer");
    let inner = a.label("inner");
    a.mov_imm(Reg::R0, 0);
    a.mov_imm(Reg::R1, 100);
    a.bind(loop1).unwrap();
    a.add(Reg::R0, Reg::R0, Reg::R1);
    a.subs_imm(Reg::R1, Reg::R1, 1);
    a.b_if(Cond::Ne, loop1);
    a.mov_imm(Reg::R4, 2);
    a.bind(outer).unwrap();
    a.mov32(Reg::R1, 0x0030_0000);
    a.mov32(Reg::R2, 2048); // two 4 KB pages of words
    a.bind(inner).unwrap();
    a.ldr_post(Reg::R5, Reg::R1, 4);
    a.add(Reg::R0, Reg::R0, Reg::R5);
    a.subs_imm(Reg::R2, Reg::R2, 1);
    a.b_if(Cond::Ne, inner);
    a.subs_imm(Reg::R4, Reg::R4, 1);
    a.b_if(Cond::Ne, outer);
    a.mov_imm(Reg::R3, 2);
    a.msr(SysReg::CacheOp, Reg::R3); // TLB flush mid-run
    a.svc(7); // exception entry + eret
    a.mov32(Reg::R2, 0x0030_0000);
    a.str(Reg::R0, Reg::R2, 0);
    halt(a);
}

/// Builds the mixed-workload machine with an SVC handler that just ERETs
/// (planted at PA 0x100, reached via a branch in the SVC vector slot).
fn mixed_machine() -> System<NullDevice> {
    let mut sys = machine_with(MachineConfig::cortex_a9(), mixed_workload);
    let mut h = Asm::new();
    h.set_bases(0x100, 0x1000_0000, 0x2000_0000);
    let e = h.label("h");
    h.bind(e).unwrap();
    h.push(sea_isa::Insn::Eret { cond: Cond::Al });
    let himg = h.finish(e).unwrap();
    sys.mem.phys.write_bytes(0x100, &himg.segments()[0].data);
    let b = sea_isa::encode(&sea_isa::Insn::Branch {
        cond: Cond::Al,
        link: false,
        offset: (0x100 - 0x8 - 4) / 4,
    });
    sys.mem.phys.write(0x8, MemSize::Word, b);
    sys
}

/// Steps `fast` and `slow` in lockstep, asserting identical outcome,
/// identical counters, and identical deep state fingerprints after every
/// single step. Returns the terminal outcome, or `None` if the budget ran
/// out (both machines still in matching states — e.g. a fault-induced
/// hang, which is a legitimate campaign outcome).
fn run_lockstep(
    fast: &mut System<NullDevice>,
    slow: &mut System<NullDevice>,
    max_steps: u64,
) -> Option<StepOutcome> {
    for step in 0..max_steps {
        let a = fast.step();
        let b = slow.step();
        assert_eq!(a, b, "step outcome diverged at step {step}");
        assert_eq!(
            fast.cpu.counters, slow.cpu.counters,
            "counters diverged at step {step} (pc={:#x})",
            slow.cpu.pc
        );
        assert_eq!(
            fast.state_fingerprint_deep(),
            slow.state_fingerprint_deep(),
            "machine state diverged at step {step} (pc={:#x})",
            slow.cpu.pc
        );
        if a != StepOutcome::Executed {
            return Some(a);
        }
    }
    None
}

#[test]
fn fault_free_run_is_step_for_step_identical() {
    let mut fast = mixed_machine();
    let mut slow = mixed_machine();
    fast.fastpath_enable(FastPathConfig::default());
    let out = run_lockstep(&mut fast, &mut slow, 200_000);
    assert_eq!(out, Some(StepOutcome::Halted));
    let stats = fast.fastpath_stats().unwrap();
    assert!(stats.uop_hits > 0, "µop cache never hit: {stats:?}");
    assert!(stats.uop_misses > 0, "µop cache never missed: {stats:?}");
    assert!(
        stats.latch_hits > 0,
        "translation latch never hit: {stats:?}"
    );
    assert!(stats.line_hits > 0, "L1 line latch never hit: {stats:?}");
    // The fast path must actually be doing most of the work on a loopy
    // workload, not just technically engaging.
    assert!(stats.uop_hits > stats.uop_misses * 10);
    assert!(slow.fastpath_stats().is_none());
}

#[test]
fn self_modifying_store_is_seen_by_the_next_fetch() {
    // The program's first word is a NOP that the program itself overwrites
    // with HALT, then cleans+invalidates the caches and jumps back to it.
    // If a stale predecoded µop survived the store, the machine would loop
    // forever; seeing the new encoding halts it on the second pass.
    let build = |a: &mut Asm| {
        let x = a.label("x");
        a.bind(x).unwrap();
        a.nop(); // patched to HALT at run time
        a.mov32(Reg::R1, TEXT);
        a.mov32(
            Reg::R2,
            sea_isa::encode(&sea_isa::Insn::Halt { cond: Cond::Al }),
        );
        a.str(Reg::R2, Reg::R1, 0);
        a.mov_imm(Reg::R3, 1);
        a.msr(SysReg::CacheOp, Reg::R3); // clean + invalidate caches
        a.b(x);
    };
    let mut fast = machine_with(MachineConfig::cortex_a9(), build);
    let mut slow = machine_with(MachineConfig::cortex_a9(), build);
    fast.fastpath_enable(FastPathConfig::default());
    let out = run_lockstep(&mut fast, &mut slow, 10_000);
    assert_eq!(out, Some(StepOutcome::Halted));
    // The patched word really was predecoded before being overwritten.
    let stats = fast.fastpath_stats().unwrap();
    assert!(stats.uop_misses >= 2, "{stats:?}"); // NOP and HALT decodes
}

#[test]
fn self_modifying_store_in_atomic_mode_too() {
    // Atomic mode has no caches: the store is fetch-visible immediately,
    // and only the (paddr, word) µop key protects the fast path.
    let build = |a: &mut Asm| {
        let x = a.label("x");
        a.bind(x).unwrap();
        a.nop();
        a.mov32(Reg::R1, TEXT);
        a.mov32(
            Reg::R2,
            sea_isa::encode(&sea_isa::Insn::Halt { cond: Cond::Al }),
        );
        a.str(Reg::R2, Reg::R1, 0);
        a.b(x);
    };
    let mut fast = machine_with(MachineConfig::cortex_a9().atomic(), build);
    let mut slow = machine_with(MachineConfig::cortex_a9().atomic(), build);
    fast.fastpath_enable(FastPathConfig::default());
    let out = run_lockstep(&mut fast, &mut slow, 10_000);
    assert_eq!(out, Some(StepOutcome::Halted));
}

#[test]
fn injected_flips_are_equivalent_across_every_component() {
    // Warm both machines up (valid lines and TLB entries everywhere),
    // flip the same bit on both, then demand step-for-step identity to the
    // terminal state. Sweeps all six components with bits at both ends and
    // the middle of each array: for the TLBs that covers tag (VPN) bits —
    // the latch-alias hazard — and for the L2 it covers lines caching
    // page-table memory (the walker reads PTEs through the L2).
    for component in Component::ALL {
        let probe_bits = |bits: u64| [0, bits / 2, bits - 1, 21, bits / 2 + 20];
        let bits = mixed_machine().component_bits(component);
        for bit in probe_bits(bits) {
            let bit = bit % bits;
            let mut fast = mixed_machine();
            let mut slow = mixed_machine();
            fast.fastpath_enable(FastPathConfig::default());
            assert_eq!(run_lockstep(&mut fast, &mut slow, 400), None);
            // Same flip on both machines, with the provenance probe armed
            // (campaigns always arm it), so the fast path also has to keep
            // watch reports identical.
            let sf = fast.flip_bit_probed(component, bit);
            let ss = slow.flip_bit_probed(component, bit);
            assert_eq!(sf, ss);
            let out = run_lockstep(&mut fast, &mut slow, 200_000);
            // Terminal state may be a halt, a lock-up, or a hang — the
            // only requirement is that both machines agree (asserted
            // inside run_lockstep), and neither diverged on the way.
            let _ = out;
            let pf = fast.take_probe().unwrap();
            let ps = slow.take_probe().unwrap();
            assert_eq!(
                pf.activated(),
                ps.activated(),
                "{component} bit {bit}: activation diverged"
            );
        }
    }
}

#[test]
fn snapshot_excludes_fastpath_state() {
    let mut sys = mixed_machine();
    sys.fastpath_enable(FastPathConfig::default());
    for _ in 0..500 {
        sys.step();
    }
    // Checkpoints are captured without a fast path and compared against
    // machines that run with one: a warm fast path must not count as
    // machine state.
    let mut cold = sys.clone();
    cold.fastpath_disable();
    assert!(!cold.fastpath_enabled());
    assert_eq!(cold.state_fingerprint_deep(), sys.state_fingerprint_deep());
    assert!(sys.converges_with(&cold));
    assert!(cold.converges_with(&sys));
}

#[test]
fn enabling_mid_run_keeps_equivalence() {
    let mut fast = mixed_machine();
    let mut slow = mixed_machine();
    // Run warm, then arm the fast path mid-stream: it must start cold and
    // stay transparent from that point on.
    assert_eq!(run_lockstep(&mut fast, &mut slow, 1_000), None);
    fast.fastpath_enable(FastPathConfig::default());
    let out = run_lockstep(&mut fast, &mut slow, 200_000);
    assert_eq!(out, Some(StepOutcome::Halted));
}

/// `warp_enable` + `run_warp` survive only as delegates for the
/// `sea-bench-layers` probe: together they must step the fast tier exactly
/// as far as `n` plain steps do.
#[test]
fn run_warp_steps_the_fast_tier_like_plain_stepping() {
    const N: u64 = 500;
    let mut probed = mixed_machine();
    let mut twin = mixed_machine();
    probed.warp_enable(WarpConfig::default());
    assert!(probed.fastpath_enabled());
    assert_eq!(probed.run_warp(N), StepOutcome::Executed);
    for _ in 0..N {
        assert_eq!(twin.step(), StepOutcome::Executed);
    }
    assert!(probed.converges_with(&twin));
}
