//! Warp-tier (functional execution) tests.
//!
//! The warp tier is *architecturally* exact while interrupts are
//! quiescent: registers, status registers, PC, memory contents and the
//! retired-instruction count all match detailed stepping — only timing
//! (cycles) and microarchitectural residency (caches, TLBs, predictor)
//! may differ. These tests pin that contract down across control flow,
//! exceptions + mode changes, TLB flushes and self-modifying code, and
//! check the trace cache's hit/invalidation bookkeeping.

use sea_isa::{Asm, Cond, MemSize, Reg, SysReg};
use sea_microarch::{
    l1_entry, pte, MachineConfig, NullDevice, StepOutcome, System, WarpConfig, PAGE_SHIFT,
    PTE_EXEC, PTE_VALID, PTE_WRITE,
};

const TTBR: u32 = 0x0000_4000;
const L2_POOL: u32 = 0x0000_8000;
const TEXT: u32 = 0x0001_0000;
const RESULT: u32 = 0x0030_0000;

/// Identity map VA=PA for the first 8 MB (supervisor rwx) plus the first
/// device page — same layout as the fastpath and baremetal suites.
fn build_tables(sys: &mut System<NullDevice>) {
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

/// A mixed workload: tight arithmetic, a two-page memory sweep, an
/// explicit TLB flush, and an SVC round trip (exception entry + ERET —
/// both mode changes, both warp-trace flush points). Stores the checksum
/// at RESULT and halts.
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
    a.mov32(Reg::R1, RESULT);
    a.mov32(Reg::R2, 2048);
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
    a.mov32(Reg::R2, RESULT);
    a.str(Reg::R0, Reg::R2, 0);
    halt(a);
}

/// Builds the mixed-workload machine with an SVC handler that just ERETs.
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

/// The architectural face of a machine: every register word, the status/
/// fault registers, PC and the retired-instruction count — everything the
/// warp tier promises to keep exact (cycles and residency excluded).
fn arch_state(sys: &System<NullDevice>) -> (Vec<u32>, u32, u32, u32, u32, u32, u32, u32, u64) {
    (
        sys.cpu.regs.words().to_vec(),
        sys.cpu.cpsr.to_bits(),
        sys.cpu.pc,
        sys.cpu.spsr,
        sys.cpu.elr,
        sys.cpu.esr,
        sys.cpu.far,
        sys.cpu.ttbr,
        sys.cpu.counters.instructions,
    )
}

#[test]
fn warp_matches_detailed_architecturally_across_modes_and_flushes() {
    let mut detailed = mixed_machine();
    let mut steps = 0u64;
    while detailed.step() == StepOutcome::Executed {
        steps += 1;
        assert!(steps < 200_000, "detailed run never halted");
    }

    let mut warp = mixed_machine();
    warp.warp_enable(WarpConfig::default());
    let out = warp.run_warp(u64::MAX);
    assert_eq!(out, StepOutcome::Halted);

    assert_eq!(arch_state(&warp), arch_state(&detailed));
    assert_eq!(
        warp.mem.peek(RESULT, MemSize::Word),
        detailed.mem.peek(RESULT, MemSize::Word)
    );
    let stats = warp.warp_stats().unwrap();
    assert!(stats.block_hits > 0, "trace cache never hit: {stats:?}");
    assert!(
        stats.block_misses > 0,
        "trace cache never missed: {stats:?}"
    );
    // SVC entry, ERET and the TLB flush each flushed the trace cache.
    assert!(stats.flushes >= 3, "{stats:?}");
    // A loopy workload must mostly run from fused traces.
    assert!(stats.block_hits > stats.block_misses * 4, "{stats:?}");
    assert!(stats.insns > 0);
}

#[test]
fn run_warp_budget_counts_steps_like_the_detailed_tier() {
    // Splitting the budget across several run_warp calls and comparing
    // against detailed step()-call counts pins the "one step = one step"
    // accounting (retired instruction or vectored exception).
    let mut detailed = mixed_machine();
    let mut warp = mixed_machine();
    warp.warp_enable(WarpConfig::default());
    for budget in [1u64, 7, 100, 1000, 2000] {
        assert_eq!(warp.run_warp(budget), StepOutcome::Executed);
        for _ in 0..budget {
            assert_eq!(detailed.step(), StepOutcome::Executed);
        }
        assert_eq!(arch_state(&warp), arch_state(&detailed));
    }
}

#[test]
fn self_modifying_store_invalidates_the_fused_trace() {
    // The program overwrites its own first word (a NOP) with HALT and
    // loops back to it. A stale fused trace would spin forever; the SMC
    // page filter must drop it so the re-fetch sees the HALT.
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
        a.b(x);
    };
    // Baseline with the same memory semantics as the warp tier (atomic):
    // stores are immediately fetch-visible.
    let mut atomic = machine_with(MachineConfig::cortex_a9().atomic(), build);
    let mut steps = 0u64;
    while atomic.step() == StepOutcome::Executed {
        steps += 1;
        assert!(steps < 10_000, "atomic baseline never halted");
    }

    let mut warp = machine_with(MachineConfig::cortex_a9(), build);
    warp.warp_enable(WarpConfig::default());
    assert_eq!(warp.run_warp(10_000), StepOutcome::Halted);
    assert_eq!(arch_state(&warp), arch_state(&atomic));
    let stats = warp.warp_stats().unwrap();
    assert!(stats.smc_invalidations >= 1, "{stats:?}");
}

#[test]
fn warp_handoff_to_detailed_reaches_the_same_result() {
    // Warp partway, then finish on the detailed tier: the architectural
    // result must match a pure detailed run (timing differs — the
    // detailed resume starts with cold caches).
    let mut detailed = mixed_machine();
    while detailed.step() == StepOutcome::Executed {}

    let mut two_tier = mixed_machine();
    two_tier.warp_enable(WarpConfig::default());
    assert_eq!(two_tier.run_warp(5_000), StepOutcome::Executed);
    let mut steps = 0u64;
    while two_tier.step() == StepOutcome::Executed {
        steps += 1;
        assert!(steps < 200_000, "two-tier run never halted");
    }
    assert_eq!(
        two_tier.mem.peek(RESULT, MemSize::Word),
        detailed.mem.peek(RESULT, MemSize::Word)
    );
    assert_eq!(two_tier.cpu.regs.words(), detailed.cpu.regs.words());
    assert_eq!(
        two_tier.cpu.counters.instructions,
        detailed.cpu.counters.instructions
    );
}

#[test]
fn detailed_stepping_is_untouched_by_an_armed_warp_engine() {
    // Arming the warp tier without calling run_warp must leave detailed
    // stepping bit-exact (the equivalence bar the campaign cursor needs).
    let mut plain = mixed_machine();
    let mut armed = mixed_machine();
    armed.warp_enable(WarpConfig::default());
    loop {
        let a = plain.step();
        let b = armed.step();
        assert_eq!(a, b);
        assert_eq!(
            plain.state_fingerprint_deep(),
            armed.state_fingerprint_deep()
        );
        if a != StepOutcome::Executed {
            break;
        }
    }
}

#[test]
fn snapshot_excludes_warp_state() {
    let mut sys = mixed_machine();
    sys.warp_enable(WarpConfig::default());
    sys.run_warp(500);
    // A warm trace cache is memoization, not machine state: the machine
    // without it is the one a checkpoint holds.
    let mut cold = sys.clone();
    cold.warp_disable();
    assert!(!cold.warp_enabled());
    assert_eq!(cold.state_fingerprint_deep(), sys.state_fingerprint_deep());
    assert!(sys.converges_with(&cold));
    assert!(cold.converges_with(&sys));
}
