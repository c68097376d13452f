//! Full-system integration: boot the real kernel on the board model, run
//! user programs through the syscall interface, and hit every outcome
//! class the paper's harness distinguishes.

use sea_isa::{Asm, Cond, Image, Reg};
use sea_kernel::{user, KernelConfig};
use sea_microarch::{
    Component, MachineConfig, ESR_CLASS_DATA_ABORT, ESR_CLASS_PREFETCH_ABORT, ESR_CLASS_UNDEFINED,
};
use sea_platform::{
    boot, classify, golden_run, golden_run_with_checkpoints, run, AppCrashKind, FaultClass,
    RunLimits, RunOutcome, SysCrashKind,
};

fn build_user(body: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new();
    let e = a.label("main");
    a.bind(e).unwrap();
    body(&mut a);
    a.finish(e).unwrap()
}

fn limits() -> RunLimits {
    RunLimits {
        max_cycles: 3_000_000,
        tick_window: 200_000,
        wall_ms: 0,
    }
}

#[test]
fn hello_exits_cleanly_with_output() {
    let img = build_user(|a| {
        let msg = a.label("msg");
        user::alive(a);
        user::write_label(a, msg, 13);
        user::exit_with(a, 0);
        a.section(sea_isa::Section::Rodata);
        a.bind(msg).unwrap();
        a.bytes(b"hello, world\n");
        a.section(sea_isa::Section::Text);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    let out = run(&mut sys, limits());
    match &out {
        RunOutcome::Exited {
            code,
            output,
            overflow,
        } => {
            assert_eq!(*code, 0);
            assert_eq!(output.as_slice(), b"hello, world\n");
            assert!(!overflow);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
    assert_eq!(classify(&out, b"hello, world\n"), FaultClass::Masked);
    assert_eq!(classify(&out, b"hello, worlD\n"), FaultClass::Sdc);
    assert_eq!(sys.dev.alive_count(), 1);
}

#[test]
fn golden_run_captures_counters_and_cycles() {
    let img = build_user(|a| {
        let msg = a.label("m");
        user::write_label(a, msg, 4);
        user::exit_with(a, 0);
        a.section(sea_isa::Section::Rodata);
        a.bind(msg).unwrap();
        a.bytes(b"data");
        a.section(sea_isa::Section::Text);
    });
    let g = golden_run(
        MachineConfig::cortex_a9(),
        &img,
        &KernelConfig::default(),
        3_000_000,
    )
    .unwrap();
    assert_eq!(g.output, b"data");
    assert!(g.cycles > 0 && g.instructions > 0);
    assert!(g.counters.l1i_miss > 0, "cold caches must miss");
    assert!(g.boot.heap_base >= 0x0010_0000);
}

/// A checkpointed golden run records its read horizon without changing
/// anything the golden run reports, and seals its set with it while the
/// epochs — clones of the observed machine — carry no recorder of their own.
#[test]
fn tracked_golden_runs_are_pure_observers_and_seal_their_checkpoints() {
    let img = build_user(|a| {
        let lp = a.label("lp");
        a.mov32(Reg::R4, 30_000);
        a.bind(lp).unwrap();
        a.subs_imm(Reg::R4, Reg::R4, 1);
        a.b_if(Cond::Ne, lp);
        user::exit_with(a, 0);
    });
    let (machine, kernel) = (MachineConfig::cortex_a9(), KernelConfig::default());
    let plain = golden_run(machine, &img, &kernel, 3_000_000).unwrap();
    let (ckpt, set) =
        golden_run_with_checkpoints(machine, &img, &kernel, 3_000_000, 4_096).unwrap();
    assert_eq!(
        (ckpt.cycles, ckpt.instructions, &ckpt.output, ckpt.counters),
        (
            plain.cycles,
            plain.instructions,
            &plain.output,
            plain.counters
        )
    );
    // r4 counts the loop down; no workload here touches an FP register.
    let mid = plain.cycles / 2;
    let horizon = set.horizon().expect("sealed with the run's horizon");
    assert!(horizon.reads_from(Component::RegFile, 4 * 32, mid));
    assert!(!horizon.reads_from(Component::RegFile, 20 * 32, mid));
    assert!(set.len() > 2);
    for cycle in set.epochs() {
        let mut restored = set.restore_at(cycle).unwrap();
        assert!(restored.horizon_take().is_none(), "epoch {cycle}");
    }
}

#[test]
fn timer_ticks_arrive_during_long_runs() {
    // Spin long enough for several 20k-cycle ticks, then exit.
    let img = build_user(|a| {
        let lp = a.label("lp");
        a.mov32(Reg::R4, 60_000);
        a.bind(lp).unwrap();
        a.subs_imm(Reg::R4, Reg::R4, 1);
        a.b_if(Cond::Ne, lp);
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    let out = run(&mut sys, limits());
    assert!(matches!(out, RunOutcome::Exited { code: 0, .. }));
    assert!(
        sys.dev.tick_count() >= 3,
        "expected several scheduler ticks, got {}",
        sys.dev.tick_count()
    );
}

#[test]
fn wild_store_is_an_app_crash_with_data_abort() {
    let img = build_user(|a| {
        a.mov32(Reg::R1, 0x6000_0000); // unmapped user-range address
        a.str(Reg::R0, Reg::R1, 0);
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::AppCrash(AppCrashKind::Signal(esr)) => {
            assert_eq!(esr >> 24, ESR_CLASS_DATA_ABORT);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
}

#[test]
fn kernel_pointer_dereference_is_an_app_crash() {
    // Touching kernel memory from user mode must fault with a permission
    // abort, not corrupt the kernel.
    let img = build_user(|a| {
        a.mov_imm(Reg::R1, 0);
        a.str(Reg::R0, Reg::R1, 16); // vector table!
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::AppCrash(AppCrashKind::Signal(esr)) => {
            assert_eq!(esr >> 24, ESR_CLASS_DATA_ABORT);
            assert_eq!(esr & 0xFFFF, 2, "expected a permission fault");
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
}

#[test]
fn undefined_instruction_is_an_app_crash() {
    let img = build_user(|a| {
        a.word(0xE900_0000); // invalid class
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::AppCrash(AppCrashKind::Signal(esr)) => {
            assert_eq!(esr >> 24, ESR_CLASS_UNDEFINED);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
}

#[test]
fn wild_jump_is_an_app_crash_with_prefetch_abort() {
    let img = build_user(|a| {
        a.mov32(Reg::R1, 0x7000_0000);
        a.bx(Reg::R1);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::AppCrash(AppCrashKind::Signal(esr)) => {
            assert_eq!(esr >> 24, ESR_CLASS_PREFETCH_ABORT);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
}

#[test]
fn infinite_loop_is_an_app_hang_not_a_system_crash() {
    let img = build_user(|a| {
        let lp = a.label("lp");
        a.bind(lp).unwrap();
        a.b(lp);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    let out = run(
        &mut sys,
        RunLimits {
            max_cycles: 500_000,
            tick_window: 200_000,
            wall_ms: 0,
        },
    );
    // The kernel keeps ticking under the spinning app, so the watchdog
    // attributes the hang to the application.
    assert_eq!(out, RunOutcome::AppCrash(AppCrashKind::Hang));
    assert!(sys.dev.tick_count() > 0);
    assert_eq!(classify(&out, b""), FaultClass::AppCrash);
}

#[test]
fn privileged_instruction_from_user_is_killed() {
    let img = build_user(|a| {
        a.push(sea_isa::Insn::Halt { cond: Cond::Al }); // privileged
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::AppCrash(AppCrashKind::Signal(esr)) => {
            assert_eq!(esr >> 24, ESR_CLASS_UNDEFINED);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
}

#[test]
fn sbrk_grows_heap_and_fails_past_limit() {
    let img = build_user(|a| {
        // r4 = sbrk(4096); write a marker; exit(marker readback == 0x77).
        a.mov32(Reg::R0, 4096);
        user::sbrk(a);
        a.mov(Reg::R4, Reg::R0);
        a.mov_imm(Reg::R5, 0x77);
        a.str(Reg::R5, Reg::R4, 0);
        a.ldr(Reg::R6, Reg::R4, 0);
        // exit(r6 == 0x77 ? 0 : 1)
        a.cmp_imm(Reg::R6, 0x77);
        a.mov_imm(Reg::R0, 1);
        a.ifc(Cond::Eq).mov_imm(Reg::R0, 0);
        user::exit(a);
    });
    let (mut sys, info) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::Exited { code, .. } => assert_eq!(code, 0),
        other => panic!("unexpected outcome: {other:?}"),
    }
    assert!(info.heap_base < info.heap_end);
}

#[test]
fn unknown_syscall_returns_enosys_and_continues() {
    let img = build_user(|a| {
        a.mov_imm(Reg::R7, 99);
        a.svc(99);
        // r0 must be ENOSYS (0xFFFF_FFFF): exit(r0 == -1 ? 0 : 2)
        a.cmp_imm(Reg::R0, 0);
        a.mov_imm(Reg::R1, 0);
        a.mvn(Reg::R1, Reg::R1);
        a.cmp(Reg::R0, Reg::R1);
        a.mov_imm(Reg::R0, 2);
        a.ifc(Cond::Eq).mov_imm(Reg::R0, 0);
        user::exit(a);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::Exited { code, .. } => assert_eq!(code, 0),
        other => panic!("unexpected outcome: {other:?}"),
    }
}

#[test]
fn write_with_kernel_pointer_fails_cleanly() {
    // write(kernel_addr, len) must be rejected by the kernel's range check
    // (returning -1), not panic the kernel.
    let img = build_user(|a| {
        a.mov_imm(Reg::R0, 0); // kernel address
        a.mov_imm(Reg::R1, 16);
        user::write(a);
        // exit(0) if r0 == -1
        a.mov_imm(Reg::R1, 0);
        a.mvn(Reg::R1, Reg::R1);
        a.cmp(Reg::R0, Reg::R1);
        a.mov_imm(Reg::R0, 3);
        a.ifc(Cond::Eq).mov_imm(Reg::R0, 0);
        user::exit(a);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::Exited { code, output, .. } => {
            assert_eq!(code, 0);
            assert!(output.is_empty(), "no bytes may leak from kernel space");
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
}

#[test]
fn corrupted_kernel_text_escalates_to_system_crash() {
    // Corrupt the SVC dispatch path in kernel text (physical memory), then
    // make a syscall: the kernel must die, not the app.
    let img = build_user(|a| {
        user::alive(a);
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    // Clobber a word in the middle of kernel text (past the vectors and
    // boot code) with garbage that faults in supervisor mode.
    for off in (0x100..0x400u32).step_by(4) {
        sys.mem.phys.write(off, sea_isa::MemSize::Word, 0xE900_0000);
    }
    let out = run(
        &mut sys,
        RunLimits {
            max_cycles: 2_000_000,
            tick_window: 200_000,
            wall_ms: 0,
        },
    );
    match out {
        RunOutcome::SysCrash(SysCrashKind::Panic(_) | SysCrashKind::KernelHang) => {}
        other => panic!("expected a system crash, got {other:?}"),
    }
}

#[test]
fn corrupted_runqueue_pointer_panics_the_kernel() {
    // The kernel's run queue is pointer-linked (like Linux's scheduler
    // lists); corrupting a `next` pointer must surface as a kernel panic on
    // the next tick — the paper's §V-A System-Crash mechanism.
    let img = build_user(|a| {
        // Spin long enough for several ticks.
        let lp = a.label("lp");
        a.mov32(Reg::R4, 200_000);
        a.bind(lp).unwrap();
        a.subs_imm(Reg::R4, Reg::R4, 1);
        a.b_if(Cond::Ne, lp);
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    // Node 0's `next` word lives at KERNEL_DATA + 12 bytes (after ticks,
    // brk, kstat); point it at an unmapped kernel address.
    let next_addr = sea_kernel::KERNEL_DATA + 12;
    sys.mem
        .phys
        .write(next_addr, sea_isa::MemSize::Word, 0x00F0_0000);
    let out = run(
        &mut sys,
        RunLimits {
            max_cycles: 3_000_000,
            tick_window: 200_000,
            wall_ms: 0,
        },
    );
    match out {
        RunOutcome::SysCrash(SysCrashKind::Panic(esr)) => {
            assert_eq!(
                esr >> 24,
                ESR_CLASS_DATA_ABORT,
                "panic cause should be a data abort"
            );
        }
        other => panic!("expected kernel panic, got {other:?}"),
    }
}

#[test]
fn postmortem_reports_crash_state_and_trace() {
    let img = build_user(|a| {
        a.mov32(Reg::R1, 0x6000_0000);
        a.str(Reg::R0, Reg::R1, 0); // fatal store
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    sys.cpu.enable_trace(16);
    let out = run(&mut sys, limits());
    assert!(matches!(out, RunOutcome::AppCrash(_)));
    let report = sea_platform::postmortem(&sys);
    assert!(report.contains("far=0x60000000"), "report: {report}");
    assert!(report.contains("signal=Some"), "report: {report}");
    assert!(
        report.contains("trace:"),
        "trace must be present when enabled"
    );
}

#[test]
fn write_of_unmapped_user_range_is_a_kernel_panic_by_design() {
    // The kernel's write() range check admits any user-range pointer; a
    // pointer into an unmapped hole faults *in supervisor mode* during the
    // copy loop. Linux would return EFAULT; linux-lite oopses — a
    // documented simplification that slightly inflates SysCrash, noted in
    // DESIGN.md. This test pins the behavior so a future copy_from_user
    // implementation shows up as an intentional change.
    let img = build_user(|a| {
        a.mov32(Reg::R0, 0x4000_0000); // user-range but unmapped
        a.mov_imm(Reg::R1, 8);
        user::write(a);
        user::exit_with(a, 0);
    });
    let (mut sys, _) = boot(MachineConfig::cortex_a9(), &img, &KernelConfig::default()).unwrap();
    match run(&mut sys, limits()) {
        RunOutcome::SysCrash(SysCrashKind::Panic(esr)) => {
            assert_eq!(esr >> 24, ESR_CLASS_DATA_ABORT);
        }
        other => panic!("expected kernel panic (documented behavior), got {other:?}"),
    }
}

#[test]
fn output_overflow_is_flagged_and_never_masked() {
    // A runaway writer hits the board's output cap; the run still exits
    // but can never be Masked. Every captured byte matches the golden
    // prefix, so this is a runaway app (AppCrash), not data corruption.
    let img = build_user(|a| {
        let lp = a.label("lp");
        let buf = a.label("buf");
        a.mov32(Reg::R4, 64); // 64 × 64 B = 4 KiB of output
        a.bind(lp).unwrap();
        user::write_label(a, buf, 64);
        a.subs_imm(Reg::R4, Reg::R4, 1);
        a.b_if(Cond::Ne, lp);
        user::exit_with(a, 0);
        a.section(sea_isa::Section::Rodata);
        a.bind(buf).unwrap();
        a.zero(64);
        a.section(sea_isa::Section::Text);
    });
    let mut sys = sea_microarch::System::new(
        MachineConfig::cortex_a9(),
        sea_platform::Board::with_output_cap(512),
    );
    sea_kernel::install(&mut sys, &img, &KernelConfig::default()).unwrap();
    let out = run(&mut sys, limits());
    match &out {
        RunOutcome::Exited {
            overflow, output, ..
        } => {
            assert!(*overflow);
            assert_eq!(output.len(), 512);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
    assert_eq!(classify(&out, &vec![0u8; 4096]), FaultClass::AppCrash);
    // A deviating byte inside the truncated capture is still corruption.
    if let RunOutcome::Exited {
        output,
        overflow,
        code,
    } = out
    {
        let mut corrupted = output;
        corrupted[17] ^= 0x40;
        let tampered = RunOutcome::Exited {
            code,
            output: corrupted,
            overflow,
        };
        assert_eq!(classify(&tampered, &vec![0u8; 4096]), FaultClass::Sdc);
    }
}
