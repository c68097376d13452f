//! The read horizon, accessor by accessor: each kind of read stamps its
//! granule with the step that performed it, and a pure overwrite neither
//! stamps nor un-stamps. Small supervisor-mode programs on an
//! identity-mapped machine; `last_read` pins the *last* reading step of a
//! cell to one instruction of the program.

use std::collections::BTreeMap;

use sea_isa::{s, Asm, Cond, Insn, MemSize, Reg, SysReg};
use sea_microarch::ArrayKind;
use sea_microarch::{
    l1_entry, pte, Component, DeadCell, MachineConfig, NullDevice, ReadHorizon, StepOutcome,
    System, PTE_EXEC, PTE_VALID, PTE_WRITE,
};

const TTBR: u32 = 0x0000_4000;
const L2_POOL: u32 = 0x0000_8000;
/// Data lives here, well away from the page tables and the code.
const DATA: u32 = 0x0030_0000;

/// One traced run: the machine after `HALT`, the horizon it recorded, and
/// for every instruction (by its `Asm::here` offset) the starting cycle of
/// its last step.
struct Traced {
    sys: System<NullDevice>,
    horizon: ReadHorizon,
    step_of: BTreeMap<u32, u64>,
}

/// Identity-maps the first 8 MB (supervisor rwx), assembles `build` at its
/// default base, and runs it to `HALT` under the observers `attach`
/// attaches. Returns the halted machine and every instruction's last step.
fn run_observed(
    attach: impl FnOnce(&mut System<NullDevice>),
    build: impl FnOnce(&mut Asm),
) -> (System<NullDevice>, BTreeMap<u32, u64>) {
    let mut sys = System::new(MachineConfig::cortex_a9(), NullDevice);
    for mib in 0..8u32 {
        let l2 = L2_POOL + mib * 0x400;
        sys.mem
            .phys
            .write(TTBR + mib * 4, MemSize::Word, l1_entry(l2));
        for page in 0..256u32 {
            let entry = pte((mib << 8) + page, PTE_WRITE | PTE_EXEC | PTE_VALID);
            sys.mem.phys.write(l2 + page * 4, MemSize::Word, entry);
        }
    }
    sys.cpu.ttbr = TTBR;
    let mut a = Asm::new();
    let entry = a.label("entry");
    a.bind(entry).unwrap();
    build(&mut a);
    a.push(Insn::Halt { cond: Cond::Al });
    let img = a.finish(entry).unwrap();
    for seg in img.segments() {
        sys.mem.phys.write_bytes(seg.vaddr, &seg.data);
    }
    sys.cpu.pc = img.entry();

    attach(&mut sys);
    let mut step_of = BTreeMap::new();
    for _ in 0..10_000 {
        step_of.insert(sys.cpu.pc - img.entry(), sys.cycles());
        match sys.step() {
            StepOutcome::Executed => {}
            StepOutcome::Halted => return (sys, step_of),
            StepOutcome::LockedUp => panic!("locked up at pc={:#x}", sys.cpu.pc),
        }
    }
    panic!("program did not halt");
}

/// [`run_observed`] with the read-horizon recorder attached.
fn traced(build: impl FnOnce(&mut Asm)) -> Traced {
    let (mut sys, step_of) = run_observed(System::horizon_attach, build);
    let horizon = sys.horizon_take().expect("recorder attached");
    Traced {
        sys,
        horizon,
        step_of,
    }
}

impl Traced {
    /// Asserts the last step that read (`c`, `bit`) is the one that
    /// executed the instruction at `pc`.
    #[track_caller]
    fn last_read(&self, c: Component, bit: u64, pc: u32) {
        let start = self.step_of[&pc];
        assert!(
            self.horizon.reads_from(c, bit, start),
            "{c:?} bit {bit}: not read by the step at {pc:#x}"
        );
        assert!(
            !self.horizon.reads_from(c, bit, start + 1),
            "{c:?} bit {bit}: read again after the step at {pc:#x}"
        );
    }

    /// Asserts no step ever read (`c`, `bit`).
    #[track_caller]
    fn never_read(&self, c: Component, bit: u64) {
        assert!(
            !self.horizon.reads_from(c, bit, 0),
            "{c:?} bit {bit} was read"
        );
    }

    /// First bit of the L1D / L2 line holding `paddr` at the end of the run.
    fn line_bit(&self, c: Component, paddr: u32) -> u64 {
        let cache = match c {
            Component::L1D => &self.sys.mem.l1d,
            _ => &self.sys.mem.l2,
        };
        let line = cache.find_line(paddr).expect("line resident at the end");
        u64::from(line) * cache.bits_per_line()
    }
}

const RF: Component = Component::RegFile;

#[test]
fn integer_operand_reads_stamp_and_writes_do_not() {
    let mut add = 0;
    let t = traced(|a| {
        a.mov_imm(Reg::R1, 7);
        a.mov_imm(Reg::R2, 9);
        add = a.here();
        a.add(Reg::R0, Reg::R1, Reg::R2);
        // Later overwrites of a source, of the destination, and of a
        // register nothing ever reads.
        a.mov_imm(Reg::R1, 1);
        a.mov_imm(Reg::R0, 2);
        a.mov_imm(Reg::R5, 3);
    });
    t.last_read(RF, 32 + 4, add);
    t.last_read(RF, 2 * 32 + 31, add);
    t.never_read(RF, 0);
    t.never_read(RF, 5 * 32);
}

#[test]
fn the_banked_stack_pointers_are_separate_words() {
    let (mut use_sp, mut mrs) = (0, 0);
    let t = traced(|a| {
        a.mov32(Reg::R4, 0x0031_0000);
        a.msr(SysReg::SpUsr, Reg::R4); // a write of sp_usr
        use_sp = a.here();
        a.add_imm(Reg::R0, Reg::Sp, 4); // supervisor mode: reads sp_svc
        mrs = a.here();
        a.mrs(Reg::R1, SysReg::SpUsr); // a read of sp_usr
        a.msr(SysReg::SpUsr, Reg::R0); // overwritten afterwards
    });
    t.last_read(RF, 14 * 32, use_sp);
    t.last_read(RF, 13 * 32 + 7, mrs);
}

#[test]
fn fp_operand_reads_stamp_including_the_accumulator() {
    let (mut mla, mut st, mut to_core) = (0, 0, 0);
    let t = traced(|a| {
        a.mov_imm(Reg::R1, 3);
        a.mov32(Reg::R2, DATA);
        a.vcvt_from_int(s(1), Reg::R1); // writes s1
        a.vmov(s(0), s(1));
        mla = a.here();
        a.vmla(s(0), s(1), s(1)); // reads s1 and the accumulator s0
        st = a.here();
        a.vstr(s(1), Reg::R2, 0); // reads s1's raw bits
        to_core = a.here();
        a.vmov_to_core(Reg::R0, s(2)); // reads s2's raw bits
        a.vmov_from_core(s(0), Reg::R1); // overwrites
        a.vldr(s(1), Reg::R2, 0); // overwrites
    });
    t.last_read(RF, 16 * 32, mla);
    t.last_read(RF, 17 * 32 + 9, st);
    t.last_read(RF, 18 * 32 + 31, to_core);
    t.never_read(RF, 19 * 32);
}

#[test]
fn a_cache_hit_stamps_the_line_and_a_refill_does_not() {
    let (mut second, mut other) = (0, 0);
    let t = traced(|a| {
        a.mov32(Reg::R2, DATA);
        a.ldr(Reg::R0, Reg::R2, 0); // miss: both levels are filled
        second = a.here();
        a.ldr(Reg::R1, Reg::R2, 4); // hit: the L1D line's bytes are read
        other = a.here();
        a.ldr(Reg::R3, Reg::R2, 64); // another line of another set
    });
    t.last_read(
        Component::L1D,
        t.line_bit(Component::L1D, DATA) + 40,
        second,
    );
    // The refill read the L2 line it had just written: no stale cell.
    t.never_read(Component::L2, t.line_bit(Component::L2, DATA));
    // A line that was filled and never hit was never read ...
    let cold = t.line_bit(Component::L1D, DATA + 64);
    t.never_read(Component::L1D, cold);
    // ... but its set was probed: the valid bits of all its ways. Its tag
    // and dirty bit were cells of an invalid line until that probe's
    // refill, which nothing reads.
    let per = t.sys.mem.l1d.bits_per_line();
    t.last_read(Component::L1D, cold + per - 2, other);
    let start = t.step_of[&other];
    for bit in [cold + per - 1, cold + per - 3] {
        assert_eq!(
            t.horizon.dead_at(Component::L1D, bit, start),
            Some(DeadCell::Invalid)
        );
    }
}

#[test]
fn write_backs_and_refills_from_l2_read_the_lines_they_move() {
    // Five lines of one L1D set (4 ways, 8 KB apart); the first is dirty.
    let (mut evict, mut reload) = (0, 0);
    let t = traced(|a| {
        a.mov32(Reg::R2, DATA);
        a.mov_imm(Reg::R0, 0xAB);
        a.str(Reg::R0, Reg::R2, 0);
        for way in 1..4u32 {
            a.mov32(Reg::R3, DATA + way * 0x2000);
            a.ldr(Reg::R1, Reg::R3, 0);
        }
        a.mov32(Reg::R3, DATA + 4 * 0x2000);
        evict = a.here();
        a.ldr(Reg::R1, Reg::R3, 0); // evicts the dirty line: write-back
        a.mov32(Reg::R3, DATA);
        reload = a.here();
        a.ldr(Reg::R1, Reg::R3, 0); // L1D miss, L2 hit
    });
    assert_eq!(t.sys.cpu.regs.get(Reg::R1, sea_microarch::Mode::Svc), 0xAB);
    // The L2 copy was rewritten by the write-back, then read by the refill.
    t.last_read(Component::L2, t.line_bit(Component::L2, DATA) + 3, reload);
    // The way the dirty line sat in was read out by the evicting step;
    // the line that replaced it there was never read again.
    let l1d = &t.sys.mem.l1d;
    let way = u64::from(l1d.find_line(DATA + 4 * 0x2000).unwrap());
    t.last_read(Component::L1D, way * l1d.bits_per_line(), evict);
}

#[test]
fn a_tlb_lookup_stamps_the_entries_its_scan_reaches() {
    let (mut third, mut again) = (0, 0);
    let t = traced(|a| {
        a.mov32(Reg::R2, DATA);
        a.ldr(Reg::R0, Reg::R2, 0); // DTLB slot 0
        a.mov32(Reg::R3, DATA + 0x1000);
        a.ldr(Reg::R0, Reg::R3, 0); // slot 1
        a.mov32(Reg::R4, DATA + 0x2000);
        third = a.here();
        a.ldr(Reg::R0, Reg::R4, 0); // slot 2: a miss scans every slot
        again = a.here();
        a.ldr(Reg::R0, Reg::R3, 4); // hits slot 1: scans slots 0 and 1
    });
    let dtlb = Component::DTlb;
    // PPN and permissions: only the entry that hit.
    t.last_read(dtlb, 64 + 5, again);
    t.last_read(dtlb, 64 + 42, again);
    t.never_read(dtlb, 2 * 64 + 5);
    // VPN and valid bit: every slot up to the hit; later slots were last
    // scanned by the last miss.
    t.last_read(dtlb, 25, again);
    t.last_read(dtlb, 64 + 40, again);
    t.last_read(dtlb, 2 * 64 + 40, third);
    t.last_read(dtlb, 63 * 64 + 40, third);
    // Slot 2's VPN was scanned by that miss too, but the slot was invalid
    // until the insert that followed it.
    assert_eq!(
        t.horizon.dead_at(dtlb, 2 * 64 + 25, t.step_of[&third]),
        Some(DeadCell::Invalid)
    );
    // Unimplemented cells have no reader.
    t.never_read(dtlb, 64 + 44);
    t.never_read(dtlb, 63);
    // The code page sits in ITLB slot 0 and is looked up by every fetch.
    assert!(t
        .horizon
        .reads_from(Component::ITlb, 3, t.step_of[&again] + 1));
}

#[test]
fn a_byte_no_read_consumes_is_dead_in_a_line_read_again() {
    let (mut second, mut third) = (0, 0);
    let t = traced(|a| {
        a.mov32(Reg::R2, DATA);
        a.ldr(Reg::R0, Reg::R2, 0); // fills the line, consumes bytes 0–3
        second = a.here();
        a.ldr(Reg::R1, Reg::R2, 0); // hits the line, consumes bytes 0–3
        third = a.here();
        a.ldr(Reg::R1, Reg::R2, 8); // hits the line, consumes bytes 8–11
    });
    let l1d = Component::L1D;
    let line = t.line_bit(l1d, DATA);
    let at = t.step_of[&second];
    // The line is hit again, so its granule is live; byte 1 is consumed
    // again, byte 5 never is, and byte 9 only by the third load.
    assert!(t.horizon.reads_from(l1d, line + 8 + 3, at));
    assert_eq!(
        t.horizon.dead_at(l1d, line + 5 * 8, at),
        Some(DeadCell::Unconsumed)
    );
    t.last_read(l1d, line + 9 * 8, third);
    // Tag and state cells are not bytes: the set stamp alone decides.
    let per = t.sys.mem.l1d.bits_per_line();
    assert!(t.horizon.reads_from(l1d, line + per - 1, at));
}

#[test]
fn fetches_and_walks_consume_the_bytes_they_read() {
    let mut second = 0;
    let t = traced(|a| {
        a.mov32(Reg::R2, DATA);
        a.ldr(Reg::R0, Reg::R2, 0); // walks: PTE for DATA's page
        a.mov32(Reg::R3, DATA + 0x1000);
        second = a.here();
        a.ldr(Reg::R0, Reg::R3, 0); // walks: the next PTE, same L2 line
        a.mov_imm(Reg::R4, 1);
    });
    let l2 = Component::L2;
    let at = t.step_of[&second];
    // DATA lies in the fourth MiB, page 0; the two PTEs are adjacent words
    // of one L2 line, which the second walk hits. Only its own PTE is read.
    let pte = L2_POOL + 3 * 0x400;
    let line = t.line_bit(l2, pte);
    t.last_read(l2, line + 4 * 8, second);
    assert_eq!(t.horizon.dead_at(l2, line, at), Some(DeadCell::Unconsumed));
    // The first code line holds the whole program up to the last two
    // instructions and is hit by every fetch from it: the second load's
    // word is fetched at `at`, the first instruction's never again.
    let l1i = Component::L1I;
    let cache = &t.sys.mem.l1i;
    let code = u64::from(cache.find_line(sea_isa::TEXT_BASE).unwrap()) * cache.bits_per_line();
    assert!(t.horizon.reads_from(l1i, code + u64::from(second) * 8, at));
    assert_eq!(t.horizon.dead_at(l1i, code, at), Some(DeadCell::Unconsumed));
}

#[test]
fn the_fill_ledger_follows_fills_and_flushes() {
    let (mut flush, mut reload) = (0, 0);
    let t = traced(|a| {
        a.mov32(Reg::R2, DATA);
        a.mov_imm(Reg::R5, 3);
        a.ldr(Reg::R0, Reg::R2, 0);
        flush = a.here();
        a.msr(SysReg::CacheOp, Reg::R5); // clean-invalidate + TLB flush
        reload = a.here();
        a.ldr(Reg::R0, Reg::R2, 0);
    });
    let (l1d, dtlb) = (Component::L1D, Component::DTlb);
    let cache = &t.sys.mem.l1d;
    let idx = cache.find_line(DATA).unwrap();
    let tag = u64::from(idx) * cache.bits_per_line() + 8 * u64::from(cache.line_bytes());
    let (before, filled, flushed) = (0, t.step_of[&flush], t.step_of[&reload]);
    let base = Some(DATA & !(cache.line_bytes() - 1));
    assert_eq!(t.horizon.line_at(l1d, idx, before), None);
    assert_eq!(t.horizon.line_at(l1d, idx, filled), base);
    assert_eq!(t.horizon.line_at(l1d, idx, flushed), None);
    assert_eq!(t.horizon.line_at(l1d, idx, flushed + 1), base);
    // An invalid line's tag is dead, though its set is probed again; its
    // valid bit is not. The site says what a flip there would report.
    assert_eq!(
        t.horizon.dead_at(l1d, tag, flushed),
        Some(DeadCell::Invalid)
    );
    assert!(t
        .horizon
        .reads_from(l1d, tag + u64::from(cache.tag_bits()), flushed));
    let site = t.horizon.site_at(l1d, tag, flushed);
    assert_eq!((site.array, site.was_valid), (ArrayKind::Tag, false));
    assert!(t.horizon.site_at(l1d, tag, filled).was_valid);
    // DATA's translation sat in a DTLB slot until the flush.
    let slot = 64
        * (0..64)
            .find(|&s| t.horizon.site_at(dtlb, 64 * s, filled).was_valid)
            .unwrap();
    assert!(!t.horizon.site_at(dtlb, slot, flushed).was_valid);
    // Its VPN is scanned by the reload's miss, but the entry is invalid.
    assert_eq!(
        t.horizon.dead_at(dtlb, slot + 25, flushed),
        Some(DeadCell::Invalid)
    );
    assert!(t.horizon.site_at(dtlb, slot, flushed + 1).was_valid);
}

#[test]
fn clean_invalidate_leaves_every_line_invalid_in_the_ledger() {
    let mut after = 0;
    let t = traced(|a| {
        a.mov32(Reg::R2, DATA);
        a.mov_imm(Reg::R0, 0x5A);
        a.str(Reg::R0, Reg::R2, 0);
        // Eight lines of DATA's L2 set (64 KiB apart, so of its L1D set
        // too) push DATA out of L2; touching DATA after each keeps it in
        // L1D, dirty.
        for k in 1..=8u32 {
            a.mov32(Reg::R3, DATA + k * 0x1_0000);
            a.ldr(Reg::R1, Reg::R3, 0);
            a.ldr(Reg::R1, Reg::R2, 0);
        }
        a.mov_imm(Reg::R5, 1);
        // The spill misses in L2 and fills a line there before the
        // whole hierarchy is invalidated.
        a.msr(SysReg::CacheOp, Reg::R5);
        after = a.here();
        a.mov_imm(Reg::R5, 0);
    });
    let at = t.step_of[&after];
    for (c, cache) in [
        (Component::L1I, &t.sys.mem.l1i),
        (Component::L1D, &t.sys.mem.l1d),
        (Component::L2, &t.sys.mem.l2),
    ] {
        for line in 0..cache.lines() {
            assert_eq!(t.horizon.line_at(c, line, at), None, "{c:?} line {line}");
        }
    }
}

#[test]
fn a_strike_inside_the_final_step_is_never_called_dead() {
    let t = traced(|a| {
        a.mov_imm(Reg::R1, 7);
    });
    let last = *t.step_of.values().max().unwrap();
    // r9 is never read: dead at every boundary the run still crosses ...
    assert!(!t.horizon.reads_from(RF, 9 * 32, last));
    // ... but past the start of the final step the horizon knows nothing.
    assert!(t.horizon.reads_from(RF, 9 * 32, last + 1));
}

#[test]
fn a_cloned_machine_carries_no_recorder() {
    let mut sys = System::new(MachineConfig::cortex_a9(), NullDevice);
    sys.horizon_attach();
    let mut clone = sys.clone();
    assert!(clone.horizon_take().is_none());
    assert!(sys.horizon_take().is_some());
    assert!(sys.horizon_take().is_none(), "taking detaches");
    // The same slot serves the profilers, which record the horizon too.
    sys.profile_attach();
    assert!(sys.clone().profile_take().is_none());
    assert!(
        sys.horizon_take().is_some(),
        "a profiler records the horizon"
    );
    assert!(sys.profile_take().is_none(), "taking the horizon detaches");
}
