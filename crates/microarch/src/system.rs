//! The full-system model: core + MMU + cache hierarchy + device block.

use sea_isa::{
    decode, Cond, DpOp, FpArithOp, FpUnaryOp, Insn, MemOffset, MemSize, MulOp, Operand2, Shift,
    SysReg,
};

use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::exception::{AbortCause, Exception, VECTOR_BASE};
use crate::fastpath::{FastPath, FastPathConfig, FastPathStats};
use crate::fault::Component;
use crate::horizon::ReadHorizon;
use crate::mem::{Device, DEVICE_BASE};
use crate::memsys::MemSystem;
use crate::mmu;
use crate::profiler::{sample_counters, MemProfiler, Observers, SysProfiler};
use crate::provenance::FaultProbe;
use crate::regfile::{Cpsr, Mode, RegFile};
use crate::tlb::{Tlb, TlbEntry};
use sea_profile::ProfileData;

/// Monomorphization selector for the pipeline stages shared by the
/// execution tiers. One generic body compiles into two builds:
///
/// * [`tier::REF`] — the reference build: profiler and trace-ring
///   branches live, no memoization;
/// * [`tier::FAST`] — the fast-path build: µop cache, translation
///   latches and MRU line hits, no profiler branches (PR 5).
///
/// `u8` because stable const generics cannot take a custom enum; the
/// constants are the closed set of values ever instantiated.
pub(crate) mod tier {
    /// Reference build (profilers + trace ring, no memoization).
    pub const REF: u8 = 0;
    /// Fast-path build (µop cache + latches, PR 5).
    pub const FAST: u8 = 1;
}

/// Result of one [`System::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// An instruction retired (or an exception was vectored).
    Executed,
    /// A `HALT` retired in supervisor mode: the machine is off.
    Halted,
    /// The core could not even enter its exception vector (the vector page
    /// faults): architecturally locked up. The board's watchdog will call
    /// this a system crash.
    LockedUp,
}

/// The argument of [`System::warp_enable`]; it configures nothing.
///
/// Exists only for the `microarch.warp_msteps_per_s` probe of
/// `sea-bench-layers`, which still names it; it goes with ROADMAP item 2
/// step 0.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WarpConfig {}

/// The processor core's architectural and microarchitectural state.
#[derive(Clone, Debug)]
pub struct Cpu {
    /// Integer + FP register files.
    pub regs: RegFile,
    /// Status register.
    pub cpsr: Cpsr,
    /// Program counter.
    pub pc: u32,
    /// Saved status register (supervisor bank).
    pub spsr: u32,
    /// Exception link register.
    pub elr: u32,
    /// Exception syndrome register.
    pub esr: u32,
    /// Fault address register.
    pub far: u32,
    /// Page-table base register.
    pub ttbr: u32,
    /// Performance counters.
    pub counters: Counters,
    /// Bimodal 2-bit branch predictor state.
    predictor: Vec<u8>,
    pred_mask: u32,
    /// Waiting-for-interrupt latch.
    wfi: bool,
    /// Optional PC trace ring buffer (crash diagnostics).
    trace: Option<TraceRing>,
}

/// A fixed-capacity ring of recently retired PCs.
#[derive(Clone, Debug)]
struct TraceRing {
    buf: Vec<u32>,
    head: usize,
    filled: bool,
}

impl TraceRing {
    fn push(&mut self, pc: u32) {
        self.buf[self.head] = pc;
        self.head = (self.head + 1) % self.buf.len();
        if self.head == 0 {
            self.filled = true;
        }
    }

    /// Linearized view of the ring, oldest first.
    fn trace_snapshot(&self) -> Vec<u32> {
        let mut out = Vec::new();
        if self.filled {
            out.extend_from_slice(&self.buf[self.head..]);
        }
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

impl Cpu {
    fn new(cfg: &MachineConfig) -> Cpu {
        Cpu {
            regs: RegFile::new(),
            cpsr: Cpsr::reset(),
            pc: 0,
            spsr: 0,
            elr: 0,
            esr: 0,
            far: 0,
            ttbr: 0,
            counters: Counters::default(),
            predictor: vec![1; cfg.predictor_entries as usize],
            pred_mask: cfg.predictor_entries - 1,
            wfi: false,
            trace: None,
        }
    }

    /// Enables PC tracing with a ring of `depth` entries. The trace is the
    /// standard crash-diagnosis view: where was the core in its final
    /// moments before a lock-up or panic.
    pub fn enable_trace(&mut self, depth: usize) {
        self.trace = Some(TraceRing {
            buf: vec![0; depth.max(1)],
            head: 0,
            filled: false,
        });
    }

    /// The recently retired PCs, oldest first. Empty when tracing is off.
    pub fn trace(&self) -> Vec<u32> {
        self.trace
            .as_ref()
            .map(TraceRing::trace_snapshot)
            .unwrap_or_default()
    }
}

enum Flow {
    Next,
    Jump(u32),
    Halt,
    Wfi,
}

#[derive(Clone, Copy)]
enum Access {
    Fetch,
    Read,
    Write,
}

/// A complete simulated machine.
#[derive(Clone, Debug)]
pub struct System<D> {
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// The core.
    pub cpu: Cpu,
    /// Cache hierarchy + DRAM.
    pub mem: MemSystem,
    /// Instruction TLB.
    pub itlb: Tlb,
    /// Data TLB.
    pub dtlb: Tlb,
    /// The memory-mapped device block.
    pub dev: D,
    /// Fault-provenance probe, armed by [`System::flip_bit_probed`].
    pub(crate) probe: Option<Box<FaultProbe>>,
    /// Observers of the register file and TLBs, attached by
    /// [`System::profile_attach`] or [`System::horizon_attach`]. `None`
    /// (the fast path) on every campaign machine; never cloned.
    pub(crate) prof: Observers<SysProfiler>,
    /// Execution fast path (µop cache + translation latches), armed by
    /// [`System::fastpath_enable`]. Pure memoization — not machine state,
    /// and dropping it is always equivalence-preserving.
    pub(crate) fast: Option<Box<FastPath>>,
}

impl<D: Device> System<D> {
    /// Builds a machine in reset state.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: MachineConfig, dev: D) -> System<D> {
        assert!(cfg.validate(), "invalid machine configuration");
        System {
            cpu: Cpu::new(&cfg),
            mem: MemSystem::new(&cfg),
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            dev,
            cfg,
            probe: None,
            prof: Observers::DETACHED,
            fast: None,
        }
    }

    // ----- the execution fast path ------------------------------------------

    /// Arms the execution fast path: a predecoded µop cache plus
    /// per-access-class translation latches (see [`crate::fastpath`]).
    /// Starts cold; replaces any previous fast-path state. The machine
    /// remains bit-for-bit equivalent to a slow-path machine — every
    /// counter, cache/TLB LRU decision, exception and fault outcome is
    /// identical — so campaigns may enable it freely.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn fastpath_enable(&mut self, cfg: FastPathConfig) {
        self.fast = Some(Box::new(FastPath::new(&cfg)));
    }

    /// Drops the fast path; subsequent steps take the reference path.
    pub fn fastpath_disable(&mut self) {
        self.fast = None;
    }

    /// Whether the fast path is armed.
    pub fn fastpath_enabled(&self) -> bool {
        self.fast.is_some()
    }

    /// Fast-path effectiveness counters; `None` when disarmed.
    pub fn fastpath_stats(&self) -> Option<FastPathStats> {
        self.fast.as_deref().map(FastPath::stats)
    }

    /// The fast-path state. Only reachable from `FAST` instantiations,
    /// whose dispatch guarantees the slot is occupied.
    fn fast_state(&mut self) -> &mut FastPath {
        self.fast
            .as_deref_mut()
            .expect("fast-path step without fast-path state")
    }

    /// Forgets the translation latches (if the fast path is armed). Called
    /// wherever the reference path invalidates or re-keys TLB state: TLB
    /// flushes, CPSR/mode changes, exception entry and return.
    fn fastpath_clear_latches(&mut self) {
        if let Some(f) = self.fast.as_deref_mut() {
            f.clear_latches();
        }
    }

    /// Full fast-path invalidation: µop cache and translation latches.
    /// Called by [`System::flip_bit`] so that no memoized state spans an
    /// injected fault — belt-and-braces on top of the self-invalidating
    /// `(paddr, raw_word)` µop key and the revalidated latches.
    pub(crate) fn fastpath_invalidate(&mut self) {
        if let Some(f) = self.fast.as_deref_mut() {
            f.invalidate_all();
        }
    }

    // ----- delegates kept for the layer probe ------------------------------

    /// Arms the execution fast path with its default configuration.
    ///
    /// Exists only for the `microarch.warp_msteps_per_s` probe of
    /// `sea-bench-layers`, which still names it; it goes with ROADMAP
    /// item 2 step 0. Call [`System::fastpath_enable`] instead.
    pub fn warp_enable(&mut self, _cfg: WarpConfig) {
        self.fastpath_enable(FastPathConfig::default());
    }

    /// Steps the machine up to `n` times and returns the first outcome
    /// that is not [`StepOutcome::Executed`] (or `Executed` once `n` steps
    /// have run).
    ///
    /// Exists only for the `microarch.warp_msteps_per_s` probe of
    /// `sea-bench-layers`, which still names it; it goes with ROADMAP
    /// item 2 step 0. Call [`System::step`] instead.
    pub fn run_warp(&mut self, n: u64) -> StepOutcome {
        for _ in 0..n {
            let out = self.step();
            if out != StepOutcome::Executed {
                return out;
            }
        }
        StepOutcome::Executed
    }

    // ----- observers -------------------------------------------------------

    fn observers_attach(&mut self, pc: bool) {
        *self.prof = Some(Box::new(SysProfiler::new(&self.itlb, &self.dtlb, pc)));
        *self.mem.prof = Some(Box::new(MemProfiler::new(
            &self.mem.l1i,
            &self.mem.l1d,
            &self.mem.l2,
            self.cfg.mem_bytes,
        )));
    }

    /// Attach the read-horizon recorder and the per-PC sampler to this
    /// machine (golden runs only), replacing any observers already
    /// attached. Detach with [`System::profile_take`], or with
    /// [`System::horizon_take`] to keep the horizon itself.
    pub fn profile_attach(&mut self) {
        self.observers_attach(true);
    }

    /// Detach the profilers and fold them into a [`ProfileData`]: the
    /// per-PC profile plus one liveness report per structure
    /// ([`ReadHorizon::report`]), in the paper's component order (RF, L1I$,
    /// L1D$, L2$, ITLB, DTLB). Returns `None` when no profiler was
    /// attached.
    pub fn profile_take(&mut self) -> Option<ProfileData> {
        let pc = self.prof.as_deref_mut()?.pc.take()?.finish();
        let horizon = self.horizon_take()?;
        Some(ProfileData {
            total_cycles: horizon.end,
            instructions: self.cpu.counters.instructions,
            pc,
            structures: Component::ALL.map(|c| horizon.report(c)).to_vec(),
        })
    }

    /// Attach the read-horizon recorder (see [`ReadHorizon`]) to this
    /// machine, replacing any observers already attached. Attach before
    /// the first step of a fault-free run and detach with
    /// [`System::horizon_take`] after its last. The recorder forces the
    /// reference tier and costs unobserved machines nothing.
    pub fn horizon_attach(&mut self) {
        self.observers_attach(false);
    }

    /// Detach the recorder (and the per-PC sampler, if one was attached)
    /// and seal what it saw into a [`ReadHorizon`]. Returns `None` when no
    /// recorder was attached.
    pub fn horizon_take(&mut self) -> Option<ReadHorizon> {
        let sysp = *self.prof.take()?;
        let memp = *self.mem.prof.take()?;
        Some(ReadHorizon {
            regs: sysp.regs,
            l1i: memp.l1i,
            l1d: memp.l1d,
            l2: memp.l2,
            itlb: sysp.itlb,
            dtlb: sysp.dtlb,
            bytes: memp.bytes,
            last_step: sysp.now,
            end: self.cpu.counters.cycles,
        })
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cpu.counters.cycles
    }

    /// FNV-1a fingerprint of the architectural core state: PC, status and
    /// fault registers, and the progress counters. Two machines stopped in
    /// the same state fingerprint identically, so a deterministic replay of
    /// a quarantined run can be checked against the original post-mortem
    /// without storing the whole machine.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        let cpu = &self.cpu;
        mix(cpu.pc as u64);
        let flags = (cpu.cpsr.n as u64)
            | (cpu.cpsr.z as u64) << 1
            | (cpu.cpsr.c as u64) << 2
            | (cpu.cpsr.v as u64) << 3
            | (cpu.cpsr.irq_off as u64) << 4
            | (cpu.cpsr.mode as u64) << 5;
        mix(flags);
        mix(cpu.spsr as u64);
        mix(cpu.elr as u64);
        mix(cpu.esr as u64);
        mix(cpu.far as u64);
        mix(cpu.ttbr as u64);
        mix(cpu.counters.cycles);
        mix(cpu.counters.instructions);
        h
    }

    /// Extended fingerprint: everything [`System::state_fingerprint`]
    /// covers, plus every architectural register word and a valid-line
    /// summary of each cache and TLB. Where the base fingerprint certifies
    /// "the core stopped in the same place", this one also certifies the
    /// register contents and *which* cache lines and TLB entries are
    /// resident — the bar the checkpoint/restore tests hold two runs of the
    /// same instruction stream to.
    ///
    /// It is not a witness that two machines will behave alike from here
    /// on: it omits cache data and dirty bits, LRU ranks and stamps, DRAM,
    /// the branch predictor and the device block. Use
    /// [`System::converges_with`] for that.
    pub fn state_fingerprint_deep(&self) -> u64 {
        let mut h = self.state_fingerprint();
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for w in self.cpu.regs.words() {
            mix(w as u64);
        }
        for cache in [&self.mem.l1i, &self.mem.l1d, &self.mem.l2] {
            mix(cache.valid_lines() as u64);
            for addr in cache.valid_line_addrs() {
                mix(addr as u64);
            }
        }
        for tlb in [&self.itlb, &self.dtlb] {
            mix(tlb.valid_entries() as u64);
            for word in tlb.valid_entry_words() {
                mix(word);
            }
        }
        h
    }

    /// Live-state equality, the witness behind the reconvergence cut:
    /// `true` only if every cell that can influence this machine's future
    /// agrees with `golden`, so — the simulator being deterministic — both
    /// machines run the same instruction stream to the same terminal
    /// state from here on.
    ///
    /// Compared: cycle and instruction counts, PC, status and fault
    /// registers, the WFI latch, both register files, both TLBs, the
    /// branch predictor, the device block, the cache hierarchy and DRAM,
    /// and the configuration. Cheapest first, so a run that is still
    /// diverged is rejected by its cycle count or a register in
    /// nanoseconds.
    ///
    /// Ignored, because nothing reads them back into execution: tag, data
    /// and dirty bit of invalid cache lines ([`Cache::converges_with`]);
    /// invalid TLB entries and TLB bits `[63:44]`
    /// ([`Tlb::converges_with`]); the performance counters other than
    /// cycles and instructions, and the TLB hit/miss statistics (only
    /// `MRS Cycles` reads a counter); the PC trace ring, the provenance
    /// probe and watches, the profilers; and the fast-path memoization,
    /// which is bit-transparent by its own contract.
    ///
    /// [`Cache::converges_with`]: crate::Cache::converges_with
    pub fn converges_with(&self, golden: &System<D>) -> bool
    where
        D: PartialEq,
    {
        let (a, b) = (&self.cpu, &golden.cpu);
        a.counters.cycles == b.counters.cycles
            && a.counters.instructions == b.counters.instructions
            && a.pc == b.pc
            && a.cpsr == b.cpsr
            && (a.spsr, a.elr, a.esr, a.far, a.ttbr) == (b.spsr, b.elr, b.esr, b.far, b.ttbr)
            && a.wfi == b.wfi
            && a.regs.words() == b.regs.words()
            && self.itlb.converges_with(&golden.itlb)
            && self.dtlb.converges_with(&golden.dtlb)
            && self.cfg == golden.cfg
            && self.dev == golden.dev
            && a.predictor == b.predictor
            && self.mem.converges_with(&golden.mem)
    }

    // ----- translation ------------------------------------------------------

    fn translate<const MODE: u8>(
        &mut self,
        vaddr: u32,
        access: Access,
    ) -> Result<(u32, u32), Exception> {
        let vpn = vaddr >> mmu::PAGE_SHIFT;
        let is_fetch = matches!(access, Access::Fetch);
        if MODE == tier::FAST {
            // Same-page streak: revalidate the last (vpn, slot) latched for
            // this access class against the live TLB. A hit replays exactly
            // the bookkeeping a scan hit would (see Tlb::hit_latched); a
            // stale latch falls through to the reference scan, untouched.
            if let Some((lvpn, slot)) = self.fast_state().latch_get(access as usize) {
                if lvpn == vpn {
                    let tlb = if is_fetch {
                        &mut self.itlb
                    } else {
                        &mut self.dtlb
                    };
                    if let Some(entry) = tlb.hit_latched(slot, vpn) {
                        self.fast_state().latch_hits += 1;
                        return Self::check_translation(
                            vaddr,
                            access,
                            self.cpu.cpsr.mode,
                            entry,
                            0,
                        );
                    }
                }
            }
        }
        let hit = if is_fetch {
            self.itlb.lookup_slot(vpn)
        } else {
            self.dtlb.lookup_slot(vpn)
        };
        if MODE == tier::REF {
            if let Some(p) = self.prof.as_deref_mut() {
                let tlb = if is_fetch { &mut p.itlb } else { &mut p.dtlb };
                match hit {
                    Some((slot, _)) => tlb.hit(slot, p.now),
                    None => tlb.miss(p.now),
                }
            }
        }
        let mut lat = 0;
        let (slot, entry) = match hit {
            Some(hit) => hit,
            None => {
                if is_fetch {
                    self.cpu.counters.itlb_miss += 1;
                } else {
                    self.cpu.counters.dtlb_miss += 1;
                }
                let e = self.walk(vaddr, access)?;
                lat += 2 * self.cfg.lat.walk_step;
                let slot = if is_fetch {
                    self.itlb.insert_slot(e)
                } else {
                    self.dtlb.insert_slot(e)
                };
                if MODE == tier::REF {
                    if let Some(p) = self.prof.as_deref_mut() {
                        if is_fetch {
                            p.itlb.fill(slot, p.now);
                        } else {
                            p.dtlb.fill(slot, p.now);
                        }
                    }
                }
                (slot, e)
            }
        };
        if MODE == tier::FAST {
            self.fast_state().latch_set(access as usize, vpn, slot);
        }
        Self::check_translation(vaddr, access, self.cpu.cpsr.mode, entry, lat)
    }

    /// Permission checks + physical-address composition, shared by the
    /// latched and scanned translation paths (a TLB hit with corrupted
    /// permission bits takes this path too, exactly like hardware).
    fn check_translation(
        vaddr: u32,
        access: Access,
        mode: Mode,
        entry: TlbEntry,
        lat: u32,
    ) -> Result<(u32, u32), Exception> {
        let user = mode == Mode::User;
        let abort = |cause| match access {
            Access::Fetch => Exception::PrefetchAbort { vaddr, cause },
            _ => Exception::DataAbort { vaddr, cause },
        };
        if user && !entry.user() {
            return Err(abort(AbortCause::Permission));
        }
        match access {
            Access::Fetch if !entry.executable() => return Err(abort(AbortCause::Permission)),
            Access::Write if !entry.writable() => return Err(abort(AbortCause::Permission)),
            _ => {}
        }
        let paddr = (entry.ppn() << mmu::PAGE_SHIFT) | (vaddr & (mmu::PAGE_BYTES - 1));
        Ok((paddr, lat))
    }

    /// Hardware page-table walk.
    fn walk(&mut self, vaddr: u32, access: Access) -> Result<TlbEntry, Exception> {
        let abort = |cause| match access {
            Access::Fetch => Exception::PrefetchAbort { vaddr, cause },
            _ => Exception::DataAbort { vaddr, cause },
        };
        let mem_size = self.mem.phys.size();
        let l1a = mmu::l1_entry_addr(self.cpu.ttbr, vaddr);
        if l1a + 4 > mem_size {
            return Err(abort(AbortCause::Translation));
        }
        let (l1e, lat1) = self.mem.walk_read(l1a, &mut self.cpu.counters);
        self.cpu.counters.cycles += lat1 as u64;
        if l1e & mmu::PTE_VALID == 0 {
            return Err(abort(AbortCause::Translation));
        }
        let l2a = mmu::l2_entry_addr(l1e, vaddr);
        if l2a + 4 > mem_size {
            return Err(abort(AbortCause::Translation));
        }
        let (raw, lat2) = self.mem.walk_read(l2a, &mut self.cpu.counters);
        self.cpu.counters.cycles += lat2 as u64;
        let pte = mmu::decode_pte(raw).ok_or_else(|| abort(AbortCause::Translation))?;
        Ok(TlbEntry::new(
            vaddr >> mmu::PAGE_SHIFT,
            pte.ppn,
            pte.write,
            pte.user,
            pte.exec,
        ))
    }

    fn check_phys_range(
        &self,
        vaddr: u32,
        paddr: u32,
        bytes: u32,
        access: Access,
    ) -> Result<bool, Exception> {
        // Returns Ok(true) when the access targets the device window.
        if paddr >= DEVICE_BASE {
            if matches!(access, Access::Fetch) {
                return Err(Exception::PrefetchAbort {
                    vaddr,
                    cause: AbortCause::OutOfRange,
                });
            }
            return Ok(true);
        }
        if paddr
            .checked_add(bytes)
            .is_none_or(|end| end > self.mem.phys.size())
        {
            let cause = AbortCause::OutOfRange;
            return Err(match access {
                Access::Fetch => Exception::PrefetchAbort { vaddr, cause },
                _ => Exception::DataAbort { vaddr, cause },
            });
        }
        Ok(false)
    }

    fn read_mem<const MODE: u8>(&mut self, vaddr: u32, size: MemSize) -> Result<u32, Exception> {
        if !vaddr.is_multiple_of(size.bytes()) {
            return Err(Exception::DataAbort {
                vaddr,
                cause: AbortCause::Alignment,
            });
        }
        let (paddr, lat) = self.translate::<MODE>(vaddr, Access::Read)?;
        self.cpu.counters.cycles += lat as u64;
        if self.check_phys_range(vaddr, paddr, size.bytes(), Access::Read)? {
            return Ok(self.dev.read(paddr - DEVICE_BASE, size));
        }
        if MODE == tier::FAST {
            let base = paddr & !(self.mem.l1d.line_bytes() - 1);
            if let Some(idx) = self.fast_state().data_line_get(base) {
                if let Some((v, lat)) =
                    self.mem
                        .read_data_mru(idx, paddr, size, &mut self.cpu.counters)
                {
                    self.fast_state().line_hits += 1;
                    self.cpu.counters.cycles += lat as u64;
                    return Ok(v);
                }
            }
        }
        let (v, lat) = self.mem.read_data(paddr, size, &mut self.cpu.counters);
        self.cpu.counters.cycles += lat as u64;
        if MODE == tier::FAST {
            self.latch_data_line(paddr);
        }
        Ok(v)
    }

    fn write_mem<const MODE: u8>(
        &mut self,
        vaddr: u32,
        size: MemSize,
        value: u32,
    ) -> Result<(), Exception> {
        if !vaddr.is_multiple_of(size.bytes()) {
            return Err(Exception::DataAbort {
                vaddr,
                cause: AbortCause::Alignment,
            });
        }
        let (paddr, lat) = self.translate::<MODE>(vaddr, Access::Write)?;
        self.cpu.counters.cycles += lat as u64;
        if self.check_phys_range(vaddr, paddr, size.bytes(), Access::Write)? {
            self.dev.write(paddr - DEVICE_BASE, size, value);
            return Ok(());
        }
        if MODE == tier::FAST {
            // Self-modifying code: a store into a predecoded word drops its
            // µop line. (The (paddr, word) key already guarantees the next
            // fetch re-decodes whatever it actually reads; this just frees
            // the slot.)
            self.fast_state().uop_flush_word(paddr);
            let base = paddr & !(self.mem.l1d.line_bytes() - 1);
            if let Some(idx) = self.fast_state().data_line_get(base) {
                if let Some(lat) =
                    self.mem
                        .write_data_mru(idx, paddr, size, value, &mut self.cpu.counters)
                {
                    self.fast_state().line_hits += 1;
                    self.cpu.counters.cycles += lat as u64;
                    return Ok(());
                }
            }
        }
        let lat = self
            .mem
            .write_data(paddr, size, value, &mut self.cpu.counters);
        self.cpu.counters.cycles += lat as u64;
        if MODE == tier::FAST {
            self.latch_data_line(paddr);
        }
        Ok(())
    }

    fn fetch_insn<const MODE: u8>(&mut self, vaddr: u32) -> Result<(u32, u32), Exception> {
        if !vaddr.is_multiple_of(4) {
            return Err(Exception::PrefetchAbort {
                vaddr,
                cause: AbortCause::Alignment,
            });
        }
        let (paddr, lat) = self.translate::<MODE>(vaddr, Access::Fetch)?;
        self.cpu.counters.cycles += lat as u64;
        self.check_phys_range(vaddr, paddr, 4, Access::Fetch)?;
        if MODE == tier::FAST {
            if let Some((base, idx)) = self.fast_state().fetch_line {
                if paddr & !(self.mem.l1i.line_bytes() - 1) == base {
                    if let Some((w, lat)) = self.mem.fetch_mru(idx, paddr, &mut self.cpu.counters) {
                        self.fast_state().line_hits += 1;
                        self.cpu.counters.cycles += lat as u64;
                        return Ok((paddr, w));
                    }
                }
            }
        }
        let (w, lat) = self.mem.fetch(paddr, &mut self.cpu.counters);
        self.cpu.counters.cycles += lat as u64;
        if MODE == tier::FAST && self.mem.is_detailed() {
            // After a detailed fetch the line is resident; remember it so
            // the next same-line fetch skips the set scan.
            if let Some(idx) = self.mem.l1i.find_line(paddr) {
                let base = paddr & !(self.mem.l1i.line_bytes() - 1);
                self.fast_state().fetch_line = Some((base, idx));
            }
        }
        Ok((paddr, w))
    }

    /// Remembers the L1D line holding `paddr` (if the hierarchy is
    /// modeled) so the next same-line access can skip the set scan.
    fn latch_data_line(&mut self, paddr: u32) {
        if self.mem.is_detailed() {
            if let Some(idx) = self.mem.l1d.find_line(paddr) {
                let base = paddr & !(self.mem.l1d.line_bytes() - 1);
                self.fast_state().data_line_set(base, idx);
            }
        }
    }

    // ----- exception entry/exit ------------------------------------------------

    fn take_exception(&mut self, e: Exception, at_pc: u32) {
        self.cpu.spsr = self.cpu.cpsr.to_bits();
        self.cpu.elr = match e {
            Exception::Svc { .. } => at_pc.wrapping_add(4),
            _ => at_pc,
        };
        self.cpu.esr = e.esr();
        self.cpu.far = match e {
            Exception::PrefetchAbort { vaddr, .. } | Exception::DataAbort { vaddr, .. } => vaddr,
            _ => self.cpu.far,
        };
        self.cpu.cpsr.mode = Mode::Svc;
        self.cpu.cpsr.irq_off = true;
        self.cpu.pc = VECTOR_BASE + e.vector_offset();
        self.cpu.counters.cycles += 3; // pipeline flush on exception entry
        self.fastpath_clear_latches(); // mode change
    }

    // ----- operand helpers ----------------------------------------------------

    /// Evaluates op2, returning (value, shifter carry-out).
    ///
    /// Carry-out follows the ARM boundary semantics that [`Shift::apply`]
    /// implements for the result: LSL/LSR by exactly 32 carry out bit 0 /
    /// bit 31 respectively and by more than 32 carry out 0; ASR by 32 or
    /// more carries out the sign bit; ROR carries out bit 31 of the
    /// rotated result (which covers every non-zero amount, including
    /// multiples of 32).
    fn eval_op2<const MODE: u8>(&mut self, op2: Operand2) -> Result<(u32, bool), Exception> {
        match op2 {
            Operand2::Imm { .. } => Ok((op2.imm_value().unwrap(), self.cpu.cpsr.c)),
            Operand2::Reg(sr) => {
                let v = self.reg_read::<MODE>(sr.rm)?;
                let amount = sr.amount as u32;
                if amount == 0 {
                    return Ok((v, self.cpu.cpsr.c));
                }
                let out = sr.shift.apply(v, sr.amount);
                let carry = match sr.shift {
                    Shift::Lsl => amount <= 32 && (v >> (32 - amount)) & 1 == 1,
                    Shift::Lsr => amount <= 32 && (v >> (amount - 1)) & 1 == 1,
                    Shift::Asr => (v >> (amount - 1).min(31)) & 1 == 1,
                    Shift::Ror => (out >> 31) & 1 == 1,
                };
                Ok((out, carry))
            }
        }
    }

    /// Observer hook: register-file word `word` (flat
    /// [`RegFile::flip_bit`] layout) is read by the step in flight. Every
    /// register read of the step function goes through here or through an
    /// accessor below that does.
    #[inline]
    fn note_reg_read<const MODE: u8>(&mut self, word: usize) {
        if MODE == tier::REF {
            if let Some(p) = self.prof.as_deref_mut() {
                p.regs.read(word, p.now);
            }
        }
    }

    fn reg_read<const MODE: u8>(&mut self, r: sea_isa::Reg) -> Result<u32, Exception> {
        if r == sea_isa::Reg::Pc {
            // AR32 forbids pc as a data operand; a bit flip that turns a
            // register field into r15 therefore faults, like a corrupted
            // encoding on real hardware.
            return Err(Exception::Undefined { word: 0xFFFF });
        }
        if MODE == tier::REF {
            // Tested here too so the other tiers never compute the index.
            self.note_reg_read::<MODE>(RegFile::word_index(r, self.cpu.cpsr.mode));
        }
        Ok(self.cpu.regs.get(r, self.cpu.cpsr.mode))
    }

    fn reg_write(&mut self, r: sea_isa::Reg, v: u32) -> Result<(), Exception> {
        if r == sea_isa::Reg::Pc {
            return Err(Exception::Undefined { word: 0xFFFF });
        }
        self.cpu.regs.set(r, self.cpu.cpsr.mode, v);
        Ok(())
    }

    fn freg_read<const MODE: u8>(&mut self, r: sea_isa::FReg) -> f32 {
        self.note_reg_read::<MODE>(16 + r.index());
        self.cpu.regs.fget(r)
    }

    fn freg_read_bits<const MODE: u8>(&mut self, r: sea_isa::FReg) -> u32 {
        self.note_reg_read::<MODE>(16 + r.index());
        self.cpu.regs.fget_bits(r)
    }

    fn freg_write(&mut self, r: sea_isa::FReg, v: f32) {
        self.cpu.regs.fset(r, v);
    }

    fn freg_write_bits(&mut self, r: sea_isa::FReg, bits: u32) {
        self.cpu.regs.fset_bits(r, bits);
    }

    fn require_svc(&self, word: u32) -> Result<(), Exception> {
        if self.cpu.cpsr.mode != Mode::Svc {
            return Err(Exception::Undefined { word });
        }
        Ok(())
    }

    // ----- the step function ------------------------------------------------------

    /// Executes one instruction (or vectors one exception).
    ///
    /// Dispatches to one of two monomorphic instantiations of the same
    /// step function: the `FAST` build (µop cache + translation latches,
    /// no profiler or trace-ring branches) whenever the fast path is armed
    /// and neither a profiler nor a PC trace needs feeding, and the
    /// reference build otherwise. The provenance probe works in both — it
    /// is part of the fault model, not of observability.
    pub fn step(&mut self) -> StepOutcome {
        let pc = self.cpu.pc;
        let out = if self.fast.is_some() && self.prof.is_none() && self.cpu.trace.is_none() {
            self.step_exec::<{ tier::FAST }>()
        } else {
            self.step_ref()
        };
        // The profiler slot is `None` on campaign machines.
        if let Some(pcs) = self.prof.as_deref_mut().and_then(|p| p.pc.as_mut()) {
            pcs.step(pc, sample_counters(&self.cpu.counters));
        }
        if self.probe.is_some() {
            self.drain_probe();
        }
        out
    }

    /// One step on the reference tier. Kept out of line so that nothing an
    /// observer hook adds to this build can perturb the code generated for
    /// the fast tier, which [`System::step`] inlines.
    #[inline(never)]
    fn step_ref(&mut self) -> StepOutcome {
        // What the read horizon stamps this step's reads with. (Both
        // observer boxes are attached and taken together.)
        if let Some(p) = self.prof.as_deref_mut() {
            p.now = self.cpu.counters.cycles + 1;
            if let Some(m) = self.mem.prof.as_deref_mut() {
                m.now = p.now;
            }
        }
        self.step_exec::<{ tier::REF }>()
    }

    /// The interrupt stage, shared by both execution tiers: WFI idling
    /// and IRQ vectoring ahead of fetch. `Some` means the step is
    /// complete without fetching an instruction.
    fn stage_interrupt(&mut self) -> Option<StepOutcome> {
        let irq = {
            let now = self.cpu.counters.cycles;
            self.dev.poll_irq(now)
        };
        if self.cpu.wfi {
            if irq {
                self.cpu.wfi = false;
                // fall through to normal execution (the IRQ is taken below
                // if unmasked).
            } else {
                self.cpu.counters.cycles += 20;
                return Some(StepOutcome::Executed);
            }
        }
        if irq && !self.cpu.cpsr.irq_off {
            self.take_exception(Exception::Irq, self.cpu.pc);
            return Some(StepOutcome::Executed);
        }
        None
    }

    /// The issue stage, shared by both execution tiers: condition check
    /// (including the failed-conditional-branch predictor training the
    /// reference path performs) and execution of one decoded instruction.
    fn stage_issue<const MODE: u8>(&mut self, insn: Insn, pc: u32) -> Result<Flow, Exception> {
        let cpsr = self.cpu.cpsr;
        if !insn.cond().holds(cpsr.n, cpsr.z, cpsr.c, cpsr.v) {
            self.cpu.counters.cycles += 1;
            // Conditional branches whose condition fails still train the
            // predictor.
            if let Insn::Branch { .. } = insn {
                self.cpu.counters.branches += 1;
                self.predict_and_train(pc, false);
            }
            return Ok(Flow::Next);
        }
        self.execute::<MODE>(insn, pc)
    }

    /// The retire stage, shared by both execution tiers: commit the
    /// control-flow decision to the PC (and the WFI latch).
    fn stage_retire(&mut self, pc: u32, flow: Flow) -> StepOutcome {
        match flow {
            Flow::Next => {
                self.cpu.pc = pc.wrapping_add(4);
                StepOutcome::Executed
            }
            Flow::Jump(target) => {
                self.cpu.pc = target;
                StepOutcome::Executed
            }
            Flow::Halt => StepOutcome::Halted,
            Flow::Wfi => {
                self.cpu.wfi = true;
                self.cpu.pc = pc.wrapping_add(4);
                StepOutcome::Executed
            }
        }
    }

    fn step_exec<const MODE: u8>(&mut self) -> StepOutcome {
        if let Some(out) = self.stage_interrupt() {
            return out;
        }

        let pc = self.cpu.pc;
        if MODE == tier::REF {
            // The FAST dispatch guarantees the trace ring is absent.
            if let Some(t) = self.cpu.trace.as_mut() {
                t.push(pc);
            }
        }
        let (paddr, word) = match self.fetch_insn::<MODE>(pc) {
            Ok(pw) => pw,
            Err(e) => {
                if Self::in_vector_page(pc) {
                    return StepOutcome::LockedUp;
                }
                self.take_exception(e, pc);
                return StepOutcome::Executed;
            }
        };
        let decoded = if MODE == tier::FAST {
            self.uop_decode(paddr, word)
        } else {
            decode(word).ok()
        };
        let insn = match decoded {
            Some(i) => i,
            None => {
                self.take_exception(Exception::Undefined { word }, pc);
                return StepOutcome::Executed;
            }
        };
        self.cpu.counters.instructions += 1;

        match self.stage_issue::<MODE>(insn, pc) {
            Ok(flow) => self.stage_retire(pc, flow),
            Err(e) => {
                self.take_exception(e, pc);
                StepOutcome::Executed
            }
        }
    }

    /// Decode via the µop cache: a `(paddr, word)` hit skips the decoder
    /// outright; a miss decodes and caches the result. Decode *failures*
    /// are never cached, so `Undefined` always re-raises from the decoder
    /// itself, exactly like the reference path.
    fn uop_decode(&mut self, paddr: u32, word: u32) -> Option<Insn> {
        if let Some(i) = self.fast_state().uop_lookup(paddr, word) {
            return Some(i);
        }
        let i = decode(word).ok()?;
        self.fast_state().uop_insert(paddr, word, i);
        Some(i)
    }

    fn in_vector_page(pc: u32) -> bool {
        pc.wrapping_sub(VECTOR_BASE) < 0x20
    }

    fn predict_and_train(&mut self, pc: u32, taken: bool) {
        let idx = ((pc >> 2) & self.cpu.pred_mask) as usize;
        let ctr = self.cpu.predictor[idx];
        let predicted = ctr >= 2;
        if predicted != taken {
            self.cpu.counters.branch_misses += 1;
            self.cpu.counters.cycles += self.cfg.lat.branch_miss as u64;
        }
        self.cpu.predictor[idx] = if taken {
            (ctr + 1).min(3)
        } else {
            ctr.saturating_sub(1)
        };
    }

    #[allow(clippy::too_many_lines)]
    fn execute<const MODE: u8>(&mut self, insn: Insn, pc: u32) -> Result<Flow, Exception> {
        let lat = &self.cfg.lat;
        let (mul_lat, div_lat, fp_lat, fdiv_lat, fsqrt_lat) =
            (lat.mul, lat.div, lat.fp, lat.fdiv, lat.fsqrt);
        match insn {
            Insn::Dp {
                op, s, rd, rn, op2, ..
            } => {
                self.cpu.counters.cycles += 1;
                let (b, shifter_c) = self.eval_op2::<MODE>(op2)?;
                let a = if op.ignores_rn() {
                    0
                } else {
                    self.reg_read::<MODE>(rn)?
                };
                let c_in = self.cpu.cpsr.c;
                let (result, carry, overflow) = alu(op, a, b, c_in, shifter_c);
                if s {
                    self.cpu.cpsr.n = result & 0x8000_0000 != 0;
                    self.cpu.cpsr.z = result == 0;
                    self.cpu.cpsr.c = carry;
                    self.cpu.cpsr.v = overflow;
                }
                if !op.is_compare() {
                    self.reg_write(rd, result)?;
                }
                Ok(Flow::Next)
            }
            Insn::MovW { top, rd, imm, .. } => {
                self.cpu.counters.cycles += 1;
                let old = if top { self.reg_read::<MODE>(rd)? } else { 0 };
                let v = if top {
                    (old & 0xFFFF) | ((imm as u32) << 16)
                } else {
                    imm as u32
                };
                self.reg_write(rd, v)?;
                Ok(Flow::Next)
            }
            Insn::Mul {
                op,
                s,
                rd,
                rn,
                rm,
                ra,
                ..
            } => {
                let a = self.reg_read::<MODE>(rn)?;
                let b = self.reg_read::<MODE>(rm)?;
                let result = match op {
                    MulOp::Mul => {
                        self.cpu.counters.cycles += mul_lat as u64;
                        a.wrapping_mul(b)
                    }
                    MulOp::Mla => {
                        self.cpu.counters.cycles += mul_lat as u64;
                        a.wrapping_mul(b).wrapping_add(self.reg_read::<MODE>(ra)?)
                    }
                    MulOp::Umull => {
                        self.cpu.counters.cycles += mul_lat as u64 + 1;
                        let wide = a as u64 * b as u64;
                        self.reg_write(ra, (wide >> 32) as u32)?;
                        wide as u32
                    }
                    MulOp::Smull => {
                        self.cpu.counters.cycles += mul_lat as u64 + 1;
                        let wide = (a as i32 as i64 * b as i32 as i64) as u64;
                        self.reg_write(ra, (wide >> 32) as u32)?;
                        wide as u32
                    }
                    MulOp::Udiv => {
                        self.cpu.counters.cycles += div_lat as u64;
                        a.checked_div(b).unwrap_or(0)
                    }
                    MulOp::Sdiv => {
                        self.cpu.counters.cycles += div_lat as u64;
                        if b == 0 {
                            0
                        } else {
                            (a as i32).wrapping_div(b as i32) as u32
                        }
                    }
                    MulOp::Urem => {
                        self.cpu.counters.cycles += div_lat as u64;
                        a.checked_rem(b).unwrap_or(0)
                    }
                    MulOp::Srem => {
                        self.cpu.counters.cycles += div_lat as u64;
                        if b == 0 {
                            0
                        } else {
                            (a as i32).wrapping_rem(b as i32) as u32
                        }
                    }
                    MulOp::Lslv => {
                        self.cpu.counters.cycles += 1;
                        a << (b & 31)
                    }
                    MulOp::Lsrv => {
                        self.cpu.counters.cycles += 1;
                        a >> (b & 31)
                    }
                    MulOp::Asrv => {
                        self.cpu.counters.cycles += 1;
                        ((a as i32) >> (b & 31)) as u32
                    }
                    MulOp::Rorv => {
                        self.cpu.counters.cycles += 1;
                        a.rotate_right(b & 31)
                    }
                };
                if s {
                    self.cpu.cpsr.n = result & 0x8000_0000 != 0;
                    self.cpu.cpsr.z = result == 0;
                }
                self.reg_write(rd, result)?;
                Ok(Flow::Next)
            }
            Insn::Mem {
                load,
                size,
                rd,
                rn,
                offset,
                mode,
                ..
            } => {
                self.cpu.counters.cycles += 1;
                let base = self.reg_read::<MODE>(rn)?;
                let off = match offset {
                    MemOffset::Imm(i) => i as u32,
                    MemOffset::Reg { rm, shl } => self.reg_read::<MODE>(rm)? << shl,
                };
                let indexed = if mode.up {
                    base.wrapping_add(off)
                } else {
                    base.wrapping_sub(off)
                };
                let vaddr = if mode.pre { indexed } else { base };
                if load {
                    let pre = self.probe_data_touched();
                    let v = self.read_mem::<MODE>(vaddr, size)?;
                    if !pre && self.probe_data_touched() {
                        // This load consumed the corrupted cache line.
                        self.note_register_fill();
                    }
                    if mode.writeback {
                        self.reg_write(rn, indexed)?;
                    }
                    self.reg_write(rd, v)?; // load result wins over writeback
                } else {
                    let v = self.reg_read::<MODE>(rd)?;
                    self.write_mem::<MODE>(vaddr, size, v)?;
                    if mode.writeback {
                        self.reg_write(rn, indexed)?;
                    }
                }
                Ok(Flow::Next)
            }
            Insn::MemMulti {
                load,
                rn,
                writeback,
                up,
                before,
                regs,
                ..
            } => {
                if regs & 0x8000 != 0 {
                    // pc in a register list is not architecturally valid.
                    return Err(Exception::Undefined { word: 0x8000 });
                }
                let n = regs.count_ones();
                let base = self.reg_read::<MODE>(rn)?;
                let lowest = match (up, before) {
                    (true, false) => base,                                      // ia
                    (true, true) => base.wrapping_add(4),                       // ib
                    (false, false) => base.wrapping_sub(4 * n).wrapping_add(4), // da
                    (false, true) => base.wrapping_sub(4 * n),                  // db
                };
                let final_base = if up {
                    base.wrapping_add(4 * n)
                } else {
                    base.wrapping_sub(4 * n)
                };
                let mut addr = lowest;
                for i in 0..15 {
                    if regs & (1 << i) == 0 {
                        continue;
                    }
                    self.cpu.counters.cycles += 1;
                    let r = sea_isa::Reg::from_index(i);
                    if load {
                        let v = self.read_mem::<MODE>(addr, MemSize::Word)?;
                        self.reg_write(r, v)?;
                    } else {
                        let v = self.reg_read::<MODE>(r)?;
                        self.write_mem::<MODE>(addr, MemSize::Word, v)?;
                    }
                    addr = addr.wrapping_add(4);
                }
                if writeback {
                    self.reg_write(rn, final_base)?;
                }
                Ok(Flow::Next)
            }
            Insn::Branch { link, offset, .. } => {
                self.cpu.counters.cycles += 1;
                self.cpu.counters.branches += 1;
                if insn.cond() != Cond::Al {
                    self.predict_and_train(pc, true);
                }
                if link {
                    self.cpu
                        .regs
                        .set(sea_isa::Reg::Lr, self.cpu.cpsr.mode, pc.wrapping_add(4));
                }
                Ok(Flow::Jump(
                    pc.wrapping_add(4).wrapping_add((offset as u32) << 2),
                ))
            }
            Insn::Bx { rm, .. } => {
                self.cpu.counters.cycles += 1 + self.cfg.lat.branch_miss as u64 / 2;
                self.cpu.counters.branches += 1;
                let target = self.reg_read::<MODE>(rm)? & !1;
                Ok(Flow::Jump(target))
            }
            Insn::FpArith { op, sd, sn, sm, .. } => {
                let a = self.freg_read::<MODE>(sn);
                let b = self.freg_read::<MODE>(sm);
                let (v, cyc) = match op {
                    FpArithOp::Add => (a + b, fp_lat),
                    FpArithOp::Sub => (a - b, fp_lat),
                    FpArithOp::Mul => (a * b, fp_lat),
                    FpArithOp::Div => (a / b, fdiv_lat),
                    FpArithOp::Mac => (self.freg_read::<MODE>(sd) + a * b, fp_lat + 1),
                    FpArithOp::Min => (a.min(b), fp_lat),
                    FpArithOp::Max => (a.max(b), fp_lat),
                };
                self.cpu.counters.cycles += cyc as u64;
                self.freg_write(sd, v);
                Ok(Flow::Next)
            }
            Insn::FpUnary { op, sd, sm, .. } => {
                let a = self.freg_read::<MODE>(sm);
                let (v, cyc) = match op {
                    FpUnaryOp::Abs => (a.abs(), fp_lat),
                    FpUnaryOp::Neg => (-a, fp_lat),
                    FpUnaryOp::Sqrt => (a.sqrt(), fsqrt_lat),
                    FpUnaryOp::Mov => (a, 1),
                };
                self.cpu.counters.cycles += cyc as u64;
                self.freg_write(sd, v);
                Ok(Flow::Next)
            }
            Insn::FpCmp { sn, sm, .. } => {
                self.cpu.counters.cycles += fp_lat as u64;
                let a = self.freg_read::<MODE>(sn);
                let b = self.freg_read::<MODE>(sm);
                // VCMP + VMRS flag mapping.
                let (n, z, c, v) = match a.partial_cmp(&b) {
                    Some(std::cmp::Ordering::Less) => (true, false, false, false),
                    Some(std::cmp::Ordering::Equal) => (false, true, true, false),
                    Some(std::cmp::Ordering::Greater) => (false, false, true, false),
                    None => (false, false, true, true),
                };
                self.cpu.cpsr.n = n;
                self.cpu.cpsr.z = z;
                self.cpu.cpsr.c = c;
                self.cpu.cpsr.v = v;
                Ok(Flow::Next)
            }
            Insn::FpToInt { rd, sm, .. } => {
                self.cpu.counters.cycles += fp_lat as u64;
                let a = self.freg_read::<MODE>(sm);
                let v = if a.is_nan() {
                    0
                } else {
                    a.max(i32::MIN as f32).min(i32::MAX as f32) as i32
                };
                self.reg_write(rd, v as u32)?;
                Ok(Flow::Next)
            }
            Insn::IntToFp { sd, rm, .. } => {
                self.cpu.counters.cycles += fp_lat as u64;
                let v = self.reg_read::<MODE>(rm)? as i32;
                self.freg_write(sd, v as f32);
                Ok(Flow::Next)
            }
            Insn::FpToCore { rd, sn, .. } => {
                self.cpu.counters.cycles += 1;
                let bits = self.freg_read_bits::<MODE>(sn);
                self.reg_write(rd, bits)?;
                Ok(Flow::Next)
            }
            Insn::CoreToFp { sd, rn, .. } => {
                self.cpu.counters.cycles += 1;
                let bits = self.reg_read::<MODE>(rn)?;
                self.freg_write_bits(sd, bits);
                Ok(Flow::Next)
            }
            Insn::FpMem {
                load, sd, rn, imm6, ..
            } => {
                self.cpu.counters.cycles += 1;
                let base = self.reg_read::<MODE>(rn)?;
                let vaddr = base.wrapping_add(4 * imm6 as u32);
                if load {
                    let v = self.read_mem::<MODE>(vaddr, MemSize::Word)?;
                    self.freg_write_bits(sd, v);
                } else {
                    let v = self.freg_read_bits::<MODE>(sd);
                    self.write_mem::<MODE>(vaddr, MemSize::Word, v)?;
                }
                Ok(Flow::Next)
            }
            Insn::Svc { imm, .. } => {
                self.cpu.counters.cycles += 1;
                Err(Exception::Svc { imm })
            }
            Insn::Mrs { rd, sys, .. } => {
                self.cpu.counters.cycles += 1;
                let priv_needed = !matches!(sys, SysReg::Cycles);
                if priv_needed {
                    self.require_svc(0x3000)?;
                }
                let v = match sys {
                    SysReg::Cpsr => self.cpu.cpsr.to_bits(),
                    SysReg::Spsr => self.cpu.spsr,
                    SysReg::Cycles => self.cpu.counters.cycles as u32,
                    SysReg::Elr => self.cpu.elr,
                    SysReg::Esr => self.cpu.esr,
                    SysReg::Far => self.cpu.far,
                    SysReg::Ttbr => self.cpu.ttbr,
                    SysReg::SpUsr => {
                        self.note_reg_read::<MODE>(RegFile::word_index(
                            sea_isa::Reg::Sp,
                            Mode::User,
                        ));
                        self.cpu.regs.sp_usr()
                    }
                    SysReg::CacheOp => 0,
                };
                self.reg_write(rd, v)?;
                Ok(Flow::Next)
            }
            Insn::Msr { sys, rn, .. } => {
                self.cpu.counters.cycles += 1;
                self.require_svc(0x4000)?;
                let v = self.reg_read::<MODE>(rn)?;
                match sys {
                    SysReg::Cpsr => {
                        self.cpu.cpsr = Cpsr::from_bits(v);
                        self.fastpath_clear_latches(); // possible mode change
                    }
                    SysReg::Spsr => self.cpu.spsr = v,
                    SysReg::Cycles => {} // read-only
                    SysReg::Elr => self.cpu.elr = v,
                    SysReg::Esr => self.cpu.esr = v,
                    SysReg::Far => self.cpu.far = v,
                    SysReg::Ttbr => {
                        self.cpu.ttbr = v;
                        self.itlb.flush();
                        self.dtlb.flush();
                        self.fastpath_clear_latches();
                        if MODE == tier::REF {
                            if let Some(p) = self.prof.as_deref_mut() {
                                p.itlb.flush_all(p.now);
                                p.dtlb.flush_all(p.now);
                            }
                        }
                    }
                    SysReg::SpUsr => {
                        self.cpu.regs.set_sp_usr(v);
                    }
                    SysReg::CacheOp => {
                        if v & 1 != 0 {
                            self.mem.clean_invalidate_all();
                            self.cpu.counters.cycles += 200;
                        }
                        if v & 2 != 0 {
                            self.itlb.flush();
                            self.dtlb.flush();
                            self.fastpath_clear_latches();
                            if MODE == tier::REF {
                                if let Some(p) = self.prof.as_deref_mut() {
                                    p.itlb.flush_all(p.now);
                                    p.dtlb.flush_all(p.now);
                                }
                            }
                        }
                    }
                }
                Ok(Flow::Next)
            }
            Insn::Cps { enable_irq, .. } => {
                self.cpu.counters.cycles += 1;
                self.require_svc(0x6000)?;
                self.cpu.cpsr.irq_off = !enable_irq;
                Ok(Flow::Next)
            }
            Insn::Eret { .. } => {
                self.cpu.counters.cycles += 3;
                self.require_svc(0x5000)?;
                self.cpu.cpsr = Cpsr::from_bits(self.cpu.spsr);
                self.fastpath_clear_latches(); // mode change on return
                Ok(Flow::Jump(self.cpu.elr))
            }
            Insn::Nop { .. } => {
                self.cpu.counters.cycles += 1;
                Ok(Flow::Next)
            }
            Insn::Halt { .. } => {
                self.cpu.counters.cycles += 1;
                self.require_svc(0x2000)?;
                Ok(Flow::Halt)
            }
            Insn::Wfi { .. } => {
                self.cpu.counters.cycles += 1;
                self.require_svc(0x9000)?;
                Ok(Flow::Wfi)
            }
        }
    }
}

/// The integer ALU: returns `(result, carry, overflow)`.
fn alu(op: DpOp, a: u32, b: u32, c_in: bool, shifter_c: bool) -> (u32, bool, bool) {
    fn add(a: u32, b: u32, carry: u32) -> (u32, bool, bool) {
        let wide = a as u64 + b as u64 + carry as u64;
        let r = wide as u32;
        let c = wide > u32::MAX as u64;
        let v = ((a ^ r) & (b ^ r)) & 0x8000_0000 != 0;
        (r, c, v)
    }
    match op {
        DpOp::And | DpOp::Tst => (a & b, shifter_c, false),
        DpOp::Eor | DpOp::Teq => (a ^ b, shifter_c, false),
        DpOp::Orr => (a | b, shifter_c, false),
        DpOp::Bic => (a & !b, shifter_c, false),
        DpOp::Mov => (b, shifter_c, false),
        DpOp::Mvn => (!b, shifter_c, false),
        DpOp::Add | DpOp::Cmn => add(a, b, 0),
        DpOp::Adc => add(a, b, c_in as u32),
        DpOp::Sub | DpOp::Cmp => add(a, !b, 1),
        DpOp::Sbc => add(a, !b, c_in as u32),
        DpOp::Rsb => add(b, !a, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_sub_sets_borrow_semantics() {
        // 5 - 3: no borrow → C set.
        let (r, c, v) = alu(DpOp::Sub, 5, 3, false, false);
        assert_eq!((r, c, v), (2, true, false));
        // 3 - 5: borrow → C clear, negative result.
        let (r, c, _) = alu(DpOp::Sub, 3, 5, false, false);
        assert_eq!(r, (-2i32) as u32);
        assert!(!c);
    }

    #[test]
    fn alu_overflow() {
        let (_, _, v) = alu(DpOp::Add, i32::MAX as u32, 1, false, false);
        assert!(v);
        let (_, _, v) = alu(DpOp::Sub, i32::MIN as u32, 1, false, false);
        assert!(v);
    }

    #[test]
    fn alu_logical_uses_shifter_carry() {
        let (_, c, v) = alu(DpOp::And, 3, 1, false, true);
        assert!(c);
        assert!(!v);
    }

    /// Independent reference for the shifter's (value, carry-out), written
    /// from the ARM `Shift_C` pseudocode case by case — deliberately not
    /// sharing any arithmetic with `eval_op2` or `Shift::apply`.
    fn shift_c_reference(kind: Shift, v: u32, n: u32, c_in: bool) -> (u32, bool) {
        if n == 0 {
            return (v, c_in);
        }
        match kind {
            Shift::Lsl => match n {
                1..=31 => (v << n, (v >> (32 - n)) & 1 == 1),
                32 => (0, v & 1 == 1),
                _ => (0, false),
            },
            Shift::Lsr => match n {
                1..=31 => (v >> n, (v >> (n - 1)) & 1 == 1),
                32 => (0, v >> 31 == 1),
                _ => (0, false),
            },
            Shift::Asr => {
                let sign = v >> 31 == 1;
                match n {
                    1..=31 => (((v as i32) >> n) as u32, (v >> (n - 1)) & 1 == 1),
                    _ => (if sign { u32::MAX } else { 0 }, sign),
                }
            }
            Shift::Ror => {
                let m = n % 32;
                if m == 0 {
                    (v, v >> 31 == 1)
                } else {
                    let out = v.rotate_right(m);
                    (out, out >> 31 == 1)
                }
            }
        }
    }

    #[test]
    fn eval_op2_carry_matches_reference_exhaustively() {
        use crate::config::MachineConfig;
        use crate::mem::NullDevice;
        let mut sys = System::new(MachineConfig::cortex_a9(), NullDevice);
        let rm = sea_isa::Reg::from_index(1);
        let samples = [
            0u32,
            1,
            2,
            0x8000_0000,
            0x8000_0001,
            0x7FFF_FFFF,
            0xFFFF_FFFF,
            0xDEAD_BEEF,
            0x0001_0000,
        ];
        for kind in [Shift::Lsl, Shift::Lsr, Shift::Asr, Shift::Ror] {
            for v in samples {
                for amount in 0..=255u32 {
                    for c_in in [false, true] {
                        sys.cpu.cpsr.c = c_in;
                        let mode = sys.cpu.cpsr.mode;
                        sys.cpu.regs.set(rm, mode, v);
                        let op2 = Operand2::Reg(sea_isa::ShiftedReg {
                            rm,
                            shift: kind,
                            amount: amount as u8,
                        });
                        let got = sys.eval_op2::<{ tier::REF }>(op2).unwrap();
                        let want = shift_c_reference(kind, v, amount, c_in);
                        assert_eq!(got, want, "{kind:?} of {v:#010x} by {amount} (C={c_in})");
                    }
                }
            }
        }
    }

    #[test]
    fn eval_op2_boundary_carries() {
        use crate::config::MachineConfig;
        use crate::mem::NullDevice;
        let mut sys = System::new(MachineConfig::cortex_a9(), NullDevice);
        let rm = sea_isa::Reg::from_index(2);
        let mode = sys.cpu.cpsr.mode;
        sys.cpu.cpsr.c = false;
        let case = |sys: &mut System<NullDevice>, v: u32, shift, amount| {
            sys.cpu.regs.set(rm, mode, v);
            sys.eval_op2::<{ tier::REF }>(Operand2::Reg(sea_isa::ShiftedReg { rm, shift, amount }))
                .unwrap()
        };
        // LSL #32: result 0, carry = old bit 0.
        assert_eq!(case(&mut sys, 1, Shift::Lsl, 32), (0, true));
        assert_eq!(case(&mut sys, 2, Shift::Lsl, 32), (0, false));
        // LSL #33+: result 0, carry clear.
        assert_eq!(case(&mut sys, u32::MAX, Shift::Lsl, 33), (0, false));
        // LSR #32: result 0, carry = old bit 31.
        assert_eq!(case(&mut sys, 0x8000_0000, Shift::Lsr, 32), (0, true));
        assert_eq!(case(&mut sys, 0x7FFF_FFFF, Shift::Lsr, 32), (0, false));
        // LSR #33+: result 0, carry clear.
        assert_eq!(case(&mut sys, u32::MAX, Shift::Lsr, 40), (0, false));
        // ASR #32+: result and carry both follow the sign bit.
        assert_eq!(
            case(&mut sys, 0x8000_0000, Shift::Asr, 32),
            (u32::MAX, true)
        );
        assert_eq!(case(&mut sys, 0x7FFF_FFFF, Shift::Asr, 255), (0, false));
        // ROR by a non-zero multiple of 32: value unchanged, carry = bit 31.
        assert_eq!(
            case(&mut sys, 0x8000_0001, Shift::Ror, 32),
            (0x8000_0001, true)
        );
    }

    /// A device block with one comparable register.
    #[derive(Clone, PartialEq, Debug)]
    struct Latch(u32);

    impl Device for Latch {
        fn read(&mut self, _offset: u32, _size: MemSize) -> u32 {
            self.0
        }
        fn write(&mut self, _offset: u32, _size: MemSize, value: u32) {
            self.0 = value;
        }
        fn poll_irq(&mut self, _now: u64) -> bool {
            false
        }
    }

    /// A reset machine with one valid line in each cache and one valid
    /// entry in each TLB, so both live and dead cells exist everywhere.
    fn warmed() -> System<Latch> {
        use crate::config::MachineConfig;
        let mut cfg = MachineConfig::cortex_a9_scaled();
        cfg.mem_bytes = 1024 * 1024;
        let mut sys = System::new(cfg, Latch(7));
        let mut ctr = Counters::default();
        sys.mem.fetch(0x100, &mut ctr);
        sys.mem.read_data(0x2000, MemSize::Word, &mut ctr);
        sys.itlb.insert(TlbEntry::new(0, 0, false, false, true));
        sys.dtlb.insert(TlbEntry::new(2, 2, true, false, false));
        sys
    }

    #[test]
    fn convergence_ignores_every_cell_nothing_reads_back() {
        use crate::fault::Component;
        let golden = warmed();
        assert!(golden.clone().converges_with(&golden));
        // Flips into invalid lines and entries, and into TLB bits >= 44.
        for (c, bit) in [
            (Component::L1I, golden.mem.l1i.total_bits() - 9),
            (Component::L1D, golden.mem.l1d.total_bits() - 3),
            (Component::L2, golden.mem.l2.total_bits() - 40),
            (Component::ITlb, 64 + 17),
            (Component::DTlb, 64 + 39),
            (Component::ITlb, 50),
            (Component::DTlb, 63),
        ] {
            let mut sys = golden.clone();
            // Armed like a campaign machine: memoization and the
            // provenance probe are not machine state.
            sys.fastpath_enable(FastPathConfig::default());
            let site = sys.flip_bit_probed(c, bit);
            assert!(bit < 64 || !site.was_valid, "{c:?} bit {bit}");
            assert!(sys.converges_with(&golden), "{c:?} bit {bit}");
            assert!(golden.converges_with(&sys), "{c:?} bit {bit}");
        }
        // Observer-only statistics.
        let mut sys = golden.clone();
        sys.cpu.counters.l1d_miss += 1;
        sys.cpu.counters.branches += 5;
        sys.itlb.lookups += 1;
        sys.cpu.enable_trace(8);
        assert!(sys.converges_with(&golden));
    }

    #[test]
    fn convergence_compares_every_cell_that_steers_execution() {
        use crate::fault::Component;
        let golden = warmed();
        let differs = |what: &str, f: &dyn Fn(&mut System<Latch>)| {
            let mut sys = golden.clone();
            f(&mut sys);
            assert!(!sys.converges_with(&golden), "{what}");
            assert!(!golden.converges_with(&sys), "{what}");
        };
        // The one valid line of each cache (data, then its valid bit) and
        // the valid entry 0 of each TLB; any register-file bit.
        for (c, cache, paddr) in [
            (Component::L1I, &golden.mem.l1i, 0x100),
            (Component::L1D, &golden.mem.l1d, 0x2000),
            (Component::L2, &golden.mem.l2, 0x100),
        ] {
            let per = cache.bits_per_line();
            let line = u64::from(cache.find_line(paddr).expect("warmed line"));
            differs("valid clean line data", &|s| {
                assert!(s.flip_bit(c, line * per + 5).was_valid);
            });
            differs("valid bit", &|s| {
                s.flip_bit(c, line * per + per - 2);
            });
        }
        for c in [Component::ITlb, Component::DTlb] {
            differs("valid TLB entry", &|s| {
                assert!(s.flip_bit(c, 21).was_valid);
            });
        }
        differs("integer register", &|s| {
            s.flip_bit(Component::RegFile, 14 * 32 + 3);
        });
        differs("fp register", &|s| {
            s.flip_bit(Component::RegFile, 40 * 32);
        });
        differs("one DRAM byte", &|s| {
            s.mem.phys.write(0x8_0000, MemSize::Byte, 1)
        });
        differs("device block", &|s| s.dev.0 ^= 1);
        differs("cycle count", &|s| s.cpu.counters.cycles += 1);
        differs("instruction count", &|s| s.cpu.counters.instructions += 1);
        differs("pc", &|s| s.cpu.pc ^= 4);
        differs("flags", &|s| s.cpu.cpsr.z = !s.cpu.cpsr.z);
        differs("fault register", &|s| s.cpu.far ^= 1);
        differs("wfi latch", &|s| s.cpu.wfi = !s.cpu.wfi);
        differs("predictor", &|s| s.cpu.predictor[9] ^= 2);
        differs("itlb clock", &|s| {
            s.itlb.lookup(0x77);
        });
    }
}
