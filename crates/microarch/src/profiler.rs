//! Transient observers attached to a running [`System`]: the
//! residency/liveness profilers and the read-horizon recorder.
//!
//! One observer per injectable SRAM array (the six [`Component`]s), fed by
//! hooks on the simulator's fill/lookup paths, plus the per-PC cycle
//! sampler. An observer records *residency* (`sea-profile`'s ACE-style
//! fill → last-use → evict intervals, for the predicted AVF) or the *read
//! horizon* ([`crate::horizon`], for dead-cell pruning); which is decided
//! at attach time, so a golden run that only needs the horizon does not
//! pay for interval bookkeeping. Both share one hook per site — one list
//! of what counts as a read — and one `Option` test when nothing is
//! attached.
//!
//! Observers are never machine state: they are not cloned ([`Observers`]),
//! so attaching them can't leak into checkpoints or perturb campaign
//! determinism.
//!
//! [`System`]: crate::System
//! [`Component`]: crate::Component

use crate::cache::Cache;
use crate::counters::Counters;
use crate::horizon::{ByteHorizon, CacheHorizon, RegHorizon, TlbHorizon};
use crate::regfile::REGFILE_BITS;
use crate::tlb::Tlb;
use sea_profile::{PcSampler, SampleCounters, StructureReport, StructureResidency};
use std::ops::{Deref, DerefMut};

/// Sampling period for the per-PC profiler: every step, because a step
/// already costs a full decode/execute and the sampler is only attached
/// to golden runs, where exactness beats speed.
const PC_SAMPLE_PERIOD: u32 = 1;

/// TLB entry payload bits that are ACE while the entry is live: PPN
/// `[19:0]` plus the permission/valid bits `[43:40]` — corrupting any of
/// them misroutes or faults accesses through the entry.
const TLB_BITS_ACE: u64 = 24;
/// TLB virtual-tag bits (VPN `[39:20]`), ACE over the whole residency: a
/// tag flip mis-homes the entry for as long as it is valid.
const TLB_BITS_AUX: u64 = 20;
/// TLB unimplemented filler cells `[63:44]`, never ACE but injected into.
const TLB_BITS_DEAD: u64 = 20;

/// Mirror the machine counters into the dependency-free sample struct.
pub(crate) fn sample_counters(c: &Counters) -> SampleCounters {
    SampleCounters {
        cycles: c.cycles,
        instructions: c.instructions,
        l1d_miss: c.l1d_miss,
        l1i_miss: c.l1i_miss,
        l2_miss: c.l2_miss,
        dtlb_miss: c.dtlb_miss,
        itlb_miss: c.itlb_miss,
        branch_misses: c.branch_misses,
    }
}

/// The slot a machine keeps its observers in. Cloning a machine never
/// clones them — the clone comes back detached — so a checkpoint captured
/// in the middle of an observed golden run (`Checkpoint::capture` is
/// `sys.clone()`) carries no tracker into the campaign's restored
/// machines or onto disk.
#[derive(Debug)]
pub(crate) struct Observers<T>(Option<Box<T>>);

impl<T> Observers<T> {
    pub(crate) const DETACHED: Observers<T> = Observers(None);
}

impl<T> Clone for Observers<T> {
    fn clone(&self) -> Self {
        Observers::DETACHED
    }
}

impl<T> Deref for Observers<T> {
    type Target = Option<Box<T>>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<T> DerefMut for Observers<T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// What one array's hooks feed: a residency tracker or a read-horizon
/// recorder (`H`). Every hook takes the live cycle count (what residency
/// intervals are measured in) and `now`, the stamp of the step in flight
/// (what the horizon records).
#[derive(Clone, Debug)]
pub(crate) struct Observer<H> {
    pub(crate) residency: Option<StructureResidency>,
    pub(crate) horizon: Option<H>,
}

impl<H> Observer<H> {
    /// An observer that records the read horizon when `horizon` is set and
    /// residency otherwise.
    fn new(
        horizon: bool,
        residency: impl FnOnce() -> StructureResidency,
        recorder: impl FnOnce() -> H,
    ) -> Observer<H> {
        Observer {
            residency: (!horizon).then(residency),
            horizon: horizon.then(recorder),
        }
    }

    /// Finalizes the residency tracker, if this observer kept one.
    pub(crate) fn report(self, end_cycle: u64) -> Option<StructureReport> {
        Some(self.residency?.finalize(end_cycle))
    }
}

impl Observer<RegHorizon> {
    /// Register-file word `word` was read as an operand.
    pub(crate) fn read(&mut self, word: usize, cycle: u64, now: u64) {
        if let Some(r) = &mut self.residency {
            r.touch(word, cycle);
        }
        if let Some(h) = &mut self.horizon {
            h.read(word, now);
        }
    }

    /// Register-file word `word` was written: a def closes the old value's
    /// interval (its last read bounds its ACE time) and opens a new one.
    pub(crate) fn write(&mut self, word: usize, cycle: u64) {
        if let Some(r) = &mut self.residency {
            r.fill(word, cycle, false);
        }
    }
}

impl Observer<CacheHorizon> {
    fn cache(name: &'static str, cache: &Cache, horizon: bool) -> Self {
        // Payload = the data bytes (ACE fill→last-use, or to eviction on
        // write-back); aux = tag + valid + dirty (a flip in any mis-homes
        // or spuriously dirties the line for its whole residency).
        let residency = || {
            StructureResidency::new(
                name,
                cache.lines() as usize,
                8 * cache.line_bytes() as u64,
                cache.tag_bits() as u64 + 2,
                0,
            )
        };
        Observer::new(horizon, residency, || CacheHorizon::new(cache))
    }

    /// A probe hit line `idx`: its bytes are consumed or rewritten in
    /// place.
    pub(crate) fn hit(&mut self, idx: u32, cycle: u64, now: u64) {
        if let Some(r) = &mut self.residency {
            r.touch(idx as usize, cycle);
        }
        if let Some(h) = &mut self.horizon {
            h.hit(idx, now);
        }
    }

    /// A probe of `paddr` missed and line `victim` of the probed set is
    /// about to be refilled with it; `writeback` says the victim's bytes
    /// were read out first.
    pub(crate) fn miss(&mut self, victim: u32, paddr: u32, writeback: bool, cycle: u64, now: u64) {
        if let Some(r) = &mut self.residency {
            r.fill(victim as usize, cycle, writeback);
        }
        if let Some(h) = &mut self.horizon {
            h.miss(victim, paddr, writeback, now);
        }
    }

    /// The whole cache is being cleaned and invalidated.
    pub(crate) fn flush_all(&mut self, now: u64) {
        if let Some(r) = &mut self.residency {
            r.flush_all();
        }
        if let Some(h) = &mut self.horizon {
            h.flush_all(now);
        }
    }
}

impl Observer<TlbHorizon> {
    fn tlb(name: &'static str, tlb: &Tlb, horizon: bool) -> Self {
        let residency = || {
            StructureResidency::new(
                name,
                (tlb.total_bits() / 64) as usize,
                TLB_BITS_ACE,
                TLB_BITS_AUX,
                TLB_BITS_DEAD,
            )
        };
        Observer::new(horizon, residency, || TlbHorizon::new(tlb))
    }

    /// A lookup hit entry `slot`.
    pub(crate) fn hit(&mut self, slot: usize, cycle: u64, now: u64) {
        if let Some(r) = &mut self.residency {
            r.touch(slot, cycle);
        }
        if let Some(h) = &mut self.horizon {
            h.hit(slot, now);
        }
    }

    /// A lookup scanned every entry and missed.
    pub(crate) fn miss(&mut self, now: u64) {
        if let Some(h) = &mut self.horizon {
            h.miss(now);
        }
    }

    /// The walked translation was inserted into `slot`.
    pub(crate) fn fill(&mut self, slot: usize, cycle: u64, now: u64) {
        if let Some(r) = &mut self.residency {
            r.fill(slot, cycle, false);
        }
        if let Some(h) = &mut self.horizon {
            h.fill(slot, now);
        }
    }

    /// The TLB was flushed — a pure overwrite, nothing is read.
    pub(crate) fn flush_all(&mut self, now: u64) {
        if let Some(r) = &mut self.residency {
            r.flush_all();
        }
        if let Some(h) = &mut self.horizon {
            h.flush_all(now);
        }
    }
}

/// Observers owned by the CPU side of the system: register file, both
/// TLBs, and the per-PC cycle sampler.
#[derive(Clone, Debug)]
pub(crate) struct SysProfiler {
    /// Stamp of the step in flight: its starting cycle plus one.
    pub(crate) now: u64,
    /// Per-PC cycle attribution (profiling only).
    pub(crate) pc: Option<PcSampler>,
    /// Register-file words: r0–r12, banked SPs, lr, s0–s31.
    pub(crate) regs: Observer<RegHorizon>,
    /// Instruction-TLB entries.
    pub(crate) itlb: Observer<TlbHorizon>,
    /// Data-TLB entries.
    pub(crate) dtlb: Observer<TlbHorizon>,
}

impl SysProfiler {
    /// Observers sized for the machine's TLBs, recording the read horizon
    /// when `horizon` is set and residency plus the per-PC profile
    /// otherwise.
    pub(crate) fn new(itlb: &Tlb, dtlb: &Tlb, horizon: bool) -> SysProfiler {
        SysProfiler {
            now: 0,
            pc: (!horizon).then(|| PcSampler::new(PC_SAMPLE_PERIOD)),
            regs: Observer::new(
                horizon,
                || StructureResidency::new("RF", (REGFILE_BITS / 32) as usize, 32, 0, 0),
                RegHorizon::new,
            ),
            itlb: Observer::tlb("ITLB", itlb, horizon),
            dtlb: Observer::tlb("DTLB", dtlb, horizon),
        }
    }
}

/// Observers owned by the memory hierarchy: the three caches.
#[derive(Clone, Debug)]
pub(crate) struct MemProfiler {
    /// Stamp of the step in flight (mirrors [`SysProfiler::now`]).
    pub(crate) now: u64,
    /// L1 instruction-cache lines.
    pub(crate) l1i: Observer<CacheHorizon>,
    /// L1 data-cache lines.
    pub(crate) l1d: Observer<CacheHorizon>,
    /// Unified L2 lines.
    pub(crate) l2: Observer<CacheHorizon>,
    /// Per-physical-byte consumption stamps (read horizon only).
    pub(crate) bytes: Option<ByteHorizon>,
}

impl MemProfiler {
    /// Observers matching the three caches' geometry and `mem_bytes` of
    /// DRAM; `horizon` as for [`SysProfiler::new`].
    pub(crate) fn new(
        l1i: &Cache,
        l1d: &Cache,
        l2: &Cache,
        mem_bytes: u32,
        horizon: bool,
    ) -> MemProfiler {
        MemProfiler {
            now: 0,
            l1i: Observer::cache("L1I$", l1i, horizon),
            l1d: Observer::cache("L1D$", l1d, horizon),
            l2: Observer::cache("L2$", l2, horizon),
            bytes: horizon.then(|| ByteHorizon::new(mem_bytes)),
        }
    }

    /// A CPU read — a load, a fetch or a page-table walk — consumed
    /// `bytes` at `paddr`. Fills, write-backs and clean-invalidate only copy
    /// bytes between levels and never call this.
    #[inline]
    pub(crate) fn consume(&mut self, paddr: u32, bytes: u32) {
        if let Some(b) = &mut self.bytes {
            b.consume(paddr, bytes, self.now);
        }
    }
}
