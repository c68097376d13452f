//! Transient observers attached to a running [`System`]: the read-horizon
//! recorder and, on profiled runs, the per-PC cycle sampler.
//!
//! One recorder per injectable SRAM array (the six [`Component`]s), fed by
//! hooks on the simulator's fill/lookup paths, plus the consumption stamps
//! of physical bytes ([`crate::horizon`]). The horizon serves dead-cell
//! pruning and, through [`crate::ReadHorizon::report`], the profiler's
//! predicted AVF: one list of what counts as a read, and one `Option` test
//! when nothing is attached.
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
use crate::tlb::Tlb;
use sea_profile::{PcSampler, SampleCounters};
use std::ops::{Deref, DerefMut};

/// Sampling period for the per-PC profiler: every step, because a step
/// already costs a full decode/execute and the sampler is only attached
/// to golden runs, where exactness beats speed.
const PC_SAMPLE_PERIOD: u32 = 1;

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
/// machines.
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

/// Observers owned by the CPU side of the system: register file, both
/// TLBs, and the per-PC cycle sampler.
#[derive(Clone, Debug)]
pub(crate) struct SysProfiler {
    /// Stamp of the step in flight: its starting cycle plus one.
    pub(crate) now: u64,
    /// Per-PC cycle attribution (profiling only).
    pub(crate) pc: Option<PcSampler>,
    /// Register-file words: r0–r12, banked SPs, lr, s0–s31.
    pub(crate) regs: RegHorizon,
    /// Instruction-TLB entries.
    pub(crate) itlb: TlbHorizon,
    /// Data-TLB entries.
    pub(crate) dtlb: TlbHorizon,
}

impl SysProfiler {
    /// Recorders sized for the machine's TLBs, plus the per-PC sampler when
    /// `pc` is set.
    pub(crate) fn new(itlb: &Tlb, dtlb: &Tlb, pc: bool) -> SysProfiler {
        SysProfiler {
            now: 0,
            pc: pc.then(|| PcSampler::new(PC_SAMPLE_PERIOD)),
            regs: RegHorizon::new(),
            itlb: TlbHorizon::new(itlb),
            dtlb: TlbHorizon::new(dtlb),
        }
    }
}

/// Observers owned by the memory hierarchy: the three caches and the
/// physical bytes below them.
#[derive(Clone, Debug)]
pub(crate) struct MemProfiler {
    /// Stamp of the step in flight (mirrors [`SysProfiler::now`]).
    pub(crate) now: u64,
    /// L1 instruction-cache lines.
    pub(crate) l1i: CacheHorizon,
    /// L1 data-cache lines.
    pub(crate) l1d: CacheHorizon,
    /// Unified L2 lines.
    pub(crate) l2: CacheHorizon,
    /// Per-physical-byte consumption stamps.
    pub(crate) bytes: ByteHorizon,
}

impl MemProfiler {
    /// Recorders matching the three caches' geometry and `mem_bytes` of
    /// DRAM.
    pub(crate) fn new(l1i: &Cache, l1d: &Cache, l2: &Cache, mem_bytes: u32) -> MemProfiler {
        MemProfiler {
            now: 0,
            l1i: CacheHorizon::new(l1i),
            l1d: CacheHorizon::new(l1d),
            l2: CacheHorizon::new(l2),
            bytes: ByteHorizon::new(mem_bytes),
        }
    }

    /// A CPU read — a load, a fetch or a page-table walk — consumed
    /// `bytes` at `paddr`. Fills, write-backs and clean-invalidate only copy
    /// bytes between levels and never call this.
    #[inline]
    pub(crate) fn consume(&mut self, paddr: u32, bytes: u32) {
        self.bytes.consume(paddr, bytes, self.now);
    }
}
