//! The cache hierarchy: L1I + L1D over a unified L2 over DRAM.

use sea_isa::MemSize;

use crate::cache::{Cache, Probe};
use crate::config::{ExecMode, MachineConfig};
use crate::counters::Counters;
use crate::mem::PhysMemory;
use crate::profiler::{MemProfiler, Observers};

/// The memory system below the core.
#[derive(Clone, Debug)]
pub struct MemSystem {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// DRAM.
    pub phys: PhysMemory,
    mode: ExecMode,
    lat_l1: u32,
    lat_l2: u32,
    lat_mem: u32,
    line: u32,
    /// Cache-line observers; `None` (the fast path) unless a golden run
    /// attached them. Never cloned.
    pub(crate) prof: Observers<MemProfiler>,
}

/// DRAM line write with a bus-error guard: a write-back whose (possibly
/// fault-corrupted) tag points outside DRAM is dropped, as a real bus
/// would respond with an ignored slave error rather than crash the world.
fn dram_write_line(phys: &mut PhysMemory, addr: u32, data: &[u8]) {
    if (addr as u64) + data.len() as u64 <= phys.size() as u64 {
        phys.write_line(addr, data);
    }
}

/// DRAM line read with the same guard; out-of-range reads return zeros
/// (open bus).
fn dram_read_line(phys: &PhysMemory, addr: u32, buf: &mut [u8]) {
    if (addr as u64) + buf.len() as u64 <= phys.size() as u64 {
        phys.read_line(addr, buf);
    } else {
        buf.fill(0);
    }
}

impl MemSystem {
    /// Builds the hierarchy from a machine configuration.
    pub fn new(cfg: &MachineConfig) -> MemSystem {
        MemSystem {
            l1i: Cache::new(cfg.l1i, false),
            l1d: Cache::new(cfg.l1d, true),
            l2: Cache::new(cfg.l2, true),
            phys: PhysMemory::new(cfg.mem_bytes),
            mode: cfg.mode,
            lat_l1: cfg.lat.l1_hit,
            lat_l2: cfg.lat.l2_hit,
            lat_mem: cfg.lat.mem,
            line: cfg.l1d.line_bytes,
            prof: Observers::DETACHED,
        }
    }

    // ----- L2 level (also used by the page-table walker) ------------------

    /// Reads a full line at `paddr` out of L2, filling from DRAM on miss.
    /// Returns latency.
    fn l2_read_line(&mut self, paddr: u32, buf: &mut [u8], ctr: &mut Counters) -> u32 {
        ctr.l2_access += 1;
        match self.l2.probe(paddr) {
            Probe::Hit(idx) => {
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l2.hit(idx, p.now);
                }
                self.l2.read_full_line(idx, buf);
                self.lat_l2
            }
            Probe::Miss => {
                ctr.l2_miss += 1;
                let (idx, wb) = self.l2.evict_for(paddr);
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l2.miss(idx, paddr, wb.is_some(), p.now);
                }
                if let Some((addr, data)) = wb {
                    dram_write_line(&mut self.phys, addr, &data);
                }
                let base = paddr & !(self.line - 1);
                dram_read_line(&self.phys, base, buf);
                self.l2.fill(idx, paddr, buf, false);
                self.lat_l2 + self.lat_mem
            }
        }
    }

    /// Writes a full line into L2 (an L1 write-back). Full-line writes
    /// allocate without fetching DRAM. Returns latency.
    fn l2_write_line(&mut self, paddr: u32, data: &[u8], ctr: &mut Counters) -> u32 {
        ctr.l2_access += 1;
        match self.l2.probe(paddr) {
            Probe::Hit(idx) => {
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l2.hit(idx, p.now);
                }
                self.l2.write_full_line(idx, data);
                self.lat_l2
            }
            Probe::Miss => {
                ctr.l2_miss += 1;
                let (idx, wb) = self.l2.evict_for(paddr);
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l2.miss(idx, paddr, wb.is_some(), p.now);
                }
                if let Some((addr, old)) = wb {
                    dram_write_line(&mut self.phys, addr, &old);
                }
                self.l2.fill(idx, paddr, data, true);
                self.lat_l2
            }
        }
    }

    /// A word read used by the hardware page-table walker: looks in L2
    /// (where table lines live after first touch), then DRAM.
    pub fn walk_read(&mut self, paddr: u32, ctr: &mut Counters) -> (u32, u32) {
        if self.mode == ExecMode::Atomic {
            return (self.phys.read(paddr, MemSize::Word), 1);
        }
        if let Some(p) = self.prof.as_deref_mut() {
            p.consume(paddr, 4);
        }
        let mut buf = vec![0u8; self.line as usize];
        let lat = self.l2_read_line(paddr, &mut buf, ctr);
        let off = (paddr & (self.line - 1)) as usize;
        (
            u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()),
            lat,
        )
    }

    // ----- data path -------------------------------------------------------

    /// Data-side read of `size` at `paddr`. Returns `(value, latency)`.
    pub fn read_data(&mut self, paddr: u32, size: MemSize, ctr: &mut Counters) -> (u32, u32) {
        if self.mode == ExecMode::Atomic {
            return (self.phys.read(paddr, size), 1);
        }
        ctr.l1d_access += 1;
        match self.l1d.probe(paddr) {
            Probe::Hit(idx) => {
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l1d.hit(idx, p.now);
                    p.consume(paddr, size.bytes());
                }
                (self.l1d.read(idx, paddr, size.bytes()), self.lat_l1)
            }
            Probe::Miss => {
                ctr.l1d_miss += 1;
                let mut extra = 0;
                let (idx, wb) = self.l1d.evict_for(paddr);
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l1d.miss(idx, paddr, wb.is_some(), p.now);
                    p.consume(paddr, size.bytes());
                }
                if let Some((addr, data)) = wb {
                    extra += self.l2_write_line(addr, &data, ctr);
                }
                let mut buf = vec![0u8; self.line as usize];
                let lat = self.l2_read_line(paddr, &mut buf, ctr);
                self.l1d.fill(idx, paddr, &buf, false);
                let v = self.l1d.read(idx, paddr, size.bytes());
                (v, self.lat_l1 + lat + extra)
            }
        }
    }

    /// Data-side write (write-back, write-allocate). Returns latency.
    pub fn write_data(&mut self, paddr: u32, size: MemSize, value: u32, ctr: &mut Counters) -> u32 {
        if self.mode == ExecMode::Atomic {
            self.phys.write(paddr, size, value);
            return 1;
        }
        ctr.l1d_access += 1;
        match self.l1d.probe(paddr) {
            Probe::Hit(idx) => {
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l1d.hit(idx, p.now);
                }
                self.l1d.write(idx, paddr, size.bytes(), value);
                self.lat_l1
            }
            Probe::Miss => {
                ctr.l1d_miss += 1;
                let mut extra = 0;
                let (idx, wb) = self.l1d.evict_for(paddr);
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l1d.miss(idx, paddr, wb.is_some(), p.now);
                }
                if let Some((addr, data)) = wb {
                    extra += self.l2_write_line(addr, &data, ctr);
                }
                let mut buf = vec![0u8; self.line as usize];
                let lat = self.l2_read_line(paddr, &mut buf, ctr);
                self.l1d.fill(idx, paddr, &buf, false);
                self.l1d.write(idx, paddr, size.bytes(), value);
                self.lat_l1 + lat + extra
            }
        }
    }

    // ----- instruction path --------------------------------------------------

    /// Instruction fetch of one word. Returns `(word, latency)`.
    pub fn fetch(&mut self, paddr: u32, ctr: &mut Counters) -> (u32, u32) {
        if self.mode == ExecMode::Atomic {
            return (self.phys.read(paddr, MemSize::Word), 1);
        }
        ctr.l1i_access += 1;
        match self.l1i.probe(paddr) {
            Probe::Hit(idx) => {
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l1i.hit(idx, p.now);
                    p.consume(paddr, 4);
                }
                (self.l1i.read(idx, paddr, 4), self.lat_l1)
            }
            Probe::Miss => {
                ctr.l1i_miss += 1;
                let (idx, _) = self.l1i.evict_for(paddr);
                if let Some(p) = self.prof.as_deref_mut() {
                    p.l1i.miss(idx, paddr, false, p.now);
                    p.consume(paddr, 4);
                }
                let mut buf = vec![0u8; self.line as usize];
                let lat = self.l2_read_line(paddr, &mut buf, ctr);
                self.l1i.fill(idx, paddr, &buf, false);
                (self.l1i.read(idx, paddr, 4), self.lat_l1 + lat)
            }
        }
    }

    // ----- repeat-hit shortcuts (the execution fast path) -----------------

    /// [`MemSystem::fetch`] served through a latched L1I line (see
    /// [`Cache::hit_mru`]): bit-identical to the reference hit path, or
    /// `None` when anything about the line changed (caller re-fetches the
    /// reference way). `idx` must come from a prior
    /// [`Cache::find_line`]/probe of the same line base.
    pub fn fetch_mru(&mut self, idx: u32, paddr: u32, ctr: &mut Counters) -> Option<(u32, u32)> {
        if !self.l1i.hit_mru(idx, paddr) {
            return None;
        }
        ctr.l1i_access += 1;
        if let Some(p) = self.prof.as_deref_mut() {
            p.l1i.hit(idx, p.now);
            p.consume(paddr, 4);
        }
        Some((self.l1i.read(idx, paddr, 4), self.lat_l1))
    }

    /// [`MemSystem::read_data`] served through a latched L1D line;
    /// contract as for [`MemSystem::fetch_mru`].
    pub fn read_data_mru(
        &mut self,
        idx: u32,
        paddr: u32,
        size: MemSize,
        ctr: &mut Counters,
    ) -> Option<(u32, u32)> {
        if !self.l1d.hit_mru(idx, paddr) {
            return None;
        }
        ctr.l1d_access += 1;
        if let Some(p) = self.prof.as_deref_mut() {
            p.l1d.hit(idx, p.now);
            p.consume(paddr, size.bytes());
        }
        Some((self.l1d.read(idx, paddr, size.bytes()), self.lat_l1))
    }

    /// [`MemSystem::write_data`] served through a latched L1D line;
    /// contract as for [`MemSystem::fetch_mru`].
    pub fn write_data_mru(
        &mut self,
        idx: u32,
        paddr: u32,
        size: MemSize,
        value: u32,
        ctr: &mut Counters,
    ) -> Option<u32> {
        if !self.l1d.hit_mru(idx, paddr) {
            return None;
        }
        ctr.l1d_access += 1;
        if let Some(p) = self.prof.as_deref_mut() {
            p.l1d.hit(idx, p.now);
        }
        self.l1d.write(idx, paddr, size.bytes(), value);
        Some(self.lat_l1)
    }

    /// Whether the hierarchy is modeled at all (the latches are useless —
    /// and never filled — under [`ExecMode::Atomic`]).
    pub fn is_detailed(&self) -> bool {
        self.mode == ExecMode::Detailed
    }

    // ----- maintenance ----------------------------------------------------------

    /// Cleans (writes back) and invalidates every cache level, top down.
    pub fn clean_invalidate_all(&mut self) {
        let mut l1_spill: Vec<(u32, Vec<u8>)> = Vec::new();
        self.l1d
            .clean_invalidate_all(|addr, data| l1_spill.push((addr, data.to_vec())));
        let mut scratch = Counters::default();
        for (addr, data) in l1_spill {
            self.l2_write_line(addr, &data, &mut scratch);
        }
        self.l1i.clean_invalidate_all(|_, _| {});
        let phys = &mut self.phys;
        self.l2
            .clean_invalidate_all(|addr, data| dram_write_line(phys, addr, data));
        // After the spill, whose L1D victims the L2 hooks saw land in L2:
        // the fill ledger must end with every line invalid.
        if let Some(p) = self.prof.as_deref_mut() {
            p.l1i.flush_all(p.now);
            p.l1d.flush_all(p.now);
            p.l2.flush_all(p.now);
        }
    }

    /// Live-state equality (see [`crate::System::converges_with`]): the
    /// small caches first, DRAM last ([`PhysMemory`] equality short-cuts
    /// pages the two machines still share and byte-compares the rest).
    /// The observers are not machine state and are ignored.
    pub fn converges_with(&self, other: &MemSystem) -> bool {
        (self.mode, self.lat_l1, self.lat_l2, self.lat_mem, self.line)
            == (
                other.mode,
                other.lat_l1,
                other.lat_l2,
                other.lat_mem,
                other.line,
            )
            && self.l1i.converges_with(&other.l1i)
            && self.l1d.converges_with(&other.l1d)
            && self.l2.converges_with(&other.l2)
            && self.phys == other.phys
    }

    /// Debug read that sees committed state top-down (L1D, then L2, then
    /// DRAM) without perturbing LRU — used by the board harness and tests
    /// to observe memory as a coherent outside agent.
    pub fn peek(&self, paddr: u32, size: MemSize) -> u32 {
        self.l1d
            .peek(paddr, size.bytes())
            .or_else(|| self.l2.peek(paddr, size.bytes()))
            .unwrap_or_else(|| self.phys.read(paddr, size))
    }
}
