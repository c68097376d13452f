//! The read horizon: for every storage granule of the six injectable
//! arrays, the last step of a fault-free run that *read* it.
//!
//! Dead-cell pruning in `sea-injection` asks it one question — does the
//! golden run read this cell in any step that starts at or after cycle
//! `c`? ([`ReadHorizon::reads_from`]). When the answer is no for every
//! cell a strike at `c` flips, the struck machine differs from the golden
//! one only in cells no later step reads. A step's effect depends only on
//! the cells it reads, so by induction over steps the struck machine
//! executes the golden run's remaining steps exactly — writing the same
//! values to the same places, which can only *remove* the difference —
//! and ends as the golden run does. No simulation is needed to classify it.
//!
//! A granule is the unit a stamp covers; coarser is conservative. What
//! stamps which granule (the recording hooks live in [`crate::profiler`],
//! at the sites the residency profilers already observe):
//!
//! | array | granule | stamped by |
//! |---|---|---|
//! | register file | word (r0–r12, `sp_usr`, `sp_svc`, `lr`, s0–s31) | every operand read, integer and FP, and `MRS SpUsr` |
//! | cache, data bytes | line | every probe hit (load, fetch, refill to the level above; conservatively also a hit that only rewrites the line — a store, an L1D victim written into a resident L2 line — since the provenance watch calls every hit a touch), a write-back of the victim, clean-invalidate |
//! | cache, tag / valid / dirty | *set* | every probe of the set (its scan compares valid bits and tags way by way), the victim choice and dirty test that follow a miss, clean-invalidate |
//! | TLB, PPN + permission bits `[19:0]`, `[43:41]` | entry | a lookup that hits the entry |
//! | TLB, VPN + valid bits `[40:20]` | entry | every lookup whose scan reaches the slot (slots `0..=hit`, or all on a miss; the insert after a miss scans no further) |
//! | TLB, bits `[63:44]` | — | nothing: unimplemented cells |
//!
//! Pure overwrites (register writes, line fills, TLB inserts and flushes)
//! stamp nothing: they read no cell, and a later overwrite never un-reads
//! an earlier read. Stamps are the starting cycle of the reading step plus
//! one, so `0` means *never read*.

use crate::cache::Cache;
use crate::fault::Component;
use crate::regfile::REGFILE_BITS;

/// Register-file words (the layout of [`crate::RegFile::flip_bit`]).
const REG_WORDS: usize = (REGFILE_BITS / 32) as usize;

/// Per-word read stamps of the register file.
#[derive(Clone, Debug)]
pub(crate) struct RegHorizon([u64; REG_WORDS]);

impl RegHorizon {
    pub(crate) fn new() -> RegHorizon {
        RegHorizon([0; REG_WORDS])
    }

    pub(crate) fn read(&mut self, word: usize, now: u64) {
        self.0[word] = now;
    }
}

/// Read stamps of one cache. A set's tag, valid and dirty cells are read
/// by every probe of the set, and every probe ends at one line of it — the
/// line it hit, or the victim it chose — so both kinds of stamp are kept
/// per line, one store per event, and a set's stamp is the latest over its
/// ways.
#[derive(Clone, Debug)]
pub(crate) struct CacheHorizon {
    ways: usize,
    bits_per_line: u64,
    data_bits: u64,
    /// Per line: the last step that read its data bytes (a hit, or the
    /// write-back that evicted it).
    data: Vec<u64>,
    /// Per line: the last step whose missing probe chose it as the victim.
    evicted: Vec<u64>,
}

impl CacheHorizon {
    pub(crate) fn new(cache: &Cache) -> CacheHorizon {
        CacheHorizon {
            ways: cache.ways() as usize,
            bits_per_line: cache.bits_per_line(),
            data_bits: 8 * u64::from(cache.line_bytes()),
            data: vec![0; cache.lines() as usize],
            evicted: vec![0; cache.lines() as usize],
        }
    }

    /// A probe scanned the set of line `idx` and hit it.
    pub(crate) fn hit(&mut self, idx: u32, now: u64) {
        self.data[idx as usize] = now;
    }

    /// A probe scanned the set of line `victim`, missed, and chose it for
    /// eviction; `writeback` says its bytes were read out on the way.
    pub(crate) fn miss(&mut self, victim: u32, writeback: bool, now: u64) {
        self.evicted[victim as usize] = now;
        if writeback {
            self.data[victim as usize] = now;
        }
    }

    /// Clean-invalidate: every state cell is read and any dirty line is
    /// written back. Rare (the kernel never issues one), so no attempt is
    /// made to tell which lines were dirty.
    pub(crate) fn flush_all(&mut self, now: u64) {
        self.data.fill(now);
    }

    fn total_bits(&self) -> u64 {
        self.data.len() as u64 * self.bits_per_line
    }

    /// Stamp of the granule holding `bit` (layout of [`Cache::flip_bit`]).
    fn last_read(&self, bit: u64) -> u64 {
        let line = (bit / self.bits_per_line) as usize;
        if bit % self.bits_per_line < self.data_bits {
            return self.data[line];
        }
        let first = line - line % self.ways;
        let latest = |stamps: &[u64]| {
            let set = &stamps[first..first + self.ways];
            set.iter().copied().max().unwrap_or(0)
        };
        latest(&self.data).max(latest(&self.evicted))
    }
}

/// Read stamps of one TLB. A lookup scans the slots in order and reads the
/// VPN and valid bits of each until one hits, so a slot's tag stamp is the
/// latest over the last miss (which scanned them all) and the hits on
/// itself and every later slot — one store per lookup, not one per slot.
#[derive(Clone, Debug)]
pub(crate) struct TlbHorizon {
    /// Per entry: the last lookup that hit it, reading its PPN and
    /// permission bits.
    hit: Vec<u64>,
    /// The last lookup that missed. The insert that follows a successful
    /// walk happens in the same step and scans no further.
    miss: u64,
}

impl TlbHorizon {
    pub(crate) fn new(entries: u32) -> TlbHorizon {
        TlbHorizon {
            hit: vec![0; entries as usize],
            miss: 0,
        }
    }

    /// A lookup scanned slots `0..=slot` and hit `slot`.
    pub(crate) fn hit(&mut self, slot: usize, now: u64) {
        self.hit[slot] = now;
    }

    /// A lookup scanned every slot and missed.
    pub(crate) fn miss(&mut self, now: u64) {
        self.miss = now;
    }

    /// Stamp of the granule holding `bit` (layout of [`crate::TlbEntry`]).
    fn last_read(&self, bit: u64) -> u64 {
        let slot = (bit / 64) as usize;
        match bit % 64 {
            0..=19 | 41..=43 => self.hit[slot],
            20..=40 => self.hit[slot..].iter().fold(self.miss, |a, &b| a.max(b)),
            _ => 0,
        }
    }
}

/// The read horizon of one complete fault-free run (see the module
/// documentation). Recorded by [`crate::System::horizon_attach`] /
/// [`crate::System::horizon_take`].
#[derive(Clone, Debug)]
pub struct ReadHorizon {
    pub(crate) regs: RegHorizon,
    pub(crate) l1i: CacheHorizon,
    pub(crate) l1d: CacheHorizon,
    pub(crate) l2: CacheHorizon,
    pub(crate) itlb: TlbHorizon,
    pub(crate) dtlb: TlbHorizon,
    /// Stamp of the run's final step.
    pub(crate) last_step: u64,
}

impl ReadHorizon {
    /// SRAM bits of component `c` on the tracked machine
    /// ([`crate::System::component_bits`]).
    pub fn component_bits(&self, c: Component) -> u64 {
        match c {
            Component::RegFile => REGFILE_BITS,
            Component::L1I => self.l1i.total_bits(),
            Component::L1D => self.l1d.total_bits(),
            Component::L2 => self.l2.total_bits(),
            Component::ITlb => 64 * self.itlb.hit.len() as u64,
            Component::DTlb => 64 * self.dtlb.hit.len() as u64,
        }
    }

    /// Does the tracked run read the cell at (`c`, `bit`) in any step that
    /// starts at or after `cycle`? Also `true` when not even the run's
    /// final step starts that late: a strike inside the final step lands
    /// after the tracked run has ended, where the horizon knows nothing.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the component.
    pub fn reads_from(&self, c: Component, bit: u64, cycle: u64) -> bool {
        let last_read = match c {
            Component::RegFile => self.regs.0[(bit / 32) as usize],
            Component::L1I => self.l1i.last_read(bit),
            Component::L1D => self.l1d.last_read(bit),
            Component::L2 => self.l2.last_read(bit),
            Component::ITlb => self.itlb.last_read(bit),
            Component::DTlb => self.dtlb.last_read(bit),
        };
        // Stamps are start cycle + 1: `stamp > cycle` is `start >= cycle`.
        self.last_step <= cycle || last_read > cycle
    }
}
