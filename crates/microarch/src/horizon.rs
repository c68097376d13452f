//! The read horizon: for every storage granule of the six injectable
//! arrays, the last step of a fault-free run that *read* it; for every
//! physical byte, the last step whose CPU read *consumed* it; and for every
//! cache line and TLB entry, the ledger of what it held when.
//!
//! Dead-cell pruning in `sea-injection` asks it one question — does the
//! golden run read this cell in any step that starts at or after cycle
//! `c`? ([`ReadHorizon::reads_from`]). When the answer is no for every
//! cell a strike at `c` flips, the struck machine differs from the golden
//! one only in cells no later step reads. A step's effect depends only on
//! the cells it reads, so by induction over steps the struck machine
//! executes the golden run's remaining steps exactly — writing the same
//! values to the same places, which can only *remove* the difference —
//! and ends as the golden run does. No simulation is needed to classify it,
//! and [`ReadHorizon::site_at`] says what the struck cell held without a
//! machine either.
//!
//! A granule is the unit a stamp covers; coarser is conservative. What
//! stamps which granule (the recording hooks live in [`crate::profiler`]):
//!
//! | array | granule | stamped by |
//! |---|---|---|
//! | register file | word (r0–r12, `sp_usr`, `sp_svc`, `lr`, s0–s31) | every operand read, integer and FP, and `MRS SpUsr` |
//! | cache, data bytes | line | every probe hit (load, fetch, refill to the level above; conservatively also a hit that only rewrites the line — a store, an L1D victim written into a resident L2 line — since the provenance watch calls every hit a touch), a write-back of the victim, clean-invalidate |
//! | cache, data bytes | the physical byte the line holds | a load, an instruction fetch or a page-table walk that reads that byte, whichever level serves it |
//! | cache, tag / valid / dirty | *set* | every probe of the set (its scan compares valid bits and tags way by way), the victim choice and dirty test that follow a miss, clean-invalidate |
//! | TLB, PPN + permission bits `[19:0]`, `[43:41]` | entry | a lookup that hits the entry |
//! | TLB, VPN + valid bits `[40:20]` | entry | every lookup whose scan reaches the slot (slots `0..=hit`, or all on a miss; the insert after a miss scans no further) |
//! | TLB, bits `[63:44]` | — | nothing: unimplemented cells |
//!
//! Pure overwrites (register writes, line fills, TLB inserts and flushes)
//! stamp nothing: they read no cell, and a later overwrite never un-reads
//! an earlier read. Stamps are the starting cycle of the reading step plus
//! one, so `0` means *never read*.
//!
//! A cell is dead at `c` when any of three arguments holds (the first that
//! does is its [`DeadCell`] reason):
//!
//! 1. **Unread** — its granule's stamp is at or before `c`.
//! 2. **Invalid** — its line or TLB entry is invalid at `c` (the fill
//!    ledger says so) and it is not the valid bit. Every reader tests the
//!    valid bit first — a probe, a victim choice, a write-back, a TLB scan
//!    — and a fill or insert overwrites the tag, dirty bit, data and entry
//!    word before it sets the valid bit again, so nothing reads the other
//!    cells of an invalid line or entry before they are overwritten.
//! 3. **Unconsumed** — it is a data bit of a line valid at `c`, and the
//!    physical byte that line holds there is never consumed from `c` on.
//!    Moving a line between levels — a refill, a write-back, an L1D victim
//!    written into L2, clean-invalidate — copies its bytes to the *same*
//!    physical address and decides nothing from their values: which line
//!    moves where depends on tags, valid and dirty bits and LRU ranks only.
//!    Stores replace bytes and never read them. So a corrupt byte, wherever
//!    its copies travel, can change a step only through a CPU read of its
//!    own address — a load, a fetch or a walk — and the byte stamp covers
//!    all three. The line stamp is kept beside it, not replaced: a clean
//!    eviction drops a corrupt copy before its address is read again, which
//!    only the line stamp sees.
//!
//! The fill ledger records, per cache line, `(stamp, line address |
//! invalid)` for the state at attach time and every fill and
//! clean-invalidate after it, and per TLB entry `(stamp, valid)` for every
//! insert and flush. The entry in force at a strike boundary `c` is the
//! last one a step starting before `c` wrote (stamp `≤ c`).
//!
//! The same stamps and ledger intervals count, per cell, the strike cycles
//! at which it is *not* dead ([`ReadHorizon::live_cycles`]). Summed over a
//! component and divided by its bits × the run's cycles, that is the
//! probability that a uniform campaign strike survives pruning — the
//! predicted AVF the profiler reports ([`ReadHorizon::report`]). Every
//! strike it leaves out is Masked, so it bounds the measured AVF from
//! above, strike by strike.

use crate::cache::{ArrayKind, Cache};
use crate::fault::{Component, InjectionSite};
use crate::mmu::{PAGE_BYTES, PAGE_SHIFT};
use crate::regfile::REGFILE_BITS;
use crate::tlb::Tlb;
use sea_profile::StructureReport;

/// Register-file words (the layout of [`crate::RegFile::flip_bit`]).
const REG_WORDS: usize = (REGFILE_BITS / 32) as usize;

/// The fill ledger's line address for "invalid": line bases are
/// line-aligned, so bit 0 of a real one is clear.
const INVALID: u32 = 1;

/// Which argument calls a cell dead ([`ReadHorizon::dead_at`]), in the order
/// they are tried. A strike of several cells is dead by the latest argument
/// any of its cells needed (the maximum).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DeadCell {
    /// No step reads its granule from the strike on.
    Unread,
    /// Its cache line or TLB entry is invalid, and it is not the valid bit.
    Invalid,
    /// A data bit of a valid line whose physical byte no CPU read consumes
    /// from the strike on.
    Unconsumed,
}

/// A page of zero ("never consumed") stamps, allocated zeroed.
#[cold]
fn fresh_page() -> Box<Page> {
    vec![0; PAGE_BYTES as usize]
        .into_boxed_slice()
        .try_into()
        .expect("a page of stamps")
}

/// The ledger entry in force at the step boundary of `cycle`: the last one
/// written by a step that started before `cycle`.
fn in_force<T: Copy>(ledger: &[(u64, T)], cycle: u64) -> Option<T> {
    let n = ledger.partition_point(|&(stamp, _)| stamp <= cycle);
    n.checked_sub(1).map(|i| ledger[i].1)
}

/// Cycles `t < until` spent in the ledger's entries that `keep` accepts,
/// each entry cut short at the cycle `keep` returns for it: entry `i` is in
/// force over `[stamp_i, stamp_i+1)`, the last one to the end of time.
fn cycles_in<T: Copy>(ledger: &[(u64, T)], until: u64, keep: impl Fn(T) -> Option<u64>) -> u64 {
    let ends = ledger.iter().skip(1).map(|&(stamp, _)| stamp);
    ledger
        .iter()
        .zip(ends.chain([u64::MAX]))
        .filter_map(|(&(from, v), to)| Some(to.min(until).min(keep(v)?).saturating_sub(from)))
        .sum()
}

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

/// Per-physical-byte consumption stamps, one `u32` per byte in 4 KiB pages
/// allocated on first touch. A stamp past `u32::MAX` saturates there, and a
/// saturated stamp reads as "consumed later than any cycle" — conservative.
#[derive(Clone, Debug)]
pub(crate) struct ByteHorizon {
    pages: Vec<Option<Box<Page>>>,
}

/// Consumption stamps of one 4 KiB page.
type Page = [u32; PAGE_BYTES as usize];

impl ByteHorizon {
    pub(crate) fn new(mem_bytes: u32) -> ByteHorizon {
        ByteHorizon {
            pages: vec![None; mem_bytes.div_ceil(PAGE_BYTES) as usize],
        }
    }

    /// A CPU read consumed `bytes` (1, 2 or 4, aligned, so within one page)
    /// at `paddr`. Called for every load and fetch of a recorded run, so the
    /// sizes are spelled out: each arm is a fixed-length store.
    #[inline]
    pub(crate) fn consume(&mut self, paddr: u32, bytes: u32, now: u64) {
        let Some(slot) = self.pages.get_mut((paddr >> PAGE_SHIFT) as usize) else {
            return;
        };
        let page = match slot {
            Some(page) => page,
            None => slot.insert(fresh_page()),
        };
        let stamp = now.min(u64::from(u32::MAX)) as u32;
        let off = (paddr & (PAGE_BYTES - 1)) as usize;
        match bytes {
            4 => page[off & !3..][..4].fill(stamp),
            2 => page[off & !1..][..2].fill(stamp),
            _ => page[off] = stamp,
        }
    }

    /// The first strike boundary from which no CPU read consumes the byte
    /// at `paddr` (`u64::MAX` for a saturated stamp): a step that starts at
    /// or after `cycle` consumes it exactly when `cycle` is below this.
    fn consumed_until(&self, paddr: u32) -> u64 {
        let stamp = self
            .pages
            .get((paddr >> PAGE_SHIFT) as usize)
            .and_then(Option::as_deref)
            .map_or(0, |page: &Page| page[(paddr & (PAGE_BYTES - 1)) as usize]);
        if stamp == u32::MAX {
            u64::MAX
        } else {
            u64::from(stamp)
        }
    }
}

/// Read stamps and fill ledger of one cache. A set's tag, valid and dirty
/// cells are read by every probe of the set, and every probe ends at one
/// line of it — the line it hit, or the victim it chose — so both kinds of
/// stamp are kept per line, one store per event, and a set's stamp is the
/// latest over its ways.
#[derive(Clone, Debug)]
pub(crate) struct CacheHorizon {
    ways: usize,
    bits_per_line: u64,
    data_bits: u64,
    tag_bits: u64,
    /// Per line: the last step that read its data bytes (a hit, or the
    /// write-back that evicted it).
    data: Vec<u64>,
    /// Per line: the last step whose missing probe chose it as the victim.
    evicted: Vec<u64>,
    /// Per line, in stamp order: `(stamp, line base | INVALID)`.
    ledger: Vec<Vec<(u64, u32)>>,
}

impl CacheHorizon {
    pub(crate) fn new(cache: &Cache) -> CacheHorizon {
        let data_bits = 8 * u64::from(cache.line_bytes());
        CacheHorizon {
            ways: cache.ways() as usize,
            bits_per_line: cache.bits_per_line(),
            data_bits,
            tag_bits: u64::from(cache.tag_bits()),
            data: vec![0; cache.lines() as usize],
            evicted: vec![0; cache.lines() as usize],
            ledger: (0..cache.lines())
                .map(|i| cache.line_addr(i).map(|a| (0, a)).into_iter().collect())
                .collect(),
        }
    }

    /// A probe scanned the set of line `idx` and hit it.
    pub(crate) fn hit(&mut self, idx: u32, now: u64) {
        self.data[idx as usize] = now;
    }

    /// A probe scanned the set of line `victim`, missed, and chose it for
    /// eviction; `writeback` says its bytes were read out on the way. The
    /// refill that follows in the same step installs the line of `paddr`.
    pub(crate) fn miss(&mut self, victim: u32, paddr: u32, writeback: bool, now: u64) {
        let v = victim as usize;
        self.evicted[v] = now;
        if writeback {
            self.data[v] = now;
        }
        let line_bytes = (self.data_bits / 8) as u32;
        self.ledger[v].push((now, paddr & !(line_bytes - 1)));
    }

    /// Clean-invalidate: every state cell is read and any dirty line is
    /// written back. Rare (the kernel never issues one), so no attempt is
    /// made to tell which lines were dirty.
    pub(crate) fn flush_all(&mut self, now: u64) {
        self.data.fill(now);
        for ledger in &mut self.ledger {
            if ledger.last().is_some_and(|&(_, a)| a != INVALID) {
                ledger.push((now, INVALID));
            }
        }
    }

    fn total_bits(&self) -> u64 {
        self.data.len() as u64 * self.bits_per_line
    }

    /// Base address of line `line` at the step boundary of `cycle`, `None`
    /// while it is invalid.
    fn line_at(&self, line: usize, cycle: u64) -> Option<u32> {
        in_force(&self.ledger[line], cycle).filter(|&a| a != INVALID)
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

    fn dead_at(&self, bit: u64, cycle: u64, bytes: &ByteHorizon) -> Option<DeadCell> {
        if self.last_read(bit) <= cycle {
            return Some(DeadCell::Unread);
        }
        let within = bit % self.bits_per_line;
        match self.line_at((bit / self.bits_per_line) as usize, cycle) {
            None if within != self.data_bits + self.tag_bits => Some(DeadCell::Invalid),
            Some(base)
                if within < self.data_bits
                    && bytes.consumed_until(base + (within / 8) as u32) <= cycle =>
            {
                Some(DeadCell::Unconsumed)
            }
            _ => None,
        }
    }

    /// The boundaries `t < known` at which [`CacheHorizon::dead_at`] is
    /// `None`: before the granule's last read, and — but for the valid bit
    /// — while the line is valid, and for a data bit while its byte is
    /// still consumed.
    fn live_cycles(&self, bit: u64, known: u64, bytes: &ByteHorizon) -> u64 {
        let until = self.last_read(bit).min(known);
        let within = bit % self.bits_per_line;
        if within == self.data_bits + self.tag_bits {
            return until;
        }
        let byte = (within < self.data_bits).then_some((within / 8) as u32);
        let ledger = &self.ledger[(bit / self.bits_per_line) as usize];
        cycles_in(ledger, until, |base| {
            let valid = base != INVALID;
            valid.then(|| byte.map_or(u64::MAX, |b| bytes.consumed_until(base + b)))
        })
    }

    /// Σ over lines of the cycles `t < end` the line is valid.
    fn valid_cycles(&self, end: u64) -> u64 {
        let valid = |base| (base != INVALID).then_some(u64::MAX);
        self.ledger.iter().map(|l| cycles_in(l, end, valid)).sum()
    }

    /// What [`Cache::bit_info`] says of `bit` at the step boundary of
    /// `cycle`.
    fn site_at(&self, bit: u64, cycle: u64) -> (ArrayKind, bool) {
        let within = bit % self.bits_per_line;
        let array = if within < self.data_bits {
            ArrayKind::Data
        } else if within < self.data_bits + self.tag_bits {
            ArrayKind::Tag
        } else {
            ArrayKind::State
        };
        let line = (bit / self.bits_per_line) as usize;
        (array, self.line_at(line, cycle).is_some())
    }
}

/// Read stamps and fill ledger of one TLB. A lookup scans the slots in
/// order and reads the VPN and valid bits of each until one hits, so a
/// slot's tag stamp is the latest over the last miss (which scanned them
/// all) and the hits on itself and every later slot — one store per lookup,
/// not one per slot.
#[derive(Clone, Debug)]
pub(crate) struct TlbHorizon {
    /// Per entry: the last lookup that hit it, reading its PPN and
    /// permission bits.
    hit: Vec<u64>,
    /// The last lookup that missed. The insert that follows a successful
    /// walk happens in the same step and scans no further.
    miss: u64,
    /// Per entry, in stamp order: `(stamp, valid)`.
    ledger: Vec<Vec<(u64, bool)>>,
}

impl TlbHorizon {
    pub(crate) fn new(tlb: &Tlb) -> TlbHorizon {
        let entries = (tlb.total_bits() / 64) as usize;
        TlbHorizon {
            hit: vec![0; entries],
            miss: 0,
            ledger: (0..entries)
                .map(|i| {
                    let valid = tlb.bit_info(64 * i as u64).1;
                    valid.then_some((0, true)).into_iter().collect()
                })
                .collect(),
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

    /// A walked translation was inserted into `slot`.
    pub(crate) fn fill(&mut self, slot: usize, now: u64) {
        self.ledger[slot].push((now, true));
    }

    /// Every entry was invalidated.
    pub(crate) fn flush_all(&mut self, now: u64) {
        for ledger in &mut self.ledger {
            if ledger.last().is_some_and(|&(_, valid)| valid) {
                ledger.push((now, false));
            }
        }
    }

    fn valid_at(&self, slot: usize, cycle: u64) -> bool {
        in_force(&self.ledger[slot], cycle).unwrap_or(false)
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

    fn dead_at(&self, bit: u64, cycle: u64) -> Option<DeadCell> {
        if self.last_read(bit) <= cycle {
            Some(DeadCell::Unread)
        } else if bit % 64 != 40 && !self.valid_at((bit / 64) as usize, cycle) {
            Some(DeadCell::Invalid)
        } else {
            None
        }
    }

    /// The boundaries `t < known` at which [`TlbHorizon::dead_at`] is
    /// `None`: before the granule's last read and, but for the valid bit,
    /// while the entry is valid.
    fn live_cycles(&self, bit: u64, known: u64) -> u64 {
        let until = self.last_read(bit).min(known);
        if bit % 64 == 40 {
            return until;
        }
        let valid = |v: bool| v.then_some(u64::MAX);
        cycles_in(&self.ledger[(bit / 64) as usize], until, valid)
    }

    /// Σ over entries of the cycles `t < end` the entry is valid.
    fn valid_cycles(&self, end: u64) -> u64 {
        let valid = |v: bool| v.then_some(u64::MAX);
        self.ledger.iter().map(|l| cycles_in(l, end, valid)).sum()
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
    pub(crate) bytes: ByteHorizon,
    /// Stamp of the run's final step.
    pub(crate) last_step: u64,
    /// The cycle count the run ended at: strikes are drawn from
    /// `[0, end)`.
    pub(crate) end: u64,
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
        self.dead_at(c, bit, cycle).is_none()
    }

    /// Why the cell at (`c`, `bit`) is dead at `cycle` — `None` exactly
    /// when [`ReadHorizon::reads_from`] is `true`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the component.
    pub fn dead_at(&self, c: Component, bit: u64, cycle: u64) -> Option<DeadCell> {
        assert!(bit < self.component_bits(c), "{c} bit index out of range");
        // Stamps are start cycle + 1: `stamp > cycle` is `start >= cycle`.
        if self.last_step <= cycle {
            return None;
        }
        match c {
            Component::RegFile => {
                (self.regs.0[(bit / 32) as usize] <= cycle).then_some(DeadCell::Unread)
            }
            Component::L1I => self.l1i.dead_at(bit, cycle, &self.bytes),
            Component::L1D => self.l1d.dead_at(bit, cycle, &self.bytes),
            Component::L2 => self.l2.dead_at(bit, cycle, &self.bytes),
            Component::ITlb => self.itlb.dead_at(bit, cycle),
            Component::DTlb => self.dtlb.dead_at(bit, cycle),
        }
    }

    /// How many strike boundaries `t` in `[0, end)`, `end` the tracked
    /// run's cycle count, leave the cell at (`c`, `bit`) live: the `t` at
    /// which [`ReadHorizon::dead_at`] is `None`. Counted from the granule's
    /// stamps and the fill ledger's intervals, not by scanning cycles.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the component.
    pub fn live_cycles(&self, c: Component, bit: u64) -> u64 {
        assert!(bit < self.component_bits(c), "{c} bit index out of range");
        // From the start of the final step on, every boundary is live.
        let known = self.last_step.min(self.end);
        let before = match c {
            Component::RegFile => self.regs.0[(bit / 32) as usize].min(known),
            Component::L1I => self.l1i.live_cycles(bit, known, &self.bytes),
            Component::L1D => self.l1d.live_cycles(bit, known, &self.bytes),
            Component::L2 => self.l2.live_cycles(bit, known, &self.bytes),
            Component::ITlb => self.itlb.live_cycles(bit, known),
            Component::DTlb => self.dtlb.live_cycles(bit, known),
        };
        before + (self.end - known)
    }

    /// [`ReadHorizon::live_cycles`] summed over every bit of `c`.
    pub fn component_live_cycles(&self, c: Component) -> u64 {
        (0..self.component_bits(c))
            .map(|bit| self.live_cycles(c, bit))
            .sum()
    }

    /// The liveness report of `c` over the tracked run: its predicted AVF
    /// is the share of uniform strikes (bit × cycle in `[0, end)`) that
    /// dead-cell pruning must simulate, its occupancy the time-weighted
    /// share of lines or entries the fill ledger holds valid (the register
    /// file is always full).
    pub fn report(&self, c: Component) -> StructureReport {
        let (slots, valid_slot_cycles) = match c {
            Component::RegFile => (REG_WORDS as u64, REG_WORDS as u64 * self.end),
            Component::L1I => (self.l1i.data.len() as u64, self.l1i.valid_cycles(self.end)),
            Component::L1D => (self.l1d.data.len() as u64, self.l1d.valid_cycles(self.end)),
            Component::L2 => (self.l2.data.len() as u64, self.l2.valid_cycles(self.end)),
            Component::ITlb => (self.itlb.hit.len() as u64, self.itlb.valid_cycles(self.end)),
            Component::DTlb => (self.dtlb.hit.len() as u64, self.dtlb.valid_cycles(self.end)),
        };
        StructureReport {
            name: c.short_name().to_string(),
            slots,
            bits: self.component_bits(c),
            live_bit_cycles: self.component_live_cycles(c),
            valid_slot_cycles,
            total_cycles: self.end,
        }
    }

    /// What [`crate::System::site_of`] reports for (`c`, `bit`) on the
    /// tracked machine at the step boundary of `cycle` — the array from the
    /// geometry, `was_valid` from the fill ledger — with no machine.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the component.
    pub fn site_at(&self, c: Component, bit: u64, cycle: u64) -> InjectionSite {
        assert!(bit < self.component_bits(c), "{c} bit index out of range");
        let tlb = |h: &TlbHorizon| {
            let array = if crate::TlbEntry::bit_is_tag((bit % 64) as u32) {
                ArrayKind::Tag
            } else {
                ArrayKind::Data
            };
            (array, h.valid_at((bit / 64) as usize, cycle))
        };
        let (array, was_valid) = match c {
            Component::RegFile => (ArrayKind::Data, true),
            Component::L1I => self.l1i.site_at(bit, cycle),
            Component::L1D => self.l1d.site_at(bit, cycle),
            Component::L2 => self.l2.site_at(bit, cycle),
            Component::ITlb => tlb(&self.itlb),
            Component::DTlb => tlb(&self.dtlb),
        };
        InjectionSite {
            component: c,
            bit,
            array,
            was_valid,
        }
    }

    /// Base address of line `line` of cache `c` at the step boundary of
    /// `cycle`, `None` while it is invalid — the fill ledger's view of
    /// [`Cache::line_addr`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a cache or `line` is outside it.
    pub fn line_at(&self, c: Component, line: u32, cycle: u64) -> Option<u32> {
        let cache = match c {
            Component::L1I => &self.l1i,
            Component::L1D => &self.l1d,
            Component::L2 => &self.l2,
            _ => panic!("{c} is not a cache"),
        };
        cache.line_at(line as usize, cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    const L1D: Component = Component::L1D;

    /// One set of two 32-byte lines.
    fn cache() -> Cache {
        let cfg = CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 32,
        };
        Cache::new(cfg, true)
    }

    /// A horizon over [`cache`]-sized caches, one-entry TLBs and one page
    /// of bytes, for a run that ends at cycle 100 after a one-cycle final
    /// step. `record` plays the L1D's events; `l1d` is its state at attach.
    fn horizon(
        l1d: &Cache,
        record: impl FnOnce(&mut CacheHorizon, &mut ByteHorizon),
    ) -> ReadHorizon {
        let (mut l1d, mut bytes) = (CacheHorizon::new(l1d), ByteHorizon::new(PAGE_BYTES));
        record(&mut l1d, &mut bytes);
        ReadHorizon {
            regs: RegHorizon::new(),
            l1i: CacheHorizon::new(&cache()),
            l1d,
            l2: CacheHorizon::new(&cache()),
            itlb: TlbHorizon::new(&Tlb::new(1)),
            dtlb: TlbHorizon::new(&Tlb::new(1)),
            bytes,
            last_step: 100,
            end: 100,
        }
    }

    /// `live_cycles` of (`c`, `bit`), checked against a scan of `dead_at`.
    fn live(h: &ReadHorizon, c: Component, bit: u64) -> u64 {
        let scanned = (0..h.end).filter(|&t| h.dead_at(c, bit, t).is_none());
        assert_eq!(
            h.live_cycles(c, bit),
            scanned.count() as u64,
            "{c} bit {bit}"
        );
        h.live_cycles(c, bit)
    }

    /// Cells of line 0 of [`cache`]: the first data bit, the first of its
    /// 27 tag bits, and its valid bit.
    const DATA0: u64 = 0;
    const TAG0: u64 = 256;
    const VALID0: u64 = 256 + 27;

    #[test]
    fn a_word_is_live_until_its_last_read() {
        let mut h = horizon(&cache(), |_, _| {});
        h.regs.read(3, 41); // the step starting at cycle 40
        assert_eq!(live(&h, Component::RegFile, 3 * 32 + 5), 41);
        assert_eq!(live(&h, Component::RegFile, 4 * 32), 0);
        // Past the start of the final step, every boundary is live.
        h.last_step = 90;
        assert_eq!(live(&h, Component::RegFile, 3 * 32), 41 + 10);
        assert_eq!(live(&h, Component::RegFile, 4 * 32), 10);
    }

    #[test]
    fn a_write_back_keeps_the_victims_data_live_to_the_eviction() {
        let run = |writeback| {
            horizon(&cache(), |l1d, bytes| {
                l1d.miss(0, 0x100, false, 1); // filled by the step at 0
                l1d.hit(0, 11);
                bytes.consume(0x100, 4, 11);
                l1d.miss(0, 0x200, writeback, 51); // evicted at 50
                bytes.consume(0x100, 4, 81); // the address is read again
            })
        };
        // Clean: the copy dies with the last hit. Dirty: its bytes are read
        // out at the eviction, and the address is consumed afterwards.
        assert_eq!(live(&run(false), L1D, DATA0), 10);
        assert_eq!(live(&run(true), L1D, DATA0), 50);
        // The state cells are read by both probes either way.
        let h = run(false);
        assert_eq!(live(&h, L1D, TAG0), 50);
        assert_eq!(live(&h, L1D, VALID0), 51);
    }

    #[test]
    fn a_line_valid_at_attach_is_in_the_ledger_from_cycle_zero() {
        let mut resident = cache();
        resident.fill(0, 0x100, &[0; 32], false);
        let h = horizon(&resident, |l1d, bytes| {
            l1d.hit(0, 31);
            bytes.consume(0x100, 1, 61);
        });
        assert_eq!(live(&h, L1D, TAG0), 31);
        assert_eq!(live(&h, L1D, DATA0), 31);
        assert_eq!(h.report(L1D).valid_slot_cycles, 100, "one of two lines");
        assert_eq!(h.report(L1D).occupancy(), 0.5);
    }

    #[test]
    fn a_flush_ends_every_lines_valid_interval() {
        let h = horizon(&cache(), |l1d, bytes| {
            l1d.miss(1, 0x120, false, 1);
            bytes.consume(0x120, 4, 1);
            l1d.flush_all(21);
        });
        let line1 = h.l1d.bits_per_line;
        // The flush reads every state cell and ends the line's validity.
        assert_eq!(live(&h, L1D, line1 + TAG0), 20);
        assert_eq!(live(&h, L1D, line1 + VALID0), 21);
        assert_eq!(live(&h, L1D, line1 + DATA0), 0, "never consumed again");
        let r = h.report(L1D);
        assert_eq!(r.valid_slot_cycles, 20);
        let bits: u64 = (0..r.bits).map(|b| live(&h, L1D, b)).sum();
        assert_eq!(r.live_bit_cycles, bits);
    }
}
