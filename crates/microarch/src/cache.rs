//! Set-associative, write-back, write-allocate cache model.
//!
//! The cache stores real data bytes, tags and state bits, so an injected
//! bit flip corrupts exactly the SRAM cell a neutron strike would: data
//! flips surface when the word is next read (or written back), tag flips
//! re-home a line to a different physical address, and state flips drop or
//! resurrect lines.

use crate::config::CacheConfig;

/// Result of a cache probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Line present; payload is the line index.
    Hit(u32),
    /// Line absent.
    Miss,
}

/// Where within a cache line an injected bit landed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrayKind {
    /// The data array.
    Data,
    /// The tag array.
    Tag,
    /// Valid/dirty state bits.
    State,
}

impl ArrayKind {
    /// Stable lowercase name (used in trace records).
    pub fn name(self) -> &'static str {
        match self {
            ArrayKind::Data => "data",
            ArrayKind::Tag => "tag",
            ArrayKind::State => "state",
        }
    }

    /// Parse an array kind from its [`name`](ArrayKind::name) (used when
    /// decoding journal records).
    pub fn from_name(s: &str) -> Option<ArrayKind> {
        [ArrayKind::Data, ArrayKind::Tag, ArrayKind::State]
            .into_iter()
            .find(|k| k.name() == s)
    }
}

/// Outcome of a fault injection into a cache array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlipInfo {
    /// Which array the bit belonged to.
    pub array: ArrayKind,
    /// Whether the affected line held valid data at flip time (an invalid
    /// line's data/tag bits are dead and the fault is architecturally
    /// masked).
    pub was_valid: bool,
}

/// Fault-provenance observations on the watched line since the last
/// [`Cache::take_watch_report`] (see the `provenance` module): what happened
/// to the cache line holding injected corruption.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WatchReport {
    /// The watched line was hit by a probe (its bytes were consumed or
    /// partially overwritten — either way the corruption was activated).
    pub touched: bool,
    /// The watched line was evicted with a write-back: the corruption moved
    /// to the next level. The watch is cleared; the caller re-arms it at
    /// the destination.
    pub evicted_writeback: bool,
    /// The watched line was evicted or overwritten without a write-back:
    /// the corrupted copy is gone from this cache.
    pub evicted_dropped: bool,
    /// Line base address the write-back targeted (set with
    /// `evicted_writeback`), so the caller can re-arm at the next level.
    pub writeback_addr: Option<u32>,
}

impl WatchReport {
    /// Any observation recorded?
    pub fn any(&self) -> bool {
        self.touched || self.evicted_writeback || self.evicted_dropped
    }
}

/// One set-associative cache.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: u32,
    ways: u32,
    line_bytes: u32,
    off_bits: u32,
    set_bits: u32,
    /// Per line: physical address of the line base (tag + set, line-aligned).
    addr: Vec<u32>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    /// Per line: LRU rank within its set (0 = most recent).
    rank: Vec<u8>,
    /// Flat data array: `lines × line_bytes`.
    data: Vec<u8>,
    /// When false (L1I), evictions never write back even if a corrupted
    /// dirty bit says otherwise — the hardware has no write-back port.
    writeback: bool,
    /// Fault-provenance watch: line index holding injected corruption.
    watch: Option<u32>,
    /// Observations on the watched line since the last drain.
    report: WatchReport,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub fn new(cfg: CacheConfig, writeback: bool) -> Cache {
        assert!(cfg.validate(), "invalid cache geometry: {cfg:?}");
        let lines = cfg.lines();
        let mut rank = vec![0u8; lines as usize];
        // Ranks must form a permutation within each set (line index is
        // `set * ways + way`, so the way index seeds it).
        for (i, r) in rank.iter_mut().enumerate() {
            *r = (i as u32 % cfg.ways) as u8;
        }
        Cache {
            sets: cfg.sets(),
            ways: cfg.ways,
            line_bytes: cfg.line_bytes,
            off_bits: cfg.line_bytes.trailing_zeros(),
            set_bits: cfg.sets().trailing_zeros(),
            addr: vec![0; lines as usize],
            valid: vec![false; lines as usize],
            dirty: vec![false; lines as usize],
            rank,
            data: vec![0; (lines * cfg.line_bytes) as usize],
            writeback,
            watch: None,
            report: WatchReport::default(),
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.sets * self.ways
    }

    /// Associativity: line `idx` belongs to set `idx / ways()`.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    fn set_of(&self, paddr: u32) -> u32 {
        (paddr >> self.off_bits) & (self.sets - 1)
    }

    fn line_index(&self, set: u32, way: u32) -> u32 {
        set * self.ways + way
    }

    fn touch(&mut self, set: u32, way: u32) {
        let idx = self.line_index(set, way) as usize;
        let old = self.rank[idx];
        for w in 0..self.ways {
            let i = self.line_index(set, w) as usize;
            if self.rank[i] < old {
                self.rank[i] += 1;
            }
        }
        self.rank[idx] = 0;
    }

    /// Probes for `paddr`, updating LRU on a hit.
    pub fn probe(&mut self, paddr: u32) -> Probe {
        let base = paddr & !(self.line_bytes - 1);
        let set = self.set_of(paddr);
        for way in 0..self.ways {
            let idx = self.line_index(set, way);
            if self.valid[idx as usize] && self.addr[idx as usize] == base {
                self.touch(set, way);
                if self.watch == Some(idx) {
                    self.report.touched = true;
                }
                return Probe::Hit(idx);
            }
        }
        Probe::Miss
    }

    /// Bit-exact repeat-hit shortcut: serves `paddr` from line `idx` (a
    /// line some earlier [`Cache::probe`] hit for the same base) without
    /// the set scan, provided the line is still valid, still holds
    /// `paddr`'s base, and is already its set's most-recent way. With
    /// `rank == 0`, [`Cache::touch`] is a no-op — the one case where
    /// skipping it changes nothing — and the watch report is updated
    /// exactly as a scan hit would. Any intervening fill, eviction,
    /// flush or injected flip breaks one of the three conditions and the
    /// caller falls back to the reference [`Cache::probe`].
    ///
    /// Duplicate tags (two ways of a set holding the same base, reachable
    /// only through tag flips — fills only happen after a whole-set miss)
    /// cannot desynchronize this from `probe`'s first-match scan order:
    /// callers latch `idx` from a `probe`/[`Cache::find_line`] result
    /// (both first-match) and drop every latch on `flip_bit`.
    pub fn hit_mru(&mut self, idx: u32, paddr: u32) -> bool {
        let i = idx as usize;
        let base = paddr & !(self.line_bytes - 1);
        if !self.valid[i] || self.addr[i] != base || self.rank[i] != 0 {
            return false;
        }
        if self.watch == Some(idx) {
            self.report.touched = true;
        }
        true
    }

    /// Selects (and logically evicts) the LRU victim line for `paddr`.
    ///
    /// Returns the line index to fill and, if the victim was valid and dirty
    /// (and this cache has a write-back port), its base address and data to
    /// push to the next level.
    pub fn evict_for(&mut self, paddr: u32) -> (u32, Option<(u32, Vec<u8>)>) {
        let set = self.set_of(paddr);
        let mut victim_way = 0;
        let mut worst = 0;
        for way in 0..self.ways {
            let idx = self.line_index(set, way) as usize;
            if !self.valid[idx] {
                victim_way = way;
                break;
            }
            if self.rank[idx] >= worst {
                worst = self.rank[idx];
                victim_way = way;
            }
        }
        let idx = self.line_index(set, victim_way);
        let i = idx as usize;
        let wb = if self.valid[i] && self.dirty[i] && self.writeback {
            let lb = self.line_bytes as usize;
            Some((self.addr[i], self.data[i * lb..(i + 1) * lb].to_vec()))
        } else {
            None
        };
        if self.watch == Some(idx) {
            if let Some((addr, _)) = wb {
                self.report.evicted_writeback = true;
                self.report.writeback_addr = Some(addr);
            } else {
                self.report.evicted_dropped = true;
            }
            self.watch = None;
        }
        self.valid[i] = false;
        self.dirty[i] = false;
        (idx, wb)
    }

    /// Installs a line.
    pub fn fill(&mut self, idx: u32, paddr: u32, line: &[u8], dirty: bool) {
        debug_assert_eq!(line.len(), self.line_bytes as usize);
        if self.watch == Some(idx) {
            // A fill over the watched line without a prior eviction (direct
            // refill) overwrites the corrupted copy.
            self.report.evicted_dropped = true;
            self.watch = None;
        }
        let i = idx as usize;
        let base = paddr & !(self.line_bytes - 1);
        self.addr[i] = base;
        self.valid[i] = true;
        self.dirty[i] = dirty;
        let lb = self.line_bytes as usize;
        self.data[i * lb..(i + 1) * lb].copy_from_slice(line);
        let set = self.set_of(paddr);
        let way = idx - set * self.ways;
        self.touch(set, way);
    }

    /// Reads up to 4 bytes from a resident line.
    pub fn read(&self, idx: u32, paddr: u32, bytes: u32) -> u32 {
        let off = (paddr & (self.line_bytes - 1)) as usize;
        let base = idx as usize * self.line_bytes as usize + off;
        // Little-endian assembly either way; the sized arms just do it in
        // one bounds check instead of one per byte (this is the hottest
        // load in the simulator — every fetch and every data hit).
        match bytes {
            4 => u32::from_le_bytes(self.data[base..base + 4].try_into().unwrap()),
            2 => u16::from_le_bytes(self.data[base..base + 2].try_into().unwrap()) as u32,
            1 => self.data[base] as u32,
            _ => {
                let mut v = 0u32;
                for b in 0..bytes as usize {
                    v |= (self.data[base + b] as u32) << (8 * b);
                }
                v
            }
        }
    }

    /// Writes up to 4 bytes into a resident line, marking it dirty.
    pub fn write(&mut self, idx: u32, paddr: u32, bytes: u32, value: u32) {
        let off = (paddr & (self.line_bytes - 1)) as usize;
        let base = idx as usize * self.line_bytes as usize + off;
        match bytes {
            4 => self.data[base..base + 4].copy_from_slice(&value.to_le_bytes()),
            2 => self.data[base..base + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            1 => self.data[base] = value as u8,
            _ => {
                for b in 0..bytes as usize {
                    self.data[base + b] = (value >> (8 * b)) as u8;
                }
            }
        }
        self.dirty[idx as usize] = true;
    }

    /// Copies a whole resident line out.
    pub fn read_full_line(&self, idx: u32, buf: &mut [u8]) {
        let lb = self.line_bytes as usize;
        let i = idx as usize;
        buf.copy_from_slice(&self.data[i * lb..(i + 1) * lb]);
    }

    /// Overwrites a whole resident line (write-back from an upper level),
    /// marking it dirty.
    pub fn write_full_line(&mut self, idx: u32, buf: &[u8]) {
        let lb = self.line_bytes as usize;
        let i = idx as usize;
        self.data[i * lb..(i + 1) * lb].copy_from_slice(buf);
        self.dirty[i] = true;
    }

    /// Drains every valid dirty line through `sink(addr, data)` and
    /// invalidates the whole cache.
    pub fn clean_invalidate_all(&mut self, mut sink: impl FnMut(u32, &[u8])) {
        let lb = self.line_bytes as usize;
        for i in 0..self.lines() as usize {
            if self.valid[i] && self.dirty[i] && self.writeback {
                sink(self.addr[i], &self.data[i * lb..(i + 1) * lb]);
                if self.watch == Some(i as u32) {
                    self.report.evicted_writeback = true;
                    self.report.writeback_addr = Some(self.addr[i]);
                    self.watch = None;
                }
            }
            self.valid[i] = false;
            self.dirty[i] = false;
        }
        if self.watch.take().is_some() {
            self.report.evicted_dropped = true;
        }
    }

    // ----- fault-injection surface ------------------------------------------

    /// Tag bits per line that a particle can disturb: the address bits above
    /// the set index and line offset.
    pub fn tag_bits(&self) -> u32 {
        32 - self.set_bits - self.off_bits
    }

    /// SRAM bits per line: data + tag + valid + dirty.
    pub fn bits_per_line(&self) -> u64 {
        8 * self.line_bytes as u64 + self.tag_bits() as u64 + 2
    }

    /// Total SRAM bits in this cache.
    pub fn total_bits(&self) -> u64 {
        self.lines() as u64 * self.bits_per_line()
    }

    /// What [`Cache::flip_bit`] would report for `bit`, without flipping
    /// it: the array it belongs to and whether its line is valid now.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= total_bits()`.
    pub fn bit_info(&self, bit: u64) -> FlipInfo {
        assert!(bit < self.total_bits(), "cache bit index out of range");
        let per = self.bits_per_line();
        let within = bit % per;
        let data_bits = 8 * self.line_bytes as u64;
        FlipInfo {
            array: if within < data_bits {
                ArrayKind::Data
            } else if within < data_bits + self.tag_bits() as u64 {
                ArrayKind::Tag
            } else {
                ArrayKind::State
            },
            was_valid: self.valid[(bit / per) as usize],
        }
    }

    /// Flips one SRAM bit, addressed uniformly over the whole array.
    ///
    /// Bit index layout per line: `[0, 8·line)` data, then tag bits (LSB
    /// first, i.e. bit 0 of the tag region flips physical address bit
    /// `set_bits + off_bits`), then valid, then dirty.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= total_bits()`.
    pub fn flip_bit(&mut self, bit: u64) -> FlipInfo {
        let info = self.bit_info(bit);
        let per = self.bits_per_line();
        let line = (bit / per) as usize;
        let within = bit % per;
        let data_bits = 8 * self.line_bytes as u64;
        match info.array {
            ArrayKind::Data => {
                let byte = line * self.line_bytes as usize + (within / 8) as usize;
                self.data[byte] ^= 1 << (within % 8);
            }
            ArrayKind::Tag => {
                let tagbit = (within - data_bits) as u32;
                self.addr[line] ^= 1 << (self.set_bits + self.off_bits + tagbit);
            }
            ArrayKind::State if within == data_bits + self.tag_bits() as u64 => {
                self.valid[line] = !self.valid[line];
            }
            ArrayKind::State => self.dirty[line] = !self.dirty[line],
        }
        info
    }

    /// Non-mutating probe + read, for debug observers: returns the value if
    /// the line is resident, without touching LRU state.
    pub fn peek(&self, paddr: u32, bytes: u32) -> Option<u32> {
        let base = paddr & !(self.line_bytes - 1);
        let set = self.set_of(paddr);
        for way in 0..self.ways {
            let idx = self.line_index(set, way) as usize;
            if self.valid[idx] && self.addr[idx] == base {
                return Some(self.read(idx as u32, paddr, bytes));
            }
        }
        None
    }

    /// Number of currently valid lines (used by the beam model's
    /// kernel-residency estimator).
    pub fn valid_lines(&self) -> u32 {
        self.valid.iter().filter(|v| **v).count() as u32
    }

    /// Iterates over the base addresses of all valid lines.
    pub fn valid_line_addrs(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.lines() as usize)
            .filter(|&i| self.valid[i])
            .map(move |i| self.addr[i])
    }

    /// Live-state equality (see [`crate::System::converges_with`]): every
    /// cell this model can still consult agrees with `other`. Geometry,
    /// `valid` and the LRU `rank` of *every* line are compared — victim
    /// choice and the LRU `touch` read the ranks of invalid ways too — but
    /// tag, dirty bit and data only for valid lines: every reader above
    /// checks `valid` first, and [`Cache::fill`] overwrites all three
    /// before it sets the bit. The provenance watch is an observer and is
    /// ignored.
    pub fn converges_with(&self, other: &Cache) -> bool {
        if (self.sets, self.ways, self.line_bytes, self.writeback)
            != (other.sets, other.ways, other.line_bytes, other.writeback)
            || self.valid != other.valid
            || self.rank != other.rank
        {
            return false;
        }
        let lb = self.line_bytes as usize;
        (0..self.valid.len()).filter(|&i| self.valid[i]).all(|i| {
            self.addr[i] == other.addr[i]
                && self.dirty[i] == other.dirty[i]
                && self.data[i * lb..(i + 1) * lb] == other.data[i * lb..(i + 1) * lb]
        })
    }

    // ----- fault-provenance watch -------------------------------------------

    /// Arm the provenance watch on `line` (the line holding an injected
    /// flip). Replaces any previous watch.
    pub fn set_watch(&mut self, line: u32) {
        debug_assert!(line < self.lines());
        self.watch = Some(line);
    }

    /// Disarm the watch and clear pending observations.
    pub fn clear_watch(&mut self) {
        self.watch = None;
        self.report = WatchReport::default();
    }

    /// Line currently watched, if any.
    pub fn watched_line(&self) -> Option<u32> {
        self.watch
    }

    /// Drain observations accumulated since the last call.
    pub fn take_watch_report(&mut self) -> WatchReport {
        std::mem::take(&mut self.report)
    }

    /// Peek (without draining) whether the watched line was touched.
    pub fn watch_touched(&self) -> bool {
        self.report.touched
    }

    /// Base address of a line if it is valid (provenance re-arm helper).
    pub fn line_addr(&self, idx: u32) -> Option<u32> {
        if self.valid[idx as usize] {
            Some(self.addr[idx as usize])
        } else {
            None
        }
    }

    /// Find the resident line for `paddr` without touching LRU or watch
    /// state.
    pub fn find_line(&self, paddr: u32) -> Option<u32> {
        let base = paddr & !(self.line_bytes - 1);
        let set = self.set_of(paddr);
        (0..self.ways)
            .map(|w| self.line_index(set, w))
            .find(|&idx| self.valid[idx as usize] && self.addr[idx as usize] == base)
    }

    /// Which line a given flat SRAM bit index belongs to (provenance arm
    /// helper; same layout as [`Cache::flip_bit`]).
    pub fn line_of_bit(&self, bit: u64) -> u32 {
        assert!(bit < self.total_bits(), "cache bit index out of range");
        (bit / self.bits_per_line()) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 16-byte lines = 128 bytes.
        Cache::new(
            CacheConfig {
                size_bytes: 128,
                ways: 2,
                line_bytes: 16,
            },
            true,
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.probe(0x100), Probe::Miss);
        let (idx, wb) = c.evict_for(0x100);
        assert!(wb.is_none());
        c.fill(idx, 0x100, &[7u8; 16], false);
        assert_eq!(c.probe(0x104), Probe::Hit(idx));
        assert_eq!(c.read(idx, 0x104, 4), 0x0707_0707);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to set 0 (addresses differing above set+offset).
        for (n, a) in [0x000u32, 0x040, 0x080].iter().enumerate() {
            if let Probe::Miss = c.probe(*a) {
                let (idx, _) = c.evict_for(*a);
                c.fill(idx, *a, &[n as u8; 16], false);
            }
        }
        // 0x000 was oldest and must be gone; 0x040 and 0x080 resident.
        assert_eq!(c.probe(0x000), Probe::Miss);
        assert!(matches!(c.probe(0x040), Probe::Hit(_)));
        assert!(matches!(c.probe(0x080), Probe::Hit(_)));
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut c = small();
        let (idx, _) = c.evict_for(0x0);
        c.fill(idx, 0x0, &[0u8; 16], false);
        c.write(idx, 0x0, 4, 0xDEAD_BEEF);
        // Fill the set and force eviction of line 0.
        for a in [0x040u32, 0x080] {
            let (idx, wb) = c.evict_for(a);
            if let Some((addr, data)) = wb {
                assert_eq!(addr, 0x0);
                assert_eq!(&data[0..4], &0xDEAD_BEEFu32.to_le_bytes());
                return;
            }
            c.fill(idx, a, &[0u8; 16], false);
        }
        panic!("dirty line was never written back");
    }

    #[test]
    fn no_writeback_port_drops_dirty_lines() {
        let mut c = Cache::new(
            CacheConfig {
                size_bytes: 128,
                ways: 2,
                line_bytes: 16,
            },
            false,
        );
        let (idx, _) = c.evict_for(0x0);
        c.fill(idx, 0x0, &[0u8; 16], false);
        c.write(idx, 0x0, 4, 1);
        let mut wrote = false;
        c.clean_invalidate_all(|_, _| wrote = true);
        assert!(!wrote);
    }

    #[test]
    fn flip_data_bit_corrupts_exactly_one_bit() {
        let mut c = small();
        let (idx, _) = c.evict_for(0x0);
        c.fill(idx, 0x0, &[0u8; 16], false);
        let info = c.flip_bit(13); // line 0, data byte 1, bit 5
        assert_eq!(info.array, ArrayKind::Data);
        assert!(info.was_valid);
        assert_eq!(c.read(idx, 0x1, 1), 1 << 5);
    }

    #[test]
    fn flip_tag_bit_rehomes_line() {
        let mut c = small();
        let (idx, _) = c.evict_for(0x0);
        c.fill(idx, 0x0, &[1u8; 16], false);
        // First tag bit is phys address bit 6 (4 offset + 2 set bits).
        let data_bits = 8 * 16;
        let info = c.flip_bit(data_bits);
        assert_eq!(info.array, ArrayKind::Tag);
        assert_eq!(c.probe(0x0), Probe::Miss);
        assert!(matches!(c.probe(0x40), Probe::Hit(_)));
    }

    #[test]
    fn flip_valid_bit_drops_line() {
        let mut c = small();
        let (idx, _) = c.evict_for(0x0);
        c.fill(idx, 0x0, &[1u8; 16], false);
        let per = c.bits_per_line();
        let info = c.flip_bit(per - 2); // valid bit of line 0
        assert_eq!(info.array, ArrayKind::State);
        assert_eq!(c.probe(0x0), Probe::Miss);
    }

    #[test]
    fn bit_accounting_matches_paper_sizes() {
        // Paper L1: 32 KB of data; our array additionally models tag+state.
        let c = Cache::new(
            CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            true,
        );
        assert_eq!(c.lines(), 1024);
        let data_bits = 32 * 1024 * 8u64;
        assert!(c.total_bits() > data_bits);
        assert_eq!(c.total_bits(), 1024 * (256 + (32 - 8 - 5) as u64 + 2));
    }

    #[test]
    fn snapshot_round_trip_preserves_lru_and_dirt() {
        let mut c = small();
        // Fill both ways of set 0, then dirty + LRU-promote 0x000.
        for a in [0x000u32, 0x040] {
            let (idx, _) = c.evict_for(a);
            c.fill(idx, a, &[a as u8; 16], false);
        }
        match c.probe(0x000) {
            Probe::Hit(idx) => c.write(idx, 0x0, 4, 0xFEED_FACE),
            Probe::Miss => panic!("line 0x000 must be resident"),
        }
        // A checkpoint is a clone: it must carry the dirt and the LRU
        // ranks, not just the data.
        let mut t = c.clone();
        assert_eq!(t.valid_lines(), c.valid_lines());
        assert_eq!(t.peek(0x000, 4), Some(0xFEED_FACE));
        // LRU order survives: filling set 0 again must evict 0x040 (the
        // stale way), not the just-promoted 0x000.
        let (_, wb) = t.evict_for(0x080);
        assert!(wb.is_none(), "clean victim expected");
        assert!(t.peek(0x000, 1).is_some());
        assert!(t.peek(0x040, 1).is_none());
    }

    /// One valid clean line (line 0, set 0) and seven invalid ones.
    fn one_line() -> Cache {
        let mut c = small();
        let (idx, _) = c.evict_for(0x0);
        assert_eq!(idx, 0);
        c.fill(idx, 0x0, &[3u8; 16], false);
        c
    }

    #[test]
    fn convergence_ignores_dead_cells_of_invalid_lines() {
        let golden = one_line();
        let per = golden.bits_per_line();
        // Line 1 is invalid: its data, tag and dirty cells are dead.
        for bit in [per + 5, per + 8 * 16 + 2, per + per - 1] {
            let mut c = golden.clone();
            assert!(!c.flip_bit(bit).was_valid);
            assert!(c.converges_with(&golden), "bit {bit}");
            assert!(golden.converges_with(&c), "bit {bit}");
        }
        // The provenance watch is an observer.
        let mut c = golden.clone();
        c.set_watch(0);
        c.probe(0x0);
        assert!(c.converges_with(&golden));
    }

    #[test]
    fn convergence_compares_every_live_cell() {
        let golden = one_line();
        let per = golden.bits_per_line();
        let data_bits = 8 * 16;
        // Valid clean line 0: data, tag, dirty. Then the valid bit of the
        // valid line 0 and of the invalid line 1 (a resurrected line).
        for bit in [
            9,
            data_bits + 1,
            per - 1,
            per - 2,
            per + data_bits + golden.tag_bits() as u64,
        ] {
            let mut c = golden.clone();
            c.flip_bit(bit);
            assert!(!c.converges_with(&golden), "bit {bit}");
            assert!(!golden.converges_with(&c), "bit {bit}");
        }
        // LRU ranks matter even where both ways are invalid: they pick the
        // order later fills age in.
        let mut c = golden.clone();
        c.rank.swap(2, 3);
        assert!(!c.converges_with(&golden));
    }
}
