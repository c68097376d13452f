//! Translation lookaside buffers.
//!
//! Each TLB is fully associative with true-LRU replacement. Entries are
//! stored as packed 64-bit words so that fault injection addresses the same
//! bit layout the SRAM macro would hold. The packing separates the paper's
//! two regions of interest (§V-B): the *virtual tag* (VPN) whose corruption
//! mostly causes harmless re-walks, and the *physical target* (PPN and
//! permission bits) whose corruption redirects every access to the page.

/// Bit layout of a packed TLB entry.
///
/// ```text
/// [19:0]  PPN      physical page number        (data region)
/// [39:20] VPN      virtual page number         (tag region)
/// [40]    valid
/// [41]    writable
/// [42]    user-accessible
/// [43]    executable
/// ```
/// Bits `[63:44]` are unimplemented cells and absorb flips harmlessly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbEntry(pub u64);

impl TlbEntry {
    const VALID: u64 = 1 << 40;
    const WRITE: u64 = 1 << 41;
    const USER: u64 = 1 << 42;
    const EXEC: u64 = 1 << 43;
    /// The implemented cells, `[43:0]`; no accessor reads above them.
    const IMPLEMENTED: u64 = (1 << 44) - 1;

    /// Builds a valid entry.
    pub fn new(vpn: u32, ppn: u32, write: bool, user: bool, exec: bool) -> TlbEntry {
        let mut v = (ppn as u64 & 0xF_FFFF) | ((vpn as u64 & 0xF_FFFF) << 20) | Self::VALID;
        if write {
            v |= Self::WRITE;
        }
        if user {
            v |= Self::USER;
        }
        if exec {
            v |= Self::EXEC;
        }
        TlbEntry(v)
    }

    /// Invalid (empty) entry.
    pub fn invalid() -> TlbEntry {
        TlbEntry(0)
    }

    /// Physical page number.
    pub fn ppn(self) -> u32 {
        (self.0 & 0xF_FFFF) as u32
    }

    /// Virtual page number (the tag).
    pub fn vpn(self) -> u32 {
        ((self.0 >> 20) & 0xF_FFFF) as u32
    }

    /// Valid bit.
    pub fn valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    /// Write permission.
    pub fn writable(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    /// User-mode access permission.
    pub fn user(self) -> bool {
        self.0 & Self::USER != 0
    }

    /// Execute permission.
    pub fn executable(self) -> bool {
        self.0 & Self::EXEC != 0
    }

    /// True if `bit` (0-63) lies in the virtual-tag region.
    pub fn bit_is_tag(bit: u32) -> bool {
        (20..40).contains(&bit)
    }
}

use crate::cache::WatchReport;

/// A fully associative TLB.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    /// LRU stamps; larger = more recently used.
    stamp: Vec<u64>,
    clock: u64,
    /// Statistics: lookups and misses.
    pub lookups: u64,
    /// Miss count.
    pub misses: u64,
    /// Fault-provenance watch: entry index holding injected corruption.
    watch: Option<usize>,
    /// Observations on the watched entry since the last drain
    /// (`evicted_writeback` is never set — TLBs have no write-back path).
    report: WatchReport,
}

impl Tlb {
    /// Builds an empty TLB with `entries` slots.
    pub fn new(entries: u32) -> Tlb {
        Tlb {
            entries: vec![TlbEntry::invalid(); entries as usize],
            stamp: vec![0; entries as usize],
            clock: 0,
            lookups: 0,
            misses: 0,
            watch: None,
            report: WatchReport::default(),
        }
    }

    /// Looks up `vpn`, updating LRU and statistics.
    pub fn lookup(&mut self, vpn: u32) -> Option<TlbEntry> {
        self.lookup_slot(vpn).map(|(_, e)| e)
    }

    /// Like [`Tlb::lookup`], but also reports which slot hit — the handle
    /// the read horizon stamps.
    pub fn lookup_slot(&mut self, vpn: u32) -> Option<(usize, TlbEntry)> {
        self.lookups += 1;
        self.clock += 1;
        for (i, e) in self.entries.iter().enumerate() {
            if e.valid() && e.vpn() == vpn {
                self.stamp[i] = self.clock;
                if self.watch == Some(i) {
                    self.report.touched = true;
                }
                return Some((i, self.entries[i]));
            }
        }
        self.misses += 1;
        None
    }

    /// Revalidates a translation-latch hint: if `slot` still holds a valid
    /// entry for `vpn`, performs *exactly* the bookkeeping a successful
    /// [`Tlb::lookup_slot`] scan would have performed (lookup count, LRU
    /// clock + stamp, provenance-watch touch) and returns the entry. If the
    /// hint is stale — flushed, evicted, or corrupted by an injected flip —
    /// nothing is mutated and the caller must fall back to the full scan,
    /// which then counts the lookup the reference way. This is the fast
    /// path's only TLB entry point, and it is equivalence-preserving by
    /// construction: a hit is indistinguishable from a scan hit on the
    /// same slot, and a miss leaves no trace.
    pub fn hit_latched(&mut self, slot: usize, vpn: u32) -> Option<TlbEntry> {
        let e = *self.entries.get(slot)?;
        if !e.valid() || e.vpn() != vpn {
            return None;
        }
        self.lookups += 1;
        self.clock += 1;
        self.stamp[slot] = self.clock;
        if self.watch == Some(slot) {
            self.report.touched = true;
        }
        Some(e)
    }

    /// Inserts an entry, evicting the LRU slot.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.insert_slot(entry);
    }

    /// Like [`Tlb::insert`], but reports which slot the entry landed in.
    pub fn insert_slot(&mut self, entry: TlbEntry) -> usize {
        self.clock += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.valid() {
                victim = i;
                break;
            }
            if self.stamp[i] < oldest {
                oldest = self.stamp[i];
                victim = i;
            }
        }
        if self.watch == Some(victim) {
            self.report.evicted_dropped = true;
            self.watch = None;
        }
        self.entries[victim] = entry;
        self.stamp[victim] = self.clock;
        victim
    }

    /// Invalidates all entries (TLB flush).
    pub fn flush(&mut self) {
        if self.watch.take().is_some() {
            self.report.evicted_dropped = true;
        }
        for e in &mut self.entries {
            *e = TlbEntry::invalid();
        }
    }

    /// SRAM bits: 64 per entry.
    pub fn total_bits(&self) -> u64 {
        self.entries.len() as u64 * 64
    }

    /// What [`Tlb::flip_bit`] would report for `bit`, without flipping it:
    /// whether it lies in the tag (VPN) region and whether its entry is
    /// valid now.
    pub fn bit_info(&self, bit: u64) -> (bool, bool) {
        assert!(bit < self.total_bits(), "TLB bit index out of range");
        (
            TlbEntry::bit_is_tag((bit % 64) as u32),
            self.entries[(bit / 64) as usize].valid(),
        )
    }

    /// Flips one bit; returns whether it fell in the tag (VPN) region and
    /// whether the entry was valid.
    pub fn flip_bit(&mut self, bit: u64) -> (bool, bool) {
        let info = self.bit_info(bit);
        self.entries[(bit / 64) as usize].0 ^= 1 << (bit % 64);
        info
    }

    /// Number of valid entries.
    pub fn valid_entries(&self) -> u32 {
        self.entries.iter().filter(|e| e.valid()).count() as u32
    }

    /// Raw packed words of the valid entries, in slot order. A pure
    /// observer (no LRU or watch side effects), used by deep state
    /// fingerprinting.
    pub fn valid_entry_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().filter(|e| e.valid()).map(|e| e.0)
    }

    /// Live-state equality (see [`crate::System::converges_with`]): the
    /// LRU clock, which slots are valid, and for valid slots the
    /// implemented bits `[43:0]` and the LRU stamp. An invalid slot's
    /// word and stamp are dead — lookups skip it, and
    /// [`Tlb::insert_slot`] takes the first invalid slot without reading
    /// its stamp, then overwrites both. Bits `[63:44]` have no reader at
    /// all, and the `lookups`/`misses` statistics and the provenance
    /// watch are observers.
    pub fn converges_with(&self, other: &Tlb) -> bool {
        self.clock == other.clock
            && self.entries.len() == other.entries.len()
            && (0..self.entries.len()).all(|i| {
                let (a, b) = (self.entries[i], other.entries[i]);
                a.valid() == b.valid()
                    && (!a.valid()
                        || (a.0 & TlbEntry::IMPLEMENTED == b.0 & TlbEntry::IMPLEMENTED
                            && self.stamp[i] == other.stamp[i]))
            })
    }

    // ----- fault-provenance watch -------------------------------------------

    /// Which entry a flat SRAM bit index belongs to (same layout as
    /// [`Tlb::flip_bit`]).
    pub fn entry_of_bit(&self, bit: u64) -> usize {
        assert!(bit < self.total_bits(), "TLB bit index out of range");
        (bit / 64) as usize
    }

    /// Arm the provenance watch on `entry`. Replaces any previous watch.
    pub fn set_watch(&mut self, entry: usize) {
        debug_assert!(entry < self.entries.len());
        self.watch = Some(entry);
    }

    /// Disarm the watch and clear pending observations.
    pub fn clear_watch(&mut self) {
        self.watch = None;
        self.report = WatchReport::default();
    }

    /// Drain observations accumulated since the last call.
    pub fn take_watch_report(&mut self) -> WatchReport {
        std::mem::take(&mut self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_pack_unpack() {
        let e = TlbEntry::new(0x12345, 0xABCDE, true, false, true);
        assert_eq!(e.vpn(), 0x12345);
        assert_eq!(e.ppn(), 0xABCDE);
        assert!(e.valid() && e.writable() && e.executable());
        assert!(!e.user());
    }

    #[test]
    fn lookup_hit_and_miss_counting() {
        let mut t = Tlb::new(4);
        assert!(t.lookup(7).is_none());
        t.insert(TlbEntry::new(7, 0x100, true, true, false));
        assert_eq!(t.lookup(7).unwrap().ppn(), 0x100);
        assert_eq!(t.lookups, 2);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.insert(TlbEntry::new(1, 1, true, true, false));
        t.insert(TlbEntry::new(2, 2, true, true, false));
        t.lookup(1); // make vpn=1 recent
        t.insert(TlbEntry::new(3, 3, true, true, false)); // evicts vpn=2
        assert!(t.lookup(1).is_some());
        assert!(t.lookup(2).is_none());
        assert!(t.lookup(3).is_some());
    }

    #[test]
    fn tag_flip_causes_miss_data_flip_misroutes() {
        let mut t = Tlb::new(1);
        t.insert(TlbEntry::new(0x5, 0x100, true, true, false));
        // Flip VPN bit 0 (global bit 20): the old VPN no longer matches.
        let (is_tag, valid) = t.flip_bit(20);
        assert!(is_tag && valid);
        assert!(t.lookup(0x5).is_none());
        // Reinsert and flip PPN bit 0: translation silently changes.
        let mut t = Tlb::new(1);
        t.insert(TlbEntry::new(0x5, 0x100, true, true, false));
        let (is_tag, _) = t.flip_bit(0);
        assert!(!is_tag);
        assert_eq!(t.lookup(0x5).unwrap().ppn(), 0x101);
    }

    #[test]
    fn convergence_ignores_dead_cells_and_compares_live_ones() {
        let mut golden = Tlb::new(2);
        golden.insert(TlbEntry::new(0x5, 0x100, true, true, false));
        golden.lookup(0x5);
        golden.lookup(0x9); // a miss: statistics only
        let flipped = |bit: u64| {
            let mut t = golden.clone();
            t.flip_bit(bit);
            t
        };
        // Slot 1 is invalid: its word is dead, as is its stamp.
        assert!(flipped(64 + 3).converges_with(&golden));
        assert!(flipped(64 + 25).converges_with(&golden));
        let mut t = golden.clone();
        t.stamp[1] = 99;
        assert!(t.converges_with(&golden));
        // Unimplemented cells of a valid slot absorb flips.
        assert!(flipped(44).converges_with(&golden));
        assert!(flipped(63).converges_with(&golden));
        // The statistics are observers.
        let mut t = golden.clone();
        t.lookups += 7;
        t.misses += 1;
        assert!(t.converges_with(&golden));

        // Every implemented cell of a valid slot is live ...
        for bit in [0, 20, 41, 43] {
            assert!(!flipped(bit).converges_with(&golden), "bit {bit}");
        }
        // ... as are both valid bits, the valid slot's stamp and the clock.
        assert!(!flipped(40).converges_with(&golden));
        assert!(!flipped(64 + 40).converges_with(&golden));
        let mut t = golden.clone();
        t.stamp[0] -= 1;
        assert!(!t.converges_with(&golden));
        let mut t = golden.clone();
        t.clock += 1;
        assert!(!t.converges_with(&golden));
    }

    #[test]
    fn paper_tlb_size_is_512_bytes() {
        let t = Tlb::new(64);
        assert_eq!(t.total_bits(), 4096); // 512 bytes, as quoted in §V-B
    }

    #[test]
    fn snapshot_round_trip_preserves_lru_and_stats() {
        let mut t = Tlb::new(2);
        t.insert(TlbEntry::new(1, 0x10, true, true, false));
        t.insert(TlbEntry::new(2, 0x20, true, false, true));
        t.lookup(1); // vpn=1 is now the most recent
        t.lookup(9); // one miss
                     // The statistics feed the §IV-D counter comparison, so a restored
                     // run must keep counting from the checkpointed values.
        let mut back = t.clone();
        assert_eq!(back.lookups, t.lookups);
        assert_eq!(back.misses, t.misses);
        assert_eq!(back.valid_entries(), 2);
        // LRU state survives: the next insert must evict vpn=2, not vpn=1.
        back.insert(TlbEntry::new(3, 0x30, true, true, false));
        assert!(back.lookup(1).is_some());
        assert!(back.lookup(2).is_none());
    }
}
