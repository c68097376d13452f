//! The fault-transparent execution fast path.
//!
//! Three memoization structures sit in front of the slow per-step work:
//!
//! * a **predecoded µop cache** — a direct-mapped software cache keyed by
//!   `(paddr, raw_word)` holding the decoded [`Insn`]. The fetch itself
//!   still runs through the modeled L1I/L2 hierarchy (counters, LRU and
//!   provenance watches update exactly as on the slow path); only the pure
//!   `sea_isa::decode` call is skipped on a hit. Because the key includes
//!   the *actually fetched* word, any injected flip that reaches the fetch
//!   stream — an L1I/L2/DRAM bit, or a self-modifying store — changes
//!   `raw_word` and misses by construction, so the cache can never serve a
//!   decode the slow path would not have produced.
//!
//! * a **per-access-class translation latch** — the last `(vpn, slot)`
//!   pair per access class (fetch / read / write). On a same-page streak
//!   the latch short-circuits the fully-associative TLB scan; the hit is
//!   revalidated against the live TLB entry and replays exactly the
//!   bookkeeping a scan hit would have performed (see
//!   [`Tlb::hit_latched`](crate::tlb::Tlb::hit_latched)). The latches are
//!   cleared on TLB flushes, mode changes, exception entry/return and any
//!   injected flip, so a corrupted TLB is always re-scanned the reference
//!   way.
//!
//! * **L1 line latches** — the last hit L1I line and a few recent L1D
//!   lines. A repeat access to a latched line skips the L1 set scan, but
//!   only when the line is still valid, still holds the access's tag, and
//!   is already its set's MRU way — the one state in which the scan's LRU
//!   update is a no-op (see [`Cache::hit_mru`](crate::Cache::hit_mru)).
//!   The check runs against the live cache arrays, so fills, evictions,
//!   flushes and injected flips all invalidate by construction.
//!
//! None of these structures is architectural state: machine comparisons
//! ignore them, checkpoints are captured before any is armed, and a
//! conservative flush is always equivalence-preserving (it merely costs
//! the memoization).

use sea_isa::Insn;

/// Configuration of the execution fast path, passed to
/// [`System::fastpath_enable`](crate::System::fastpath_enable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FastPathConfig {
    /// Number of direct-mapped µop-cache entries (must be a power of two).
    pub uop_entries: u32,
}

impl Default for FastPathConfig {
    fn default() -> FastPathConfig {
        FastPathConfig { uop_entries: 2048 }
    }
}

impl FastPathConfig {
    /// True when the configuration is usable.
    pub fn validate(&self) -> bool {
        self.uop_entries.is_power_of_two()
    }
}

/// Effectiveness counters of the fast path, for benches and tests. These
/// are observability only — they never feed back into simulated state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FastPathStats {
    /// Fetched words whose decode was served from the µop cache.
    pub uop_hits: u64,
    /// Fetched words that had to run the full decoder.
    pub uop_misses: u64,
    /// Translations served by a per-access-class page latch.
    pub latch_hits: u64,
    /// L1 accesses served by a most-recently-used line latch (the L1 set
    /// scan skipped).
    pub line_hits: u64,
}

/// One µop-cache line: the physical word address, the raw word that was
/// fetched from it, and the decode of that word.
#[derive(Clone, Copy, Debug)]
struct UopLine {
    paddr: u32,
    word: u32,
    insn: Insn,
}

/// Runtime state of the fast path. Held as `Option<Box<FastPath>>` on
/// [`System`](crate::System), like the probe and profiler slots: not
/// machine state, absent by default.
#[derive(Clone, Debug)]
pub(crate) struct FastPath {
    lines: Vec<Option<UopLine>>,
    mask: u32,
    /// Last `(vpn, slot)` per access class, indexed by `Access as usize`
    /// (fetch / read / write).
    latches: [Option<(u32, usize)>; 3],
    /// Last L1I hit: `(line base, line index)`. Revalidated against the
    /// live cache arrays by [`crate::Cache::hit_mru`], so a stale latch
    /// costs a fallback scan and never an incorrect serve.
    pub(crate) fetch_line: Option<(u32, u32)>,
    /// Recent L1D hits (reads and writes share the one cache), direct-
    /// mapped by line-base bits: loops that alternate between a couple of
    /// hot lines (input + lookup table, array + stack) keep all of them
    /// latched instead of thrashing one slot.
    data_lines: [Option<(u32, u32)>; 4],
    pub(crate) uop_hits: u64,
    pub(crate) uop_misses: u64,
    pub(crate) latch_hits: u64,
    pub(crate) line_hits: u64,
}

impl FastPath {
    pub(crate) fn new(cfg: &FastPathConfig) -> FastPath {
        assert!(cfg.validate(), "invalid fast-path configuration");
        FastPath {
            lines: vec![None; cfg.uop_entries as usize],
            mask: cfg.uop_entries - 1,
            latches: [None; 3],
            fetch_line: None,
            data_lines: [None; 4],
            uop_hits: 0,
            uop_misses: 0,
            latch_hits: 0,
            line_hits: 0,
        }
    }

    fn slot(&self, paddr: u32) -> usize {
        ((paddr >> 2) & self.mask) as usize
    }

    /// Looks up the decode of `word` as fetched from `paddr`. Both halves
    /// of the key must match: a flipped or overwritten word misses.
    pub(crate) fn uop_lookup(&mut self, paddr: u32, word: u32) -> Option<Insn> {
        let slot = self.slot(paddr);
        // Borrow the line rather than copying it: only the decoded insn
        // leaves, and only on a hit.
        if let Some(l) = &self.lines[slot] {
            if l.paddr == paddr && l.word == word {
                let insn = l.insn;
                self.uop_hits += 1;
                return Some(insn);
            }
        }
        self.uop_misses += 1;
        None
    }

    /// Caches a successful decode. Failed decodes are never cached: the
    /// slow path re-raises `Undefined` from the decoder itself.
    pub(crate) fn uop_insert(&mut self, paddr: u32, word: u32, insn: Insn) {
        let slot = self.slot(paddr);
        self.lines[slot] = Some(UopLine { paddr, word, insn });
    }

    /// Drops the µop line covering the word at `paddr`, if cached —
    /// self-modifying-code hygiene for D-side stores into predecoded
    /// lines. (The `(paddr, word)` key already guarantees correctness;
    /// this keeps the slot from wasting its tag on a dead encoding.)
    pub(crate) fn uop_flush_word(&mut self, paddr: u32) {
        let paddr = paddr & !3;
        let slot = self.slot(paddr);
        if matches!(self.lines[slot], Some(l) if l.paddr == paddr) {
            self.lines[slot] = None;
        }
    }

    pub(crate) fn latch_get(&self, idx: usize) -> Option<(u32, usize)> {
        self.latches[idx]
    }

    /// Direct-mapped slot for an L1D line base. `>> 5` works for any line
    /// size ≥ 32 bytes (smaller lines just alias more, costing fallback
    /// scans, never correctness).
    fn data_slot(base: u32) -> usize {
        ((base >> 5) & 3) as usize
    }

    /// The latched L1D line index for `base`, if any.
    pub(crate) fn data_line_get(&self, base: u32) -> Option<u32> {
        match self.data_lines[Self::data_slot(base)] {
            Some((b, idx)) if b == base => Some(idx),
            _ => None,
        }
    }

    pub(crate) fn data_line_set(&mut self, base: u32, idx: u32) {
        self.data_lines[Self::data_slot(base)] = Some((base, idx));
    }

    pub(crate) fn latch_set(&mut self, idx: usize, vpn: u32, slot: usize) {
        self.latches[idx] = Some((vpn, slot));
    }

    /// Forgets all translation latches. Called wherever the slow path
    /// would change what a TLB scan can return: TLB flushes, CPSR/mode
    /// changes, exception entry and return, and injected flips.
    pub(crate) fn clear_latches(&mut self) {
        self.latches = [None; 3];
    }

    /// Full invalidation: latches and every µop line. Used after a fault
    /// injection touches any SRAM array — conservative, and free at
    /// one-flip-per-run campaign rates.
    pub(crate) fn invalidate_all(&mut self) {
        self.clear_latches();
        self.fetch_line = None;
        self.data_lines = [None; 4];
        for l in &mut self.lines {
            *l = None;
        }
    }

    pub(crate) fn stats(&self) -> FastPathStats {
        FastPathStats {
            uop_hits: self.uop_hits,
            uop_misses: self.uop_misses,
            latch_hits: self.latch_hits,
            line_hits: self.line_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_isa::decode;

    fn nop_word() -> u32 {
        sea_isa::encode(&Insn::Nop {
            cond: sea_isa::Cond::Al,
        })
    }

    #[test]
    fn uop_key_includes_the_fetched_word() {
        let mut f = FastPath::new(&FastPathConfig { uop_entries: 16 });
        let nop = decode(nop_word()).unwrap();
        f.uop_insert(0x100, nop_word(), nop);
        assert!(f.uop_lookup(0x100, nop_word()).is_some());
        // Same address, different word (as after an L1I flip): miss.
        assert!(f.uop_lookup(0x100, nop_word() ^ 1).is_none());
        // Different address aliasing the same slot: miss.
        assert!(f.uop_lookup(0x100 + 16 * 4, nop_word()).is_none());
    }

    #[test]
    fn word_flush_drops_only_the_matching_line() {
        let mut f = FastPath::new(&FastPathConfig { uop_entries: 16 });
        let nop = decode(nop_word()).unwrap();
        f.uop_insert(0x100, nop_word(), nop);
        // A flush of an aliasing address leaves the line alone...
        f.uop_flush_word(0x100 + 16 * 4);
        assert!(f.uop_lookup(0x100, nop_word()).is_some());
        // ...a flush of any byte within the cached word drops it.
        f.uop_flush_word(0x102);
        assert!(f.uop_lookup(0x100, nop_word()).is_none());
    }

    #[test]
    fn invalidate_all_clears_lines_and_latches() {
        let mut f = FastPath::new(&FastPathConfig::default());
        let nop = decode(nop_word()).unwrap();
        f.uop_insert(0x40, nop_word(), nop);
        f.latch_set(0, 7, 3);
        f.invalidate_all();
        assert!(f.latch_get(0).is_none());
        assert!(f.uop_lookup(0x40, nop_word()).is_none());
    }

    #[test]
    fn config_validation() {
        assert!(FastPathConfig::default().validate());
        assert!(!FastPathConfig { uop_entries: 0 }.validate());
        assert!(!FastPathConfig { uop_entries: 48 }.validate());
    }
}
