//! The functional execution tier ("warp"): basic-block-fused µop traces.
//!
//! Campaigns spend almost all of their simulated cycles on the fault-free
//! prefix, where cycle-level fidelity buys nothing (the determinism
//! contract guarantees the prefix cannot differ from the golden run).
//! The warp tier executes that prefix with **architectural state only**:
//!
//! * straight-line runs of instructions are fetched, decoded once and
//!   fused into a **basic-block trace** — a direct-mapped software cache
//!   of `Arc<[Insn]>` blocks keyed by virtual start address, built on the
//!   same predecode machinery as the PR 5 µop cache. Re-entering a hot
//!   block skips fetch *and* decode for every instruction in it;
//!
//! * memory runs in [`ExecMode::Atomic`](crate::ExecMode::Atomic): no
//!   cache-set scans, no LRU updates, no miss modeling — each access is a
//!   flat load/store against DRAM. Entering the tier drains the detailed
//!   hierarchy (clean + invalidate) so atomic accesses always see
//!   committed state, and the detailed tier restarts cold afterwards;
//!
//! * timing is **approximate**: cycles still advance monotonically (so
//!   device time and IRQ polling keep working) but carry per-instruction
//!   unit costs instead of modeled hierarchy latencies.
//!
//! Blocks cache decoded words, so they follow the same hygiene rules as a
//! never-evicting TLB-of-traces:
//!
//! * **SMC** — a store into a physical page holding any cached block
//!   drops every block on that page (the engine keeps a page filter so
//!   the common non-SMC store is one hash probe);
//! * **translation or mode changes** — TTBR writes, TLB flush ops,
//!   CPSR writes, exception entry/return — flush the whole trace cache;
//! * **fault injection** — an injected flip flushes it too (a corrupted
//!   code byte must re-decode).
//!
//! Every invalidation bumps a generation counter that the in-flight block
//! execution loop re-checks after each µop, so a block can never keep
//! running past a store or mode change that killed it.
//!
//! The warp tier is *not* bit-exact against detailed stepping — cycle
//! counts, cache/TLB residency and IRQ arrival points all differ. It is
//! architecturally exact while interrupts are quiescent, which is what
//! the standalone-tier tests pin down; campaigns that need bit-exact
//! journals use the warp *cursor* in sea-injection, which amortizes
//! detailed prefix stepping instead.

use crate::regfile::{Mode, RegFile};
use crate::tlb::TlbEntry;
use sea_isa::{Cond, DpOp, Insn, MemOffset, MemSize, Operand2, Reg, Shift};
use std::collections::HashSet;
use std::sync::Arc;

/// Entries in the warp translation cache (direct-mapped by vpn). Power of
/// two; sized to cover a workload's full working set so steady-state
/// accesses never fall back to the reference TLB scan.
const TCACHE_ENTRIES: usize = 256;

/// Configuration of the warp tier, passed to
/// [`System::warp_enable`](crate::System::warp_enable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WarpConfig {
    /// Number of direct-mapped block-cache entries (must be a power of
    /// two).
    pub block_entries: u32,
    /// Maximum instructions fused into one block (must be non-zero).
    /// Blocks also end at control flow, system instructions, undecodable
    /// words and page boundaries.
    pub max_block_len: u32,
}

impl Default for WarpConfig {
    fn default() -> WarpConfig {
        WarpConfig {
            block_entries: 1024,
            max_block_len: 32,
        }
    }
}

impl WarpConfig {
    /// True when the configuration is usable.
    pub fn validate(&self) -> bool {
        self.block_entries.is_power_of_two() && self.max_block_len > 0
    }
}

/// Effectiveness counters of the warp tier, for benches, `/metrics` and
/// tests. Observability only — never fed back into simulated state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WarpStats {
    /// Block executions served from the trace cache.
    pub block_hits: u64,
    /// Block executions that had to fetch + decode + fuse first.
    pub block_misses: u64,
    /// Instructions retired inside the warp tier.
    pub insns: u64,
    /// Page-granular invalidations caused by stores into cached code.
    pub smc_invalidations: u64,
    /// Whole-cache flushes (mode/translation changes, fault injection).
    pub flushes: u64,
}

/// Marks an absent pre-resolved register operand in a [`Uop`].
pub(crate) const NO_REG: u8 = 0xFF;

/// [`Uop::Ldr`]/[`Uop::Str`] flag: the offset is the immediate field
/// (otherwise `words[rm] << shl`).
pub(crate) const MEM_IMM: u8 = 1;
/// Flag: subtract the offset from the base instead of adding it.
pub(crate) const MEM_SUB: u8 = 2;
/// Flag: pre-index (the offset applies before the access).
pub(crate) const MEM_PRE: u8 = 4;
/// Flag: write the indexed address back to the base register.
pub(crate) const MEM_WB: u8 = 8;

/// One pre-lowered µop: the decode of one instruction with its operands
/// resolved at block-build time. Register fields are flat word indices
/// into the integer register file ([`RegFile::word_index`] layout), so
/// banked operands (`sp`) are resolved against the mode the block was
/// lowered under — sound because every mode change flushes the trace
/// cache. Lowering also proves which side effects a µop *cannot* have:
/// an `Alu*` µop with pre-validated (non-pc) operands can neither fault
/// nor redirect control flow, so the execution loop runs it with no
/// per-µop exception, wfi or invalidation checks at all. Anything the
/// lowered forms don't cover — conditional µops, pc operands, system
/// and FP instructions — keeps its decode and executes through the
/// shared issue stage ([`Uop::Slow`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Uop {
    /// Dp with immediate op2 (shifter carry = C in). `rn == NO_REG`
    /// means the op ignores rn (`mov`/`mvn`) and `a = 0`.
    AluRI {
        op: DpOp,
        s: bool,
        rd: u8,
        rn: u8,
        imm: u32,
    },
    /// Dp with an unshifted register op2 (shifter carry = C in).
    AluRR {
        op: DpOp,
        s: bool,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    /// Dp with a shifted register op2 (shifter carry computed exactly as
    /// the reference operand path does).
    AluRRS {
        op: DpOp,
        s: bool,
        rd: u8,
        rn: u8,
        rm: u8,
        shift: Shift,
        amount: u8,
    },
    /// `MOVW`/`MOVT` with a pre-resolved destination.
    MovW { top: bool, rd: u8, imm: u16 },
    /// Single load; see the `MEM_*` flags for addressing.
    Ldr {
        size: MemSize,
        rd: u8,
        rn: u8,
        flags: u8,
        rm: u8,
        shl: u8,
        off: u32,
    },
    /// Single store.
    Str {
        size: MemSize,
        rd: u8,
        rn: u8,
        flags: u8,
        rm: u8,
        shl: u8,
        off: u32,
    },
    /// Direct branch with a precomputed target (always block-final).
    B { cond: Cond, link: bool, target: u32 },
    /// Everything else: executes through the shared issue stage.
    Slow(Insn),
}

/// Lowers one decoded instruction into a [`Uop`], given the privilege
/// mode the block is being built under and the instruction's address.
pub(crate) fn lower(insn: Insn, mode: Mode, pc: u32) -> Uop {
    // Pre-resolve a register to its flat word index; pc is not a
    // register-file operand, so any pc field defers to the slow path
    // (which raises Undefined exactly like the reference tier).
    let reg = |r: Reg| (r != Reg::Pc).then(|| RegFile::word_index(r, mode) as u8);
    let slow = Uop::Slow(insn);
    if insn.cond() != Cond::Al && !matches!(insn, Insn::Branch { .. }) {
        return slow;
    }
    match insn {
        Insn::Dp {
            op, s, rd, rn, op2, ..
        } => {
            let rd = if op.is_compare() {
                0
            } else {
                match reg(rd) {
                    Some(i) => i,
                    None => return slow,
                }
            };
            let rn = if op.ignores_rn() {
                NO_REG
            } else {
                match reg(rn) {
                    Some(i) => i,
                    None => return slow,
                }
            };
            match op2 {
                Operand2::Imm { .. } => Uop::AluRI {
                    op,
                    s,
                    rd,
                    rn,
                    imm: op2.imm_value().expect("imm op2"),
                },
                Operand2::Reg(sr) => {
                    let Some(rm) = reg(sr.rm) else { return slow };
                    if sr.amount == 0 {
                        Uop::AluRR { op, s, rd, rn, rm }
                    } else {
                        Uop::AluRRS {
                            op,
                            s,
                            rd,
                            rn,
                            rm,
                            shift: sr.shift,
                            amount: sr.amount,
                        }
                    }
                }
            }
        }
        Insn::MovW { top, rd, imm, .. } => match reg(rd) {
            Some(rd) => Uop::MovW { top, rd, imm },
            None => slow,
        },
        Insn::Mem {
            load,
            size,
            rd,
            rn,
            offset,
            mode: am,
            ..
        } => {
            let (Some(rd), Some(rn)) = (reg(rd), reg(rn)) else {
                return slow;
            };
            let mut flags = 0u8;
            if !am.up {
                flags |= MEM_SUB;
            }
            if am.pre {
                flags |= MEM_PRE;
            }
            if am.writeback {
                flags |= MEM_WB;
            }
            let (rm, shl, off) = match offset {
                MemOffset::Imm(i) => {
                    flags |= MEM_IMM;
                    (0, 0, i as u32)
                }
                MemOffset::Reg { rm, shl } => match reg(rm) {
                    Some(rm) => (rm, shl, 0),
                    None => return slow,
                },
            };
            if load {
                Uop::Ldr {
                    size,
                    rd,
                    rn,
                    flags,
                    rm,
                    shl,
                    off,
                }
            } else {
                Uop::Str {
                    size,
                    rd,
                    rn,
                    flags,
                    rm,
                    shl,
                    off,
                }
            }
        }
        Insn::Branch {
            cond, link, offset, ..
        } => Uop::B {
            cond,
            link,
            target: pc.wrapping_add(4).wrapping_add((offset as u32) << 2),
        },
        _ => slow,
    }
}

/// One fused basic block: the lowered decode of a straight-line
/// instruction run.
#[derive(Clone, Debug)]
pub(crate) struct WarpBlock {
    /// Virtual address of the first instruction (the cache key).
    pub(crate) vaddr: u32,
    /// Physical page every word was fetched from (blocks never cross a
    /// page, so one frame covers the whole trace).
    pub(crate) ppn: u32,
    /// The pre-lowered µops, in program order.
    pub(crate) uops: Arc<[Uop]>,
}

/// Runtime state of the warp tier. Held as `Option<Box<WarpEngine>>` on
/// [`System`](crate::System), like the fast-path slot: not machine state,
/// absent by default.
#[derive(Clone, Debug)]
pub(crate) struct WarpEngine {
    blocks: Vec<Option<WarpBlock>>,
    mask: u32,
    pub(crate) max_block_len: u32,
    /// Physical pages holding at least one cached block — the SMC filter.
    /// The common store misses this set and costs one hash probe.
    pages: HashSet<u32>,
    /// Direct-mapped vpn → entry translation cache with TLB semantics
    /// (stale until an explicit flush, exactly like a hardware TLB that
    /// never evicts): O(1) probes replace the reference TLB's
    /// associative scan on every warp-tier access. Permission checks
    /// still happen per access, so a cached entry can never widen
    /// rights.
    tcache: Vec<Option<TlbEntry>>,
    /// Bumped on every invalidation; the block execution loop re-checks
    /// it after each µop so no trace survives its own demise.
    pub(crate) generation: u64,
    pub(crate) block_hits: u64,
    pub(crate) block_misses: u64,
    pub(crate) insns: u64,
    pub(crate) smc_invalidations: u64,
    pub(crate) flushes: u64,
}

impl WarpEngine {
    pub(crate) fn new(cfg: &WarpConfig) -> WarpEngine {
        assert!(cfg.validate(), "invalid warp configuration");
        WarpEngine {
            blocks: vec![None; cfg.block_entries as usize],
            mask: cfg.block_entries - 1,
            max_block_len: cfg.max_block_len,
            pages: HashSet::new(),
            tcache: vec![None; TCACHE_ENTRIES],
            generation: 0,
            block_hits: 0,
            block_misses: 0,
            insns: 0,
            smc_invalidations: 0,
            flushes: 0,
        }
    }

    fn slot(&self, vaddr: u32) -> usize {
        ((vaddr >> 2) & self.mask) as usize
    }

    /// The cached block starting at `vaddr`, if any. The `Arc` clone lets
    /// the caller execute the trace while the engine stays borrowable for
    /// invalidation bookkeeping.
    pub(crate) fn lookup(&mut self, vaddr: u32) -> Option<WarpBlock> {
        let slot = self.slot(vaddr);
        if let Some(b) = &self.blocks[slot] {
            if b.vaddr == vaddr {
                self.block_hits += 1;
                return Some(b.clone());
            }
        }
        self.block_misses += 1;
        None
    }

    pub(crate) fn insert(&mut self, block: WarpBlock) {
        let slot = self.slot(block.vaddr);
        self.pages.insert(block.ppn);
        self.blocks[slot] = Some(block);
    }

    /// The cached translation for `vpn`, if any.
    #[inline]
    pub(crate) fn translate_lookup(&self, vpn: u32) -> Option<TlbEntry> {
        let e = self.tcache[vpn as usize & (TCACHE_ENTRIES - 1)]?;
        (e.valid() && e.vpn() == vpn).then_some(e)
    }

    /// Caches a translation the reference path just resolved.
    #[inline]
    pub(crate) fn translate_insert(&mut self, entry: TlbEntry) {
        self.tcache[entry.vpn() as usize & (TCACHE_ENTRIES - 1)] = Some(entry);
    }

    /// SMC hygiene: a store into a physical page with cached blocks drops
    /// every block on that page and bumps the generation.
    pub(crate) fn note_write(&mut self, paddr: u32) {
        let ppn = paddr >> 12;
        if !self.pages.remove(&ppn) {
            return;
        }
        for b in &mut self.blocks {
            if matches!(b, Some(blk) if blk.ppn == ppn) {
                *b = None;
            }
        }
        self.smc_invalidations += 1;
        self.generation += 1;
    }

    /// Whole-cache flush: translation or mode changed, or a fault was
    /// injected — every cached decode and translation is suspect.
    pub(crate) fn flush(&mut self) {
        self.tcache.fill(None);
        if self.pages.is_empty() && self.blocks.iter().all(Option::is_none) {
            return;
        }
        self.pages.clear();
        for b in &mut self.blocks {
            *b = None;
        }
        self.flushes += 1;
        self.generation += 1;
    }

    pub(crate) fn stats(&self) -> WarpStats {
        WarpStats {
            block_hits: self.block_hits,
            block_misses: self.block_misses,
            insns: self.insns,
            smc_invalidations: self.smc_invalidations,
            flushes: self.flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_isa::{decode, encode};

    fn nop_block(vaddr: u32, ppn: u32) -> WarpBlock {
        let nop = decode(encode(&Insn::Nop { cond: Cond::Al })).unwrap();
        let uop = lower(nop, Mode::Svc, vaddr);
        WarpBlock {
            vaddr,
            ppn,
            uops: Arc::from(vec![uop, uop]),
        }
    }

    #[test]
    fn lookup_is_keyed_by_start_address() {
        let mut e = WarpEngine::new(&WarpConfig {
            block_entries: 16,
            max_block_len: 8,
        });
        e.insert(nop_block(0x1000, 1));
        assert!(e.lookup(0x1000).is_some());
        // An aliasing start address (same slot, different vaddr) misses.
        assert!(e.lookup(0x1000 + 16 * 4).is_none());
        assert_eq!(e.stats().block_hits, 1);
        assert_eq!(e.stats().block_misses, 1);
    }

    #[test]
    fn a_store_into_a_cached_page_drops_only_that_page() {
        let mut e = WarpEngine::new(&WarpConfig {
            block_entries: 16,
            max_block_len: 8,
        });
        e.insert(nop_block(0x1000, 1));
        e.insert(nop_block(0x2000, 2));
        let gen = e.generation;
        // A store into an uncached page is a filter miss: no invalidation.
        e.note_write(0x7000);
        assert_eq!(e.generation, gen);
        // A store into page 1 drops its block, keeps page 2's.
        e.note_write(0x1ffc);
        assert!(e.generation > gen);
        assert_eq!(e.stats().smc_invalidations, 1);
        assert!(e.lookup(0x1000).is_none());
        assert!(e.lookup(0x2000).is_some());
    }

    #[test]
    fn flush_clears_everything_once() {
        let mut e = WarpEngine::new(&WarpConfig::default());
        e.insert(nop_block(0x1000, 1));
        e.flush();
        assert_eq!(e.stats().flushes, 1);
        assert!(e.lookup(0x1000).is_none());
        // Flushing an already-empty cache is free (no generation bump).
        let gen = e.generation;
        e.flush();
        assert_eq!(e.generation, gen);
        assert_eq!(e.stats().flushes, 1);
    }

    #[test]
    fn config_validation() {
        assert!(WarpConfig::default().validate());
        assert!(!WarpConfig {
            block_entries: 48,
            max_block_len: 8
        }
        .validate());
        assert!(!WarpConfig {
            block_entries: 16,
            max_block_len: 0
        }
        .validate());
    }
}
