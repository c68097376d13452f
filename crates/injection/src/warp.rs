//! The warp cursor: two-tier prefix execution for injection campaigns.
//!
//! Campaign wall-clock is dominated by the fault-free prefix — every run
//! must land on the golden path at its strike cycle before the flip, and
//! with sparse (or no) checkpoints that means re-simulating the same
//! prefix over and over. Campaign journals are a *byte-exact* contract, so
//! the prefix can only be skipped by something bit-exact; this cursor is
//! the only "warp" in the stack, and it steps the detailed model itself.
//!
//! The cursor relies on the determinism contract: each worker thread
//! keeps one long-lived fault-free machine — the **cursor** — pinned to
//! the golden path. Specs are cycle-sorted and workers claim
//! contiguous ascending index blocks, so across a block the cursor only
//! ever moves *forward*; reaching the next strike cycle costs the delta
//! from the previous one, not the whole prefix. The run's machine is then
//! a clone of the cursor at the strike cycle (the "handoff"): by the
//! restore/reset bit-equivalence contract, that clone is indistinguishable
//! from a machine stepped from reset, so verdicts — and journal bytes — are
//! identical with the cursor on or off (held by the cursor rows of
//! `tests/warp_equivalence.rs`). The cursor always runs with the execution fast
//! path armed; the fast path is itself bit-transparent, and the clone drops
//! it when the campaign did not ask for it.
//!
//! Checkpoints compose rather than compete: when an epoch lies *ahead* of
//! the cursor (first run of a block, or a cross-epoch jump), the cursor
//! re-seeds from the nearest checkpoint at or before the target and
//! advances from there.

use std::cell::RefCell;

use sea_microarch::{FastPathStats, System};
use sea_platform::{boot, Board, CheckpointSet};
use sea_trace::Counter;
use sea_workloads::BuiltWorkload;

use crate::campaign::CampaignConfig;
use crate::supervisor::{config_hash, golden_hash};

/// Runs whose prefix the cursor served instead of a fresh restore/boot (a
/// clone of it), plus — under provenance tracing only — the dead-pruned
/// strikes whose `dead@` record was read off it.
pub static WARP_HANDOFFS: Counter = Counter::new("campaign.warp_handoffs");
/// Cursors discarded and re-seeded (target behind the cursor, a checkpoint
/// ahead of it, or a different campaign on the same thread).
pub static WARP_CURSOR_RESETS: Counter = Counter::new("campaign.warp_cursor_resets");
/// Fault-free prefix cycles the cursor saved: on each handoff, how far the
/// cursor already was past the cycle a fresh machine would have started at
/// (the nearest checkpoint, or reset).
pub static WARP_PREFIX_CYCLES_SAVED: Counter = Counter::new("campaign.warp_prefix_cycles_saved");
/// Detailed cycles actually stepped on cursors to reach strike cycles.
pub static WARP_ADVANCE_CYCLES: Counter = Counter::new("campaign.warp_advance_cycles");

/// Fetched words decoded from the µop cache across all injected runs.
pub static FASTPATH_UOP_HITS: Counter = Counter::new("campaign.fastpath_uop_hits");
/// Fetched words that ran the full decoder across all injected runs.
pub static FASTPATH_UOP_MISSES: Counter = Counter::new("campaign.fastpath_uop_misses");
/// Translations served by a page latch across all injected runs.
pub static FASTPATH_LATCH_HITS: Counter = Counter::new("campaign.fastpath_latch_hits");
/// L1 accesses served by a line latch across all injected runs.
pub static FASTPATH_LINE_HITS: Counter = Counter::new("campaign.fastpath_line_hits");

/// Folds one finished run's fast-path activity into the process-wide
/// campaign counters. `before` is the stats the machine arrived with —
/// a cursor clone inherits the cursor's lifetime counters, so only the
/// delta belongs to this run.
pub(crate) fn bank_fastpath_delta(before: Option<FastPathStats>, after: Option<FastPathStats>) {
    let Some(a) = after else { return };
    let b = before.unwrap_or_default();
    FASTPATH_UOP_HITS.add(a.uop_hits.saturating_sub(b.uop_hits));
    FASTPATH_UOP_MISSES.add(a.uop_misses.saturating_sub(b.uop_misses));
    FASTPATH_LATCH_HITS.add(a.latch_hits.saturating_sub(b.latch_hits));
    FASTPATH_LINE_HITS.add(a.line_hits.saturating_sub(b.line_hits));
}

/// One worker thread's fault-free machine, pinned to the golden path of
/// the campaign identified by `key`.
struct Cursor {
    key: (u64, u64),
    sys: System<Board>,
}

thread_local! {
    static CURSOR: RefCell<Option<Cursor>> = const { RefCell::new(None) };
}

/// Drop this thread's cursor (tests and fleet workers switching studies;
/// a stale cursor would also just be re-seeded by the key check).
pub fn reset_cursor() {
    CURSOR.with(|slot| *slot.borrow_mut() = None);
}

/// Nearest checkpoint epoch at or before `cycle` — the position a fresh
/// [`machine_toward`](crate::campaign) machine would start at.
pub(crate) fn baseline(ckpts: Option<&CheckpointSet>, cycle: u64) -> u64 {
    ckpts.map_or(0, |c| {
        let e = c.epoch_cycles();
        e[..e.partition_point(|&x| x <= cycle)]
            .last()
            .copied()
            .unwrap_or(0)
    })
}

/// Runs `f` on this worker's cursor, advanced to the golden path's step
/// boundary at (or just past the step straddling) `cycle`. Returns `None`
/// when the campaign runs without a cursor.
pub(crate) fn with_cursor_at<R>(
    workload: &BuiltWorkload,
    cfg: &CampaignConfig,
    ckpts: Option<&CheckpointSet>,
    cycle: u64,
    f: impl FnOnce(&System<Board>) -> R,
) -> Option<R> {
    if !cfg.warp {
        return None;
    }
    let key = (config_hash(cfg), golden_hash(workload));
    let base = baseline(ckpts, cycle);
    CURSOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        // A cursor is reusable when it belongs to this campaign, has not
        // passed the target, and no checkpoint lies strictly ahead of it
        // (restoring would be cheaper than whatever stepping remains).
        let reusable = matches!(&*slot, Some(c)
            if c.key == key && c.sys.cycles() <= cycle && c.sys.cycles() >= base);
        if !reusable {
            if slot.take().is_some() {
                WARP_CURSOR_RESETS.inc();
            }
            let mut sys = match ckpts.and_then(|c| c.restore_at(cycle)) {
                Some(sys) => sys,
                None => {
                    boot(cfg.machine, &workload.image, &cfg.kernel)
                        .expect("boot succeeded for the golden run, must succeed here")
                        .0
                }
            };
            // Always armed on the cursor: the fast path is bit-transparent
            // and the cursor exists purely to go fast.
            sys.fastpath_enable(sea_microarch::FastPathConfig::default());
            *slot = Some(Cursor { key, sys });
        }
        let cursor = slot.as_mut().expect("cursor seeded above");
        let start = cursor.sys.cycles();
        // Advance the cursor itself to the strike cycle — this is the work
        // every subsequent run of this worker's block gets for free.
        while cursor.sys.cycles() < cycle {
            cursor.sys.step();
        }
        WARP_ADVANCE_CYCLES.add(cursor.sys.cycles() - start);
        WARP_PREFIX_CYCLES_SAVED.add(start.saturating_sub(base));
        WARP_HANDOFFS.inc();
        Some(f(&cursor.sys))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use sea_platform::golden_run_with_checkpoints;
    use sea_workloads::{Scale, Workload};

    #[test]
    fn baseline_picks_nearest_epoch_at_or_before() {
        assert_eq!(baseline(None, 1234), 0);
        let cfg = CampaignConfig::default();
        let w = Workload::Crc32.build(Scale::Tiny);
        let (_, set) = golden_run_with_checkpoints(
            cfg.machine,
            &w.image,
            &cfg.kernel,
            cfg.golden_budget_cycles,
            8_192,
        )
        .expect("tiny CRC32 golden run");
        let e = set.epoch_cycles();
        assert!(e.len() >= 3 && e[0] == 0, "epochs {e:?}");
        let last = *e.last().expect("epochs");
        let ckpts = Some(&set);
        assert_eq!(
            baseline(ckpts, e[1] - 1),
            0,
            "before the first non-zero epoch"
        );
        assert_eq!(baseline(ckpts, e[1]), e[1], "exactly on an epoch");
        let mid = (e[1] + e[2]) / 2;
        assert!(e[1] < mid && mid < e[2]);
        assert_eq!(baseline(ckpts, mid), e[1], "between two epochs");
        assert_eq!(
            baseline(ckpts, last + 1_000_000),
            last,
            "past the last epoch"
        );
    }
}
