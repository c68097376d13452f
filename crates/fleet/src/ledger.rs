//! The block ledger: which injection indices of one workload are done,
//! granted, or still waiting.
//!
//! The daemon shards a campaign's index space `[0, total)` into
//! contiguous block claims, mirroring the in-process supervisor's
//! claiming policy (blocks shrink as the tail approaches so stragglers
//! even out). A grant carries a deadline; a worker that dies (socket EOF)
//! or stalls past it gets its blocks requeued for other shards to steal.
//! Completion is tracked per *index*, so a block that was requeued and
//! then completed twice — once by the stalled original, once by the
//! thief — settles idempotently, and the byte-identical duplicate journal
//! lines are deduplicated by the merge.

use std::collections::VecDeque;
use std::time::Instant;

/// Largest block handed to one worker in one grant.
const MAX_BLOCK: u64 = 64;

/// A granted, not-yet-completed block.
#[derive(Clone, Copy, Debug)]
pub struct Outstanding {
    /// First index of the block.
    pub start: u64,
    /// One past the last index.
    pub end: u64,
    /// The shard holding the grant.
    pub shard: u32,
    /// When the grant was issued (stall watchdog reference).
    pub granted_at: Instant,
}

/// Index-space bookkeeping for one workload of one study.
pub struct Ledger {
    total: u64,
    done: Vec<bool>,
    done_count: u64,
    pending: VecDeque<(u64, u64)>,
    outstanding: Vec<Outstanding>,
}

impl Ledger {
    /// A ledger over `[0, total)` with `already_done` indices (from shard
    /// journal scans) pre-marked. Out-of-range indices are ignored.
    pub fn new(total: u64, already_done: impl IntoIterator<Item = u64>) -> Ledger {
        let mut done = vec![false; total as usize];
        let mut done_count = 0u64;
        for i in already_done {
            if i < total && !done[i as usize] {
                done[i as usize] = true;
                done_count += 1;
            }
        }
        let mut pending = VecDeque::new();
        let mut i = 0u64;
        while i < total {
            if done[i as usize] {
                i += 1;
                continue;
            }
            let start = i;
            while i < total && !done[i as usize] {
                i += 1;
            }
            pending.push_back((start, i));
        }
        Ledger {
            total,
            done,
            done_count,
            pending,
            outstanding: Vec::new(),
        }
    }

    /// Total indices in the workload.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Completed indices.
    pub fn done_count(&self) -> u64 {
        self.done_count
    }

    /// Indices currently granted and not yet reported done.
    pub fn outstanding_count(&self) -> u64 {
        self.outstanding.iter().map(|o| o.end - o.start).sum()
    }

    /// True once every index is done.
    pub fn complete(&self) -> bool {
        self.done_count == self.total
    }

    /// Grant the next block to `shard`. Block size tracks the remaining
    /// ungranted work divided across the worker fleet (like the in-process
    /// supervisor: big blocks early for locality, small blocks late so the
    /// tail spreads), capped at [`MAX_BLOCK`]. `None` when everything is
    /// granted or done — the caller holds the claim until a completion or
    /// requeue changes that (it may steal requeued work then).
    pub fn claim(&mut self, shard: u32, workers: u64) -> Option<(u64, u64)> {
        let (start, end) = self.pending.pop_front()?;
        let remaining: u64 = (end - start) + self.pending.iter().map(|&(s, e)| e - s).sum::<u64>();
        let block = (remaining / (workers.max(1) * 4)).clamp(1, MAX_BLOCK);
        let granted_end = (start + block).min(end);
        if granted_end < end {
            self.pending.push_front((granted_end, end));
        }
        self.outstanding.push(Outstanding {
            start,
            end: granted_end,
            shard,
            granted_at: Instant::now(),
        });
        Some((start, granted_end))
    }

    /// Record a completed block: marks its indices done and releases the
    /// matching grant. Idempotent — re-completions of stolen blocks only
    /// flip bits that are already set. Returns the number of indices newly
    /// marked done.
    pub fn mark_done(&mut self, shard: u32, start: u64, end: u64) -> u64 {
        let mut fresh = 0u64;
        for i in start..end.min(self.total) {
            if !self.done[i as usize] {
                self.done[i as usize] = true;
                fresh += 1;
            }
        }
        self.done_count += fresh;
        // Release the exact grant if this shard still holds it (it may
        // have been requeued away by the stall watchdog already).
        if let Some(k) = self
            .outstanding
            .iter()
            .position(|o| o.shard == shard && o.start == start && o.end == end)
        {
            self.outstanding.swap_remove(k);
        }
        fresh
    }

    /// Requeue every block granted to `shard` (worker death). Indices that
    /// are already done (the block raced its own requeue) are skipped.
    /// Returns the number of indices requeued.
    pub fn requeue_shard(&mut self, shard: u32) -> u64 {
        let (dead, live): (Vec<_>, Vec<_>) =
            self.outstanding.drain(..).partition(|o| o.shard == shard);
        self.outstanding = live;
        let mut n = 0;
        for o in dead {
            n += self.requeue_range(o.start, o.end);
        }
        n
    }

    /// Requeue every grant older than `watchdog_ms` (stalled worker).
    /// Returns the number of indices requeued.
    pub fn requeue_stalled(&mut self, watchdog_ms: u64) -> u64 {
        let now = Instant::now();
        let (stalled, live): (Vec<_>, Vec<_>) = self
            .outstanding
            .drain(..)
            .partition(|o| now.duration_since(o.granted_at).as_millis() as u64 >= watchdog_ms);
        self.outstanding = live;
        let mut n = 0;
        for o in stalled {
            n += self.requeue_range(o.start, o.end);
        }
        n
    }

    fn requeue_range(&mut self, start: u64, end: u64) -> u64 {
        let mut n = 0;
        let mut i = start;
        while i < end {
            if self.done[i as usize] {
                i += 1;
                continue;
            }
            let s = i;
            while i < end && !self.done[i as usize] {
                i += 1;
            }
            // Front of the queue: requeued work is the oldest, steal it
            // first so a died-early block doesn't wait out the whole tail.
            self.pending.push_front((s, i));
            n += i - s;
        }
        n
    }

    /// Per-shard outstanding snapshot for status documents.
    pub fn outstanding(&self) -> &[Outstanding] {
        &self.outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Drive a ledger to completion with `shards` greedy workers and
    /// return every granted range per completion order.
    fn drain(ledger: &mut Ledger, shards: u32) {
        while !ledger.complete() {
            let mut granted = Vec::new();
            for s in 0..shards {
                while let Some((a, b)) = ledger.claim(s, u64::from(shards)) {
                    granted.push((s, a, b));
                }
            }
            assert!(!granted.is_empty(), "no grants but incomplete");
            for (s, a, b) in granted {
                ledger.mark_done(s, a, b);
            }
        }
    }

    #[test]
    fn grants_cover_the_space_exactly_once() {
        let mut l = Ledger::new(500, []);
        let mut seen = BTreeSet::new();
        let mut grants = Vec::new();
        while let Some((a, b)) = l.claim(0, 4) {
            assert!(b > a && b - a <= 64);
            for i in a..b {
                assert!(seen.insert(i), "index {i} granted twice");
            }
            grants.push((a, b));
        }
        assert_eq!(seen.len(), 500);
        assert_eq!(l.outstanding_count(), 500);
        for (a, b) in grants {
            l.mark_done(0, a, b);
        }
        assert!(l.complete());
        assert_eq!(l.outstanding_count(), 0);
    }

    #[test]
    fn resume_skips_already_done_indices() {
        let mut l = Ledger::new(10, [0, 1, 2, 7, 7, 99]);
        assert_eq!(l.done_count(), 4);
        let mut granted = BTreeSet::new();
        while let Some((a, b)) = l.claim(0, 1) {
            granted.extend(a..b);
        }
        assert_eq!(granted, BTreeSet::from([3, 4, 5, 6, 8, 9]));
    }

    #[test]
    fn dead_shard_blocks_are_stolen() {
        let mut l = Ledger::new(100, []);
        let (a, b) = l.claim(0, 2).unwrap();
        let (c, d) = l.claim(1, 2).unwrap();
        // Shard 0 "completes" a prefix of its block via the thief later;
        // first it dies with the whole block outstanding.
        assert_eq!(l.requeue_shard(0), b - a);
        assert_eq!(l.outstanding_count(), d - c);
        // The requeued range comes back out first (front of the queue).
        let (e, f) = l.claim(1, 2).unwrap();
        assert_eq!(e, a, "stolen block is served before fresh work");
        l.mark_done(1, c, d);
        l.mark_done(1, e, f);
        drain(&mut l, 2);
        assert!(l.complete());
    }

    #[test]
    fn stalled_grants_requeue_and_late_completion_is_idempotent() {
        let mut l = Ledger::new(64, []);
        let (a, b) = l.claim(0, 1).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(l.requeue_stalled(1), b - a);
        assert_eq!(l.outstanding_count(), 0);
        // Thief takes it and finishes.
        let (c, d) = l.claim(1, 1).unwrap();
        assert_eq!((c, d), (a, b));
        assert_eq!(l.mark_done(1, c, d), d - c);
        // The stalled original limps in afterward: no double counting.
        assert_eq!(l.mark_done(0, a, b), 0);
        drain(&mut l, 1);
        assert_eq!(l.done_count(), 64);
    }

    #[test]
    fn fresh_grants_survive_the_stall_sweep() {
        let mut l = Ledger::new(32, []);
        let _ = l.claim(0, 1).unwrap();
        assert_eq!(l.requeue_stalled(60_000), 0);
        assert_eq!(l.outstanding().len(), 1);
    }
}
