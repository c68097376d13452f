//! Live campaign progress: runs/sec, class distribution, ETA.
//!
//! Shared by injection campaigns and beam sessions. Workers call
//! [`Progress::record`] after each run; one of them (whichever crosses the
//! throttle window first) prints a single-line status to stderr. All state
//! is atomic — no locks on the worker path.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Global switch for progress meters (the `--progress` flag).
static PROGRESS_ON: AtomicBool = AtomicBool::new(false);

/// Enable or disable progress meters process-wide.
pub fn set_progress(on: bool) {
    PROGRESS_ON.store(on, Ordering::Relaxed);
}

/// Are progress meters enabled?
pub fn progress_enabled() -> bool {
    PROGRESS_ON.load(Ordering::Relaxed)
}

/// Minimum milliseconds between printed status lines.
const THROTTLE_MS: u64 = 200;

/// A progress meter over a known number of runs, with per-class counts.
pub struct Progress {
    label: String,
    total: u64,
    class_names: &'static [&'static str],
    done: AtomicU64,
    classes: Vec<AtomicU64>,
    /// Total expected work units (e.g. cycles to simulate across all
    /// runs); 0 means unknown, falling back to run-count ETA.
    total_work: AtomicU64,
    /// Work units actually completed so far.
    work_done: AtomicU64,
    start: Instant,
    last_print_ms: AtomicU64,
    active: bool,
}

impl Progress {
    /// A meter for `total` runs labeled `label`, tracking one counter per
    /// entry of `class_names`. Inactive (all methods cheap no-ops beyond
    /// counting) unless [`set_progress`] was turned on.
    pub fn new(
        label: impl Into<String>,
        total: u64,
        class_names: &'static [&'static str],
    ) -> Progress {
        Progress {
            label: label.into(),
            total,
            class_names,
            done: AtomicU64::new(0),
            classes: (0..class_names.len()).map(|_| AtomicU64::new(0)).collect(),
            total_work: AtomicU64::new(0),
            work_done: AtomicU64::new(0),
            start: Instant::now(),
            last_print_ms: AtomicU64::new(0),
            active: progress_enabled(),
        }
    }

    /// Record one completed run of class `class` (index into the meter's
    /// class names; `None` counts only the total).
    pub fn record(&self, class: Option<usize>) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(c) = class {
            if let Some(slot) = self.classes.get(c) {
                slot.fetch_add(1, Ordering::Relaxed);
            }
        }
        if self.active {
            self.maybe_print(done, false);
        }
    }

    /// Declare the total expected work units (e.g. cycles to simulate
    /// across all pending runs). When set, the ETA is computed from the
    /// work rate instead of the run rate — with checkpoint restores, runs
    /// differ wildly in cost (a run restored near its injection cycle
    /// simulates far fewer cycles than one replayed from boot), so a
    /// run-count ETA whipsaws while a work-weighted one stays calibrated.
    pub fn set_total_work(&self, work: u64) {
        self.total_work.store(work, Ordering::Relaxed);
    }

    /// Credit the current run with `work` units (call next to
    /// [`Progress::record`]). Credit what the run was *planned* at in
    /// [`Progress::set_total_work`], not what it turned out to cost: a run
    /// that finished cheaper than planned (served from a cursor, cut at a
    /// reconvergence) has still retired its whole share of the total, and
    /// crediting less leaves a finished campaign looking part-done.
    pub fn record_work(&self, work: u64) {
        self.work_done.fetch_add(work, Ordering::Relaxed);
    }

    /// Runs completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Planned total runs.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Current remaining-time estimate in seconds — work-weighted when
    /// [`Progress::set_total_work`] was declared, run-count otherwise.
    pub fn eta(&self) -> f64 {
        let done = self.done();
        let secs = self.elapsed_secs();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        self.eta_secs(done, secs, rate)
    }

    /// Elapsed wall-clock seconds since creation.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Overall runs/second so far.
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.elapsed_secs();
        if secs > 0.0 {
            self.done() as f64 / secs
        } else {
            0.0
        }
    }

    /// Per-class counts, index-aligned with the constructor's names.
    pub fn class_counts(&self) -> Vec<u64> {
        self.classes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Print a final status line (if active) and return (done, secs).
    pub fn finish(&self) -> (u64, f64) {
        let done = self.done();
        if self.active {
            self.maybe_print(done, true);
            eprintln!();
        }
        (done, self.elapsed_secs())
    }

    fn maybe_print(&self, done: u64, force: bool) {
        let now_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        if !force && (now_ms < last.saturating_add(THROTTLE_MS)) {
            return;
        }
        // One printer at a time; losers just skip.
        if self
            .last_print_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
            && !force
        {
            return;
        }
        let secs = self.elapsed_secs();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let eta = self.eta_secs(done, secs, rate);
        let mut line = format!(
            "\r{}: {}/{} ({:.0}/s, ETA {:.0}s)",
            self.label, done, self.total, rate, eta
        );
        for (name, slot) in self.class_names.iter().zip(&self.classes) {
            line.push_str(&format!(" {}={}", name, slot.load(Ordering::Relaxed)));
        }
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
        let _ = err.flush();
    }

    /// Remaining-time estimate. Work-weighted (remaining work units over
    /// the observed work rate) when [`Progress::set_total_work`] was
    /// called; otherwise run-count based.
    fn eta_secs(&self, done: u64, secs: f64, run_rate: f64) -> f64 {
        let total_work = self.total_work.load(Ordering::Relaxed);
        if total_work > 0 && secs > 0.0 {
            let work_done = self.work_done.load(Ordering::Relaxed);
            let work_rate = work_done as f64 / secs;
            if work_rate > 0.0 && total_work > work_done {
                return (total_work - work_done) as f64 / work_rate;
            }
            if work_done >= total_work {
                return 0.0;
            }
        }
        if run_rate > 0.0 && self.total > done {
            (self.total - done) as f64 / run_rate
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_without_printing_when_disabled() {
        set_progress(false);
        let p = Progress::new("test", 10, &["a", "b"]);
        for i in 0..10 {
            p.record(Some(i % 2));
        }
        assert_eq!(p.done(), 10);
        assert_eq!(p.class_counts(), vec![5, 5]);
        let (done, secs) = p.finish();
        assert_eq!(done, 10);
        assert!(secs >= 0.0);
        assert!(p.runs_per_sec() >= 0.0);
    }

    #[test]
    fn work_weighted_eta_tracks_cycles_not_runs() {
        let p = Progress::new("test", 10, &[]);
        // 8 of 10 runs done, but they were the cheap (checkpoint-restored)
        // ones: only 20% of the total cycles are simulated.
        p.set_total_work(1_000_000);
        for _ in 0..8 {
            p.record(None);
            p.record_work(25_000);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        let secs = p.elapsed_secs();
        let run_rate = p.runs_per_sec();
        let eta = p.eta_secs(p.done(), secs, run_rate);
        // 800k cycles remain at 200k/secs elapsed: work ETA = 4 * secs.
        // A run-count ETA would claim 2 runs / (8/secs) = secs / 4 —
        // sixteen times too optimistic here.
        assert!(
            (eta - 4.0 * secs).abs() < 0.2 * secs,
            "eta={eta} secs={secs}"
        );

        // Without total work declared, fall back to the run-count ETA.
        let q = Progress::new("test", 10, &[]);
        for _ in 0..8 {
            q.record(None);
            q.record_work(25_000);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        let qsecs = q.elapsed_secs();
        let qeta = q.eta_secs(q.done(), qsecs, q.runs_per_sec());
        assert!(
            (qeta - qsecs / 4.0).abs() < 0.2 * qsecs,
            "eta={qeta} secs={qsecs}"
        );
    }

    #[test]
    fn work_eta_reaches_zero_when_runs_simulate_less_than_planned() {
        // Ten runs planned at 100k cycles each; every one is cut short
        // after simulating 30k. Credited with its planned share, half the
        // runs are half the work and the last run closes the ledger.
        // (Credited with the 30k it simulated, the finished campaign would
        // stand at 30% with a positive ETA forever.)
        let planned = 100_000;
        let p = Progress::new("test", 10, &[]);
        p.set_total_work(10 * planned);
        for _ in 0..5 {
            p.record(None);
            p.record_work(planned);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        let secs = p.elapsed_secs();
        let eta = p.eta_secs(p.done(), secs, p.runs_per_sec());
        assert!((eta - secs).abs() < 0.2 * secs, "eta={eta} secs={secs}");
        for _ in 0..5 {
            p.record(None);
            p.record_work(planned);
        }
        assert_eq!(p.eta(), 0.0);
    }

    #[test]
    fn out_of_range_class_is_ignored() {
        let p = Progress::new("test", 2, &["only"]);
        p.record(Some(5));
        p.record(None);
        assert_eq!(p.done(), 2);
        assert_eq!(p.class_counts(), vec![0]);
    }
}
