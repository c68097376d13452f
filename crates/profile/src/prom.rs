//! Prometheus text-exposition snapshot writer.
//!
//! Renders a campaign's metrics in [Prometheus exposition format]. The
//! same document is served live at `/metrics` when a campaign runs with
//! `--serve`, and, with `--prom-out`, periodically rewritten to a small
//! text file, so a `node_exporter` textfile collector (or just `watch
//! cat`) can follow a campaign that runs no server. Histograms are emitted
//! as cumulative `_bucket{le="..."}` series derived from sea-trace's log2
//! buckets.
//!
//! [Prometheus exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use sea_trace::metrics::{bucket_hi, HistSnapshot, BUCKETS};
use sea_trace::{event, Level, Subsystem};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() && !(i == 0 && c.is_ascii_digit()) || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render a `{k="v",...}` label set in exposition syntax. Label *names*
/// are sanitized like metric names; label *values* get backslash, quote
/// and newline escaped as the format requires. An empty pair list renders
/// as an empty string, so `name{}` never appears.
pub fn labels(pairs: &[(&str, &str)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&sanitize(k));
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Incremental builder for one Prometheus text-exposition document.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Append a monotonically increasing counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let name = sanitize(name);
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Append a gauge (a value that can go up and down).
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        let name = sanitize(name);
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} gauge");
        if value.is_finite() {
            let _ = writeln!(self.out, "{name} {value}");
        } else {
            let _ = writeln!(self.out, "{name} NaN");
        }
    }

    /// Append one counter family with several labeled series. Each entry is
    /// `(label-set, value)` where the label set comes from [`labels`]. One
    /// `HELP`/`TYPE` header is written for the family, then one sample line
    /// per series — the shape fleet `/metrics` uses for per-worker series.
    pub fn counter_vec(&mut self, name: &str, help: &str, series: &[(String, u64)]) {
        if series.is_empty() {
            return;
        }
        let name = sanitize(name);
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} counter");
        for (lbl, value) in series {
            let _ = writeln!(self.out, "{name}{lbl} {value}");
        }
    }

    /// Append one gauge family with several labeled series; see
    /// [`PromWriter::counter_vec`].
    pub fn gauge_vec(&mut self, name: &str, help: &str, series: &[(String, f64)]) {
        if series.is_empty() {
            return;
        }
        let name = sanitize(name);
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} gauge");
        for (lbl, value) in series {
            if value.is_finite() {
                let _ = writeln!(self.out, "{name}{lbl} {value}");
            } else {
                let _ = writeln!(self.out, "{name}{lbl} NaN");
            }
        }
    }

    /// Append a histogram as cumulative `_bucket` series (upper bounds from
    /// the snapshot's log2 buckets), plus `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistSnapshot) {
        let name = sanitize(name);
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, &n) in snap.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            if i + 1 == BUCKETS {
                // Folded into the mandatory +Inf bucket below.
                continue;
            }
            let le = bucket_hi(i);
            let _ = writeln!(self.out, "{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(self.out, "{name}_sum {}", snap.sum);
        let _ = writeln!(self.out, "{name}_count {}", snap.count);
    }

    /// The document built so far.
    pub fn finish(self) -> String {
        self.out
    }
}

struct PromTarget {
    path: PathBuf,
    last_write: Option<Instant>,
    /// A failed write has already been surfaced via a trace event; report
    /// once per target, not once per throttled retry.
    error_reported: bool,
}

static PROM_ON: AtomicBool = AtomicBool::new(false);
static PROM_TARGET: Mutex<Option<PromTarget>> = Mutex::new(None);

/// Minimum seconds between periodic (non-forced) snapshot rewrites.
const FLUSH_INTERVAL_SECS: f32 = 1.0;

/// Route periodic Prometheus snapshots to `path` (`None` disables them).
pub fn set_prom_out(path: Option<&Path>) {
    let mut target = PROM_TARGET.lock().unwrap();
    *target = path.map(|p| PromTarget {
        path: p.to_path_buf(),
        last_write: None,
        error_reported: false,
    });
    PROM_ON.store(target.is_some(), Ordering::Relaxed);
}

/// Is a Prometheus snapshot target configured? One `Relaxed` atomic load,
/// so callers can skip assembling the document entirely.
#[inline]
pub fn prom_enabled() -> bool {
    PROM_ON.load(Ordering::Relaxed)
}

/// Rewrite the configured snapshot file with the document `render`
/// produces. Rate-limited to roughly one write per second unless `force`
/// is set (set it for the final flush at campaign end). `render` only runs
/// when a write will actually happen. Returns whether a write happened.
pub fn prom_flush(force: bool, render: impl FnOnce() -> String) -> bool {
    if !prom_enabled() {
        return false;
    }
    let mut guard = PROM_TARGET.lock().unwrap();
    let Some(target) = guard.as_mut() else {
        return false;
    };
    if !force {
        if let Some(last) = target.last_write {
            if last.elapsed().as_secs_f32() < FLUSH_INTERVAL_SECS {
                return false;
            }
        }
    }
    let doc = render();
    // Write-then-rename so scrapers never see a half-written file.
    let tmp = target.path.with_extension("prom.tmp");
    let ok = std::fs::write(&tmp, doc).is_ok() && std::fs::rename(&tmp, &target.path).is_ok();
    if ok {
        target.last_write = Some(Instant::now());
    } else {
        // Don't leave a stale .tmp behind a failed rename, and surface the
        // fault once instead of silently dropping every snapshot.
        let _ = std::fs::remove_file(&tmp);
        if !target.error_reported {
            target.error_reported = true;
            event!(Subsystem::Harness, Level::Warn, "profile.prom_write_failed";
                   "path" => target.path.display().to_string());
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_format() {
        let mut w = PromWriter::new();
        w.counter("sea_runs_total", "Completed runs.", 42);
        w.gauge("sea runs-per-sec", "Throughput.", 3.5);
        let doc = w.finish();
        assert!(doc.contains("# TYPE sea_runs_total counter\nsea_runs_total 42\n"));
        assert!(doc.contains("# TYPE sea_runs_per_sec gauge\nsea_runs_per_sec 3.5\n"));
    }

    #[test]
    fn labeled_series_share_one_header() {
        let lbl = labels(&[("study", "abc123"), ("worker", "w2")]);
        assert_eq!(lbl, "{study=\"abc123\",worker=\"w2\"}");
        assert_eq!(labels(&[]), "");
        // Values get escaped; names get sanitized.
        assert_eq!(labels(&[("a-b", "x\"y\\z\n")]), "{a_b=\"x\\\"y\\\\z\\n\"}");

        let mut w = PromWriter::new();
        w.counter_vec(
            "sea_fleet_worker_runs",
            "Runs per worker.",
            &[
                (labels(&[("worker", "0")]), 10),
                (labels(&[("worker", "1")]), 12),
            ],
        );
        w.gauge_vec(
            "sea_fleet_worker_rate",
            "Runs/sec per worker.",
            &[(labels(&[("worker", "0")]), 3.5)],
        );
        let doc = w.finish();
        assert_eq!(
            doc.matches("# TYPE sea_fleet_worker_runs counter").count(),
            1
        );
        assert!(doc.contains("sea_fleet_worker_runs{worker=\"0\"} 10\n"));
        assert!(doc.contains("sea_fleet_worker_runs{worker=\"1\"} 12\n"));
        assert!(doc.contains("sea_fleet_worker_rate{worker=\"0\"} 3.5\n"));

        // Empty families emit nothing, not a dangling header.
        let mut w = PromWriter::new();
        w.counter_vec("sea_empty", "Nothing.", &[]);
        w.gauge_vec("sea_empty_g", "Nothing.", &[]);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut snap = HistSnapshot::empty("lat");
        for v in [1, 2, 3, 100, 100_000] {
            snap.record(v);
        }
        let mut w = PromWriter::new();
        w.histogram("sea_latency_us", "Latency.", &snap);
        let doc = w.finish();
        assert!(doc.contains("# TYPE sea_latency_us histogram"));
        assert!(doc.contains("sea_latency_us_bucket{le=\"+Inf\"} 5"));
        assert!(doc.contains("sea_latency_us_sum 100106"));
        assert!(doc.contains("sea_latency_us_count 5"));
        // Cumulative counts never decrease down the bucket list.
        let mut prev = 0u64;
        for line in doc
            .lines()
            .filter(|l| l.starts_with("sea_latency_us_bucket"))
        {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= prev, "{doc}");
            prev = n;
        }
    }

    #[test]
    fn flush_respects_target_and_throttle() {
        // The flush target is process-wide: the tests that set it take turns.
        let _guard = sea_trace::test_lock();
        let dir = std::env::temp_dir().join(format!("sea-prom-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.prom");

        set_prom_out(None);
        assert!(!prom_enabled());
        assert!(!prom_flush(true, || "x".to_string()), "no target, no write");

        set_prom_out(Some(&path));
        assert!(prom_enabled());
        assert!(prom_flush(false, || "# TYPE a counter\na 1\n".to_string()));
        assert!(
            !prom_flush(false, || unreachable!("throttled: render must not run")),
            "second write inside the interval is throttled"
        );
        assert!(prom_flush(true, || "# TYPE a counter\na 2\n".to_string()));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("a 2"));

        set_prom_out(None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_flush_cleans_up_its_tmp_file() {
        let _guard = sea_trace::test_lock();
        let dir = std::env::temp_dir().join(format!("sea-prom-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Make the rename target an existing directory: the tmp write
        // succeeds but the rename cannot.
        let path = dir.join("blocked.prom");
        std::fs::create_dir_all(&path).unwrap();

        set_prom_out(Some(&path));
        assert!(!prom_flush(true, || "a 1\n".to_string()));
        let tmp = path.with_extension("prom.tmp");
        assert!(!tmp.exists(), "stale tmp file left behind a failed rename");
        // Still throttles/retries normally afterwards (no poisoned state).
        assert!(!prom_flush(true, || "a 2\n".to_string()));

        set_prom_out(None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
