//! `trace summary` — post-hoc aggregation of a JSON-Lines trace.
//!
//! Parses the stream written by `--trace-out` (hand-rolled parser from
//! `sea-trace`, no serde) and renders the observability views the paper's
//! §V discussion needs: per-component **activation rates** (how often the
//! flipped cell was ever read) and **propagation-latency histograms**
//! (cycles from flip to first corrupt read, and flip to terminal class).

use crate::report::bar;
use sea_trace::json::{self, Json};
use sea_trace::HistSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregates over the `injection.provenance` records of one component.
#[derive(Clone, Debug)]
pub struct ComponentStats {
    /// Probed injections into this component.
    pub injections: u64,
    /// Runs whose corrupted cell was read before the run terminated.
    pub activated: u64,
    /// Runs where the corruption was first touched in kernel (SVC) mode.
    pub kernel_touches: u64,
    /// Flip → first corrupt read, in cycles (activated runs only).
    pub activation_latency: HistSnapshot,
    /// Flip → terminal classification, in cycles (activated runs only).
    pub failure_latency: HistSnapshot,
    /// Terminal class counts (masked / sdc / app-crash / sys-crash).
    pub classes: BTreeMap<String, u64>,
}

impl ComponentStats {
    fn new(component: &str) -> ComponentStats {
        ComponentStats {
            injections: 0,
            activated: 0,
            kernel_touches: 0,
            activation_latency: HistSnapshot::empty(format!("{component} flip→read cycles")),
            failure_latency: HistSnapshot::empty(format!("{component} flip→terminal cycles")),
            classes: BTreeMap::new(),
        }
    }

    /// Fraction of injections whose corrupted cell was read at all.
    pub fn activation_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.activated as f64 / self.injections as f64
        }
    }
}

/// Execution-tier residency, folded from `injection.tier` campaign-end
/// events: which tier each campaign ran on and how much work the warp
/// cursor, the µop fast path, dead-cell pruning and the reconvergence cut
/// absorbed.
#[derive(Clone, Debug, Default)]
pub struct TierStats {
    /// Campaigns that ran with the warp cursor armed.
    pub warp_campaigns: u64,
    /// Campaigns that ran detailed-only.
    pub detailed_campaigns: u64,
    /// Machines handed off from a warp cursor clone.
    pub warp_handoffs: u64,
    /// Cursors discarded (key change or target behind the cursor).
    pub warp_cursor_resets: u64,
    /// Detailed prefix cycles the cursor amortized away.
    pub warp_prefix_cycles_saved: u64,
    /// Detailed cycles cursors actually executed.
    pub warp_advance_cycles: u64,
    /// Decoded-µop fast-path hits across all runs.
    pub fastpath_uop_hits: u64,
    /// Decoded-µop fast-path misses across all runs.
    pub fastpath_uop_misses: u64,
    /// Runs answered at the strike: the golden run never reads the struck
    /// cells again.
    pub dead_pruned: u64,
    /// Of those, runs whose struck line is read again but whose struck
    /// byte is never consumed.
    pub dead_pruned_bytes: u64,
    /// Of those, runs that struck an invalid cache line or TLB entry (not
    /// its valid bit).
    pub dead_pruned_invalid: u64,
    /// Runs cut at an epoch checkpoint whose live state they had rejoined.
    pub reconverged: u64,
    /// Golden cycles those runs left unsimulated.
    pub reconverge_cycles_saved: u64,
}

/// A parsed trace, aggregated for rendering.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total parseable events seen.
    pub events: u64,
    /// Lines that failed JSON parsing (should be zero).
    pub malformed: u64,
    /// Total milliseconds spent in supervisor respawn backoff (summed from
    /// `supervisor.respawn_backoff` events' `ms` fields).
    pub respawn_backoff_ms: u64,
    /// Execution-tier residency from `injection.tier` events.
    pub tier: TierStats,
    /// Event counts per event name.
    pub by_name: BTreeMap<String, u64>,
    /// Span durations (µs) per event name, for every event carrying a
    /// `dur_us` field (i.e. every closed `sea_trace::span`).
    pub spans: BTreeMap<String, HistSnapshot>,
    /// Provenance aggregates keyed by component short name.
    pub components: BTreeMap<String, ComponentStats>,
}

impl TraceSummary {
    /// Aggregate every line of a JSON-Lines trace.
    pub fn from_jsonl(text: &str) -> TraceSummary {
        let mut s = TraceSummary::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match json::parse(line) {
                Ok(ev) => s.record(&ev),
                Err(_) => s.malformed += 1,
            }
        }
        s
    }

    /// Supervisor-health counters derived from event counts: the trace's
    /// view of the series `/metrics` serves live (worker deaths, run
    /// panics, watchdog kills, journal resumes, early stops).
    pub fn health(&self) -> Vec<(&'static str, u64)> {
        let n = |name: &str| self.by_name.get(name).copied().unwrap_or(0);
        vec![
            ("worker deaths", n("supervisor.worker_died")),
            ("run panics", n("supervisor.panic")),
            ("watchdog kills", n("platform.wall_timeout")),
            ("journal resumes", n("supervisor.resume")),
            (
                "early stops",
                n("injection.early_stop") + n("beam.early_stop"),
            ),
            ("respawn backoff ms", self.respawn_backoff_ms),
        ]
    }

    /// Fold one parsed event into the aggregates.
    pub fn record(&mut self, ev: &Json) {
        self.events += 1;
        let name = ev
            .get("ev")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        *self.by_name.entry(name.clone()).or_insert(0) += 1;
        if name == "supervisor.respawn_backoff" {
            self.respawn_backoff_ms += ev.get("ms").and_then(Json::as_u64).unwrap_or(0);
        }
        if name == "injection.tier" {
            let n = |key: &str| ev.get(key).and_then(Json::as_u64).unwrap_or(0);
            let t = &mut self.tier;
            match ev.get("tier").and_then(Json::as_str) {
                Some("warp") => t.warp_campaigns += 1,
                _ => t.detailed_campaigns += 1,
            }
            t.warp_handoffs += n("warp_handoffs");
            t.warp_cursor_resets += n("warp_cursor_resets");
            t.warp_prefix_cycles_saved += n("warp_prefix_cycles_saved");
            t.warp_advance_cycles += n("warp_advance_cycles");
            t.fastpath_uop_hits += n("fastpath_uop_hits");
            t.fastpath_uop_misses += n("fastpath_uop_misses");
            t.dead_pruned += n("dead_pruned");
            t.dead_pruned_bytes += n("dead_pruned_bytes");
            t.dead_pruned_invalid += n("dead_pruned_invalid");
            t.reconverged += n("reconverged");
            t.reconverge_cycles_saved += n("reconverge_cycles_saved");
        }
        if let Some(dur) = ev.get("dur_us").and_then(Json::as_u64) {
            self.spans
                .entry(name.clone())
                .or_insert_with(|| HistSnapshot::empty(format!("{name} µs")))
                .record(dur);
        }
        if name != "injection.provenance" {
            return;
        }
        let component = ev
            .get("component")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let c = self
            .components
            .entry(component.clone())
            .or_insert_with(|| ComponentStats::new(&component));
        c.injections += 1;
        let activated = ev.get("activated").and_then(Json::as_bool).unwrap_or(false);
        if activated {
            c.activated += 1;
            if let Some(lat) = ev.get("act_cycles").and_then(Json::as_u64) {
                c.activation_latency.record(lat);
            }
            if let Some(total) = ev.get("total_cycles").and_then(Json::as_u64) {
                c.failure_latency.record(total);
            }
        }
        if ev
            .get("kernel_touch")
            .and_then(Json::as_bool)
            .unwrap_or(false)
        {
            c.kernel_touches += 1;
        }
        if let Some(class) = ev.get("class").and_then(Json::as_str) {
            *c.classes.entry(class.to_string()).or_insert(0) += 1;
        }
    }

    /// Render the full summary: event counts, a per-component
    /// activation-rate chart, and the two latency histograms per component.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace summary — {} events, {} malformed line(s)\n\n",
            self.events, self.malformed
        );
        out.push_str("event counts\n");
        let name_w = self.by_name.keys().map(String::len).max().unwrap_or(5);
        for (name, n) in &self.by_name {
            let _ = writeln!(out, "  {name:<name_w$}  {n:>10}");
        }
        if self.by_name.is_empty() {
            out.push_str("  (none)\n");
        }
        let health = self.health();
        if health.iter().any(|&(_, n)| n > 0) {
            out.push_str("\nsupervisor health\n");
            let label_w = health.iter().map(|(l, _)| l.len()).max().unwrap_or(5);
            for (label, n) in &health {
                let _ = writeln!(out, "  {label:<label_w$}  {n:>10}");
            }
        }
        let t = &self.tier;
        if t.warp_campaigns + t.detailed_campaigns > 0 {
            out.push_str("\nexecution tiers\n");
            let rows: [(&str, u64); 13] = [
                ("warp campaigns", t.warp_campaigns),
                ("detailed campaigns", t.detailed_campaigns),
                ("warp handoffs", t.warp_handoffs),
                ("warp cursor resets", t.warp_cursor_resets),
                ("prefix cycles saved", t.warp_prefix_cycles_saved),
                ("cursor cycles run", t.warp_advance_cycles),
                ("fastpath µop hits", t.fastpath_uop_hits),
                ("fastpath µop misses", t.fastpath_uop_misses),
                ("dead-pruned runs", t.dead_pruned),
                ("  unconsumed byte", t.dead_pruned_bytes),
                ("  invalid entry", t.dead_pruned_invalid),
                ("reconverged runs", t.reconverged),
                ("suffix cycles saved", t.reconverge_cycles_saved),
            ];
            let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(5);
            for (label, n) in rows {
                let _ = writeln!(out, "  {label:<label_w$}  {n:>10}");
            }
        }
        if !self.spans.is_empty() {
            out.push_str("\nspan durations (µs, log2-bucket approximations)\n");
            let span_w = self.spans.keys().map(String::len).max().unwrap_or(5);
            let _ = writeln!(
                out,
                "  {:<span_w$}  {:>8} {:>10} {:>10} {:>10}",
                "span", "count", "p50", "p95", "max"
            );
            for (name, h) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:<span_w$}  {:>8} {:>10} {:>10} {:>10}",
                    h.count,
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.max,
                );
            }
        }
        if self.components.is_empty() {
            out.push_str("\nno injection.provenance records in trace\n");
            return out;
        }
        out.push_str("\nactivation rate per component (corrupted cell ever read)\n");
        let comp_w = self.components.keys().map(String::len).max().unwrap_or(4);
        for (comp, c) in &self.components {
            let rate = c.activation_rate();
            let _ = writeln!(
                out,
                "  {comp:<comp_w$} |{:<30}| {:5.1}%  ({}/{} runs, {} kernel-first)",
                bar(rate, 1.0, 30),
                100.0 * rate,
                c.activated,
                c.injections,
                c.kernel_touches,
            );
        }
        out.push_str("\npropagation latency (log2 buckets)\n");
        for c in self.components.values() {
            out.push_str(&indent(&c.activation_latency.render(30)));
            out.push_str(&indent(&c.failure_latency.render(30)));
        }
        out
    }
}

fn indent(block: &str) -> String {
    let mut out = String::with_capacity(block.len() + 16);
    for line in block.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(component: &str, activated: bool, act: u64, total: u64, class: &str) -> String {
        format!(
            "{{\"ev\":\"injection.provenance\",\"sub\":\"injection\",\"level\":\"info\",\
             \"cycle\":10,\"component\":\"{component}\",\"bit\":3,\"activated\":{activated},\
             \"act_cycles\":{act},\"kernel_touch\":false,\"class\":\"{class}\",\
             \"total_cycles\":{total}}}"
        )
    }

    #[test]
    fn aggregates_provenance_records_per_component() {
        let text = [
            record("L1D$", true, 40, 900, "sdc"),
            record("L1D$", false, 0, 100, "masked"),
            record("RF", true, 2, 30, "app-crash"),
            "{\"ev\":\"beam.strike\",\"sub\":\"beam\",\"level\":\"info\"}".to_string(),
        ]
        .join("\n");
        let s = TraceSummary::from_jsonl(&text);
        assert_eq!(s.events, 4);
        assert_eq!(s.malformed, 0);
        assert_eq!(s.by_name["injection.provenance"], 3);
        let l1d = &s.components["L1D$"];
        assert_eq!(l1d.injections, 2);
        assert_eq!(l1d.activated, 1);
        assert!((l1d.activation_rate() - 0.5).abs() < 1e-12);
        assert_eq!(l1d.activation_latency.count, 1);
        assert_eq!(l1d.failure_latency.max, 900);
        assert_eq!(l1d.classes["sdc"], 1);
        assert_eq!(s.components["RF"].activated, 1);
    }

    #[test]
    fn render_shows_rates_and_latency_histograms() {
        let text = [
            record("L2$", true, 128, 4096, "sys-crash"),
            record("L2$", false, 0, 50, "masked"),
        ]
        .join("\n");
        let out = TraceSummary::from_jsonl(&text).render();
        assert!(out.contains("activation rate per component"), "{out}");
        assert!(out.contains("50.0%"), "{out}");
        assert!(out.contains("L2$ flip→read cycles"), "{out}");
        assert!(out.contains("L2$ flip→terminal cycles"), "{out}");
        assert!(out.contains('#'), "{out}");
    }

    #[test]
    fn span_durations_aggregate_per_name_with_percentiles() {
        let mut lines: Vec<String> = (1..=100u64)
            .map(|d| {
                format!(
                    "{{\"ev\":\"injection.worker\",\"sub\":\"injection\",\
                     \"level\":\"info\",\"dur_us\":{d}}}"
                )
            })
            .collect();
        // An event without dur_us contributes to counts but not to spans.
        lines.push("{\"ev\":\"beam.strike\",\"sub\":\"beam\",\"level\":\"info\"}".to_string());
        let s = TraceSummary::from_jsonl(&lines.join("\n"));
        let h = &s.spans["injection.worker"];
        assert_eq!(h.count, 100);
        assert_eq!(h.max, 100);
        assert!(h.percentile(95.0) >= 95);
        assert!(!s.spans.contains_key("beam.strike"));
        let out = s.render();
        assert!(out.contains("span durations"), "{out}");
        assert!(out.contains("p95"), "{out}");
    }

    #[test]
    fn health_section_appears_only_when_supervision_fired() {
        let quiet = TraceSummary::from_jsonl(
            "{\"ev\":\"beam.strike\",\"sub\":\"beam\",\"level\":\"info\"}\n",
        );
        assert!(!quiet.render().contains("supervisor health"));
        let text = [
            "{\"ev\":\"supervisor.worker_died\",\"sub\":\"injection\",\"level\":\"warn\"}",
            "{\"ev\":\"platform.wall_timeout\",\"sub\":\"platform\",\"level\":\"warn\"}",
            "{\"ev\":\"platform.wall_timeout\",\"sub\":\"platform\",\"level\":\"warn\"}",
            "{\"ev\":\"injection.early_stop\",\"sub\":\"injection\",\"level\":\"info\"}",
            "{\"ev\":\"supervisor.respawn_backoff\",\"sub\":\"injection\",\"level\":\"warn\",\"ms\":12}",
            "{\"ev\":\"supervisor.respawn_backoff\",\"sub\":\"injection\",\"level\":\"warn\",\"ms\":25}",
        ]
        .join("\n");
        let s = TraceSummary::from_jsonl(&text);
        let health = s.health();
        assert_eq!(health[0], ("worker deaths", 1));
        assert_eq!(health[2], ("watchdog kills", 2));
        assert_eq!(health[4], ("early stops", 1));
        assert_eq!(health[5], ("respawn backoff ms", 37));
        let out = s.render();
        assert!(out.contains("supervisor health"), "{out}");
        assert!(out.contains("watchdog kills"), "{out}");
        assert!(out.contains("respawn backoff ms"), "{out}");
    }

    #[test]
    fn tier_events_aggregate_warp_residency() {
        let quiet = TraceSummary::from_jsonl(
            "{\"ev\":\"beam.strike\",\"sub\":\"beam\",\"level\":\"info\"}\n",
        );
        assert!(!quiet.render().contains("execution tiers"));
        let text = [
            "{\"ev\":\"injection.tier\",\"sub\":\"injection\",\"level\":\"info\",\
             \"workload\":\"crc32\",\"tier\":\"warp\",\"warp_handoffs\":40,\
             \"warp_cursor_resets\":2,\"warp_prefix_cycles_saved\":90000,\
             \"warp_advance_cycles\":4500,\"fastpath_uop_hits\":800,\
             \"fastpath_uop_misses\":20,\"dead_pruned\":57,\"dead_pruned_bytes\":9,\
             \"dead_pruned_invalid\":6,\"reconverged\":31,\
             \"reconverge_cycles_saved\":700000}",
            "{\"ev\":\"injection.tier\",\"sub\":\"injection\",\"level\":\"info\",\
             \"workload\":\"matmul\",\"tier\":\"detailed\",\"warp_handoffs\":0,\
             \"warp_cursor_resets\":0,\"warp_prefix_cycles_saved\":0,\
             \"warp_advance_cycles\":0,\"fastpath_uop_hits\":0,\
             \"fastpath_uop_misses\":0}",
        ]
        .join("\n");
        let s = TraceSummary::from_jsonl(&text);
        assert_eq!(s.tier.warp_campaigns, 1);
        assert_eq!(s.tier.detailed_campaigns, 1);
        assert_eq!(s.tier.warp_handoffs, 40);
        assert_eq!(s.tier.warp_prefix_cycles_saved, 90000);
        assert_eq!(s.tier.fastpath_uop_hits, 800);
        assert_eq!(s.tier.dead_pruned, 57);
        assert_eq!(s.tier.dead_pruned_bytes, 9);
        assert_eq!(s.tier.dead_pruned_invalid, 6);
        assert_eq!(s.tier.reconverged, 31);
        assert_eq!(s.tier.reconverge_cycles_saved, 700000);
        let out = s.render();
        assert!(out.contains("execution tiers"), "{out}");
        assert!(out.contains("warp handoffs"), "{out}");
        assert!(out.contains("prefix cycles saved"), "{out}");
        assert!(out.contains("dead-pruned runs"), "{out}");
        assert!(out.contains("unconsumed byte"), "{out}");
        assert!(out.contains("invalid entry"), "{out}");
        assert!(out.contains("reconverged runs"), "{out}");
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let s = TraceSummary::from_jsonl(
            "{\"ev\":\"x\",\"sub\":\"harness\",\"level\":\"info\"}\nnot json\n",
        );
        assert_eq!(s.events, 1);
        assert_eq!(s.malformed, 1);
    }
}
