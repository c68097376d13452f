//! ASCII rendering of tables and figures.
//!
//! The regeneration binaries in `sea-bench` print the paper's tables and
//! figures through these helpers: aligned tables for Tables I–IV and
//! labeled horizontal bar charts for the figures.

use std::fmt::Write as _;

/// Renders an aligned table: a header row plus data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut width = vec![0usize; cols];
    for (i, h) in headers.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            width[i] = width[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String| {
        for w in &width {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    out.push('|');
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, " {:<w$} |", h, w = width[i]);
    }
    out.push('\n');
    line(&mut out);
    for row in rows {
        out.push('|');
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(out, " {:<w$} |", cell, w = width[i]);
        }
        out.push('\n');
    }
    line(&mut out);
    out
}

/// A single horizontal bar scaled to `max` over `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.clamp(if value > 0.0 { 1 } else { 0 }, width))
}

/// A log-scale bar for ratio plots (the paper's Figs 6–8 use log axes):
/// the bar length is proportional to `log10(|value|)`, and the sign is
/// rendered by direction markers.
pub fn log_bar(value: f64, max_abs: f64, width: usize) -> String {
    if !value.is_finite() {
        return (if value > 0.0 {
            ">".repeat(width)
        } else {
            "<".repeat(width)
        })
        .to_string();
    }
    let mag = value.abs().max(1.0);
    let max_mag = max_abs.abs().max(10.0);
    let n = ((mag.log10() / max_mag.log10()) * width as f64).round() as usize;
    let n = n.clamp(if mag > 1.0 { 1 } else { 0 }, width);
    if value >= 0.0 {
        "#".repeat(n)
    } else {
        "-".repeat(n)
    }
}

/// Renders a grouped bar chart: one row per item, one bar per series.
pub fn grouped_bars(
    title: &str,
    items: &[(String, Vec<f64>)],
    series: &[&str],
    width: usize,
) -> String {
    let max = items
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let name_w = items.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
    let series_w = series.iter().map(|s| s.len()).max().unwrap_or(4);
    let mut out = format!("{title}\n");
    let _ = writeln!(out, "(bar scale: {max:.3} FIT full width)");
    for (name, vs) in items {
        for (si, v) in vs.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<name_w$} {:<series_w$} |{:<width$}| {:>10.3}",
                if si == 0 { name.as_str() } else { "" },
                series[si],
                bar(*v, max, width),
                v,
            );
        }
    }
    out
}

/// Renders the campaign-supervision summary: one row per workload with
/// the injection-campaign and beam-session supervision counters merged,
/// including the anomaly rate (quarantined panics per completed run).
/// Rows where nothing noteworthy happened still render, so the table
/// doubles as a "the harness saw N runs" audit.
pub fn supervision_table(
    rows: &[(
        String,
        sea_injection::SupervisionStats,
        sea_injection::SupervisionStats,
    )],
) -> String {
    let mut body: Vec<Vec<String>> = Vec::new();
    let mut total = sea_injection::SupervisionStats::default();
    for (name, inj, beam) in rows {
        let merged = sea_injection::SupervisionStats {
            completed: inj.completed + beam.completed,
            resumed: inj.resumed + beam.resumed,
            quarantined: inj.quarantined + beam.quarantined,
            flaky_recovered: inj.flaky_recovered + beam.flaky_recovered,
            worker_respawns: inj.worker_respawns + beam.worker_respawns,
            lost: inj.lost + beam.lost,
        };
        body.push(supervision_row(name, &merged));
        total.completed += merged.completed;
        total.resumed += merged.resumed;
        total.quarantined += merged.quarantined;
        total.flaky_recovered += merged.flaky_recovered;
        total.worker_respawns += merged.worker_respawns;
        total.lost += merged.lost;
    }
    body.push(supervision_row("TOTAL", &total));
    table(
        &[
            "workload",
            "runs",
            "resumed",
            "anomalies",
            "anomaly rate",
            "flaky",
            "respawns",
            "lost",
        ],
        &body,
    )
}

/// Renders the checkpoint-usage summary: one row per workload with the
/// injection-campaign and beam-session [`CheckpointStats`] merged. The
/// "prefix saved" column is the share of simulated work the restores
/// skipped, measured against the cycles every run would have spent
/// re-executing the fault-free prefix from reset
/// (`restores × golden_cycles / 2` on average for uniform injection
/// cycles, so the column regularly approaches 100%).
///
/// [`CheckpointStats`]: sea_platform::CheckpointStats
pub fn checkpoint_table(
    rows: &[(
        String,
        u64,
        Option<sea_platform::CheckpointStats>,
        Option<sea_platform::CheckpointStats>,
    )],
) -> String {
    use sea_platform::CheckpointStats;
    let mut body: Vec<Vec<String>> = Vec::new();
    let mut total = CheckpointStats::default();
    let mut total_golden_weighted = 0u128;
    for (name, golden_cycles, inj, beam) in rows {
        let inj = inj.unwrap_or_default();
        let beam = beam.unwrap_or_default();
        let merged = CheckpointStats {
            epochs: inj.epochs + beam.epochs,
            restores: inj.restores + beam.restores,
            prefix_cycles_saved: inj.prefix_cycles_saved + beam.prefix_cycles_saved,
        };
        body.push(checkpoint_row(name, *golden_cycles, &merged));
        total.epochs += merged.epochs;
        total.restores += merged.restores;
        total.prefix_cycles_saved += merged.prefix_cycles_saved;
        total_golden_weighted += merged.restores as u128 * *golden_cycles as u128;
    }
    let total_golden = if total.restores == 0 {
        0
    } else {
        (total_golden_weighted / total.restores as u128) as u64
    };
    body.push(checkpoint_row("TOTAL", total_golden, &total));
    table(
        &[
            "workload",
            "epochs",
            "restores",
            "cycles saved",
            "prefix saved",
        ],
        &body,
    )
}

/// Renders the journal-durability summary: one row per workload with
/// the injection-campaign and beam-session [`JournalAudit`] counters
/// merged. Non-zero `torn bytes` means a crashed predecessor left a
/// partial record that resume truncated; `poisoned` means a write fault
/// exhausted its retries and the run drained early on a valid prefix.
///
/// [`JournalAudit`]: sea_injection::JournalAudit
pub fn journal_table(
    rows: &[(
        String,
        Option<sea_injection::JournalAudit>,
        Option<sea_injection::JournalAudit>,
    )],
) -> String {
    use sea_injection::JournalAudit;
    let mut body: Vec<Vec<String>> = Vec::new();
    let mut total = JournalAudit::default();
    for (name, inj, beam) in rows {
        let inj = inj.unwrap_or_default();
        let beam = beam.unwrap_or_default();
        let merged = JournalAudit {
            appended: inj.appended + beam.appended,
            resumed: inj.resumed + beam.resumed,
            torn_bytes: inj.torn_bytes + beam.torn_bytes,
            fsyncs: inj.fsyncs + beam.fsyncs,
            retries: inj.retries + beam.retries,
            poisoned: inj.poisoned || beam.poisoned,
        };
        body.push(journal_row(name, &merged));
        total.appended += merged.appended;
        total.resumed += merged.resumed;
        total.torn_bytes += merged.torn_bytes;
        total.fsyncs += merged.fsyncs;
        total.retries += merged.retries;
        total.poisoned |= merged.poisoned;
    }
    body.push(journal_row("TOTAL", &total));
    table(
        &[
            "workload",
            "appended",
            "resumed",
            "torn bytes",
            "fsyncs",
            "retries",
            "state",
        ],
        &body,
    )
}

fn journal_row(name: &str, a: &sea_injection::JournalAudit) -> Vec<String> {
    vec![
        name.to_string(),
        a.appended.to_string(),
        a.resumed.to_string(),
        a.torn_bytes.to_string(),
        a.fsyncs.to_string(),
        a.retries.to_string(),
        if a.poisoned { "POISONED" } else { "ok" }.to_string(),
    ]
}

fn checkpoint_row(
    name: &str,
    golden_cycles: u64,
    s: &sea_platform::CheckpointStats,
) -> Vec<String> {
    // Expected fault-free prefix without checkpoints: injection cycles are
    // uniform over the golden run, so on average half of it per restore.
    let expected = s.restores as f64 * golden_cycles as f64 / 2.0;
    let frac = if expected <= 0.0 {
        0.0
    } else {
        (s.prefix_cycles_saved as f64 / expected).min(1.0)
    };
    vec![
        name.to_string(),
        s.epochs.to_string(),
        s.restores.to_string(),
        s.prefix_cycles_saved.to_string(),
        format!("{:.1}%", 100.0 * frac),
    ]
}

fn supervision_row(name: &str, s: &sea_injection::SupervisionStats) -> Vec<String> {
    let denominator = s.completed + s.quarantined.saturating_sub(s.flaky_recovered);
    let rate = if denominator == 0 {
        0.0
    } else {
        s.quarantined as f64 / denominator as f64
    };
    vec![
        name.to_string(),
        s.completed.to_string(),
        s.resumed.to_string(),
        s.quarantined.to_string(),
        format!("{:.3}%", 100.0 * rate),
        s.flaky_recovered.to_string(),
        s.worker_respawns.to_string(),
        s.lost.to_string(),
    ]
}

/// Formats a signed ratio the way the paper's Fig 6–9 axes read:
/// `12.3x` (beam higher) or `-4.5x` (injection higher), `inf` for
/// one-sided zeros.
pub fn ratio_label(r: f64) -> String {
    if !r.is_finite() {
        if r > 0.0 {
            "+inf".into()
        } else {
            "-inf".into()
        }
    } else {
        format!("{r:+.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(t.contains("| name   | value |"));
        assert!(t.contains("| longer | 22    |"));
        // Every line has equal length.
        let lens: std::collections::BTreeSet<_> = t.lines().map(str::len).collect();
        assert_eq!(lens.len(), 1);
    }

    #[test]
    fn bars_scale_and_clamp() {
        assert_eq!(bar(5.0, 10.0, 10).len(), 5);
        assert_eq!(bar(100.0, 10.0, 10).len(), 10);
        assert_eq!(bar(0.0, 10.0, 10).len(), 0);
        assert!(
            !bar(0.001, 10.0, 10).is_empty(),
            "nonzero values stay visible"
        );
    }

    #[test]
    fn log_bar_direction() {
        assert!(log_bar(100.0, 100.0, 20).starts_with('#'));
        assert!(log_bar(-100.0, 100.0, 20).starts_with('-'));
        assert_eq!(log_bar(f64::INFINITY, 100.0, 5), ">>>>>");
    }

    #[test]
    fn supervision_table_rates_and_totals() {
        use sea_injection::SupervisionStats;
        let rows = vec![
            (
                "CRC32".to_string(),
                SupervisionStats {
                    completed: 99,
                    quarantined: 1,
                    ..SupervisionStats::default()
                },
                SupervisionStats {
                    completed: 100,
                    ..SupervisionStats::default()
                },
            ),
            (
                "Qsort".to_string(),
                SupervisionStats::default(),
                SupervisionStats::default(),
            ),
        ];
        let t = supervision_table(&rows);
        assert!(t.contains("anomaly rate"));
        assert!(t.contains("CRC32"));
        assert!(t.contains("TOTAL"));
        // 1 anomaly over (199 completed + 1 deterministic) = 0.5%.
        assert!(t.contains("0.500%"), "{t}");
    }

    #[test]
    fn checkpoint_table_fractions_and_totals() {
        use sea_platform::CheckpointStats;
        let rows = vec![
            (
                "CRC32".to_string(),
                1000u64,
                Some(CheckpointStats {
                    epochs: 8,
                    restores: 10,
                    prefix_cycles_saved: 4000,
                }),
                None,
            ),
            ("Qsort".to_string(), 1000u64, None, None),
        ];
        let t = checkpoint_table(&rows);
        assert!(t.contains("prefix saved"));
        // 4000 cycles saved of an expected 10 × 1000 / 2 = 5000.
        assert!(t.contains("80.0%"), "{t}");
        assert!(t.contains("TOTAL"));
    }

    #[test]
    fn journal_table_merges_and_flags_poison() {
        use sea_injection::JournalAudit;
        let rows = vec![
            (
                "CRC32".to_string(),
                Some(JournalAudit {
                    appended: 100,
                    resumed: 40,
                    torn_bytes: 17,
                    fsyncs: 3,
                    ..JournalAudit::default()
                }),
                Some(JournalAudit {
                    appended: 50,
                    poisoned: true,
                    ..JournalAudit::default()
                }),
            ),
            ("Qsort".to_string(), None, None),
        ];
        let t = journal_table(&rows);
        assert!(t.contains("torn bytes"));
        assert!(t.contains("150"), "{t}"); // merged appends
        assert!(t.contains("POISONED"), "{t}");
        assert!(t.contains("TOTAL"));
    }

    #[test]
    fn ratio_labels() {
        assert_eq!(ratio_label(2.0), "+2.00x");
        assert_eq!(ratio_label(-3.5), "-3.50x");
        assert_eq!(ratio_label(f64::INFINITY), "+inf");
    }
}
