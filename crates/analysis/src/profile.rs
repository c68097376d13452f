//! Attribution-profile rendering: cycle hotspots and predicted-vs-measured
//! AVF.
//!
//! Takes the [`ProfileData`] a profiled golden run produces (the read
//! horizon's liveness reports plus the per-PC cycle sampler) and renders
//! the two views the paper's methodology discussion motivates:
//!
//! * **hot PCs** — where the workload's cycles went, with an indicative
//!   stall attribution per PC (which miss counter advanced most there);
//! * **predicted vs measured AVF** — per structure, the share of uniform
//!   strikes the read horizon cannot prove Masked next to the injection
//!   campaign's measured AVF and its 99% error margin. Every strike left
//!   out of the prediction is Masked, so measured ≤ predicted holds strike
//!   by strike; the interesting number is by *how much* liveness
//!   over-estimates, per structure.

use crate::report::bar;
use sea_injection::CampaignResult;
use sea_microarch::Component;
use sea_profile::ProfileData;
use std::fmt::Write as _;

/// Render the top-`n` cycle hotspots of a profiled run.
///
/// One row per sampled PC: attributed cycles, share of total, attributed
/// instructions, and the dominant stall bucket.
pub fn render_hotspots(profile: &ProfileData, n: usize) -> String {
    let mut out = String::new();
    let top = profile.pc.top(n);
    let _ = writeln!(
        out,
        "hot PCs (top {} of {} sampled, {} cycles)",
        top.len(),
        profile.pc.entries.len(),
        profile.total_cycles
    );
    if top.is_empty() {
        out.push_str("  (no samples)\n");
        return out;
    }
    let total = profile.total_cycles.max(1) as f64;
    let _ = writeln!(
        out,
        "  {:<10} {:>12} {:>7} {:>12}  {:<6}",
        "pc", "cycles", "share", "instr", "stall"
    );
    for (pc, st) in top {
        let _ = writeln!(
            out,
            "  {:#010x} {:>12} {:>6.1}% {:>12}  {:<6}",
            pc,
            st.counters.cycles,
            100.0 * st.counters.cycles as f64 / total,
            st.counters.instructions,
            st.stall_bucket(),
        );
    }
    out
}

/// Render the predicted-vs-measured AVF table.
///
/// One row per structure in the paper's reporting order: occupancy,
/// predicted AVF, and — when a campaign result is supplied — the
/// injection-measured AVF with its 99%-confidence margin and the
/// prediction/measurement ratio.
pub fn render_avf_table(profile: &ProfileData, measured: Option<&CampaignResult>) -> String {
    let mut out = String::new();
    out.push_str("predicted vs measured AVF per structure\n");
    let _ = writeln!(
        out,
        "  {:<5} {:<12} {:>9} {:>9} {:>12} {:>9}",
        "", "occupancy", "predicted", "measured", "±99% margin", "pred/meas"
    );
    let mut rows = 0;
    for c in Component::ALL {
        let name = c.short_name();
        let Some(s) = profile.structure(name) else {
            continue;
        };
        rows += 1;
        let pred = s.predicted_avf();
        let meas = measured
            .and_then(|m| m.per_component.iter().find(|r| r.component == c))
            .filter(|r| r.counts.total() > 0);
        let (meas_s, margin_s, ratio_s) = match meas {
            Some(r) => {
                let mv = r.counts.avf();
                let ratio = if mv > 0.0 { pred / mv } else { f64::INFINITY };
                (
                    format!("{:>8.2}%", 100.0 * mv),
                    format!("{:>11.2}%", 100.0 * r.error_margin()),
                    if ratio.is_finite() {
                        format!("{ratio:>8.2}x")
                    } else {
                        format!("{:>9}", "inf")
                    },
                )
            }
            None => (
                format!("{:>9}", "-"),
                format!("{:>12}", "-"),
                format!("{:>9}", "-"),
            ),
        };
        let _ = writeln!(
            out,
            "  {:<5} |{:<10}| {:>8.2}% {meas_s} {margin_s} {ratio_s}",
            name,
            bar(s.occupancy(), 1.0, 10),
            100.0 * pred,
        );
    }
    if rows == 0 {
        out.push_str("  (no structure reports in profile)\n");
    }
    out
}

/// Render the full profiling report for one workload: run header, cycle
/// hotspots and the AVF table.
pub fn render_profile(
    workload: &str,
    profile: &ProfileData,
    measured: Option<&CampaignResult>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile — {workload} ({} cycles, {} instructions, IPC {:.3})",
        profile.total_cycles,
        profile.instructions,
        if profile.total_cycles > 0 {
            profile.instructions as f64 / profile.total_cycles as f64
        } else {
            0.0
        }
    );
    out.push('\n');
    out.push_str(&render_hotspots(profile, 10));
    out.push('\n');
    out.push_str(&render_avf_table(profile, measured));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_profile::{PcProfile, PcStats, SampleCounters, StructureReport};

    fn profile() -> ProfileData {
        let entries = vec![
            (
                0x1_0000,
                PcStats {
                    counters: SampleCounters {
                        cycles: 600,
                        instructions: 100,
                        l2_miss: 5,
                        ..Default::default()
                    },
                    samples: 100,
                },
            ),
            (
                0x1_0004,
                PcStats {
                    counters: SampleCounters {
                        cycles: 400,
                        instructions: 300,
                        ..Default::default()
                    },
                    samples: 300,
                },
            ),
        ];
        let pc = PcProfile {
            entries,
            ..Default::default()
        };
        ProfileData {
            total_cycles: 1000,
            instructions: 400,
            pc,
            structures: vec![StructureReport {
                name: "RF".into(),
                slots: 48,
                bits: 48 * 32,
                live_bit_cycles: 153_600,
                valid_slot_cycles: 48_000,
                total_cycles: 1000,
            }],
        }
    }

    #[test]
    fn hotspots_rank_by_cycles_with_share_and_stall() {
        let out = render_hotspots(&profile(), 10);
        assert!(out.contains("0x00010000"), "{out}");
        assert!(out.contains("60.0%"), "{out}");
        assert!(out.contains("l2"), "{out}");
        let a = out.find("0x00010000").unwrap();
        let b = out.find("0x00010004").unwrap();
        assert!(a < b, "hotter PC must render first:\n{out}");
    }

    #[test]
    fn avf_table_renders_predicted_without_measurement() {
        let out = render_avf_table(&profile(), None);
        assert!(out.contains("RF"), "{out}");
        // 153,600 live bit-cycles of 1,536 bits × 1000 cycles → 10%.
        assert!(out.contains("10.00%"), "{out}");
        assert!(out.contains('-'), "{out}");
    }

    #[test]
    fn full_report_has_all_sections() {
        let out = render_profile("crc32", &profile(), None);
        assert!(out.contains("profile — crc32"), "{out}");
        assert!(out.contains("hot PCs"), "{out}");
        assert!(out.contains("predicted vs measured AVF"), "{out}");
    }
}
