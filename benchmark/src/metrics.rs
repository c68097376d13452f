//! The benchmark's metric tables: what is measured, in which unit, which
//! way is better, and — written down before measuring — which end-to-end
//! metric each per-layer metric should move, on which workload.
//! `BENCHMARK.json` repeats names, units, directions and bounds for the
//! harness that gates on them; `tests/contract.rs` holds the two together.

/// An end-to-end metric (tracing off, host time).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Share of the parent's value by which the metric may worsen before
    /// `compare` calls a regression. All three sit at 0.25, the widest the
    /// gating harness allows: on the 2-vCPU reference box a neighbour's
    /// busy phase slows every CPU-bound rep by 15-30 % for minutes at a
    /// time (README, "Noise"), so a tighter bound would gate on the
    /// neighbours. A claim finer than this needs paired, alternating runs.
    pub bound: f64,
    /// A worsening smaller than this (in the metric's unit) never counts:
    /// a quarter of a 15 ms set-up is below what a process start scatters.
    pub floor: f64,
}

/// The end-to-end metrics. `fail_frac` is the fourth: it has no bound
/// (any increase is a regression) and reaches the gating harness as its
/// `attempted` / `failed` counts, because it is 0 on a healthy tree and a
/// metric that is 0 has no relative spread.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "runs_per_s",
        unit: "runs/s",
        higher_is_better: true,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "cpu_ms_per_run",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        floor: 0.020,
    },
];

/// A per-layer metric (traced run and probes; host time unless the unit
/// is `cycles`, `insn/cycle` or a count, which are simulated and exact).
pub struct Layer {
    /// `layer.metric`; the layer is the crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics, in report order.
pub const LAYERS: [Layer; 51] = [
    layer("workloads.build_ms", "ms", "lower", "setup_s, all workloads"),
    layer("platform.boot_us", "us", "lower", "runs_per_s on fig4-crc32-default only (one boot per run)"),
    layer("platform.golden_run_ms", "ms", "lower", "setup_s, all workloads"),
    layer("platform.golden_ckpt_ms", "ms", "lower", "setup_s on the speed-key workloads"),
    layer("platform.suffix_ms_p50", "ms", "lower", "runs_per_s everywhere; largest share on fig4-crc32, fig3-qsort"),
    layer("platform.suffix_ms_p95", "ms", "lower", "runs_per_s as threads/workers grow (the slowest block ends the study)"),
    layer("platform.suffix_cycles_per_run", "cycles", "lower", "runs_per_s everywhere (ROADMAP item 4 cuts it); a simulator-speed change must leave it identical"),
    layer("platform.classify_us", "us", "lower", "none expected (<1 % of a run) - listed to prove it"),
    layer("microarch.ref_msteps_per_s", "Msteps/s", "higher", "runs_per_s on fig4-crc32-default only"),
    layer("microarch.fast_msteps_per_s", "Msteps/s", "higher", "runs_per_s on the four speed-key workloads, not on -default"),
    layer("microarch.fast_uop_hit_rate", "fraction", "higher", "microarch.fast_msteps_per_s"),
    layer("microarch.fast_latch_hit_rate", "fraction", "higher", "microarch.fast_msteps_per_s"),
    layer("microarch.warp_msteps_per_s", "Msteps/s", "higher", "NO end-to-end metric on any workload today: run_warp is called only from benches and tests; the campaign 'warp' knob is the detailed cursor in sea_injection::warp"),
    layer("microarch.clone_us", "us", "lower", "runs_per_s on fig4-matmul-t2, fleet-matmul-2w (one clone per cursor handoff); negligible on fig4-crc32"),
    layer("microarch.golden_cycles", "cycles", "lower", "nothing - a simulator-speed change must leave it identical"),
    layer("microarch.sim_ipc", "insn/cycle", "higher", "nothing - a simulator-speed change must leave it identical"),
    layer("snapshot.capture_us", "us", "lower", "setup_s on the speed-key workloads"),
    layer("snapshot.epochs", "count", "lower", "setup_s, proc.peak_rss_kib"),
    layer("snapshot.set_kib", "KiB", "lower", "proc.peak_rss_kib"),
    layer("snapshot.restore_us_p50", "us", "lower", "runs_per_s on the MatMul workloads"),
    layer("snapshot.prefix_cycles_saved_per_run", "cycles", "higher", "runs_per_s on the MatMul workloads; ~0 on fig4-crc32 once the cursor is on"),
    layer("injection.plan_new_ms", "ms", "lower", "setup_s on the inject workloads"),
    layer("injection.run_ms_p50", "ms", "lower", "runs_per_s on all inject workloads"),
    layer("injection.run_ms_p95", "ms", "lower", "runs_per_s on fig4-matmul-t2, fleet-matmul-2w (slowest worker's last block)"),
    layer("injection.prefix_ms_p50", "ms", "lower", "runs_per_s on fig4-crc32-default (about half of every run); hidden by the cursor elsewhere"),
    layer("injection.prefix_cycles_per_run", "cycles", "lower", "runs_per_s on fig4-crc32-default; with the cursor, what it still steps per run"),
    layer("injection.cursor_handoff_frac", "fraction", "higher", "runs_per_s on the speed-key workloads"),
    layer("injection.cursor_resets", "1/run", "lower", "runs_per_s on the speed-key workloads; rises with threads"),
    layer("injection.verdict_line_us", "us", "lower", "runs_per_s on fig4-matmul-t2 only"),
    layer("injection.tracker_record_ns", "ns", "lower", "runs_per_s on fig4-matmul-t2 only"),
    layer("injection.supervisor_overhead_frac", "fraction", "lower", "runs_per_s on fig4-matmul-t2; ROADMAP item 1 must not raise it"),
    layer("injection.t2_scaling", "ratio", "higher", "runs_per_s and cpu_ms_per_run on fig4-matmul-t2"),
    layer("beam.setup_ms", "ms", "lower", "setup_s on fig3-qsort"),
    layer("beam.kernel_residency_ms", "ms", "lower", "setup_s on fig3-qsort"),
    layer("beam.sram_strike_frac", "fraction", "higher", "nothing - says how much of fig3-qsort reaches the simulator"),
    layer("durable.append_us_p50", "us", "lower", "runs_per_s on fig4-matmul-t2, fleet-matmul-2w"),
    layer("durable.append_sync_us_p50", "us", "lower", "runs_per_s on fig4-matmul-t2, fleet-matmul-2w (every 64th append)"),
    layer("durable.fsyncs_per_krun", "1/krun", "lower", "runs_per_s on fig4-matmul-t2, fleet-matmul-2w"),
    layer("durable.bytes_per_run", "bytes", "lower", "runs_per_s on fig4-matmul-t2, fleet-matmul-2w"),
    layer("durable.scan_mb_per_s", "MB/s", "higher", "runs_per_s on fleet-matmul-2w (wind-down, status polls)"),
    layer("durable.export_mb_per_s", "MB/s", "higher", "none today (offline export only)"),
    layer("durable.merge_ms", "ms", "lower", "runs_per_s on fleet-matmul-2w (ROADMAP item 1 turns it into a k-way merge)"),
    layer("fleet.first_record_ms", "ms", "lower", "setup_s and runs_per_s on fleet-matmul-2w"),
    layer("fleet.winddown_ms", "ms", "lower", "setup_s and runs_per_s on fleet-matmul-2w"),
    layer("fleet.vs_inproc_ratio", "ratio", "higher", "runs_per_s on fleet-matmul-2w relative to fig4-matmul-t2"),
    layer("fleet.respawns", "count", "lower", "runs_per_s on fleet-matmul-2w; 0 on a healthy run"),
    layer("fleet.requeues", "count", "lower", "cpu_ms_per_run on fleet-matmul-2w; 0 on a healthy run"),
    layer("trace.overhead_frac", "fraction", "lower", "none while tracing is off - this is the instrumentation's own cost"),
    layer("bench.trace_overhead_frac", "fraction", "lower", "none - read beside every share of the traced run"),
    layer("bench.replayed_runs", "count", "higher", "none - how many runs the recomposed pass covered"),
    layer("proc.peak_rss_kib", "KiB", "lower", "memory; large enough to notice a checkpoint-set blow-up"),
];
