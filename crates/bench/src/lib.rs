//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each module implements one (or a related group of) experiment(s) from the
//! index in `DESIGN.md` and returns its report as a string; [`EXPERIMENTS`]
//! names them all and `ktrace-bench [all|<experiment>]` runs them —
//! `ktrace-bench all` is what produced `EXPERIMENTS.md`'s measured values.
//!
//! Experiments come in two kinds, reflecting the one- or two-core host this
//! reproduction runs on (see DESIGN.md):
//!
//! * **measured** — real code on real hardware: per-event logging cost (E2),
//!   the mask-gate cost (E3), filler waste (E6), variable-vs-fixed space
//!   (E12), garble detection (E14), TSC interpolation error (E13);
//! * **modelled** — the virtual-time multiprocessor with cost models
//!   calibrated from the measured numbers: SDET scaling (E1, Fig. 3),
//!   lockless-vs-locking (E4), per-CPU-vs-global buffers (E5), and the
//!   tool figures (Figs. 4–8) generated from emitted "8-way" traces.

pub mod event_cost;
pub mod filler;
pub mod garble;
pub mod overhead_gate;
pub mod schemes;
pub mod sdet_fig3;
pub mod tools;
pub mod tsc;
pub mod util;

/// A row of [`EXPERIMENTS`]: the name `ktrace-bench <name>` runs it by, the
/// title of its section in `ktrace-bench all`, and the harness returning its
/// report (`fast` trims iteration counts for CI-speed runs).
pub type Experiment = (&'static str, &'static str, fn(bool) -> String);

/// Every experiment, in paper order — the one table both [`run_all`] and the
/// `ktrace-bench` command line read.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        "fig3_sdet",
        "E1/Fig3 SDET throughput scaling",
        sdet_fig3::report,
    ),
    (
        "event_cost",
        "E2+E3 per-event cost and mask gate",
        event_cost::report,
    ),
    (
        "lockless_vs_locking",
        "E4 lockless vs locking (order of magnitude)",
        schemes::report_lockless_vs_locking,
    ),
    (
        "percpu_scaling",
        "E5 per-CPU vs shared buffers",
        schemes::report_percpu_vs_global,
    ),
    (
        "filler_waste",
        "E6 filler waste and boundary alignment",
        filler::report_filler,
    ),
    (
        "var_vs_fixed",
        "E12 variable vs fixed-length space",
        filler::report_var_vs_fixed,
    ),
    (
        "fig7_lockstat",
        "E7/Fig7 lock contention analysis",
        tools::report_fig7,
    ),
    (
        "fig6_pcprof",
        "E8/Fig6 PC-sample profile",
        tools::report_fig6,
    ),
    (
        "fig8_breakdown",
        "E9/Fig8 fine-grained breakdown",
        tools::report_fig8,
    ),
    (
        "fig5_listing",
        "E10/Fig5 event listing + random access",
        tools::report_fig5,
    ),
    ("fig4_timeline", "E11/Fig4 timeline", tools::report_fig4),
    ("tsc_interp", "E13 TSC interpolation error", tsc::report),
    (
        "stale_ablation",
        "E17 timestamp-re-read ablation",
        schemes::report_stale_ablation,
    ),
    ("garble", "E14 garble detection", garble::report),
    ("telemetry_gate", "E20 telemetry overhead gate", |fast| {
        overhead_gate::render(&overhead_gate::measure_telemetry(fast))
    }),
    (
        "adapt_gate",
        "E23 adaptive-sampling overhead gate",
        |fast| overhead_gate::render(&overhead_gate::measure_sampling(fast)),
    ),
];

/// Runs every experiment and returns `(title, report)` pairs in paper
/// order.
pub fn run_all(fast: bool) -> Vec<(&'static str, String)> {
    EXPERIMENTS
        .iter()
        .map(|&(_, title, run)| (title, run(fast)))
        .collect()
}
