//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each module implements one (or a related group of) experiment(s) from the
//! index in `DESIGN.md` and returns its report as a string; the `src/bin/`
//! binaries are thin wrappers. `run_all` executes everything and is what
//! produced `EXPERIMENTS.md`'s measured values.
//!
//! Experiments come in two kinds, reflecting the single-core host this
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

/// Runs every experiment and returns `(experiment id, report)` pairs in
/// paper order. `fast` trims iteration counts for CI-speed runs.
pub fn run_all(fast: bool) -> Vec<(&'static str, String)> {
    vec![
        ("E1/Fig3 SDET throughput scaling", sdet_fig3::report(fast)),
        (
            "E2+E3 per-event cost and mask gate",
            event_cost::report(fast),
        ),
        (
            "E4 lockless vs locking (order of magnitude)",
            schemes::report_lockless_vs_locking(fast),
        ),
        (
            "E5 per-CPU vs shared buffers",
            schemes::report_percpu_vs_global(fast),
        ),
        (
            "E6 filler waste and boundary alignment",
            filler::report_filler(fast),
        ),
        (
            "E12 variable vs fixed-length space",
            filler::report_var_vs_fixed(fast),
        ),
        ("E7/Fig7 lock contention analysis", tools::report_fig7(fast)),
        ("E8/Fig6 PC-sample profile", tools::report_fig6(fast)),
        ("E9/Fig8 fine-grained breakdown", tools::report_fig8(fast)),
        (
            "E10/Fig5 event listing + random access",
            tools::report_fig5(fast),
        ),
        ("E11/Fig4 timeline", tools::report_fig4(fast)),
        ("E13 TSC interpolation error", tsc::report(fast)),
        (
            "E17 timestamp-re-read ablation",
            schemes::report_stale_ablation(fast),
        ),
        ("E14 garble detection", garble::report(fast)),
        (
            "E20 telemetry overhead gate",
            overhead_gate::render(&overhead_gate::measure_telemetry(fast)),
        ),
        (
            "E23 adaptive-sampling overhead gate",
            overhead_gate::render(&overhead_gate::measure_sampling(fast)),
        ),
    ]
}
