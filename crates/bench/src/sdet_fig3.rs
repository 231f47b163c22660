//! E1 / Figure 3: SDET throughput scaling with tracing compiled in.
//!
//! The paper's headline graph: SDET throughput vs processors, with the trace
//! infrastructure compiled in, demonstrating (a) near-linear scaling of the
//! tuned system and (b) that leaving the (masked-off) trace statements in
//! costs under 1 %.
//!
//! Host note: 2 vCPUs, so the curve is produced by running ossim's kernel on
//! the virtual-time executor with cost models calibrated from the E2
//! measurement; see DESIGN.md's substitution table.

use crate::event_cost;
use ktrace_analysis::table::{Align, TextTable};
use ktrace_ossim::workload::sdet::{build, SdetConfig};
use ktrace_ossim::MachineConfig;
use ktrace_vsim::{CostParams, Scheme, VirtualMachine};
use std::fmt::Write as _;
use std::time::Duration;

/// One row of the Fig. 3 data.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Simulated CPU count.
    pub ncpus: usize,
    /// Scripts/hour with tracing compiled out.
    pub compiled_out: f64,
    /// Scripts/hour with tracing compiled in but masked off (the paper's
    /// benchmarking configuration).
    pub masked_off: f64,
    /// Scripts/hour with tracing fully enabled.
    pub enabled: f64,
    /// Added busy work of the masked-off configuration, as a fraction of
    /// the compiled-out busy work (the <1% claim, free of makespan
    /// alignment noise).
    pub masked_cost: f64,
    /// Added busy work of enabled tracing, as a fraction.
    pub enabled_cost: f64,
}

/// Cost parameters calibrated from this host's measured per-event numbers.
pub fn calibrated_params(fast: bool) -> CostParams {
    let measured = event_cost::measure(fast);
    CostParams {
        check_ns: measured.disabled_ns.max(0.5),
        per_event_ns: measured.base_ns.max(10.0),
        per_word_ns: measured.per_word_ns.max(0.5),
    }
}

pub(crate) fn run_point(
    ncpus: usize,
    scheme: Scheme,
    params: CostParams,
    scripts_per_cpu: usize,
) -> ktrace_vsim::VReport {
    let mut cfg = MachineConfig::new(ncpus);
    // The tuned system: allocator contention fixed (the §4 story).
    cfg.alloc_regions = 64;
    // Fine-grained wait polling: the makespan is otherwise quantized by the
    // poll period, which would swamp the sub-1% masked-off cost under test.
    cfg.idle_quantum = Duration::from_micros(1);
    let w = build(SdetConfig {
        scripts: scripts_per_cpu * ncpus,
        commands_per_script: 5,
        ..Default::default()
    });
    VirtualMachine::new(cfg, scheme, params).run(&w)
}

pub(crate) fn busy(r: &ktrace_vsim::VReport) -> f64 {
    r.cpu_busy_ns.iter().sum::<u64>() as f64
}

/// Produces the scaling curve with explicit cost parameters.
pub fn measure_with(params: CostParams, fast: bool) -> Vec<ScalingPoint> {
    let cpus: &[usize] = if fast {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 12, 16, 24]
    };
    let scripts_per_cpu = if fast { 4 } else { 8 };
    cpus.iter()
        .map(|&ncpus| {
            let out = run_point(ncpus, Scheme::CompiledOut, params, scripts_per_cpu);
            let masked = run_point(ncpus, Scheme::MaskedOff, params, scripts_per_cpu);
            let on = run_point(ncpus, Scheme::LocklessPerCpu, params, scripts_per_cpu);
            ScalingPoint {
                ncpus,
                compiled_out: out.throughput_per_hour(),
                masked_off: masked.throughput_per_hour(),
                enabled: on.throughput_per_hour(),
                masked_cost: (busy(&masked) - busy(&out)) / busy(&out),
                enabled_cost: (busy(&on) - busy(&out)) / busy(&out),
            }
        })
        .collect()
}

/// Produces the scaling curve with host-calibrated cost parameters.
///
/// Note: under `cargo test` (debug build) the calibration measures an
/// unoptimized logger, inflating every tracing cost; release builds measure
/// the real thing. The *shape* tests therefore use the paper-calibrated
/// [`CostParams::default`], while this report shows the host calibration.
pub fn measure(fast: bool) -> Vec<ScalingPoint> {
    measure_with(calibrated_params(fast), fast)
}

/// Renders the Fig. 3 table.
pub fn report(fast: bool) -> String {
    let points = measure(fast);
    let base = points[0].compiled_out;
    let mut t = TextTable::new(&[
        ("cpus", Align::Right),
        ("compiled-out (scripts/h)", Align::Right),
        ("masked-off", Align::Right),
        ("enabled", Align::Right),
        ("scale", Align::Right),
        ("masked cost", Align::Right),
        ("enabled cost", Align::Right),
    ]);
    for p in &points {
        t.row(vec![
            p.ncpus.to_string(),
            format!("{:.2e}", p.compiled_out),
            format!("{:.2e}", p.masked_off),
            format!("{:.2e}", p.enabled),
            format!("{:.2}x", p.compiled_out / base),
            format!("{:+.2}%", 100.0 * p.masked_cost),
            format!("{:+.1}%", 100.0 * p.enabled_cost),
        ]);
    }
    let mut out = String::from(
        "SDET-like throughput vs CPUs (virtual-time multiprocessor, calibrated costs):\n",
    );
    out.push_str(&t.render());
    let last = points.last().expect("nonempty");
    let _ = writeln!(
        out,
        "\nscaling at {} cpus: {:.2}x (paper: near-linear); masked-off cost stays ~0 (paper: <1%)",
        last.ncpus,
        last.compiled_out / base
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_shape_holds() {
        // Paper-calibrated costs: debug-build self-calibration would inflate
        // the per-check cost by the unoptimized-build factor.
        let pts = measure_with(CostParams::default(), true);
        let first = &pts[0];
        let last = pts.last().unwrap();
        // Near-linear: at least 60% efficiency at the largest point.
        let scale = last.compiled_out / first.compiled_out;
        assert!(
            scale > 0.6 * last.ncpus as f64 / first.ncpus as f64,
            "scale {scale} at {} cpus",
            last.ncpus
        );
        // Masked-off adds under 1% of work at every point (the §3.2 claim).
        for p in &pts {
            assert!(
                p.masked_cost.abs() < 0.01,
                "masked-off cost {} at {} cpus",
                p.masked_cost,
                p.ncpus
            );
        }
        // Enabled tracing costs something but stays in the same league.
        assert!(last.enabled > 0.5 * last.compiled_out);
        assert!(last.enabled_cost > 0.0 && last.enabled_cost < 0.5);
    }
}
