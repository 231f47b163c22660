//! E4 + E5: comparing logging schemes.
//!
//! E4 reproduces §4.1: applying the lockless/per-CPU technology to LTT's
//! locking logger produced "an order of magnitude performance improvement".
//! E5 isolates the per-CPU-buffer half of that win: the identical lockless
//! algorithm against one shared buffer.
//!
//! Both have a *measured* single-core part (per-event cost of each sink on
//! this host, where only the serialization cost structure differs) and a
//! *modelled* multiprocessor part (virtual time, where the queueing on the
//! shared resource appears).

use crate::sdet_fig3::calibrated_params;
use crate::util::{bench_logger, time_per_call};
use ktrace_analysis::table::{Align, TextTable};
use ktrace_baselines::{
    EventSink, FixedSlotSink, GlobalCasSink, LockingSink, LocklessSink, StaleTsSink, SyscallSink,
};
use ktrace_clock::SyncClock;
use ktrace_core::TraceConfig;
use ktrace_format::MajorId;
use ktrace_ossim::workload::sdet::{build, SdetConfig};
use ktrace_ossim::MachineConfig;
use ktrace_vsim::{CostParams, Scheme, VirtualMachine};
use std::fmt::Write as _;
use std::sync::Arc;

/// Measured single-thread ns/event for every sink on this host.
pub fn measure_sinks(fast: bool) -> Vec<(&'static str, f64)> {
    let iters = if fast { 20_000 } else { 200_000 };
    let clock = Arc::new(SyncClock::new());
    let sinks: Vec<Box<dyn EventSink>> = vec![
        Box::new(LocklessSink::new(bench_logger(1))),
        Box::new(GlobalCasSink::new(TraceConfig::default(), clock.clone())),
        Box::new(LockingSink::new(clock.clone(), 1 << 16, 120)),
        Box::new(FixedSlotSink::new(clock.clone(), 1, 8, 4096)),
        Box::new(SyscallSink::new(LocklessSink::new(bench_logger(1)), 400)),
    ];
    sinks
        .iter()
        .map(|sink| {
            let payload = [1u64, 2];
            let ns = time_per_call(iters, || {
                std::hint::black_box(sink.log(0, MajorId::TEST, 1, std::hint::black_box(&payload)));
            });
            (sink.name(), ns)
        })
        .collect()
}

/// Modelled total tracing overhead for one scheme at `ncpus` under SDET,
/// priced with `params` — one calibration per report, so every point of a
/// curve is priced alike.
fn modelled_overhead(scheme: Scheme, ncpus: usize, params: CostParams) -> (u64, u64) {
    let mut cfg = MachineConfig::new(ncpus);
    cfg.alloc_regions = 64;
    let w = build(SdetConfig {
        scripts: 4 * ncpus,
        commands_per_script: 4,
        ..Default::default()
    });
    let r = VirtualMachine::new(cfg, scheme, params).run(&w);
    (r.trace_overhead_ns, r.events_logged)
}

/// E4 report: lockless vs locking (vs syscall) on host and in the model.
pub fn report_lockless_vs_locking(fast: bool) -> String {
    let mut out = String::from("Measured single-thread cost per 2-word event (this host):\n");
    let mut t = TextTable::new(&[("scheme", Align::Left), ("ns/event", Align::Right)]);
    let measured = measure_sinks(fast);
    for (name, ns) in &measured {
        t.row(vec![name.to_string(), format!("{ns:.0}")]);
    }
    out.push_str(&t.render());

    out.push_str("\nModelled per-event overhead under SDET (virtual multiprocessor):\n");
    let mut t = TextTable::new(&[
        ("cpus", Align::Right),
        ("lockless ns/ev", Align::Right),
        ("locking ns/ev", Align::Right),
        ("ratio", Align::Right),
    ]);
    let cpus: &[usize] = if fast {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 24]
    };
    let params = calibrated_params(fast);
    let mut last_ratio = 0.0;
    for &p in cpus {
        let (lockless, ev1) = modelled_overhead(Scheme::LocklessPerCpu, p, params);
        let (locking, ev2) = modelled_overhead(Scheme::LockingGlobal, p, params);
        let a = lockless as f64 / ev1.max(1) as f64;
        let b = locking as f64 / ev2.max(1) as f64;
        last_ratio = b / a;
        t.row(vec![
            p.to_string(),
            format!("{a:.0}"),
            format!("{b:.0}"),
            format!("{last_ratio:.1}x"),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nat scale the locking scheme is {last_ratio:.0}x worse (paper §4.1: \"an order of magnitude\")"
    );
    out
}

/// E5 report: per-CPU vs single shared buffer.
pub fn report_percpu_vs_global(fast: bool) -> String {
    let mut out =
        String::from("Per-CPU vs shared-buffer lockless logging (modelled per-event cost):\n");
    let mut t = TextTable::new(&[
        ("cpus", Align::Right),
        ("per-cpu ns/ev", Align::Right),
        ("shared ns/ev", Align::Right),
        ("penalty", Align::Right),
    ]);
    let cpus: &[usize] = if fast {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 24]
    };
    let params = calibrated_params(fast);
    for &p in cpus {
        let (percpu, ev1) = modelled_overhead(Scheme::LocklessPerCpu, p, params);
        let (shared, ev2) = modelled_overhead(Scheme::LocklessGlobal, p, params);
        let a = percpu as f64 / ev1.max(1) as f64;
        let b = shared as f64 / ev2.max(1) as f64;
        t.row(vec![
            p.to_string(),
            format!("{a:.0}"),
            format!("{b:.0}"),
            format!("{:.1}x", b / a),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nper-CPU cost is flat in CPU count; the shared index line bounces and queues (§2's \
         \"all accesses to trace structures on separate processors [are] independent\")\n",
    );
    out
}

/// E17: the timestamp-re-read ablation (§3.1).
pub fn report_stale_ablation(fast: bool) -> String {
    let iters = if fast { 8_000 } else { 40_000 };
    let clock: Arc<dyn ktrace_clock::ClockSource> = Arc::new(SyncClock::new());
    let run = |sink: Arc<StaleTsSink>| {
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = sink.clone();
                std::thread::spawn(move || {
                    for i in 0..iters {
                        s.log(t, MajorId::TEST, i as u16, &[i as u64]);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().expect("worker");
        }
        sink.inversions()
    };
    // The broken protocol needs only a handful of runs to show inversions.
    let mut stale_inversions = 0;
    for _ in 0..10 {
        stale_inversions += run(Arc::new(StaleTsSink::new_stale(clock.clone(), 1 << 21)));
        if stale_inversions > 0 && fast {
            break;
        }
    }
    let reread_inversions = run(Arc::new(StaleTsSink::new_correct(clock.clone(), 1 << 21)));
    format!(
        "timestamp-ordering ablation (4 threads, widened interrupt window):\n\
         stale protocol (ts before CAS loop): {stale_inversions} buffer-order inversions\n\
         paper protocol (ts re-read per attempt): {reread_inversions} inversions\n\
         §3.1: \"processes must re-determine the timestamp during each attempt\"\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_sinks_have_sane_costs() {
        // Timing comparisons on a loaded single-core test host are noisy, so
        // exaggerate the deliberate costs until they dominate the noise: a
        // 20µs IRQ window and a 20µs syscall must each be clearly slower
        // than the lockless path.
        let clock = Arc::new(SyncClock::new());
        let lockless = LocklessSink::new(bench_logger(1));
        let locking = LockingSink::new(clock.clone(), 1 << 16, 20_000);
        let syscall = SyscallSink::new(LocklessSink::new(bench_logger(1)), 20_000);
        let payload = [1u64, 2];
        let cost = |sink: &dyn EventSink| {
            time_per_call(400, || {
                std::hint::black_box(sink.log(0, MajorId::TEST, 1, std::hint::black_box(&payload)));
            })
        };
        let base = cost(&lockless);
        assert!(cost(&locking) > base + 10_000.0, "irq window must dominate");
        assert!(
            cost(&syscall) > base + 10_000.0,
            "kernel crossing must dominate"
        );
    }

    #[test]
    fn modelled_locking_degrades_with_cpus() {
        // The paper-calibrated costs, as `sdet_fig3`'s shape tests use: a
        // host calibration per point would price the 1- and 8-CPU runs
        // differently, and the model would then compare two hosts.
        let params = CostParams::default();
        assert_eq!(
            modelled_overhead(Scheme::LockingGlobal, 8, params),
            modelled_overhead(Scheme::LockingGlobal, 8, params),
            "the model is deterministic in its params"
        );
        let (l1, e1) = modelled_overhead(Scheme::LockingGlobal, 1, params);
        let (l8, e8) = modelled_overhead(Scheme::LockingGlobal, 8, params);
        let per1 = l1 as f64 / e1 as f64;
        let per8 = l8 as f64 / e8 as f64;
        assert!(per8 > 2.0 * per1, "locking per-event {per1} -> {per8}");
        // Per-CPU stays flat.
        let (p1, pe1) = modelled_overhead(Scheme::LocklessPerCpu, 1, params);
        let (p8, pe8) = modelled_overhead(Scheme::LocklessPerCpu, 8, params);
        let a = p1 as f64 / pe1 as f64;
        let b = p8 as f64 / pe8 as f64;
        assert!((b / a) < 1.2, "per-cpu per-event {a} -> {b}");
    }

    #[test]
    fn reports_render() {
        assert!(report_lockless_vs_locking(true).contains("order of magnitude"));
        assert!(report_percpu_vs_global(true).contains("per-cpu"));
    }
}
