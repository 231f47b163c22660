//! E7–E11: regenerating the paper's tool figures (Figs. 4–8).
//!
//! The data source is either the virtual-time multiprocessor emitting real
//! events with virtual timestamps (for the multi-CPU figures), or the
//! real-threaded simulator streaming to a real trace file (for Fig. 5's
//! listing-plus-random-access demonstration).

use ktrace_analysis::{
    render_listing, Breakdown, ListingOptions, LockSortKey, LockStats, PcProfile, Timeline,
    TimelineOptions, Trace,
};
use ktrace_core::TraceConfig;
use ktrace_io::{TraceFileReader, TraceSession};
use ktrace_ossim::workload::{micro, sdet};
use ktrace_ossim::{KTracer, Machine, MachineConfig};
use ktrace_vsim::{CostParams, Scheme, VirtualMachine};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

fn emission_geometry() -> TraceConfig {
    TraceConfig {
        buffer_words: 16 * 1024,
        buffers_per_cpu: 16,
        ..TraceConfig::default()
    }
}

/// Runs an SDET-like workload on the virtual `ncpus`-way machine and returns
/// the emitted trace.
pub fn sdet_trace(ncpus: usize, fast: bool) -> Trace {
    let mut cfg = MachineConfig::new(ncpus);
    cfg.alloc_regions = 1; // leave the allocator contended: Fig. 7 needs it
    let scripts = if fast { 2 * ncpus } else { 6 * ncpus };
    let w = sdet::build(sdet::SdetConfig {
        scripts,
        commands_per_script: 4,
        ..Default::default()
    });
    let mut machine = VirtualMachine::new(cfg, Scheme::LocklessPerCpu, CostParams::default())
        .with_emission(emission_geometry());
    machine.run(&w);
    Trace::from_logger(
        machine.emitted_logger().expect("emission enabled"),
        1_000_000_000,
    )
}

/// E7 / Fig. 7: the lock-contention table.
pub fn report_fig7(fast: bool) -> String {
    // A contended allocator plus SDET background: the paper's situation
    // before the allocator fix.
    let mut cfg = MachineConfig::new(8);
    cfg.alloc_regions = 1;
    let n = if fast { 30 } else { 150 };
    let w = micro::alloc_contention(16, n);
    let mut machine = VirtualMachine::new(cfg, Scheme::LocklessPerCpu, CostParams::default())
        .with_emission(emission_geometry());
    machine.run(&w);
    let trace = Trace::from_logger(machine.emitted_logger().expect("emission"), 1_000_000_000);
    let mut stats = LockStats::compute(&trace);
    stats.sort_by(LockSortKey::Time);
    let mut out = stats.render(10, "time");
    let _ = writeln!(
        out,
        "total wait across all locks: {:.3} ms — the number the fix-rerun loop of §4 drives down",
        stats.total_wait_ns() as f64 / 1e6
    );
    out
}

/// E8 / Fig. 6: the PC-sample histogram.
///
/// Fig. 6 profiles a busy server process whose top entry is
/// `FairBLock::_acquire()` — i.e. a lock-contention-bound process. The
/// equivalent situation here: allocator hammering with fine-grained
/// sampling, where spin time lands in the acquire routine.
pub fn report_fig6(fast: bool) -> String {
    let mut cfg = MachineConfig::new(8);
    cfg.alloc_regions = 1;
    // Fine sampling resolves the spin loops; fast mode trades resolution for
    // runtime (the allocator queue grows over the run, so late waits are
    // sampled thousands of times at 0.5µs).
    // The sampling period must stay well above the per-tick emission cost
    // (see vmachine's coalescing note), so 2µs is the fine-grained setting.
    cfg.pc_sample_period = Some(Duration::from_micros(if fast { 4 } else { 2 }));
    let n = if fast { 40 } else { 150 };
    let mut machine = VirtualMachine::new(cfg, Scheme::LocklessPerCpu, CostParams::default())
        .with_emission(emission_geometry());
    machine.run(&micro::alloc_contention(16, n));
    let trace = Trace::from_logger(machine.emitted_logger().expect("emission"), 1_000_000_000);
    let profile = PcProfile::compute(&trace);
    // Show the busiest two pids, as the paper shows one exemplar process.
    let mut pids: Vec<u64> = profile.by_pid.keys().copied().collect();
    pids.sort_by_key(|&p| std::cmp::Reverse(profile.samples(p)));
    let mut out = String::new();
    for pid in pids.into_iter().take(2) {
        out.push_str(&profile.render(pid));
        out.push('\n');
    }
    out
}

/// E9 / Fig. 8: the fine-grained per-process breakdown.
pub fn report_fig8(fast: bool) -> String {
    let trace = sdet_trace(4, fast);
    let breakdown = Breakdown::compute(&trace);
    // A command process (most IPC + fault activity) plus the FS server.
    let busiest = breakdown
        .processes
        .values()
        .filter(|p| p.pid > 1)
        .max_by_key(|p| p.ipc_out.calls + p.faults.calls)
        .map(|p| p.pid)
        .unwrap_or(2);
    let mut out = breakdown.render_process(busiest);
    out.push('\n');
    out.push_str(&breakdown.render_process(1)); // baseServers: served-IPC rows
    out
}

/// E10 / Fig. 5: the event listing, from a real trace file, plus the
/// random-access demonstration (§3.2's "middle 5 seconds").
pub fn report_fig5(fast: bool) -> String {
    let dir = std::env::temp_dir().join(format!("ktrace-fig5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fig5.ktrace");

    // A real run: the real-threaded machine streaming through a session.
    // Small buffers so even a short run spans many records and the
    // random-access window demonstrably touches only a few of them.
    let logger = ktrace_core::TraceLogger::builder()
        .geometry(TraceConfig {
            buffer_words: 512,
            buffers_per_cpu: 16,
            ..TraceConfig::default()
        })
        .ncpus(2)
        .build()
        .expect("logger");
    ktrace_events::register_all(&logger);
    let session = TraceSession::builder()
        .logger(logger.clone())
        .create(&path)
        .expect("session");
    let machine = Machine::new(MachineConfig::fast_test(2), Arc::new(KTracer::new(logger)));
    let scripts = if fast { 4 } else { 8 };
    machine.run(sdet::build(sdet::SdetConfig {
        scripts,
        commands_per_script: 3,
        ..Default::default()
    }));
    assert!(session.finish().lossless(), "session sink failed");

    let trace = Trace::from_file(&path).expect("read back");
    let mut out = String::from("First 25 events (cf. Fig. 5):\n");
    out.push_str(&render_listing(
        &trace,
        &ListingOptions {
            hide_control: true,
            limit: 25,
            ..Default::default()
        },
    ));

    // Random access: jump straight into the middle half of the trace.
    let span = trace.end() - trace.origin();
    let (t0, t1) = (trace.origin() + span / 4, trace.origin() + 3 * span / 4);
    let mut reader = TraceFileReader::open(&path).expect("open");
    let mid = reader.events_between(t0, t1).expect("window read");
    let _ = writeln!(
        out,
        "\nrandom access: records={} total; middle-window read touched only overlapping \
         records and returned {} events",
        reader.record_count(),
        mid.len()
    );
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// E11 / Fig. 4: the timeline, with the paper's own marked events.
pub fn report_fig4(fast: bool) -> String {
    let trace = sdet_trace(8, fast);
    let timeline = Timeline::build(
        &trace,
        &TimelineOptions {
            width: 100,
            marks: vec![
                "TRACE_USER_RUN_UL_LOADER".into(),
                "TRACE_USER_RETURNED_MAIN".into(),
            ],
            ..Default::default()
        },
    );
    let mut out = timeline.render_ascii();

    // Zoom, as the kmon user would: the middle fifth.
    let span = trace.end() - trace.origin();
    let zoomed = Timeline::build(
        &trace,
        &TimelineOptions {
            width: 100,
            t0: Some(trace.origin() + 2 * span / 5),
            t1: Some(trace.origin() + 3 * span / 5),
            marks: vec!["TRACE_SYSCALL_ENTRY".into()],
        },
    );
    out.push_str("\nzoomed (middle fifth):\n");
    out.push_str(&zoomed.render_ascii());

    // SVG artifact for the "graphical" half of the claim.
    let svg_path = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(svg_path).is_ok() {
        let file = svg_path.join("fig4_timeline.svg");
        if std::fs::write(&file, timeline.render_svg()).is_ok() {
            let _ = writeln!(out, "\nSVG written to {}", file.display());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_top_lock_is_the_allocator_chain() {
        let s = report_fig7(true);
        assert!(s.contains("AllocRegionManager::alloc"), "{s}");
        assert!(s.contains("GMalloc::gMalloc()"));
        assert!(s.contains("top 10 contended locks by time"));
    }

    #[test]
    fn fig6_profiles_contain_known_functions() {
        let s = report_fig6(true);
        assert!(s.contains("histogram for pid"), "{s}");
        assert!(s.contains("count") && s.contains("method"));
        // The paper's Fig. 6 headline: lock acquisition tops the histogram
        // of a contention-bound process.
        assert!(s.contains("FairBLock::_acquire()"), "{s}");
    }

    #[test]
    fn fig8_contains_syscall_and_server_rows() {
        let s = report_fig8(true);
        assert!(s.contains("Ex-process"), "{s}");
        assert!(s.contains("served IPC"));
        assert!(s.contains("baseServers"));
    }

    #[test]
    fn fig5_lists_and_windows() {
        let s = report_fig5(true);
        assert!(s.contains("TRACE_") || s.contains("TRC_"), "{s}");
        assert!(s.contains("random access"), "{s}");
    }

    #[test]
    fn fig4_renders_lanes_and_marks() {
        let s = report_fig4(true);
        assert!(s.contains("cpu0"), "{s}");
        assert!(s.contains("cpu7"), "8-way timeline expected");
        assert!(s.contains("TRACE_USER_RUN_UL_LOADER"));
        assert!(s.contains("zoomed"));
    }
}
