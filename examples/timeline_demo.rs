//! The kmon-style timeline (Fig. 4): a bird's-eye view of an 8-way run.
//!
//! Runs an SDET-like workload on the virtual 8-way machine, renders the
//! per-CPU activity lanes with the paper's own marked events
//! (`TRACE_USER_RUN_UL_LOADER` / `TRACE_USER_RETURNED_MAIN`), zooms into the
//! middle, and writes an SVG.
//!
//! ```sh
//! cargo run --release --example timeline_demo
//! ```

use ktrace::analysis::{Timeline, TimelineOptions, Trace};
use ktrace::ossim::workload::sdet;
use ktrace::ossim::MachineConfig;
use ktrace::prelude::TraceConfig;
use ktrace::vsim::{CostParams, Scheme, VirtualMachine};

fn main() {
    let cfg = MachineConfig::new(8);
    let workload = sdet::build(sdet::SdetConfig {
        scripts: 16,
        commands_per_script: 4,
        ..Default::default()
    });
    let mut machine = VirtualMachine::new(cfg, Scheme::LocklessPerCpu, CostParams::default())
        .with_emission(TraceConfig {
            buffer_words: 16 * 1024,
            buffers_per_cpu: 16,
            ..TraceConfig::default()
        });
    machine.run(&workload);
    let trace = Trace::from_logger(machine.emitted_logger().expect("emission"), 1_000_000_000);

    let opts = TimelineOptions {
        width: 110,
        marks: vec![
            "TRACE_USER_RUN_UL_LOADER".into(),
            "TRACE_USER_RETURNED_MAIN".into(),
        ],
        ..Default::default()
    };
    let timeline = Timeline::build(&trace, &opts);
    print!("{}", timeline.render_ascii());

    // Zoom: the middle third, marking syscall entries.
    let span = trace.end() - trace.origin();
    let zoom = Timeline::build(
        &trace,
        &TimelineOptions {
            width: 110,
            t0: Some(trace.origin() + span / 3),
            t1: Some(trace.origin() + 2 * span / 3),
            marks: vec!["TRACE_SYSCALL_ENTRY".into()],
        },
    );
    println!("\nzoomed to the middle third:");
    print!("{}", zoom.render_ascii());

    // Hardware counters ride the same stream (§2): line their intensity
    // strips up under the activity lanes.
    let counters = ktrace::analysis::CounterReport::compute(&trace);
    println!("\nhardware-counter intensity over the same window:");
    for id in [
        ktrace::events::counter::CYCLES,
        ktrace::events::counter::CACHE_MISSES,
    ] {
        println!(
            "{:>13} |{}|",
            ktrace::events::counter::name(id),
            counters.intensity_strip(id, 110)
        );
    }

    let out = std::env::temp_dir().join("ktrace_timeline.svg");
    std::fs::write(&out, timeline.render_svg()).expect("write svg");
    println!("\nSVG written to {}", out.display());
}
