//! Correctness debugging with the unified trace (§4.2): "a deadlock in the
//! file system space was tracked down with the tracing facility… a trace
//! file was produced and post-processed to detect where the cycle had
//! occurred."
//!
//! Two simulated processes take two locks in opposite orders. On the
//! virtual-time executor the schedule is deterministic, so the tasks always
//! meet in the cycle: the watchdog aborts the hung run, the flight recorder
//! still holds the lock events, and the wait-for-graph tool finds the
//! cycle. A printf could never have done this — it "would have changed the
//! timing thereby masking the deadlock".
//!
//! ```sh
//! cargo run --example deadlock_hunt
//! ```

use ktrace::analysis::{find_deadlock, Trace};
use ktrace::ossim::workload::micro;
use ktrace::ossim::MachineConfig;
use ktrace::prelude::*;
use ktrace::vsim::{CostParams, Scheme, VirtualMachine};

fn main() {
    let mut machine = VirtualMachine::new(
        MachineConfig::new(2),
        Scheme::LocklessPerCpu,
        CostParams::default(),
    )
    .with_emission(TraceConfig::small());

    // AB-BA: each task holds one lock 200µs before requesting the other.
    println!("running the AB-BA workload (hangs until the watchdog fires)…");
    let report = machine.run(&micro::ab_ba_deadlock(200_000));
    println!("run aborted by watchdog: {}\n", report.aborted);

    let trace = Trace::from_logger(machine.tracer().logger(), 1_000_000_000);
    match find_deadlock(&trace) {
        Some(found) => print!("{}", found.render()),
        None => println!("no cycle found"),
    }
}
