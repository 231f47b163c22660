//! Lock-contention analysis (the paper's §4.6 workflow).
//!
//! Runs an allocator-hammering workload on the virtual 8-way machine,
//! produces the Fig. 7 table, applies the fix the table points at (more
//! allocator regions), and reruns — the exact "find the most contended
//! lock, fix it, run the tool again" loop the paper describes.
//!
//! ```sh
//! cargo run --release --example lock_contention
//! ```

use ktrace::analysis::{LockStats, Trace};
use ktrace::ossim::workload::micro;
use ktrace::ossim::MachineConfig;
use ktrace::prelude::TraceConfig;
use ktrace::vsim::{CostParams, Scheme, VirtualMachine};

fn contention_run(alloc_regions: usize) -> LockStats {
    let mut cfg = MachineConfig::new(8);
    cfg.alloc_regions = alloc_regions;
    let mut machine = VirtualMachine::new(cfg, Scheme::LocklessPerCpu, CostParams::default())
        .with_emission(TraceConfig {
            buffer_words: 16 * 1024,
            buffers_per_cpu: 16,
            ..TraceConfig::default()
        });
    machine.run(&micro::alloc_contention(16, 60));
    let trace = Trace::from_logger(machine.emitted_logger().expect("emission"), 1_000_000_000);
    LockStats::compute(&trace)
}

fn main() {
    println!("=== before: one allocator region lock (the paper's starting point) ===\n");
    let before = contention_run(1);
    print!("{}", before.render(3, "time"));
    println!(
        "total lock wait: {:.3} ms\n",
        before.total_wait_ns() as f64 / 1e6
    );

    println!("=== after the fix the tool points at: per-process allocator regions ===\n");
    let after = contention_run(16);
    print!("{}", after.render(3, "time"));
    println!(
        "total lock wait: {:.3} ms",
        after.total_wait_ns() as f64 / 1e6
    );

    let improvement = before.total_wait_ns() as f64 / after.total_wait_ns().max(1) as f64;
    println!("\ncontention reduced {improvement:.0}x — rerun the tool and chase the next lock");
}
