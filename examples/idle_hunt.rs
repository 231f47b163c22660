//! The paper's first tuning discovery, §4: "we noticed large idle periods on
//! many processors when the benchmark started … caused by poor coordination
//! between the timing and start routines of the benchmark."
//!
//! A "poorly coordinated" benchmark launcher releases its scripts one at a
//! time with think-time in between, leaving the other CPUs idle at startup;
//! the utilization tool flags exactly those gaps. The fixed launcher releases
//! everything at once.
//!
//! ```sh
//! cargo run --release --example idle_hunt
//! ```

use ktrace::analysis::{Trace, Utilization};
use ktrace::ossim::task::{Op, ProcessSpec, Program};
use ktrace::ossim::workload::{sdet, Workload};
use ktrace::ossim::MachineConfig;
use ktrace::prelude::TraceConfig;
use ktrace::vsim::{CostParams, Scheme, VirtualMachine};

/// Wraps the SDET scripts behind a serial launcher with per-script delay.
fn staggered(scripts: Workload, delay_ns: u64) -> Workload {
    let mut launcher = Program::new();
    for spec in scripts.processes {
        launcher = launcher
            .compute(delay_ns, ktrace::events::func::USER_COMPUTE)
            .op(Op::Spawn {
                child: Box::new(spec),
            });
    }
    launcher = launcher.op(Op::WaitChildren);
    Workload::new(vec![ProcessSpec::new("launcher", launcher)])
}

fn run(workload: &Workload) -> Trace {
    let mut machine = VirtualMachine::new(
        MachineConfig::new(8),
        Scheme::LocklessPerCpu,
        CostParams::default(),
    )
    .with_emission(TraceConfig {
        buffer_words: 16 * 1024,
        buffers_per_cpu: 16,
        ..TraceConfig::default()
    });
    machine.run(workload);
    Trace::from_logger(machine.emitted_logger().expect("emission"), 1_000_000_000)
}

fn main() {
    let cfg = sdet::SdetConfig {
        scripts: 16,
        commands_per_script: 3,
        ..Default::default()
    };
    let gap_threshold = 60_000; // flag idle gaps > 60µs

    println!("=== poorly coordinated start (scripts released serially) ===\n");
    let broken = run(&staggered(sdet::build(cfg), 50_000));
    let u = Utilization::compute(&broken);
    print!("{}", u.render(&broken, gap_threshold));

    println!("\n=== fixed start (all scripts released at once) ===\n");
    let fixed = run(&sdet::build(cfg));
    let u2 = Utilization::compute(&fixed);
    print!("{}", u2.render(&fixed, gap_threshold));

    println!(
        "\nmean utilization: {:.0}% -> {:.0}%  (the §4 story: find the idle, fix the start)",
        100.0 * u.mean(),
        100.0 * u2.mean()
    );
}
