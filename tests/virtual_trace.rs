//! Integration: virtual-time multiprocessor traces feed the same tools.

use ktrace::analysis::{find_deadlock, Breakdown, LockStats, PcProfile, Trace};
use ktrace::core::reader::GarbleNote;
use ktrace::ossim::kernel::USER_LOCK_BASE;
use ktrace::ossim::task::{Op, ProcessSpec, Program};
use ktrace::ossim::workload::{micro, sdet, Workload};
use ktrace::ossim::{CrashPlan, CrashTracer, MachineConfig};
use ktrace::prelude::{ManualClock, TraceConfig, TraceLogger};
use ktrace::vsim::{CostParams, Scheme, VirtualMachine};
use std::sync::Arc;

fn emitted_sdet(ncpus: usize) -> Trace {
    let mut cfg = MachineConfig::new(ncpus);
    cfg.alloc_regions = 1;
    let mut machine = VirtualMachine::new(cfg, Scheme::LocklessPerCpu, CostParams::default())
        .with_emission(TraceConfig {
            buffer_words: 16 * 1024,
            buffers_per_cpu: 16,
            ..TraceConfig::default()
        });
    machine.run(&sdet::build(sdet::SdetConfig {
        scripts: 2 * ncpus,
        commands_per_script: 3,
        ..Default::default()
    }));
    Trace::from_logger(machine.emitted_logger().expect("emission"), 1_000_000_000)
}

#[test]
fn eight_way_virtual_trace_feeds_all_tools() {
    let trace = emitted_sdet(8);
    // All 8 simulated CPUs logged.
    for cpu in 0..8 {
        assert!(
            trace.events.iter().any(|e| e.cpu == cpu),
            "cpu {cpu} silent"
        );
    }
    // Per-CPU virtual timestamps are monotonic.
    for cpu in 0..8 {
        let mut last = 0;
        for e in trace.events.iter().filter(|e| e.cpu == cpu) {
            assert!(e.time >= last);
            last = e.time;
        }
    }
    let locks = LockStats::compute(&trace);
    assert!(
        locks.total_wait_ns() > 0,
        "8 CPUs on one allocator lock must contend"
    );
    let prof = PcProfile::compute(&trace);
    assert!(prof.by_pid.len() > 1);
    let breakdown = Breakdown::compute(&trace);
    assert!(
        breakdown.processes[&1].served.time_ns > 0,
        "server time attributed"
    );
}

#[test]
fn virtual_deadlock_is_aborted_and_shows_the_cycle() {
    // A user lock held by another task excludes in virtual time too, so the
    // AB-BA workload deadlocks on every run: the executor aborts as soon as
    // both tasks wait on each other, and the trace holds the two-edge cycle.
    let mut machine = VirtualMachine::new(
        MachineConfig::new(2),
        Scheme::LocklessPerCpu,
        CostParams::default(),
    )
    .with_emission(TraceConfig::default());
    let report = machine.run(&micro::ab_ba_deadlock(10_000));
    assert!(report.aborted, "the AB-BA run must deadlock");
    assert_eq!(report.tasks_completed, 0);
    let trace = Trace::from_logger(machine.emitted_logger().unwrap(), 1_000_000_000);
    let found = find_deadlock(&trace).expect("the cycle is in the trace");
    assert_eq!(found.cycle.len(), 2, "{}", found.render());
    let mut locks: Vec<u64> = found.cycle.iter().map(|e| e.lock).collect();
    locks.sort_unstable();
    assert_eq!(locks, [USER_LOCK_BASE, USER_LOCK_BASE + 1]);
}

#[test]
fn hardware_counters_flow_through_the_unified_stream() {
    // §2: counter samples ride the same per-CPU lockless buffers as every
    // other event and are analyzable afterwards.
    let trace = emitted_sdet(4);
    let report = ktrace::analysis::CounterReport::compute(&trace);
    assert!(
        report.total(ktrace::events::counter::CYCLES) > 0,
        "cycles sampled"
    );
    assert!(
        report.total(ktrace::events::counter::CACHE_MISSES) > 0,
        "cache misses sampled"
    );
    let strip = report.intensity_strip(ktrace::events::counter::CYCLES, 40);
    assert_eq!(strip.chars().count(), 40);
    assert!(report.render(40).contains("cache_misses"));
}

#[test]
fn masked_majors_suppress_events_in_emission() {
    let mut machine = VirtualMachine::new(
        MachineConfig::new(2),
        Scheme::LocklessPerCpu,
        CostParams::default(),
    )
    .with_emission(TraceConfig::default());
    machine
        .emitted_logger()
        .unwrap()
        .mask()
        .disable(ktrace::format::MajorId::PROF);
    machine.run(&micro::compute_only(4, 500_000));
    let trace = Trace::from_logger(machine.emitted_logger().unwrap(), 1_000_000_000);
    assert!(
        !trace
            .events
            .iter()
            .any(|e| e.major == ktrace::format::MajorId::PROF),
        "masked class must not appear"
    );
    assert!(trace
        .events
        .iter()
        .any(|e| e.major == ktrace::format::MajorId::SCHED));
}

/// Runs six processes on a 2-CPU virtual machine whose CPU 1 dies after
/// 200 events, and returns the tracer.
fn crashed_run() -> Arc<CrashTracer> {
    let plan = CrashPlan {
        cpu: 1,
        after_events: 200,
        torn_words: 6,
    };
    let clock = Arc::new(ManualClock::new(0, 0));
    let logger = TraceLogger::builder()
        .geometry(
            TraceConfig {
                buffer_words: 4096,
                buffers_per_cpu: 8,
                ..TraceConfig::small()
            }
            .flight_recorder(),
        )
        .clock(clock.clone())
        .ncpus(2)
        .build()
        .unwrap();
    ktrace::events::register_all(&logger);
    let tracer = Arc::new(CrashTracer::new(logger, plan));
    let mut machine = VirtualMachine::new(
        MachineConfig::fast_test(2),
        Scheme::LocklessPerCpu,
        CostParams::default(),
    )
    .with_tracer(tracer.clone(), clock);
    let mut program = Program::new();
    for _ in 0..50 {
        program = program
            .compute(100_000, ktrace::events::func::USER_COMPUTE)
            .syscall(ktrace::events::sysno::GETPID)
            .malloc(256)
            .page_fault(0x4000);
    }
    let program = program.op(Op::CountCompletion);
    let report = machine.run(&Workload {
        processes: (0..6)
            .map(|i| ProcessSpec::new(format!("proc{i}"), program.clone()))
            .collect(),
        user_locks: 0,
    });
    // The machine itself survives the dead CPU's silence.
    assert!(!report.aborted);
    tracer
}

#[test]
fn crash_during_machine_run_is_reported_by_dump_last() {
    let tracer = crashed_run();
    let plan = tracer.plan();
    assert!(tracer.crashed(), "the victim logged enough to die");

    // The flight recorder holds the evidence: a garbled buffer on the
    // victim CPU, and surviving events from the healthy CPU.
    let dump = tracer.logger().dump_last(100_000, None);
    assert!(!dump.clean(), "the abandoned reservation must surface");
    assert!(dump.garbled_buffers >= 1);
    assert!(dump.events.iter().any(|e| e.cpu == 0));
    if let Some(at) = tracer.torn_at() {
        let rel = (at % tracer.logger().config().buffer_words as u64) as usize;
        assert!(dump.notes.iter().any(|(cpu, _, n)| {
            *cpu == plan.cpu && matches!(n, GarbleNote::ZeroHeader { offset } if *offset == rel)
        }));
    }
    // Virtual time makes the crash replayable.
    let again = crashed_run().logger().dump_last(100_000, None);
    assert_eq!(format!("{dump:?}"), format!("{again:?}"));
}
