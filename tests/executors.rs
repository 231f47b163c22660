//! Differential: one kernel, two executors. The same workload run on the
//! real-thread machine and on the virtual-time machine must produce the same
//! events, because every event is written once, in ossim's kernel. Only the
//! fields that measure time may differ.

use ktrace::core::reader::RawEvent;
use ktrace::events::{lock as lockev, sched};
use ktrace::format::MajorId;
use ktrace::ossim::task::{Op, ProcessSpec, Program};
use ktrace::ossim::workload::{sdet, Workload};
use ktrace::ossim::{KTracer, Machine, MachineConfig};
use ktrace::prelude::{ManualClock, TraceConfig, TraceLogger};
use ktrace::vsim::{CostParams, Scheme, VirtualMachine};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

fn geometry() -> TraceConfig {
    TraceConfig {
        buffer_words: 16 * 1024,
        buffers_per_cpu: 16,
        ..TraceConfig::default()
    }
}

/// Every event of a run, in time order, after checking none was lost.
fn events_of(logger: &TraceLogger) -> Vec<RawEvent> {
    let snap = logger.telemetry().snapshot();
    assert_eq!(snap.events_dropped(), 0);
    assert_eq!(snap.flight_overwrites(), 0, "the ring must hold the run");
    logger.dump_last(usize::MAX, None).events
}

fn real_run(config: MachineConfig, workload: Workload) -> Vec<RawEvent> {
    let logger = TraceLogger::builder()
        .geometry(geometry().flight_recorder())
        .clock(Arc::new(ManualClock::new(1_000, 1)))
        .ncpus(config.ncpus)
        .build()
        .unwrap();
    let machine = Machine::new(config, Arc::new(KTracer::new(logger)));
    assert!(!machine.run(workload).aborted);
    events_of(machine.tracer().logger())
}

fn virtual_run(config: MachineConfig, workload: &Workload) -> Vec<RawEvent> {
    let mut machine = VirtualMachine::new(config, Scheme::LocklessPerCpu, CostParams::default())
        .with_emission(geometry());
    assert!(!machine.run(workload).aborted);
    events_of(machine.tracer().logger())
}

/// (major, minor, payload) with the time-derived fields zeroed: ACQUIRED
/// spins and wait, RELEASED hold, the idle duration, and HWPERF values.
fn semantic(e: &RawEvent) -> (MajorId, u16, Vec<u64>) {
    let mut payload = e.payload.to_vec();
    let timed: &[usize] = match (e.major, e.minor) {
        (MajorId::LOCK, lockev::ACQUIRED) => &[3, 4],
        (MajorId::LOCK, lockev::RELEASED) => &[2],
        (MajorId::SCHED, sched::IDLE_END) => &[0],
        (MajorId::HWPERF, _) => &[0, 1, 2],
        _ => &[],
    };
    for &i in timed {
        payload[i] = 0;
    }
    (e.major, e.minor, payload)
}

/// One process whose 17 ops cover every `Op` variant (its child's `Exit`
/// makes the 18th).
fn all_ops() -> Workload {
    let child = ProcessSpec::new(
        "child",
        Program::new()
            .compute(500, ktrace::events::func::USER_COMPUTE)
            .op(Op::Exit)
            .syscall(ktrace::events::sysno::GETPID), // never runs
    );
    let parent = Program::new()
        .compute(1_000, ktrace::events::func::USER_COMPUTE)
        .syscall(ktrace::events::sysno::GETPID)
        .page_fault(0x7000)
        .op(Op::MapRegion { bytes: 0x10_000 })
        .malloc(128)
        .op(Op::FreePages { pages: 2 })
        .op(Op::FsOpen { path: 0xf00 })
        .op(Op::FsRead { bytes: 512 })
        .op(Op::FsWrite { bytes: 256 })
        .op(Op::FsClose { path: 0xf00 })
        .op(Op::SharedRead { cell: 1 })
        .op(Op::SharedWrite { cell: 1 })
        .op(Op::UserLock { lock: 0 })
        .op(Op::UserUnlock { lock: 0 })
        .op(Op::Spawn {
            child: Box::new(child),
        })
        .op(Op::WaitChildren)
        .op(Op::CountCompletion);
    assert_eq!(parent.ops.len(), 17);
    Workload {
        processes: vec![ProcessSpec::new("all-ops", parent)],
        user_locks: 1,
    }
}

#[test]
fn one_program_emits_the_same_events_on_both_executors() {
    // One CPU, no sampler, one slice: the schedule is fixed on both.
    let mut config = MachineConfig::fast_test(1);
    config.pc_sample_period = None;
    config.time_slice = Duration::from_secs(3600);
    let real: Vec<_> = real_run(config, all_ops()).iter().map(semantic).collect();
    let virt: Vec<_> = virtual_run(config, &all_ops())
        .iter()
        .map(semantic)
        .collect();
    assert!(real.len() > 50, "{} events", real.len());
    for (i, (r, v)) in real.iter().zip(&virt).enumerate() {
        assert_eq!(r, v, "event {i} differs");
    }
    assert_eq!(real.len(), virt.len());
}

/// Each task's (major, minor) multiset outside SCHED, PROF and HWPERF,
/// keyed by its place in the process tree: the k-th root process is `"k"`,
/// the n-th child of task `p` is `"p.n"`. Tids are handed out in spawn
/// order, which two real CPUs race for, so they cannot be the key.
fn work_per_task(events: &[RawEvent]) -> BTreeMap<String, Vec<(MajorId, u16)>> {
    let mut key_of_pid: HashMap<u64, String> = HashMap::new();
    let mut key_of_tid: HashMap<u64, String> = HashMap::from([(0, "boot".to_string())]);
    let mut children: HashMap<u64, usize> = HashMap::new();
    let mut running: HashMap<usize, u64> = HashMap::new();
    let mut work: BTreeMap<String, Vec<(MajorId, u16)>> = BTreeMap::new();
    for e in events {
        match (e.major, e.minor) {
            (MajorId::PROC, ktrace::events::proc::CREATE) => {
                let (pid, creator) = (e.payload[0], e.payload[1]);
                let n = children.entry(creator).or_default();
                let key = match key_of_pid.get(&creator) {
                    Some(parent) => format!("{parent}.{n}"),
                    None => n.to_string(),
                };
                *n += 1;
                key_of_pid.insert(pid, key);
            }
            (MajorId::SCHED, sched::THREAD_START) => {
                key_of_tid.insert(e.payload[0], key_of_pid[&e.payload[1]].clone());
            }
            (MajorId::SCHED, sched::CTX_SWITCH) => {
                running.insert(e.cpu, e.payload[1]);
            }
            _ => {}
        }
        if !matches!(e.major, MajorId::SCHED | MajorId::PROF | MajorId::HWPERF) {
            let tid = running.get(&e.cpu).copied().unwrap_or(0);
            work.entry(key_of_tid[&tid].clone())
                .or_default()
                .push((e.major, e.minor));
        }
    }
    for list in work.values_mut() {
        list.sort_unstable();
    }
    work
}

#[test]
fn sdet_tasks_do_the_same_work_on_both_executors() {
    let workload = sdet::build(sdet::SdetConfig {
        scripts: 4,
        commands_per_script: 3,
        ..Default::default()
    });
    let config = MachineConfig::fast_test(2);
    let real = work_per_task(&real_run(config, workload.clone()));
    let virt = work_per_task(&virtual_run(config, &workload));
    assert_eq!(real.len(), 1 + 4 + 4 * 3, "boot, scripts, commands");
    assert_eq!(real, virt);
}
