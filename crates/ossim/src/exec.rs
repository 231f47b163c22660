//! The executor seam: what the kernel needs from whatever runs it.
//!
//! One [`Kernel`](crate::kernel::Kernel) writes every op's semantics and
//! every event the machine emits. An *executor* owns the rest: time, the run
//! queues and the lock primitive. [`Machine`](crate::machine::Machine) runs
//! the kernel on one real thread per CPU; `ktrace-vsim`'s `VirtualMachine`
//! runs it in virtual time. Each hands the kernel a per-CPU [`Exec`]
//! context, so a trace from either executor is the same OS's trace.

use crate::events::{counter, hwperf, prof, sched};
use crate::lock::AcquireStats;
use crate::task::Task;
use ktrace_format::Event;

/// How a lock request went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is now held by the requester.
    Granted(AcquireStats),
    /// Another task holds the lock across ops: retry the op later.
    Blocked,
    /// The run is being aborted (watchdog); the lock is not held.
    Aborted,
}

/// What running one op did to its task.
#[derive(Debug)]
pub enum Step {
    /// The op completed; the task runs on.
    Next,
    /// The op cannot complete yet (live children, or a lock held by
    /// another task): requeue the task and run the same op again later.
    Wait,
    /// The op created this child task; the executor queues it.
    Spawned(Task),
    /// The task is done: its program ended, it exited, or its lock wait
    /// was aborted.
    Exit,
}

/// The per-CPU context an executor gives the kernel.
///
/// The four required methods are the executor's: where an event goes, how
/// time passes, and how a lock is taken and freed. The provided methods are
/// the per-CPU events both executors emit, written once here.
pub trait Exec {
    /// Logs one event from this CPU.
    fn log<P: AsRef<[u64]>>(&mut self, e: Event<P>);

    /// Spends `ns` of this CPU's time working in function `func`; returns
    /// the nanoseconds it took.
    fn busy(&mut self, ns: u64, func: u16) -> u64;

    /// Takes lock `lock` for thread `tid`.
    fn acquire(&mut self, lock: u64, tid: u64) -> Acquire;

    /// Frees lock `lock`, which this CPU's task holds.
    fn release(&mut self, lock: u64);

    /// This CPU's synthetic hardware counters.
    fn counters(&mut self) -> &mut HwCounters;

    /// Puts `task` on `cpu` after `prev_tid`: MIGRATE if it last ran on
    /// another CPU, then the context switch.
    fn dispatch(&mut self, cpu: usize, prev_tid: u64, task: &mut Task) {
        if task.started && task.last_cpu != cpu {
            self.log(sched::migrate(task.tid, task.last_cpu as u64, cpu as u64));
        }
        task.started = true;
        task.last_cpu = cpu;
        self.log(sched::ctx_switch(prev_tid, task.tid, task.pid));
    }

    /// The CPU found nothing to run.
    fn idle_start(&mut self) {
        self.log(sched::idle_start());
    }

    /// The CPU found work after `ns` idle.
    fn idle_end(&mut self, ns: u64) {
        self.log(sched::idle_end(ns));
    }

    /// One statistical PC sample (§4.5): `tid` of `pid` was in `func`.
    fn pc_sample(&mut self, pid: u64, tid: u64, func: u16) {
        self.log(prof::pc_sample(pid, tid, u64::from(func)));
    }

    /// One `HWPERF` sample per counter that moved since the last one (§2);
    /// `cycles` is the executor's clock at 1 cycle per ns.
    fn counter_samples(&mut self, cycles: u64) {
        for e in self.counters().take(cycles).into_iter().flatten() {
            self.log(e);
        }
    }
}

/// Per-CPU synthetic hardware counters (§2), sampled through the unified
/// stream alongside the PC samples. Kernel paths bump them.
#[derive(Debug, Default, Clone, Copy)]
pub struct HwCounters {
    /// Data-cache misses so far.
    pub cache_misses: u64,
    /// TLB misses so far.
    pub tlb_misses: u64,
    /// Cycles, cache misses and TLB misses at the last sample.
    sampled: [u64; 3],
}

impl HwCounters {
    /// The samples due: one per counter whose value moved.
    fn take(&mut self, cycles: u64) -> [Option<Event<[u64; 3]>>; 3] {
        let ids = [counter::CYCLES, counter::CACHE_MISSES, counter::TLB_MISSES];
        let values = [cycles, self.cache_misses, self.tlb_misses];
        std::array::from_fn(|i| {
            let delta = values[i].saturating_sub(self.sampled[i]);
            (delta > 0).then(|| {
                self.sampled[i] = values[i];
                hwperf::counter_sample(ids[i], values[i], delta)
            })
        })
    }
}
