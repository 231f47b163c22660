//! The real-thread executor: per-CPU schedulers over real threads.
//!
//! [`Machine::run`] spawns one OS thread per simulated CPU. Each CPU time-
//! slices the tasks in its run queue, stealing from siblings when idle, and
//! runs task ops through the [`Kernel`], which emits every event an OS
//! kernel would. This executor owns only wall time, the run queues and the
//! lock words ([`FairBLock`]s that tasks on different threads genuinely
//! fight over). Statistical PC samples (§4.5) are taken between ops on the
//! sampling period. A watchdog aborts runs that stop making progress
//! (simulated deadlocks), leaving the evidence in the trace for the
//! deadlock-analysis tool (§4.2).

use crate::config::MachineConfig;
use crate::exec::{Acquire, Exec, HwCounters, Step};
use crate::kernel::Kernel;
use crate::lock::FairBLock;
use crate::task::Task;
use crate::tracer::{TraceHandle, Tracer};
use crate::workload::Workload;
use ktrace_format::protocol::SignalFlag;
use ktrace_format::Event;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Result of one machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Tasks (processes) that ran to completion.
    pub tasks_completed: u64,
    /// Tasks created in total.
    pub tasks_spawned: u64,
    /// `CountCompletion` marks hit (benchmark work units, e.g. SDET
    /// scripts).
    pub completions: u64,
    /// True if the watchdog aborted the run (deadlock / livelock).
    pub aborted: bool,
}

impl RunReport {
    /// Work units per hour — SDET's "scripts per hour" metric (Fig. 3).
    pub fn throughput_per_hour(&self) -> f64 {
        self.completions as f64 / self.elapsed.as_secs_f64() * 3600.0
    }
}

/// Busy-waits for `ns` nanoseconds of real time; returns the time taken.
fn spin(ns: u64) -> u64 {
    let start = Instant::now();
    if ns > 0 {
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }
    start.elapsed().as_nanos() as u64
}

/// The lock table of a real-thread run: one [`FairBLock`] per kernel lock.
pub(crate) fn lock_table(kernel: &Kernel) -> HashMap<u64, FairBLock> {
    kernel
        .lock_ids()
        .map(|id| (id, FairBLock::new(id)))
        .collect()
}

/// The per-CPU context of a real-thread run.
pub(crate) struct ThreadCpu<'a, H> {
    h: H,
    locks: &'a HashMap<u64, FairBLock>,
    abort: &'a SignalFlag,
    hw: HwCounters,
}

impl<'a, H: TraceHandle> ThreadCpu<'a, H> {
    pub(crate) fn new(
        h: H,
        locks: &'a HashMap<u64, FairBLock>,
        abort: &'a SignalFlag,
    ) -> ThreadCpu<'a, H> {
        ThreadCpu {
            h,
            locks,
            abort,
            hw: HwCounters::default(),
        }
    }
}

impl<H: TraceHandle> Exec for ThreadCpu<'_, H> {
    fn log<P: AsRef<[u64]>>(&mut self, e: Event<P>) {
        self.h.log(e);
    }

    fn busy(&mut self, ns: u64, _func: u16) -> u64 {
        spin(ns)
    }

    fn acquire(&mut self, lock: u64, _tid: u64) -> Acquire {
        match self.locks[&lock].acquire(self.abort) {
            Some(stats) => Acquire::Granted(stats),
            None => Acquire::Aborted,
        }
    }

    fn release(&mut self, lock: u64) {
        self.locks[&lock].release();
    }

    fn counters(&mut self) -> &mut HwCounters {
        &mut self.hw
    }
}

struct Shared {
    config: MachineConfig,
    kernel: Kernel,
    locks: HashMap<u64, FairBLock>,
    queues: Vec<Mutex<VecDeque<Task>>>,
    rr: AtomicU64,
}

impl Shared {
    fn queue(&self, cpu: usize) -> std::sync::MutexGuard<'_, VecDeque<Task>> {
        self.queues[cpu]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues a new task on a round-robin CPU.
    fn enqueue(&self, task: Task) {
        let cpu = (self.rr.fetch_add(1, Ordering::Relaxed) as usize) % self.queues.len();
        self.queue(cpu).push_back(task);
    }

    /// Pops local work, stealing from the busiest sibling when empty.
    fn next_task(&self, cpu: usize) -> Option<Task> {
        if let Some(t) = self.queue(cpu).pop_front() {
            return Some(t);
        }
        let (victim, _len) = (0..self.queues.len())
            .filter(|&i| i != cpu)
            .map(|i| (i, self.queue(i).len()))
            .max_by_key(|&(_, len)| len)?;
        self.queue(victim).pop_back()
    }
}

/// A simulated multiprocessor on real threads, generic over the tracing
/// backend.
pub struct Machine<T: Tracer> {
    config: MachineConfig,
    tracer: Arc<T>,
}

impl<T: Tracer> Machine<T> {
    /// Builds a machine.
    pub fn new(config: MachineConfig, tracer: Arc<T>) -> Machine<T> {
        Machine { config, tracer }
    }

    /// The tracing backend.
    pub fn tracer(&self) -> &Arc<T> {
        &self.tracer
    }

    /// Runs `workload` to completion (or watchdog abort) and reports.
    pub fn run(&self, workload: Workload) -> RunReport {
        let kernel = Kernel::new(self.config, workload.user_locks);
        let shared = Shared {
            config: self.config,
            locks: lock_table(&kernel),
            kernel,
            queues: (0..self.config.ncpus)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            rr: AtomicU64::new(0),
        };
        let kernel = &shared.kernel;

        let mut boot = ThreadCpu::new(self.tracer.handle(0), &shared.locks, &kernel.abort);
        for spec in &workload.processes {
            shared.enqueue(kernel.spawn(&mut boot, spec, None));
        }

        let start = Instant::now();
        let mut aborted = false;
        std::thread::scope(|scope| {
            for cpu in 0..self.config.ncpus {
                let (shared, handle) = (&shared, self.tracer.handle(cpu));
                std::thread::Builder::new()
                    .name(format!("ossim-cpu{cpu}"))
                    .spawn_scoped(scope, move || cpu_loop(cpu, shared, handle))
                    .expect("spawn cpu thread");
            }
            // Watchdog: abort when no task completes for the configured window.
            let mut last_progress = (0u64, Instant::now());
            while kernel.live() > 0 {
                std::thread::sleep(Duration::from_millis(5));
                let done = kernel.completed() + kernel.completions();
                if done != last_progress.0 {
                    last_progress = (done, Instant::now());
                } else if last_progress.1.elapsed() > self.config.watchdog {
                    kernel.abort.raise();
                    aborted = true;
                    break;
                }
            }
        });
        RunReport {
            elapsed: start.elapsed(),
            tasks_completed: kernel.completed(),
            tasks_spawned: kernel.spawned(),
            completions: kernel.completions(),
            aborted,
        }
    }
}

/// What happened to a task during its time slice.
enum SliceOutcome {
    Finished,
    Waiting,
    SlicedOut,
}

fn cpu_loop<H: TraceHandle>(cpu: usize, shared: &Shared, h: H) {
    let kernel = &shared.kernel;
    let mut x = ThreadCpu::new(h, &shared.locks, &kernel.abort);
    let mut prev_tid = 0u64;
    let mut idle_since: Option<Instant> = None;
    let mut last_sample = Instant::now();
    let run_start = Instant::now();
    loop {
        if kernel.live() == 0 || kernel.abort.is_raised() {
            // Final counter flush: activity between the last sampler tick and
            // shutdown must still reach the stream.
            x.counter_samples(run_start.elapsed().as_nanos() as u64);
            return;
        }
        let Some(mut task) = shared.next_task(cpu) else {
            if idle_since.is_none() {
                x.idle_start();
                idle_since = Some(Instant::now());
            }
            std::thread::sleep(shared.config.idle_quantum);
            continue;
        };
        if let Some(t0) = idle_since.take() {
            x.idle_end(t0.elapsed().as_nanos() as u64);
        }
        x.dispatch(cpu, prev_tid, &mut task);
        prev_tid = task.tid;

        match run_slice(shared, &mut x, &mut task, &mut last_sample, run_start) {
            SliceOutcome::Finished => kernel.exit(&mut x, &task),
            SliceOutcome::Waiting => {
                let mut q = shared.queue(cpu);
                let nothing_else = q.is_empty();
                q.push_back(task);
                drop(q);
                if nothing_else {
                    // Don't spin on a lone waiting task.
                    std::thread::sleep(shared.config.idle_quantum);
                }
            }
            SliceOutcome::SlicedOut => shared.queue(cpu).push_back(task),
        }
    }
}

/// Runs ops until the task finishes, must wait, or the slice expires.
/// Emits PC and counter samples on the configured period.
fn run_slice<H: TraceHandle>(
    shared: &Shared,
    x: &mut ThreadCpu<'_, H>,
    task: &mut Task,
    last_sample: &mut Instant,
    run_start: Instant,
) -> SliceOutcome {
    let kernel = &shared.kernel;
    let slice_end = Instant::now() + shared.config.time_slice;
    loop {
        if let Some(period) = shared.config.pc_sample_period {
            if last_sample.elapsed() >= period {
                *last_sample = Instant::now();
                x.pc_sample(task.pid, task.tid, task.current_func());
                x.counter_samples(run_start.elapsed().as_nanos() as u64);
            }
        }
        match kernel.run_op(x, task) {
            Step::Next => {}
            Step::Spawned(child) => shared.enqueue(child),
            Step::Wait => return SliceOutcome::Waiting,
            Step::Exit => return SliceOutcome::Finished,
        }
        if kernel.abort.is_raised() {
            return SliceOutcome::Finished;
        }
        if Instant::now() >= slice_end {
            return SliceOutcome::SlicedOut;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{func, lock as lockev, proc as procev, sysno};
    use crate::kernel::ALLOC_LOCK_BASE;
    use crate::task::{Op, ProcessSpec, Program};
    use crate::tracer::{KTracer, NoTracer};
    use ktrace_clock::SyncClock;
    use ktrace_core::{TraceConfig, TraceLogger};
    use ktrace_format::MajorId;

    fn traced_machine(ncpus: usize) -> Machine<KTracer> {
        let logger = TraceLogger::builder()
            .geometry(
                TraceConfig {
                    buffer_words: 4096,
                    buffers_per_cpu: 8,
                    ..TraceConfig::small()
                }
                .flight_recorder(),
            )
            .clock(Arc::new(SyncClock::new()))
            .ncpus(ncpus)
            .build()
            .unwrap();
        crate::events::register_all(&logger);
        Machine::new(
            MachineConfig::fast_test(ncpus),
            Arc::new(KTracer::new(logger)),
        )
    }

    fn simple_workload(n: usize) -> Workload {
        workload_with_compute(n, 2_000)
    }

    fn workload_with_compute(n: usize, compute_ns: u64) -> Workload {
        let program = Program::new()
            .compute(compute_ns, func::USER_COMPUTE)
            .syscall(sysno::GETPID)
            .malloc(256)
            .page_fault(0x4000)
            .op(Op::CountCompletion);
        Workload {
            processes: (0..n)
                .map(|i| ProcessSpec::new(format!("proc{i}"), program.clone()))
                .collect(),
            user_locks: 0,
        }
    }

    #[test]
    fn runs_simple_workload_to_completion() {
        let m = traced_machine(2);
        let report = m.run(simple_workload(6));
        assert!(!report.aborted);
        assert_eq!(report.tasks_completed, 6);
        assert_eq!(report.tasks_spawned, 6);
        assert_eq!(report.completions, 6);
        assert!(report.throughput_per_hour() > 0.0);
        // The trace contains scheduling, syscall, lock, and fault events.
        let logger = m.tracer().logger();
        let dump = logger.dump_last(100_000, None).events;
        for major in [
            MajorId::SCHED,
            MajorId::SYSCALL,
            MajorId::LOCK,
            MajorId::EXCEPTION,
            MajorId::PROC,
            MajorId::USER,
            MajorId::MEM,
        ] {
            assert!(
                dump.iter().any(|e| e.major == major),
                "missing {major} events"
            );
        }
    }

    #[test]
    fn hardware_counters_sampled_through_stream() {
        let m = traced_machine(1);
        // Long enough that the 20µs sampler certainly fires.
        let report = m.run(workload_with_compute(4, 2_000_000));
        assert!(!report.aborted);
        let dump = m
            .tracer()
            .logger()
            .dump_last(100_000, Some(&[MajorId::HWPERF]))
            .events;
        assert!(!dump.is_empty(), "HWPERF samples expected");
        for e in &dump {
            assert_eq!(e.minor, crate::events::hwperf::COUNTER_SAMPLE);
            assert!(e.payload[2] > 0, "deltas are positive");
        }
        // Cache misses were bumped by faults/mallocs and sampled.
        assert!(dump
            .iter()
            .any(|e| e.payload[0] == crate::events::counter::CACHE_MISSES));
    }

    #[test]
    fn untraced_machine_runs_identically() {
        let m = Machine::new(MachineConfig::fast_test(2), Arc::new(NoTracer));
        let report = m.run(simple_workload(4));
        assert_eq!(report.tasks_completed, 4);
        assert!(!report.aborted);
    }

    #[test]
    fn spawn_and_wait_children() {
        let child = ProcessSpec::new(
            "child",
            Program::new()
                .compute(1_000, func::USER_COMPUTE)
                .op(Op::CountCompletion),
        );
        let parent = ProcessSpec::new(
            "parent",
            Program::new()
                .op(Op::Spawn {
                    child: Box::new(child.clone()),
                })
                .op(Op::Spawn {
                    child: Box::new(child),
                })
                .op(Op::WaitChildren)
                .op(Op::CountCompletion),
        );
        let m = traced_machine(2);
        let report = m.run(Workload {
            processes: vec![parent],
            user_locks: 0,
        });
        assert!(!report.aborted);
        assert_eq!(report.tasks_spawned, 3);
        assert_eq!(report.tasks_completed, 3);
        assert_eq!(report.completions, 3);
        // PROC_CREATE events carry the parent/child relationship.
        let logger = m.tracer().logger();
        let creates = logger.dump_last(100_000, Some(&[MajorId::PROC])).events;
        let create_events: Vec<_> = creates
            .iter()
            .filter(|e| e.minor == procev::CREATE)
            .collect();
        assert_eq!(create_events.len(), 3);
    }

    #[test]
    fn allocator_regions_split_the_lock() {
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small().flight_recorder())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(1)
            .build()
            .unwrap();
        let mut cfg = MachineConfig::fast_test(1);
        cfg.alloc_regions = 2;
        let m = Machine::new(cfg, Arc::new(KTracer::new(logger)));
        // Pids 2 and 3 hash to regions 0 and 1.
        assert!(!m.run(simple_workload(2)).aborted);
        let mut locks: Vec<u64> = m
            .tracer()
            .logger()
            .dump_last(10_000, Some(&[MajorId::LOCK]))
            .events
            .iter()
            .filter(|e| e.minor == lockev::ACQUIRED)
            .map(|e| e.payload[0])
            .collect();
        locks.sort_unstable();
        locks.dedup();
        assert_eq!(locks, [ALLOC_LOCK_BASE, ALLOC_LOCK_BASE + 1]);
    }

    #[test]
    fn watchdog_aborts_deadlock() {
        // Classic AB-BA deadlock between two processes. The hold window is
        // long (hundreds of ms) so both tasks are certainly inside their
        // first critical section before requesting the second lock, even
        // with CPU-thread startup skew.
        let hold = 800_000_000; // * 0.25 time scale = 200ms
        let a = ProcessSpec::new(
            "taskA",
            Program::new()
                .op(Op::UserLock { lock: 0 })
                .compute(hold, func::USER_COMPUTE)
                .op(Op::UserLock { lock: 1 })
                .op(Op::UserUnlock { lock: 1 })
                .op(Op::UserUnlock { lock: 0 }),
        );
        let b = ProcessSpec::new(
            "taskB",
            Program::new()
                .op(Op::UserLock { lock: 1 })
                .compute(hold, func::USER_COMPUTE)
                .op(Op::UserLock { lock: 0 })
                .op(Op::UserUnlock { lock: 0 })
                .op(Op::UserUnlock { lock: 1 }),
        );
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small().flight_recorder())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(2)
            .build()
            .unwrap();
        let mut cfg = MachineConfig::fast_test(2);
        cfg.watchdog = Duration::from_millis(300);
        let m = Machine::new(cfg, Arc::new(KTracer::new(logger)));
        let report = m.run(Workload {
            processes: vec![a, b],
            user_locks: 2,
        });
        assert!(report.aborted, "watchdog must fire");
        // The flight recorder holds the lock events needed for diagnosis.
        let dump = m
            .tracer()
            .logger()
            .dump_last(10_000, Some(&[MajorId::LOCK]))
            .events;
        assert!(dump.iter().any(|e| e.minor == crate::events::lock::REQUEST));
    }

    #[test]
    fn multi_cpu_runs_spread_work() {
        let m = traced_machine(4);
        // Tasks heavy enough (~2ms each at 0.25 scale) that the run outlives
        // CPU-thread startup skew and work genuinely spreads.
        let report = m.run(workload_with_compute(16, 8_000_000));
        assert_eq!(report.tasks_completed, 16);
        // Work spread across CPUs: more than one region saw events. (A CPU
        // thread that starts after the run drains may legitimately log
        // nothing, so we don't require all four.)
        let logger = m.tracer().logger();
        let active = (0..4).filter(|&cpu| logger.snapshot(cpu).index > 0).count();
        assert!(active >= 2, "only {active} cpus logged");
    }
}
