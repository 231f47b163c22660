//! The simulated multiprocessor: per-CPU schedulers over real threads.
//!
//! [`Machine::run`] spawns one OS thread per simulated CPU. Each CPU time-
//! slices the tasks in its run queue, stealing from siblings when idle
//! (logging MIGRATE events), and executes task ops through the [`Kernel`].
//! Every scheduling action emits the trace events an OS kernel would: context
//! switches, idle transitions, thread starts/exits, process lifecycle — plus
//! statistical PC samples (§4.5). A watchdog aborts runs that stop making
//! progress (simulated deadlocks), leaving the evidence in the trace for the
//! deadlock-analysis tool (§4.2).

use crate::config::MachineConfig;
use crate::events::{hwperf, proc as procev, prof, sched, user};
use crate::kernel::{busy, FsOp, Kernel};
use crate::task::{Op, ProcessSpec, Task};
use crate::tracer::{TraceHandle, Tracer};
use crate::workload::Workload;
use std::collections::VecDeque;
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

struct Shared {
    config: MachineConfig,
    kernel: Kernel,
    queues: Vec<Mutex<VecDeque<Task>>>,
    live: AtomicU64,
    completed: AtomicU64,
    completions: AtomicU64,
    spawned: AtomicU64,
    next_pid: AtomicU64,
    next_tid: AtomicU64,
    rr: AtomicU64,
}

impl Shared {
    /// Creates a process: allocates ids, logs the lifecycle events through
    /// `h`, and enqueues the main task on a round-robin CPU.
    fn spawn<H: TraceHandle>(&self, h: &H, spec: &ProcessSpec, creator: Option<&Task>) {
        let pid = self.next_pid.fetch_add(1, Ordering::Relaxed);
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let cpu = (self.rr.fetch_add(1, Ordering::Relaxed) as usize) % self.queues.len();
        let creator_pid = creator.map_or(crate::kernel::KERNEL_PID, |c| c.pid);

        h.log(procev::create(pid, creator_pid, &spec.name));
        h.log(user::run_ul_loader(creator_pid, pid, &spec.name));
        h.log(sched::thread_start(tid, pid));
        if let Some(c) = creator {
            c.child_spawned();
        }
        let task = Task::from_spec(
            spec,
            pid,
            tid,
            cpu,
            creator.map(|c| c.pending_children.clone()),
        );
        self.live.fetch_add(1, Ordering::AcqRel);
        self.spawned.fetch_add(1, Ordering::Relaxed);
        self.queues[cpu]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(task);
    }

    /// Pops local work, stealing from the busiest sibling when empty.
    fn next_task(&self, cpu: usize) -> Option<Task> {
        if let Some(t) = self.queues[cpu]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            return Some(t);
        }
        let (victim, _len) = self
            .queues
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != cpu)
            .map(|(i, q)| (i, q.lock().unwrap_or_else(PoisonError::into_inner).len()))
            .max_by_key(|&(_, len)| len)?;
        self.queues[victim]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_back()
    }
}

/// A simulated multiprocessor, generic over the tracing backend.
pub struct Machine<T: Tracer> {
    config: MachineConfig,
    tracer: Arc<T>,
}

impl<T: Tracer> Machine<T> {
    /// Builds a machine with one allocator region lock (the contended
    /// default of the paper's tuning story).
    pub fn new(config: MachineConfig, tracer: Arc<T>) -> Machine<T> {
        Machine { config, tracer }
    }

    /// The tracing backend.
    pub fn tracer(&self) -> &Arc<T> {
        &self.tracer
    }

    /// Runs `workload` to completion (or watchdog abort) and reports.
    pub fn run(&self, workload: Workload) -> RunReport {
        let shared = Arc::new(Shared {
            config: self.config,
            kernel: Kernel::new(self.config, 1, workload.user_locks),
            queues: (0..self.config.ncpus)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            live: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            completions: AtomicU64::new(0),
            spawned: AtomicU64::new(0),
            next_pid: AtomicU64::new(2), // 0 = kernel, 1 = baseServers
            next_tid: AtomicU64::new(0x8000_0000),
            rr: AtomicU64::new(0),
        });

        let boot_handle = self.tracer.handle(0);
        for spec in &workload.processes {
            shared.spawn(&boot_handle, spec, None);
        }

        let start = Instant::now();
        let cpus: Vec<_> = (0..self.config.ncpus)
            .map(|cpu| {
                let shared = shared.clone();
                let handle = self.tracer.handle(cpu);
                std::thread::Builder::new()
                    .name(format!("ossim-cpu{cpu}"))
                    .spawn(move || cpu_loop(cpu, shared, handle))
                    .expect("spawn cpu thread")
            })
            .collect();

        // Watchdog: abort when no task completes for the configured window.
        let mut last_progress = (0u64, Instant::now());
        let mut aborted = false;
        while shared.live.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(5));
            let done = shared.completed.load(Ordering::Relaxed)
                + shared.completions.load(Ordering::Relaxed);
            if done != last_progress.0 {
                last_progress = (done, Instant::now());
            } else if last_progress.1.elapsed() > self.config.watchdog {
                shared.kernel.abort.raise();
                aborted = true;
                break;
            }
        }
        for c in cpus {
            c.join().expect("cpu thread panicked");
        }
        RunReport {
            elapsed: start.elapsed(),
            tasks_completed: shared.completed.load(Ordering::Relaxed),
            tasks_spawned: shared.spawned.load(Ordering::Relaxed),
            completions: shared.completions.load(Ordering::Relaxed),
            aborted,
        }
    }
}

/// What happened to a task during its time slice.
enum SliceOutcome {
    Finished,
    WaitingForChildren,
    SlicedOut,
}

fn cpu_loop<H: TraceHandle>(cpu: usize, shared: Arc<Shared>, h: H) {
    let mut prev_tid = 0u64;
    let mut idle_since: Option<Instant> = None;
    let mut last_sample = Instant::now();
    let mut hw = HwCounters::default();
    let run_start = Instant::now();
    loop {
        if shared.live.load(Ordering::Acquire) == 0 || shared.kernel.abort.is_raised() {
            // Final counter flush: activity between the last sampler tick and
            // shutdown must still reach the stream.
            hw.emit(&h, run_start);
            return;
        }
        let Some(mut task) = shared.next_task(cpu) else {
            if idle_since.is_none() {
                h.log(sched::idle_start());
                idle_since = Some(Instant::now());
            }
            std::thread::sleep(Duration::from_micros(20));
            continue;
        };
        if let Some(t0) = idle_since.take() {
            h.log(sched::idle_end(t0.elapsed().as_nanos() as u64));
        }
        if task.started && task.last_cpu != cpu {
            h.log(sched::migrate(task.tid, task.last_cpu as u64, cpu as u64));
        }
        task.started = true;
        task.last_cpu = cpu;
        h.log(sched::ctx_switch(prev_tid, task.tid, task.pid));
        prev_tid = task.tid;

        let outcome = run_slice(&shared, &h, &mut task, &mut last_sample, &mut hw, run_start);
        match outcome {
            SliceOutcome::Finished => {
                h.log(sched::thread_exit(task.tid, task.pid));
                h.log(user::returned_main(task.pid));
                h.log(procev::exit(task.pid));
                if let Some(parent) = &task.parent_pending {
                    parent.fetch_sub(1, Ordering::AcqRel);
                }
                shared.completed.fetch_add(1, Ordering::Relaxed);
                shared.live.fetch_sub(1, Ordering::AcqRel);
            }
            SliceOutcome::WaitingForChildren => {
                let mut q = shared.queues[cpu]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let nothing_else = q.is_empty();
                q.push_back(task);
                drop(q);
                if nothing_else {
                    // Don't spin on a lone waiting task.
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
            SliceOutcome::SlicedOut => {
                shared.queues[cpu]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push_back(task);
            }
        }
    }
}

/// Per-CPU synthetic hardware counters (§2): sampled through the unified
/// stream alongside the PC samples.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct HwCounters {
    pub cache_misses: u64,
    pub tlb_misses: u64,
    last_cycles: u64,
    last_cache: u64,
    last_tlb: u64,
}

impl HwCounters {
    /// Emits one `HWPERF` sample per counter whose value moved since the
    /// previous sample. Cycles use a 1-cycle-per-ns wall-time model.
    fn emit<H: TraceHandle>(&mut self, h: &H, run_start: Instant) {
        use crate::events::counter;
        let cycles = run_start.elapsed().as_nanos() as u64;
        let samples = [
            (counter::CYCLES, cycles, &mut self.last_cycles),
            (
                counter::CACHE_MISSES,
                self.cache_misses,
                &mut self.last_cache,
            ),
            (counter::TLB_MISSES, self.tlb_misses, &mut self.last_tlb),
        ];
        for (id, value, last) in samples {
            let delta = value.saturating_sub(*last);
            if delta > 0 {
                h.log(hwperf::counter_sample(id, value, delta));
                *last = value;
            }
        }
    }
}

/// Executes ops until the task finishes, blocks on children, or the slice
/// expires. Emits PC samples on the configured period.
fn run_slice<H: TraceHandle>(
    shared: &Shared,
    h: &H,
    task: &mut Task,
    last_sample: &mut Instant,
    hw: &mut HwCounters,
    run_start: Instant,
) -> SliceOutcome {
    let config = &shared.config;
    let kernel = &shared.kernel;
    let slice_end = Instant::now() + config.time_slice;
    loop {
        if let Some(period) = config.pc_sample_period {
            if last_sample.elapsed() >= period {
                *last_sample = Instant::now();
                h.log(prof::pc_sample(
                    task.pid,
                    task.tid,
                    task.current_func() as u64,
                ));
                hw.emit(h, run_start);
            }
        }
        let Some(op) = task.current_op().cloned() else {
            return SliceOutcome::Finished;
        };
        match op {
            Op::Exit => return SliceOutcome::Finished,
            Op::WaitChildren => {
                if task.live_children() > 0 {
                    return SliceOutcome::WaitingForChildren;
                }
                task.advance();
            }
            Op::Compute { ns, func } => {
                task.func_stack.push(func);
                busy(config.scaled(ns));
                task.func_stack.pop();
                task.advance();
            }
            Op::Syscall { no } => {
                kernel.syscall(h, task, no, |_, _, _| {});
                task.advance();
            }
            Op::PageFault { addr } => {
                hw.cache_misses += 80;
                hw.tlb_misses += 20;
                kernel.page_fault(h, task, addr);
                task.advance();
            }
            Op::MapRegion { bytes } => {
                hw.cache_misses += 10;
                kernel.map_region(h, task, bytes);
                task.advance();
            }
            Op::Malloc { size } => {
                hw.cache_misses += 15;
                if !kernel.malloc(h, task, size) {
                    return SliceOutcome::Finished; // aborted mid-wait
                }
                task.advance();
            }
            Op::FreePages { pages } => {
                if !kernel.free_pages(h, task, pages) {
                    return SliceOutcome::Finished;
                }
                task.advance();
            }
            Op::FsOpen { path } => {
                if !kernel.fs_call(h, task, FsOp::Open { path }) {
                    return SliceOutcome::Finished;
                }
                task.advance();
            }
            Op::FsRead { bytes } => {
                if !kernel.fs_call(h, task, FsOp::Read { bytes }) {
                    return SliceOutcome::Finished;
                }
                task.advance();
            }
            Op::FsWrite { bytes } => {
                if !kernel.fs_call(h, task, FsOp::Write { bytes }) {
                    return SliceOutcome::Finished;
                }
                task.advance();
            }
            Op::FsClose { path } => {
                if !kernel.fs_call(h, task, FsOp::Close { path }) {
                    return SliceOutcome::Finished;
                }
                task.advance();
            }
            Op::SharedRead { cell } => {
                kernel.shared_read(h, task, cell);
                task.advance();
            }
            Op::SharedWrite { cell } => {
                kernel.shared_write(h, task, cell);
                task.advance();
            }
            Op::UserLock { lock } => {
                if !kernel.user_lock(h, task, lock) {
                    return SliceOutcome::Finished;
                }
                task.advance();
            }
            Op::UserUnlock { lock } => {
                kernel.user_unlock(h, task, lock);
                task.advance();
            }
            Op::Spawn { child } => {
                shared.spawn(h, &child, Some(task));
                task.advance();
            }
            Op::CountCompletion => {
                shared.completions.fetch_add(1, Ordering::Relaxed);
                task.advance();
            }
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
    use crate::events::{func, sysno};
    use crate::task::Program;
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
