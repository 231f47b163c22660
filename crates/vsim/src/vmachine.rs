//! The virtual-time executor of ossim's kernel.
//!
//! Single-threaded discrete-event simulation: CPUs are advanced in global
//! virtual-time order, and the CPU with the smallest clock (the lower CPU on
//! a tie) takes the next step of its current task through
//! [`Kernel::run_op`], so every event and payload is the kernel's own. This
//! executor owns only time: per-CPU clocks advanced by the cost of each op,
//! run queues with stealing, and a lock table of `{free_at, owner}` entries.
//! Every trace point charges the configured
//! [`TraceCostModel`](crate::cost::TraceCostModel) and goes out through
//! ossim's [`Tracer`] seam with the [`ManualClock`] set to the CPU's virtual
//! time.

use crate::cost::{CostParams, Scheme, TraceCostModel};
use ktrace_clock::ManualClock;
use ktrace_core::{TraceConfig, TraceLogger};
use ktrace_format::Event;
use ktrace_ossim::events::{self, func};
use ktrace_ossim::lock::AcquireStats;
use ktrace_ossim::task::Task;
use ktrace_ossim::workload::Workload;
use ktrace_ossim::{
    Acquire, Exec, HwCounters, KTracer, Kernel, MachineConfig, NoTracer, Step, TraceHandle, Tracer,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Virtual cost of one spin iteration: converts lock wait time to the spin
/// counts the Fig. 7 tool reports.
const SPIN_ITER_NS: u64 = 100;

/// Result of a virtual run.
#[derive(Debug, Clone)]
pub struct VReport {
    /// Virtual makespan: the time the last task completed.
    pub virtual_ns: u64,
    /// `CountCompletion` marks (e.g. SDET scripts).
    pub completions: u64,
    /// Tasks run to completion.
    pub tasks_completed: u64,
    /// Tasks created.
    pub tasks_spawned: u64,
    /// Trace-point executions (logged or not).
    pub events_attempted: u64,
    /// Events the modelled scheme actually recorded.
    pub events_logged: u64,
    /// Total virtual time spent in the tracing scheme, across CPUs.
    pub trace_overhead_ns: u64,
    /// Busy virtual time per CPU (lock waits count as busy).
    pub cpu_busy_ns: Vec<u64>,
    /// True if the watchdog aborted the run: no progress for
    /// `MachineConfig::watchdog` of virtual time, or every live task
    /// waiting on a lock another task holds.
    pub aborted: bool,
}

impl VReport {
    /// Work units per virtual hour — the Fig. 3 y-axis.
    pub fn throughput_per_hour(&self) -> f64 {
        if self.virtual_ns == 0 {
            return 0.0;
        }
        self.completions as f64 / (self.virtual_ns as f64 / 3.6e12)
    }
}

/// The virtual-time multiprocessor, generic over the tracing backend.
pub struct VirtualMachine<T: Tracer = NoTracer> {
    config: MachineConfig,
    model: TraceCostModel,
    tracer: Arc<T>,
    clock: Arc<ManualClock>,
}

impl VirtualMachine {
    /// A machine modelling `scheme` with the given cost parameters; the
    /// per-operation costs are `config`'s, read as virtual nanoseconds.
    pub fn new(config: MachineConfig, scheme: Scheme, params: CostParams) -> VirtualMachine {
        VirtualMachine {
            config,
            model: TraceCostModel::new(scheme, params),
            tracer: Arc::new(NoTracer),
            clock: Arc::default(),
        }
    }
}

impl<T: Tracer> VirtualMachine<T> {
    /// Logs through `tracer`, whose logger must read `clock`: the machine
    /// sets it to the CPU's virtual time before each event.
    pub fn with_tracer<U: Tracer>(
        self,
        tracer: Arc<U>,
        clock: Arc<ManualClock>,
    ) -> VirtualMachine<U> {
        VirtualMachine {
            config: self.config,
            model: self.model,
            tracer,
            clock,
        }
    }

    /// Emits every simulated event through a real lockless logger
    /// (flight-recorder mode) with virtual timestamps, so the analysis tools
    /// can consume a "P-way" trace.
    pub fn with_emission(self, trace_config: TraceConfig) -> VirtualMachine<KTracer> {
        let clock = self.clock.clone();
        let logger = TraceLogger::builder()
            .geometry(trace_config.flight_recorder())
            .clock(clock.clone() as Arc<dyn ktrace_clock::ClockSource>)
            .ncpus(self.config.ncpus)
            .build()
            .expect("valid trace config");
        events::register_all(&logger);
        self.with_tracer(Arc::new(KTracer::new(logger)), clock)
    }

    /// The tracing backend.
    pub fn tracer(&self) -> &Arc<T> {
        &self.tracer
    }

    /// Runs `workload` to completion (or watchdog abort) in virtual time.
    pub fn run(&mut self, workload: &Workload) -> VReport {
        let config = self.config;
        let kernel = Kernel::new(config, workload.user_locks);
        let mut sim = Sim {
            kernel: &kernel,
            shared: Shared {
                model: &mut self.model,
                clock: &self.clock,
                period: config.pc_sample_period.map(|p| p.as_nanos() as u64),
                locks: HashMap::new(),
                waiting: HashMap::new(),
                attempted: 0,
            },
            cpus: (0..config.ncpus)
                .map(|id| VCpu::new(id, self.tracer.handle(id), config))
                .collect(),
            slice: config.time_slice.as_nanos() as u64,
            quantum: config.idle_quantum.as_nanos() as u64,
            rr: 0,
            makespan: 0,
        };
        for spec in &workload.processes {
            let task = kernel.spawn(&mut sim.ctx(0), spec, None);
            let ready_at = sim.cpus[0].t;
            sim.enqueue(task, ready_at);
        }

        let watchdog = config.watchdog.as_nanos() as u64;
        let mut progress = (0u64, 0u64); // (tasks done, virtual time it moved)
        let mut aborted = false;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..sim.cpus.len()).map(|c| Reverse((0, c))).collect();
        while let Some(Reverse((t, cpu))) = heap.pop() {
            if kernel.live() == 0 {
                continue; // drain the heap; nothing left to run
            }
            if t > progress.1.saturating_add(watchdog) || sim.deadlocked() {
                kernel.abort.raise();
                aborted = true;
                break;
            }
            sim.step(cpu);
            let done = kernel.completed() + kernel.completions();
            if done != progress.0 {
                progress = (done, sim.cpus[cpu].t);
            }
            heap.push(Reverse((sim.cpus[cpu].t, cpu)));
        }
        // Final counter flush: activity since the last sample must still
        // reach the stream.
        for cpu in 0..sim.cpus.len() {
            let mut x = sim.ctx(cpu);
            let cycles = x.c.t;
            x.counter_samples(cycles);
        }

        VReport {
            virtual_ns: sim.makespan,
            completions: kernel.completions(),
            tasks_completed: kernel.completed(),
            tasks_spawned: kernel.spawned(),
            events_attempted: sim.shared.attempted,
            events_logged: sim.shared.model.events_logged,
            trace_overhead_ns: sim.shared.model.overhead_ns,
            cpu_busy_ns: sim.cpus.iter().map(|c| c.busy_ns).collect(),
            aborted,
        }
    }
}

impl VirtualMachine<KTracer> {
    /// The emission logger.
    pub fn emitted_logger(&self) -> Option<&TraceLogger> {
        Some(self.tracer.logger())
    }
}

/// A virtual lock: free from `free_at`, unless a task holds it across ops.
#[derive(Debug, Clone, Copy, Default)]
struct VLock {
    free_at: u64,
    owner: Option<u64>,
}

/// What every CPU's context touches.
struct Shared<'a> {
    model: &'a mut TraceCostModel,
    clock: &'a ManualClock,
    period: Option<u64>,
    locks: HashMap<u64, VLock>,
    /// Tasks whose lock request found the lock held: tid → (lock, virtual
    /// time of the first request).
    waiting: HashMap<u64, (u64, u64)>,
    attempted: u64,
}

struct VCpu<H> {
    id: usize,
    h: H,
    t: u64,
    busy_ns: u64,
    hw: HwCounters,
    /// (pid, tid) of the dispatched task: whose time `busy` samples.
    running: (u64, u64),
    next_sample: u64,
    /// PC-sample ticks since the last (stride-N) counter sample.
    ticks_since_counters: u32,
    /// Queued tasks and the virtual time each becomes ready.
    runq: VecDeque<(Task, u64)>,
    /// The dispatched task and its slice deadline. Exactly **one op** of the
    /// current task runs per scheduling step, so the global min-clock order
    /// keeps cross-CPU lock interactions causal (executing whole slices
    /// atomically would serialize lock requests in step order, not time
    /// order, and fabricate waits).
    current: Option<(Task, u64)>,
    prev_tid: u64,
    idle_since: Option<u64>,
}

impl<H> VCpu<H> {
    fn new(id: usize, h: H, config: MachineConfig) -> VCpu<H> {
        VCpu {
            id,
            h,
            t: 0,
            busy_ns: 0,
            hw: HwCounters::default(),
            running: (0, 0),
            next_sample: config.pc_sample_period.map_or(0, |p| p.as_nanos() as u64),
            ticks_since_counters: 0,
            runq: VecDeque::new(),
            current: None,
            prev_tid: 0,
            idle_since: None,
        }
    }
}

/// One CPU's [`Exec`] context for one step.
struct Ctx<'c, 'a, H> {
    s: &'c mut Shared<'a>,
    c: &'c mut VCpu<H>,
}

impl<H: TraceHandle> Ctx<'_, '_, H> {
    /// Advances the CPU by `ns` of work in `func`, taking the PC samples
    /// (and hardware-counter samples, §2) that fall due.
    fn advance(&mut self, ns: u64, func: u16) {
        self.c.t += ns;
        self.c.busy_ns += ns;
        let Some(period) = self.s.period else {
            return;
        };
        let (pid, tid) = self.c.running;
        // Samples are due against the clock *before* the emissions below
        // advance it, and missed ticks are coalesced — otherwise a period
        // shorter than the sampling cost would re-arm itself forever (a
        // real PMU interrupt coalesces the same way).
        let due_until = self.c.t;
        while self.c.next_sample <= due_until {
            self.c.next_sample += period;
            self.pc_sample(pid, tid, func);
            // At fine periods counters ride every 8th tick: a sampling
            // interrupt whose own cost approaches its period would otherwise
            // inflate virtual time unboundedly (and no real PMU samples that
            // fast either). Coarse periods sample counters on every tick.
            let stride = if period < 10_000 { 8 } else { 1 };
            self.c.ticks_since_counters += 1;
            if self.c.ticks_since_counters >= stride {
                self.c.ticks_since_counters = 0;
                let cycles = self.c.t;
                self.counter_samples(cycles);
            }
        }
        if self.c.next_sample <= self.c.t {
            self.c.next_sample = self.c.t + period;
        }
    }
}

impl<H: TraceHandle> Exec for Ctx<'_, '_, H> {
    /// One trace point: emit at the CPU's virtual time and charge the cost
    /// model.
    fn log<P: AsRef<[u64]>>(&mut self, e: Event<P>) {
        self.s.attempted += 1;
        let (t, words) = (self.c.t, e.payload().len());
        self.s.clock.set(t);
        self.c.h.log(e);
        let done = self.s.model.charge(self.c.id, t, words);
        self.c.busy_ns += done - t;
        self.c.t = done;
    }

    fn busy(&mut self, ns: u64, func: u16) -> u64 {
        self.advance(ns, func);
        ns
    }

    /// A lock free at `free_at` is granted at `max(now, free_at)`, the FIFO
    /// queueing a contended spin lock shows. A lock held across ops (a user
    /// lock) is `Blocked` until its owner frees it.
    fn acquire(&mut self, lock: u64, tid: u64) -> Acquire {
        let now = self.c.t;
        let entry = self.s.locks.entry(lock).or_default();
        if entry.owner.is_some() {
            self.s.waiting.entry(tid).or_insert((lock, now));
            return Acquire::Blocked;
        }
        let grant = now.max(entry.free_at);
        entry.owner = Some(tid);
        let since = self.s.waiting.remove(&tid).map_or(now, |(_, since)| since);
        let wait_ns = grant - since;
        if grant > now {
            // Spinning burns the CPU, bounces the lock's cache line
            // (coherence misses), and PC samples taken during the spin land
            // in the acquire routine — which is exactly how the lock shows
            // up at the top of the paper's Fig. 6 histogram.
            self.c.hw.cache_misses += (grant - now) / 100;
            self.advance(grant - now, func::FAIRBLOCK_ACQUIRE);
        }
        Acquire::Granted(AcquireStats {
            spins: wait_ns / SPIN_ITER_NS,
            wait_ns,
            contended: wait_ns > 0,
        })
    }

    fn release(&mut self, lock: u64) {
        let entry = self.s.locks.entry(lock).or_default();
        entry.owner = None;
        entry.free_at = self.c.t;
    }

    fn counters(&mut self) -> &mut HwCounters {
        &mut self.c.hw
    }
}

struct Sim<'a, H> {
    kernel: &'a Kernel,
    shared: Shared<'a>,
    cpus: Vec<VCpu<H>>,
    slice: u64,
    quantum: u64,
    rr: usize,
    makespan: u64,
}

impl<'a, H: TraceHandle> Sim<'a, H> {
    fn ctx(&mut self, cpu: usize) -> Ctx<'_, 'a, H> {
        Ctx {
            s: &mut self.shared,
            c: &mut self.cpus[cpu],
        }
    }

    /// Queues a new task round-robin, ready at `ready_at`.
    fn enqueue(&mut self, task: Task, ready_at: u64) {
        let target = self.rr % self.cpus.len();
        self.rr += 1;
        self.cpus[target].runq.push_back((task, ready_at));
    }

    /// Every live task waits on a lock another task holds: no step can
    /// make progress.
    fn deadlocked(&self) -> bool {
        let s = &self.shared;
        !s.waiting.is_empty()
            && s.waiting.len() as u64 == self.kernel.live()
            && s.waiting
                .values()
                .all(|(lock, _)| s.locks.get(lock).is_some_and(|l| l.owner.is_some()))
    }

    /// One step on `cpu`: dispatch if nothing is current, else run exactly
    /// one op of the current task.
    fn step(&mut self, cpu: usize) {
        let Some((mut task, slice_end)) = self.cpus[cpu].current.take() else {
            self.schedule(cpu);
            return;
        };
        let kernel = self.kernel;
        let step = kernel.run_op(&mut self.ctx(cpu), &mut task);
        let now = self.cpus[cpu].t;
        match step {
            Step::Next => {}
            Step::Spawned(child) => self.enqueue(child, now),
            Step::Wait => {
                self.cpus[cpu].runq.push_back((task, now + self.quantum));
                return;
            }
            Step::Exit => {
                kernel.exit(&mut self.ctx(cpu), &task);
                self.makespan = self.makespan.max(self.cpus[cpu].t);
                return;
            }
        }
        if now >= slice_end {
            self.cpus[cpu].runq.push_back((task, now));
        } else {
            self.cpus[cpu].current = Some((task, slice_end));
        }
    }

    /// Dispatches the first ready task; else waits for the earliest one,
    /// steals, or idles a quantum.
    fn schedule(&mut self, cpu: usize) {
        let (slice, quantum) = (self.slice, self.quantum);
        let c = &mut self.cpus[cpu];
        let now = c.t;
        let ready = c.runq.iter().position(|&(_, at)| at <= now);
        if let Some((mut task, _)) = ready.and_then(|i| c.runq.remove(i)) {
            let mut x = self.ctx(cpu);
            if let Some(since) = x.c.idle_since.take() {
                x.idle_end(now - since);
            }
            let prev = x.c.prev_tid;
            x.dispatch(cpu, prev, &mut task);
            x.c.prev_tid = task.tid;
            x.c.running = (task.pid, task.tid);
            x.c.current = Some((task, x.c.t + slice));
        } else if let Some(at) = c.runq.iter().map(|&(_, at)| at).min() {
            c.t = at;
        } else if let Some(stolen) = self.steal(cpu) {
            self.cpus[cpu].runq.push_back((stolen, now));
        } else {
            let mut x = self.ctx(cpu);
            if x.c.idle_since.is_none() {
                x.c.idle_since = Some(now);
                x.idle_start();
            }
            x.c.t += quantum;
        }
    }

    /// Steals a ready task from the most loaded sibling queue.
    fn steal(&mut self, thief: usize) -> Option<Task> {
        let now = self.cpus[thief].t;
        let victim = (0..self.cpus.len())
            .filter(|&c| c != thief)
            .max_by_key(|&c| self.cpus[c].runq.len())?;
        let q = &mut self.cpus[victim].runq;
        if q.len() < 2 {
            return None;
        }
        let pos = q.iter().rposition(|&(_, at)| at <= now)?;
        q.remove(pos).map(|(task, _)| task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_analysis::{LockStats, Trace};
    use ktrace_ossim::kernel::ALLOC_LOCK_BASE;
    use ktrace_ossim::workload::{micro, sdet};

    fn vm(ncpus: usize, scheme: Scheme) -> VirtualMachine {
        VirtualMachine::new(MachineConfig::new(ncpus), scheme, CostParams::default())
    }

    #[test]
    fn parallel_compute_scales_in_virtual_time() {
        let w = micro::compute_only(16, 1_000_000);
        let r1 = vm(1, Scheme::LocklessPerCpu).run(&w);
        let r4 = vm(4, Scheme::LocklessPerCpu).run(&w);
        assert_eq!(r1.tasks_completed, 16);
        assert_eq!(r4.tasks_completed, 16);
        let speedup = r1.virtual_ns as f64 / r4.virtual_ns as f64;
        assert!(speedup > 3.0, "speedup {speedup}");
        assert!(r4.throughput_per_hour() > 3.0 * r1.throughput_per_hour());
    }

    #[test]
    fn completions_and_spawns_accounted() {
        let w = micro::fork_storm(10);
        let r = vm(2, Scheme::LocklessPerCpu).run(&w);
        assert_eq!(r.tasks_spawned, 11); // parent + 10 children
        assert_eq!(r.tasks_completed, 11);
        assert_eq!(r.completions, 1);
        assert!(r.events_attempted > 0);
        assert_eq!(r.events_logged, r.events_attempted);
    }

    #[test]
    fn compiled_out_has_zero_overhead_and_same_results() {
        let w = sdet::build(sdet::SdetConfig {
            scripts: 4,
            commands_per_script: 3,
            ..Default::default()
        });
        let out = vm(4, Scheme::CompiledOut).run(&w);
        let masked = vm(4, Scheme::MaskedOff).run(&w);
        let on = vm(4, Scheme::LocklessPerCpu).run(&w);
        assert_eq!(out.trace_overhead_ns, 0);
        assert_eq!(out.events_logged, 0);
        assert_eq!(out.completions, on.completions);
        assert!(on.trace_overhead_ns > 0);
        // §3.2: trace statements left in but masked off cost < 1 % — this is
        // the paper's benchmarking configuration for Fig. 3. Makespan of a
        // short run is quantized by the wait-poll quantum, so the claim is
        // checked against the work actually performed.
        let masked_busy: u64 = masked.cpu_busy_ns.iter().sum();
        let masked_frac = masked.trace_overhead_ns as f64 / masked_busy as f64;
        assert!(
            masked_frac < 0.01,
            "masked-off overhead fraction {masked_frac}"
        );
        // Enabled tracing is "low impact enough to be used without
        // significant perturbation" — this workload is event-dense, so allow
        // tens of percent of the work, not multiples. (Makespan on a run
        // this short is poll-quantized, hence the busy-time basis.)
        let on_busy: u64 = on.cpu_busy_ns.iter().sum();
        let on_frac = on.trace_overhead_ns as f64 / on_busy as f64;
        assert!(
            on_frac < 0.3,
            "enabled-lockless overhead fraction {on_frac}"
        );
    }

    #[test]
    fn locking_scheme_is_much_slower_at_scale() {
        let w = sdet::build(sdet::SdetConfig {
            scripts: 16,
            commands_per_script: 3,
            ..Default::default()
        });
        let lockless = vm(8, Scheme::LocklessPerCpu).run(&w);
        let locking = vm(8, Scheme::LockingGlobal).run(&w);
        assert!(
            locking.trace_overhead_ns > 5 * lockless.trace_overhead_ns,
            "locking {} vs lockless {}",
            locking.trace_overhead_ns,
            lockless.trace_overhead_ns
        );
        assert!(locking.virtual_ns > lockless.virtual_ns);
    }

    #[test]
    fn global_cas_pays_more_than_percpu() {
        let w = micro::alloc_contention(8, 50);
        let percpu = vm(8, Scheme::LocklessPerCpu).run(&w);
        let global = vm(8, Scheme::LocklessGlobal).run(&w);
        assert!(global.trace_overhead_ns > percpu.trace_overhead_ns);
    }

    #[test]
    fn emission_produces_analyzable_virtual_trace() {
        let w = micro::alloc_contention(6, 30);
        let mut machine = vm(4, Scheme::LocklessPerCpu).with_emission(TraceConfig {
            buffer_words: 8192,
            buffers_per_cpu: 8,
            ..TraceConfig::default()
        });
        let r = machine.run(&w);
        assert_eq!(r.tasks_completed, 6);
        let logger = machine.emitted_logger().unwrap();
        let trace = Trace::from_logger(logger, 1_000_000_000);
        assert!(!trace.events.is_empty());
        // Per-CPU timestamp monotonicity survives emission.
        for cpu in 0..4 {
            let times: Vec<u64> = trace
                .events
                .iter()
                .filter(|e| e.cpu == cpu)
                .map(|e| e.time)
                .collect();
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "cpu {cpu} non-monotonic"
            );
        }
        // The Fig. 7 tool reads the virtual trace directly.
        let stats = LockStats::compute(&trace);
        assert!(!stats.rows.is_empty());
        let top = &stats.rows[0];
        assert_eq!(top.lock_id, ALLOC_LOCK_BASE, "allocator lock dominates");
        assert!(top.wait_ns > 0, "6 tasks on 4 cpus must contend virtually");
    }

    #[test]
    fn contention_grows_with_cpus() {
        // More CPUs hammering one allocator lock → more virtual wait.
        let wait_at = |p: usize| {
            let w = micro::alloc_contention(p, 40);
            let mut machine = vm(p, Scheme::CompiledOut).with_emission(TraceConfig {
                buffer_words: 8192,
                buffers_per_cpu: 8,
                ..TraceConfig::default()
            });
            machine.run(&w);
            let trace = Trace::from_logger(machine.emitted_logger().unwrap(), 1_000_000_000);
            LockStats::compute(&trace).total_wait_ns()
        };
        let w2 = wait_at(2);
        let w8 = wait_at(8);
        assert!(
            w8 > w2,
            "wait at 8 cpus {w8} must exceed wait at 2 cpus {w2}"
        );
    }

    #[test]
    fn sdet_scales_nearly_linearly_when_uncontended() {
        // Many allocator regions remove the kernel bottleneck: Fig. 3's
        // tuned-K42 shape.
        let mk = |p: usize| {
            let mut cfg = MachineConfig::new(p);
            cfg.alloc_regions = 64;
            let w = sdet::build(sdet::SdetConfig {
                scripts: 4 * p,
                commands_per_script: 4,
                ..Default::default()
            });
            VirtualMachine::new(cfg, Scheme::LocklessPerCpu, CostParams::default()).run(&w)
        };
        let r1 = mk(1);
        let r8 = mk(8);
        let scale = r8.throughput_per_hour() / r1.throughput_per_hour();
        assert!(scale > 5.0, "8-cpu throughput scale {scale}");
    }
}
