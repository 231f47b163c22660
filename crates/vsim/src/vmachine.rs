//! The virtual-time machine.
//!
//! Single-threaded discrete-event simulation: CPUs are advanced in global
//! virtual-time order; the CPU with the smallest clock executes the next
//! slice of its current task. Ops cost virtual nanoseconds; kernel locks are
//! queueing resources; every trace point charges the configured
//! [`TraceCostModel`](crate::cost::TraceCostModel) and (optionally) emits a
//! real event with a virtual timestamp through the lockless logger.

use crate::cost::{CostParams, Scheme, TraceCostModel};
use ktrace_clock::ManualClock;
use ktrace_core::{TraceConfig, TraceLogger};
use ktrace_events::{
    self as events, exception, fs as fsev, ipc, lock as lockev, proc as procev, prof, sched,
    syscall as sysev, user,
};
use ktrace_format::Event;
use ktrace_ossim::kernel::{ALLOC_LOCK_BASE, DIR_LOCK_ID, PAGE_LOCK_ID, USER_LOCK_BASE};
use ktrace_ossim::task::{Op, ProcessSpec};
use ktrace_ossim::workload::Workload;
use ktrace_ossim::MachineConfig;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Virtual machine configuration. The per-operation costs are the real
/// kernel's (`ktrace_ossim::MachineConfig::new`), read as virtual
/// nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Simulated CPU count — unconstrained by the host.
    pub ncpus: usize,
    /// How far an idle CPU's clock jumps per scheduling round.
    pub idle_quantum_ns: u64,
    /// Statistical PC-sample period (`None` disables).
    pub pc_sample_period_ns: Option<u64>,
    /// Allocator region locks (1 = the paper's contended starting point).
    pub alloc_regions: usize,
}

impl VmConfig {
    /// Defaults for `ncpus` CPUs.
    pub fn new(ncpus: usize) -> VmConfig {
        VmConfig {
            ncpus,
            idle_quantum_ns: 20_000,
            pc_sample_period_ns: Some(50_000),
            alloc_regions: 1,
        }
    }
}

/// Process-creation cost; `MachineConfig` has no counterpart.
const SPAWN_COST_NS: u64 = 3_000;
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

#[derive(Debug, Clone, Copy, Default)]
struct VLock {
    free_at: u64,
}

#[derive(Debug, Clone, Copy)]
enum LockRef {
    Alloc(usize),
    Page,
    Dir,
    User(usize),
}

struct VTask {
    pid: u64,
    tid: u64,
    name: Rc<str>,
    ops: Rc<[Op]>,
    ip: usize,
    func_stack: Vec<u16>,
    pending: Rc<Cell<u64>>,
    parent: Option<Rc<Cell<u64>>>,
    ready_at: u64,
    home_cpu: usize,
}

/// Synthetic per-CPU hardware counters (§2: sampled through the unified
/// trace stream via `HWPERF` events).
#[derive(Debug, Clone, Copy, Default)]
struct HwCounters {
    cycles: u64,
    cache_misses: u64,
    tlb_misses: u64,
    sampled: [u64; 3],
}

struct VCpu {
    t: u64,
    busy_ns: u64,
    hw: HwCounters,
    /// PC-sample ticks since the last (stride-N) counter sample.
    ticks_since_counters: u32,
    runq: VecDeque<VTask>,
    /// The dispatched task and its slice deadline. Exactly **one op** of the
    /// current task runs per scheduling step, so the global min-clock order
    /// keeps cross-CPU lock interactions causal (executing whole slices
    /// atomically would serialize lock requests in step order, not time
    /// order, and fabricate waits).
    current: Option<(VTask, u64)>,
    prev_tid: u64,
    next_sample: u64,
}

struct Emitter {
    logger: TraceLogger,
    clock: Arc<ManualClock>,
}

/// The virtual-time multiprocessor.
pub struct VirtualMachine {
    config: VmConfig,
    model: TraceCostModel,
    emit: Option<Emitter>,
}

impl VirtualMachine {
    /// A machine modelling `scheme` with the given cost parameters.
    pub fn new(config: VmConfig, scheme: Scheme, params: CostParams) -> VirtualMachine {
        VirtualMachine {
            config,
            model: TraceCostModel::new(scheme, params),
            emit: None,
        }
    }

    /// Additionally emits every simulated event through a real lockless
    /// logger (flight-recorder mode) with virtual timestamps, so the
    /// analysis tools can consume a "P-way" trace.
    pub fn with_emission(mut self, trace_config: TraceConfig) -> VirtualMachine {
        let clock = Arc::new(ManualClock::new(0, 0));
        let logger = TraceLogger::builder()
            .geometry(trace_config.flight_recorder())
            .clock(clock.clone() as Arc<dyn ktrace_clock::ClockSource>)
            .ncpus(self.config.ncpus)
            .build()
            .expect("valid trace config");
        events::register_all(&logger);
        self.emit = Some(Emitter { logger, clock });
        self
    }

    /// The emission logger, if enabled.
    pub fn emitted_logger(&self) -> Option<&TraceLogger> {
        self.emit.as_ref().map(|e| &e.logger)
    }

    /// Runs `workload` to completion in virtual time.
    pub fn run(&mut self, workload: &Workload) -> VReport {
        let mut sim = Sim {
            cfg: self.config,
            costs: MachineConfig::new(self.config.ncpus),
            model: &mut self.model,
            emit: self.emit.as_ref(),
            cpus: (0..self.config.ncpus)
                .map(|_| VCpu {
                    t: 0,
                    busy_ns: 0,
                    hw: HwCounters::default(),
                    ticks_since_counters: 0,
                    runq: VecDeque::new(),
                    current: None,
                    prev_tid: 0,
                    next_sample: self.config.pc_sample_period_ns.unwrap_or(0),
                })
                .collect(),
            alloc_locks: vec![VLock::default(); self.config.alloc_regions.max(1)],
            page_lock: VLock::default(),
            dir_lock: VLock::default(),
            user_locks: vec![VLock::default(); workload.user_locks],
            live: 0,
            completed: 0,
            completions: 0,
            spawned: 0,
            attempted: 0,
            next_pid: 2,
            next_tid: 0x8000_0000,
            rr: 0,
            makespan: 0,
        };
        for spec in &workload.processes {
            sim.spawn(0, spec, None);
        }

        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..sim.cpus.len()).map(|c| Reverse((0, c))).collect();
        while let Some(Reverse((_, cpu))) = heap.pop() {
            if sim.live == 0 {
                continue; // drain the heap; nothing left to run
            }
            sim.step(cpu);
            heap.push(Reverse((sim.cpus[cpu].t, cpu)));
        }

        VReport {
            virtual_ns: sim.makespan,
            completions: sim.completions,
            tasks_completed: sim.completed,
            tasks_spawned: sim.spawned,
            events_attempted: sim.attempted,
            events_logged: sim.model.events_logged,
            trace_overhead_ns: sim.model.overhead_ns,
            cpu_busy_ns: sim.cpus.iter().map(|c| c.busy_ns).collect(),
        }
    }
}

struct Sim<'a> {
    cfg: VmConfig,
    /// The real kernel's operation costs, as virtual ns.
    costs: MachineConfig,
    model: &'a mut TraceCostModel,
    emit: Option<&'a Emitter>,
    cpus: Vec<VCpu>,
    alloc_locks: Vec<VLock>,
    page_lock: VLock,
    dir_lock: VLock,
    user_locks: Vec<VLock>,
    live: u64,
    completed: u64,
    completions: u64,
    spawned: u64,
    attempted: u64,
    next_pid: u64,
    next_tid: u64,
    rr: usize,
    makespan: u64,
}

impl Sim<'_> {
    /// One trace point: emit (optionally) and charge the cost model.
    fn emit<P: AsRef<[u64]>>(&mut self, cpu: usize, e: Event<P>) {
        self.attempted += 1;
        let t = self.cpus[cpu].t;
        if let Some(em) = self.emit {
            em.clock.set(t);
            em.logger.log(cpu, e.major(), e.minor(), e.payload());
        }
        let done = self.model.charge(cpu, t, e.payload().len());
        self.cpus[cpu].busy_ns += done - t;
        self.cpus[cpu].t = done;
    }

    /// Advances `cpu` by busy work, emitting PC samples (and hardware-counter
    /// samples, §2) on the sampling period.
    fn advance(&mut self, cpu: usize, ns: u64, task: Option<(&VTask, u16)>) {
        self.cpus[cpu].t += ns;
        self.cpus[cpu].busy_ns += ns;
        // The synthetic counters: 1 cycle/ns, plus background cache traffic.
        self.cpus[cpu].hw.cycles += ns;
        self.cpus[cpu].hw.cache_misses += ns / 500;
        if let (Some(period), Some((task, func))) = (self.cfg.pc_sample_period_ns, task) {
            let (pid, tid) = (task.pid, task.tid);
            // Samples are due against the clock *before* the emissions below
            // advance it, and missed ticks are coalesced — otherwise a
            // period shorter than the sampling cost would re-arm itself
            // forever (a real PMU interrupt coalesces the same way).
            let due_until = self.cpus[cpu].t;
            while self.cpus[cpu].next_sample <= due_until {
                self.cpus[cpu].next_sample += period;
                self.emit(cpu, prof::pc_sample(pid, tid, func as u64));
                // At fine periods counters ride every 8th tick: a sampling
                // interrupt whose own cost approaches its period would
                // otherwise inflate virtual time unboundedly (and no real
                // PMU samples that fast either). Coarse periods sample
                // counters on every tick.
                let stride = if period < 10_000 { 8 } else { 1 };
                self.cpus[cpu].ticks_since_counters += 1;
                if self.cpus[cpu].ticks_since_counters >= stride {
                    self.cpus[cpu].ticks_since_counters = 0;
                    self.emit_counters(cpu);
                }
            }
            if self.cpus[cpu].next_sample <= self.cpus[cpu].t {
                self.cpus[cpu].next_sample = self.cpus[cpu].t + period;
            }
        }
    }

    /// Emits one `HWPERF` sample per counter whose value moved.
    fn emit_counters(&mut self, cpu: usize) {
        let hw = self.cpus[cpu].hw;
        let values = [hw.cycles, hw.cache_misses, hw.tlb_misses];
        for (i, &value) in values.iter().enumerate() {
            let delta = value - hw.sampled[i];
            if delta > 0 {
                self.emit(
                    cpu,
                    events::hwperf::counter_sample(i as u64 + 1, value, delta),
                );
                self.cpus[cpu].hw.sampled[i] = value;
            }
        }
    }

    /// Charges counter bursts for discrete kernel activity.
    fn hw_burst(&mut self, cpu: usize, cache: u64, tlb: u64) {
        self.cpus[cpu].hw.cache_misses += cache;
        self.cpus[cpu].hw.tlb_misses += tlb;
    }

    fn lock_mut(&mut self, which: LockRef) -> (&mut VLock, u64) {
        match which {
            LockRef::Alloc(i) => {
                let id = ALLOC_LOCK_BASE + i as u64;
                (&mut self.alloc_locks[i], id)
            }
            LockRef::Page => (&mut self.page_lock, PAGE_LOCK_ID),
            LockRef::Dir => (&mut self.dir_lock, DIR_LOCK_ID),
            LockRef::User(i) => (&mut self.user_locks[i], USER_LOCK_BASE + i as u64),
        }
    }

    /// Virtual lock acquisition with full LOCK-event instrumentation.
    fn vlock_acquire(&mut self, cpu: usize, which: LockRef, task: &VTask, chain: u64) {
        let tid = task.tid;
        let (_, id) = self.lock_mut(which);
        self.emit(cpu, lockev::request(id, tid, chain));
        let now = self.cpus[cpu].t;
        let (lock, id) = self.lock_mut(which);
        let grant = now.max(lock.free_at);
        let wait = grant - now;
        // Reserve pessimistically; release() moves free_at to the real
        // release time, which is always ≥ grant.
        lock.free_at = grant;
        let spins = wait / SPIN_ITER_NS;
        if wait > 0 {
            // Spinning burns the CPU, bounces the lock's cache line
            // (coherence misses), and PC samples taken during the spin land
            // in the acquire routine — which is exactly how the lock shows
            // up at the top of the paper's Fig. 6 histogram.
            self.hw_burst(cpu, wait / 100, 0);
            self.advance(cpu, wait, Some((task, events::func::FAIRBLOCK_ACQUIRE)));
        }
        self.emit(cpu, lockev::acquired(id, tid, chain, spins, wait));
    }

    /// Releases a virtual lock at the CPU's current time.
    fn vlock_release(&mut self, cpu: usize, which: LockRef, tid: u64, hold_ns: u64) {
        let now = self.cpus[cpu].t;
        let (lock, id) = self.lock_mut(which);
        lock.free_at = now;
        self.emit(cpu, lockev::released(id, tid, hold_ns));
    }

    /// Creates a process and enqueues its main task round-robin.
    fn spawn(&mut self, on_cpu: usize, spec: &ProcessSpec, creator: Option<&VTask>) {
        let pid = self.next_pid;
        self.next_pid += 1;
        let tid = self.next_tid;
        self.next_tid += 1;
        let target = self.rr % self.cpus.len();
        self.rr += 1;
        let creator_pid = creator.map_or(0, |c| c.pid);
        self.emit(on_cpu, procev::create(pid, creator_pid, &spec.name));
        self.emit(on_cpu, user::run_ul_loader(creator_pid, pid, &spec.name));
        self.emit(on_cpu, sched::thread_start(tid, pid));
        if let Some(c) = creator {
            c.pending.set(c.pending.get() + 1);
        }
        let ready_at = self.cpus[on_cpu].t;
        self.cpus[target].runq.push_back(VTask {
            pid,
            tid,
            name: spec.name.as_str().into(),
            ops: spec.program.ops.clone().into(),
            ip: 0,
            func_stack: vec![events::func::USER_COMPUTE],
            pending: Rc::new(Cell::new(0)),
            parent: creator.map(|c| c.pending.clone()),
            ready_at,
            home_cpu: target,
        });
        self.live += 1;
        self.spawned += 1;
    }

    /// One scheduling round on `cpu`: dispatch if nothing is current, then
    /// execute exactly one op of the current task.
    fn step(&mut self, cpu: usize) {
        if self.cpus[cpu].current.is_none() {
            let now = self.cpus[cpu].t;
            // Pick the first ready task; if none are ready yet, idle forward.
            let task = match self.cpus[cpu].runq.iter().position(|t| t.ready_at <= now) {
                Some(i) => self.cpus[cpu].runq.remove(i).expect("index valid"),
                None => {
                    if let Some(min_ready) = self.cpus[cpu].runq.iter().map(|t| t.ready_at).min() {
                        self.cpus[cpu].t = min_ready;
                    } else if let Some(stolen) = self.steal(cpu) {
                        self.emit(
                            cpu,
                            sched::migrate(stolen.tid, stolen.home_cpu as u64, cpu as u64),
                        );
                        let mut stolen = stolen;
                        stolen.home_cpu = cpu;
                        stolen.ready_at = stolen.ready_at.max(now);
                        self.cpus[cpu].runq.push_back(stolen);
                    } else {
                        self.cpus[cpu].t += self.cfg.idle_quantum_ns;
                    }
                    return;
                }
            };
            let prev = self.cpus[cpu].prev_tid;
            self.emit(cpu, sched::ctx_switch(prev, task.tid, task.pid));
            self.cpus[cpu].prev_tid = task.tid;
            let slice_end = self.cpus[cpu].t + self.costs.time_slice.as_nanos() as u64;
            self.cpus[cpu].current = Some((task, slice_end));
            return;
        }

        let (mut task, slice_end) = self.cpus[cpu].current.take().expect("checked above");
        {
            let Some(op) = task.ops.get(task.ip).cloned() else {
                self.finish(cpu, task);
                return;
            };
            match op {
                Op::Exit => {
                    self.finish(cpu, task);
                    return;
                }
                Op::WaitChildren => {
                    if task.pending.get() > 0 {
                        task.ready_at = self.cpus[cpu].t + self.cfg.idle_quantum_ns;
                        self.cpus[cpu].runq.push_back(task);
                        return;
                    }
                    task.ip += 1;
                }
                Op::Compute { ns, func } => {
                    task.func_stack.push(func);
                    self.advance(cpu, ns, Some((&task, func)));
                    task.func_stack.pop();
                    task.ip += 1;
                }
                Op::Syscall { no } => {
                    self.emit(cpu, sysev::entry(task.pid, task.tid, no));
                    self.advance(
                        cpu,
                        self.costs.syscall_cost_ns,
                        Some((&task, events::func::SYSCALL_DISPATCH)),
                    );
                    self.emit(cpu, sysev::exit(task.pid, task.tid, no));
                    task.ip += 1;
                }
                Op::MapRegion { bytes } => {
                    self.hw_burst(cpu, 10, 2);
                    let addr = 0x2000_0000 + task.pid * 0x10_0000;
                    self.emit(cpu, events::mem::reg_create(addr, bytes));
                    self.advance(
                        cpu,
                        self.costs.syscall_cost_ns / 2,
                        Some((&task, events::func::FCM_MAP_PAGE)),
                    );
                    self.emit(cpu, events::mem::fcm_atch_reg(addr, addr ^ 0xf0f0));
                    task.ip += 1;
                }
                Op::PageFault { addr } => {
                    self.hw_burst(cpu, 80, 20);
                    self.emit(cpu, exception::pgflt(task.tid, addr));
                    self.advance(
                        cpu,
                        self.costs.pagefault_cost_ns,
                        Some((&task, events::func::PGFLT_HANDLER)),
                    );
                    self.emit(cpu, exception::pgflt_done(task.tid, addr));
                    task.ip += 1;
                }
                Op::Malloc { size } => {
                    self.hw_burst(cpu, 15, 0);
                    task.func_stack.push(events::func::GMALLOC);
                    task.func_stack.push(events::func::PMALLOC);
                    task.func_stack.push(events::func::ALLOC_REGION_ALLOC);
                    let chain = events::pack_chain(&task.func_stack);
                    let which = LockRef::Alloc(task.pid as usize % self.alloc_locks.len());
                    self.vlock_acquire(cpu, which, &task, chain);
                    self.advance(
                        cpu,
                        self.costs.alloc_hold_ns,
                        Some((&task, events::func::ALLOC_REGION_ALLOC)),
                    );
                    self.vlock_release(cpu, which, task.tid, self.costs.alloc_hold_ns);
                    self.emit(cpu, events::mem::alloc(size, 0x1000_0000 + size));
                    task.func_stack.truncate(task.func_stack.len() - 3);
                    task.ip += 1;
                }
                Op::FreePages { .. } => {
                    task.func_stack.push(events::func::PAGEALLOC_USER_DEALLOC);
                    task.func_stack.push(events::func::PAGEALLOC_DEALLOC);
                    let chain = events::pack_chain(&task.func_stack);
                    let hold = self.costs.alloc_hold_ns / 2;
                    self.vlock_acquire(cpu, LockRef::Page, &task, chain);
                    self.advance(cpu, hold, Some((&task, events::func::PAGEALLOC_DEALLOC)));
                    self.vlock_release(cpu, LockRef::Page, task.tid, hold);
                    task.func_stack.truncate(task.func_stack.len() - 2);
                    task.ip += 1;
                }
                Op::FsOpen { path } | Op::FsClose { path } => {
                    let event = if matches!(op, Op::FsOpen { .. }) {
                        fsev::open(1, path)
                    } else {
                        fsev::close(1, path)
                    };
                    self.fs_call(cpu, &mut task, event, self.costs.fs_op_cost_ns, true);
                    task.ip += 1;
                }
                Op::FsRead { bytes } => {
                    let cost = self.costs.fs_op_cost_ns + bytes / 64;
                    self.fs_call(cpu, &mut task, fsev::read(1, bytes), cost, false);
                    task.ip += 1;
                }
                Op::FsWrite { bytes } => {
                    let cost = self.costs.fs_op_cost_ns + bytes / 64;
                    self.fs_call(cpu, &mut task, fsev::write(1, bytes), cost, false);
                    task.ip += 1;
                }
                Op::SharedRead { cell } => {
                    let addr = ktrace_ossim::kernel::Kernel::shared_cell_addr(cell);
                    self.emit(cpu, events::mem::access_read(addr, task.tid));
                    task.ip += 1;
                }
                Op::SharedWrite { cell } => {
                    // Mirrors the real-time kernel's read-modify-write: the
                    // annotation, then the ~200ns compute between load and
                    // store that widens the race window.
                    let addr = ktrace_ossim::kernel::Kernel::shared_cell_addr(cell);
                    self.emit(cpu, events::mem::access_write(addr, task.tid));
                    self.advance(cpu, 200, Some((&task, events::func::USER_COMPUTE)));
                    task.ip += 1;
                }
                Op::UserLock { lock } => {
                    let chain = events::pack_chain(&task.func_stack);
                    self.vlock_acquire(cpu, LockRef::User(lock), &task, chain);
                    task.ip += 1;
                }
                Op::UserUnlock { lock } => {
                    self.vlock_release(cpu, LockRef::User(lock), task.tid, 0);
                    task.ip += 1;
                }
                Op::Spawn { child } => {
                    self.advance(
                        cpu,
                        SPAWN_COST_NS,
                        Some((&task, events::func::PROCESS_FORK)),
                    );
                    self.spawn(cpu, &child, Some(&task));
                    task.ip += 1;
                }
                Op::CountCompletion => {
                    self.completions += 1;
                    task.ip += 1;
                }
            }
        }
        if self.cpus[cpu].t >= slice_end {
            task.ready_at = self.cpus[cpu].t;
            self.cpus[cpu].runq.push_back(task);
        } else {
            self.cpus[cpu].current = Some((task, slice_end));
        }
    }

    /// The PPC-style FS server call in virtual time: the server logs
    /// `event`, and the IPC pair names its minor as the called function.
    fn fs_call(
        &mut self,
        cpu: usize,
        task: &mut VTask,
        event: Event<[u64; 2]>,
        cost: u64,
        dir_locked: bool,
    ) {
        let fn_id = u64::from(event.minor());
        self.emit(cpu, ipc::call(task.pid, 1, fn_id));
        self.emit(cpu, exception::ppc_call(task.tid));
        task.func_stack.push(events::func::IPC_CALLEE_ENTRY);
        if dir_locked {
            // The directory lock covers only the name lookup; the rest of
            // the operation runs unlocked (otherwise the FS server would be
            // a global serialization point, which is exactly the kind of
            // bottleneck the paper's lock tool exists to find and fix).
            task.func_stack.push(events::func::DIR_LOOKUP);
            let chain = events::pack_chain(&task.func_stack);
            let lookup = (cost / 5).max(1);
            self.vlock_acquire(cpu, LockRef::Dir, task, chain);
            self.advance(cpu, lookup, Some((&*task, events::func::DIR_LOOKUP)));
            self.vlock_release(cpu, LockRef::Dir, task.tid, lookup);
            self.advance(
                cpu,
                cost - lookup,
                Some((&*task, events::func::DENTRY_LOOKUP)),
            );
            task.func_stack.pop();
        } else {
            self.advance(cpu, cost, Some((&*task, events::func::SERVER_FILE_READ)));
        }
        self.emit(cpu, event);
        task.func_stack.pop();
        self.advance(cpu, self.costs.ipc_cost_ns, None);
        self.emit(cpu, exception::ppc_return(task.tid));
        self.emit(cpu, ipc::ret(task.pid, 1, fn_id));
    }

    fn finish(&mut self, cpu: usize, task: VTask) {
        self.emit(cpu, sched::thread_exit(task.tid, task.pid));
        self.emit(cpu, user::returned_main(task.pid));
        self.emit(cpu, procev::exit(task.pid));
        if let Some(parent) = &task.parent {
            parent.set(parent.get().saturating_sub(1));
        }
        self.completed += 1;
        self.live -= 1;
        self.makespan = self.makespan.max(self.cpus[cpu].t);
        let _ = task.name; // names currently only travel in spawn events
    }

    /// Steals a task from the most loaded sibling queue (ready tasks only).
    fn steal(&mut self, thief: usize) -> Option<VTask> {
        let now = self.cpus[thief].t;
        let victim = (0..self.cpus.len())
            .filter(|&c| c != thief)
            .max_by_key(|&c| self.cpus[c].runq.len())?;
        if self.cpus[victim].runq.len() < 2 {
            return None;
        }
        let pos = self.cpus[victim]
            .runq
            .iter()
            .rposition(|t| t.ready_at <= now)?;
        self.cpus[victim].runq.remove(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_analysis::{LockStats, Trace};
    use ktrace_ossim::workload::{micro, sdet};

    fn vm(ncpus: usize, scheme: Scheme) -> VirtualMachine {
        VirtualMachine::new(VmConfig::new(ncpus), scheme, CostParams::default())
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
            let mut cfg = VmConfig::new(p);
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
