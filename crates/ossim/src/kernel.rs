//! The simulated kernel: every op's semantics and every event the machine
//! emits, written once for both executors.
//!
//! It holds an allocator chain, a page allocator, a page-fault path, and a
//! file-system server reached by PPC-style IPC. Every service brackets its
//! work with the same trace events K42 logs, and the allocator/page/
//! directory locks are the ones tasks on different CPUs fight over: the raw
//! material of the paper's Fig. 7 lock-contention analysis and the SDET
//! tuning story in §4.
//!
//! The kernel owns no clock, run queue or lock word. It runs on an
//! [`Exec`], the per-CPU context of an executor (real threads in
//! [`crate::machine`], virtual time in `ktrace-vsim`), and keeps only what
//! both share: the lock-ID space, fresh addresses and IPC comm IDs, pids and
//! tids, the shared cells, and the run's task counts.
//!
//! The FS server is modelled K42-style: a PPC call *switches the caller's
//! context to the server's process* on the same CPU (no thread handoff),
//! executes the service routine, and returns — so server time is logged
//! under the server's pid, which is what Fig. 8's "Ex-process" accounting
//! needs.

use crate::config::MachineConfig;
use crate::events::{
    self, exception, fs, ipc, lock as lockev, mem, proc as procev, sched, syscall as sysev, user,
};
use crate::exec::{Acquire, Exec, Step};
use crate::task::{Op, ProcessSpec, Task};
use ktrace_format::protocol::SignalFlag;
use std::sync::atomic::{AtomicU64, Ordering};

/// The kernel's well-known pid (K42 convention: pid 0 is the kernel).
pub const KERNEL_PID: u64 = 0;

/// The base-servers process pid (K42 convention: pid 1 is baseServers,
/// hosting the file system).
pub const FS_SERVER_PID: u64 = 1;

/// Lock identity space: region locks are 0x100+, page lock 0x200,
/// directory lock 0x300, user locks 0x400+. Public so trace consumers (the
/// lock-order cross-check in particular) can map event lock IDs back to the
/// kernel's lock classes.
pub const ALLOC_LOCK_BASE: u64 = 0x100;
/// See [`ALLOC_LOCK_BASE`].
pub const PAGE_LOCK_ID: u64 = 0x200;
/// See [`ALLOC_LOCK_BASE`].
pub const DIR_LOCK_ID: u64 = 0x300;
/// See [`ALLOC_LOCK_BASE`].
pub const USER_LOCK_BASE: u64 = 0x400;

/// Trace-visible base address of the shared-cell array.
const SHARED_CELL_BASE: u64 = 0x5000_0000;

/// Number of shared-memory cells every kernel exposes.
pub const SHARED_CELLS: usize = 16;

/// Cost of creating a process (fork + exec).
const SPAWN_COST_NS: u64 = 3_000;

/// Shared kernel state for one machine run.
pub struct Kernel {
    config: MachineConfig,
    /// Global abort flag (watchdog / deadlock recovery).
    pub abort: SignalFlag,
    /// Workload-defined locks (deadlock scenarios).
    user_locks: usize,
    /// Bump allocator for fake addresses.
    next_addr: AtomicU64,
    /// Monotonic IPC communication IDs.
    next_comm: AtomicU64,
    next_pid: AtomicU64,
    next_tid: AtomicU64,
    /// Shared-memory cells touched by `Op::SharedRead`/`Op::SharedWrite`.
    /// Accesses emit `MEM` access annotations; whether they race is up to
    /// the workload (wrap them in user locks or don't).
    shared_cells: Vec<AtomicU64>,
    live: AtomicU64,
    completed: AtomicU64,
    completions: AtomicU64,
    spawned: AtomicU64,
}

impl Kernel {
    /// Builds kernel state with `config.alloc_regions` allocator locks and
    /// `user_locks` workload locks.
    pub fn new(config: MachineConfig, user_locks: usize) -> Kernel {
        Kernel {
            config,
            abort: SignalFlag::new(),
            user_locks,
            next_addr: AtomicU64::new(0x1000_0000),
            next_comm: AtomicU64::new(1),
            next_pid: AtomicU64::new(2), // 0 = kernel, 1 = baseServers
            next_tid: AtomicU64::new(0x8000_0000),
            shared_cells: (0..SHARED_CELLS).map(|_| AtomicU64::new(0)).collect(),
            live: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            completions: AtomicU64::new(0),
            spawned: AtomicU64::new(0),
        }
    }

    /// Every lock ID this kernel names: the rows of an executor's lock
    /// table.
    pub(crate) fn lock_ids(&self) -> impl Iterator<Item = u64> {
        let regions = self.config.alloc_regions.max(1) as u64;
        (ALLOC_LOCK_BASE..ALLOC_LOCK_BASE + regions)
            .chain([PAGE_LOCK_ID, DIR_LOCK_ID])
            .chain(USER_LOCK_BASE..USER_LOCK_BASE + self.user_locks as u64)
    }

    /// Tasks created and not yet exited.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Acquire)
    }

    /// Tasks run to completion.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// `CountCompletion` marks hit.
    pub fn completions(&self) -> u64 {
        self.completions.load(Ordering::Relaxed)
    }

    /// Tasks created in total.
    pub fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    fn scaled(&self, ns: u64) -> u64 {
        self.config.scaled(ns)
    }

    /// Creates a process: allocates its ids and logs PROC CREATE,
    /// RUN_UL_LOADER and THREAD_START. The executor queues the returned
    /// main task.
    pub fn spawn<X: Exec>(&self, x: &mut X, spec: &ProcessSpec, creator: Option<&Task>) -> Task {
        let pid = self.next_pid.fetch_add(1, Ordering::Relaxed);
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let creator_pid = creator.map_or(KERNEL_PID, |c| c.pid);
        x.log(procev::create(pid, creator_pid, &spec.name));
        x.log(user::run_ul_loader(creator_pid, pid, &spec.name));
        x.log(sched::thread_start(tid, pid));
        if let Some(c) = creator {
            c.child_spawned();
        }
        self.live.fetch_add(1, Ordering::AcqRel);
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let parent = creator.map(|c| c.pending_children.clone());
        Task::from_spec(spec, pid, tid, parent)
    }

    /// Ends a task: THREAD_EXIT, RETURNED_MAIN and PROC EXIT, and its
    /// parent's child count drops.
    pub fn exit<X: Exec>(&self, x: &mut X, task: &Task) {
        x.log(sched::thread_exit(task.tid, task.pid));
        x.log(user::returned_main(task.pid));
        x.log(procev::exit(task.pid));
        if let Some(parent) = &task.parent_pending {
            parent.fetch_sub(1, Ordering::AcqRel);
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_sub(1, Ordering::AcqRel);
    }

    /// Runs the op at `task`'s instruction pointer, advancing past it
    /// unless the op must wait or ended the task.
    pub fn run_op<X: Exec>(&self, x: &mut X, task: &mut Task) -> Step {
        let Some(op) = task.current_op().cloned() else {
            return Step::Exit;
        };
        let step = match op {
            Op::Exit => return Step::Exit,
            Op::WaitChildren if task.live_children() > 0 => return Step::Wait,
            Op::WaitChildren => Step::Next,
            Op::Compute { ns, func } => {
                task.func_stack.push(func);
                x.busy(self.scaled(ns), func);
                task.func_stack.pop();
                Step::Next
            }
            Op::Syscall { no } => {
                self.syscall(x, task, no, |_, _, _| {});
                Step::Next
            }
            Op::PageFault { addr } => {
                self.page_fault(x, task, addr);
                Step::Next
            }
            Op::MapRegion { bytes } => {
                self.map_region(x, task, bytes);
                Step::Next
            }
            Op::Malloc { size } => ok_or_exit(self.malloc(x, task, size)),
            Op::FreePages { .. } => ok_or_exit(self.free_pages(x, task)),
            Op::FsOpen { path } => ok_or_exit(self.fs_call(x, task, FsOp::Open { path })),
            Op::FsRead { bytes } => ok_or_exit(self.fs_call(x, task, FsOp::Read { bytes })),
            Op::FsWrite { bytes } => ok_or_exit(self.fs_call(x, task, FsOp::Write { bytes })),
            Op::FsClose { path } => ok_or_exit(self.fs_call(x, task, FsOp::Close { path })),
            Op::SharedRead { cell } => {
                self.shared_read(x, task, cell);
                Step::Next
            }
            Op::SharedWrite { cell } => {
                self.shared_write(x, task, cell);
                Step::Next
            }
            Op::UserLock { lock } => self.user_lock(x, task, lock),
            Op::UserUnlock { lock } => {
                self.user_unlock(x, task, lock);
                Step::Next
            }
            Op::Spawn { child } => {
                x.busy(self.scaled(SPAWN_COST_NS), events::func::PROCESS_FORK);
                Step::Spawned(self.spawn(x, &child, Some(task)))
            }
            Op::CountCompletion => {
                self.completions.fetch_add(1, Ordering::Relaxed);
                Step::Next
            }
        };
        if matches!(step, Step::Next | Step::Spawned(_)) {
            task.advance();
        }
        step
    }

    /// Requests lock `id` for `task`: REQUEST, then ACQUIRED with the
    /// executor's spin and wait figures. An op retried after `Blocked`
    /// does not log its REQUEST again.
    fn lock<X: Exec>(&self, x: &mut X, task: &mut Task, id: u64) -> Step {
        let chain = events::pack_chain(&task.func_stack);
        if !task.requested {
            x.log(lockev::request(id, task.tid, chain));
            task.requested = true;
        }
        match x.acquire(id, task.tid) {
            Acquire::Granted(stats) => {
                task.requested = false;
                x.log(lockev::acquired(
                    id,
                    task.tid,
                    chain,
                    stats.spins,
                    stats.wait_ns,
                ));
                Step::Next
            }
            Acquire::Blocked => Step::Wait,
            Acquire::Aborted => Step::Exit,
        }
    }

    /// Frees lock `id`. RELEASED is logged while still holding, so its
    /// timestamp precedes any successor's ACQUIRED and the trace's
    /// release → acquire order matches the real synchronization order.
    fn unlock<X: Exec>(&self, x: &mut X, task: &Task, id: u64, hold_ns: u64) {
        x.log(lockev::released(id, task.tid, hold_ns));
        x.release(id);
    }

    /// A kernel critical section: the lock triple around `hold_ns` of work
    /// in the task's current function. False if the wait was aborted. A
    /// kernel lock is taken and freed within one op, so no executor finds
    /// it held across ops.
    fn locked_section<X: Exec>(&self, x: &mut X, task: &mut Task, id: u64, hold_ns: u64) -> bool {
        if !matches!(self.lock(x, task, id), Step::Next) {
            return false;
        }
        let held = x.busy(hold_ns, task.current_func());
        self.unlock(x, task, id, held);
        true
    }

    /// A heap allocation through the `GMalloc → PMallocDefault →
    /// AllocRegionManager` chain (the exact call chain of Fig. 7's hottest
    /// lock), on the region lock of the task's pid.
    pub fn malloc<X: Exec>(&self, x: &mut X, task: &mut Task, size: u64) -> bool {
        x.counters().cache_misses += 15;
        task.func_stack.extend([
            events::func::GMALLOC,
            events::func::PMALLOC,
            events::func::ALLOC_REGION_ALLOC,
        ]);
        let region = task.pid % self.config.alloc_regions.max(1) as u64;
        let hold = self.scaled(self.config.alloc_hold_ns);
        let ok = self.locked_section(x, task, ALLOC_LOCK_BASE + region, hold);
        if ok {
            x.log(mem::alloc(size, self.fresh_addr(size)));
        }
        task.func_stack.truncate(task.func_stack.len() - 3);
        ok
    }

    /// Page deallocation through the page-allocator lock (Fig. 7 rows 3–4).
    pub fn free_pages<X: Exec>(&self, x: &mut X, task: &mut Task) -> bool {
        task.func_stack.push(events::func::PAGEALLOC_USER_DEALLOC);
        task.func_stack.push(events::func::PAGEALLOC_DEALLOC);
        let hold = self.scaled(self.config.alloc_hold_ns / 2);
        let ok = self.locked_section(x, task, PAGE_LOCK_ID, hold);
        task.func_stack.truncate(task.func_stack.len() - 2);
        ok
    }

    /// Region creation + FCM attach (the exec/mmap path, §4's Fig. 5 events).
    pub fn map_region<X: Exec>(&self, x: &mut X, task: &mut Task, bytes: u64) {
        x.counters().cache_misses += 10;
        task.func_stack.push(events::func::FCM_MAP_PAGE);
        let addr = self.fresh_addr(bytes);
        let fcm = self.fresh_addr(64);
        x.log(mem::reg_create(addr, bytes));
        x.busy(
            self.scaled(self.config.syscall_cost_ns / 2),
            events::func::FCM_MAP_PAGE,
        );
        x.log(mem::fcm_atch_reg(addr, fcm));
        task.func_stack.pop();
    }

    /// The page-fault path: PGFLT event, fault handling cost, PGFLT_DONE.
    pub fn page_fault<X: Exec>(&self, x: &mut X, task: &mut Task, addr: u64) {
        let hw = x.counters();
        hw.cache_misses += 80;
        hw.tlb_misses += 20;
        x.log(exception::pgflt(task.tid, addr));
        task.func_stack.push(events::func::PGFLT_HANDLER);
        task.func_stack.push(events::func::FCM_MAP_PAGE);
        x.busy(
            self.scaled(self.config.pagefault_cost_ns),
            events::func::PGFLT_HANDLER,
        );
        task.func_stack.truncate(task.func_stack.len() - 2);
        x.log(exception::pgflt_done(task.tid, addr));
    }

    /// System-call bracketing: entry event, dispatch cost, `body`, exit
    /// event. The body runs with `SysCallDispatch` on the call stack.
    pub fn syscall<X: Exec>(
        &self,
        x: &mut X,
        task: &mut Task,
        no: u64,
        body: impl FnOnce(&Kernel, &mut X, &mut Task),
    ) {
        x.log(sysev::entry(task.pid, task.tid, no));
        task.func_stack.push(events::func::SYSCALL_DISPATCH);
        x.busy(
            self.scaled(self.config.syscall_cost_ns),
            events::func::SYSCALL_DISPATCH,
        );
        body(self, x, task);
        task.func_stack.pop();
        x.log(sysev::exit(task.pid, task.tid, no));
    }

    /// A PPC-style IPC into the FS server: the caller's context switches to
    /// the server pid on the same CPU, the service routine runs, and
    /// control returns.
    pub fn fs_call<X: Exec>(&self, x: &mut X, task: &mut Task, op: FsOp) -> bool {
        let comm = self.next_comm.fetch_add(1, Ordering::Relaxed);
        x.log(ipc::call(task.pid, FS_SERVER_PID, op.fn_id()));
        x.log(exception::ppc_call(comm));
        task.func_stack.push(events::func::IPC_CALLEE_ENTRY);
        let cost = self.scaled(self.config.fs_op_cost_ns);
        // Server-side events are attributed to the server pid.
        let ok = match op {
            FsOp::Open { path } | FsOp::Close { path } => {
                // The directory lock covers only the name lookup; the rest
                // of the operation runs unlocked (otherwise the FS server
                // would serialise every caller, which is exactly the kind
                // of bottleneck the paper's lock tool exists to find).
                task.func_stack.push(events::func::DIR_LOOKUP);
                let lookup = cost / 5;
                let ok = self.locked_section(x, task, DIR_LOCK_ID, lookup);
                task.func_stack.pop();
                if ok {
                    x.busy(cost - lookup, events::func::DENTRY_LOOKUP);
                    x.log(if matches!(op, FsOp::Open { .. }) {
                        fs::open(FS_SERVER_PID, path)
                    } else {
                        fs::close(FS_SERVER_PID, path)
                    });
                }
                ok
            }
            FsOp::Read { bytes } | FsOp::Write { bytes } => {
                let (func, event) = if matches!(op, FsOp::Read { .. }) {
                    (
                        events::func::SERVER_FILE_READ,
                        fs::read(FS_SERVER_PID, bytes),
                    )
                } else {
                    (
                        events::func::SERVER_FILE_WRITE,
                        fs::write(FS_SERVER_PID, bytes),
                    )
                };
                task.func_stack.push(func);
                x.busy(cost + self.scaled(bytes / 64), func);
                x.log(event);
                task.func_stack.pop();
                true
            }
        };
        task.func_stack.pop();
        x.busy(self.scaled(self.config.ipc_cost_ns), task.current_func());
        x.log(exception::ppc_return(comm));
        x.log(ipc::ret(task.pid, FS_SERVER_PID, op.fn_id()));
        ok
    }

    /// Takes workload-defined lock `index` until the task's matching
    /// [`Kernel::user_unlock`].
    pub fn user_lock<X: Exec>(&self, x: &mut X, task: &mut Task, index: usize) -> Step {
        self.lock(x, task, USER_LOCK_BASE + index as u64)
    }

    /// Frees workload-defined lock `index`.
    pub fn user_unlock<X: Exec>(&self, x: &mut X, task: &Task, index: usize) {
        self.unlock(x, task, USER_LOCK_BASE + index as u64, 0);
    }

    /// A fresh fake address (regions, fault addresses…).
    pub fn fresh_addr(&self, size: u64) -> u64 {
        self.next_addr.fetch_add(size.max(8), Ordering::Relaxed)
    }

    /// The trace address of shared cell `index` as it appears in `MEM`
    /// access-annotation events.
    pub fn shared_cell_addr(index: usize) -> u64 {
        SHARED_CELL_BASE + 8 * (index % SHARED_CELLS) as u64
    }

    /// Reads shared cell `index`, annotating the access in the trace stream
    /// (`TRC_MEM_ACCESS_READ [addr, tid]`).
    pub fn shared_read<X: Exec>(&self, x: &mut X, task: &Task, index: usize) -> u64 {
        let cell = &self.shared_cells[index % SHARED_CELLS];
        x.log(mem::access_read(Self::shared_cell_addr(index), task.tid));
        cell.load(Ordering::Relaxed)
    }

    /// Increments shared cell `index` with a non-atomic read-modify-write
    /// (load, compute, store), annotating the access in the trace stream
    /// (`TRC_MEM_ACCESS_WRITE [addr, tid]`). The cell itself is an atomic so
    /// the *process* stays well-defined; the lost-update race belongs to the
    /// simulated program and is what trace-driven detectors should flag when
    /// the workload leaves the cell unprotected.
    pub fn shared_write<X: Exec>(&self, x: &mut X, task: &Task, index: usize) {
        let cell = &self.shared_cells[index % SHARED_CELLS];
        x.log(mem::access_write(Self::shared_cell_addr(index), task.tid));
        let v = cell.load(Ordering::Relaxed);
        x.busy(self.scaled(200), task.current_func());
        cell.store(v.wrapping_add(1), Ordering::Relaxed);
    }
}

/// The step of an op that completes unless its lock wait was aborted.
fn ok_or_exit(ok: bool) -> Step {
    if ok {
        Step::Next
    } else {
        Step::Exit
    }
}

/// File-system operations servable by the FS server.
#[derive(Debug, Clone, Copy)]
pub enum FsOp {
    /// Open a path (by hash).
    Open {
        /// Path hash.
        path: u64,
    },
    /// Read bytes.
    Read {
        /// Byte count.
        bytes: u64,
    },
    /// Write bytes.
    Write {
        /// Byte count.
        bytes: u64,
    },
    /// Close a path (by hash).
    Close {
        /// Path hash.
        path: u64,
    },
}

impl FsOp {
    fn fn_id(self) -> u64 {
        match self {
            FsOp::Open { .. } => 1,
            FsOp::Read { .. } => 2,
            FsOp::Write { .. } => 3,
            FsOp::Close { .. } => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{lock_table, ThreadCpu};
    use crate::task::{ProcessSpec, Program};
    use crate::tracer::{KTracer, Tracer};
    use ktrace_clock::SyncClock;
    use ktrace_core::{TraceConfig, TraceLogger};
    use ktrace_format::MajorId;
    use std::sync::Arc;

    fn fixture() -> (KTracer, Kernel, Task) {
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small().flight_recorder())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(1)
            .build()
            .unwrap();
        let tracer = KTracer::new(logger);
        let mut cfg = MachineConfig::fast_test(1);
        cfg.time_scale = 0.05;
        let kernel = Kernel::new(cfg, 2);
        let task = Task::from_spec(&ProcessSpec::new("t", Program::new()), 5, 50, None);
        (tracer, kernel, task)
    }

    fn events_of(tracer: &KTracer, major: MajorId) -> Vec<(u16, Vec<u64>)> {
        tracer
            .logger()
            .dump_last(10_000, Some(&[major]))
            .events
            .into_iter()
            .map(|e| (e.minor, e.payload.to_vec()))
            .collect()
    }

    #[test]
    fn malloc_logs_lock_triple_and_alloc() {
        let (tracer, kernel, mut task) = fixture();
        let locks = lock_table(&kernel);
        let mut x = ThreadCpu::new(tracer.handle(0), &locks, &kernel.abort);
        assert!(kernel.malloc(&mut x, &mut task, 4096));
        let locks = events_of(&tracer, MajorId::LOCK);
        assert_eq!(locks.len(), 3);
        assert_eq!(locks[0].0, lockev::REQUEST);
        assert_eq!(locks[1].0, lockev::ACQUIRED);
        assert_eq!(locks[2].0, lockev::RELEASED);
        // Call chain carries the allocator chain.
        let chain = events::unpack_chain(locks[1].1[2]);
        assert_eq!(chain[0], events::func::ALLOC_REGION_ALLOC);
        assert_eq!(chain[1], events::func::PMALLOC);
        assert_eq!(chain[2], events::func::GMALLOC);
        let mems = events_of(&tracer, MajorId::MEM);
        assert_eq!(mems.len(), 1);
        assert_eq!(mems[0].1[0], 4096);
        // Func stack restored.
        assert_eq!(task.current_func(), events::func::USER_COMPUTE);
    }

    #[test]
    fn page_fault_brackets_with_events() {
        let (tracer, kernel, mut task) = fixture();
        let locks = lock_table(&kernel);
        let mut x = ThreadCpu::new(tracer.handle(0), &locks, &kernel.abort);
        kernel.page_fault(&mut x, &mut task, 0x405e628);
        let evs = events_of(&tracer, MajorId::EXCEPTION);
        assert_eq!(evs[0].0, exception::PGFLT);
        assert_eq!(evs[0].1, vec![50, 0x405e628]);
        assert_eq!(evs[1].0, exception::PGFLT_DONE);
    }

    #[test]
    fn syscall_brackets_body() {
        let (tracer, kernel, mut task) = fixture();
        let locks = lock_table(&kernel);
        let mut x = ThreadCpu::new(tracer.handle(0), &locks, &kernel.abort);
        kernel.syscall(&mut x, &mut task, events::sysno::BRK, |k, x, t| {
            k.malloc(x, t, 64);
        });
        let sys = events_of(&tracer, MajorId::SYSCALL);
        assert_eq!(sys.len(), 2);
        assert_eq!(sys[0].0, sysev::ENTRY);
        assert_eq!(sys[0].1[2], events::sysno::BRK);
        assert_eq!(sys[1].0, sysev::EXIT);
        assert_eq!(events_of(&tracer, MajorId::MEM).len(), 1);
    }

    #[test]
    fn fs_call_switches_to_server_pid() {
        let (tracer, kernel, mut task) = fixture();
        let locks = lock_table(&kernel);
        let mut x = ThreadCpu::new(tracer.handle(0), &locks, &kernel.abort);
        assert!(kernel.fs_call(&mut x, &mut task, FsOp::Open { path: 0xabc }));
        assert!(kernel.fs_call(&mut x, &mut task, FsOp::Read { bytes: 512 }));
        let ipc_evs = events_of(&tracer, MajorId::IPC);
        assert_eq!(ipc_evs.len(), 4); // 2 calls, 2 returns
        assert_eq!(ipc_evs[0].1, vec![5, FS_SERVER_PID, 1]);
        let fs_evs = events_of(&tracer, MajorId::FS);
        assert_eq!(fs_evs.len(), 2);
        // Server-side events carry the server pid.
        assert!(fs_evs.iter().all(|(_, p)| p[0] == FS_SERVER_PID));
        let ppc = events_of(&tracer, MajorId::EXCEPTION);
        assert_eq!(
            ppc.iter()
                .filter(|(m, _)| *m == exception::PPC_CALL)
                .count(),
            2
        );
        assert_eq!(
            ppc.iter()
                .filter(|(m, _)| *m == exception::PPC_RETURN)
                .count(),
            2
        );
    }

    #[test]
    fn shared_access_emits_mem_annotations() {
        let (tracer, kernel, task) = fixture();
        let locks = lock_table(&kernel);
        let mut x = ThreadCpu::new(tracer.handle(0), &locks, &kernel.abort);
        kernel.shared_write(&mut x, &task, 3);
        kernel.shared_write(&mut x, &task, 3);
        assert_eq!(kernel.shared_read(&mut x, &task, 3), 2);
        let mems = events_of(&tracer, MajorId::MEM);
        let addr = Kernel::shared_cell_addr(3);
        assert_eq!(
            mems.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![mem::ACCESS_WRITE, mem::ACCESS_WRITE, mem::ACCESS_READ]
        );
        assert!(mems.iter().all(|(_, p)| p[0] == addr && p[1] == task.tid));
    }

    #[test]
    fn user_locks_pair_and_abort_works() {
        let (tracer, kernel, mut task) = fixture();
        let locks = lock_table(&kernel);
        let mut x = ThreadCpu::new(tracer.handle(0), &locks, &kernel.abort);
        assert!(matches!(kernel.user_lock(&mut x, &mut task, 0), Step::Next));
        kernel.user_unlock(&mut x, &task, 0);
        // Hold lock 1 and abort a second acquisition attempt.
        assert!(matches!(kernel.user_lock(&mut x, &mut task, 1), Step::Next));
        kernel.abort.raise();
        assert!(
            matches!(kernel.user_lock(&mut x, &mut task, 1), Step::Exit),
            "abort must break the wait"
        );
    }

    #[test]
    fn contention_visible_in_acquired_stats() {
        // Long critical sections (200µs) so that even on a single-core host
        // the OS preempts holders mid-section and waiters observe contention.
        let logger = TraceLogger::builder()
            .geometry(
                TraceConfig {
                    buffer_words: 8192,
                    buffers_per_cpu: 8,
                    ..TraceConfig::small()
                }
                .flight_recorder(),
            )
            .clock(Arc::new(SyncClock::new()))
            .ncpus(1)
            .build()
            .unwrap();
        let tracer = KTracer::new(logger);
        let mut cfg = MachineConfig::fast_test(1);
        cfg.time_scale = 1.0;
        cfg.alloc_hold_ns = 200_000;
        let kernel = Kernel::new(cfg, 0);
        let locks = lock_table(&kernel);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let (kernel, locks) = (&kernel, &locks);
                let mut x = ThreadCpu::new(tracer.handle(0), locks, &kernel.abort);
                scope.spawn(move || {
                    let spec = ProcessSpec::new("w", Program::new());
                    let mut t = Task::from_spec(&spec, 10 + i, 100 + i, None);
                    for _ in 0..100 {
                        assert!(kernel.malloc(&mut x, &mut t, 128));
                    }
                });
            }
        });
        let locks = events_of(&tracer, MajorId::LOCK);
        let contended: Vec<&(u16, Vec<u64>)> = locks
            .iter()
            .filter(|(m, p)| *m == lockev::ACQUIRED && p[4] > 0)
            .collect();
        assert!(
            !contended.is_empty(),
            "4 threads on one allocator lock must contend"
        );
    }
}
