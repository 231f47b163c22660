//! The simulated kernel: allocator chain, page allocator, fault path, and
//! the file-system server reached by PPC-style IPC.
//!
//! Every service brackets its work with the same trace events K42 logs, and
//! the allocator/page/directory locks are real [`FairBLock`]s that tasks on
//! different CPUs genuinely fight over — the raw material of the paper's
//! Fig. 7 lock-contention analysis and the SDET tuning story in §4.
//!
//! The FS server is modelled K42-style: a PPC call *switches the caller's
//! context to the server's process* on the same CPU (no thread handoff),
//! executes the service routine, and returns — so server time is logged
//! under the server's pid, which is what Fig. 8's "Ex-process" accounting
//! needs.

use crate::config::MachineConfig;
use crate::events::{self, exception, fs, ipc, lock as lockev, mem, syscall as sysev};
use crate::lock::FairBLock;
use crate::task::Task;
use crate::tracer::TraceHandle;
use ktrace_format::protocol::SignalFlag;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The kernel's well-known pid (K42 convention: pid 0 is the kernel).
pub const KERNEL_PID: u64 = 0;

/// The base-servers process pid (K42 convention: pid 1 is baseServers,
/// hosting the file system).
pub const FS_SERVER_PID: u64 = 1;

/// Busy-waits for `ns` nanoseconds of real time.
#[inline]
pub fn busy(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Shared kernel state for one machine run.
pub struct Kernel {
    config: MachineConfig,
    /// Global abort flag (watchdog / deadlock recovery).
    pub abort: Arc<SignalFlag>,
    /// The allocator region locks. One lock (the default) reproduces the
    /// heavily contended allocator of the paper's tuning story; more locks
    /// model the fix ("fixed it, and then ran the tool again").
    alloc_locks: Vec<Arc<FairBLock>>,
    /// The page-allocator lock (Fig. 7's `PageAllocatorDefault` entries).
    page_lock: Arc<FairBLock>,
    /// The FS server's directory lock.
    dir_lock: Arc<FairBLock>,
    /// Workload-defined locks (deadlock scenarios).
    user_locks: Vec<Arc<FairBLock>>,
    /// Bump allocator for fake addresses.
    next_addr: AtomicU64,
    /// Monotonic IPC communication IDs.
    next_comm: AtomicU64,
    /// Shared-memory cells touched by `Op::SharedRead`/`Op::SharedWrite`.
    /// Accesses emit `MEM` access annotations; whether they race is up to
    /// the workload (wrap them in user locks or don't).
    shared_cells: Vec<AtomicU64>,
}

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

impl Kernel {
    /// Builds kernel state with `alloc_regions` allocator locks and
    /// `user_locks` workload locks.
    pub fn new(config: MachineConfig, alloc_regions: usize, user_locks: usize) -> Kernel {
        Kernel {
            config,
            abort: Arc::new(SignalFlag::new()),
            alloc_locks: (0..alloc_regions.max(1))
                .map(|i| Arc::new(FairBLock::new(ALLOC_LOCK_BASE + i as u64)))
                .collect(),
            page_lock: Arc::new(FairBLock::new(PAGE_LOCK_ID)),
            dir_lock: Arc::new(FairBLock::new(DIR_LOCK_ID)),
            user_locks: (0..user_locks)
                .map(|i| Arc::new(FairBLock::new(USER_LOCK_BASE + i as u64)))
                .collect(),
            next_addr: AtomicU64::new(0x1000_0000),
            next_comm: AtomicU64::new(1),
            shared_cells: (0..SHARED_CELLS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Acquires a traced lock: logs REQUEST (only when contention is
    /// possible to observe — always, cheaply), ACQUIRED with spin/wait stats
    /// and the task's call chain, runs `critical`, then logs RELEASED with
    /// the hold time. Returns false if aborted while waiting.
    fn locked_section<H: TraceHandle>(
        &self,
        h: &H,
        task: &Task,
        lock: &FairBLock,
        critical: impl FnOnce(),
    ) -> bool {
        let chain = events::pack_chain(&task.func_stack);
        h.log(lockev::request(lock.id(), task.tid, chain));
        let Some(stats) = lock.acquire(&self.abort) else {
            return false;
        };
        h.log(lockev::acquired(
            lock.id(),
            task.tid,
            chain,
            stats.spins,
            stats.wait_ns,
        ));
        let held = Instant::now();
        critical();
        let hold_ns = held.elapsed().as_nanos() as u64;
        // Log RELEASED *before* the lock becomes available: the event's
        // timestamp must precede any successor's ACQUIRED so the trace's
        // release → acquire order matches the real synchronization order.
        h.log(lockev::released(lock.id(), task.tid, hold_ns));
        lock.release();
        true
    }

    /// A heap allocation through the `GMalloc → PMallocDefault →
    /// AllocRegionManager` chain (the exact call chain of Fig. 7's hottest
    /// lock).
    pub fn malloc<H: TraceHandle>(&self, h: &H, task: &mut Task, size: u64) -> bool {
        task.func_stack.push(events::func::GMALLOC);
        task.func_stack.push(events::func::PMALLOC);
        task.func_stack.push(events::func::ALLOC_REGION_ALLOC);
        let lock = &self.alloc_locks[(task.pid as usize) % self.alloc_locks.len()];
        let hold = self.config.scaled(self.config.alloc_hold_ns);
        let ok = self.locked_section(h, task, lock, || busy(hold));
        if ok {
            let addr = self.next_addr.fetch_add(size.max(8), Ordering::Relaxed);
            h.log(mem::alloc(size, addr));
        }
        task.func_stack.truncate(task.func_stack.len() - 3);
        ok
    }

    /// Page deallocation through the page-allocator lock (Fig. 7 rows 3–4).
    pub fn free_pages<H: TraceHandle>(&self, h: &H, task: &mut Task, _pages: u64) -> bool {
        task.func_stack.push(events::func::PAGEALLOC_USER_DEALLOC);
        task.func_stack.push(events::func::PAGEALLOC_DEALLOC);
        let hold = self.config.scaled(self.config.alloc_hold_ns / 2);
        let ok = self.locked_section(h, task, &self.page_lock, || busy(hold));
        task.func_stack.truncate(task.func_stack.len() - 2);
        ok
    }

    /// Region creation + FCM attach (the exec/mmap path, §4's Fig. 5 events).
    pub fn map_region<H: TraceHandle>(&self, h: &H, task: &mut Task, bytes: u64) {
        task.func_stack.push(events::func::FCM_MAP_PAGE);
        let addr = self.fresh_addr(bytes);
        let fcm = self.fresh_addr(64);
        h.log(mem::reg_create(addr, bytes));
        busy(self.config.scaled(self.config.syscall_cost_ns / 2));
        h.log(mem::fcm_atch_reg(addr, fcm));
        task.func_stack.pop();
    }

    /// The page-fault path: PGFLT event, fault handling cost, PGFLT_DONE.
    pub fn page_fault<H: TraceHandle>(&self, h: &H, task: &mut Task, addr: u64) {
        h.log(exception::pgflt(task.tid, addr));
        task.func_stack.push(events::func::PGFLT_HANDLER);
        task.func_stack.push(events::func::FCM_MAP_PAGE);
        busy(self.config.scaled(self.config.pagefault_cost_ns));
        task.func_stack.truncate(task.func_stack.len() - 2);
        h.log(exception::pgflt_done(task.tid, addr));
    }

    /// System-call bracketing: entry event, dispatch cost, `body`, exit
    /// event. The body runs with `SysCallDispatch` on the call stack.
    pub fn syscall<H: TraceHandle>(
        &self,
        h: &H,
        task: &mut Task,
        no: u64,
        body: impl FnOnce(&Kernel, &H, &mut Task),
    ) {
        h.log(sysev::entry(task.pid, task.tid, no));
        task.func_stack.push(events::func::SYSCALL_DISPATCH);
        busy(self.config.scaled(self.config.syscall_cost_ns));
        body(self, h, task);
        task.func_stack.pop();
        h.log(sysev::exit(task.pid, task.tid, no));
    }

    /// A PPC-style IPC into the FS server: the caller's context switches to
    /// the server pid on the same CPU, the service routine runs (under the
    /// directory lock for opens/closes), and control returns.
    pub fn fs_call<H: TraceHandle>(&self, h: &H, task: &mut Task, op: FsOp) -> bool {
        let comm = self.next_comm.fetch_add(1, Ordering::Relaxed);
        h.log(ipc::call(task.pid, FS_SERVER_PID, op.fn_id()));
        h.log(exception::ppc_call(comm));
        task.func_stack.push(events::func::IPC_CALLEE_ENTRY);
        let cost = self.config.scaled(self.config.fs_op_cost_ns);
        let ok = match op {
            FsOp::Open { path } | FsOp::Close { path } => {
                task.func_stack.push(events::func::DIR_LOOKUP);
                // Server-side event, attributed to the server pid.
                let event = if matches!(op, FsOp::Open { .. }) {
                    fs::open(FS_SERVER_PID, path)
                } else {
                    fs::close(FS_SERVER_PID, path)
                };
                let ok = self.locked_section(h, task, &self.dir_lock, || busy(cost));
                if ok {
                    h.log(event);
                }
                task.func_stack.pop();
                ok
            }
            FsOp::Read { bytes } => {
                task.func_stack.push(events::func::SERVER_FILE_READ);
                busy(cost + self.config.scaled(bytes / 64));
                h.log(fs::read(FS_SERVER_PID, bytes));
                task.func_stack.pop();
                true
            }
            FsOp::Write { bytes } => {
                task.func_stack.push(events::func::SERVER_FILE_WRITE);
                busy(cost + self.config.scaled(bytes / 64));
                h.log(fs::write(FS_SERVER_PID, bytes));
                task.func_stack.pop();
                true
            }
        };
        task.func_stack.pop();
        busy(self.config.scaled(self.config.ipc_cost_ns));
        h.log(exception::ppc_return(comm));
        h.log(ipc::ret(task.pid, FS_SERVER_PID, op.fn_id()));
        ok
    }

    /// Acquire a workload-defined lock (explicit section, paired with
    /// [`Kernel::user_unlock`]). Returns false on abort.
    pub fn user_lock<H: TraceHandle>(&self, h: &H, task: &Task, index: usize) -> bool {
        let lock = &self.user_locks[index];
        let chain = events::pack_chain(&task.func_stack);
        h.log(lockev::request(lock.id(), task.tid, chain));
        let Some(stats) = lock.acquire(&self.abort) else {
            return false;
        };
        h.log(lockev::acquired(
            lock.id(),
            task.tid,
            chain,
            stats.spins,
            stats.wait_ns,
        ));
        true
    }

    /// Release a workload-defined lock. RELEASED is logged while still
    /// holding, so its timestamp precedes any successor's ACQUIRED.
    pub fn user_unlock<H: TraceHandle>(&self, h: &H, task: &Task, index: usize) {
        let lock = &self.user_locks[index];
        h.log(lockev::released(lock.id(), task.tid, 0));
        lock.release();
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
    pub fn shared_read<H: TraceHandle>(&self, h: &H, task: &Task, index: usize) -> u64 {
        let cell = &self.shared_cells[index % SHARED_CELLS];
        h.log(mem::access_read(Self::shared_cell_addr(index), task.tid));
        cell.load(Ordering::Relaxed)
    }

    /// Increments shared cell `index` with a non-atomic read-modify-write
    /// (load, compute, store), annotating the access in the trace stream
    /// (`TRC_MEM_ACCESS_WRITE [addr, tid]`). The cell itself is an atomic so
    /// the *process* stays well-defined; the lost-update race belongs to the
    /// simulated program and is what trace-driven detectors should flag when
    /// the workload leaves the cell unprotected.
    pub fn shared_write<H: TraceHandle>(&self, h: &H, task: &Task, index: usize) {
        let cell = &self.shared_cells[index % SHARED_CELLS];
        h.log(mem::access_write(Self::shared_cell_addr(index), task.tid));
        let v = cell.load(Ordering::Relaxed);
        busy(self.config.scaled(200));
        cell.store(v.wrapping_add(1), Ordering::Relaxed);
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
    use crate::task::{ProcessSpec, Program};
    use crate::tracer::{KTracer, Tracer};
    use ktrace_clock::SyncClock;
    use ktrace_core::{TraceConfig, TraceLogger};
    use ktrace_format::MajorId;

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
        let kernel = Kernel::new(cfg, 1, 2);
        let task = Task::from_spec(&ProcessSpec::new("t", Program::new()), 5, 50, 0, None);
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
        let h = tracer.handle(0);
        assert!(kernel.malloc(&h, &mut task, 4096));
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
        let h = tracer.handle(0);
        kernel.page_fault(&h, &mut task, 0x405e628);
        let evs = events_of(&tracer, MajorId::EXCEPTION);
        assert_eq!(evs[0].0, exception::PGFLT);
        assert_eq!(evs[0].1, vec![50, 0x405e628]);
        assert_eq!(evs[1].0, exception::PGFLT_DONE);
    }

    #[test]
    fn syscall_brackets_body() {
        let (tracer, kernel, mut task) = fixture();
        let h = tracer.handle(0);
        kernel.syscall(&h, &mut task, events::sysno::BRK, |k, h, t| {
            k.malloc(h, t, 64);
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
        let h = tracer.handle(0);
        assert!(kernel.fs_call(&h, &mut task, FsOp::Open { path: 0xabc }));
        assert!(kernel.fs_call(&h, &mut task, FsOp::Read { bytes: 512 }));
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
        let h = tracer.handle(0);
        kernel.shared_write(&h, &task, 3);
        kernel.shared_write(&h, &task, 3);
        assert_eq!(kernel.shared_read(&h, &task, 3), 2);
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
        let (tracer, kernel, task) = fixture();
        let h = tracer.handle(0);
        assert!(kernel.user_lock(&h, &task, 0));
        kernel.user_unlock(&h, &task, 0);
        // Hold lock 1 and abort a second acquisition attempt.
        assert!(kernel.user_lock(&h, &task, 1));
        kernel.abort.raise();
        assert!(!kernel.user_lock(&h, &task, 1), "abort must break the wait");
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
        let kernel = Arc::new(Kernel::new(cfg, 1, 0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let h = tracer.handle(0);
                let k = kernel.clone();
                std::thread::spawn(move || {
                    let spec = ProcessSpec::new("w", Program::new());
                    let mut t = Task::from_spec(&spec, 10 + i, 100 + i, 0, None);
                    for _ in 0..100 {
                        assert!(k.malloc(&h, &mut t, 128));
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().unwrap();
        }
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
