//! Simulated processes, threads, and their programs.
//!
//! A simulated thread runs a [`Program`]: a flat list of [`Op`]s interpreted
//! by the scheduler on whichever CPU the task lands on. Ops model the OS
//! activity the paper traces — compute bursts, system calls, page faults,
//! allocator traffic through contended kernel locks, file-system IPC,
//! process creation — each emitting the corresponding trace events when
//! executed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One step of a simulated program.
#[derive(Debug, Clone)]
pub enum Op {
    /// Pure user-mode computation attributed to `func`.
    Compute {
        /// Busy nanoseconds (scaled by the machine's time scale).
        ns: u64,
        /// Function ID the PC sampler sees during this burst.
        func: u16,
    },
    /// A generic system call (entry/exit events + kernel cost).
    Syscall {
        /// System-call number (see [`crate::events::sysno`]).
        no: u64,
    },
    /// A page fault at `addr` (fault/done events + kernel fault path).
    PageFault {
        /// Faulting address.
        addr: u64,
    },
    /// Create a memory region and attach it to an FCM (the exec/mmap path;
    /// emits the paper's `TRC_MEM_REG_CREATE` / `TRC_MEM_FCMCOM_ATCH_REG`
    /// events visible in Fig. 5).
    MapRegion {
        /// Region size in bytes.
        bytes: u64,
    },
    /// A heap allocation through the contended allocator chain (Fig. 7).
    Malloc {
        /// Allocation size in bytes.
        size: u64,
    },
    /// Page deallocation through the page-allocator lock (Fig. 7).
    FreePages {
        /// Pages returned.
        pages: u64,
    },
    /// Open a file via IPC to the FS server.
    FsOpen {
        /// Hash of the path (stands in for the string on the hot path).
        path: u64,
    },
    /// Read via IPC to the FS server.
    FsRead {
        /// Bytes read.
        bytes: u64,
    },
    /// Write via IPC to the FS server.
    FsWrite {
        /// Bytes written.
        bytes: u64,
    },
    /// Close via IPC to the FS server.
    FsClose {
        /// Hash of the path.
        path: u64,
    },
    /// Read a shared-memory cell, emitting a `MEM` access annotation so
    /// trace-driven race detectors see the access (race experiments).
    SharedRead {
        /// Index into the machine's shared-cell table.
        cell: usize,
    },
    /// Read-modify-write a shared-memory cell, emitting a `MEM` access
    /// annotation.
    SharedWrite {
        /// Index into the machine's shared-cell table.
        cell: usize,
    },
    /// Acquire a workload-defined lock (deadlock experiments).
    UserLock {
        /// Index into the machine's user-lock table.
        lock: usize,
    },
    /// Release a workload-defined lock.
    UserUnlock {
        /// Index into the machine's user-lock table.
        lock: usize,
    },
    /// Fork+exec a child process (PROC/USER events; child runs concurrently).
    Spawn {
        /// The child's specification.
        child: Box<ProcessSpec>,
    },
    /// Block (yield the CPU) until every spawned child has exited.
    WaitChildren,
    /// Mark one unit of benchmark work done (SDET scripts/hour accounting).
    CountCompletion,
    /// Terminate the process early (programs also end implicitly).
    Exit,
}

/// A program: the ops a simulated thread executes in order.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instruction sequence.
    pub ops: Vec<Op>,
}

impl Program {
    /// An empty program (exits immediately).
    pub fn new() -> Program {
        Program::default()
    }

    /// Appends an op (builder style).
    pub fn op(mut self, op: Op) -> Program {
        self.ops.push(op);
        self
    }

    /// Appends a compute burst.
    pub fn compute(self, ns: u64, func: u16) -> Program {
        self.op(Op::Compute { ns, func })
    }

    /// Appends a system call.
    pub fn syscall(self, no: u64) -> Program {
        self.op(Op::Syscall { no })
    }

    /// Appends a page fault.
    pub fn page_fault(self, addr: u64) -> Program {
        self.op(Op::PageFault { addr })
    }

    /// Appends an allocation.
    pub fn malloc(self, size: u64) -> Program {
        self.op(Op::Malloc { size })
    }

    /// Appends `n` copies of every op produced by `f` (loop unrolling).
    pub fn repeat(mut self, n: usize, f: impl Fn(Program) -> Program) -> Program {
        for _ in 0..n {
            self = f(self);
        }
        self
    }
}

/// A process to create: name plus the program its main thread runs.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// Executable name (appears in PROC/USER events and analyses).
    pub name: String,
    /// The main thread's program.
    pub program: Program,
}

impl ProcessSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, program: Program) -> ProcessSpec {
        ProcessSpec {
            name: name.into(),
            program,
        }
    }
}

/// Runtime state of one simulated thread.
#[derive(Debug)]
pub struct Task {
    /// Process ID.
    pub pid: u64,
    /// Thread ID (unique machine-wide).
    pub tid: u64,
    /// Process name.
    pub name: Arc<str>,
    /// CPU the task last ran on (for MIGRATE events).
    pub last_cpu: usize,
    /// Whether the task has run at least once.
    pub started: bool,
    /// The current op's lock REQUEST is logged: the op is being retried
    /// after the lock was found held.
    pub requested: bool,
    ops: Arc<[Op]>,
    ip: usize,
    /// Simulated call stack of function IDs (PC sampling, lock chains).
    pub func_stack: Vec<u16>,
    /// Live children of this task.
    pub pending_children: Arc<AtomicU64>,
    /// Parent's child counter to decrement on exit.
    pub parent_pending: Option<Arc<AtomicU64>>,
}

impl Task {
    /// Builds a task from a spec.
    pub fn from_spec(
        spec: &ProcessSpec,
        pid: u64,
        tid: u64,
        parent_pending: Option<Arc<AtomicU64>>,
    ) -> Task {
        Task {
            pid,
            tid,
            name: spec.name.as_str().into(),
            last_cpu: 0,
            started: false,
            requested: false,
            ops: spec.program.ops.clone().into(),
            ip: 0,
            func_stack: vec![crate::events::func::USER_COMPUTE],
            pending_children: Arc::new(AtomicU64::new(0)),
            parent_pending,
        }
    }

    /// The op at the instruction pointer, if any remain.
    pub fn current_op(&self) -> Option<&Op> {
        self.ops.get(self.ip)
    }

    /// Advances past the current op.
    pub fn advance(&mut self) {
        self.ip += 1;
    }

    /// The innermost simulated function (what a PC sample reports).
    pub fn current_func(&self) -> u16 {
        self.func_stack
            .last()
            .copied()
            .unwrap_or(crate::events::func::UNKNOWN)
    }

    /// Number of live children.
    pub fn live_children(&self) -> u64 {
        self.pending_children.load(Ordering::Acquire)
    }

    /// Registers a newly spawned child.
    pub fn child_spawned(&self) {
        self.pending_children.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::func;

    #[test]
    fn builder_constructs_programs() {
        let p = Program::new()
            .compute(100, func::USER_COMPUTE)
            .syscall(crate::events::sysno::GETPID)
            .malloc(4096)
            .repeat(3, |p| p.page_fault(0x1000));
        assert_eq!(p.ops.len(), 6);
        assert!(matches!(p.ops[0], Op::Compute { ns: 100, .. }));
        assert!(matches!(p.ops[5], Op::PageFault { addr: 0x1000 }));
    }

    #[test]
    fn task_walks_its_program() {
        let spec = ProcessSpec::new("grep", Program::new().compute(1, 16).syscall(2));
        let mut t = Task::from_spec(&spec, 5, 100, None);
        assert_eq!(&*t.name, "grep");
        assert!(matches!(t.current_op(), Some(Op::Compute { .. })));
        t.advance();
        assert!(matches!(t.current_op(), Some(Op::Syscall { no: 2 })));
        t.advance();
        assert!(t.current_op().is_none());
    }

    #[test]
    fn child_accounting() {
        let spec = ProcessSpec::new("sh", Program::new());
        let parent = Task::from_spec(&spec, 1, 1, None);
        parent.child_spawned();
        parent.child_spawned();
        assert_eq!(parent.live_children(), 2);
        let child = Task::from_spec(&spec, 2, 2, Some(parent.pending_children.clone()));
        child
            .parent_pending
            .as_ref()
            .unwrap()
            .fetch_sub(1, Ordering::AcqRel);
        assert_eq!(parent.live_children(), 1);
    }

    #[test]
    fn func_stack_tracks_innermost() {
        let spec = ProcessSpec::new("x", Program::new());
        let mut t = Task::from_spec(&spec, 1, 1, None);
        assert_eq!(t.current_func(), func::USER_COMPUTE);
        t.func_stack.push(func::GMALLOC);
        t.func_stack.push(func::PMALLOC);
        assert_eq!(t.current_func(), func::PMALLOC);
        t.func_stack.pop();
        assert_eq!(t.current_func(), func::GMALLOC);
    }
}
