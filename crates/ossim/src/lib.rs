//! A multiprocessor operating-system simulator: the K42 stand-in.
//!
//! The paper's tracing infrastructure lives inside K42, a scalable research
//! OS; its evaluation (Figs. 3–8) traces real OS activity — context switches,
//! page faults, PPC-style IPC, contended kernel locks, fork/exec storms —
//! under the SPEC SDET workload. We obviously cannot ship K42, so this crate
//! simulates the relevant machinery as **one kernel and two executors**:
//!
//! * the kernel ([`kernel`]) writes every op's semantics and every event
//!   once: a lock-protected allocator chain (`GMalloc → PMallocDefault →
//!   AllocRegionManager`, the very call chains in the paper's Fig. 7), a page
//!   allocator, a page-fault path, an in-memory file-system *server* reached
//!   by K42-style PPC calls, process lifecycle, dispatch and idle markers,
//!   and the statistical PC and hardware-counter samples (Fig. 6);
//! * an executor owns time, run queues and the lock primitive, and hands the
//!   kernel a per-CPU [`exec::Exec`] context. [`machine`] is the real-thread
//!   executor — one OS thread per simulated CPU, instrumented ticket locks
//!   ([`lock::FairBLock`]) that threads genuinely fight over. `ktrace-vsim`
//!   runs the same kernel in virtual time, for the CPU counts the host
//!   cannot show;
//! * workloads ([`workload`]), foremost an SDET-like script mix (Fig. 3);
//! * crash injection ([`crash`]) — a tracer that kills one simulated CPU
//!   mid-reservation, the §3.1 killed-logger scenario that the §4.2 flight
//!   recorder must survive and report.
//!
//! Everything the simulator does is logged through a [`tracer::Tracer`],
//! which is **generic**: `Machine<KTracer>` logs through the real lockless
//! infrastructure, while `Machine<NoTracer>` monomorphizes every trace
//! statement to nothing — the honest equivalent of the paper's
//! "compiled out" configuration for experiment E1.

pub mod config;

/// The event vocabulary (re-exported from `ktrace-events`).
pub use ktrace_events as events;
pub mod crash;
pub mod exec;
pub mod kernel;
pub mod lock;
pub mod machine;
pub mod node;
pub mod task;
pub mod tracer;
pub mod workload;

pub use config::MachineConfig;
pub use crash::{CrashHandle, CrashPlan, CrashTracer};
pub use exec::{Acquire, Exec, HwCounters, Step};
pub use kernel::Kernel;
pub use lock::FairBLock;
pub use machine::{Machine, RunReport};
pub use node::NodeSpec;
pub use task::{Op, ProcessSpec, Program};
pub use tracer::{KTracer, NoTracer, TraceHandle, Tracer};
pub use workload::Workload;
