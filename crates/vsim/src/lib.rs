//! The **virtual-time executor** of ossim's kernel.
//!
//! The paper's scalability results (Fig. 3, the LTT order-of-magnitude
//! claim, the per-CPU-buffer design point) were measured on a large PowerPC
//! multiprocessor. The machine building this reproduction has 2 vCPUs, so
//! those curves cannot be observed in wall time; per the substitution
//! methodology (DESIGN.md), this crate runs the *same* simulated OS —
//! `ktrace-ossim`'s `Kernel`, which writes every op and every event — on
//! simulated time instead of real threads:
//!
//! * every simulated CPU has its own virtual clock, advanced by the cost of
//!   the work it executes, and the CPU with the smallest clock takes the
//!   next step;
//! * locks are virtual resources — an acquisition at time `t` of a lock
//!   free at `free_at` waits `max(0, free_at − t)`, which is exactly the
//!   FIFO queueing behaviour a contended spin lock exhibits, and a lock held
//!   by another task across ops blocks the requester until it is freed;
//! * each tracing scheme is a **cost model** ([`cost::TraceCostModel`]):
//!   per-CPU schemes charge a constant per event, shared-structure schemes
//!   serialize on a single resource (the global buffer index or the global
//!   lock) whose queueing delay grows with CPU count — reproducing the
//!   *shape* of the paper's comparisons from first principles;
//! * every event goes through ossim's `Tracer` seam with virtual timestamps
//!   ([`VirtualMachine::with_emission`], [`VirtualMachine::with_tracer`]),
//!   so the analysis tools and timeline can be exercised on "24-way" traces.

pub mod cost;
pub mod vmachine;

pub use cost::{CostParams, Scheme, TraceCostModel};
pub use vmachine::{VReport, VirtualMachine};
