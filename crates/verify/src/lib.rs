//! `ktrace-verify` — trace-stream integrity linting and dynamic race
//! detection for the lockless tracing core.
//!
//! The paper's §3 design makes strong structural promises about every trace
//! stream: per-CPU buffer order *is* timestamp order, filler events land
//! exactly on buffer boundaries, commit counts expose garbled buffers, and
//! the embedded registry makes the stream self-describing. This crate checks
//! those promises after the fact:
//!
//! * [`lint`] — the [`StreamLinter`]: replays a trace file or drained
//!   buffers and reports every invariant violation with a distinct exit
//!   code. It is the one garble report: a short commit count and every
//!   decode note of a buffer walk (§3.1) are violations here, and nowhere
//!   else.
//! * [`race`] — [`detect_races`]: an Eraser-style lockset detector refined
//!   with vector-clock happens-before, driven by the stream's LOCK, SCHED,
//!   and MEM access-annotation events.
//! * [`lockorder`] — [`lock_order`]: a Goodlock graph over the stream's lock
//!   instances, reporting each potential deadlock (a cycle of lock orders
//!   from distinct threads with no common gate lock).
//! * [`report`] — the shared violation vocabulary and exit-code mapping.
//!
//! `ktrace-tools verify <lint|races|lockorder|all> <file>` runs the passes
//! over a trace file and exits with the report's code.
//!
//! # Example
//!
//! ```
//! use ktrace_verify::{StreamLinter, lint::lint_completed_buffers};
//! use ktrace_core::{TraceConfig, TraceLogger};
//! use ktrace_clock::SyncClock;
//! use std::sync::Arc;
//!
//! let logger = TraceLogger::builder().geometry(TraceConfig::small()).clock(Arc::new(SyncClock::new())).ncpus(1).build().unwrap();
//! ktrace_events::register_all(&logger);
//! let h = logger.handle(0).unwrap();
//! h.log_event(&ktrace_events::sched::thread_start(100, 1));
//! logger.flush_all();
//! let bufs: Vec<_> = logger.drain_all().into_iter().flatten().collect();
//! let report = lint_completed_buffers(&bufs, &logger.registry(), logger.config().buffer_words);
//! assert!(report.is_clean(), "{}", report.render());
//! ```

pub mod lint;
pub mod lockorder;
pub mod lockset;
pub mod race;
pub mod report;
pub mod salvage_map;
pub mod vclock;

pub use ktrace_format::exit;
pub use lint::{lint_file, lint_registry, StreamLinter};
pub use lockorder::{lock_order, lock_order_in_file, LockOrderAnalysis};
pub use lockset::{AddrState, LocksetTracker, LocksetVerdict};
pub use race::{detect_races, races_in_file, AccessSite, RaceAnalysis, RaceFinding};
pub use report::{Report, Violation, ViolationKind};
pub use salvage_map::salvage_to_report;
pub use vclock::VectorClock;
