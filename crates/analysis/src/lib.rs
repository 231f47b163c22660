//! Post-processing tools over the unified event stream.
//!
//! §4 of the paper: "the single tracing infrastructure was able to provide
//! the data needed by the various tools". Every tool here consumes the same
//! [`Trace`] — a merged, time-ordered event stream plus the self-describing
//! registry — and none needs compiled-in knowledge of specific events beyond
//! the shared vocabulary crate:
//!
//! * [`listing`] — the textual event listing of Fig. 5.
//! * [`lockstat`] — the lock-contention analysis of Fig. 7 (§4.6): per
//!   (lock, call chain, pid) wait time, contention count, spins, max wait.
//! * [`pcprof`] — statistical execution profiling of Fig. 6 (§4.5).
//! * [`breakdown`] — the fine-grained time attribution of Fig. 8 (§4.7):
//!   per-process, per-system-call and IPC accounting.
//! * [`timeline`] — the kmon-style per-CPU timeline of Fig. 4 (§4.3), as
//!   ASCII and SVG.
//! * [`deadlock`] — wait-for-graph cycle detection from lock events (the
//!   file-system deadlock story of §4.2).
//! * [`stats`] — event frequency accounting ("relative frequency of
//!   different paths taken through code", §4.2), with the drops the
//!   stream's DROPPED markers record (§3.1).
//! * [`export`] — CSV and Chrome trace-event export for foreign toolkits
//!   (§5's future-work item of feeding LTT's visualizer).
//! * [`hwperf`] — hardware-counter samples logged through the unified
//!   stream (§2's integration of counters and tracing).
//! * [`utilization`] — per-CPU busy/idle accounting and idle-gap flagging
//!   (the §4 "large idle periods at benchmark start" discovery).

pub mod breakdown;
pub mod deadlock;
pub mod export;
pub mod hwperf;
pub mod listing;
pub mod lockstat;
pub mod model;
pub mod pcprof;
pub mod stats;
pub mod table;
pub mod timeline;
pub mod utilization;

pub use breakdown::{Breakdown, ProcessBreakdown};
pub use deadlock::{find_deadlock, DeadlockReport};
pub use export::{to_chrome_json, to_csv};
pub use hwperf::CounterReport;
pub use listing::{render_listing, ListingOptions};
pub use lockstat::{LockSortKey, LockStats};
pub use model::Trace;
pub use pcprof::PcProfile;
pub use stats::EventStats;
pub use timeline::{Timeline, TimelineOptions};
pub use utilization::Utilization;
