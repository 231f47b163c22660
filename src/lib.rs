//! # ktrace — efficient, unified, and scalable performance monitoring
//!
//! A Rust reproduction of the K42 tracing infrastructure from Wisniewski &
//! Rosenburg, *"Efficient, Unified, and Scalable Performance Monitoring for
//! Multiprocessor Operating Systems"* (SC 2003) — the design whose
//! techniques flowed into the Linux Trace Toolkit, relayfs, and ultimately
//! the LTTng/ftrace/perf ring-buffer lineage.
//!
//! The core idea: **one** tracing facility serves correctness debugging,
//! performance debugging, and performance monitoring, by making event
//! logging so cheap it can stay compiled in:
//!
//! * variable-length events logged **without locks** — a compare-and-swap
//!   reservation in a per-CPU buffer, with the timestamp re-read on every
//!   retry so buffer order is timestamp order ([`core`]);
//! * a single 64-bit trace-mask word gating all 64 major event classes, so
//!   a disabled trace point costs a few instructions ([`format`](mod@format));
//! * filler events that realign the stream at buffer boundaries, so the
//!   variable-length stream remains **randomly accessible** ([`io`]);
//! * per-buffer commit counts that detect garbled buffers from killed or
//!   blocked loggers ([`core`], §3.1 of the paper), reported with every
//!   other stream invariant by one lint ([`verify`]);
//! * self-describing events — field specs and printf-like templates
//!   embedded in every trace file — so tools need no compiled-in event
//!   knowledge ([`format::describe`]);
//! * the analysis suite the paper builds on top: event listing, lock
//!   contention, statistical PC profiling, per-process time breakdown,
//!   timelines, deadlock detection ([`analysis`]);
//! * trace checks over the same stream — the integrity lint, race
//!   detection and lock order ([`verify`]) — behind the same front door as
//!   the analyses: `ktrace-tools verify <lint|races|lockorder|all> <file>`.
//!
//! Since the paper's substrate is an operating system on a large
//! multiprocessor, the workspace also ships the substitutes described in
//! `DESIGN.md`: a real-threaded OS simulator ([`ossim`]), a virtual-time
//! multiprocessor for scalability experiments ([`vsim`]), and the baseline
//! logging schemes the paper compares against ([`baselines`]).
//!
//! ## Quick start
//!
//! ```
//! use ktrace::prelude::*;
//! use std::sync::Arc;
//!
//! // A logger with per-CPU lockless buffers.
//! let clock = Arc::new(SyncClock::new());
//! let logger = TraceLogger::builder().geometry(TraceConfig::default()).clock(clock).ncpus(2).build().unwrap();
//!
//! // Describe an event once; tools can then render it forever.
//! logger.register_event(
//!     MajorId::USER,
//!     1,
//!     EventDescriptor::new("TRACE_APP_REQUEST", "64 64", "request %0[%d] took %1[%d] ns").unwrap(),
//! );
//!
//! // Bind a thread to a CPU's buffers and log (no locks, no syscalls).
//! let h = logger.handle(0).unwrap();
//! h.log_slice(MajorId::USER, 1, &[42, 1_337]);
//!
//! // Drain and decode.
//! logger.flush_all();
//! let buf = logger.take_buffer(0).unwrap();
//! let parsed = ktrace::core::parse_buffer(0, buf.seq, &buf.words, None);
//! let ev = parsed.data_events().next().unwrap();
//! let registry = logger.registry();
//! let desc = registry.lookup(MajorId::USER, 1).unwrap();
//! assert_eq!(desc.describe(&ev.payload).unwrap(), "request 42 took 1337 ns");
//! ```

pub use ktrace_adapt as adapt;
pub use ktrace_analysis as analysis;
pub use ktrace_baselines as baselines;
pub use ktrace_clock as clock;
pub use ktrace_collectd as collectd;
pub use ktrace_core as core;
pub use ktrace_events as events;
pub use ktrace_faults as faults;
pub use ktrace_format as format;
pub use ktrace_io as io;
pub use ktrace_ossim as ossim;
pub use ktrace_query as query;
pub use ktrace_telemetry as telemetry;
pub use ktrace_verify as verify;
pub use ktrace_vsim as vsim;

/// The one exit-code table every binary in the workspace draws from.
pub use ktrace_format::exit;

/// The names needed by typical users of the tracing facility.
pub mod prelude {
    pub use ktrace_adapt::{Controller, Detector};
    pub use ktrace_analysis::{
        render_listing, Breakdown, ListingOptions, LockStats, PcProfile, Timeline, TimelineOptions,
        Trace,
    };
    pub use ktrace_clock::{ClockSource, ManualClock, SyncClock};
    pub use ktrace_collectd::{CollectSource, Collector, CollectorConfig};
    pub use ktrace_core::{CpuHandle, LoggerBuilder, Mode, TraceConfig, TraceLogger};
    pub use ktrace_format::{EventDescriptor, EventRegistry, FieldValue, MajorId, TraceMask};
    pub use ktrace_io::{SessionBuilder, TraceFileReader, TraceSession};
    pub use ktrace_query::{parse_assertion, FileSource, Query, Spec, TraceSource};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn facade_exposes_the_pipeline() {
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(SyncClock::new()))
            .ncpus(1)
            .build()
            .unwrap();
        let h = logger.handle(0).unwrap();
        assert!(h.log_slice(MajorId::TEST, 1, &[99]));
        logger.flush_all();
        assert_eq!(logger.telemetry().snapshot().events_logged(), 1);
    }
}
