//! The K42 lockless tracing core (SC 2003).
//!
//! This crate implements the paper's central contribution: **logging
//! variable-length events into per-processor buffers without locks**, using a
//! compare-and-swap reservation whose timestamp is re-read on every retry so
//! that buffer order equals timestamp order, with filler events keeping the
//! stream randomly accessible at buffer-sized alignment boundaries, and
//! per-buffer commit counts detecting garbled (interrupted) logging.
//!
//! # Quick start
//!
//! ```
//! use ktrace_core::{TraceConfig, TraceLogger};
//! use ktrace_format::MajorId;
//! use ktrace_clock::SyncClock;
//! use std::sync::Arc;
//!
//! let logger = TraceLogger::builder().geometry(TraceConfig::small()).clock(Arc::new(SyncClock::new())).ncpus(2).build().unwrap();
//! let h = logger.handle(0).unwrap(); // bind this thread to "CPU 0"'s buffer
//! h.log_slice(MajorId::TEST, 7, &[0xdead, 0xbeef]);
//! logger.flush_cpu(0);
//! let buf = logger.take_buffer(0).unwrap();
//! let parsed = ktrace_core::reader::parse_buffer(0, buf.seq, &buf.words, None);
//! assert!(parsed.events.iter().any(|e| e.major == MajorId::TEST && e.minor == 7));
//! ```
//!
//! # Structure
//!
//! * [`config`] — buffer geometry and operating mode.
//! * [`region`] — one CPU's buffer region: the memory, the consumer
//!   protocol, the drainer wake-up and flight-recorder snapshots around the
//!   reservation CAS loop (the paper's Figure 2), which runs in the `no_std`
//!   crate `ktrace-lockless` over the region's borrowed words.
//! * [`logger`] — the user-facing [`TraceLogger`] / [`CpuHandle`] API with the
//!   mask-gated fast paths.
//! * [`sample`] — the sampling gate (one rate, counter decimation) the
//!   adaptive control plane drives when shedding detail; re-exported from
//!   `ktrace-lockless`, as are [`Mode`], [`ANCHOR_WORDS`] and
//!   [`DROPPED_WORDS`].
//! * [`reader`] — turning raw buffer words back into events, with garble
//!   detection and 64-bit timestamp reconstruction.
//!
//! # Compiling tracing out
//!
//! Building with the `trace-off` feature turns every `log*` call into an
//! inlined no-op (paper goal 6: "allow for zero impact by providing the
//! ability to compile out events if desired").

pub mod builder;
pub mod config;
pub mod error;
pub mod logger;
pub mod reader;
pub mod region;
pub use ktrace_lockless::sample;

pub use builder::LoggerBuilder;
pub use config::{Mode, TraceConfig, ANCHOR_WORDS, DROPPED_WORDS};
pub use error::CoreError;
pub use logger::{CpuHandle, FlightDump, TraceLogger};
pub use reader::{
    parse_buffer, walk_buffer, BufferWalker, EventView, GarbleNote, ParsedBuffer, Payload,
    RawEvent, WalkState,
};
pub use region::{CompletedBuffer, RegionSnapshot};
pub use sample::SampleGate;
