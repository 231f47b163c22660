//! Trace file I/O: writing completed buffers out and reading them back.
//!
//! The paper separates collection from analysis (goal 5): full buffers are
//! "written out to disk, or streamed over the network" and post-processing
//! tools work from the file. Files can reach "gigabytes per processor", so
//! tools "should not be forced to scan through the entire file when trying to
//! display, for example, a middle 5 seconds of a program's execution" (§3.2).
//!
//! This crate provides:
//!
//! * [`file`] — the binary format: a self-describing header (geometry, clock
//!   metadata, the serialized event registry) followed by **fixed-size buffer
//!   records**, so record `k` lives at a computable offset: the file-level
//!   realization of the paper's alignment-boundary random access.
//! * [`writer`] — a streaming [`TraceFileWriter`] fed by the core consumer.
//! * [`reader`] — [`TraceFileReader`]: random record access, a cheap
//!   time index built from each buffer's anchor, and time-windowed reads
//!   (garble reporting is `ktrace-verify`'s lint).
//! * [`merge`] — a k-way, timestamp-ordered merge of per-CPU event streams.
//! * [`trace`] — [`Trace`]: the in-memory model every read path loads into
//!   ([`TraceFileReader::load`]) and every tool consumes.
//! * [`salvage`] — the forgiving reader: walks arbitrarily damaged byte
//!   images, re-anchors on record magic, and recovers every event outside
//!   the corrupt extents with a typed [`SalvageReport`].
//! * [`session`] — [`TraceSession`]: a logger plus a background drainer
//!   thread writing to a file, the "always-on collection" deployment shape —
//!   resilient to sink failure (drops whole buffers, counted, rather than
//!   wedging the logging fast path).

pub mod error;
pub mod file;
pub mod merge;
pub mod reader;
pub mod salvage;
pub mod session;
pub mod trace;
pub mod writer;

pub use error::IoError;
pub use file::{FileHeader, FILE_MAGIC, FILE_VERSION};
pub use merge::MergedEvents;
pub use reader::{BufferRecord, TraceFileReader};
pub use salvage::{salvage_bytes, salvage_trace, CpuSalvage, SalvageReport, SalvagedRecord};
pub use session::{SessionBuilder, SessionError, SessionStats, TraceSession};
pub use trace::Trace;
pub use writer::TraceFileWriter;
