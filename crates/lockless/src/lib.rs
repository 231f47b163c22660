//! The logging path of `ktrace`, as a crate that cannot allocate.
//!
//! The paper's logger is the same code in kernel and user context, interrupt
//! handlers included (§3.1–3.2), so the path from a `log*` call to its commit
//! may never allocate, block or do I/O. Everything that path runs lives
//! here, and this crate is `#![no_std]` without `alloc` and has no
//! dependencies: a `Vec`, a `Box`, a `format!`, a `Mutex` or a sleep added
//! to it fails `cargo build`, and an `unwrap`, `expect` or `panic!` fails
//! clippy. What it holds:
//!
//! * [`header`] — the packed 64-bit event header word and filler chains.
//! * [`ids`] — the major/minor ID space (at most 64 majors).
//! * [`mask`] — the [`TraceMask`], one hot word consulted by every log call.
//! * [`sample`] — the per-major [`SampleGate`].
//! * [`protocol`] — the memory-ordering roles: one atomic type per way an
//!   atomic is used, each allowing only its role's orderings.
//! * [`ring`] — the reserve/write/commit/filler loop of Fig. 2 over one
//!   CPU's borrowed buffer words and commit counts.
//! * [`ClockSource`] — the timestamp source the loop reads on every attempt.
//!
//! `ktrace-format`, `ktrace-clock` and `ktrace-core` re-export these items
//! where they were defined before; the std side of the logger (the mask and
//! sampling gate call, the length check, the drainer wake-up) is a few lines
//! of calls into this crate.

#![no_std]
#![deny(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

pub mod header;
pub mod ids;
pub mod mask;
pub mod protocol;
pub mod ring;
pub mod sample;

pub use header::{EventHeader, LayoutError, MAX_EVENT_WORDS, MAX_PAYLOAD_WORDS};
pub use ids::{Event, MajorId, MinorId, NUM_MAJOR_IDS};
pub use mask::TraceMask;
pub use ring::{Mode, ReserveTally, Ring, ANCHOR_WORDS, DROPPED_WORDS};
pub use sample::SampleGate;

/// A timestamp source consulted inside the lockless reservation loop.
///
/// `now(cpu)` must be cheap (it runs on every CAS retry — the paper requires
/// the timestamp to be re-read on each attempt so buffer order equals
/// timestamp order) and must be monotonic **per CPU**. It need not be
/// synchronized across CPUs; [`ClockSource::synchronized`] reports which.
pub trait ClockSource: Send + Sync {
    /// Current timestamp in ticks, as read from logical CPU `cpu`.
    fn now(&self, cpu: usize) -> u64;

    /// Nominal tick rate (ticks per second) for converting to wall time.
    fn ticks_per_sec(&self) -> u64;

    /// True if `now` returns globally comparable values on all CPUs
    /// (PowerPC-timebase-like); false for TSC-like per-CPU counters.
    fn synchronized(&self) -> bool;
}

// The unit tests run under the std test harness.
#[cfg(test)]
extern crate std;
