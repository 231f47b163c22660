//! Major and minor trace-event IDs.
//!
//! The paper limits the system to **64 major IDs** so that "a single comparison
//! of a major class bit against a trace mask variable can determine whether an
//! event should be logged". Major IDs map to subsystems (`MEM`, `PROC`, `LOCK`,
//! ...); the 16-bit minor field is major-class-defined data, typically a minor
//! ID enumerating the events of that subsystem.
//!
//! Major ID 0 is reserved for the tracing infrastructure itself (`CONTROL`):
//! filler events that realign the stream at buffer boundaries, and time-anchor
//! events that let readers reconstruct full 64-bit timestamps from the 32 bits
//! stored per event. `CONTROL` events are always logged regardless of the mask,
//! because the stream is undecodable without them.

use crate::header::LayoutError;
use core::fmt;

/// Number of distinct major IDs (the width of the trace mask word).
pub const NUM_MAJOR_IDS: usize = 64;

/// A major (subsystem) trace-event class, `0..64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MajorId(u8);

impl MajorId {
    /// Tracing-infrastructure control events (filler, time anchor). Always on.
    pub const CONTROL: MajorId = MajorId(0);
    /// Exception-level events: page faults, interrupts, PPC calls.
    pub const EXCEPTION: MajorId = MajorId(1);
    /// Memory subsystem: regions, FCMs, allocators.
    pub const MEM: MajorId = MajorId(2);
    /// Process lifecycle: creation, exec, exit.
    pub const PROC: MajorId = MajorId(3);
    /// Scheduler: context switches, migrations, idle.
    pub const SCHED: MajorId = MajorId(4);
    /// Lock instrumentation: request/acquire/release/contention.
    pub const LOCK: MajorId = MajorId(5);
    /// Inter-process communication (K42 PPC-style calls).
    pub const IPC: MajorId = MajorId(6);
    /// I/O and device events.
    pub const IO: MajorId = MajorId(7);
    /// File-system server events.
    pub const FS: MajorId = MajorId(8);
    /// System-call entry/exit.
    pub const SYSCALL: MajorId = MajorId(9);
    /// User/application-level events (the paper logs from applications too).
    pub const USER: MajorId = MajorId(10);
    /// Library-level events.
    pub const LIB: MajorId = MajorId(11);
    /// Statistical profiler samples (program counter).
    pub const PROF: MajorId = MajorId(12);
    /// Hardware-counter samples logged through the unified stream (§2).
    pub const HWPERF: MajorId = MajorId(13);
    /// Scratch class reserved for tests.
    pub const TEST: MajorId = MajorId(63);

    /// Creates a major ID, returning an error if `id >= 64`.
    pub const fn new(id: u8) -> Result<MajorId, LayoutError> {
        if id as usize >= NUM_MAJOR_IDS {
            Err(LayoutError::InvalidMajor(id as u16))
        } else {
            Ok(MajorId(id))
        }
    }

    /// Creates a major ID without range checking.
    ///
    /// # Panics
    /// Panics in debug builds if `id >= 64`.
    #[inline]
    pub const fn new_unchecked(id: u8) -> MajorId {
        debug_assert!((id as usize) < NUM_MAJOR_IDS);
        MajorId(id)
    }

    /// The raw value, `0..64`.
    #[inline]
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// The single-bit mask for this major ID within a [`TraceMask`] word.
    ///
    /// [`TraceMask`]: crate::mask::TraceMask
    #[inline]
    pub const fn bit(self) -> u64 {
        1u64 << self.0
    }

    /// Conventional subsystem name for the well-known IDs, or `None`.
    pub const fn well_known_name(self) -> Option<&'static str> {
        Some(match self.0 {
            0 => "CONTROL",
            1 => "EXCEPTION",
            2 => "MEM",
            3 => "PROC",
            4 => "SCHED",
            5 => "LOCK",
            6 => "IPC",
            7 => "IO",
            8 => "FS",
            9 => "SYSCALL",
            10 => "USER",
            11 => "LIB",
            12 => "PROF",
            13 => "HWPERF",
            63 => "TEST",
            _ => return None,
        })
    }

    /// Iterates over every possible major ID.
    pub fn all() -> impl Iterator<Item = MajorId> {
        (0..NUM_MAJOR_IDS as u8).map(MajorId)
    }
}

impl fmt::Display for MajorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.well_known_name() {
            Some(name) => f.write_str(name),
            None => write!(f, "MAJOR{}", self.0),
        }
    }
}

/// A minor event ID (or other major-class-defined 16-bit datum).
pub type MinorId = u16;

/// One declared event ready to log: its major, its minor and its payload
/// words. Only the emitters `ktrace_events::ktrace_event!` generates build
/// one, so the three always agree with a registered descriptor.
#[must_use = "an event is recorded only when a handle logs it"]
#[derive(Debug, Clone)]
pub struct Event<P> {
    major: MajorId,
    minor: MinorId,
    payload: P,
}

impl<P: AsRef<[u64]>> Event<P> {
    #[doc(hidden)]
    #[inline(always)]
    pub fn __new(major: MajorId, minor: MinorId, payload: P) -> Event<P> {
        Event {
            major,
            minor,
            payload,
        }
    }

    /// The major class the event is declared under.
    #[inline(always)]
    pub fn major(&self) -> MajorId {
        self.major
    }

    /// The event's minor ID within its major class.
    #[inline(always)]
    pub fn minor(&self) -> MinorId {
        self.minor
    }

    /// The payload words, packed as the event's field spec says.
    #[inline(always)]
    pub fn payload(&self) -> &[u64] {
        self.payload.as_ref()
    }
}

/// Minor IDs of the `CONTROL` major class.
pub mod control {
    use super::MinorId;

    /// Filler event: a bare header whose length spans the remainder of the
    /// current buffer so the next event starts on an alignment boundary.
    pub const FILLER: MinorId = 0;
    /// Time anchor: payload is `[full 64-bit timestamp, cpu id]`, logged at
    /// the start of every buffer so 32-bit event stamps can be extended.
    pub const TIME_ANCHOR: MinorId = 1;
    /// Dropped-buffer marker: payload is the count of buffers overwritten in
    /// flight-recorder mode since the previous marker.
    pub const DROPPED: MinorId = 2;
    /// Tracer-health heartbeat: a periodic snapshot of the tracer's own
    /// telemetry counters for one CPU, logged into the stream so
    /// post-processing can plot tracer health over trace time. Payload is
    /// the CPU index, then one cumulative count (since logger creation) per
    /// entry of [`HEARTBEAT_METRICS`], in that order.
    pub const HEARTBEAT: MinorId = 3;

    /// Payload arity of a [`HEARTBEAT`] event, shared by the logger (writer)
    /// and the exporters (readers) so the schema cannot drift silently.
    pub const HEARTBEAT_WORDS: usize = 10;

    /// Field names of the [`HEARTBEAT`] payload, index-aligned with the
    /// payload words after the leading `cpu` field. This is the wire order:
    /// `ktrace-telemetry`'s counter tables flag the rows that ride it and
    /// fail to compile if they disagree. Exporters use these as
    /// counter-track names (one track per metric).
    pub const HEARTBEAT_METRICS: [&str; 9] = [
        "events_logged",
        "events_masked",
        "events_dropped",
        "cas_retries",
        "filler_words",
        "buffer_wraps",
        "flight_overwrites",
        "sink_records_written",
        "sink_buffers_dropped",
    ];

    /// Adaptive-control audit: the anomaly detector flagged a telemetry
    /// track. Payload is `[track, cpu, z_milli, value]` — the track index
    /// into [`ANOMALY_TRACKS`], the CPU the verdict concerns (`u64::MAX`
    /// for whole-logger tracks), the robust z-score in milli-units, and the
    /// per-interval delta that tripped it.
    pub const ANOMALY: MinorId = 4;
    /// Adaptive-control audit: the controller changed the trace mask.
    /// Payload is `[direction, old_bits, new_bits]`; direction 0 narrows
    /// (sheds detail), 1 widens (restores it).
    pub const MASK_ADJUST: MinorId = 5;
    /// Adaptive-control audit: the controller changed the sampling rate.
    /// Payload is `[direction, old_rate, new_rate]`; direction 0 coarsens
    /// (rate goes up), 1 refines (rate comes back down).
    pub const SAMPLE_ADJUST: MinorId = 6;

    /// Telemetry tracks the anomaly detector watches, index-aligned with
    /// the `track` field of an [`ANOMALY`] payload.
    pub const ANOMALY_TRACKS: [&str; 4] = [
        "drop_rate",
        "cas_retries",
        "buffer_wraps",
        "reserve_wait_p99",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::string::ToString;

    #[test]
    fn new_rejects_out_of_range() {
        assert!(MajorId::new(63).is_ok());
        assert_eq!(MajorId::new(64), Err(LayoutError::InvalidMajor(64)));
        assert_eq!(MajorId::new(255), Err(LayoutError::InvalidMajor(255)));
    }

    #[test]
    fn bit_positions_are_distinct_and_cover_the_word() {
        let mut acc = 0u64;
        for id in MajorId::all() {
            assert_eq!(acc & id.bit(), 0, "duplicate bit for {id}");
            acc |= id.bit();
        }
        assert_eq!(acc, u64::MAX);
    }

    #[test]
    fn display_uses_well_known_names() {
        assert_eq!(MajorId::MEM.to_string(), "MEM");
        assert_eq!(MajorId::new(42).unwrap().to_string(), "MAJOR42");
    }

    #[test]
    fn well_known_ids_are_stable() {
        // The file format stores raw major IDs; these must never change.
        assert_eq!(MajorId::CONTROL.raw(), 0);
        assert_eq!(MajorId::EXCEPTION.raw(), 1);
        assert_eq!(MajorId::MEM.raw(), 2);
        assert_eq!(MajorId::PROC.raw(), 3);
        assert_eq!(MajorId::SCHED.raw(), 4);
        assert_eq!(MajorId::LOCK.raw(), 5);
        assert_eq!(MajorId::IPC.raw(), 6);
        assert_eq!(MajorId::IO.raw(), 7);
        assert_eq!(MajorId::FS.raw(), 8);
        assert_eq!(MajorId::SYSCALL.raw(), 9);
        assert_eq!(MajorId::USER.raw(), 10);
        assert_eq!(MajorId::LIB.raw(), 11);
        assert_eq!(MajorId::PROF.raw(), 12);
        assert_eq!(MajorId::HWPERF.raw(), 13);
        assert_eq!(MajorId::TEST.raw(), 63);
    }
}
