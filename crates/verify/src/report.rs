//! Violation vocabulary and the lint report.
//!
//! Every invariant the paper's stream design guarantees gets its own
//! [`ViolationKind`] with a stable, distinct process exit code, so CI and
//! scripted experiment runs can tell *which* invariant broke without parsing
//! prose.
//!
//! This is the **shared exit-code table** for every checker: `ktrace-tools
//! verify` (trace-stream checks, codes 10–20, and the lock-order fold, code
//! 34 — the one live code of the retired static band 30–35) and the trace-assertion
//! engine in `ktrace-query` (declarative trace properties; codes 36–39) draw
//! from the same enum so a CI failure code identifies the broken invariant regardless
//! of which tool found it. Codes 0 (clean), 1 (input unreadable), and
//! 2 (usage error) are reserved by every CLI and never assigned to a
//! violation class.

use ktrace_core::reader::GarbleNote;
use ktrace_format::exit;
use std::fmt;

/// The class of a detected violation. Each class *is* a distinct nonzero
/// exit code (see [`ViolationKind::exit_code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ViolationKind {
    /// A buffer record is shorter than the declared buffer size, or the file
    /// ends mid-record.
    TruncatedBuffer = exit::TRUNCATED_BUFFER,
    /// Commit-count garbling (§3.1): the record was drained before every
    /// reservation in it was committed, or an unwritten (zero-header)
    /// reservation sits mid-buffer.
    GarbledCommit = exit::GARBLED_COMMIT,
    /// A timestamp stepped backwards, within a buffer or across a CPU's
    /// consecutive buffers — impossible for honestly logged events, because
    /// the reservation algorithm re-reads the clock on every CAS retry.
    NonMonotonicTimestamp = exit::NON_MONOTONIC_TIMESTAMP,
    /// An event's `(major, minor)` has no descriptor in the registry: the
    /// stream is not self-describing for this event.
    UndeclaredEvent = exit::UNDECLARED_EVENT,
    /// Filler events that do not realign the stream exactly to the buffer
    /// boundary, or data events logged after a filler.
    FillerMisaligned = exit::FILLER_MISALIGNED,
    /// An event's declared length disagrees with what its descriptor's field
    /// spec actually decodes to, or the length runs past the buffer end.
    LengthMismatch = exit::LENGTH_MISMATCH,
    /// A buffer does not begin with a time anchor.
    MissingAnchor = exit::MISSING_ANCHOR,
    /// The embedded event registry itself is inconsistent (a template
    /// referencing undeclared fields, unparseable registry text, …).
    BadRegistry = exit::BAD_REGISTRY,
    /// A drain was lossy: the sink died (or the ring overran) and
    /// already-logged events never reached the file. Raised by the recording
    /// CLI when `SessionStats` reports buffer drops or producer-side drops,
    /// so scripted runs can tell "complete trace" from "trace with holes"
    /// without parsing output.
    LossyDrain = exit::LOSSY_DRAIN,
    /// A data race found by the lockset / vector-clock detector.
    DataRace = exit::DATA_RACE,
    /// `ktrace-tools verify lockorder`: the trace's lock-order graph has a cycle
    /// from distinct threads with no common gate lock — the run could have
    /// deadlocked, whether or not it did.
    LockOrderCycle = exit::LOCK_ORDER_CYCLE,
    /// Trace assertion (ktrace-query): a count/sum/rate/max bound on matching
    /// events does not hold — e.g. "events_lost == 0 on clean runs".
    AssertCount = exit::ASSERT_COUNT,
    /// Trace assertion (ktrace-query): a REQUEST/RELEASE-style span shape
    /// left unpaired endpoints — an open with no close, or vice versa.
    AssertPairing = exit::ASSERT_PAIRING,
    /// Trace assertion (ktrace-query): a closed span exceeded its declared
    /// maximum duration.
    AssertDuration = exit::ASSERT_DURATION,
    /// Trace assertion (ktrace-query): the gap between consecutive matching
    /// events exceeded the declared cadence bound — e.g. a missed HEARTBEAT.
    AssertCadence = exit::ASSERT_CADENCE,
}

impl ViolationKind {
    /// The stable process exit code for this violation class: its
    /// discriminant, which the declaration draws from the canonical table in
    /// [`ktrace_format::exit`].
    pub fn exit_code(self) -> u8 {
        self as u8
    }

    /// Short machine-greppable label, as that table spells it.
    pub fn label(self) -> &'static str {
        exit::label(self as u8).expect("every kind's code is in exit::TABLE")
    }

    /// Every violation class, in exit-code order — the full shared table.
    pub fn all() -> &'static [ViolationKind] {
        &[
            ViolationKind::TruncatedBuffer,
            ViolationKind::GarbledCommit,
            ViolationKind::NonMonotonicTimestamp,
            ViolationKind::UndeclaredEvent,
            ViolationKind::FillerMisaligned,
            ViolationKind::LengthMismatch,
            ViolationKind::MissingAnchor,
            ViolationKind::BadRegistry,
            ViolationKind::LossyDrain,
            ViolationKind::DataRace,
            ViolationKind::LockOrderCycle,
            ViolationKind::AssertCount,
            ViolationKind::AssertPairing,
            ViolationKind::AssertDuration,
            ViolationKind::AssertCadence,
        ]
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One detected violation, locatable in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant class that broke.
    pub kind: ViolationKind,
    /// CPU whose stream the violation is in, if attributable.
    pub cpu: Option<usize>,
    /// Buffer sequence number, if attributable.
    pub seq: Option<u64>,
    /// Word offset within the buffer, if attributable.
    pub offset: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.kind)?;
        if let Some(cpu) = self.cpu {
            write!(f, " cpu{cpu}")?;
        }
        if let Some(seq) = self.seq {
            write!(f, " buf#{seq}")?;
        }
        if let Some(off) = self.offset {
            write!(f, " @word {off}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl Violation {
    /// The violation a buffer walker's [`GarbleNote`] stands for, in buffer
    /// `seq` of `cpu`. The lint and the salvage report both map notes here.
    pub fn from_note(note: &GarbleNote, cpu: usize, seq: u64) -> Violation {
        let (kind, offset, detail) = match note {
            GarbleNote::ZeroHeader { offset } => (
                ViolationKind::GarbledCommit,
                *offset,
                "zero header: a reservation that was never written".to_string(),
            ),
            GarbleNote::Overrun { offset, len_words } => (
                ViolationKind::LengthMismatch,
                *offset,
                format!("declared length {len_words} words runs past the buffer end"),
            ),
            GarbleNote::MissingAnchor => (
                ViolationKind::MissingAnchor,
                0,
                "buffer does not begin with a time anchor".to_string(),
            ),
            GarbleNote::NonMonotonic { offset } => (
                ViolationKind::NonMonotonicTimestamp,
                *offset,
                "timestamp stepped backwards within the buffer".to_string(),
            ),
        };
        Violation {
            kind,
            cpu: Some(cpu),
            seq: Some(seq),
            offset: Some(offset),
            detail,
        }
    }
}

/// The outcome of a lint or race-detection pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every violation found, in stream order.
    pub violations: Vec<Violation>,
    /// Buffers examined.
    pub buffers_checked: usize,
    /// Events examined.
    pub events_checked: usize,
    /// Data events examined: [`events_checked`](Report::events_checked)
    /// minus fillers and CONTROL events (anchors, drop markers,
    /// heartbeats). This is the count a lossless drain preserves, so it
    /// must equal the producer's `events_logged − events_lost`.
    pub data_events_checked: usize,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// True if no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records a violation.
    pub fn push(
        &mut self,
        kind: ViolationKind,
        cpu: Option<usize>,
        seq: Option<u64>,
        offset: Option<usize>,
        detail: impl Into<String>,
    ) {
        self.violations.push(Violation {
            kind,
            cpu,
            seq,
            offset,
            detail: detail.into(),
        });
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.buffers_checked += other.buffers_checked;
        self.events_checked += other.events_checked;
        self.data_events_checked += other.data_events_checked;
    }

    /// The process exit code: 0 when clean, otherwise the code of the
    /// highest-priority violation class present (the smallest code, so a
    /// single-corruption stream reports its own distinct code).
    pub fn exit_code(&self) -> u8 {
        self.violations
            .iter()
            .map(|v| v.kind.exit_code())
            .min()
            .unwrap_or(0)
    }

    /// Distinct violation kinds present, in priority order.
    pub fn kinds(&self) -> Vec<ViolationKind> {
        let mut kinds: Vec<ViolationKind> = self.violations.iter().map(|v| v.kind).collect();
        kinds.sort();
        kinds.dedup();
        kinds
    }

    /// Human-readable summary, one violation per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "checked {} buffer(s), {} event(s): {} violation(s)",
            self.buffers_checked,
            self.events_checked,
            self.violations.len()
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let kinds = ViolationKind::all();
        let mut codes: Vec<u8> = kinds.iter().map(|k| k.exit_code()).collect();
        assert!(
            codes.iter().all(|&c| c != 0 && c != 1 && c != 2),
            "reserve 0/1/2"
        );
        assert!(
            codes.windows(2).all(|w| w[0] < w[1]),
            "all() must be exit-code ordered"
        );
        codes.dedup();
        assert_eq!(codes.len(), kinds.len(), "exit codes must be distinct");
    }

    #[test]
    fn labels_agree_with_the_canonical_table() {
        for k in ViolationKind::all() {
            assert_eq!(
                ktrace_format::exit::label(k.exit_code()),
                Some(k.label()),
                "{k} must appear in ktrace_format::exit::TABLE under its label"
            );
        }
    }

    #[test]
    fn kinds_live_in_their_own_bands() {
        // Stream checks: 10–29. Lock order keeps 34, the one live code of
        // the retired static band 30–35. Trace assertions: 36+.
        for k in ViolationKind::all() {
            let code = k.exit_code();
            let band = if *k == ViolationKind::LockOrderCycle {
                code == 34
            } else if matches!(
                k,
                ViolationKind::AssertCount
                    | ViolationKind::AssertPairing
                    | ViolationKind::AssertDuration
                    | ViolationKind::AssertCadence
            ) {
                code >= 36
            } else {
                (10..=29).contains(&code)
            };
            assert!(band, "{k} (code {code}) in wrong band");
        }
    }

    #[test]
    fn report_exit_code_and_render() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert_eq!(r.exit_code(), 0);
        r.push(
            ViolationKind::UndeclaredEvent,
            Some(1),
            Some(3),
            Some(40),
            "MAJOR9/7",
        );
        r.push(
            ViolationKind::TruncatedBuffer,
            Some(0),
            None,
            None,
            "short record",
        );
        assert_eq!(r.exit_code(), ViolationKind::TruncatedBuffer.exit_code());
        assert_eq!(
            r.kinds(),
            vec![
                ViolationKind::TruncatedBuffer,
                ViolationKind::UndeclaredEvent
            ]
        );
        let text = r.render();
        assert!(text.contains("2 violation(s)"));
        assert!(text.contains("[undeclared-event] cpu1 buf#3 @word 40"));
    }
}
