//! The stream-integrity linter.
//!
//! Replays a trace — a file or drained [`CompletedBuffer`]s — and checks
//! every invariant the paper's lockless design guarantees for honestly
//! produced streams:
//!
//! - **Per-CPU timestamp monotonicity** (§3.2): the reservation CAS re-reads
//!   the clock on every retry, so buffer order *is* timestamp order. A
//!   regression, within a buffer or across a CPU's consecutive buffers, means
//!   corruption.
//! - **Filler alignment** (§3.2): filler events exist only to realign the
//!   stream at buffer boundaries, so once a filler appears the rest of the
//!   buffer must be fillers, ending exactly at the boundary.
//! - **Declared-vs-actual lengths**: an event's payload must decode to
//!   exactly its descriptor's field spec, consuming every payload word.
//! - **Commit-count garbling** (§3.1): records drained with a short commit
//!   count, and zero (unwritten) headers mid-buffer, are flagged.
//! - **Registry consistency** (§4.4): every logged `(major, minor)` must
//!   have a descriptor, and every descriptor's template must agree with its
//!   field spec.

use crate::report::{Report, Violation, ViolationKind};
use ktrace_core::reader::walk_buffer;
use ktrace_core::CompletedBuffer;
use ktrace_format::pack::WordUnpacker;
use ktrace_format::{EventDescriptor, EventRegistry, FieldToken};
use ktrace_io::{IoError, TraceFileReader};
use std::collections::HashMap;
use std::io::{Read, Seek};
use std::path::Path;

/// Slots in the linter's memo of length checks that passed.
const MEMO_SLOTS: usize = 256;

/// Incremental linter holding per-CPU continuity state, so buffers can be
/// fed as they are drained (live monitoring) or in file order.
pub struct StreamLinter {
    registry: EventRegistry,
    buffer_words: usize,
    last_time: HashMap<usize, u64>,
    /// Direct-mapped `(major << 16 | minor, payload words)` of events whose
    /// descriptor was found and whose length agreed with its spec. Only
    /// specs without a `str` field are remembered: their verdict depends on
    /// the length alone, so a hit needs neither the registry's hash lookup
    /// nor a replay of the spec. A miss, and every event that does not pass,
    /// takes the full check.
    memo: [(u32, u32); MEMO_SLOTS],
    report: Report,
}

impl StreamLinter {
    /// Creates a linter for streams of `buffer_words`-sized buffers whose
    /// events are described by `registry`.
    pub fn new(registry: EventRegistry, buffer_words: usize) -> StreamLinter {
        StreamLinter {
            registry,
            buffer_words,
            last_time: HashMap::new(),
            // No event has this key: a major is six bits.
            memo: [(u32::MAX, 0); MEMO_SLOTS],
            report: Report::new(),
        }
    }

    /// Lints one drained buffer.
    pub fn lint_completed(&mut self, buf: &CompletedBuffer) {
        let detail = if buf.complete {
            String::new()
        } else {
            format!(
                "commit count {} of {} expected at drain time",
                buf.committed_words, buf.expected_words
            )
        };
        self.lint_buffer(buf.cpu, buf.seq, buf.complete, &buf.words, &detail);
    }

    /// Lints one buffer's raw words. `complete` is the drain-time commit
    /// verdict (pass `true` when unknown).
    pub fn lint_buffer(
        &mut self,
        cpu: usize,
        seq: u64,
        complete: bool,
        words: &[u64],
        detail: &str,
    ) {
        self.report.buffers_checked += 1;
        if words.len() != self.buffer_words {
            self.report.push(
                ViolationKind::TruncatedBuffer,
                Some(cpu),
                Some(seq),
                None,
                format!(
                    "buffer holds {} words, expected {}",
                    words.len(),
                    self.buffer_words
                ),
            );
        }
        if !complete {
            let why = if detail.is_empty() {
                "commit count short at drain time"
            } else {
                detail
            };
            self.report.push(
                ViolationKind::GarbledCommit,
                Some(cpu),
                Some(seq),
                None,
                why,
            );
        }

        // One walk, nothing materialised. A buffer's decode notes are
        // reported before its per-event findings, but are only complete once
        // the walk ends — so the findings go straight into the report and
        // the notes are slotted in ahead of them afterwards.
        let notes_at = self.report.violations.len();
        let hint = self.last_time.get(&cpu).copied();
        let mut walk = walk_buffer(words, hint);
        let mut filler_seen = false;
        let mut prev_time = hint;
        let mut end = None;
        for e in walk.by_ref() {
            self.report.events_checked += 1;
            end = Some(e.offset + e.len_words());

            if let Some(prev) = prev_time {
                if e.time < prev {
                    self.report.push(
                        ViolationKind::NonMonotonicTimestamp,
                        Some(cpu),
                        Some(seq),
                        Some(e.offset),
                        format!("event time {} after {} on the same cpu", e.time, prev),
                    );
                }
            }
            prev_time = Some(e.time);

            if filler_seen && !e.is_filler() {
                self.report.push(
                    ViolationKind::FillerMisaligned,
                    Some(cpu),
                    Some(seq),
                    Some(e.offset),
                    format!("{}/{} event logged after a filler", e.major, e.minor),
                );
            }
            if e.is_filler() {
                filler_seen = true;
                continue;
            }
            if !e.is_control() {
                self.report.data_events_checked += 1;
            }

            let key = u32::from(e.major.raw()) << 16 | u32::from(e.minor);
            let passed = (key, e.payload.len() as u32);
            let slot = &mut self.memo[(key.wrapping_mul(0x9E37_79B1) >> 16) as usize % MEMO_SLOTS];
            if *slot == passed {
                continue;
            }
            match self.registry.lookup(e.major, e.minor) {
                None => {
                    self.report.push(
                        ViolationKind::UndeclaredEvent,
                        Some(cpu),
                        Some(seq),
                        Some(e.offset),
                        format!("{}/{} has no descriptor in the registry", e.major, e.minor),
                    );
                }
                Some(desc) => match spec_length_mismatch(desc, e.payload) {
                    Some(mismatch) => self.report.push(
                        ViolationKind::LengthMismatch,
                        Some(cpu),
                        Some(seq),
                        Some(e.offset),
                        format!("{} ({}/{}): {mismatch}", desc.name, e.major, e.minor),
                    ),
                    None if !desc.spec.tokens().contains(&FieldToken::Str) => *slot = passed,
                    None => {}
                },
            }
        }

        let noted = walk
            .notes()
            .iter()
            .map(|note| Violation::from_note(note, cpu, seq));
        self.report.violations.splice(notes_at..notes_at, noted);

        // Fillers realign the stream to the buffer boundary: the filler chain
        // must run exactly to the end of a closed buffer.
        if filler_seen && walk.notes().is_empty() && end != Some(words.len()) {
            self.report.push(
                ViolationKind::FillerMisaligned,
                Some(cpu),
                Some(seq),
                end,
                format!(
                    "filler chain ends at word {} of {}",
                    end.unwrap_or(0),
                    words.len()
                ),
            );
        }

        // Each buffer is judged against its predecessor alone, so one bad
        // time costs one finding, not one per later buffer of the CPU.
        if let Some(t) = walk.end_time() {
            self.last_time.insert(cpu, t);
        }
    }

    /// Consumes the linter, returning the accumulated report.
    pub fn finish(self) -> Report {
        self.report
    }
}

/// Checks that `payload` decodes to exactly the descriptor's field spec.
/// Returns a description of the mismatch, or `None` when they agree.
fn spec_length_mismatch(desc: &EventDescriptor, payload: &[u64]) -> Option<String> {
    let mut u = WordUnpacker::new(payload);
    for (i, tok) in desc.spec.tokens().iter().enumerate() {
        let ok = match tok {
            FieldToken::U8 => u.read(8).is_some(),
            FieldToken::U16 => u.read(16).is_some(),
            FieldToken::U32 => u.read(32).is_some(),
            FieldToken::U64 => u.read(64).is_some(),
            FieldToken::Str => u.read_str().is_some(),
        };
        if !ok {
            return Some(format!(
                "payload of {} words too short for field {i} of spec \"{}\"",
                payload.len(),
                desc.spec.to_spec_string()
            ));
        }
    }
    if u.words_consumed() != payload.len() {
        return Some(format!(
            "spec \"{}\" consumes {} of {} payload words",
            desc.spec.to_spec_string(),
            u.words_consumed(),
            payload.len()
        ));
    }
    None
}

/// Checks every descriptor in a registry for internal consistency (template
/// references vs declared fields, re-validated from the serialized form).
pub fn lint_registry(registry: &EventRegistry) -> Report {
    let mut report = Report::new();
    for (major, minor, desc) in registry.iter() {
        if let Err(e) =
            EventDescriptor::new(&desc.name, &desc.spec.to_spec_string(), &desc.template)
        {
            report.push(
                ViolationKind::BadRegistry,
                None,
                None,
                None,
                format!("descriptor {} ({major}/{minor}): {e}", desc.name),
            );
        }
    }
    report
}

/// Lints a whole trace file: registry, record geometry, and every buffer.
///
/// Unreadable files (no magic, wrong version, I/O failure) return `Err`;
/// structural corruption inside a readable file is reported as violations.
pub fn lint_file(path: impl AsRef<Path>) -> Result<Report, IoError> {
    let mut reader = match TraceFileReader::open(path) {
        Ok(r) => r,
        Err(IoError::BadRegistry(e)) => {
            let mut report = Report::new();
            report.push(
                ViolationKind::BadRegistry,
                None,
                None,
                None,
                format!("embedded registry failed to parse: {e}"),
            );
            return Ok(report);
        }
        Err(IoError::BadHeader(why)) if why.contains("whole number of records") => {
            let mut report = Report::new();
            report.push(
                ViolationKind::TruncatedBuffer,
                None,
                None,
                None,
                "file ends mid-record (truncated buffer)",
            );
            return Ok(report);
        }
        Err(e) => return Err(e),
    };
    Ok(lint_open_reader(&mut reader))
}

/// Lints an already-open reader (any seekable source).
pub fn lint_open_reader<R: Read + Seek>(reader: &mut TraceFileReader<R>) -> Report {
    let header = reader.header();
    let buffer_words = header.buffer_words as usize;
    let mut report = lint_registry(&header.registry);
    let mut linter = StreamLinter::new(header.registry.clone(), buffer_words);
    for k in 0..reader.record_count() {
        match reader.read_record(k) {
            Ok(rec) => {
                linter.lint_buffer(rec.cpu as usize, rec.seq, rec.complete, &rec.words, "");
            }
            Err(e) => {
                report.push(
                    ViolationKind::GarbledCommit,
                    None,
                    None,
                    None,
                    format!("record {k} unreadable: {e}"),
                );
            }
        }
    }
    report.merge(linter.finish());
    report
}

/// Lints a batch of drained buffers (e.g. collected by a drainer thread).
/// Buffers are linted in `(cpu, seq)` order so cross-buffer monotonicity is
/// judged on each CPU's own stream.
pub fn lint_completed_buffers(
    buffers: &[CompletedBuffer],
    registry: &EventRegistry,
    buffer_words: usize,
) -> Report {
    let mut order: Vec<usize> = (0..buffers.len()).collect();
    order.sort_by_key(|&i| (buffers[i].cpu, buffers[i].seq));
    let mut linter = StreamLinter::new(registry.clone(), buffer_words);
    for i in order {
        linter.lint_completed(&buffers[i]);
    }
    linter.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::ManualClock;
    use ktrace_core::{Mode, TraceConfig, TraceLogger};
    use ktrace_format::ids::control;
    use ktrace_format::{EventHeader, MajorId};
    use std::sync::Arc;

    fn test_registry() -> EventRegistry {
        let mut r = EventRegistry::with_builtin();
        r.register(
            MajorId::TEST,
            1,
            EventDescriptor::new("TRACE_TEST_PAIR", "64 64", "a %0[%d] b %1[%d]").unwrap(),
        );
        r.register(
            MajorId::TEST,
            2,
            EventDescriptor::new("TRACE_TEST_ONE", "64", "v %0[%d]").unwrap(),
        );
        r
    }

    fn anchor(full_ts: u64, cpu: u64) -> Vec<u64> {
        let h =
            EventHeader::new(full_ts as u32, 2, MajorId::CONTROL, control::TIME_ANCHOR).unwrap();
        vec![h.encode(), full_ts, cpu]
    }

    fn event(ts32: u32, major: MajorId, minor: u16, payload: &[u64]) -> Vec<u64> {
        let h = EventHeader::new(ts32, payload.len(), major, minor).unwrap();
        let mut v = vec![h.encode()];
        v.extend_from_slice(payload);
        v
    }

    fn pad_with_filler(words: &mut Vec<u64>, total: usize) {
        let remaining = total - words.len();
        if remaining > 0 {
            let f = EventHeader::control(0, control::FILLER, remaining);
            words.push(f.encode());
            words.extend(std::iter::repeat_n(0u64, remaining - 1));
        }
    }

    fn clean_buffer(total: usize) -> Vec<u64> {
        let mut words = anchor(1_000, 0);
        words.extend(event(1_010, MajorId::TEST, 1, &[7, 8]));
        words.extend(event(1_020, MajorId::TEST, 2, &[9]));
        pad_with_filler(&mut words, total);
        words
    }

    #[test]
    fn clean_buffer_lints_clean() {
        let mut l = StreamLinter::new(test_registry(), 32);
        l.lint_buffer(0, 0, true, &clean_buffer(32), "");
        let r = l.finish();
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.buffers_checked, 1);
        assert!(r.events_checked >= 4);
    }

    #[test]
    fn truncated_buffer_flagged() {
        let mut l = StreamLinter::new(test_registry(), 32);
        let mut words = clean_buffer(32);
        words.truncate(20);
        l.lint_buffer(0, 0, true, &words, "");
        let r = l.finish();
        assert_eq!(r.exit_code(), ViolationKind::TruncatedBuffer.exit_code());
    }

    #[test]
    fn incomplete_commit_flagged() {
        let mut l = StreamLinter::new(test_registry(), 32);
        l.lint_buffer(0, 0, false, &clean_buffer(32), "");
        let r = l.finish();
        assert_eq!(r.kinds(), vec![ViolationKind::GarbledCommit]);
    }

    #[test]
    fn zero_header_reported_as_garble() {
        let mut words = anchor(1_000, 0);
        words.extend(event(1_010, MajorId::TEST, 2, &[9]));
        words.extend(std::iter::repeat_n(0u64, 27)); // unwritten reservation
        let mut l = StreamLinter::new(test_registry(), 32);
        l.lint_buffer(0, 0, true, &words, "");
        let r = l.finish();
        assert!(
            r.kinds().contains(&ViolationKind::GarbledCommit),
            "{}",
            r.render()
        );
    }

    #[test]
    fn out_of_order_timestamp_across_buffers_flagged() {
        let mut l = StreamLinter::new(test_registry(), 32);
        let mut first = anchor(5_000, 0);
        first.extend(event(5_010, MajorId::TEST, 2, &[1]));
        pad_with_filler(&mut first, 32);
        // Second buffer is anchored *before* the first: regression.
        let mut second = anchor(4_000, 0);
        second.extend(event(4_010, MajorId::TEST, 2, &[2]));
        pad_with_filler(&mut second, 32);
        l.lint_buffer(0, 0, true, &first, "");
        l.lint_buffer(0, 1, true, &second, "");
        let r = l.finish();
        assert!(
            r.kinds().contains(&ViolationKind::NonMonotonicTimestamp),
            "{}",
            r.render()
        );
    }

    #[test]
    fn undeclared_event_flagged() {
        let mut words = anchor(1_000, 0);
        words.extend(event(1_010, MajorId::TEST, 99, &[1])); // not registered
        pad_with_filler(&mut words, 32);
        let mut l = StreamLinter::new(test_registry(), 32);
        l.lint_buffer(0, 0, true, &words, "");
        let r = l.finish();
        assert_eq!(r.kinds(), vec![ViolationKind::UndeclaredEvent]);
        assert_eq!(r.exit_code(), ViolationKind::UndeclaredEvent.exit_code());
    }

    #[test]
    fn payload_spec_disagreement_flagged() {
        // TRACE_TEST_PAIR declares "64 64" but carries three words.
        let mut words = anchor(1_000, 0);
        words.extend(event(1_010, MajorId::TEST, 1, &[7, 8, 9]));
        pad_with_filler(&mut words, 32);
        let mut l = StreamLinter::new(test_registry(), 32);
        l.lint_buffer(0, 0, true, &words, "");
        let r = l.finish();
        assert_eq!(r.kinds(), vec![ViolationKind::LengthMismatch]);

        // And too short: "64 64" carrying one word.
        let mut words = anchor(1_000, 0);
        words.extend(event(1_010, MajorId::TEST, 1, &[7]));
        pad_with_filler(&mut words, 32);
        let mut l = StreamLinter::new(test_registry(), 32);
        l.lint_buffer(0, 0, true, &words, "");
        assert_eq!(l.finish().kinds(), vec![ViolationKind::LengthMismatch]);
    }

    #[test]
    fn data_event_after_filler_flagged() {
        let mut words = anchor(1_000, 0);
        words.extend(event(1_010, MajorId::TEST, 2, &[9]));
        let f = EventHeader::control(0, control::FILLER, 3);
        words.push(f.encode());
        words.extend([0u64, 0]);
        words.extend(event(1_020, MajorId::TEST, 2, &[10])); // after filler!
        pad_with_filler(&mut words, 32);
        let mut l = StreamLinter::new(test_registry(), 32);
        l.lint_buffer(0, 0, true, &words, "");
        let r = l.finish();
        assert!(
            r.kinds().contains(&ViolationKind::FillerMisaligned),
            "{}",
            r.render()
        );
    }

    #[test]
    fn registry_lint_catches_hand_built_bad_descriptor() {
        let mut registry = test_registry();
        // Bypass EventDescriptor::new via the public fields (what a stale or
        // hand-edited registry would contain).
        registry.register(
            MajorId::TEST,
            50,
            EventDescriptor {
                name: "TRACE_TEST_BAD".into(),
                spec: ktrace_format::FieldSpec::parse("64 64").unwrap(),
                template: "only %0[%d]".into(),
            },
        );
        let r = lint_registry(&registry);
        assert_eq!(r.kinds(), vec![ViolationKind::BadRegistry]);
    }

    #[test]
    fn drained_buffers_lint_clean() {
        let clock = Arc::new(ManualClock::new(1_000, 7));
        let config = TraceConfig {
            buffer_words: 64,
            buffers_per_cpu: 4,
            mode: Mode::Stream,
        };
        let logger = TraceLogger::builder()
            .geometry(config)
            .clock(clock)
            .ncpus(2)
            .build()
            .unwrap();
        logger.register_event(
            MajorId::TEST,
            1,
            EventDescriptor::new("TRACE_TEST_PAIR", "64 64", "a %0[%d] b %1[%d]").unwrap(),
        );
        for cpu in 0..2 {
            let h = logger.handle(cpu).unwrap();
            for i in 0..50u64 {
                assert!(h.log_slice(MajorId::TEST, 1, &[i, i * 2]));
            }
        }
        let mut bufs = Vec::new();
        for per_cpu in logger.drain_all() {
            bufs.extend(per_cpu);
        }
        assert!(!bufs.is_empty());
        let r = lint_completed_buffers(&bufs, &logger.registry(), 64);
        assert!(r.is_clean(), "{}", r.render());
    }
}
