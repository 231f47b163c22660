//! Salvage reports rendered in the shared exit-code vocabulary.
//!
//! The salvage reader ([`ktrace_io::salvage`]) never fails — it recovers
//! what it can and describes the damage. CI and scripted runs, however,
//! speak the exit-code table of [`ViolationKind`]: this module translates a
//! [`SalvageReport`] into a [`Report`] so `ktrace-tools salvage` exits with
//! the same stable codes as `ktrace-tools verify` — code 10 for structural file
//! damage, 11 for commit garbling, and so on — and a clean salvage exits 0.

use crate::report::{Report, Violation, ViolationKind};
use ktrace_io::SalvageReport;

/// Translates salvage findings into the shared violation vocabulary.
///
/// * a destroyed/undecodable file header, resync skips, and trailing bytes
///   are structural damage → [`ViolationKind::TruncatedBuffer`];
/// * a record cut short by end-of-file → [`ViolationKind::TruncatedBuffer`];
/// * an incomplete commit count or an unwritten (zero-header) reservation →
///   [`ViolationKind::GarbledCommit`];
/// * an event running past the buffer end → [`ViolationKind::LengthMismatch`];
/// * a buffer without a time anchor → [`ViolationKind::MissingAnchor`];
/// * a backwards timestamp → [`ViolationKind::NonMonotonicTimestamp`].
pub fn salvage_to_report(salvage: &SalvageReport) -> Report {
    let mut report = Report::new();
    report.buffers_checked = salvage.records.len();
    report.events_checked = salvage.events.len();
    report.data_events_checked = salvage.data_events().count();

    if !salvage.header_ok {
        report.push(
            ViolationKind::TruncatedBuffer,
            None,
            None,
            None,
            format!(
                "file header undecodable: {}",
                salvage.header_error.as_deref().unwrap_or("unknown damage")
            ),
        );
    }
    if salvage.resyncs > 0 {
        report.push(
            ViolationKind::TruncatedBuffer,
            None,
            None,
            None,
            format!(
                "{} resync scan(s) skipped {} byte(s) of unrecognizable data",
                salvage.resyncs, salvage.skipped_bytes
            ),
        );
    }
    if salvage.trailing_bytes > 0 {
        report.push(
            ViolationKind::TruncatedBuffer,
            None,
            None,
            None,
            format!(
                "file ends mid-record: {} trailing byte(s)",
                salvage.trailing_bytes
            ),
        );
    }

    for rec in &salvage.records {
        let cpu = Some(rec.cpu as usize);
        let seq = Some(rec.seq);
        if rec.truncated {
            report.push(
                ViolationKind::TruncatedBuffer,
                cpu,
                seq,
                None,
                format!("record at byte {} cut short by end of file", rec.offset),
            );
        }
        if !rec.complete {
            report.push(
                ViolationKind::GarbledCommit,
                cpu,
                seq,
                None,
                "commit count short of the expected total (drained mid-reservation)",
            );
        }
        report.violations.extend(
            rec.notes
                .iter()
                .map(|note| Violation::from_note(note, rec.cpu as usize, rec.seq)),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::ManualClock;
    use ktrace_core::{TraceConfig, TraceLogger};
    use ktrace_format::{EventRegistry, MajorId};
    use ktrace_io::{salvage_bytes, FileHeader, TraceFileWriter};
    use std::sync::Arc;

    fn sample_trace(events: u64) -> Vec<u8> {
        let cfg = TraceConfig::small();
        let clock = Arc::new(ManualClock::new(1, 1));
        let logger = TraceLogger::builder()
            .geometry(cfg)
            .clock(clock)
            .ncpus(1)
            .build()
            .unwrap();
        let header = FileHeader {
            ncpus: 1,
            buffer_words: cfg.buffer_words as u32,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry: EventRegistry::with_builtin(),
        };
        let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
        let h = logger.handle(0).unwrap();
        for i in 0..events {
            assert!(h.log_slice(MajorId::TEST, 0, &[i, i * 3]));
            if let Some(b) = logger.take_buffer(0) {
                w.write_buffer(&b).unwrap();
            }
        }
        for bufs in logger.drain_all() {
            for b in bufs {
                w.write_buffer(&b).unwrap();
            }
        }
        w.finish().unwrap()
    }

    #[test]
    fn clean_salvage_maps_to_exit_zero() {
        let bytes = sample_trace(100);
        let report = salvage_to_report(&salvage_bytes(&bytes));
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.exit_code(), 0);
        assert!(report.buffers_checked > 0);
        assert!(report.events_checked > 0);
    }

    #[test]
    fn truncation_maps_to_code_10() {
        let bytes = sample_trace(300);
        let cut = &bytes[..bytes.len() - 40];
        let report = salvage_to_report(&salvage_bytes(cut));
        assert!(report.kinds().contains(&ViolationKind::TruncatedBuffer));
        assert_eq!(report.exit_code(), 10);
    }

    #[test]
    fn destroyed_header_maps_to_code_10() {
        let report = salvage_to_report(&salvage_bytes(b"not a trace file at all"));
        assert_eq!(report.exit_code(), 10);
    }

    #[test]
    fn commit_desync_maps_to_code_11() {
        let cfg = TraceConfig::small();
        let clock = Arc::new(ManualClock::new(1, 1));
        let logger = TraceLogger::builder()
            .geometry(cfg)
            .clock(clock)
            .ncpus(1)
            .build()
            .unwrap();
        let header = FileHeader {
            ncpus: 1,
            buffer_words: cfg.buffer_words as u32,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry: EventRegistry::with_builtin(),
        };
        let h = logger.handle(0).unwrap();
        // Fill past one buffer, then desync its commit count before drain.
        let mut i = 0u64;
        while logger.snapshot(0).index < cfg.buffer_words as u64 {
            assert!(h.log_slice(MajorId::TEST, 0, &[i, i]));
            i += 1;
        }
        logger.fault_desync_commit(0, 0, -3);
        let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
        for bufs in logger.drain_all() {
            for b in bufs {
                w.write_buffer(&b).unwrap();
            }
        }
        let bytes = w.finish().unwrap();
        let report = salvage_to_report(&salvage_bytes(&bytes));
        assert!(report.kinds().contains(&ViolationKind::GarbledCommit));
        assert_eq!(report.exit_code(), 11, "{}", report.render());
    }
}
