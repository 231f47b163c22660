//! End-to-end linter tests: a clean trace file lints clean, and each seeded
//! corruption produces its own distinct violation kind / exit code.
//!
//! Every rendered report is also pinned, line for line, by a fixture under
//! `tests/fixtures/` — that is what holds the *order* violations are reported
//! in (a buffer's decode notes before its per-event findings). After an
//! intentional change: `KTRACE_BLESS=1 cargo test -p ktrace-verify --test
//! lint_corruption`.

use ktrace_clock::ManualClock;
use ktrace_core::{TraceConfig, TraceLogger};
use ktrace_format::{EventDescriptor, EventRegistry, MajorId};
use ktrace_io::file::{FileHeader, RECORD_HEADER_BYTES};
use ktrace_io::{TraceFileReader, TraceFileWriter};
use ktrace_verify::{lint_file, ViolationKind};
use std::io::Cursor;
use std::path::PathBuf;
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

/// Logs on 2 CPUs and returns the trace file's bytes. When `declare` is
/// false the TEST events are left out of the embedded registry.
fn sample_trace(declare: bool) -> Vec<u8> {
    let registry = if declare {
        test_registry()
    } else {
        EventRegistry::with_builtin()
    };
    let header = FileHeader {
        ncpus: 2,
        buffer_words: TraceConfig::small().buffer_words as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry,
    };
    let clock = Arc::new(ManualClock::new(1000, 10));
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .clock(clock)
        .ncpus(2)
        .build()
        .unwrap();
    let h0 = logger.handle(0).unwrap();
    let h1 = logger.handle(1).unwrap();
    let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
    for i in 0..400u64 {
        assert!(h0.log_slice(MajorId::TEST, 1, &[i, i * 3]));
        if i % 2 == 0 {
            assert!(h1.log_slice(MajorId::TEST, 2, &[i]));
        }
        for cpu in 0..2 {
            if let Some(b) = logger.take_buffer(cpu) {
                w.write_buffer(&b).unwrap();
            }
        }
    }
    for bufs in logger.drain_all() {
        for b in bufs {
            w.write_buffer(&b).unwrap();
        }
    }
    w.finish().unwrap()
}

fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ktrace-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Byte offset of record `k` in the file.
fn record_offset(bytes: &[u8], k: usize) -> usize {
    let (hdr, hdr_len) = FileHeader::decode(bytes).unwrap();
    hdr_len + k * hdr.record_size()
}

/// Index of the record on `cpu` with sequence number `seq`.
fn record_of(bytes: &[u8], cpu: u32, seq: u64) -> usize {
    let mut r = TraceFileReader::new(Cursor::new(bytes.to_vec())).unwrap();
    for k in 0..r.record_count() {
        let (c, s, _, _) = r.record_meta(k).unwrap();
        if c == cpu && s == seq {
            return k;
        }
    }
    panic!("no cpu{cpu} record with seq {seq} in sample trace");
}

fn assert_matches_fixture(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var("KTRACE_BLESS").is_ok() {
        std::fs::write(&path, rendered).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("fixture missing: run with KTRACE_BLESS=1 to create it");
    assert_eq!(
        rendered, expected,
        "{name} drifted from the committed fixture; if the change is \
         intentional, regenerate with KTRACE_BLESS=1"
    );
}

#[test]
fn clean_trace_lints_clean() {
    let path = write_temp("clean.ktrace", &sample_trace(true));
    let report = lint_file(&path).unwrap();
    assert_matches_fixture("lint_clean.txt", &report.render());
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        report.buffers_checked > 2,
        "trace should span several buffers"
    );
    assert!(report.events_checked > 400);
    assert_eq!(report.exit_code(), 0);
}

#[test]
fn truncated_file_reports_truncated_buffer() {
    let mut bytes = sample_trace(true);
    let cut = bytes.len() - 3; // not a whole record
    bytes.truncate(cut);
    let path = write_temp("truncated.ktrace", &bytes);
    let report = lint_file(&path).unwrap();
    assert_matches_fixture("lint_truncated.txt", &report.render());
    assert_eq!(
        report.kinds(),
        vec![ViolationKind::TruncatedBuffer],
        "{}",
        report.render()
    );
    assert_eq!(
        report.exit_code(),
        ViolationKind::TruncatedBuffer.exit_code()
    );
}

#[test]
fn cleared_commit_flag_reports_garbled_commit() {
    let mut bytes = sample_trace(true);
    // Record header layout: magic u32 | cpu u32 | seq u64 | flags u64.
    let flags_at = record_offset(&bytes, 0) + 16;
    bytes[flags_at] &= !1; // clear RECORD_FLAG_COMPLETE
    let path = write_temp("garbled-flag.ktrace", &bytes);
    let report = lint_file(&path).unwrap();
    assert_matches_fixture("lint_cleared_commit_flag.txt", &report.render());
    assert_eq!(
        report.kinds(),
        vec![ViolationKind::GarbledCommit],
        "{}",
        report.render()
    );
    assert_eq!(report.exit_code(), ViolationKind::GarbledCommit.exit_code());
}

#[test]
fn zeroed_header_word_reports_garbled_commit() {
    let mut bytes = sample_trace(true);
    // Zero a mid-buffer event header in record 0: an unwritten reservation.
    let word = record_offset(&bytes, 0) + RECORD_HEADER_BYTES + 3 * 8;
    bytes[word..word + 8].fill(0);
    let path = write_temp("garbled-zero.ktrace", &bytes);
    let report = lint_file(&path).unwrap();
    assert_matches_fixture("lint_zeroed_header.txt", &report.render());
    assert!(
        report.kinds().contains(&ViolationKind::GarbledCommit),
        "{}",
        report.render()
    );
    assert_eq!(report.exit_code(), ViolationKind::GarbledCommit.exit_code());
}

#[test]
fn rewound_timestamp_reports_non_monotonic() {
    let mut bytes = sample_trace(true);
    // Rewind the 32-bit stamp of the first data event in cpu0's first
    // buffer. The wrap extender reads the regression as a wrap and inflates
    // that buffer's reconstructed times by 2^32, so the next cpu0 buffer
    // steps backwards relative to it.
    let k = record_of(&bytes, 0, 0);
    let hdr_at = record_offset(&bytes, k) + RECORD_HEADER_BYTES + 3 * 8;
    let word = u64::from_le_bytes(bytes[hdr_at..hdr_at + 8].try_into().unwrap());
    let rewound = (word & 0xffff_ffff) | (5u64 << 32);
    bytes[hdr_at..hdr_at + 8].copy_from_slice(&rewound.to_le_bytes());
    let path = write_temp("rewound.ktrace", &bytes);
    let report = lint_file(&path).unwrap();
    assert_matches_fixture("lint_rewound_timestamp.txt", &report.render());
    assert!(
        report
            .kinds()
            .contains(&ViolationKind::NonMonotonicTimestamp),
        "{}",
        report.render()
    );
    assert_eq!(
        report.exit_code(),
        ViolationKind::NonMonotonicTimestamp.exit_code(),
        "{}",
        report.render()
    );
}

#[test]
fn one_future_anchor_costs_one_finding() {
    // One CPU, nine buffers. Buffer 3's anchor is moved 2^40 ticks ahead,
    // so that buffer's times all run ahead: buffer 4 steps back from it,
    // and every later buffer is judged against its own predecessor.
    let header = FileHeader {
        ncpus: 1,
        buffer_words: TraceConfig::small().buffer_words as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry: test_registry(),
    };
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .clock(Arc::new(ManualClock::new(1000, 10)))
        .ncpus(1)
        .build()
        .unwrap();
    let h = logger.handle(0).unwrap();
    let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
    for i in 0..500u64 {
        assert!(h.log_slice(MajorId::TEST, 2, &[i]));
        if let Some(b) = logger.take_buffer(0) {
            w.write_buffer(&b).unwrap();
        }
    }
    for b in logger.drain_all().into_iter().flatten() {
        w.write_buffer(&b).unwrap();
    }
    let mut bytes = w.finish().unwrap();
    let k = 3;
    let buffers = TraceFileReader::new(Cursor::new(bytes.clone()))
        .unwrap()
        .record_count();
    assert!(buffers >= 6, "{buffers} buffers");

    // Word 1 of a buffer is its anchor's full 64-bit time.
    let at = record_offset(&bytes, record_of(&bytes, 0, k)) + RECORD_HEADER_BYTES + 8;
    let anchor = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    bytes[at..at + 8].copy_from_slice(&(anchor + (1 << 40)).to_le_bytes());
    let path = write_temp("future-anchor.ktrace", &bytes);
    let report = lint_file(&path).unwrap();
    let regressions: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::NonMonotonicTimestamp)
        .collect();
    assert_eq!(regressions.len(), 1, "{}", report.render());
    assert_eq!(regressions[0].seq, Some(k + 1), "{}", report.render());
}

#[test]
fn undeclared_events_reported() {
    let path = write_temp("undeclared.ktrace", &sample_trace(false));
    let report = lint_file(&path).unwrap();
    assert_matches_fixture("lint_undeclared.txt", &report.render());
    assert_eq!(
        report.kinds(),
        vec![ViolationKind::UndeclaredEvent],
        "{}",
        report.render()
    );
    assert_eq!(
        report.exit_code(),
        ViolationKind::UndeclaredEvent.exit_code()
    );
}

#[test]
fn two_corruptions_in_one_buffer_report_notes_before_event_findings() {
    let mut bytes = sample_trace(true);
    // In cpu0's first buffer: retag the first data event (word 3) with a
    // minor nobody registered, and zero the header ten events later
    // (word 33). The zero header is a decode note, the retagged event a
    // per-event finding: the report lists the note first although it sits
    // later in the buffer.
    let words_at = record_offset(&bytes, record_of(&bytes, 0, 0)) + RECORD_HEADER_BYTES;
    let retag_at = words_at + 3 * 8;
    let word = u64::from_le_bytes(bytes[retag_at..retag_at + 8].try_into().unwrap());
    bytes[retag_at..retag_at + 8].copy_from_slice(&((word & !0xffff) | 99).to_le_bytes());
    let zero_at = words_at + 33 * 8;
    bytes[zero_at..zero_at + 8].fill(0);
    let path = write_temp("two-in-one.ktrace", &bytes);
    let report = lint_file(&path).unwrap();
    assert_matches_fixture("lint_two_in_one_buffer.txt", &report.render());
    assert_eq!(
        report.kinds(),
        vec![ViolationKind::GarbledCommit, ViolationKind::UndeclaredEvent],
        "{}",
        report.render()
    );
    let at = |kind| report.violations.iter().position(|v| v.kind == kind);
    assert!(at(ViolationKind::GarbledCommit) < at(ViolationKind::UndeclaredEvent));
}
