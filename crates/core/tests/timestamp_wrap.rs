//! The 32-bit timestamp wrap (§3.2): headers store only the low 32 bits of
//! the clock; per-buffer anchors plus in-buffer wrap extension must
//! reconstruct full 64-bit times across any number of 2³² boundaries.

use ktrace_clock::ManualClock;
use ktrace_core::{parse_buffer, TraceConfig, TraceLogger};
use ktrace_format::MajorId;
use std::sync::Arc;

fn collect_times(logger: &TraceLogger) -> Vec<u64> {
    logger.flush_all();
    let mut times = Vec::new();
    let mut hint = None;
    while let Some(b) = logger.take_buffer(0) {
        assert!(b.complete);
        let parsed = parse_buffer(0, b.seq, &b.words, hint);
        assert!(parsed.clean(), "{:?}", parsed.notes);
        hint = parsed.end_time;
        times.extend(parsed.data_events().map(|e| e.time));
    }
    times
}

#[test]
fn full_times_survive_multiple_wraps() {
    // Events spaced ~1.4 billion ticks apart: a 32-bit stamp wraps every
    // ~3 events, across several buffers (drained incrementally).
    let clock = Arc::new(ManualClock::new(5_000_000_000, 0));
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .clock(clock.clone())
        .ncpus(1)
        .build()
        .unwrap();
    let handle = logger.handle(0).unwrap();
    let mut expected = Vec::new();
    let mut t = 5_000_000_000u64;
    let mut times = Vec::new();
    for i in 0..200u64 {
        clock.set(t);
        assert!(handle.log_slice(MajorId::TEST, 1, &[i]));
        expected.push(t);
        t += 1_400_000_000;
        if i % 30 == 29 {
            times.extend(collect_times(&logger));
        }
    }
    times.extend(collect_times(&logger));
    assert_eq!(times, expected, "full 64-bit times reconstructed exactly");
    // Sanity: the span genuinely crossed many 2^32 boundaries.
    assert!(expected.last().unwrap() - expected[0] > 60 * (1u64 << 32));
}

#[test]
fn anchor_reseeds_after_long_idle_gap() {
    // A gap longer than 2^32 between the last event of one buffer and the
    // first of the next is only recoverable because every buffer carries a
    // full-width anchor.
    let clock = Arc::new(ManualClock::new(1_000, 0));
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .clock(clock.clone())
        .ncpus(1)
        .build()
        .unwrap();
    let handle = logger.handle(0).unwrap();

    assert!(handle.log_slice(MajorId::TEST, 1, &[1]));
    logger.flush_all(); // close buffer 0
    let big_jump = 1_000 + 10 * (1u64 << 32) + 77;
    clock.set(big_jump);
    assert!(handle.log_slice(MajorId::TEST, 2, &[2])); // opens buffer 1, new anchor

    let times = collect_times(&logger);
    assert_eq!(times, vec![1_000, big_jump]);
}
