//! The drainer's wake-up protocol: the writer that closes a buffer wakes the
//! parked drainer, and nothing else does (ROADMAP item 2(b)).
//!
//! Every session here runs without heartbeats, so its drainer parks with no
//! timeout: a buffer is drained before `finish()` only if some writer woke
//! the drainer for it. The tests count — records written, wake-ups, grace
//! waits — rather than time, and every wait for a count has a 10 s deadline,
//! so a lost wake-up fails a test instead of hanging it.

use ktrace_core::{TraceConfig, TraceLogger};
use ktrace_format::MajorId;
use ktrace_io::TraceSession;
use ktrace_telemetry::Telemetry;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `TraceConfig::small()`'s buffer: 128 words, the first 3 its time anchor.
const BUFFER_WORDS: u64 = 128;

fn logger() -> TraceLogger {
    TraceLogger::builder()
        .geometry(TraceConfig::small())
        .ncpus(1)
        .build()
        .unwrap()
}

fn start(logger: &TraceLogger) -> TraceSession {
    TraceSession::builder()
        .logger(logger.clone())
        .start(std::io::sink())
        .unwrap()
}

/// Polls until the sink has written `records` records; panics after 10 s.
fn wait_for_records(tel: &Telemetry, records: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while tel.sink().records_written() < records {
        assert!(
            Instant::now() < deadline,
            "the drainer wrote {} of {records} records: a lost wake-up",
            tel.sink().records_written()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Lets a just-started drainer reach its park, so the close that follows
/// has to wake it rather than meet it mid-sweep. A correct protocol passes
/// either way; the pause is what lets a broken one fail.
fn let_the_drainer_park() {
    std::thread::sleep(Duration::from_millis(20));
}

/// CPU 0's unwrapped word index: every word reserved so far.
fn words_reserved(logger: &TraceLogger) -> u64 {
    logger.snapshot(0).index
}

/// Logs 4-word events on CPU 0 until the index reaches `words`: the event
/// that crosses a boundary takes the reservation slow path, whose filler
/// commit closes the buffer behind it.
fn log_until(logger: &TraceLogger, words: u64) {
    let h = logger.handle(0).unwrap();
    let mut i = 0;
    while words_reserved(logger) < words {
        h.log_slice(MajorId::TEST, 1, &[i, i, i]);
        i += 1;
    }
}

#[test]
fn a_slow_path_close_is_drained_before_finish() {
    let logger = logger();
    let session = start(&logger);
    let_the_drainer_park();
    log_until(&logger, BUFFER_WORDS);
    assert!(logger.telemetry().cpu(0).filler_words() > 0, "slow path");
    wait_for_records(logger.telemetry(), 1);
    assert!(session.finish().lossless());
}

#[test]
fn an_exact_fill_close_is_drained_before_finish() {
    let logger = logger();
    let session = start(&logger);
    let_the_drainer_park();
    let h = logger.handle(0).unwrap();
    // Anchor 3 + 63 + 62 = 128 words: the second event's fast-path
    // reservation ends on the boundary, and its commit closes the buffer.
    assert!(h.log_slice(MajorId::TEST, 0, &[7; 62]));
    assert!(h.log_slice(MajorId::TEST, 0, &[8; 61]));
    assert_eq!(words_reserved(&logger), BUFFER_WORDS);
    assert_eq!(logger.telemetry().cpu(0).filler_words(), 0, "no slow path");
    wait_for_records(logger.telemetry(), 1);
    assert!(session.finish().lossless());
}

#[test]
fn an_explicit_flush_is_drained_before_finish() {
    let logger = logger();
    let session = start(&logger);
    logger.handle(0).unwrap().log_slice(MajorId::TEST, 0, &[1]);
    let_the_drainer_park();
    assert!(logger.flush_cpu(0));
    wait_for_records(logger.telemetry(), 1);
    assert!(session.finish().lossless());
}

#[test]
fn finish_and_drop_of_a_parked_session_each_return() {
    for finish in [true, false] {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let session = start(&logger());
            let_the_drainer_park();
            if finish {
                session.finish();
            } else {
                drop(session);
            }
            done_tx.send(()).unwrap();
        });
        let watchdog = done_rx.recv_timeout(Duration::from_secs(10));
        assert!(
            watchdog.is_ok(),
            "finish={finish}: the stop never woke the drainer"
        );
    }
}

#[test]
fn two_sessions_on_one_adopted_logger_each_drain_without_finish() {
    let logger = logger();
    let first = start(&logger);
    let_the_drainer_park();
    log_until(&logger, BUFFER_WORDS);
    wait_for_records(logger.telemetry(), 1);
    let after_first = first.finish().records_written;
    assert_eq!(after_first, logger.telemetry().sink().records_written());

    // The second drainer must take the wake-ups over from the first, whose
    // thread has exited.
    let second = start(&logger);
    let_the_drainer_park();
    log_until(&logger, words_reserved(&logger) + BUFFER_WORDS);
    wait_for_records(logger.telemetry(), after_first + 1);
    let stats = second.finish();
    assert!(stats.lossless());
    // Each session reports its own records, not the logger's running total.
    assert_eq!(
        stats.records_written,
        logger.telemetry().sink().records_written() - after_first
    );
}

#[test]
fn one_producer_closing_64_buffers_never_waits_out_a_straggler() {
    let logger = logger();
    let session = start(&logger);
    // One buffer at a time, so the region never overruns: the drainer is
    // woken after the closing commit, so it never finds a closed buffer
    // short of its count.
    for k in 1..=64 {
        log_until(&logger, k * BUFFER_WORDS);
        wait_for_records(logger.telemetry(), k);
    }
    let stats = session.finish();
    assert!(stats.lossless(), "{stats:?}");
    assert_eq!(stats.telemetry.sink.grace_waits, 0);
}

#[test]
fn an_idle_session_parks_instead_of_polling() {
    let session = start(&logger());
    let tel: Arc<Telemetry> = session.telemetry();
    std::thread::sleep(Duration::from_millis(300));
    // The 200 µs poll this replaced woke ≈ 1 500 times in 300 ms.
    assert!(
        tel.sink().drainer_wakeups() <= 2,
        "{}",
        tel.sink().drainer_wakeups()
    );
    let stats = session.finish();
    assert!(stats.telemetry.sink.drainer_wakeups <= 2, "{stats:?}");
}

#[test]
fn closing_n_buffers_one_at_a_time_wakes_the_drainer_at_most_n_plus_two_times() {
    const N: u64 = 16;
    let logger = logger();
    let session = start(&logger);
    for k in 1..=N {
        log_until(&logger, k * BUFFER_WORDS);
        wait_for_records(logger.telemetry(), k);
    }
    let stats = session.finish();
    assert!(stats.lossless(), "{stats:?}");
    let wakeups = stats.telemetry.sink.drainer_wakeups;
    assert!(
        wakeups <= N + 2,
        "{wakeups} wake-ups for {N} closes and a stop"
    );
}
