//! Integration: telemetry accounting reconciles with the ktrace-verify lint
//! over the drained file.
//!
//! The invariant under test, end to end:
//!
//! ```text
//! data events the lint counts in the file
//!     == snapshot events_logged − snapshot events_lost
//! ```
//!
//! exercised across a multi-writer run (several threads CAS-contending per
//! CPU region, heartbeats riding the stream) and faults-matrix-style sink
//! runs (transient errors ridden out, a sink that dies mid-session). Losses
//! on either side — producer overrun or drain-side drops — must be counted,
//! never silently absorbed.

use ktrace::faults::{FaultySink, SinkPlan};
use ktrace::prelude::*;
use ktrace::query::parse_agg;
use ktrace::verify::{lint_file, Report};
use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// In-memory sink that survives being consumed by the session.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Accepts whole writes until `budget` bytes have landed, then fails every
/// write without consuming anything — so the captured stream always ends on
/// a record boundary (no torn tail to blur the accounting).
struct DyingAtBoundarySink {
    out: SharedBuf,
    budget: usize,
    accepted: usize,
}

impl Write for DyingAtBoundarySink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.accepted >= self.budget {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "sink died",
            ));
        }
        self.accepted += buf.len();
        self.out.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn register(logger: &TraceLogger) {
    logger.register_event(
        MajorId::TEST,
        1,
        EventDescriptor::new("TRACE_TEST_E2E", "64 64", "i %0[%d] x %1[%d]").unwrap(),
    );
}

/// Writes the captured stream to a temp file and returns the lint report.
fn lint_bytes(bytes: &[u8], tag: &str) -> Report {
    let dir = std::env::temp_dir().join(format!("ktrace-tel-e2e-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.ktrace");
    std::fs::write(&path, bytes).unwrap();
    let report = lint_file(&path).expect("captured stream must load");
    std::fs::remove_dir_all(&dir).ok();
    report
}

fn reconcile(report: &Report, stats: &ktrace::io::SessionStats, bytes: &[u8], tag: &str) {
    assert!(report.is_clean(), "{tag}: {}", report.render());
    assert_eq!(
        report.data_events_checked as u64,
        stats.events_expected_in_file(),
        "{tag}: lint count vs snapshot accounting ({stats:?})"
    );
    // Third book: the query engine over the captured stream agrees with
    // both the lint's walk and the telemetry snapshot.
    let trace = TraceFileReader::new(Cursor::new(bytes))
        .and_then(|mut r| r.load(None))
        .unwrap_or_else(|e| panic!("{tag}: captured stream must load: {e}"));
    let query = Query::new(trace);
    let data = query.eval(&parse_agg("count(!(major == CONTROL))").unwrap());
    assert_eq!(
        data,
        stats.events_expected_in_file(),
        "{tag}: query count vs snapshot accounting"
    );
    assert_eq!(data as usize, report.data_events_checked, "{tag}");
    // The session's counts are its share of the sink block; each logger
    // here drains into one session, so the share is the whole block.
    let snap = &stats.telemetry;
    assert_eq!(snap.sink.events_lost, stats.events_lost, "{tag}");
    assert_eq!(snap.sink.buffers_dropped, stats.buffers_dropped, "{tag}");
}

#[test]
fn multi_writer_run_reconciles_with_the_lint() {
    const NCPUS: usize = 2;
    const WRITERS_PER_CPU: usize = 2;
    const EVENTS_PER_WRITER: u64 = 10_000;

    let out = SharedBuf::default();
    // Enough ring headroom that reservations go through the CAS instead of
    // bouncing off a full ring: contention (not overrun) is what this run
    // exercises.
    let cfg = TraceConfig {
        buffer_words: 4096,
        buffers_per_cpu: 16,
        ..TraceConfig::small()
    };
    let logger = TraceLogger::builder()
        .geometry(cfg)
        .ncpus(NCPUS)
        .build()
        .unwrap();
    register(&logger);
    let session = TraceSession::builder()
        .logger(logger.clone())
        .heartbeat(Duration::from_millis(1))
        .start(out.clone())
        .unwrap();

    std::thread::scope(|s| {
        for cpu in 0..NCPUS {
            for _ in 0..WRITERS_PER_CPU {
                let h = session.logger().handle(cpu).unwrap();
                s.spawn(move || {
                    for i in 0..EVENTS_PER_WRITER {
                        // Overrun is allowed: a rejected log is counted as
                        // dropped by the producer, not logged.
                        h.log_slice(MajorId::TEST, 1, &[i, i * 2]);
                    }
                });
            }
        }
    });
    let stats = session.finish();

    // Each successful reservation — data events and heartbeats alike —
    // attempts one reserve-wait observation, but the histogram buckets are
    // on the lossy *statistic* tier (a relaxed load+store pair, see the
    // counters module docs): with two writers sharing a CPU's counter
    // block, racing bumps can undercount. Promoting the buckets to the
    // exact tier was measured to blow the E20 <1% overhead gate, so the
    // deterministic direction here is one-sided: never more observations
    // than reservations, and never zero.
    let snap = &stats.telemetry;
    let beats = snap.sink.heartbeats_emitted;
    assert!(beats >= NCPUS as u64);
    let reservations: u64 = snap
        .per_cpu
        .iter()
        .map(|c| ktrace::telemetry::hist_count(&c.reserve_wait))
        .sum();
    assert!(
        reservations > 0 && reservations <= snap.events_logged() + beats,
        "at most one reserve-wait observation per reservation: {snap:?}"
    );
    assert!(stats.sink_alive(), "{stats:?}");

    let bytes = out.0.lock().unwrap().clone();
    let report = lint_bytes(&bytes, "multi-writer");
    reconcile(&report, &stats, &bytes, "multi-writer");
    // Heartbeats are in the file but not in the data count; the query
    // engine sees every beat that reached the stream.
    assert!(report.events_checked > report.data_events_checked);
    let trace = TraceFileReader::new(Cursor::new(&bytes[..]))
        .and_then(|mut r| r.load(None))
        .unwrap();
    let query = Query::new(trace);
    let beats_in_file = query.eval(&parse_agg("count(major == CONTROL & minor == 3)").unwrap());
    assert!(beats_in_file >= NCPUS as u64, "{beats_in_file}");
}

#[test]
fn faults_matrix_sinks_reconcile_with_the_lint() {
    // Transient-error and partial-write sinks from the fault matrix: the
    // retrying writer rides both out losslessly, and the books still match
    // the lint exactly.
    for (seed, plan, tag) in [
        (0xA11CEu64, SinkPlan::transient_errors(0xA11CE), "transient"),
        (0xB0Bu64, SinkPlan::partial_writes(0xB0B), "partial"),
    ] {
        let out = SharedBuf::default();
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small())
            .ncpus(1)
            .build()
            .unwrap();
        register(&logger);
        let sink = FaultySink::new(out.clone(), plan);
        let session = TraceSession::builder()
            .logger(logger.clone())
            .start(sink)
            .unwrap();
        for i in 0..2_000u64 {
            session
                .logger()
                .handle(0)
                .unwrap()
                .log_slice(MajorId::TEST, 1, &[i, i ^ seed]);
        }
        let stats = session.finish();
        assert!(stats.lossless(), "{tag}: {stats:?}");
        let bytes = out.0.lock().unwrap().clone();
        let report = lint_bytes(&bytes, tag);
        reconcile(&report, &stats, &bytes, tag);
    }
}

#[test]
fn dying_sink_losses_reconcile_with_the_lint() {
    let out = SharedBuf::default();
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .ncpus(1)
        .build()
        .unwrap();
    register(&logger);
    // The budget must be small enough that the sink dies even if the drain
    // thread is starved until `finish()`: the final drain alone flushes the
    // 4 pending ~1 KiB buffers, so a 2 KiB budget guarantees the death.
    let sink = DyingAtBoundarySink {
        out: out.clone(),
        budget: 2 * 1024,
        accepted: 0,
    };
    let session = TraceSession::builder()
        .logger(logger.clone())
        .start(sink)
        .unwrap();
    for i in 0..60_000u64 {
        session
            .logger()
            .handle(0)
            .unwrap()
            .log_slice(MajorId::TEST, 1, &[i, i]);
    }
    let stats = session.finish();

    assert!(!stats.sink_alive(), "the sink must have died: {stats:?}");
    assert!(
        stats.buffers_dropped > 0 && stats.events_lost > 0,
        "{stats:?}"
    );

    // Even with the sink dead mid-session, the surviving prefix is a clean
    // trace and the loss accounting is *exact*, not approximate.
    let bytes = out.0.lock().unwrap().clone();
    let report = lint_bytes(&bytes, "dying");
    reconcile(&report, &stats, &bytes, "dying");
}

#[test]
fn a_torn_buffer_lost_to_a_dead_sink_is_counted_whole() {
    // The sink takes the file header and nothing after it, and the CPU's
    // first buffer is torn by a writer killed mid-reservation (§3.1). Every
    // logged event is lost, the ones committed beyond the tear included: the
    // loss is the count the buffer's commit word carried, where a walk of
    // the torn words stops at the tear.
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .ncpus(1)
        .build()
        .unwrap();
    register(&logger);
    let clock = logger.clock();
    let header = ktrace::io::FileHeader {
        ncpus: 1,
        buffer_words: logger.config().buffer_words as u32,
        ticks_per_sec: clock.ticks_per_sec(),
        clock_synchronized: clock.synchronized(),
        registry: logger.registry(),
    }
    .encode();
    let out = SharedBuf::default();
    let plan = SinkPlan::permanent_failure(0xDEAD, header.len() as u64);
    let session = TraceSession::builder()
        .logger(logger.clone())
        .start(FaultySink::new(out.clone(), plan))
        .unwrap();
    let h = session.logger().handle(0).unwrap();
    for i in 0..10u64 {
        assert!(h.log_slice(MajorId::TEST, 1, &[i, i]));
    }
    assert!(h.fault_abandon_reservation(4).is_some());
    // Two buffers' worth: the region holds them while the drainer waits
    // out the torn one.
    for i in 10..70u64 {
        assert!(h.log_slice(MajorId::TEST, 1, &[i, i]));
    }
    let stats = session.finish();

    assert!(!stats.sink_alive(), "the sink must have died: {stats:?}");
    assert_eq!(*out.0.lock().unwrap(), header, "only the header landed");
    assert_eq!(stats.telemetry.events_logged(), 70);
    assert_eq!(stats.events_lost, 70, "{stats:?}");
    assert_eq!(stats.events_expected_in_file(), 0, "{stats:?}");
}
