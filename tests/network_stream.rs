//! §1/§2: "This event log may be examined while the system is running,
//! written out to disk, or **streamed over the network**."
//!
//! The writer side of the pipeline is sink-generic; here a session streams
//! completed buffers over a real TCP loopback connection and the receiver
//! reconstructs the identical trace — once over a clean socket and once
//! with the sender wrapped in a latency-injecting [`FaultySink`], with the
//! receiver reconstructing through the salvage reader. The loopback
//! receiver and the salvage-vs-strict cross-check live in
//! `ktrace-testutil`, shared with the `ktrace-collectd` suites.

use ktrace::faults::{FaultySink, SinkPlan};
use ktrace::prelude::*;
use ktrace_testutil::{assert_salvage_matches_strict, strict_events, ByteReceiver};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Streams a session over TCP loopback, the sink built by `wrap`. Returns
/// the received bytes plus the sender-side accounting.
fn stream_over_tcp<W, F>(wrap: F) -> (Vec<u8>, u64, u64)
where
    W: std::io::Write + Send + 'static,
    F: FnOnce(TcpStream) -> W,
{
    let receiver = ByteReceiver::spawn();

    // Sender: a live session whose sink is the TCP connection.
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .ncpus(2)
        .build()
        .expect("logger");
    // Declared, so the receiver's lint holds the stream to its registry.
    for cpu in 0..2 {
        logger.register_event(
            MajorId::TEST,
            cpu,
            EventDescriptor::new("TRACE_TEST_PAIR", "64 64", "i %0[%d] 2i %1[%d]").unwrap(),
        );
    }
    let conn = TcpStream::connect(receiver.addr()).expect("connect");
    let session = TraceSession::builder()
        .logger(logger.clone())
        .start(wrap(conn))
        .expect("session");

    let mut logged = 0u64;
    for i in 0..5_000u64 {
        for cpu in 0..2 {
            if session.logger().handle(cpu).expect("cpu").log_slice(
                MajorId::TEST,
                cpu as u16,
                &[i, i * 2],
            ) {
                logged += 1;
            }
        }
    }
    let stats = session.finish(); // drops the socket → EOF
    assert!(stats.lossless(), "{stats:?}");

    let bytes = receiver.join();
    assert!(!bytes.is_empty());
    (bytes, stats.records_written, logged)
}

#[test]
fn trace_streams_over_tcp() {
    let (bytes, records, logged) = stream_over_tcp(|conn| conn);

    // The byte stream received over the wire is a complete trace file.
    let mut reader =
        TraceFileReader::new(std::io::Cursor::new(bytes)).expect("parse streamed trace");
    assert_eq!(reader.record_count() as u64, records);
    let data = reader
        .events()
        .expect("merged events")
        .filter(|e| !e.is_control())
        .count() as u64;
    assert_eq!(data, logged, "every event crossed the wire intact");
    let lint = ktrace::verify::lint::lint_open_reader(&mut reader);
    assert!(lint.is_clean(), "{}", lint.render());
}

#[test]
fn latency_spikes_on_the_wire_lose_nothing() {
    let plan = SinkPlan::latency_only(0xD1A1, Duration::from_micros(200));
    let stats_slot = Arc::new(std::sync::Mutex::new(None));
    let slot = stats_slot.clone();
    let (bytes, records, logged) = stream_over_tcp(move |conn| {
        let sink = FaultySink::new(conn, plan);
        *slot.lock().unwrap() = Some(sink.stats());
        sink
    });
    let sink_stats = stats_slot.lock().unwrap().take().expect("sink built");
    assert!(
        sink_stats
            .latency_spikes
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the plan actually fired"
    );

    // The strict reader still accepts the stream (latency is not loss), and
    // the salvage reader reconstructs the identical event stream with a
    // clean report: nothing torn, nothing skipped, nothing trailing.
    let strict = strict_events(&bytes);
    let report = assert_salvage_matches_strict(&bytes);
    assert_eq!(report.records.len() as u64, records);
    assert_eq!(
        strict.iter().filter(|e| !e.is_control()).count() as u64,
        logged
    );
}
