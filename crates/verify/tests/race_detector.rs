//! End-to-end race detection over the OS simulator: the deliberately racy
//! shared-counter workload must be flagged, and its lock-disciplined twin
//! must stay silent.

use ktrace_clock::SyncClock;
use ktrace_core::region::CompletedBuffer;
use ktrace_core::{parse_buffer, RawEvent, TraceConfig, TraceLogger};
use ktrace_events::{lock as lockev, mem};
use ktrace_format::ids::control;
use ktrace_format::{EventHeader, EventRegistry, MajorId};
use ktrace_io::{FileHeader, TraceFileWriter};
use ktrace_ossim::workload::micro;
use ktrace_ossim::{KTracer, Machine, MachineConfig, Workload};
use ktrace_verify::{detect_races, races_in_file};
use std::sync::Arc;

/// Runs `workload` on a 2-CPU simulated machine and returns every traced
/// event, per-CPU streams merged.
fn run_and_collect(workload: Workload) -> Vec<RawEvent> {
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::default())
        .clock(Arc::new(SyncClock::new()))
        .ncpus(2)
        .build()
        .unwrap();
    ktrace_events::register_all(&logger);
    let machine = Machine::new(
        MachineConfig::fast_test(2),
        Arc::new(KTracer::new(logger.clone())),
    );
    machine.run(workload);
    logger.flush_all();
    assert_eq!(
        logger.telemetry().snapshot().events_dropped(),
        0,
        "trace capacity too small: dropped events would skew the verdict"
    );
    let mut events = Vec::new();
    for bufs in logger.drain_all() {
        for b in bufs {
            events.extend(parse_buffer(b.cpu, b.seq, &b.words, None).events);
        }
    }
    events
}

#[test]
fn racy_counter_workload_is_flagged() {
    let events = run_and_collect(micro::racy_counter(4, 20));
    let analysis = detect_races(&events);
    assert!(
        analysis.accesses > 0,
        "MEM access annotations must be traced"
    );
    assert!(
        !analysis.is_clean(),
        "unprotected shared counter must be flagged ({} accesses seen)",
        analysis.accesses
    );
    // One finding per address, at the first access that is unordered or
    // breaks the lockset discipline — which of the two comes first is up to
    // the schedule: a thread whose first touch of the cell is its read is
    // unordered with the other's write while the cell is still only Shared.
    let f = &analysis.findings[0];
    assert!(
        f.unordered || f.lockset_empty,
        "a finding names what it found: {}",
        analysis.render()
    );
    assert_ne!(f.first.tid, f.second.tid, "a race needs two threads");
    let rendered = analysis.render();
    assert!(rendered.contains("data-race"), "{rendered}");
}

#[test]
fn locked_counter_workload_is_silent() {
    let events = run_and_collect(micro::locked_counter(4, 20));
    let analysis = detect_races(&events);
    assert!(
        analysis.accesses > 0,
        "MEM access annotations must be traced"
    );
    assert!(
        analysis.is_clean(),
        "lock-disciplined counter must not be flagged:\n{}",
        analysis.render()
    );
}

/// Words per buffer in the hand-built file below.
const WORDS: usize = 64;

/// One buffer of `WORDS` words: an anchor at `anchor` if given, then
/// `events` as `(time, major, minor, payload)`, then filler to the end.
fn buffer(
    cpu: usize,
    seq: u64,
    anchor: Option<u64>,
    events: &[(u64, MajorId, u16, Vec<u64>)],
) -> CompletedBuffer {
    let mut words = Vec::new();
    if let Some(t) = anchor {
        let h = EventHeader::new(t as u32, 2, MajorId::CONTROL, control::TIME_ANCHOR).unwrap();
        words.extend([h.encode(), t, cpu as u64]);
    }
    let mut last = anchor.unwrap_or(0);
    for (t, major, minor, payload) in events {
        let h = EventHeader::new(*t as u32, payload.len(), *major, *minor).unwrap();
        words.push(h.encode());
        words.extend_from_slice(payload);
        last = *t;
    }
    let filler = EventHeader::control(last as u32, control::FILLER, WORDS - words.len());
    words.push(filler.encode());
    words.resize(WORDS, 0);
    CompletedBuffer {
        cpu,
        seq,
        words,
        complete: true,
        committed_words: WORDS as u64,
        expected_words: WORDS as u64,
        events: events.len() as u64,
    }
}

/// Writes `buffers` as a 2-CPU trace file, in the order given.
fn write_file(path: &std::path::Path, buffers: &[&CompletedBuffer]) {
    let header = FileHeader {
        ncpus: 2,
        buffer_words: WORDS as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry: EventRegistry::with_builtin(),
    };
    let mut w = TraceFileWriter::create(path, &header).unwrap();
    for b in buffers {
        w.write_buffer(b).unwrap();
    }
    w.finish().unwrap();
}

/// A middle record that does not begin with a time anchor carries only
/// 32-bit stamps; the read path rebuilds its 64-bit times from the end of
/// the same CPU's previous record. Read with raw stamps instead, its
/// unlocked write would sort to the front of the stream, look like
/// single-thread initialization, and the race would go unreported.
#[test]
fn an_anchorless_middle_record_keeps_its_place_in_time() {
    const T: u64 = 0x5_0000_0000;
    const L: u64 = 0x400;
    const A: u64 = 0x5000_0000;
    let locked_write = |t: u64, tid: u64| {
        [
            (t, MajorId::LOCK, lockev::ACQUIRED, vec![L, tid, 0, 0, 0]),
            (t + 10, MajorId::MEM, mem::ACCESS_WRITE, vec![A, tid]),
            (t + 20, MajorId::LOCK, lockev::RELEASED, vec![L, tid, 0]),
        ]
    };
    let cpu0_first = buffer(0, 0, Some(T), &locked_write(T + 10, 1));
    let cpu1_only = buffer(1, 0, Some(T + 100), &locked_write(T + 100, 2));
    // No anchor, no lock: thread 1 writes again after thread 2 did.
    let cpu0_middle = buffer(
        0,
        1,
        None,
        &[(T + 200, MajorId::MEM, mem::ACCESS_WRITE, vec![A, 1])],
    );

    let dir = std::env::temp_dir().join(format!("ktrace-race-anchorless-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let orders: [[&CompletedBuffer; 3]; 3] = [
        [&cpu0_first, &cpu0_middle, &cpu1_only],
        [&cpu0_first, &cpu1_only, &cpu0_middle],
        [&cpu1_only, &cpu0_first, &cpu0_middle],
    ];
    let mut analyses = Vec::new();
    for (i, order) in orders.iter().enumerate() {
        let path = dir.join(format!("order{i}.ktrace"));
        write_file(&path, order);
        analyses.push(races_in_file(&path).unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();

    let a = &analyses[0];
    assert_eq!(a.accesses, 3);
    assert_eq!(a.findings.len(), 1, "{}", a.render());
    let f = &a.findings[0];
    assert!(f.lockset_empty && f.unordered, "{}", a.render());
    assert_eq!((f.first.tid, f.first.time), (2, T + 110));
    assert_eq!(
        (f.second.tid, f.second.cpu, f.second.time),
        (1, 0, T + 200),
        "the anchor-less record's events carry hint-reconstructed 64-bit times"
    );
    for other in &analyses[1..] {
        assert_eq!(
            other.findings, a.findings,
            "record order in the file is immaterial"
        );
        assert_eq!(other.accesses, a.accesses);
    }
}
