//! Four-source parity matrix: one trace, four read paths, identical query
//! results.
//!
//! A single deterministic ossim run (the golden-trace recipe) is read
//! four ways:
//!
//! * **snapshot** — the live logger's flight-recorder dump
//!   (`Trace::from_logger`), taken before anything is drained;
//! * **file** — the strict on-disk reader over the drained trace file
//!   (`FileSource`);
//! * **stream** — the strict reader over the byte stream a network receiver
//!   would accumulate, the sender's sink wrapped in a latency-injecting
//!   [`FaultySink`] (latency is not loss: the bytes arrive intact);
//! * **salvage** — the forgiving reader over those same streamed bytes
//!   (`SalvageSource`).
//!
//! The contract under test (see `ktrace_query::source`): the **data
//! events** of one trace are identical through every source, and therefore
//! so is every query over them and every analysis tool's report. Control
//! events are transport artifacts (drained buffers carry fillers a live
//! snapshot has not written), so the matrix compares data events,
//! control-free queries, and tool output with control events hidden.

use ktrace::analysis::{EventStats, Utilization};
use ktrace::faults::{FaultySink, SinkPlan};
use ktrace::ossim::workload::Workload;
use ktrace::ossim::{KTracer, Machine, MachineConfig, Op, ProcessSpec, Program};
use ktrace::prelude::*;
use ktrace::query::{parse_agg, SalvageSource};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn all_four_sources_agree_on_one_trace() {
    // -- One deterministic run (the golden-trace recipe) -----------------
    let clock = Arc::new(ManualClock::new(1_000, 1));
    let logger = TraceLogger::builder()
        .geometry(TraceConfig {
            buffer_words: 4096,
            buffers_per_cpu: 16,
            ..TraceConfig::small()
        })
        .clock(clock)
        .ncpus(1)
        .build()
        .unwrap();
    ktrace::events::register_all(&logger);

    let mut config = MachineConfig::fast_test(1);
    config.pc_sample_period = None;
    config.time_slice = Duration::from_secs(3600);
    let machine = Machine::new(config, Arc::new(KTracer::new(logger)));

    let program = Program::new()
        .compute(1_000, ktrace::events::func::USER_COMPUTE)
        .syscall(ktrace::events::sysno::GETPID)
        .malloc(128)
        .page_fault(0x7000)
        .syscall(ktrace::events::sysno::CLOSE)
        .op(Op::CountCompletion);
    let report = machine.run(Workload {
        processes: (0..3)
            .map(|i| ProcessSpec::new(format!("parity{i}"), program.clone()))
            .collect(),
        user_locks: 0,
    });
    assert!(!report.aborted);

    let logger = machine.tracer().logger();
    assert_eq!(
        logger.telemetry().snapshot().events_dropped(),
        0,
        "lossless run required"
    );

    // -- Source 1: live snapshot, before anything is drained -------------
    let snapshot_set = Trace::from_logger(logger, 1_000_000_000);

    // -- Drain once; write the same buffers to disk and "over the wire" --
    let header = ktrace::io::FileHeader {
        ncpus: 1,
        buffer_words: logger.config().buffer_words as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry: logger.registry(),
    };
    let buffers: Vec<_> = logger.drain_all().into_iter().flatten().collect();
    assert!(!buffers.is_empty());

    let dir = std::env::temp_dir().join(format!("ktrace-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("parity.ktrace");
    let mut fw = ktrace::io::TraceFileWriter::create(&path, &header).unwrap();
    let plan = SinkPlan::latency_only(0xBEEF, Duration::from_micros(50));
    let mut sw = ktrace::io::TraceFileWriter::new(FaultySink::new(Vec::new(), plan), &header)
        .expect("stream writer");
    for b in &buffers {
        fw.write_buffer(b).unwrap();
        sw.write_buffer(b).unwrap();
    }
    fw.finish().unwrap();
    let streamed: Vec<u8> = sw.finish().expect("stream finish").into_inner();

    // -- Sources 2-4: file, drained stream, salvage over the same bytes --
    let file_set = FileSource::new(&path).load().expect("file load");
    let stream_set = TraceFileReader::new(Cursor::new(&streamed[..]))
        .and_then(|mut r| r.load(None))
        .expect("stream load");
    let salvage_set = SalvageSource::from_bytes(streamed)
        .load()
        .expect("salvage load");
    std::fs::remove_dir_all(&dir).ok();

    let sources = [
        ("snapshot", &snapshot_set),
        ("file", &file_set),
        ("stream", &stream_set),
        ("salvage", &salvage_set),
    ];

    // -- Data-event parity: the raw contract ----------------------------
    let reference: Vec<_> = snapshot_set.data_events().cloned().collect();
    assert!(!reference.is_empty(), "the run produced data events");
    for (name, set) in &sources[1..] {
        let got: Vec<_> = set.data_events().cloned().collect();
        assert_eq!(
            got, reference,
            "{name} data events diverged from the snapshot"
        );
    }

    // -- Query parity: every control-free expression agrees --------------
    let queries = [
        "count(!(major == CONTROL))",
        "count(major == SCHED)",
        "count(major == LOCK & minor == 2)",
        "count(major == SYSCALL | major == MEM)",
        "max(!(major == CONTROL), time)",
        "sum(major == LOCK & minor == 2, payload[0])",
        "rate(major == SCHED)",
        "max_gap(major == SCHED)",
        "unpaired(span(LOCK, 2 -> 3, key = payload[0]))",
        "max_duration(span(PROC, 0 -> 1, key = payload[0]))",
        "count(time >= 100 & time < 2000 & !(major == CONTROL))",
        "count(cpu == 0 & !(major == CONTROL))",
    ];
    for text in queries {
        let agg = parse_agg(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let reference = Query::new(snapshot_set.clone()).eval(&agg);
        for (name, set) in &sources[1..] {
            let got = Query::new((*set).clone()).eval(&agg);
            assert_eq!(
                got, reference,
                "`{text}` diverged between snapshot and {name}"
            );
        }
    }

    // -- Tool parity: a tool's report does not depend on the transport ---
    let tools = |t: &Trace| {
        let mut locks: Vec<String> = LockStats::compute(t)
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        locks.sort();
        (
            locks,
            format!("{:?}", Utilization::compute(t)),
            format!("{:?}", Breakdown::compute(t)),
            EventStats::compute(t).span_ticks,
            render_listing(t, &ListingOptions::data_only()),
        )
    };
    let reference = tools(&snapshot_set);
    assert!(reference.3 > 0, "the run spans time");
    for (name, set) in &sources[1..] {
        assert_eq!(
            tools(set),
            reference,
            "tool reports diverged between snapshot and {name}"
        );
    }

    // All four sources see the same clock, so rates are comparable at all.
    for (name, set) in &sources {
        assert_eq!(set.ticks_per_sec, 1_000_000_000, "{name} clock rate");
    }
}
