//! End-to-end integration: real-threaded OS simulator → lockless logger →
//! trace file → every analysis tool.

use ktrace::analysis::{
    render_listing, Breakdown, EventStats, ListingOptions, LockStats, PcProfile, Timeline,
    TimelineOptions, Trace,
};
use ktrace::ossim::workload::sdet;
use ktrace::ossim::{KTracer, Machine, MachineConfig};
use ktrace::prelude::*;
use ktrace::query::parse_agg;
use std::sync::Arc;

fn run_sdet_to_file(path: &std::path::Path) -> u64 {
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::default())
        .ncpus(2)
        .build()
        .expect("logger");
    ktrace::events::register_all(&logger);
    let session = TraceSession::builder()
        .logger(logger.clone())
        .create(path)
        .expect("session");
    let machine = Machine::new(MachineConfig::fast_test(2), Arc::new(KTracer::new(logger)));
    let report = machine.run(sdet::build(sdet::SdetConfig {
        scripts: 3,
        commands_per_script: 3,
        ..Default::default()
    }));
    assert!(!report.aborted);
    assert_eq!(report.completions, 3);
    let stats = session.finish();
    assert!(stats.lossless(), "{stats:?}");
    stats.records_written
}

#[test]
fn full_pipeline_from_simulator_to_tools() {
    let dir = std::env::temp_dir().join(format!("ktrace-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.ktrace");
    let records = run_sdet_to_file(&path);
    assert!(records > 0);

    let trace = Trace::from_file(&path).expect("read");
    assert!(!trace.events.is_empty());

    // Every event stream invariant: global order, per-CPU order.
    assert!(trace.events.windows(2).all(|w| w[0].time <= w[1].time));

    // The listing renders every data event through the embedded registry.
    let listing = render_listing(&trace, &ListingOptions::data_only());
    assert!(listing.contains("TRACE_SCHED_CTX_SWITCH"), "{listing}");
    assert!(listing.contains("TRACE_USER_RUN_UL_LOADER"));
    assert!(
        !listing.contains("UNKNOWN_"),
        "all simulator events are described"
    );

    // Lock analysis sees the allocator chain.
    let locks = LockStats::compute(&trace);
    assert!(!locks.rows.is_empty());
    assert!(locks.render(5, "time").contains("GMalloc::gMalloc()"));

    // PC profile has samples attributed to named functions.
    let prof = PcProfile::compute(&trace);
    let total: u64 = prof.by_pid.keys().map(|&p| prof.samples(p)).sum();
    assert!(total > 0, "PC sampler produced samples");

    // Breakdown attributes time and counts IPC.
    let breakdown = Breakdown::compute(&trace);
    assert!(breakdown.processes.values().any(|p| p.ipc_out.calls > 0));
    assert!(breakdown.processes.contains_key(&1), "server pid present");

    // Timeline renders one lane per CPU.
    let tl = Timeline::build(
        &trace,
        &TimelineOptions {
            width: 60,
            ..Default::default()
        },
    );
    assert_eq!(tl.lanes.len(), 2);

    // Event stats counts the expected classes.
    let stats = EventStats::compute(&trace);
    assert!(stats.total > 100);

    // A clean run lints clean: no garbling, every stream invariant holds.
    let mut reader = TraceFileReader::open(&path).expect("open");
    let lint = ktrace::verify::lint::lint_open_reader(&mut reader);
    assert!(lint.is_clean(), "{}", lint.render());

    // The standing trace properties hold on any clean run: the assertion
    // engine over the same file reports nothing on the 36+ band.
    let spec =
        Spec::from_file(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("props/ktrace.toml"))
            .expect("spec");
    let query = Query::over(&mut FileSource::new(&path)).expect("query");
    let report = spec.check(&query);
    assert!(report.violations.is_empty(), "{}", report.render());
    assert_eq!(report.exit_code(), 0);
    // And the engine's count agrees with the Trace the tools analyzed.
    let data = query.eval(&parse_agg("count(!(major == CONTROL))").unwrap());
    assert_eq!(
        data as usize,
        trace.events.iter().filter(|e| !e.is_control()).count()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn random_access_windows_match_full_scan() {
    let dir = std::env::temp_dir().join(format!("ktrace-window-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("window.ktrace");
    run_sdet_to_file(&path);

    let trace = Trace::from_file(&path).expect("read");
    let span = trace.end() - trace.origin();
    let (t0, t1) = (trace.origin() + span / 4, trace.origin() + 3 * span / 4);

    let expected = trace
        .events
        .iter()
        .filter(|e| e.time >= t0 && e.time < t1 && !e.is_control())
        .count();

    // The anchor-seeking window load sees exactly the filtered full scan.
    let window = FileSource::new(&path)
        .load_window(t0, t1)
        .expect("window load");
    let count = parse_agg("count(!(major == CONTROL))").unwrap();
    assert_eq!(
        Query::new(window).eval(&count) as usize,
        expected,
        "window read must equal filtered full scan"
    );

    // A full load narrowed by a time predicate reaches the same count
    // through the in-memory index.
    let query = Query::over(&mut FileSource::new(&path)).expect("full load");
    let narrowed = parse_agg(&format!(
        "count(time >= {t0} & time < {t1} & !(major == CONTROL))"
    ))
    .unwrap();
    assert_eq!(query.eval(&narrowed) as usize, expected);

    std::fs::remove_dir_all(&dir).ok();
}
