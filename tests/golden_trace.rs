//! Golden-trace snapshot: a fixed ossim run's merged event listing must
//! match the committed fixture byte for byte.
//!
//! Determinism is engineered, not assumed: one simulated CPU (so scheduling
//! is a deterministic round-robin), no PC sampler (its period is wall
//! time), a time slice far longer than the run (no preemption points), a
//! [`ManualClock`] stepping once per read (timestamps count clock reads,
//! not nanoseconds), and a listing restricted to majors whose payloads are
//! pure simulation state — LOCK/HWPERF/PROF payloads carry wall-clock
//! nanoseconds and are excluded.
//!
//! Regenerate the fixture after an intentional event-stream change with:
//! `KTRACE_BLESS=1 cargo test --test golden_trace`.

use ktrace::ossim::workload::Workload;
use ktrace::ossim::{KTracer, Machine, MachineConfig, Op, ProcessSpec, Program};
use ktrace::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const FIXTURE: &str = "tests/fixtures/golden_listing.txt";

fn golden_listing() -> String {
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
    config.pc_sample_period = None; // the sampler fires on wall time
    config.time_slice = Duration::from_secs(3600); // no preemption points
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
            .map(|i| ProcessSpec::new(format!("golden{i}"), program.clone()))
            .collect(),
        user_locks: 0,
    });
    assert!(!report.aborted);
    assert_eq!(report.tasks_completed, 3);

    let logger = machine.tracer().logger();
    assert_eq!(
        logger.telemetry().snapshot().events_dropped(),
        0,
        "the ring must be big enough"
    );

    // Write the trace out and read it back through the standard pipeline.
    let dir = std::env::temp_dir().join(format!("ktrace-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.ktrace");
    let header = ktrace::io::FileHeader {
        ncpus: 1,
        buffer_words: logger.config().buffer_words as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry: logger.registry(),
    };
    let mut w = ktrace::io::TraceFileWriter::create(&path, &header).unwrap();
    for bufs in logger.drain_all() {
        for b in bufs {
            w.write_buffer(&b).unwrap();
        }
    }
    w.finish().unwrap();

    let trace = Trace::from_file(&path).unwrap();
    let listing = render_listing(
        &trace,
        &ListingOptions {
            // Only majors whose payloads are pure simulation state; LOCK,
            // HWPERF, and PROF payloads embed wall-clock measurements.
            majors: vec![
                MajorId::PROC,
                MajorId::USER,
                MajorId::SCHED,
                MajorId::SYSCALL,
                MajorId::MEM,
                MajorId::EXCEPTION,
            ],
            hide_control: true,
            limit: 0,
        },
    );
    std::fs::remove_dir_all(&dir).ok();
    listing
}

#[test]
fn merged_listing_matches_the_committed_fixture() {
    let listing = golden_listing();
    assert!(!listing.is_empty());

    // The run itself must be reproducible before the fixture can be.
    let again = golden_listing();
    assert_eq!(listing, again, "two identical runs diverged");

    if std::env::var("KTRACE_BLESS").is_ok() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(FIXTURE, &listing).unwrap();
        eprintln!("golden fixture blessed: {FIXTURE}");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing: run with KTRACE_BLESS=1 to create it");
    assert_eq!(
        listing, expected,
        "merged listing drifted from {FIXTURE}; if the change is \
         intentional, regenerate with KTRACE_BLESS=1"
    );
}
