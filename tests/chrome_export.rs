//! Golden-fixture snapshot for the Chrome/Perfetto trace export: a fixed
//! ossim run's `to_chrome_json` output must match the committed fixture
//! byte for byte, parse as JSON, and keep `traceEvents` timestamps
//! monotonic.
//!
//! Determinism is engineered the same way as the golden listing (see
//! `tests/golden_trace.rs`): one simulated CPU, no PC sampler, no
//! preemption, a [`ManualClock`], and a final hand-placed heartbeat whose
//! payload is counter state fully determined by the run.
//!
//! Regenerate after an intentional change to the event stream or to the
//! export mapping with: `KTRACE_BLESS=1 cargo test --test chrome_export`.

use ktrace::analysis::to_chrome_json;
use ktrace::ossim::workload::Workload;
use ktrace::ossim::{KTracer, Machine, MachineConfig, Op, ProcessSpec, Program};
use ktrace::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const FIXTURE: &str = "tests/fixtures/golden_chrome.json";

fn golden_chrome() -> String {
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
            .map(|i| ProcessSpec::new(format!("chrome{i}"), program.clone()))
            .collect(),
        user_locks: 0,
    });
    assert!(!report.aborted);
    assert_eq!(report.tasks_completed, 3);

    let logger = machine.tracer().logger();
    assert_eq!(
        logger.telemetry().snapshot().events_dropped(),
        0,
        "ring must be big enough"
    );
    // One heartbeat at the end: its payload is the telemetry counter block,
    // fully determined by the run above, so the fixture stays byte-stable
    // and the export's counter-track mapping is exercised on a real beat.
    assert!(logger.log_heartbeat(0), "heartbeat must fit in the ring");

    let dir = std::env::temp_dir().join(format!("ktrace-chrome-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chrome.ktrace");
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
    let json = to_chrome_json(&trace);
    std::fs::remove_dir_all(&dir).ok();
    json
}

/// Minimal structural JSON validation: every brace/bracket outside string
/// literals balances, and the document is a single object. Enough to
/// guarantee Perfetto's parser won't reject the file for syntax, without a
/// JSON library.
fn assert_parses_as_json(s: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut closed_root = false;
    for (i, c) in s.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth.push('}'),
            '[' => depth.push(']'),
            '}' | ']' => {
                assert_eq!(depth.pop(), Some(c), "mismatched close at byte {i}");
                if depth.is_empty() {
                    assert!(!closed_root, "trailing content after the root object");
                    closed_root = true;
                }
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string literal");
    assert!(depth.is_empty(), "unclosed braces/brackets: {depth:?}");
    assert!(closed_root && s.starts_with('{'), "root must be one object");
}

#[test]
fn chrome_export_matches_the_committed_fixture() {
    let json = golden_chrome();

    // The run itself must be reproducible before the fixture can be.
    let again = golden_chrome();
    assert_eq!(json, again, "two identical runs diverged");

    assert_parses_as_json(&json);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(json.contains("\"name\":\"cpu 0\""), "process metadata");
    assert!(
        json.contains("\"ph\":\"X\""),
        "thread slices from ctx switches"
    );
    // The heartbeat produced one counter track per metric.
    for name in ktrace::format::ids::control::HEARTBEAT_METRICS {
        assert!(
            json.contains(&format!("\"name\":\"ktrace {name}\"")),
            "missing counter track for {name}"
        );
    }
    // traceEvents timestamps are monotonic (the exporter sorts them; the
    // fixture pins that promise).
    let mut last = f64::MIN;
    for piece in json.split("\"ts\":").skip(1) {
        let num: f64 = piece.split(',').next().unwrap().parse().unwrap();
        assert!(num >= last, "ts went backwards: {num} < {last}");
        last = num;
    }

    if std::env::var("KTRACE_BLESS").is_ok() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(FIXTURE, &json).unwrap();
        eprintln!("golden fixture blessed: {FIXTURE}");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing: run with KTRACE_BLESS=1 to create it");
    assert_eq!(
        json, expected,
        "chrome export drifted from {FIXTURE}; if the change is \
         intentional, regenerate with KTRACE_BLESS=1"
    );
}
