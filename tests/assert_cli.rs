//! `ktrace-tools assert` end to end: every property in `props/ktrace.toml`
//! fires on a trace engineered to violate exactly it, and each violation
//! maps to its own exit code on the shared table's assertion band:
//!
//! * 36 — a count/sum/rate bound (`no-drop-markers`)
//! * 37 — unpaired spans (`lock-acquire-release-balance`)
//! * 38 — span duration (`lock-hold-bounded`)
//! * 39 — cadence (`heartbeat-cadence`)
//!
//! A clean trace passes the whole spec (exit 0), a missing `--spec` is a
//! usage error (exit 2), and an unreadable spec is an operational failure
//! (exit 1) — assertion verdicts never collide with those reserved codes.

use ktrace::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const BIN: &str = env!("CARGO_BIN_EXE_ktrace-tools");

fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("props/ktrace.toml")
}

/// Builds a one-CPU trace file whose events come from `build`, driven by a
/// manual clock so every fixture is deterministic.
fn write_trace(dir: &Path, name: &str, build: impl FnOnce(&TraceLogger, &ManualClock)) -> PathBuf {
    let clock = Arc::new(ManualClock::new(1_000, 1));
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .clock(clock.clone())
        .ncpus(1)
        .build()
        .unwrap();
    build(&logger, &clock);
    assert_eq!(
        logger.telemetry().snapshot().events_dropped(),
        0,
        "fixture {name} overran"
    );

    let path = dir.join(format!("{name}.ktrace"));
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
    path
}

fn run_assert(trace: &Path, extra: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN)
        .arg("assert")
        .arg(trace)
        .args(extra)
        .output()
        .expect("spawn ktrace-tools");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const LOCK_ACQUIRED: u16 = 2;
const LOCK_RELEASED: u16 = 3;
const CTRL_DROPPED: u16 = 2;
const CTRL_HEARTBEAT: u16 = 3;

#[test]
fn each_property_fires_with_its_own_exit_code() {
    let dir = std::env::temp_dir().join(format!("ktrace-assert-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = spec_path();
    let spec = spec.to_str().unwrap();

    // Clean: balanced short lock holds, steady heartbeats, no drops.
    let clean = write_trace(&dir, "clean", |l, c| {
        let h = l.handle(0).unwrap();
        for beat in 0..4u64 {
            h.log_slice(MajorId::CONTROL, CTRL_HEARTBEAT, &[beat]);
            h.log_slice(MajorId::LOCK, LOCK_ACQUIRED, &[0x10, 7]);
            h.log_slice(MajorId::LOCK, LOCK_RELEASED, &[0x10, 7]);
            c.advance(1_000_000_000); // one second between beats
        }
    });
    let (code, stdout, _) = run_assert(&clean, &["--spec", spec]);
    assert_eq!(code, 0, "clean trace must pass the full spec:\n{stdout}");
    assert_eq!(stdout.matches("PASS ").count(), 5, "{stdout}");
    assert!(stdout.contains("5 assertion(s) checked"), "{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");

    // 36: a drop marker in the stream violates the count bound.
    let dropped = write_trace(&dir, "dropped", |l, _| {
        let h = l.handle(0).unwrap();
        h.log_slice(MajorId::CONTROL, CTRL_DROPPED, &[5]);
    });
    let (code, stdout, _) = run_assert(&dropped, &["--spec", spec]);
    assert_eq!(code, 36, "{stdout}");
    assert!(stdout.contains("FAIL no-drop-markers"), "{stdout}");

    // 37: an acquire with no matching release leaves an unpaired span.
    let unpaired = write_trace(&dir, "unpaired", |l, _| {
        let h = l.handle(0).unwrap();
        h.log_slice(MajorId::LOCK, LOCK_ACQUIRED, &[0x10, 7]);
    });
    let (code, stdout, _) = run_assert(&unpaired, &["--spec", spec]);
    assert_eq!(code, 37, "{stdout}");
    assert!(
        stdout.contains("FAIL lock-acquire-release-balance"),
        "{stdout}"
    );

    // 38: a two-second hold (the clock jumps mid-span) breaks the duration
    // bound, while the span itself pairs cleanly.
    let held = write_trace(&dir, "held", |l, c| {
        let h = l.handle(0).unwrap();
        h.log_slice(MajorId::LOCK, LOCK_ACQUIRED, &[0x10, 7]);
        c.advance(2_000_000_000);
        h.log_slice(MajorId::LOCK, LOCK_RELEASED, &[0x10, 7]);
    });
    let (code, stdout, _) = run_assert(&held, &["--spec", spec]);
    assert_eq!(code, 38, "{stdout}");
    assert!(stdout.contains("FAIL lock-hold-bounded"), "{stdout}");
    assert!(
        stdout.contains("PASS lock-acquire-release-balance"),
        "{stdout}"
    );

    // 39: three seconds between heartbeats breaks the cadence bound.
    let stalled = write_trace(&dir, "stalled", |l, c| {
        let h = l.handle(0).unwrap();
        h.log_slice(MajorId::CONTROL, CTRL_HEARTBEAT, &[0]);
        c.advance(3_000_000_000);
        h.log_slice(MajorId::CONTROL, CTRL_HEARTBEAT, &[1]);
    });
    let (code, stdout, _) = run_assert(&stalled, &["--spec", spec]);
    assert_eq!(code, 39, "{stdout}");
    assert!(stdout.contains("FAIL heartbeat-cadence"), "{stdout}");

    // The salvage reader sees the same events in an intact file.
    let (code, stdout, _) = run_assert(&held, &["--spec", spec, "--salvage"]);
    assert_eq!(
        code, 38,
        "salvage path must reach the same verdict:\n{stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn operational_errors_stay_off_the_assertion_band() {
    let dir = std::env::temp_dir().join(format!("ktrace-assert-errs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = write_trace(&dir, "ok", |l, _| {
        let h = l.handle(0).unwrap();
        h.log_slice(MajorId::TEST, 0, &[1]);
    });

    // No --spec at all: usage error.
    let (code, _, _) = run_assert(&clean, &[]);
    assert_eq!(code, 2);

    // Unreadable spec: plain failure, never an assertion verdict.
    let (code, _, stderr) = run_assert(&clean, &["--spec", "/nonexistent/props.toml"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("cannot load spec"), "{stderr}");

    // Unreadable trace: same.
    let missing = dir.join("missing.ktrace");
    let out = Command::new(BIN)
        .args(["assert", missing.to_str().unwrap(), "--spec"])
        .arg(spec_path())
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}
