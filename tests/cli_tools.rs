//! Integration: the `ktrace-tools` CLI over a real trace file.

use ktrace::ossim::workload::sdet;
use ktrace::ossim::{KTracer, Machine, MachineConfig};
use ktrace::prelude::*;
use std::process::Command;
use std::sync::Arc;

fn make_trace(path: &std::path::Path) {
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::default())
        .ncpus(2)
        .build()
        .unwrap();
    ktrace::events::register_all(&logger);
    let session = TraceSession::builder()
        .logger(logger.clone())
        .create(path)
        .unwrap();
    let machine = Machine::new(MachineConfig::fast_test(2), Arc::new(KTracer::new(logger)));
    machine.run(sdet::build(sdet::SdetConfig {
        scripts: 2,
        commands_per_script: 2,
        ..Default::default()
    }));
    assert!(session.finish().lossless());
}

fn tool(args: &[&str]) -> (String, bool) {
    let exe = env!("CARGO_BIN_EXE_ktrace-tools");
    let out = Command::new(exe).args(args).output().expect("run tool");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

fn tool_code(args: &[&str]) -> (String, i32) {
    let exe = env!("CARGO_BIN_EXE_ktrace-tools");
    let out = Command::new(exe).args(args).output().expect("run tool");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code().expect("exit code"),
    )
}

#[test]
fn cli_subcommands_work_on_a_real_file() {
    let dir = std::env::temp_dir().join(format!("ktrace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cli.ktrace");
    make_trace(&path);
    let p = path.to_str().unwrap();

    let (listing, ok) = tool(&["list", p, "5"]);
    assert!(ok);
    assert_eq!(listing.lines().count(), 5);
    assert!(listing.contains("TRACE_"), "{listing}");

    let (locks, ok) = tool(&["lockstat", p, "3"]);
    assert!(ok);
    assert!(locks.contains("top 3 contended locks"), "{locks}");

    let (stats, ok) = tool(&["stats", p]);
    assert!(ok);
    assert!(stats.contains("events/sec"));
    assert!(
        stats.contains(", 0 event(s) dropped to overrun\n"),
        "{stats}"
    );

    let (tl, ok) = tool(&["timeline", p, "40"]);
    assert!(ok);
    assert!(tl.contains("cpu0"));
    assert!(tl.contains("legend:"));

    let (lint, code) = tool_code(&["verify", "lint", p]);
    assert_eq!(code, 0, "{lint}");
    assert!(lint.contains(": 0 violation(s)"), "{lint}");

    let (csv, ok) = tool(&["export-csv", p]);
    assert!(ok);
    assert!(csv.starts_with("time_ns,cpu,"));
    assert!(csv.lines().count() > 10);

    let (dl, ok) = tool(&["deadlock", p]);
    assert!(ok);
    assert!(dl.contains("no deadlock cycle found"));

    let (_, ok) = tool(&["nonsense", p]);
    assert!(!ok, "unknown subcommand must fail");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_salvage_recovers_a_truncated_file() {
    let dir = std::env::temp_dir().join(format!("ktrace-cli-salvage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("whole.ktrace");
    make_trace(&path);
    let p = path.to_str().unwrap();

    // A clean file salvages with exit 0.
    let (out, code) = tool_code(&["salvage", p]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("salvage"), "{out}");

    // Cut the tail off: strict tools refuse it, salvage exits 10
    // (truncated-buffer) and a repaired copy loads strictly again.
    let bytes = std::fs::read(&path).unwrap();
    let cut = dir.join("cut.ktrace");
    std::fs::write(&cut, &bytes[..bytes.len() - bytes.len() / 3]).unwrap();
    let cutp = cut.to_str().unwrap();
    let (_, ok) = tool(&["stats", cutp]);
    assert!(!ok, "the strict loader must refuse a truncated file");

    let fixed = dir.join("fixed.ktrace");
    let fixedp = fixed.to_str().unwrap();
    let (out, code) = tool_code(&["salvage", cutp, fixedp]);
    assert_eq!(code, 10, "truncated-buffer exit code expected: {out}");
    assert!(out.contains("truncated-buffer"), "{out}");
    assert!(out.contains("repaired file written"), "{out}");

    let (stats, ok) = tool(&["stats", fixedp]);
    assert!(ok, "the repaired file must load strictly: {stats}");

    std::fs::remove_dir_all(&dir).ok();
}
