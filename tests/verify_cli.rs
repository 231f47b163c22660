//! Integration: `ktrace-tools verify` over real trace files — zero exit on
//! a clean simulator trace, distinct nonzero exits per corruption, the
//! race detector's verdicts on the racy / lock-disciplined counter twins,
//! and the lock-order pass on opposite orders and on consistent nesting.

use ktrace::events::lock;
use ktrace::ossim::workload::micro;
use ktrace::ossim::{KTracer, Machine, MachineConfig, Op, ProcessSpec, Program, Workload};
use ktrace::prelude::*;
use ktrace::verify::ViolationKind;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn make_trace(path: &Path, workload: ktrace::ossim::Workload) {
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
    machine.run(workload);
    assert!(session.finish().lossless());
}

fn verify(args: &[&str]) -> (String, Option<i32>) {
    let exe = env!("CARGO_BIN_EXE_ktrace-tools");
    let out = Command::new(exe)
        .arg("verify")
        .args(args)
        .output()
        .expect("run ktrace-tools verify");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code(),
    )
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ktrace-verify-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn lint_is_clean_on_simulator_trace_and_flags_corruptions() {
    let dir = temp_dir();
    let clean = dir.join("clean.ktrace");
    make_trace(&clean, micro::locked_counter(3, 8));

    let (out, code) = verify(&["lint", clean.to_str().unwrap()]);
    assert_eq!(code, Some(0), "clean trace must lint clean:\n{out}");
    assert!(out.contains("0 violation"), "{out}");

    let (out, code) = verify(&["all", clean.to_str().unwrap()]);
    assert_eq!(
        code,
        Some(0),
        "lock-disciplined trace must pass both passes:\n{out}"
    );

    // Truncate mid-record: distinct truncated-buffer exit code.
    let bytes = std::fs::read(&clean).unwrap();
    let cut = dir.join("truncated.ktrace");
    std::fs::write(&cut, &bytes[..bytes.len() - 5]).unwrap();
    let (_, code) = verify(&["lint", cut.to_str().unwrap()]);
    assert_eq!(
        code,
        Some(ViolationKind::TruncatedBuffer.exit_code() as i32)
    );

    // Zero an event header early in the first record: garbled commit.
    let mut garbled = bytes.clone();
    let n = garbled.len();
    // Zero 8 aligned bytes well inside the first record's data area.
    let (_, hdr_len) = ktrace::io::file::FileHeader::decode(&garbled).unwrap();
    let word0 = hdr_len + ktrace::io::file::RECORD_HEADER_BYTES + 3 * 8;
    assert!(word0 + 8 < n);
    garbled[word0..word0 + 8].fill(0);
    let garbled_path = dir.join("garbled.ktrace");
    std::fs::write(&garbled_path, &garbled).unwrap();
    let (_, code) = verify(&["lint", garbled_path.to_str().unwrap()]);
    assert_eq!(code, Some(ViolationKind::GarbledCommit.exit_code() as i32));
}

#[test]
fn race_detector_flags_racy_and_passes_locked_traces() {
    let dir = temp_dir();
    let racy = dir.join("racy.ktrace");
    make_trace(&racy, micro::racy_counter(3, 12));
    let (out, code) = verify(&["races", racy.to_str().unwrap()]);
    assert_eq!(
        code,
        Some(ViolationKind::DataRace.exit_code() as i32),
        "racy counter must be flagged:\n{out}"
    );
    assert!(out.contains("data-race"), "{out}");

    let locked = dir.join("locked.ktrace");
    make_trace(&locked, micro::locked_counter(3, 12));
    let (out, code) = verify(&["races", locked.to_str().unwrap()]);
    assert_eq!(code, Some(0), "lock-disciplined counter must pass:\n{out}");
    assert!(out.contains("0 race"), "{out}");
}

#[test]
fn lockorder_flags_opposite_orders_and_passes_consistent_nesting() {
    let dir = temp_dir();
    // Two threads take A then B, and later B then A, never overlapping:
    // the run did not hang, but it could have.
    let (a, b) = (0xa0, 0xb0);
    let inverted = dir.join("inverted.ktrace");
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .ncpus(1)
        .build()
        .unwrap();
    ktrace::events::register_all(&logger);
    let session = TraceSession::builder()
        .logger(logger.clone())
        .create(&inverted)
        .unwrap();
    let h = logger.handle(0).unwrap();
    for (tid, first, second) in [(1, a, b), (2, b, a)] {
        h.log_event(&lock::acquired(first, tid, 0, 0, 0));
        h.log_event(&lock::acquired(second, tid, 0, 0, 0));
        h.log_event(&lock::released(second, tid, 0));
        h.log_event(&lock::released(first, tid, 0));
    }
    assert!(session.finish().lossless());
    let (out, code) = verify(&["lockorder", inverted.to_str().unwrap()]);
    assert_eq!(
        code,
        Some(ViolationKind::LockOrderCycle.exit_code() as i32),
        "{out}"
    );
    assert!(
        out.contains("[lock-order-cycle] lock 0xa0 -> 0xb0 (tid 0x1) -> 0xa0 (tid 0x2)"),
        "{out}"
    );
    let (_, code) = verify(&["all", inverted.to_str().unwrap()]);
    assert_eq!(code, Some(34), "`all` runs the lock-order pass");

    // The user lock held across malloc, FS calls and page free: nested,
    // but always in one order.
    let nested = Program::new()
        .op(Op::UserLock { lock: 0 })
        .op(Op::Malloc { size: 4096 })
        .op(Op::FsOpen { path: 7 })
        .op(Op::FsClose { path: 7 })
        .op(Op::FreePages { pages: 2 })
        .op(Op::UserUnlock { lock: 0 });
    let mut workload = Workload::new(vec![
        ProcessSpec::new("nested-a", nested.clone()),
        ProcessSpec::new("nested-b", nested),
    ]);
    workload.user_locks = 1;
    let clean = dir.join("nested.ktrace");
    make_trace(&clean, workload);
    let (out, code) = verify(&["lockorder", clean.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("0 cycle(s)"), "{out}");
}

#[test]
fn usage_errors_exit_2() {
    let (_, code) = verify(&[]);
    assert_eq!(code, Some(2));
    let (_, code) = verify(&["frobnicate", "x.ktrace"]);
    assert_eq!(code, Some(2));
}
