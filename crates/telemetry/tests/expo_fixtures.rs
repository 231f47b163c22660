//! The two Prometheus expositions of one fully populated snapshot, byte for
//! byte.
//!
//! The fixtures under `tests/fixtures/` were rendered by the hand-written,
//! field-by-field exposition code that preceded the counter tables; the
//! table-driven renderers must reproduce them exactly — metric order,
//! `# HELP` strings, label order, the irregular names. Adding a counter row
//! changes them by that counter's family and nothing else; after an
//! intentional change regenerate with
//! `KTRACE_BLESS=1 cargo test -p ktrace-telemetry --test expo_fixtures`.

use ktrace_telemetry::{to_prometheus, to_prometheus_labeled, CpuTelemetry, TelemetrySnapshot};
use std::path::PathBuf;

/// Two CPUs, every counter a distinct non-zero value (row `i` of a block is
/// `base + i + 1`, so a new row moves no other value), both histograms
/// non-empty.
fn populated() -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    for cpu in 0..2u64 {
        let mut c = CpuTelemetry {
            cpu: cpu as usize,
            ..CpuTelemetry::default()
        };
        for (i, (_, v)) in c.rows_mut().enumerate() {
            *v = 100 * (cpu + 1) + i as u64 + 1;
        }
        c.reserve_wait[0] = 3 + cpu;
        c.reserve_wait[3] = 5;
        c.reserve_wait[31] = 1;
        c.reserve_wait_sum = 7000 + cpu;
        snap.per_cpu.push(c);
    }
    for (i, (_, v)) in snap.sink.rows_mut().enumerate() {
        *v = 1001 + i as u64;
    }
    snap.sink.drain_write[1] = 2;
    snap.sink.drain_write[10] = 9;
    snap.sink.drain_write_sum = 8000;
    for (i, (_, v)) in snap.salvage.rows_mut().enumerate() {
        *v = 2001 + i as u64;
    }
    snap
}

fn assert_matches_fixture(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var("KTRACE_BLESS").is_ok() {
        std::fs::write(&path, rendered).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("fixture missing: run with KTRACE_BLESS=1 to create it");
    assert_eq!(
        rendered, expected,
        "{name} drifted from the committed fixture; if the change is \
         intentional, regenerate with KTRACE_BLESS=1"
    );
}

#[test]
fn prometheus_matches_the_committed_fixture() {
    assert_matches_fixture("snapshot.prom", &to_prometheus(&populated()));
}

#[test]
fn labeled_prometheus_matches_the_committed_fixture() {
    let hostile = [("node", "a\"b\\c\nd")];
    assert_matches_fixture(
        "snapshot_labeled.prom",
        &to_prometheus_labeled(&populated(), &hostile),
    );
}
