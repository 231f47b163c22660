//! Each broken fixture tree must trip exactly its pass, with the pass's
//! distinct exit code from the shared `ViolationKind` table — and the real
//! workspace must lint clean.

use ktrace_srclint::{lint_workspace, workspace_source_files, LintOptions, PassSet, ViolationKind};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn one_pass(root: PathBuf, pass: &str) -> LintOptions {
    let mut passes = PassSet::none();
    assert!(passes.enable(pass));
    LintOptions { root, passes }
}

#[test]
fn hotpath_fixture_exits_32() {
    let report = lint_workspace(&one_pass(fixture("hotpath"), "hotpath")).unwrap();
    assert_eq!(report.exit_code(), 32);
    assert_eq!(report.kinds(), vec![ViolationKind::HotPathHazard]);

    let details: Vec<&str> = report.findings.iter().map(|f| f.detail.as_str()).collect();
    assert!(details
        .iter()
        .any(|d| d.contains("heap-allocating macro") && d.contains("`log`")));
    assert!(details
        .iter()
        .any(|d| d.contains("blocking lock") && d.contains("`log`")));
    assert!(details
        .iter()
        .any(|d| d.contains("blocking thread call") && d.contains("`reserve`")));
    assert!(
        details
            .iter()
            .any(|d| d.contains("heap-allocating type constructor")),
        "{details:#?}"
    );
    // The annotated slow path must be suppressed.
    assert!(
        !details.iter().any(|d| d.contains("log_fields")),
        "{details:#?}"
    );
}

#[test]
fn telemetry_tally_fixture_exits_32() {
    // The lint must walk *across the crate boundary*: the roots live in
    // `crates/core/src/region.rs`, the allocating tallies in
    // `crates/telemetry/src/counters.rs`. An allocating counter reachable
    // from `reserve` is a hot-path hazard like any other.
    let report = lint_workspace(&one_pass(fixture("telemetry_hotpath"), "hotpath")).unwrap();
    assert_eq!(report.exit_code(), 32);
    assert_eq!(report.kinds(), vec![ViolationKind::HotPathHazard]);

    let details: Vec<&str> = report.findings.iter().map(|f| f.detail.as_str()).collect();
    assert!(
        details
            .iter()
            .any(|d| d.contains("heap-allocating method") && d.contains("`tally_event`")),
        "{details:#?}"
    );
    assert!(
        details
            .iter()
            .any(|d| d.contains("blocking lock") && d.contains("`tally_event`")),
        "{details:#?}"
    );
    assert!(
        details
            .iter()
            .any(|d| d.contains("heap-allocating macro") && d.contains("`observe_reserve_wait`")),
        "{details:#?}"
    );
    // Every tally finding is attributed to the telemetry file and to a
    // reservation root, proving reachability through `tally()`.
    assert!(report
        .findings
        .iter()
        .filter(|f| f.file.contains("telemetry"))
        .all(|f| f.detail.contains("reachable from hot-path root")));
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.file == "crates/telemetry/src/counters.rs"),
        "{:#?}",
        report.findings
    );
}

#[test]
fn real_telemetry_counters_are_walked_and_clean_without_escapes() {
    // The shipped counter blocks must pass the hot-path pass on their own
    // merits: no `allow(hot-path)` opt-outs anywhere in the file.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let counters = std::fs::read_to_string(root.join("crates/telemetry/src/counters.rs")).unwrap();
    assert!(
        !counters.contains("allow(hot-path)"),
        "telemetry counters must be hot-path clean without lint escapes"
    );

    let report = lint_workspace(&one_pass(root, "hotpath")).unwrap();
    assert!(report.is_clean(), "{}", report.render());
    // The walk includes the telemetry file: all 7 hot-path files (clock
    // source, logger, region, mask, protocol roles, sample, counters).
    assert_eq!(report.stats.files_scanned, 7);
    assert!(report.stats.hot_fns_walked > 0);
}

#[test]
fn lockorder_fixture_exits_34() {
    let report = lint_workspace(&one_pass(fixture("broken_lockorder"), "lockorder")).unwrap();
    assert_eq!(report.exit_code(), 34);
    assert_eq!(report.kinds(), vec![ViolationKind::LockOrderCycle]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let d = &report.findings[0].detail;
    assert!(d.contains("lock-order cycle"), "{d}");
    assert!(d.contains("checking") && d.contains("savings"), "{d}");
    assert_eq!(report.stats.lock_classes, 2);
    assert_eq!(report.stats.lock_edges, 2);
}

#[test]
fn unsafe_fixture_exits_35() {
    let report = lint_workspace(&one_pass(fixture("broken_unsafe"), "unsafe")).unwrap();
    assert_eq!(report.exit_code(), 35);
    assert_eq!(report.kinds(), vec![ViolationKind::UnsafeUnjustified]);

    let details: Vec<&str> = report.findings.iter().map(|f| f.detail.as_str()).collect();
    assert!(details
        .iter()
        .any(|d| d.contains("unsafe block") && d.contains("SAFETY")));
    assert!(details
        .iter()
        .any(|d| d.contains("unsafe fn") && d.contains("# Safety")));
    // The justified twins draw nothing: exactly the two bare sites.
    assert_eq!(report.findings.len(), 2, "{details:#?}");
    // Census counts all four unsafe regions, justified or not.
    assert_eq!(report.stats.unsafe_blocks, 4);
    assert_eq!(report.stats.unsafe_hot, 0);
}

#[test]
fn several_failing_passes_exit_with_the_most_severe_code() {
    // broken_multi trips lockorder (34) and unsafe (35) together: the exit
    // code is the *lowest* failing code and both passes are listed.
    let root = fixture("broken_multi");
    let report = lint_workspace(&LintOptions::new(root)).unwrap();
    assert_eq!(report.exit_code(), 34);
    assert_eq!(
        report.kinds(),
        vec![
            ViolationKind::LockOrderCycle,
            ViolationKind::UnsafeUnjustified
        ]
    );
    assert_eq!(report.failing_passes(), vec!["lockorder", "unsafe"]);
    let rendered = report.render();
    assert!(
        rendered.contains("failing pass(es): lockorder, unsafe"),
        "{rendered}"
    );
}

#[test]
fn broken_fixtures_stay_isolated_to_their_pass() {
    // Running the OTHER passes over each fixture finds nothing: each tree is
    // broken in exactly one dimension. The two concurrency fixtures are
    // checked against every other pass, and find nothing in each other.
    for (broken, its_pass) in [
        ("broken_lockorder", "lockorder"),
        ("broken_unsafe", "unsafe"),
    ] {
        for pass in ["hotpath", "lockorder", "unsafe"] {
            if pass == its_pass {
                continue;
            }
            let r = lint_workspace(&one_pass(fixture(broken), pass)).unwrap();
            assert!(
                r.findings.is_empty(),
                "{broken} vs {pass}: {:#?}",
                r.findings
            );
        }
    }
    // And the hot-path fixtures are clean under the two concurrency passes.
    for old in ["hotpath", "telemetry_hotpath"] {
        for pass in ["lockorder", "unsafe"] {
            let r = lint_workspace(&one_pass(fixture(old), pass)).unwrap();
            assert!(r.findings.is_empty(), "{old} vs {pass}: {:#?}", r.findings);
        }
    }
}

#[test]
fn the_workspace_itself_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&LintOptions::new(root)).unwrap();
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.exit_code(), 0);
    assert!(report.stats.hot_fns_walked > 0);
    // Both concurrency passes genuinely ran — and clean means clean: the
    // real lock graph acyclic, and one unsafe block in the workspace:
    // `SyncClock`'s ordered TSC read (`rdtsc_ordered` in
    // `crates/clock/src/source.rs`), on the hot path.
    assert!(report.stats.lock_classes >= 8, "{:?}", report.stats);
    assert!(report.stats.lock_edges >= 3, "{:?}", report.stats);
    assert_eq!(report.stats.unsafe_blocks, 1, "{:?}", report.stats);
    assert_eq!(report.stats.unsafe_hot, 1, "{:?}", report.stats);
}

#[test]
fn real_atomics_carry_no_blanket_escapes() {
    // Every atomic on the capture path and in the simulated kernel's lock is
    // a `ktrace_format::protocol` role: no other file there names
    // `std::sync::atomic`, whose every operation takes an `Ordering`, so no
    // atomic can sidestep its role's contract.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let guarded: Vec<String> = workspace_source_files(&root)
        .into_iter()
        .filter(|f| {
            [
                "crates/core/src/",
                "crates/format/src/",
                "crates/telemetry/src/",
            ]
            .iter()
            .any(|dir| f.starts_with(dir))
                || f == "crates/ossim/src/lock.rs"
        })
        .collect();
    assert!(guarded.len() > 10, "{guarded:?}");
    for file in guarded {
        let src = std::fs::read_to_string(root.join(&file)).unwrap();
        if file != "crates/format/src/protocol.rs" {
            assert!(
                !src.contains("sync::atomic") && !src.contains("atomic::"),
                "{file} bypasses the protocol roles"
            );
        }
    }
}

#[test]
fn json_report_carries_the_shared_labels() {
    let report = lint_workspace(&one_pass(fixture("broken_unsafe"), "unsafe")).unwrap();
    let json = report.to_json();
    assert!(json.contains("\"kind\": \"unsafe-unjustified\""));
    assert!(json.contains("\"exit_code\": 35"));
    assert!(json.contains("crates/sync/src/lib.rs"));
}
