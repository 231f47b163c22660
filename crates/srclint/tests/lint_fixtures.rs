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
fn several_failing_passes_exit_with_the_most_severe_code() {
    // broken_multi trips hotpath (32) and lockorder (34) together: the exit
    // code is the *lowest* failing code and both passes are listed.
    let root = fixture("broken_multi");
    let report = lint_workspace(&LintOptions::new(root)).unwrap();
    assert_eq!(report.exit_code(), 32);
    assert_eq!(
        report.kinds(),
        vec![ViolationKind::HotPathHazard, ViolationKind::LockOrderCycle]
    );
    assert_eq!(report.failing_passes(), vec!["hotpath", "lockorder"]);
    let rendered = report.render();
    assert!(
        rendered.contains("failing pass(es): hotpath, lockorder"),
        "{rendered}"
    );
}

#[test]
fn broken_fixtures_stay_isolated_to_their_pass() {
    // Running the OTHER pass over each fixture finds nothing: each tree is
    // broken in exactly one dimension.
    let r = lint_workspace(&one_pass(fixture("broken_lockorder"), "hotpath")).unwrap();
    assert!(r.findings.is_empty(), "broken_lockorder: {:#?}", r.findings);
    for old in ["hotpath", "telemetry_hotpath"] {
        let r = lint_workspace(&one_pass(fixture(old), "lockorder")).unwrap();
        assert!(r.findings.is_empty(), "{old}: {:#?}", r.findings);
    }
}

#[test]
fn the_workspace_itself_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&LintOptions::new(root)).unwrap();
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.exit_code(), 0);
    assert!(report.stats.hot_fns_walked > 0);
    // The lock-order pass genuinely ran — and clean means clean: the real
    // lock graph is acyclic.
    assert!(report.stats.lock_classes >= 8, "{:?}", report.stats);
    assert!(report.stats.lock_edges >= 3, "{:?}", report.stats);
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

/// The lines of `manifest`'s `[name]` table, up to the next table header.
fn toml_table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != name)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn unsafe_code_is_a_build_error_outside_the_clock_read() {
    // The compiler owns `unsafe`: the workspace forbids it, every member but
    // the clock inherits that, and the clock denies it everywhere except one
    // `#[allow]` on its ordered TSC read, which clippy holds to a
    // `// SAFETY:` comment.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &Path| std::fs::read_to_string(p).unwrap();
    let inherits = |m: &str| toml_table(m, "[lints]").contains(&"workspace = true");

    let workspace = read(&root.join("Cargo.toml"));
    assert!(toml_table(&workspace, "[workspace.lints.rust]").contains(&"unsafe_code = \"forbid\""));
    assert!(
        inherits(&workspace),
        "the root package must inherit the workspace lints"
    );

    let mut members = 0;
    for entry in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        let manifest = read(&entry.path().join("Cargo.toml"));
        if entry.file_name() == "clock" {
            assert!(!inherits(&manifest));
            assert!(toml_table(&manifest, "[lints.rust]").contains(&"unsafe_code = \"deny\""));
            assert!(toml_table(&manifest, "[lints.clippy]")
                .contains(&"undocumented_unsafe_blocks = \"deny\""));
        } else {
            assert!(
                inherits(&manifest),
                "{:?} must inherit the workspace lints",
                entry.path()
            );
            members += 1;
        }
    }
    assert!(members >= 16, "{members}");

    // Spelled in two halves so this file does not count itself.
    let allow = concat!("allow(", "unsafe_code)");
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut sites = Vec::new();
    for file in files {
        let src = read(&file);
        for (at, _) in src.match_indices(allow) {
            let next_fn = src[at..].split("fn ").nth(1).unwrap_or("");
            let name: String = next_fn
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let rel = file
                .strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            sites.push((rel, name));
        }
    }
    assert_eq!(
        sites,
        vec![(
            "crates/clock/src/source.rs".to_string(),
            "rdtsc_ordered".to_string()
        )]
    );
}

#[test]
fn json_report_carries_the_shared_labels() {
    let report = lint_workspace(&one_pass(fixture("broken_lockorder"), "lockorder")).unwrap();
    let json = report.to_json();
    assert!(json.contains("\"kind\": \"lock-order-cycle\""));
    assert!(json.contains("\"exit_code\": 34"));
    assert!(json.contains("crates/sync/src/lib.rs"));
}
