//! End-to-end `ktrace-lint` CLI: exit-code contract and output formats.

use std::path::Path;
use std::process::Command;

fn lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ktrace-lint"))
        .args(args)
        .output()
        .expect("spawn ktrace-lint")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/srclint/tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn clean_workspace_exits_zero() {
    let out = lint(&["--root", env!("CARGO_MANIFEST_DIR")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 violation(s) -> exit 0"), "{stdout}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(lint(&["--frobnicate"]).status.code(), Some(2));
    assert_eq!(lint(&["--pass", "nonsense"]).status.code(), Some(2));
    assert_eq!(lint(&["--root"]).status.code(), Some(2));
    // The retired schema checks are compile errors now, not lint options.
    assert_eq!(lint(&["--deny-warnings"]).status.code(), Some(2));
    assert_eq!(lint(&["--pass", "schema"]).status.code(), Some(2));
    assert_eq!(lint(&["--pass", "idspace"]).status.code(), Some(2));
    // So are atomic orderings: the protocol roles are types.
    assert_eq!(lint(&["--pass", "atomics"]).status.code(), Some(2));
    // And so is `unsafe`: the workspace forbids `unsafe_code`.
    assert_eq!(lint(&["--pass", "unsafe"]).status.code(), Some(2));
}

#[test]
fn missing_inputs_exit_one() {
    let out = lint(&["--root", "/nonexistent/ktrace-workspace"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a workspace"));
    // A directory that exists but holds no `crates/` is not linted clean.
    let not_a_workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let out = lint(&["--root", &not_a_workspace.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a workspace"));
}

#[test]
fn each_pass_fails_with_its_distinct_code() {
    let out = lint(&["--root", &fixture("hotpath"), "--pass", "hotpath"]);
    assert_eq!(out.status.code(), Some(32));
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[hot-path-hazard]"));
}

#[test]
fn concurrency_passes_fail_with_their_distinct_codes() {
    let out = lint(&[
        "--root",
        &fixture("broken_lockorder"),
        "--pass",
        "lockorder",
    ]);
    assert_eq!(out.status.code(), Some(34));
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[lock-order-cycle]"));
}

#[test]
fn several_failing_passes_exit_lowest_and_are_all_listed() {
    // broken_multi trips hotpath (32) and lockorder (34): exit is the lower
    // code, and the report names both failing passes.
    let out = lint(&["--root", &fixture("broken_multi")]);
    assert_eq!(out.status.code(), Some(32));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("failing pass(es): hotpath, lockorder"),
        "{stdout}"
    );
}

#[test]
fn full_run_reports_the_most_severe_code() {
    // All passes on the hot-path fixture: the hot-path hazard (32) is the
    // code, matching ktrace-verify's min-code convention.
    let out = lint(&["--root", &fixture("hotpath")]);
    assert_eq!(out.status.code(), Some(32));
}

#[test]
fn json_output_is_structured() {
    let out = lint(&["--root", &fixture("broken_lockorder"), "--json"]);
    assert_eq!(out.status.code(), Some(34));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"violations\""));
    assert!(stdout.contains("\"kind\": \"lock-order-cycle\""));
    assert!(stdout.contains("\"exit_code\": 34"));
    assert!(stdout.trim_start().starts_with('{') && stdout.trim_end().ends_with('}'));
}
