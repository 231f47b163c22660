//! `ktrace-bench` is one binary over one table: every experiment has one
//! name, and a name the table does not hold is a usage error that runs
//! nothing.

use ktrace_bench::EXPERIMENTS;
use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn experiment_names_are_unique_and_an_unknown_one_is_a_usage_error() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    assert_eq!(EXPERIMENTS.len(), 16);
    assert!(!names.contains("all"), "`all` is the CLI's, not a row's");
    // The two gates CI runs by name.
    assert!(names.contains("telemetry_gate") && names.contains("adapt_gate"));

    let out = Command::new(env!("CARGO_BIN_EXE_ktrace-bench"))
        .arg("no_such_experiment")
        .output()
        .expect("run ktrace-bench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let usage = String::from_utf8(out.stderr).unwrap();
    assert!(usage.starts_with("usage: ktrace-bench [all|"), "{usage}");
    for name in names {
        assert!(usage.contains(name), "usage line omits {name}: {usage}");
    }
}
