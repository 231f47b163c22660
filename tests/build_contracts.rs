//! Contracts the build enforces, pinned so none can be dropped quietly:
//! `unsafe` is a compile error outside the clock's one TSC read, every
//! capture-path atomic is a protocol role, the simulators log through the
//! generated emitters, and the logging path is a `no_std` crate that cannot
//! allocate.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `.rs` files under the repository-relative `dir`, as relative paths.
fn rust_files_in(dir: &str) -> Vec<String> {
    let mut files = Vec::new();
    rust_files(&root().join(dir), &mut files);
    let mut rel: Vec<String> = files
        .iter()
        .map(|f| {
            f.strip_prefix(root())
                .unwrap()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    rel.sort();
    rel
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

#[test]
fn unsafe_code_is_a_build_error_outside_the_clock_read() {
    // The compiler owns `unsafe`: the workspace forbids it, every member but
    // the clock inherits that, and the clock denies it everywhere except one
    // `#[allow]` on its ordered TSC read, which clippy holds to a
    // `// SAFETY:` comment.
    let inherits = |m: &str| toml_table(m, "[lints]").contains(&"workspace = true");

    let workspace = read(&root().join("Cargo.toml"));
    assert!(toml_table(&workspace, "[workspace.lints.rust]").contains(&"unsafe_code = \"forbid\""));
    assert!(
        inherits(&workspace),
        "the root package must inherit the workspace lints"
    );

    let mut members = 0;
    for entry in std::fs::read_dir(root().join("crates")).unwrap().flatten() {
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
    let mut sites = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for file in rust_files_in(dir) {
            let src = read(&root().join(&file));
            for (at, _) in src.match_indices(allow) {
                let next_fn = src[at..].split("fn ").nth(1).unwrap_or("");
                let name: String = next_fn
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                sites.push((file.clone(), name));
            }
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
fn real_atomics_carry_no_blanket_escapes() {
    // Every atomic on the capture path, the drain session, the collector
    // and the simulated kernel's lock is a `ktrace_lockless::protocol`
    // role: no other file there names `sync::atomic`, whose every operation
    // takes an `Ordering`, so no atomic can sidestep its role's contract.
    let mut guarded: Vec<String> = [
        "crates/collectd/src",
        "crates/core/src",
        "crates/format/src",
        "crates/io/src",
        "crates/lockless/src",
        "crates/telemetry/src",
    ]
    .iter()
    .flat_map(|dir| rust_files_in(dir))
    .collect();
    guarded.push("crates/ossim/src/lock.rs".to_string());
    assert!(guarded.len() > 10, "{guarded:?}");
    assert!(guarded.contains(&"crates/lockless/src/protocol.rs".to_string()));
    for file in guarded {
        let src = read(&root().join(&file));
        if file != "crates/lockless/src/protocol.rs" {
            assert!(
                !src.contains("sync::atomic") && !src.contains("atomic::"),
                "{file} bypasses the protocol roles"
            );
        }
    }
}

/// Every `.log*(`/`.emit(` call in `src` whose major argument (first, or
/// second after a CPU) is a `MajorId::` constant named in `declared`.
fn untyped_logs(src: &str, declared: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    for (at, _) in src.match_indices('.') {
        let rest = &src[at + 1..];
        let name_len = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..name_len];
        let is_log = matches!(name, "log" | "log_slice" | "try_log" | "emit")
            || (name.len() == 4
                && name.starts_with("log")
                && matches!(name.as_bytes()[3], b'0'..=b'6'));
        let Some(args) = rest[name_len..].strip_prefix('(') else {
            continue;
        };
        if !is_log {
            continue;
        }
        let mut args = args.trim_start();
        // An optional first argument (the CPU) before the major.
        let word_len = args
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(args.len());
        if word_len > 0 {
            if let Some(after) = args[word_len..].strip_prefix(',') {
                args = after.trim_start();
            }
        }
        if let Some(major) = args.strip_prefix("MajorId::") {
            let id_len = major
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(major.len());
            if declared.contains(&&major[..id_len]) {
                found.push(rest.chars().take(60).collect());
            }
        }
    }
    found
}

#[test]
fn simulators_log_through_emitters() {
    // The simulators log a declared event only through its generated
    // emitter (`sched::ctx_switch(…)`), never as a raw `(major, minor,
    // payload)` call, so the declaration fixes its arity and minor.
    let declared = [
        "SCHED",
        "PROC",
        "SYSCALL",
        "EXCEPTION",
        "MEM",
        "LOCK",
        "IPC",
        "FS",
        "USER",
        "PROF",
        "HWPERF",
    ];
    assert_eq!(
        untyped_logs("h.log(\n    0, MajorId::SCHED, 1, &[])", &declared).len(),
        1,
        "the scan spans lines"
    );
    assert_eq!(
        untyped_logs("x.log_slice(MajorId::TEST, 1, &[])", &declared).len(),
        0
    );
    let mut files = rust_files_in("crates/ossim/src");
    files.extend(rust_files_in("crates/vsim/src"));
    assert!(files.len() > 5, "{files:?}");
    for file in files {
        let calls = untyped_logs(&read(&root().join(&file)), &declared);
        assert!(
            calls.is_empty(),
            "{file} logs without an emitter: {calls:?}"
        );
    }
}

#[test]
fn the_logging_path_crate_is_no_std_without_alloc() {
    // `ktrace-lockless` holds everything a log call runs. Without `std` or
    // `alloc` an allocation, a lock or I/O there fails `cargo build`, and
    // the clippy denies make an `unwrap`, `expect` or `panic!` fail clippy.
    let lib = read(&root().join("crates/lockless/src/lib.rs"));
    assert!(
        lib.lines().any(|l| l.trim() == "#![no_std]"),
        "no #![no_std]"
    );
    assert!(
        lib.lines().any(
            |l| l.trim() == "#![deny(clippy::panic, clippy::unwrap_used, clippy::expect_used)]"
        ),
        "the clippy deny line is gone"
    );
    let files = rust_files_in("crates/lockless/src");
    assert!(files.len() >= 6, "{files:?}");
    let alloc = concat!("extern crate ", "alloc");
    let std = concat!("extern crate ", "std");
    for file in &files {
        let text = read(&root().join(file));
        assert!(!text.contains(alloc), "{file} links alloc");
        // `std` may come back for the crate's own tests only.
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        for (i, line) in lines.iter().enumerate() {
            if line.contains(std) {
                assert!(
                    i > 0 && lines[i - 1] == "#[cfg(test)]",
                    "{file}:{}: `{line}` outside #[cfg(test)]",
                    i + 1
                );
            }
        }
    }
    let manifest = read(&root().join("crates/lockless/Cargo.toml"));
    assert!(
        !manifest
            .lines()
            .any(|l| l.trim().ends_with("dependencies]")),
        "ktrace-lockless must have no dependencies:\n{manifest}"
    );
}
