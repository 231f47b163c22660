//! `ktrace-srclint` — source-level instrumentation linter for the ktrace
//! workspace.
//!
//! The dynamic verifier (`ktrace-verify`) checks what a trace *stream* says
//! after the fact; this crate checks what the *source* promises before
//! anything runs. Two passes, each with its own exit code from the shared
//! table in `ktrace_verify::ViolationKind`:
//!
//! | pass        | exit | checks                                                  |
//! |-------------|------|---------------------------------------------------------|
//! | `hotpath`   | 32   | no allocation/blocking/I-O reachable from the lockless  |
//! |             |      | logging path                                            |
//! | `lockorder` | 34   | static lock-acquisition graph is cycle-free             |
//!
//! Three contracts are not lints but build errors. Whether a logging call
//! agrees with its event's declaration: `ktrace_events::ktrace_event!`
//! generates one typed emitter per event, so a wrong major, minor or arity
//! fails to compile. Whether an atomic keeps its memory-ordering protocol: each
//! atomic is a `ktrace_format::protocol` role type whose methods fix the
//! orderings, so a forbidden one fails to compile. Whether `unsafe` is
//! used at all: the workspace forbids `unsafe_code`, the clock's one
//! ordered TSC read is the only `#[allow]`, and clippy's
//! `undocumented_unsafe_blocks` wants its `// SAFETY:` comment. Codes 30,
//! 31, 33 and 35, which the retired `schema`, `idspace`, `atomics` and
//! `unsafe` passes used, stay reserved.
//!
//! Everything is built on a hand-rolled lexer ([`lexer`]) — no `syn`, no
//! network — so the linter runs in the same offline sandbox as the rest of
//! the workspace.

pub mod hotpath;
pub mod lexer;
pub mod lockorder;
pub mod report;

pub use ktrace_verify::exit;
pub use report::{Finding, LintReport, LintStats, ViolationKind};

use std::io;
use std::path::{Path, PathBuf};

/// Which passes to run. All on by default.
#[derive(Debug, Clone, Copy)]
pub struct PassSet {
    pub hotpath: bool,
    pub lockorder: bool,
}

impl Default for PassSet {
    fn default() -> PassSet {
        PassSet {
            hotpath: true,
            lockorder: true,
        }
    }
}

impl PassSet {
    /// Enables exactly one pass by name. Returns `false` for unknown names.
    pub fn enable(&mut self, name: &str) -> bool {
        match name {
            "hotpath" => self.hotpath = true,
            "lockorder" => self.lockorder = true,
            _ => return false,
        }
        true
    }

    /// All passes disabled; combine with [`PassSet::enable`].
    pub fn none() -> PassSet {
        PassSet {
            hotpath: false,
            lockorder: false,
        }
    }
}

/// Linter configuration.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Workspace root (the directory containing `crates/`).
    pub root: PathBuf,
    /// Passes to run.
    pub passes: PassSet,
}

impl LintOptions {
    /// Default options rooted at `root`: all passes.
    pub fn new(root: impl Into<PathBuf>) -> LintOptions {
        LintOptions {
            root: root.into(),
            passes: PassSet::default(),
        }
    }
}

/// Files whose functions form the hot-path call graph.
const HOTPATH_FILES: &[&str] = &[
    "crates/clock/src/source.rs",
    "crates/core/src/logger.rs",
    "crates/core/src/region.rs",
    "crates/core/src/sample.rs",
    "crates/format/src/mask.rs",
    "crates/format/src/protocol.rs",
    "crates/telemetry/src/counters.rs",
];

/// Runs the configured passes over the workspace at `opts.root`.
///
/// Returns `Err` only when `opts.root` is not a workspace (it has no
/// readable `crates/` directory) — the CLI maps that to exit 1, distinct
/// from any violation code, rather than linting nothing and passing.
pub fn lint_workspace(opts: &LintOptions) -> io::Result<LintReport> {
    let crates = opts.root.join("crates");
    std::fs::read_dir(&crates).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("not a workspace: {} unreadable: {e}", crates.display()),
        )
    })?;
    let mut report = LintReport::new();
    if opts.passes.hotpath {
        let mut files = Vec::new();
        for rel in HOTPATH_FILES {
            if let Ok(src) = std::fs::read_to_string(opts.root.join(rel)) {
                report.stats.files_scanned += 1;
                files.push((rel.to_string(), src));
            }
        }
        let (findings, walked) = hotpath::hotpath_pass(&files);
        report.stats.hot_fns_walked = walked;
        for f in findings {
            report.push(ViolationKind::HotPathHazard, &f.file, f.line, f.detail);
        }
    }
    if opts.passes.lockorder {
        let mut files = Vec::new();
        for rel in workspace_source_files(&opts.root) {
            if let Ok(src) = std::fs::read_to_string(opts.root.join(&rel)) {
                files.push((rel, src));
            }
        }
        lockorder::lockorder_pass(&files, &mut report);
    }

    Ok(report)
}

/// Every `.rs` file under `crates/*/src` and `src/` in the workspace at
/// `root`, as sorted root-relative forward-slash paths. The lock-order
/// pass walks the whole workspace rather than a curated file list: a lock
/// acquired anywhere can deadlock.
pub fn workspace_source_files(root: &Path) -> Vec<String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            collect_rs_files(&entry.path().join("src"), &mut paths);
        }
    }
    collect_rs_files(&root.join("src"), &mut paths);
    let mut rels: Vec<String> = paths
        .iter()
        .map(|p| {
            p.strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    rels.sort();
    rels
}

/// Recursively collects `.rs` files under `dir` (silently skips missing
/// directories — not every workspace has every scanned crate).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_set_enables_by_name() {
        let mut p = PassSet::none();
        assert!(!p.hotpath && !p.lockorder);
        assert!(p.enable("hotpath"));
        assert!(p.enable("lockorder"));
        assert!(!p.enable("nonsense"));
        // The retired passes are unknown names now.
        assert!(!p.enable("schema"));
        assert!(!p.enable("idspace"));
        assert!(!p.enable("atomics"));
        assert!(!p.enable("unsafe"));
        assert!(p.hotpath && p.lockorder);
    }

    #[test]
    fn missing_inputs_error_out() {
        let opts = LintOptions::new("/nonexistent/workspace");
        let err = lint_workspace(&opts).unwrap_err();
        assert!(err.to_string().contains("not a workspace"), "{err}");
        // Every pass set refuses, not only the default one.
        let mut hot = LintOptions::new("/nonexistent/workspace");
        hot.passes = PassSet::none();
        assert!(hot.passes.enable("hotpath"));
        assert!(lint_workspace(&hot).is_err());
    }
}
