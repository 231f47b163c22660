//! `ktrace-lint` — source-level instrumentation linting.
//!
//! ```text
//! ktrace-lint [--root DIR] [--json] [--pass NAME]...
//! ```
//!
//! Runs the static passes over the workspace at `--root` (default: the
//! current directory). `--pass hotpath|lockorder` restricts the run
//! to the named pass(es); repeat the flag to combine.
//!
//! Exit codes: 0 clean, 1 `--root` is not a workspace (no readable
//! `crates/`), 2 usage; otherwise the distinct code of the most severe
//! violation class found — the *lowest* code when several passes fail, with
//! every failing pass listed in the report — drawn from the same table as
//! `ktrace-verify` (`ktrace_verify::ViolationKind::exit_code`): 32 hot-path
//! hazard, 34 lock-order cycle. Event schema agreement, atomic memory
//! orderings and `unsafe` are checked by the compiler, through the typed
//! emitters `ktrace_event!` generates, the `ktrace_format::protocol` role
//! types and the workspace's `unsafe_code = "forbid"`; 30, 31, 33 and 35
//! stay reserved.

use ktrace::exit;
use ktrace::srclint::{lint_workspace, LintOptions, PassSet};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: ktrace-lint [--root DIR] [--json] [--pass <hotpath|lockorder>]...");
    ExitCode::from(exit::USAGE)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut passes: Option<PassSet> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(dir) = args.next() else {
                    return usage();
                };
                root = PathBuf::from(dir);
            }
            "--json" => json = true,
            "--pass" => {
                let Some(name) = args.next() else {
                    return usage();
                };
                let set = passes.get_or_insert_with(PassSet::none);
                if !set.enable(&name) {
                    return usage();
                }
            }
            _ => return usage(),
        }
    }

    let opts = LintOptions {
        root,
        passes: passes.unwrap_or_default(),
    };
    let report = match lint_workspace(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ktrace-lint: {e}");
            return ExitCode::from(exit::UNREADABLE);
        }
    };
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    ExitCode::from(report.exit_code())
}
