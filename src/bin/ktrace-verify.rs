//! `ktrace-verify` — trace-stream integrity linting, race detection and
//! lock-order checking.
//!
//! ```text
//! ktrace-verify lint <file>       check stream invariants (monotonicity,
//!                                 filler alignment, lengths, commit counts,
//!                                 registry consistency)
//! ktrace-verify races <file>      lockset + happens-before race detection
//!                                 over the stream's MEM access annotations
//! ktrace-verify lockorder <file>  lock-order cycles (potential deadlocks)
//!                                 over the stream's LOCK events
//! ktrace-verify all <file>        all three passes
//! ```
//!
//! Exit codes: 0 clean, 1 unreadable input, 2 usage; otherwise the distinct
//! code of the most severe violation class found (see
//! `ktrace_verify::ViolationKind::exit_code` — e.g. 10 truncated buffer,
//! 12 non-monotonic timestamp, 13 undeclared event, 20 data race, 34
//! lock-order cycle), so scripted runs can tell *which* invariant broke
//! without parsing output.

use ktrace::exit;
use ktrace::verify::{lint_file, lock_order_in_file, races_in_file, Report};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: ktrace-verify <lint|races|lockorder|all> <trace-file>");
    ExitCode::from(exit::USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) if args.len() == 2 => (c.as_str(), p.as_str()),
        _ => return usage(),
    };
    if !matches!(cmd, "lint" | "races" | "lockorder" | "all") {
        return usage();
    }

    let mut report = Report::new();
    if matches!(cmd, "lint" | "all") {
        match lint_file(path) {
            Ok(r) => {
                print!("{}", r.render());
                report.merge(r);
            }
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(exit::UNREADABLE);
            }
        }
    }
    if matches!(cmd, "races" | "all") {
        match races_in_file(path) {
            Ok(analysis) => {
                print!("{}", analysis.render());
                report.merge(analysis.to_report());
            }
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(exit::UNREADABLE);
            }
        }
    }
    if matches!(cmd, "lockorder" | "all") {
        match lock_order_in_file(path) {
            Ok(analysis) => {
                print!("{}", analysis.render());
                report.merge(analysis.to_report());
            }
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(exit::UNREADABLE);
            }
        }
    }
    ExitCode::from(report.exit_code())
}
