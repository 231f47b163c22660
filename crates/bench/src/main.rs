//! `ktrace-bench [all|<experiment>]`: runs every experiment in paper order
//! (the source of EXPERIMENTS.md's measured values), or the one named. Set
//! KTRACE_BENCH_FULL=1 for longer runs.
//!
//! `telemetry_gate` and `adapt_gate` (E20, E23) also write their JSON
//! artifact — the next argument, default `BENCH_telemetry.json` /
//! `BENCH_adapt.json` — and exit 1 unless the gate passed.
use ktrace_bench::overhead_gate::{measure_sampling, measure_telemetry, run_gate};
use ktrace_bench::{run_all, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Fast runs by default; set it for longer, lower-variance measurements.
    let fast = std::env::var_os("KTRACE_BENCH_FULL").is_none();
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "all".into());
    let artifact = args.next();
    let passed = match name.as_str() {
        "all" => {
            let rule = "=".repeat(66);
            for (title, report) in run_all(fast) {
                println!("{rule}\n{title}\n{rule}\n{report}");
            }
            true
        }
        "telemetry_gate" => run_gate(measure_telemetry, fast, artifact, "BENCH_telemetry.json"),
        "adapt_gate" => run_gate(measure_sampling, fast, artifact, "BENCH_adapt.json"),
        _ => {
            let Some(&(_, _, run)) = EXPERIMENTS.iter().find(|e| e.0 == name) else {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
                eprintln!("usage: ktrace-bench [all|{}]", names.join("|"));
                return ExitCode::from(2);
            };
            println!("{}", run(fast));
            true
        }
    };
    ExitCode::from(u8::from(!passed))
}
