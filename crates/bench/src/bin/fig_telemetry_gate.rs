//! E20: telemetry overhead gate. Prints the report, writes the
//! `BENCH_telemetry.json` artifact (first argument, default
//! `BENCH_telemetry.json`), and exits nonzero if telemetry costs more than
//! the 1% gate.
use ktrace_bench::overhead_gate::{measure_telemetry, run_bin};

fn main() {
    run_bin(measure_telemetry, "BENCH_telemetry.json");
}
