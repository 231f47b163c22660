//! E23: adaptive-sampling overhead gate. Prints the report, writes the
//! `BENCH_adapt.json` artifact (first argument, default
//! `BENCH_adapt.json`), and exits nonzero if rate-1 sampling costs more
//! than the 1% gate.
use ktrace_bench::overhead_gate::{measure_sampling, run_bin};

fn main() {
    run_bin(measure_sampling, "BENCH_adapt.json");
}
