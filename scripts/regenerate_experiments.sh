#!/usr/bin/env sh
# Regenerates every paper figure/table and refreshes the artifacts under
# target/experiments/. EXPERIMENTS.md's measured values come from this run.
set -e
mkdir -p target/experiments
KTRACE_BENCH_FULL=1 cargo run --release -p ktrace-bench -- all \
    | tee target/experiments/run_all_full.txt
echo "artifacts in target/experiments/"
