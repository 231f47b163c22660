//! The pipeline benchmark: six workloads driven through the layers' public
//! functions and timed from outside. See `README.md` beside this package.
//!
//! ```text
//! ktrace-pipeline-bench                       every workload, untraced then traced
//! ktrace-pipeline-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload's run prints a table, then as the last line of standard
//! output one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when any output check fails.

mod analyze;
mod capture;
mod catalog;
mod fleet;
mod host;
mod mix;
mod run;
mod spans;
mod stats;
mod tracefile;

use catalog::{Better, END_TO_END, LAYERS, WORKLOADS};
use run::{out_dir, Ctx, E2eRun, Scratch};
use spans::Spans;
use stats::{summarize, Summary};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 2003;

/// Seconds of timed repetitions when none are given; `BENCHMARK.json` says
/// the same.
const DEFAULT_SECONDS: f64 = 15.0;

/// Calibration drift across a workload beyond which its numbers are marked
/// unresolved: the host changed speed under it.
const CALIB_DRIFT_LIMIT: f64 = 0.10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.name == value) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(bad(&format!(
                        "unknown workload; known: {}",
                        known.join(", ")
                    )));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("out of range"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One printed metric of one run.
struct Row {
    metric: &'static str,
    unit: &'static str,
    summary: Summary,
    /// Direction and regression bound of a catalogued metric, which is in
    /// the last line's `metrics` object; `None` for a reading that is only
    /// in the table and `results.json`.
    catalogued: Option<(Better, Option<f64>)>,
}

/// Everything one workload's run produced.
struct Outcome {
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The host changed speed while the workload ran.
    unresolved: bool,
    notes: Vec<String>,
}

/// A reading outside the catalogue, taken once.
fn extra(metric: &'static str, unit: &'static str, value: f64) -> Row {
    Row {
        metric,
        unit,
        summary: summarize(&[value]),
        catalogued: None,
    }
}

/// The capture mode a workload name stands for, if it is a capture workload.
fn capture_mode(workload: &str) -> Option<capture::Mode> {
    match workload {
        "capture_stream" => Some(capture::Mode::Stream),
        "capture_masked" => Some(capture::Mode::Masked),
        "capture_paced" => Some(capture::Mode::Paced),
        _ => None,
    }
}

fn run_e2e(ctx: &Ctx, workload: &str) -> Outcome {
    let calib_before = host::calib_ns_per_iter();
    let run: E2eRun = match workload {
        "analyze_file" => analyze::e2e_analyze(ctx),
        "salvage_damaged" => analyze::e2e_salvage(ctx),
        "fleet_ingest" => fleet::e2e(ctx),
        capture => capture::e2e(
            ctx,
            capture_mode(capture).expect("argument parsing admits only known workloads"),
        ),
    };
    let calib_after = host::calib_ns_per_iter();
    let drift = (calib_after / calib_before - 1.0).abs();
    let mut out = Outcome {
        rows: Vec::new(),
        attempted: run.warmup.0 + run.reps.iter().map(|r| r.events).sum::<u64>(),
        failed: run.warmup.1 + run.reps.iter().map(|r| r.failed).sum::<u64>(),
        problems: run.problems,
        unresolved: drift > CALIB_DRIFT_LIMIT,
        notes: vec![format!(
            "host: nproc {}, load(1 min) {:.2}, calib {calib_before:.4} -> {calib_after:.4} ns/iter (drift {:.1} %)",
            host::nproc(),
            host::load_1min(),
            drift * 100.0
        )],
    };
    if run.reps.is_empty() {
        // Whatever stopped the run before its first repetition is listed.
        if out.problems.is_empty() {
            out.problems
                .push("no timed repetition completed".to_string());
        }
        return out;
    }
    let per_rep = |f: &dyn Fn(&run::Rep) -> f64| -> Summary {
        summarize(&run.reps.iter().map(f).collect::<Vec<_>>())
    };
    let values: [(&str, Summary); 6] = [
        ("setup_s", summarize(&run.setup_s)),
        (
            "events_per_s",
            per_rep(&|r| r.events as f64 / (r.wall_ns / 1e9)),
        ),
        ("app_ns_per_event", per_rep(&|r| r.app_ns_per_event)),
        ("cpu_ns_per_event", per_rep(&|r| r.cpu_ns / r.events as f64)),
        (
            "bytes_per_event",
            per_rep(&|r| r.out_bytes as f64 / r.out_events as f64),
        ),
        (
            "peak_rss_mb",
            summarize(&[run.peak_rss_bytes as f64 / (1 << 20) as f64]),
        ),
    ];
    for m in END_TO_END {
        let (_, summary) = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .expect("every catalogued end-to-end metric is measured");
        out.rows.push(Row {
            metric: m.name,
            unit: m.unit,
            summary: *summary,
            catalogued: Some((m.better, Some(m.bound))),
        });
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.rows.push(extra("failed_share", "ratio", failed_share));
    for (name, unit, value) in run.extras {
        out.rows.push(extra(name, unit, value));
    }
    out.rows
        .push(extra("host.calib_ns_per_iter", "ns", calib_before));
    out
}

fn run_traced(ctx: &Ctx, workload: &str) -> Outcome {
    let mut spans = Spans::new();
    let calib = host::calib_ns_per_iter();
    let mut out = Outcome {
        rows: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        unresolved: false,
        notes: Vec::new(),
    };
    let reads = matches!(workload, "analyze_file" | "salvage_damaged");
    let measured = (|| -> Result<_, String> {
        // The read side first: its memory reading wants a heap no other
        // group has grown yet.
        let read = analyze::traced(ctx.seed, reads, ctx.scratch, &mut spans)?;
        let cap = capture::traced(ctx.seed, capture_mode(workload), &mut spans)?;
        let fleet = fleet::traced(
            ctx.seed,
            workload == "fleet_ingest",
            ctx.scratch,
            &mut spans,
        )?;
        Ok((read, cap, fleet))
    })();
    let (read, cap, fleet) = match measured {
        Ok(m) => m,
        Err(problem) => {
            out.problems.push(problem);
            return out;
        }
    };
    let ledger = match workload {
        "analyze_file" => read.analyze_ledger,
        "salvage_damaged" => read.salvage_ledger,
        "fleet_ingest" => fleet.ledger,
        _ => cap
            .ledger
            .expect("a capture workload's traced run keeps its ledger"),
    };
    let mut values: Vec<(&str, f64)> = Vec::new();
    values.extend(cap.layers);
    values.extend(read.layers);
    values.extend(fleet.layers);
    values.push(("ledger.unaccounted_share", ledger.unaccounted_share()));
    values.push(("trace_overhead_share", ledger.overhead_share()));
    values.push(("host.calib_ns_per_iter", calib));
    for l in LAYERS {
        match values.iter().find(|(name, _)| *name == l.name) {
            Some(&(_, value)) => out.rows.push(Row {
                metric: l.name,
                unit: l.unit,
                summary: summarize(&[value]),
                catalogued: Some((l.better, None)),
            }),
            None => out.problems.push(format!("{} was not measured", l.name)),
        }
    }
    out.notes.push(format!(
        "core.log_chunk_ns_p99 is the p{:.2} of the chunk times: the highest percentile with ten samples beyond it",
        cap.chunk_percentile
    ));
    out.notes.push(format!(
        "ledger @ {workload}: layers account for {:.3} ms of {:.3} ms untraced; the traced pass took {:.3} ms",
        ledger.accounted_ns / 1e6,
        ledger.untraced_ns / 1e6,
        ledger.traced_ns / 1e6
    ));
    let path = out_dir().join(format!("spans-{workload}.json"));
    match spans.write_json(&path, workload) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.problems.push(format!("write {}: {e}", path.display())),
    }
    out.attempted = spans.len() as u64;
    out
}

/// The last line of a run's standard output.
fn result_line(out: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    let mut first = true;
    for r in out.rows.iter().filter(|r| r.catalogued.is_some()) {
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.metric, r.summary.median, r.unit
        );
    }
    line.push_str("}}");
    line
}

fn print_table(out: &Outcome, workload: &str, traced: bool) {
    println!(
        "{:<38} {:<16} {:>8} {:>16} {:>16} {:>16} {:>4}  {:<6} {:>6}",
        "metric", "workload", "unit", "median", "q1", "q3", "n", "better", "bound"
    );
    for r in &out.rows {
        let s = &r.summary;
        let better = r.catalogued.map_or("", |(b, _)| b.as_str());
        let bound = match r.catalogued {
            Some((_, Some(b))) => format!("{:.1} %", b * 100.0),
            _ => String::new(),
        };
        let mark = if out.unresolved { "  unresolved" } else { "" };
        println!(
            "{:<38} {:<16} {:>8} {:>16.6} {:>16.6} {:>16.6} {:>4}  {better:<6} {bound:>6}{mark}",
            r.metric, workload, r.unit, s.median, s.q1, s.q3, s.n
        );
    }
    if traced {
        println!("what each layer metric should move:");
        for l in LAYERS {
            println!("  {:<38} {}", l.name, l.moves);
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    if out.unresolved {
        println!(
            "UNRESOLVED: the calibration loop drifted more than {:.0} % across {workload}; these numbers are not clean",
            CALIB_DRIFT_LIMIT * 100.0
        );
    }
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
}

/// Writes this run's rows beside those of earlier runs and joins them all
/// into `results.json`.
fn write_results(out: &Outcome, workload: &str, seed: u64, traced: bool) -> std::io::Result<()> {
    let dir = out_dir();
    let commit = host::commit();
    let mut rows = String::new();
    for r in &out.rows {
        let s = &r.summary;
        let _ = writeln!(
            rows,
            "{{\"metric\": \"{}\", \"workload\": \"{workload}\", \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"seed\": {seed}, \"commit\": \"{commit}\", \"unresolved\": {}}}",
            r.metric, r.unit, s.median, s.q1, s.q3, s.n, out.unresolved
        );
    }
    let trace = u8::from(traced);
    std::fs::write(
        dir.join(format!("rows-{workload}-trace{trace}.jsonl")),
        rows,
    )?;
    let mut files: Vec<_> = std::fs::read_dir(&dir)?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend(std::fs::read_to_string(f)?.lines().map(str::to_string));
    }
    std::fs::write(
        dir.join("results.json"),
        format!("[\n{}\n]\n", all.join(",\n")),
    )
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create scratch under {}: {e}", out_dir().display());
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch.path(),
    };
    let mut out = if args.trace {
        run_traced(&ctx, workload)
    } else {
        run_e2e(&ctx, workload)
    };
    drop(scratch);
    for r in out.rows.iter().filter(|r| !r.summary.median.is_finite()) {
        out.problems
            .push(format!("{} is not a finite number", r.metric));
    }
    if let Err(e) = write_results(&out, workload, args.seed, args.trace) {
        out.problems.push(format!("write results: {e}"));
    }
    print_table(&out, workload, args.trace);
    if !out.problems.is_empty() {
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}

/// Every workload, untraced then traced, each in a process of its own so
/// that one workload's peak memory does not show in the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let _ = std::fs::create_dir_all(out_dir());
    if let Ok(entries) = std::fs::read_dir(out_dir()) {
        for stale in entries.flatten().map(|e| e.path()) {
            if stale.extension().is_some_and(|x| x == "jsonl") {
                let _ = std::fs::remove_file(stale);
            }
        }
    }
    let mut failed = Vec::new();
    for trace in ["0", "1"] {
        for w in WORKLOADS {
            println!("== {} (--trace {trace}): {}", w.name, w.why);
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            if !status.is_ok_and(|s| s.success()) {
                failed.push(format!("{} --trace {trace}", w.name));
            }
        }
    }
    println!("results: {}", out_dir().join("results.json").display());
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}
