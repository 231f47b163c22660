//! The read-side workloads: `analyze_file` takes a clean trace file from
//! "here it is" to lint verdict, property verdict and lock report;
//! `salvage_damaged` takes a damaged copy through the tolerant walker to the
//! property verdict.

use crate::host;
use crate::mix::{Ops, PLANTED};
use crate::run::{ensure, run_reps, timed_setup, Ctx, E2eRun, Rep};
use crate::spans::{Ledger, Spans};
use crate::tracefile::{damage, write_trace, Damaged, TraceInfo, Until};
use ktrace_analysis::{LockStats, Trace};
use ktrace_core::parse_buffer;
use ktrace_events::lock;
use ktrace_io::{salvage_bytes, TraceFileReader};
use ktrace_query::{Bounds, EventIndex, FileSource, Query, SalvageSource, Spec, TraceSource};
use ktrace_verify::{lint_file, Report};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// CPUs in the generated trace file.
const FILE_CPUS: usize = 2;

/// The planted property: it must fail, with the generator's count.
const PLANTED_NAME: &str = "bench-planted-no-fs-open";

/// `props/ktrace.toml`, which must hold, plus the planted property.
fn spec() -> Spec {
    let (major, minor) = PLANTED;
    let text = format!(
        "{}\n[[assert]]\nname = \"{PLANTED_NAME}\"\ncheck = \"count(major == {} & minor == {minor}) == 0\"\n",
        include_str!("../../props/ktrace.toml"),
        major.well_known_name().expect("the planted major has a name"),
    );
    Spec::parse(&text).expect("the shipped properties and the planted one parse")
}

/// The inputs of both workloads: the clean file and what the generator knows
/// about it.
pub struct Inputs {
    pub path: PathBuf,
    pub info: TraceInfo,
    planted: u64,
    acquisitions: u64,
}

/// Writes a trace of `blocks` stratified blocks to `<dir>/clean.ktrace`.
pub fn setup(seed: u64, blocks: usize, dir: &Path) -> Inputs {
    let ops = Ops::generate(seed, blocks);
    let path = dir.join("clean.ktrace");
    let file = std::fs::File::create(&path).expect("create the trace file in scratch");
    let info = write_trace(
        &ops,
        0,
        Until::Events(ops.len()),
        FILE_CPUS,
        std::io::BufWriter::new(file),
    )
    .expect("write the trace file");
    Inputs {
        path,
        info,
        planted: ops.count(ops.len(), |ma, mi| (ma, mi) == PLANTED),
        acquisitions: ops.count(ops.len(), |ma, mi| {
            (ma, mi) == (lock::MAJOR, lock::ACQUIRED)
        }),
    }
}

/// Blocks in the end-to-end file: 1 M events, a 39 MB file. Analysis holds
/// about 350 B of memory per event, which `peak_rss_mb` pins.
const FILE_BLOCKS: usize = 10_000;

/// Blocks in the file a traced run of another workload probes these layers
/// with.
const PROBE_BLOCKS: usize = 2_000;

/// Which of the spec's properties a report says failed.
fn failed_properties(report: &Report) -> Vec<String> {
    report
        .violations
        .iter()
        .filter_map(|v| v.detail.strip_prefix("property '")?.split('\'').next())
        .map(str::to_string)
        .collect()
}

/// The value a failed property's violation reports.
fn reported_actual(report: &Report, name: &str) -> Option<u64> {
    let v = report
        .violations
        .iter()
        .find(|v| v.detail.starts_with(&format!("property '{name}'")))?;
    v.detail
        .rsplit_once("(actual ")?
        .1
        .trim_end_matches(')')
        .parse()
        .ok()
}

/// Calls into a layer, under a leaf span when the run is traced.
fn span<T>(spans: &mut Option<&mut Spans>, name: &'static str, call: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, call),
        None => call(),
    }
}

/// The analyst's path over the clean file, each step under a span when
/// `spans` is given. Every model is dropped before the next is built.
fn analyze(inputs: &Inputs, spec: &Spec, mut spans: Option<&mut Spans>) -> Result<(), String> {
    let events = inputs.info.data_events;

    let lint = span(&mut spans, "verify.lint_file", || {
        lint_file(&inputs.path).map_err(|e| format!("lint: {e}"))
    })?;
    ensure(lint.is_clean(), || {
        format!("lint is not clean:\n{}", lint.render())
    })?;
    ensure(lint.data_events_checked as u64 == events, || {
        format!(
            "lint saw {} data events of {events}",
            lint.data_events_checked
        )
    })?;

    let set = span(&mut spans, "query.file_load", || {
        FileSource::new(&inputs.path)
            .load()
            .map_err(|e| format!("load: {e}"))
    })?;
    let query = span(&mut spans, "query.query_new", || Query::new(set));
    let verdict = span(&mut spans, "query.spec_check", || spec.check(&query));
    // Freeing a model of a million events is part of what the analyst waits
    // for, and the layer's own doing.
    span(&mut spans, "query.query_drop", || drop(query));
    ensure(verdict.data_events_checked as u64 == events, || {
        format!(
            "query saw {} data events of {events}",
            verdict.data_events_checked
        )
    })?;
    // The shipped properties hold; the planted one fails, with the count
    // the generator knows.
    ensure(failed_properties(&verdict) == [PLANTED_NAME], || {
        format!("properties failed: {:?}", failed_properties(&verdict))
    })?;
    ensure(
        reported_actual(&verdict, PLANTED_NAME) == Some(inputs.planted),
        || {
            format!(
                "planted property: {}, generator planted {}",
                verdict.render(),
                inputs.planted
            )
        },
    )?;

    let trace = span(&mut spans, "analysis.trace_from_file", || {
        Trace::from_file(&inputs.path).map_err(|e| format!("trace: {e}"))
    })?;
    let locks = span(&mut spans, "analysis.lockstat", || {
        LockStats::compute(&trace)
    });
    span(&mut spans, "analysis.trace_drop", || drop(trace));
    let acquisitions: u64 = locks.rows.iter().map(|r| r.acquisitions).sum();
    ensure(acquisitions == inputs.acquisitions, || {
        format!(
            "lockstat counted {acquisitions} acquisitions of {}",
            inputs.acquisitions
        )
    })
}

/// Times `pass` over `events` events as one repetition.
fn timed(
    events: u64,
    in_bytes: u64,
    pass: impl FnOnce() -> Result<u64, String>,
) -> Result<Rep, String> {
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    let failed = pass()?;
    let wall_ns = t0.elapsed().as_nanos() as f64;
    Ok(Rep {
        events,
        wall_ns,
        // The analyst's thread does all of it.
        app_ns_per_event: wall_ns / events as f64,
        cpu_ns: (host::process_cpu_ns() - cpu0) as f64,
        out_bytes: in_bytes,
        out_events: events,
        failed,
    })
}

pub fn e2e_analyze(ctx: &Ctx) -> E2eRun {
    let (inputs, setup_s) = timed_setup(|| setup(ctx.seed, FILE_BLOCKS, ctx.scratch));
    let mut run = E2eRun {
        setup_s,
        ..E2eRun::default()
    };
    let spec = spec();
    let events = inputs.info.data_events;
    // The first pass is several times slower (page faults on a fresh heap),
    // and is the one whose verdicts are examined name by name.
    if let Err(problem) = analyze(&inputs, &spec, None) {
        run.problems.push(format!("warm-up: {problem}"));
        return run;
    }
    run.warmup = (events, 0);
    run_reps(ctx.seconds, &mut run, || {
        timed(events, inputs.info.bytes(), || {
            analyze(&inputs, &spec, None).map(|()| 0)
        })
    });
    run
}

/// The damaged image and what must come back from it.
pub struct Wreck {
    path: PathBuf,
    bytes_len: u64,
    /// `(cpu, seq, offset)` of every data event in a record the damage did
    /// not touch.
    intact: HashSet<(usize, u64, usize)>,
    /// Data events in the undamaged file.
    clean_events: u64,
}

/// Damages the clean file into `<dir>/damaged.ktrace`.
pub fn wreck(inputs: &Inputs, seed: u64, dir: &Path) -> Wreck {
    let original = std::fs::read(&inputs.path).expect("read the clean file back");
    let Damaged { bytes, untouched } = damage(&original, &inputs.info, seed);
    let mut reader = TraceFileReader::new(std::io::Cursor::new(&original[..])).expect("clean file");
    let mut intact = HashSet::new();
    for r in untouched {
        let rec = reader.record(r).expect("untouched record reads");
        let parsed = parse_buffer(rec.cpu as usize, rec.seq, &rec.words, None);
        intact.extend(parsed.data_events().map(|e| (e.cpu, e.seq, e.offset)));
    }
    let path = dir.join("damaged.ktrace");
    std::fs::write(&path, &bytes).expect("write the damaged file");
    Wreck {
        path,
        bytes_len: bytes.len() as u64,
        intact,
        clean_events: inputs.info.data_events,
    }
}

/// What one salvage pass found; every pass over the same image must find
/// the same.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Salvaged {
    recovered: u64,
    resyncs: u64,
    failed_properties: Vec<String>,
}

/// The analyst's path over the damaged image. With `missing`, also counts
/// into it the events of untouched records that did not come back: the
/// warm-up's check, too slow for a timed repetition.
fn salvage(
    wreck: &Wreck,
    spec: &Spec,
    mut spans: Option<&mut Spans>,
    missing: Option<&mut u64>,
) -> Result<Salvaged, String> {
    let bytes = std::fs::read(&wreck.path).map_err(|e| format!("read damaged file: {e}"))?;
    let report = span(&mut spans, "io.salvage_bytes", || salvage_bytes(&bytes));
    ensure(report.header_ok, || {
        format!("salvage lost the header: {:?}", report.header_error)
    })?;
    if let Some(missing) = missing {
        let back: HashSet<_> = report
            .data_events()
            .map(|e| (e.cpu, e.seq, e.offset))
            .collect();
        *missing = wreck.intact.difference(&back).count() as u64;
    }
    let (recovered, resyncs) = (report.data_events().count() as u64, report.resyncs as u64);
    span(&mut spans, "io.salvage_report_drop", || drop(report));

    let set = span(&mut spans, "query.salvage_load", || {
        SalvageSource::from_bytes(bytes)
            .load()
            .map_err(|e| format!("salvage load: {e}"))
    })?;
    let query = span(&mut spans, "query.query_new", || Query::new(set));
    let verdict = span(&mut spans, "query.spec_check", || spec.check(&query));
    span(&mut spans, "query.query_drop", || drop(query));
    ensure(verdict.data_events_checked as u64 == recovered, || {
        format!(
            "query saw {} events, salvage recovered {recovered}",
            verdict.data_events_checked
        )
    })?;
    Ok(Salvaged {
        recovered,
        resyncs,
        failed_properties: failed_properties(&verdict),
    })
}

pub fn e2e_salvage(ctx: &Ctx) -> E2eRun {
    let ((_inputs, wreck), setup_s) = timed_setup(|| {
        let inputs = setup(ctx.seed, FILE_BLOCKS, ctx.scratch);
        let wreck = wreck(&inputs, ctx.seed, ctx.scratch);
        (inputs, wreck)
    });
    let mut run = E2eRun {
        setup_s,
        ..E2eRun::default()
    };
    let spec = spec();
    let mut missing = 0;
    let first = match salvage(&wreck, &spec, None, Some(&mut missing)) {
        Ok(first) => first,
        Err(problem) => {
            run.problems.push(format!("warm-up: {problem}"));
            return run;
        }
    };
    if missing > 0 {
        run.problems.push(format!(
            "salvage lost {missing} events of records the damage did not touch"
        ));
    }
    run.warmup = (wreck.intact.len() as u64, missing);
    run.extras
        .push(("io.salvage_resyncs", "count", first.resyncs as f64));
    run.extras.push((
        "io.salvage_recovered_share",
        "ratio",
        first.recovered as f64 / wreck.clean_events as f64,
    ));
    run_reps(ctx.seconds, &mut run, || {
        let mut again = None;
        let rep = timed(first.recovered, wreck.bytes_len, || {
            again = Some(salvage(&wreck, &spec, None, None)?);
            Ok(0)
        })?;
        ensure(again.as_ref() == Some(&first), || {
            format!("salvage is not repeatable: {again:?} after {first:?}")
        })?;
        Ok(rep)
    });
    run
}

/// The traced run's readings for the read-side layers.
pub struct Traced {
    pub layers: Vec<(&'static str, f64)>,
    pub analyze_ledger: Ledger,
    pub salvage_ledger: Ledger,
}

/// Runs `pass` untraced and traced in turn, `passes` times each. One pass of
/// either kind swings by several percent; in turn, both see the same host.
fn ledger(
    spans: &mut Spans,
    root_name: &'static str,
    passes: usize,
    mut pass: impl FnMut(Option<&mut Spans>) -> Result<(), String>,
) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    for _ in 0..passes {
        let t0 = Instant::now();
        pass(None)?;
        let untraced_ns = t0.elapsed().as_nanos() as f64;
        let root = spans.open(root_name);
        pass(Some(spans))?;
        spans.close(root);
        ledger.add_pass(spans, root, untraced_ns);
    }
    Ok(ledger)
}

/// Measures the read-side layers on a full-size file when one of the two
/// read-side workloads is the one being traced, on a small one otherwise.
pub fn traced(seed: u64, primary: bool, dir: &Path, spans: &mut Spans) -> Result<Traced, String> {
    let blocks = if primary { FILE_BLOCKS } else { PROBE_BLOCKS };
    let inputs = setup(seed, blocks, dir);
    let wreck = wreck(&inputs, seed, dir);
    let spec = spec();
    let events = inputs.info.data_events as f64;

    // Layers the two paths reach only through another layer, called
    // directly. Memory first: growth reads true only on a heap that nothing
    // has grown and freed before.
    let (rss0, hwm0) = (host::rss_bytes(), host::peak_rss_bytes());
    let set = FileSource::new(&inputs.path)
        .load()
        .map_err(|e| format!("load: {e}"))?;
    let index = spans.time("query.index_build", || EventIndex::build(&set));
    let (rss1, hwm1) = (host::rss_bytes(), host::peak_rss_bytes());
    // Where this step moved the process's peak, the peak is its cost; where
    // an earlier peak still stands, what stays resident is.
    let grown = if hwm1 > hwm0 {
        hwm1 - rss0
    } else {
        rss1.saturating_sub(rss0)
    };
    let window = Bounds {
        t_lo: set.origin() + set.span() / 2,
        t_hi: Some(set.origin() + set.span() / 2 + set.span() / 100),
        ..Bounds::unbounded()
    };
    let candidates = spans.time("query.index_candidates", || {
        index.candidates(&set, &window).count()
    });
    let all = set.events.len() as f64;
    drop((set, index));

    let mut reader = spans
        .time("io.reader_open", || TraceFileReader::open(&inputs.path))
        .map_err(|e| format!("open: {e}"))?;
    let drained = spans.time("io.reader_events", || reader.events().map(|it| it.count()));
    let drained = drained.map_err(|e| format!("events: {e}"))? as f64;
    drop(reader);

    // Warm the heap and the page cache first.
    let passes = if primary { 3 } else { 1 };
    analyze(&inputs, &spec, None)?;
    let analyze_ledger = ledger(spans, "analyze_file.rep", passes, |s| {
        analyze(&inputs, &spec, s)
    })?;

    let mut missing = 0;
    let first = salvage(&wreck, &spec, None, Some(&mut missing))?;
    ensure(missing == 0, || {
        format!("salvage lost {missing} events of untouched records")
    })?;
    let salvage_ledger = ledger(spans, "salvage_damaged.rep", passes, |s| {
        let found = salvage(&wreck, &spec, s, None)?;
        ensure(found == first, || {
            format!("salvage is not repeatable: {found:?} after {first:?}")
        })
    })?;
    let recovered = first.recovered as f64;
    // Per-event costs below are over every traced pass.
    let (events, recovered_all) = (events * passes as f64, recovered * passes as f64);

    let per_event = |name: &str, n: f64| spans.total(name) / n;
    let layers = vec![
        ("io.reader_open_ms", spans.total("io.reader_open") / 1e6),
        (
            "io.reader_ns_per_event",
            per_event("io.reader_events", drained),
        ),
        (
            "io.salvage_ns_per_event",
            per_event("io.salvage_bytes", recovered_all),
        ),
        ("io.salvage_resyncs", first.resyncs as f64),
        (
            "io.salvage_recovered_share",
            recovered / inputs.info.data_events as f64,
        ),
        (
            "verify.lint_ns_per_event",
            per_event("verify.lint_file", events),
        ),
        (
            "query.load_ns_per_event",
            per_event("query.file_load", events),
        ),
        (
            "query.salvage_load_ns_per_event",
            per_event("query.salvage_load", recovered_all),
        ),
        (
            "query.index_build_ns_per_event",
            per_event("query.index_build", all),
        ),
        (
            "query.spec_check_ns_per_event",
            per_event("query.spec_check", events + recovered_all),
        ),
        (
            "query.rss_bytes_per_event",
            grown as f64 / inputs.info.data_events as f64,
        ),
        ("query.window_candidate_share", candidates as f64 / all),
        (
            "analysis.trace_load_ns_per_event",
            per_event("analysis.trace_from_file", events),
        ),
        (
            "analysis.lockstat_ns_per_event",
            per_event("analysis.lockstat", events),
        ),
    ];
    Ok(Traced {
        layers,
        analyze_ledger,
        salvage_ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{BLOCK, MIX};
    use crate::run::Scratch;

    #[test]
    fn the_mix_table_plants_one_event_per_block() {
        let (major, minor) = PLANTED;
        let per_block: usize = MIX
            .iter()
            .filter(|c| (c.major, c.minor) == (major, minor))
            .map(|c| c.per_block)
            .sum();
        assert_eq!(per_block, 1);
        assert_eq!(BLOCK, 100);
    }

    #[test]
    fn a_small_file_passes_both_paths_and_salvage_keeps_every_intact_event() {
        let scratch = Scratch::create().unwrap();
        let inputs = setup(9, 1_500, scratch.path());
        assert_eq!(inputs.planted, 1_500);
        let spec = spec();
        analyze(&inputs, &spec, None).unwrap();
        let wreck = wreck(&inputs, 9, scratch.path());
        let mut missing = u64::MAX;
        let found = salvage(&wreck, &spec, None, Some(&mut missing)).unwrap();
        assert_eq!(missing, 0);
        assert!(found.recovered >= wreck.intact.len() as u64);
        assert!(found.recovered < inputs.info.data_events);
    }
}
