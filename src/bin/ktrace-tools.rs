//! `ktrace-tools` — the post-processing tool suite as a CLI.
//!
//! The paper ships its analyses as standalone tools over trace files; this
//! binary is the equivalent front door:
//!
//! ```text
//! ktrace-tools list <file> [limit]        Fig. 5 event listing
//! ktrace-tools lockstat <file> [top]      Fig. 7 lock-contention table
//! ktrace-tools profile <file>             Fig. 6 PC-sample histograms
//! ktrace-tools breakdown <file> <pid>     Fig. 8 per-process breakdown
//! ktrace-tools timeline <file> [width]    Fig. 4 ASCII timeline
//! ktrace-tools stats <file>               event-frequency table and drops
//! ktrace-tools export-csv <file>          CSV to stdout
//! ktrace-tools export-chrome <file>       Chrome/Perfetto trace JSON to stdout
//! ktrace-tools deadlock <file>            wait-for-graph cycle search
//! ktrace-tools salvage <file> [out]       forgiving read of a damaged file
//! ktrace-tools verify <lint|races|lockorder|all> <file>
//!                                         check the stream (ktrace-verify)
//! ktrace-tools assert <file> --spec <props.toml> [--salvage]
//! ktrace-tools assert <store> --spec <props.toml> --store [--node <name>]
//!                                         evaluate named trace assertions
//! ktrace-tools top [secs] [ncpus]         live telemetry monitor over an ossim run
//! ktrace-tools record <out> [secs] [ncpus]  run ossim, record with heartbeats
//! ktrace-tools adapt <out> [secs] [ncpus] [--fault]  closed-loop adaptive session
//! ktrace-tools collect <store> [listen] [secs]  run a fleet collector
//! ktrace-tools fleet <store> [nodes] [secs]     collector + N local ossim nodes
//! ```
//!
//! `verify` runs `ktrace-verify`'s passes over a file: `lint` checks the
//! stream invariants (monotonicity, filler alignment, lengths, commit
//! counts, registry consistency) and is the one garble report; `races` is
//! lockset + happens-before race detection over the MEM access
//! annotations; `lockorder` finds lock-order cycles (potential deadlocks)
//! over the LOCK events; `all` runs the three in turn. It exits 0 when
//! clean, otherwise with the distinct code of the most severe violation
//! class found (e.g. 10 truncated buffer, 11 garbled commit, 12
//! non-monotonic timestamp, 13 undeclared event, 20 data race, 34
//! lock-order cycle), so scripted runs can tell *which* invariant broke
//! without parsing output.
//!
//! `salvage` never refuses a file: it recovers every event outside the
//! damaged extents, prints the salvage report, and exits with the shared
//! verifier exit code for the worst damage class found (0 when the file is
//! clean). With `[out]` it also writes a repaired file containing only the
//! clean records, which the strict tools then accept.
//!
//! `assert` evaluates every named property in a `props.toml` spec (see
//! `ktrace-query`) against the trace and exits with the shared exit-code
//! table's assertion band: 36 for a violated count/sum/rate bound, 37 for
//! unpaired spans, 38 for an over-long span, 39 for a cadence gap — the
//! smallest code when several fire, 0 when all hold. With `--salvage` the
//! file is read through the forgiving salvage reader first, so assertions
//! can run over damaged traces.
//!
//! `top` runs an SDET-style ossim workload under a live session and
//! refreshes a per-CPU telemetry table (ring occupancy, event and drop
//! rates, inline anomaly flags) until the run completes. `record` does the
//! same headlessly into a trace file and prints the session/logger
//! statistics; a lossy drain exits with the shared `lossy-drain` code so
//! scripts can tell a complete trace from one with holes. `adapt` runs the
//! same session under the `ktrace-adapt` closed loop — detector over the
//! logger's own telemetry, controller shedding and restoring detail, every
//! decision audited into the trace — and exits `adapt-anomaly` (43) when
//! an anomaly fired and the controller is still shedding at finish;
//! `--fault` injects sink latency so the overload→shed→recover cycle is
//! reproducible on demand.
//!
//! `collect` runs the `ktrace-collectd` aggregation service: nodes connect
//! to the listen address, their streams land sharded under `<store>`, and
//! per-node health is served on the printed scrape address. `fleet` is the
//! batteries-included demo/smoke: it starts a collector **and** N local
//! ossim nodes streaming into it, prints the scrape output and the fleet
//! reconciliation table with the fleet's loss at the source, and exits on
//! the collector band — `collect-lossy` (42) when the collector dropped
//! records (its store failed) or the nodes' rings lost events (their
//! in-stream DROPPED markers count them), 0 on a lossless run.
//! With `--store`, `assert` evaluates the spec over a collector store
//! through the same query engine (fleet-wide merged, or one node with
//! `--node`), so the props that gate a single trace gate fleet data too.
//! Every code any of these can exit with is defined once in
//! `ktrace::exit` and tabulated in DESIGN.md.

use ktrace::analysis::{
    self, render_listing, Breakdown, EventStats, ListingOptions, LockStats, PcProfile, Timeline,
    TimelineOptions, Trace,
};
use ktrace::exit;
use ktrace::io::IoError;
use ktrace::verify::{lint_file, lock_order_in_file, races_in_file, Report};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ktrace-tools <list|lockstat|profile|breakdown|timeline|stats|export-csv|export-chrome|deadlock|salvage> <trace-file> [arg]\n       ktrace-tools verify <lint|races|lockorder|all> <trace-file>\n       ktrace-tools assert <trace-file> --spec <props.toml> [--salvage]\n       ktrace-tools assert <store-dir> --spec <props.toml> --store [--node <name>]\n       ktrace-tools top [secs] [ncpus]\n       ktrace-tools record <out-file> [secs] [ncpus]\n       ktrace-tools adapt <out-file> [secs] [ncpus] [--fault]\n       ktrace-tools collect <store-dir> [listen-addr] [secs]\n       ktrace-tools fleet <store-dir> [nodes] [secs]"
    );
    ExitCode::from(exit::USAGE)
}

/// The forgiving path: works on files the strict reader would reject, so it
/// must dispatch before `Trace::from_file`.
fn salvage(path: &str, repair_out: Option<&str>) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(exit::UNREADABLE);
        }
    };
    let report = ktrace::io::salvage_bytes(&bytes);
    print!("{}", report.render());
    let lint = ktrace::verify::salvage_to_report(&report);
    if !lint.is_clean() {
        print!("{}", lint.render());
    }
    if let Some(out) = repair_out {
        match ktrace::io::salvage::repair(&bytes, &report) {
            Some(repaired) => {
                if let Err(e) = std::fs::write(out, &repaired) {
                    eprintln!("cannot write {out}: {e}");
                    return ExitCode::from(exit::UNREADABLE);
                }
                println!("repaired file written to {out} ({} bytes)", repaired.len());
            }
            None => {
                eprintln!("nothing salvageable: no repaired file written");
                return ExitCode::from(exit::UNREADABLE);
            }
        }
    }
    ExitCode::from(lint.exit_code())
}

/// `ktrace-tools verify`: runs the named pass, or with `all` each pass in
/// turn, printing each one's report and exiting with the most severe
/// violation's code.
fn verify(pass: &str, path: &str) -> ExitCode {
    type Pass = fn(&str) -> Result<(String, Report), IoError>;
    let passes: [(&str, Pass); 3] = [
        ("lint", |p| lint_file(p).map(|r| (r.render(), r))),
        ("races", |p| {
            races_in_file(p).map(|a| (a.render(), a.to_report()))
        }),
        ("lockorder", |p| {
            lock_order_in_file(p).map(|a| (a.render(), a.to_report()))
        }),
    ];
    let selected: Vec<Pass> = passes
        .into_iter()
        .filter(|&(name, _)| pass == "all" || pass == name)
        .map(|(_, run)| run)
        .collect();
    if selected.is_empty() {
        return usage();
    }
    let mut report = Report::new();
    for run in selected {
        match run(path) {
            Ok((text, found)) => {
                print!("{text}");
                report.merge(found);
            }
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(exit::UNREADABLE);
            }
        }
    }
    ExitCode::from(report.exit_code())
}

/// Where `assert` reads its events from.
enum AssertInput<'a> {
    /// A trace file, strictly or through the salvage reader.
    File { path: &'a str, salvage: bool },
    /// A `ktrace-collectd` store: the fleet-wide merged view, or one node.
    Store {
        root: &'a str,
        node: Option<&'a str>,
    },
}

/// `ktrace-tools assert`: evaluate a named-property spec against a trace,
/// exiting on the shared table's assertion band (codes 36–39). The source
/// is interchangeable by construction — the same `TraceSource` contract
/// serves a file, a salvaged image, or a collector store.
fn assert_cmd(input: AssertInput<'_>, spec_path: &str) -> ExitCode {
    use ktrace::collectd::CollectSource;
    use ktrace::query::{FileSource, Query, SalvageSource, Spec, TraceSource};

    let spec = match Spec::from_file(spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load spec {spec_path}: {e}");
            return ExitCode::from(exit::UNREADABLE);
        }
    };
    let query = {
        let mut source: Box<dyn TraceSource> = match input {
            AssertInput::File {
                path,
                salvage: true,
            } => match SalvageSource::from_file(path) {
                Ok(s) => Box::new(s),
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(exit::UNREADABLE);
                }
            },
            AssertInput::File {
                path,
                salvage: false,
            } => Box::new(FileSource::new(path)),
            AssertInput::Store { root, node } => match node {
                Some(n) => Box::new(CollectSource::node(root, n)),
                None => Box::new(CollectSource::open(root)),
            },
        };
        let described = source.describe();
        match Query::over(source.as_mut()) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("cannot read {described}: {e}");
                return ExitCode::from(exit::UNREADABLE);
            }
        }
    };
    let (actuals, report) = spec.measure(&query);
    for (p, actual) in spec.properties.iter().zip(&actuals) {
        println!(
            "{} {}: {} (actual {actual})",
            if p.assertion.holds(*actual) {
                "PASS"
            } else {
                "FAIL"
            },
            p.name,
            p.assertion
        );
    }
    println!(
        "{} assertion(s) checked over {} event(s): {} violation(s)",
        spec.properties.len(),
        query.trace().events.len(),
        report.violations.len()
    );
    ExitCode::from(report.exit_code())
}

/// Starts the live session `top`, `record` and `adapt` share: a logger
/// with OS event descriptors and a session draining to `sink` with
/// heartbeats on.
fn live_session<W: std::io::Write + Send + 'static>(
    sink: W,
    ncpus: usize,
) -> (ktrace::core::TraceLogger, ktrace::io::TraceSession) {
    use ktrace::io::TraceSession;
    use std::time::Duration;

    let logger = ktrace::core::TraceLogger::builder()
        .geometry(ktrace::core::TraceConfig {
            buffer_words: 4096,
            buffers_per_cpu: 8,
            ..ktrace::core::TraceConfig::default()
        })
        .ncpus(ncpus)
        .build()
        .expect("logger construction");
    ktrace::events::register_all(&logger);
    let session = TraceSession::builder()
        .logger(logger.clone())
        .heartbeat(Duration::from_millis(250))
        .start(sink)
        .expect("session start");
    (logger, session)
}

/// The load `top` and `record` trace: a background thread running
/// SDET-style ossim workloads flat out until `secs` have passed, answering
/// how many simulated tasks completed.
fn spawn_sdet_load(logger: ktrace::core::TraceLogger, secs: f64) -> std::thread::JoinHandle<u64> {
    use ktrace::ossim::workload::sdet;
    use ktrace::ossim::{KTracer, Machine, MachineConfig};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    std::thread::Builder::new()
        .name("ktrace-workload".into())
        .spawn(move || {
            let mut tasks = 0u64;
            while Instant::now() < deadline {
                let machine = Machine::new(
                    MachineConfig::fast_test(logger.ncpus()),
                    Arc::new(KTracer::new(logger.clone())),
                );
                let report = machine.run(sdet::build(sdet::SdetConfig {
                    scripts: logger.ncpus() * 2,
                    commands_per_script: 3,
                    ..Default::default()
                }));
                tasks += report.tasks_completed;
            }
            tasks
        })
        .expect("spawn workload thread")
}

/// Renders one telemetry refresh: a per-CPU table of ring occupancy,
/// derived per-interval rates (events/s, drops/s vs. the previous
/// snapshot), the drop/retry counters, and an inline flag on any CPU that
/// lost events this interval, with the anomaly detector's verdicts in the
/// footer.
fn render_top(
    logger: &ktrace::core::TraceLogger,
    snap: &ktrace::telemetry::TelemetrySnapshot,
    prev: &ktrace::telemetry::TelemetrySnapshot,
    interval_secs: f64,
    anomalies: &[ktrace::adapt::Anomaly],
) -> String {
    use std::fmt::Write as _;
    let delta = snap.delta(prev);
    let secs = interval_secs.max(1e-9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>12} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "cpu", "occ%", "events", "events/s", "masked", "dropped", "drops/s", "retries", "wraps", ""
    );
    for (cpu, c) in snap.per_cpu.iter().enumerate() {
        let (used, cap) = logger.occupancy(cpu);
        let d = &delta.per_cpu[cpu];
        let rate = d.events_logged as f64 / secs;
        let drop_rate = d.events_dropped as f64 / secs;
        let _ = writeln!(
            out,
            "{:>4} {:>5.1}% {:>12} {:>10.0} {:>9} {:>9} {:>8.0} {:>8} {:>8} {:>7}",
            cpu,
            100.0 * used as f64 / cap.max(1) as f64,
            c.events_logged,
            rate,
            c.events_masked,
            c.events_dropped,
            drop_rate,
            c.cas_retries,
            c.buffer_wraps,
            if d.events_dropped > 0 { "!drop" } else { "" },
        );
    }
    let _ = writeln!(
        out,
        "sink: {} records written, {} retries, {} buffers dropped ({} events lost), {} heartbeats",
        snap.sink.records_written,
        snap.sink.write_retries,
        snap.sink.buffers_dropped,
        snap.sink.events_lost,
        snap.sink.heartbeats_emitted,
    );
    if anomalies.is_empty() {
        let _ = writeln!(out, "adapt: healthy");
    } else {
        for a in anomalies {
            let _ = writeln!(
                out,
                "adapt: ANOMALY {} value {} (robust z {:.2})",
                a.track_name(),
                a.value,
                a.z_milli as f64 / 1000.0,
            );
        }
    }
    out
}

/// `ktrace-tools top`: live telemetry monitor over an in-process ossim run.
fn top(secs: f64, ncpus: usize, refresh_ms: u64) -> ExitCode {
    use std::time::Duration;
    let (logger, session) = live_session(std::io::sink(), ncpus);
    let worker = spawn_sdet_load(logger.clone(), secs);
    let interval = Duration::from_millis(refresh_ms.max(50));
    let mut prev = logger.telemetry().snapshot();
    let mut detector = ktrace::adapt::Detector::default();
    while !worker.is_finished() {
        std::thread::sleep(interval);
        let snap = logger.telemetry().snapshot();
        let anomalies = detector.observe(&snap);
        // Clear screen + home, like any terminal monitor.
        print!("\x1b[2J\x1b[H");
        println!(
            "ktrace-top — {} cpu(s), refresh {}ms (workload running)\n",
            ncpus,
            interval.as_millis()
        );
        print!(
            "{}",
            render_top(&logger, &snap, &prev, interval.as_secs_f64(), &anomalies)
        );
        prev = snap;
    }
    let tasks = worker.join().expect("workload thread panicked");
    let stats = session.finish();
    println!("\nworkload finished: {tasks} simulated tasks completed");
    print!("{}", render_session_summary(&stats));
    if lossy(&stats) {
        return ExitCode::from(ktrace::verify::ViolationKind::LossyDrain.exit_code());
    }
    ExitCode::SUCCESS
}

/// True if any already-logged event failed to reach the file.
fn lossy(stats: &ktrace::io::SessionStats) -> bool {
    !stats.sink_alive() || stats.buffers_dropped > 0 || stats.telemetry.events_dropped() > 0
}

/// Renders the end-of-session accounting: `SessionStats` and the telemetry
/// counters (drop/garble counts included).
fn render_session_summary(stats: &ktrace::io::SessionStats) -> String {
    use ktrace::telemetry::{hist_count, hist_mean, hist_quantile};
    use std::fmt::Write as _;
    let mut out = String::new();
    let t = &stats.telemetry;
    let _ = writeln!(
        out,
        "session: {} records written, {} buffers dropped, {} events lost, sink {}",
        stats.records_written,
        stats.buffers_dropped,
        stats.events_lost,
        if stats.sink_alive() {
            "alive".to_string()
        } else {
            format!("dead ({})", stats.sink_error.as_deref().unwrap_or("?"))
        }
    );
    let _ = writeln!(
        out,
        "logger:  {} events logged, {} masked, {} dropped (ring overrun)",
        t.events_logged(),
        t.events_masked(),
        t.events_dropped(),
    );
    let _ = writeln!(
        out,
        "hot path: {} CAS retries, {} buffer wraps, {} flight overwrites",
        t.cas_retries(),
        t.buffer_wraps(),
        t.flight_overwrites(),
    );
    let dw = &t.sink.drain_write;
    if hist_count(dw) > 0 {
        let _ = writeln!(
            out,
            "drain:   {} writes, mean {:.0} ns, p50 ≥ {} ns, p99 ≥ {} ns, {} retries, {} grace waits",
            hist_count(dw),
            hist_mean(dw, t.sink.drain_write_sum),
            hist_quantile(dw, 0.50),
            hist_quantile(dw, 0.99),
            t.sink.write_retries,
            t.sink.grace_waits,
        );
    }
    let _ = writeln!(
        out,
        "expected in file: {} data events",
        stats.events_expected_in_file()
    );
    out
}

/// `ktrace-tools adapt`: the closed control loop over a live session. An
/// ossim workload traces through a logger whose mask and sampling gate are
/// under `ktrace-adapt` control: every interval the detector scores the
/// logger's own telemetry, the controller escalates or recovers shed
/// levels, and each decision lands in the trace as a `CONTROL` audit event
/// — post-hoc provable with `ktrace-tools assert`. With `--fault` the
/// sink is wrapped in a latency-injecting [`FaultySink`] so the drainer
/// falls behind, drops mount, and the loop demonstrably closes.
///
/// Exits [`exit::ADAPT_ANOMALY`] (43) when an anomaly fired and the
/// controller is **still shedding** after the post-run recovery grace —
/// the operational "degraded and not recovering" signal.
///
/// [`FaultySink`]: ktrace::faults::FaultySink
fn adapt_cmd(out_path: &str, secs: f64, ncpus: usize, fault: bool) -> ExitCode {
    use ktrace::adapt::{Controller, Detector};
    use ktrace::faults::{FaultySink, SinkPlan};
    use std::io::Write;
    use std::time::{Duration, Instant};

    let file = match std::fs::File::create(out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out_path}: {e}");
            return ExitCode::from(exit::UNREADABLE);
        }
    };
    let sink: Box<dyn Write + Send> = if fault {
        // Healthy for the first 2 MiB — long enough for the detector to
        // learn a quiet baseline under the paced workload below — then
        // every record write eats a latency spike: the drainer falls
        // behind the producer, the ring overruns, and the drop rate
        // departs its baseline.
        Box::new(FaultySink::new(
            file,
            SinkPlan::degrading_latency(7, 2 << 20, Duration::from_millis(25)),
        ))
    } else {
        Box::new(std::io::BufWriter::new(file))
    };

    let (logger, session) = live_session(sink, ncpus);

    // A *paced* workload, unlike `top`/`record`'s flat-out ossim run: a
    // fixed event rate the healthy sink absorbs easily, so the detector's
    // baseline really is quiet and a degraded sink is a departure rather
    // than more of the same.
    let worker_logger = logger.clone();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let worker = std::thread::Builder::new()
        .name("ktrace-adapt-load".into())
        .spawn(move || {
            let ncpus = worker_logger.ncpus();
            let mut seq = 0u64;
            let mut bursts = 0u64;
            while Instant::now() < deadline {
                for _ in 0..800 {
                    let cpu = (seq as usize) % ncpus;
                    if let Ok(h) = worker_logger.handle(cpu) {
                        h.log_event(&ktrace::events::user::app_tick(seq, bursts));
                    }
                    seq += 1;
                }
                bursts += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            seq
        })
        .expect("spawn workload thread");

    let mut detector = Detector::default();
    let mut controller = Controller::new();
    let interval = Duration::from_millis(100);
    let step_once = |detector: &mut Detector, controller: &mut Controller| {
        let snap = logger.telemetry().snapshot();
        let anomalies = detector.observe(&snap);
        let r = controller.step(&logger, &anomalies);
        for a in &anomalies {
            println!(
                "anomaly: {} value {} (robust z {:.2})",
                a.track_name(),
                a.value,
                a.z_milli as f64 / 1000.0,
            );
        }
        if r.escalated {
            println!(
                "controller: escalated to level {} (1-in-{} sampling)",
                r.level,
                Controller::rate_for_level(r.level),
            );
        } else if r.de_escalated {
            println!("controller: recovered to level {}", r.level);
        }
        r
    };
    while !worker.is_finished() {
        std::thread::sleep(interval);
        step_once(&mut detector, &mut controller);
    }
    let offered = worker.join().expect("workload thread panicked");
    // Post-run recovery grace: the overload source is gone, so a healthy
    // loop walks its shed levels back to 0 within a bounded number of
    // quiet intervals. A loop still shedding after this is stuck.
    let grace = u64::from(ktrace::adapt::MAX_LEVEL) * 2 * 3 + 4;
    for _ in 0..grace {
        if !controller.shedding() {
            break;
        }
        std::thread::sleep(interval);
        step_once(&mut detector, &mut controller);
    }
    let stats = session.finish();
    println!("\nworkload finished: {offered} events offered at a paced rate");
    print!("{}", render_session_summary(&stats));
    println!(
        "adapt: anomalies {}fired, final shed level {}{}",
        if controller.ever_fired() {
            ""
        } else {
            "never "
        },
        controller.level(),
        if fault { " (fault-injected sink)" } else { "" },
    );
    if controller.shedding() {
        eprintln!("error: anomaly unresolved — controller still shedding at finish");
        return ExitCode::from(exit::ADAPT_ANOMALY);
    }
    ExitCode::SUCCESS
}

/// `ktrace-tools record`: headless ossim run into a trace file.
fn record(out_path: &str, secs: f64, ncpus: usize) -> ExitCode {
    let file = match std::fs::File::create(out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out_path}: {e}");
            return ExitCode::from(exit::UNREADABLE);
        }
    };
    let (logger, session) = live_session(std::io::BufWriter::new(file), ncpus);
    let tasks = spawn_sdet_load(logger.clone(), secs)
        .join()
        .expect("workload thread panicked");
    let stats = session.finish();
    println!("recorded {out_path}: {tasks} simulated tasks completed");
    print!("{}", render_session_summary(&stats));
    if lossy(&stats) {
        eprintln!("warning: lossy drain — the trace has holes");
        return ExitCode::from(ktrace::verify::ViolationKind::LossyDrain.exit_code());
    }
    ExitCode::SUCCESS
}

/// Prints the end-of-serve accounting shared by `collect` and `fleet`, and
/// maps it onto the collector exit band.
fn finish_collector(collector: ktrace::collectd::Collector) -> ExitCode {
    let metrics = ktrace::collectd::scrape::fetch(collector.scrape_addr(), "/metrics");
    let summary = collector.shutdown();
    let (dropped, lost) = (summary.records_dropped(), summary.events_lost_at_source());
    print!("{}", summary.render());
    println!("events lost at source (in-stream DROPPED markers): {lost}");
    if let Ok(metrics) = metrics {
        println!("--- final scrape ---");
        print!("{metrics}");
    }
    if !summary.reconciled() {
        // Should be structurally impossible; make it loud if it ever isn't.
        eprintln!("error: fleet accounting failed to reconcile");
        return ExitCode::from(exit::COLLECT_STORE);
    }
    if dropped > 0 {
        eprintln!("warning: collector drops — the store failed to take {dropped} record(s)");
    }
    if lost > 0 {
        eprintln!("warning: source loss — the nodes' rings dropped {lost} event(s) to overrun");
    }
    if dropped + lost > 0 {
        return ExitCode::from(exit::COLLECT_LOSSY);
    }
    ExitCode::SUCCESS
}

/// `ktrace-tools collect`: run the aggregation service for `secs` seconds.
fn collect_serve(store: &str, listen: &str, secs: f64) -> ExitCode {
    use ktrace::collectd::{CollectError, Collector, CollectorConfig};
    let collector = match Collector::bind(listen, CollectorConfig::new(store)) {
        Ok(c) => c,
        Err(e @ CollectError::Bind(_)) | Err(e @ CollectError::Store(_)) => {
            eprintln!("{e}");
            return ExitCode::from(e.exit_code());
        }
    };
    println!(
        "collecting into {store}: ingest {} scrape http://{}/metrics for {secs}s",
        collector.local_addr(),
        collector.scrape_addr()
    );
    std::thread::sleep(std::time::Duration::from_secs_f64(secs));
    finish_collector(collector)
}

/// `ktrace-tools fleet`: a collector plus `nodes` local ossim nodes
/// streaming into it — the self-contained fleet demo and CI smoke.
fn fleet(store: &str, nodes: usize, secs: f64) -> ExitCode {
    use ktrace::collectd::{node, Collector, CollectorConfig};
    use ktrace::ossim::NodeSpec;
    use std::time::{Duration, Instant};

    let collector = match Collector::bind("127.0.0.1:0", CollectorConfig::new(store)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let addr = collector.local_addr();
    println!(
        "fleet of {nodes} node(s) into {store}: ingest {addr} scrape http://{}/metrics",
        collector.scrape_addr()
    );
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let workers: Vec<_> = (0..nodes)
        .map(|i| {
            std::thread::spawn(move || {
                let spec = NodeSpec::new(format!("node-{i}"), 2);
                let mut runs = 0u64;
                while Instant::now() < deadline {
                    match node::run_ossim_node(addr, &spec, Some(Duration::from_millis(100))) {
                        Ok(_) => runs += 1,
                        Err(e) => {
                            eprintln!("node-{i}: {e}");
                            break;
                        }
                    }
                }
                runs
            })
        })
        .collect();
    let runs: u64 = workers.into_iter().map(|w| w.join().unwrap_or(0)).sum();
    println!("fleet workload done: {runs} node run(s) streamed");
    finish_collector(collector)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `top` needs no trace file; `record` takes an output path.
    if args.first().map(String::as_str) == Some("top") {
        let secs = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3.0);
        let ncpus = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
        return top(secs, ncpus, 200);
    }
    if args.first().map(String::as_str) == Some("record") {
        let Some(out) = args.get(1) else {
            return usage();
        };
        let secs = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2.0);
        let ncpus = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);
        return record(out, secs, ncpus);
    }
    if args.first().map(String::as_str) == Some("adapt") {
        let Some(out) = args.get(1) else {
            return usage();
        };
        let fault = args.iter().any(|a| a == "--fault");
        let mut positional = args[2..].iter().filter(|a| *a != "--fault");
        let secs = positional
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(2.0);
        let ncpus = positional.next().and_then(|s| s.parse().ok()).unwrap_or(2);
        return adapt_cmd(out, secs, ncpus, fault);
    }
    if args.first().map(String::as_str) == Some("verify") {
        return match &args[1..] {
            [pass, path] => verify(pass, path),
            _ => usage(),
        };
    }
    if args.first().map(String::as_str) == Some("collect") {
        let Some(store) = args.get(1) else {
            return usage();
        };
        let listen = args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7463");
        let secs = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(10.0);
        return collect_serve(store, listen, secs);
    }
    if args.first().map(String::as_str) == Some("fleet") {
        let Some(store) = args.get(1) else {
            return usage();
        };
        let nodes = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
        let secs = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2.0);
        return fleet(store, nodes, secs);
    }

    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => return usage(),
    };
    let extra = args.get(2).map(String::as_str);

    // Salvage tolerates damage the strict loader below refuses.
    if cmd == "salvage" {
        return salvage(path, extra);
    }
    // Assert picks its own reader (strict or salvage), so it also dispatches
    // before the strict load.
    if cmd == "assert" {
        let mut spec_path = None;
        let mut via_salvage = false;
        let mut via_store = false;
        let mut node = None;
        let mut rest = args[2..].iter();
        while let Some(flag) = rest.next() {
            match flag.as_str() {
                "--spec" => spec_path = rest.next().map(String::as_str),
                "--salvage" => via_salvage = true,
                "--store" => via_store = true,
                "--node" => node = rest.next().map(String::as_str),
                _ => return usage(),
            }
        }
        let Some(spec_path) = spec_path else {
            return usage();
        };
        let input = match (via_store, via_salvage) {
            (true, true) => return usage(), // a store is never read via salvage
            (true, false) => AssertInput::Store { root: path, node },
            (false, _) => {
                if node.is_some() {
                    return usage(); // --node only selects within a store
                }
                AssertInput::File {
                    path,
                    salvage: via_salvage,
                }
            }
        };
        return assert_cmd(input, spec_path);
    }

    let trace = match Trace::from_file(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(exit::UNREADABLE);
        }
    };

    match cmd {
        "list" => {
            let limit = extra.and_then(|s| s.parse().ok()).unwrap_or(50);
            print!(
                "{}",
                render_listing(
                    &trace,
                    &ListingOptions {
                        hide_control: true,
                        limit,
                        ..Default::default()
                    }
                )
            );
        }
        "lockstat" => {
            let top = extra.and_then(|s| s.parse().ok()).unwrap_or(10);
            print!("{}", LockStats::compute(&trace).render(top, "time"));
        }
        "profile" => {
            print!("{}", PcProfile::compute(&trace).render_all());
        }
        "breakdown" => {
            let Some(pid) = extra.and_then(|s| s.parse().ok()) else {
                eprintln!("breakdown needs a pid");
                return usage();
            };
            print!("{}", Breakdown::compute(&trace).render_process(pid));
        }
        "timeline" => {
            let width = extra.and_then(|s| s.parse().ok()).unwrap_or(100);
            let tl = Timeline::build(
                &trace,
                &TimelineOptions {
                    width,
                    ..Default::default()
                },
            );
            print!("{}", tl.render_ascii());
        }
        "stats" => {
            print!("{}", EventStats::compute(&trace).render(&trace));
        }
        "export-csv" => {
            print!("{}", analysis::to_csv(&trace, false));
        }
        "export-chrome" => {
            println!("{}", analysis::to_chrome_json(&trace));
        }
        "deadlock" => match analysis::find_deadlock(&trace) {
            Some(report) => print!("{}", report.render()),
            None => println!("no deadlock cycle found"),
        },
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
