//! The capture workloads: one producer thread logging through a
//! `TraceSession` into a counting, checking, in-memory sink.
//!
//! `capture_stream` logs at full speed (closed loop), `capture_masked` makes
//! the same calls with only the FS major enabled, `capture_paced` offers
//! 200 k events/s in 1 ms bursts (open loop). A file sink swung 2× on
//! page-cache writeback in the prototype, so no gated path touches disk.

use crate::host;
use crate::mix::{Digest, Ops, MASKED_RUN_MAJOR};
use crate::run::{ensure, run_reps, timed_setup, Ctx, E2eRun, Rep};
use crate::spans::{Ledger, Spans};
use crate::stats;
use ktrace_clock::{ClockSource, SyncClock};
use ktrace_core::{parse_buffer, TraceConfig, TraceLogger};
use ktrace_format::MajorId;
use ktrace_io::file::{RECORD_HEADER_BYTES, RECORD_MAGIC};
use ktrace_io::{FileHeader, SessionStats, TraceFileReader, TraceFileWriter, TraceSession};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Stream,
    Masked,
    Paced,
}

/// Blocks in the op list: 30 k calls (1.1 MB), replayed in a cycle. A traced
/// program has its arguments at hand, so the list is sized to stay in the
/// core's own cache: streamed from the shared cache, the producer's cost
/// followed the neighbours' load on the host.
const OP_BLOCKS: usize = 300;

/// Calls per timing chunk on the traced thread.
const CHUNK: usize = 4096;

/// The open loop: 200 k events/s in 1 ms bursts of 200.
const BURST: usize = 200;
const BURST_EVERY: Duration = Duration::from_millis(1);

/// The drainer's retry policy, as `SessionConfig::default` has it.
const WRITE_RETRIES: u32 = 8;
const RETRY_BACKOFF: Duration = Duration::from_micros(50);

impl Mode {
    /// Calls in one timed repetition.
    fn calls(self) -> usize {
        match self {
            Mode::Stream => 4_000_000,
            Mode::Masked => 40_000_000,
            Mode::Paced => 200_000,
        }
    }

    /// Calls in the warm-up repetition, whose whole sink is kept and decoded.
    fn verified_calls(self) -> usize {
        match self {
            Mode::Stream => 1_000_000,
            Mode::Masked => 8_000_000,
            Mode::Paced => 50_000,
        }
    }

    fn chunk(self) -> usize {
        match self {
            Mode::Paced => BURST,
            _ => CHUNK,
        }
    }

    fn enabled(self, major: MajorId) -> bool {
        self != Mode::Masked || major == MASKED_RUN_MAJOR
    }
}

pub fn setup(seed: u64) -> Ops {
    Ops::generate(seed, OP_BLOCKS)
}

/// What reached the sink.
#[derive(Default)]
struct Sunk {
    bytes: u64,
    records: u64,
    /// Writes after the header that were not one whole, magic-led record.
    bad_frames: u64,
    kept: Option<Vec<u8>>,
}

/// The in-memory sink: counts bytes and records, checks each record's frame,
/// and keeps every byte when a repetition is to be decoded afterwards.
struct CheckSink {
    record_size: usize,
    sunk: Arc<Mutex<Sunk>>,
}

impl CheckSink {
    fn new(keep: bool) -> (CheckSink, Arc<Mutex<Sunk>>) {
        let sunk = Arc::new(Mutex::new(Sunk {
            kept: keep.then(Vec::new),
            ..Sunk::default()
        }));
        let sink = CheckSink {
            record_size: RECORD_HEADER_BYTES + TraceConfig::paper().buffer_words * 8,
            sunk: sunk.clone(),
        };
        (sink, sunk)
    }
}

impl Write for CheckSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut s = self.sunk.lock().expect("sink lock");
        // The writer hands over the header, then one record per call.
        if s.bytes > 0 {
            let framed = buf.len() == self.record_size && buf[..4] == RECORD_MAGIC.to_le_bytes();
            s.records += 1;
            s.bad_frames += u64::from(!framed);
        }
        s.bytes += buf.len() as u64;
        if let Some(kept) = &mut s.kept {
            kept.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The producer loop's readings.
struct Produced {
    calls: u64,
    /// Calls the logger accepted: the data events that must reach the sink.
    accepted: u64,
    /// Calls the full region refused; each was retried after a yield.
    refused: u64,
    chunk_ns: Vec<f64>,
    /// How late the open-loop generator started its latest burst.
    late_ms_max: f64,
}

/// Makes `calls` log calls from the start of `ops`, in chunks, at full speed
/// or paced. `after_chunk` gets every chunk's start and end (the traced run
/// records the chunk and drains there).
fn produce(
    ops: &Ops,
    mode: Mode,
    calls: usize,
    log: impl Fn(MajorId, u16, &[u64]) -> bool,
    mut after_chunk: impl FnMut(Instant, Instant),
) -> Produced {
    let mut out = Produced {
        calls: calls as u64,
        accepted: 0,
        refused: 0,
        chunk_ns: Vec::with_capacity(calls / mode.chunk() + 1),
        late_ms_max: 0.0,
    };
    let begun = Instant::now();
    let mut at = 0usize;
    let mut done = 0usize;
    let mut burst = 0u32;
    while done < calls {
        if mode == Mode::Paced {
            let due = begun + BURST_EVERY * burst;
            burst += 1;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due);
            out.late_ms_max = out.late_ms_max.max(late.as_secs_f64() * 1e3);
        }
        let n = mode.chunk().min(calls - done);
        let t0 = Instant::now();
        for _ in 0..n {
            let (major, minor, payload) = ops.get(at);
            if log(major, minor, payload) {
                out.accepted += 1;
            } else if mode.enabled(major) {
                // Region full: the drainer is behind. Retry, never drop.
                loop {
                    out.refused += 1;
                    std::thread::yield_now();
                    if log(major, minor, payload) {
                        break;
                    }
                }
                out.accepted += 1;
            }
            at += 1;
            if at == ops.len() {
                at = 0;
            }
        }
        let t1 = Instant::now();
        out.chunk_ns.push((t1 - t0).as_nanos() as f64);
        done += n;
        after_chunk(t0, t1);
    }
    out
}

/// One repetition through a `TraceSession` with its background drainer.
struct SessionRep {
    produced: Produced,
    wall_ns: f64,
    /// Last log call returned → `finish` returned.
    finish: (Instant, Instant),
    cpu_ns: f64,
    stats: SessionStats,
    sunk: Sunk,
}

fn session_rep(ops: &Ops, mode: Mode, calls: usize, keep: bool) -> SessionRep {
    let (sink, sunk) = CheckSink::new(keep);
    let mut builder = TraceSession::builder()
        .geometry(TraceConfig::paper())
        .ncpus(1)
        .register(ktrace_events::register_all);
    if mode == Mode::Masked {
        builder = builder.enable_only(&[MASKED_RUN_MAJOR]);
    }
    // The drainer is spawned inside `start` and inherits the spawner's CPU
    // mask, so the producer steps onto the second CPU for the spawn and back.
    // Left to the scheduler, the two threads shared one CPU for minutes at a
    // time (app 74 ns, as under `taskset -c 0`) and then did not (63 ns).
    let cpus = host::two_cpus();
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    if let Some((_, drainer)) = cpus {
        host::pin_thread_to(drainer);
    }
    let session = builder
        .start(sink)
        .expect("start a session on a memory sink");
    if let Some((producer, _)) = cpus {
        host::pin_thread_to(producer);
    }
    let handle = session.logger().handle(0).expect("cpu 0");
    let produced = produce(
        ops,
        mode,
        calls,
        |major, minor, payload| handle.log_slice(major, minor, payload),
        |_, _| {},
    );
    let logged = Instant::now();
    let stats = session.finish();
    let finished = Instant::now();
    let cpu_ns = (host::process_cpu_ns() - cpu0) as f64;
    let sunk = std::mem::take(&mut *sunk.lock().expect("sink lock"));
    SessionRep {
        produced,
        wall_ns: (finished - t0).as_nanos() as f64,
        finish: (logged, finished),
        cpu_ns,
        stats,
        sunk,
    }
}

impl SessionRep {
    /// The checks every repetition passes: nothing lost at the drain, the
    /// logger's count is the accepted calls, the sink's bytes are whole
    /// records. Returns the data events that did not reach the sink.
    fn check_counts(&self) -> Result<u64, String> {
        let s = &self.stats;
        ensure(s.lossless(), || format!("session lost buffers: {s:?}"))?;
        ensure(self.sunk.bad_frames == 0, || {
            format!(
                "{} sink writes were not whole records",
                self.sunk.bad_frames
            )
        })?;
        ensure(self.sunk.records == s.records_written, || {
            format!(
                "sink saw {} records, session wrote {}",
                self.sunk.records, s.records_written
            )
        })?;
        let in_file = s.events_expected_in_file();
        ensure(in_file <= self.produced.accepted, || {
            format!(
                "{in_file} events in file from {} accepted calls",
                self.produced.accepted
            )
        })?;
        Ok(self.produced.accepted - in_file)
    }

    /// The warm-up's check: the kept sink decodes to exactly the accepted
    /// calls, in order, with the generator's digest.
    fn check_content(&self, ops: &Ops, mode: Mode, calls: usize) -> Result<(), String> {
        let kept = self
            .sunk
            .kept
            .as_deref()
            .expect("the warm-up keeps its sink");
        let mut reader = TraceFileReader::new(std::io::Cursor::new(kept))
            .map_err(|e| format!("kept sink does not open: {e}"))?;
        let (mut decoded, mut digest) = (0u64, Digest::new());
        for e in reader.events().map_err(|e| e.to_string())? {
            if !e.is_control() {
                decoded += 1;
                digest.event(e.major, e.minor, &e.payload);
            }
        }
        ensure(decoded == self.produced.accepted, || {
            format!(
                "decoded {decoded} data events, accepted {}",
                self.produced.accepted
            )
        })?;
        let want = reference(ops.digest(calls, |major| mode.enabled(major)));
        ensure(digest.finish() == want, || {
            format!(
                "sink digest {:#x} is not the generator's {want:#x}",
                digest.finish()
            )
        })
    }

    fn rep(&self, mode: Mode, failed: u64) -> Rep {
        // `capture_masked` is about the calls, nearly all of which the mask
        // turns away; the other two count what was logged.
        let events = match mode {
            Mode::Masked => self.produced.calls,
            _ => self.produced.accepted,
        };
        Rep {
            events,
            wall_ns: self.wall_ns,
            app_ns_per_event: stats::median(&self.produced.chunk_ns) / mode.chunk() as f64,
            cpu_ns: self.cpu_ns,
            out_bytes: self.sunk.bytes,
            out_events: self.produced.accepted,
            failed,
        }
    }
}

/// The digest the sink must show. `KTRACE_BENCH_BREAK_CHECK=1` corrupts it:
/// the way to see that a failing check makes the command exit non-zero.
fn reference(digest: u64) -> u64 {
    match std::env::var_os("KTRACE_BENCH_BREAK_CHECK") {
        Some(_) => !digest,
        None => digest,
    }
}

pub fn e2e(ctx: &Ctx, mode: Mode) -> E2eRun {
    let (ops, setup_s) = timed_setup(|| setup(ctx.seed));
    let mut run = E2eRun {
        setup_s,
        ..E2eRun::default()
    };
    let warm = session_rep(&ops, mode, mode.verified_calls(), true);
    let lost = warm.check_counts().and_then(|lost| {
        warm.check_content(&ops, mode, mode.verified_calls())?;
        Ok(lost)
    });
    match lost {
        Ok(lost) => run.warmup = (warm.produced.accepted, lost),
        Err(problem) => {
            run.problems.push(format!("warm-up: {problem}"));
            return run;
        }
    }
    drop(warm);
    let (mut late_ms_max, mut refused, mut tried) = (0f64, 0u64, 0u64);
    run_reps(ctx.seconds, &mut run, || {
        let r = session_rep(&ops, mode, mode.calls(), false);
        let lost = r.check_counts()?;
        late_ms_max = late_ms_max.max(r.produced.late_ms_max);
        refused += r.produced.refused;
        tried += r.produced.accepted + r.produced.refused;
        Ok(r.rep(mode, lost))
    });
    run.extras.push((
        "core.log_retry_share",
        "ratio",
        refused as f64 / tried.max(1) as f64,
    ));
    if mode == Mode::Paced {
        run.extras.push(("gen_late_ms_max", "ms", late_ms_max));
    }
    run
}

/// One repetition drained inline on the benchmark's thread, with a span
/// around every call into a layer: a chunk of `log_slice`, then
/// `take_buffer` and `write_buffer_retrying` whenever a buffer has closed.
/// The session's own drainer cannot be seen from outside.
struct InlineRep {
    root: u32,
    accepted: u64,
    buffers: u64,
    sunk: Sunk,
}

/// Takes and writes every buffer that has closed, each call under a span;
/// returns how many there were.
fn drain_inline<W: Write>(
    logger: &TraceLogger,
    writer: &mut TraceFileWriter<W>,
    spans: &mut Spans,
) -> u64 {
    let mut buffers = 0;
    loop {
        let t0 = spans.now();
        let Some(buf) = logger.take_buffer(0) else {
            return buffers;
        };
        spans.add("core.take_buffer", t0, spans.now());
        spans
            .time("io.write_buffer_retrying", || {
                writer.write_buffer_retrying(&buf, WRITE_RETRIES, RETRY_BACKOFF)
            })
            .expect("memory sink takes every record");
        buffers += 1;
    }
}

fn inline_rep(ops: &Ops, mode: Mode, calls: usize, spans: &mut Spans) -> InlineRep {
    let clock: Arc<dyn ClockSource> = Arc::new(SyncClock::new());
    let mut builder = TraceLogger::builder()
        .geometry(TraceConfig::paper())
        .clock(clock.clone())
        .ncpus(1);
    if mode == Mode::Masked {
        builder = builder.enable_only(&[MASKED_RUN_MAJOR]);
    }
    let logger = builder.build().expect("paper geometry is valid");
    ktrace_events::register_all(&logger);
    let header = FileHeader {
        ncpus: 1,
        buffer_words: logger.config().buffer_words as u32,
        ticks_per_sec: clock.ticks_per_sec(),
        clock_synchronized: clock.synchronized(),
        registry: logger.registry(),
    };
    let (sink, sunk) = CheckSink::new(false);
    let handle = logger.handle(0).expect("cpu 0");

    let root = spans.open("capture.inline_rep");
    let mut writer = spans
        .time("io.writer_new", || {
            TraceFileWriter::new_retrying(sink, &header, WRITE_RETRIES, RETRY_BACKOFF)
        })
        .expect("memory sink takes the header");
    let mut buffers = 0u64;
    let produced = produce(
        ops,
        mode,
        calls,
        |major, minor, payload| handle.log_slice(major, minor, payload),
        |t0, t1| {
            let (t0, t1) = (spans.at(t0), spans.at(t1));
            spans.add("core.log_slice", t0, t1);
            buffers += drain_inline(&logger, &mut writer, spans);
        },
    );
    spans.time("core.flush_cpu", || logger.flush_cpu(0));
    buffers += drain_inline(&logger, &mut writer, spans);
    spans
        .time("io.writer_finish", || writer.finish())
        .expect("memory sink flushes");
    spans.close(root);
    let sunk = std::mem::take(&mut *sunk.lock().expect("sink lock"));
    InlineRep {
        root,
        accepted: produced.accepted,
        buffers,
        sunk,
    }
}

/// Filler words over all words in a kept sink's records.
fn filler_word_share(kept: &[u8]) -> Result<f64, String> {
    let mut reader = TraceFileReader::new(std::io::Cursor::new(kept)).map_err(|e| e.to_string())?;
    let (mut filler, mut words) = (0u64, 0u64);
    for k in 0..reader.record_count() {
        let rec = reader.record(k).map_err(|e| e.to_string())?;
        let parsed = parse_buffer(rec.cpu as usize, rec.seq, &rec.words, None);
        filler += parsed.filler_words as u64;
        words += rec.words.len() as u64;
    }
    ensure(words > 0, || "the kept sink holds no record".to_string())?;
    Ok(filler as f64 / words as f64)
}

/// The traced run's readings for the capture layers.
pub struct Traced {
    pub layers: Vec<(&'static str, f64)>,
    /// Of the workload's own mode, when a capture workload is the one being
    /// traced.
    pub ledger: Option<Ledger>,
    /// The tail percentile `core.log_chunk_ns_p99` actually is.
    pub chunk_percentile: f64,
}

/// Measures the capture layers. They are always read from a stream-mode
/// run, the only mode in which every one of them works; `primary` names the
/// capture workload being traced, whose own mode then supplies the ledger.
pub fn traced(seed: u64, primary: Option<Mode>, spans: &mut Spans) -> Result<Traced, String> {
    let ops = setup(seed);
    let calls = if primary == Some(Mode::Stream) {
        8_000_000
    } else {
        1_000_000
    };
    // Untraced, through the session: what only the two-thread run shows.
    let threaded = session_rep(&ops, Mode::Stream, calls, false);
    threaded.check_counts()?;
    let p = &threaded.produced;
    let retry_share = p.refused as f64 / (p.accepted + p.refused) as f64;
    let (logged, finished) = threaded.finish;
    spans.add("io.session_finish", spans.at(logged), spans.at(finished));

    let inline = inline_rep(&ops, Mode::Stream, calls, spans);
    ensure(inline.accepted == calls as u64, || {
        format!(
            "traced capture accepted {} of {calls} calls",
            inline.accepted
        )
    })?;
    ensure(
        inline.sunk.bad_frames == 0 && inline.sunk.records == inline.buffers,
        || {
            format!(
                "traced capture sank {} of {} buffers",
                inline.sunk.records, inline.buffers
            )
        },
    )?;
    // What the sink holds is read from a run that keeps it, outside any span.
    let kept = session_rep(&ops, Mode::Stream, Mode::Stream.verified_calls(), true);
    kept.check_counts()?;
    let filler = filler_word_share(kept.sunk.kept.as_deref().expect("kept"))?;
    drop(kept);
    let chunks = spans.durations("core.log_slice");
    let (chunk_percentile, chunk_tail) = stats::tail_percentile(&chunks)
        .ok_or_else(|| format!("{} chunks are too few for a tail", chunks.len()))?;
    let buffers = inline.buffers as f64;
    let mut layers = vec![
        (
            "core.log_ns_per_event",
            stats::median(&chunks) / CHUNK as f64,
        ),
        ("core.log_chunk_ns_p99", chunk_tail),
        ("core.log_retry_share", retry_share),
        (
            "core.take_buffer_ns_per_buffer",
            spans.total("core.take_buffer") / buffers,
        ),
        ("core.filler_word_share", filler),
        (
            "io.write_buffer_ns_per_buffer",
            spans.total("io.write_buffer_retrying") / buffers,
        ),
        (
            "io.session_finish_ms",
            spans.total("io.session_finish") / 1e6,
        ),
    ];
    let mut ledger = Ledger::default();
    match primary {
        Some(Mode::Stream) => ledger.add_pass(spans, inline.root, threaded.wall_ns),
        Some(mode) => {
            let calls = mode.calls() / 2;
            let untraced = session_rep(&ops, mode, calls, false);
            untraced.check_counts()?;
            let own = inline_rep(&ops, mode, calls, spans);
            ledger.add_pass(spans, own.root, untraced.wall_ns);
        }
        None => {}
    }

    // A disabled major: the mask gate alone.
    let masked = TraceLogger::builder()
        .geometry(TraceConfig::paper())
        .enable_only(&[MASKED_RUN_MAJOR])
        .build()
        .expect("paper geometry is valid");
    let handle = masked.handle(0).expect("cpu 0");
    let off = (0..ops.len())
        .map(|i| ops.get(i))
        .find(|&(major, _, _)| major != MASKED_RUN_MAJOR)
        .expect("the mix holds more than one major");
    const PROBE_CHUNKS: usize = 1000;
    for _ in 0..PROBE_CHUNKS {
        spans.time("core.log_slice_masked", || {
            for _ in 0..CHUNK {
                std::hint::black_box(handle.log_slice(off.0, off.1, std::hint::black_box(off.2)));
            }
        });
    }
    let per_call = |spans: &Spans, name| stats::median(&spans.durations(name)) / CHUNK as f64;
    layers.push((
        "core.masked_ns_per_call",
        per_call(spans, "core.log_slice_masked"),
    ));

    let clock = SyncClock::new();
    for _ in 0..PROBE_CHUNKS / 4 {
        spans.time("clock.now", || {
            for _ in 0..CHUNK {
                std::hint::black_box(clock.now(0));
            }
        });
    }
    layers.push(("clock.now_ns", per_call(spans, "clock.now")));

    // A started session that logs nothing: what the drainer's polling costs.
    let (sink, _sunk) = CheckSink::new(false);
    let session = TraceSession::builder()
        .geometry(TraceConfig::paper())
        .start(sink)
        .expect("start a session on a memory sink");
    let idle = spans.open("io.session_idle");
    let cpu0 = host::process_cpu_ns();
    std::thread::sleep(Duration::from_millis(400));
    let cpu_ms = (host::process_cpu_ns() - cpu0) as f64 / 1e6;
    let idle_s = spans.close(idle) as f64 / 1e9;
    session.finish();
    layers.push(("io.session_idle_cpu_ms_per_s", cpu_ms / idle_s));

    Ok(Traced {
        layers,
        ledger: primary.map(|_| ledger),
        chunk_percentile,
    })
}
