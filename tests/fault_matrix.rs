//! The fault matrix: every [`FaultPlan`] driven through the full
//! log → stream → salvage → verify pipeline, under several seeds.
//!
//! Seeds come from `KTRACE_FAULT_SEED` (comma-separated, `0x…` or decimal)
//! when set; otherwise from a fixed default set. Setting
//! `KTRACE_RANDOM_SEED` instead picks one fresh seed and prints it, so a CI
//! failure is reproducible by exporting the logged value.

use ktrace::faults::{FaultPlan, FaultySink, FileCorruptor, RegionCorruptor, SinkPlan};
use ktrace::io::salvage::{repair, salvage_bytes, SalvageReport};
use ktrace::io::{FileHeader, TraceFileWriter};
use ktrace::prelude::*;
use ktrace::verify::{lint_file, salvage_to_report, ViolationKind};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn seeds() -> Vec<u64> {
    fn parse(s: &str) -> u64 {
        let s = s.trim();
        match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).expect("hex seed"),
            None => s.parse().expect("decimal seed"),
        }
    }
    if let Ok(list) = std::env::var("KTRACE_FAULT_SEED") {
        return list.split(',').map(parse).collect();
    }
    if std::env::var("KTRACE_RANDOM_SEED").is_ok() {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64;
        let seed = nanos ^ (u64::from(std::process::id()) << 32);
        eprintln!(
            "fault-matrix: random run, seed {seed:#x} \
             (reproduce with KTRACE_FAULT_SEED={seed:#x})"
        );
        return vec![seed];
    }
    vec![0xA11CE, 0xB0B, 0xC0FFEE]
}

/// A deterministic 2-CPU trace image plus the geometry needed to map byte
/// offsets back to records.
struct CleanTrace {
    bytes: Vec<u8>,
    header_len: usize,
    record_size: usize,
    /// Events (including control) per record, from a clean salvage.
    per_record: Vec<usize>,
}

const NCPUS: usize = 2;
const EVENTS_PER_CPU: u64 = 400;

/// Registers descriptors for the events the matrix logs, so survivors pass
/// the self-description lint.
fn register_test_events(logger: &TraceLogger) {
    for minor in 0..NCPUS as u16 {
        logger.register_event(
            MajorId::TEST,
            minor,
            EventDescriptor::new(
                &format!("TRACE_TEST_MATRIX{minor}"),
                "64 64",
                "i %0[%d] x %1[%d]",
            )
            .unwrap(),
        );
    }
}

fn file_header(logger: &TraceLogger, cfg: TraceConfig) -> FileHeader {
    FileHeader {
        ncpus: NCPUS as u32,
        buffer_words: cfg.buffer_words as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry: logger.registry(),
    }
}

fn build_clean_trace(seed: u64) -> CleanTrace {
    let cfg = TraceConfig::small();
    let clock = Arc::new(ManualClock::new(1, 1));
    let logger = TraceLogger::builder()
        .geometry(cfg)
        .clock(clock)
        .ncpus(NCPUS)
        .build()
        .unwrap();
    register_test_events(&logger);
    let header = file_header(&logger, cfg);
    let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
    for i in 0..EVENTS_PER_CPU {
        for cpu in 0..NCPUS {
            assert!(logger.handle(cpu).unwrap().log_slice(
                MajorId::TEST,
                cpu as u16,
                &[i, i ^ seed]
            ));
            if let Some(b) = logger.take_buffer(cpu) {
                w.write_buffer(&b).unwrap();
            }
        }
    }
    for bufs in logger.drain_all() {
        for b in bufs {
            w.write_buffer(&b).unwrap();
        }
    }
    let bytes = w.finish().unwrap();

    let (header, header_len) = FileHeader::decode(&bytes).expect("clean header");
    let baseline = salvage_bytes(&bytes);
    assert!(baseline.clean(), "clean trace must salvage clean");
    CleanTrace {
        header_len,
        record_size: header.record_size(),
        per_record: baseline.records.iter().map(|r| r.events).collect(),
        bytes,
    }
}

impl CleanTrace {
    /// Record indices whose byte extent overlaps `[lo, hi)`.
    fn records_in(&self, lo: usize, hi: usize) -> Vec<usize> {
        (0..self.per_record.len())
            .filter(|k| {
                let start = self.header_len + k * self.record_size;
                lo < start + self.record_size && hi > start
            })
            .collect()
    }

    /// Events everywhere except the given records.
    fn events_outside(&self, affected: &[usize]) -> usize {
        self.per_record
            .iter()
            .enumerate()
            .filter(|(k, _)| !affected.contains(k))
            .map(|(_, n)| n)
            .sum()
    }
}

/// The acceptance bar: salvage must recover at least every event outside
/// the records the fault touched.
fn assert_recovery(ct: &CleanTrace, report: &SalvageReport, lo: usize, hi: usize, what: &str) {
    if lo < ct.header_len {
        // The fault reached the file header: no recovery floor can be
        // promised (the geometry itself may be gone). Reaching this point
        // without a panic is the guarantee; the proptest hammers this case.
        return;
    }
    let affected = ct.records_in(lo, hi);
    let floor = ct.events_outside(&affected);
    assert!(
        report.events.len() >= floor,
        "{what}: recovered {} events, but {} live outside the {} damaged record(s)",
        report.events.len(),
        floor,
        affected.len()
    );
}

/// Writes `bytes`, repaired, to a temp file and asserts the strict linter
/// accepts the survivors with exit code 0.
fn assert_survivors_lint_clean(bytes: &[u8], report: &SalvageReport, tag: &str) {
    let Some(repaired) = repair(bytes, report) else {
        return; // nothing salvageable (e.g. the header itself is gone)
    };
    let dir = std::env::temp_dir().join(format!("ktrace-matrix-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repaired.ktrace");
    std::fs::write(&path, &repaired).unwrap();
    let lint = lint_file(&path).expect("repaired file must load strictly");
    assert!(
        lint.is_clean(),
        "{tag}: surviving events must lint clean, got:\n{}",
        lint.render()
    );
    assert_eq!(lint.exit_code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// In-memory sink that survives being consumed by the session, so the test
/// can inspect the bytes afterwards.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Partial writes on the sink: the session's retrying writer resumes
/// mid-record, so the stream arrives byte-perfect.
fn run_partial_write(seed: u64) {
    let out = SharedBuf::default();
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::small())
        .ncpus(NCPUS)
        .build()
        .unwrap();
    register_test_events(&logger);
    let sink = FaultySink::new(out.clone(), SinkPlan::partial_writes(seed));
    let sink_stats = sink.stats();
    let session = TraceSession::builder()
        .logger(logger.clone())
        .start(sink)
        .unwrap();
    let mut logged = 0u64;
    for i in 0..2_000u64 {
        for cpu in 0..NCPUS {
            if session
                .logger()
                .handle(cpu)
                .unwrap()
                .log_slice(MajorId::TEST, cpu as u16, &[i, i])
            {
                logged += 1;
            }
        }
    }
    let stats = session.finish();
    assert!(stats.lossless(), "{stats:?}");
    assert!(
        sink_stats
            .partial_writes
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the plan actually fired"
    );

    let bytes = out.0.lock().unwrap().clone();
    let report = salvage_bytes(&bytes);
    assert!(report.clean(), "{}", report.render());
    assert_eq!(report.data_events().count() as u64, logged);
    assert_eq!(salvage_to_report(&report).exit_code(), 0);
    assert_survivors_lint_clean(&bytes, &report, "partial-write");
}

/// The file is cut short (a short read of the image): whole records before
/// the cut survive, the partial tail is recovered as a truncated prefix.
fn run_short_read(seed: u64) {
    let ct = build_clean_trace(seed);
    let mut bytes = ct.bytes.clone();
    let kept = FileCorruptor::new(seed).truncate(&mut bytes);
    let report = salvage_bytes(&bytes);
    assert_recovery(&ct, &report, kept, ct.bytes.len(), "short-read");
    if kept >= ct.header_len {
        let lint = salvage_to_report(&report);
        if !report.clean() {
            assert_eq!(lint.exit_code(), ViolationKind::TruncatedBuffer.exit_code());
        }
        assert_survivors_lint_clean(&bytes, &report, "short-read");
    }
}

/// Garbage lands mid-record: the salvage reader re-anchors on the next
/// record magic and loses at most the damaged records.
fn run_mid_buffer_truncation(seed: u64) {
    let ct = build_clean_trace(seed);
    let mut bytes = ct.bytes.clone();
    let mutation = FileCorruptor::new(seed)
        .zero_span(&mut bytes)
        .expect("nonempty file");
    let (lo, hi) = match mutation {
        ktrace::faults::corrupt::FileMutation::ZeroedSpan { offset, len } => (offset, offset + len),
        other => panic!("unexpected mutation {other:?}"),
    };
    let report = salvage_bytes(&bytes);
    assert_recovery(&ct, &report, lo, hi, "mid-buffer-truncation");
    if lo >= ct.header_len {
        assert_survivors_lint_clean(&bytes, &report, "mid-buffer-truncation");
    }
}

/// A commit count desyncs before drain: no events are lost, but the record
/// is flagged garbled and maps to the shared exit code 11.
fn run_commit_desync(seed: u64) {
    let cfg = TraceConfig::small();
    let clock = Arc::new(ManualClock::new(1, 1));
    let logger = TraceLogger::builder()
        .geometry(cfg)
        .clock(clock)
        .ncpus(NCPUS)
        .build()
        .unwrap();
    register_test_events(&logger);
    let header = file_header(&logger, cfg);
    let mut logged = 0u64;
    for i in 0..40u64 {
        for cpu in 0..NCPUS {
            assert!(logger
                .handle(cpu)
                .unwrap()
                .log_slice(MajorId::TEST, cpu as u16, &[i, i]));
            logged += 1;
        }
    }
    let (slot, delta) = RegionCorruptor::new(seed).desync_commit(&logger, 1);
    assert_ne!(delta, 0, "the corruptor must move the count (slot {slot})");

    let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
    for bufs in logger.drain_all() {
        for b in bufs {
            w.write_buffer(&b).unwrap();
        }
    }
    let bytes = w.finish().unwrap();
    let report = salvage_bytes(&bytes);
    // The words themselves are intact: every event is still recovered.
    assert_eq!(report.data_events().count() as u64, logged);
    assert!(report.torn_records() >= 1, "{}", report.render());
    let lint = salvage_to_report(&report);
    assert_eq!(lint.exit_code(), ViolationKind::GarbledCommit.exit_code());
    assert_survivors_lint_clean(&bytes, &report, "commit-desync");
}

/// A CPU dies mid-reservation: its torn buffer is flagged, every event from
/// the surviving CPU and the victim's pre-crash buffers is recovered.
fn run_cpu_crash(seed: u64) {
    let cfg = TraceConfig::small();
    let clock = Arc::new(ManualClock::new(1, 1));
    let logger = TraceLogger::builder()
        .geometry(cfg)
        .clock(clock)
        .ncpus(NCPUS)
        .build()
        .unwrap();
    register_test_events(&logger);
    let header = file_header(&logger, cfg);
    let victim = 1usize;
    let mut victim_logged = 0u64;
    let mut survivor_logged = 0u64;
    for i in 0..30u64 {
        for cpu in 0..NCPUS {
            assert!(logger
                .handle(cpu)
                .unwrap()
                .log_slice(MajorId::TEST, cpu as u16, &[i, i]));
            if cpu == victim {
                victim_logged += 1;
            } else {
                survivor_logged += 1;
            }
        }
    }
    // The crash: a reservation claimed, never written, never committed.
    RegionCorruptor::new(seed)
        .abandon_reservation(&logger, victim)
        .expect("reservation");
    // The victim is dead; the rest of the machine keeps logging.
    for i in 0..30u64 {
        assert!(logger
            .handle(0)
            .unwrap()
            .log_slice(MajorId::TEST, 0, &[i, i + 7]));
        survivor_logged += 1;
    }

    let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
    for bufs in logger.drain_all() {
        for b in bufs {
            w.write_buffer(&b).unwrap();
        }
    }
    let bytes = w.finish().unwrap();
    let report = salvage_bytes(&bytes);
    assert!(report.torn_records() >= 1, "{}", report.render());
    // Every survivor-CPU event is recovered; the victim's events before the
    // tear are, too (the tear truncates decode, never rewinds it).
    let survivors = report.data_events().filter(|e| e.cpu == 0).count() as u64;
    assert_eq!(survivors, survivor_logged);
    let victims = report.data_events().filter(|e| e.cpu == victim).count() as u64;
    assert!(victims <= victim_logged);
    assert!(victims >= victim_logged.saturating_sub(cfg.buffer_words as u64));
    let lint = salvage_to_report(&report);
    assert_eq!(lint.exit_code(), ViolationKind::GarbledCommit.exit_code());
    assert_survivors_lint_clean(&bytes, &report, "cpu-crash");
}

#[test]
fn every_fault_plan_salvages_and_verifies() {
    for &seed in &seeds() {
        // The match is exhaustive on purpose: adding a FaultPlan without a
        // matrix row fails to compile.
        for plan in FaultPlan::ALL {
            eprintln!("fault-matrix: {} seed {seed:#x}", plan.name());
            match plan {
                FaultPlan::PartialWrite => run_partial_write(seed),
                FaultPlan::ShortRead => run_short_read(seed),
                FaultPlan::MidBufferTruncation => run_mid_buffer_truncation(seed),
                FaultPlan::CommitDesync => run_commit_desync(seed),
                FaultPlan::CpuCrash => run_cpu_crash(seed),
            }
        }
    }
}
