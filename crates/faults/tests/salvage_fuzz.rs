//! Property: no byte-level corruption of a valid trace file can panic the
//! salvage reader. It must always return — with recovered events, a typed
//! damage report, or both — never unwrap, index out of bounds, or OOM. And
//! what it returns is, for any image, exactly what its definition says: the
//! events of the records it lists, each decoded on its own, in canonical
//! order.

use ktrace_clock::ManualClock;
use ktrace_core::{parse_buffer, RawEvent, TraceConfig, TraceLogger};
use ktrace_faults::FileCorruptor;
use ktrace_format::{EventRegistry, MajorId};
use ktrace_io::file::{body_words, frame_record};
use ktrace_io::{salvage_bytes, FileHeader, SalvageReport, TraceFileWriter};
use proptest::prelude::*;
use std::sync::Arc;

/// A small but structurally complete trace image: 2 CPUs, several records,
/// anchors, fillers, and a registry in the header.
fn valid_trace(events_per_cpu: u64) -> Vec<u8> {
    let cfg = TraceConfig::small();
    let logger = TraceLogger::builder()
        .geometry(cfg)
        .clock(Arc::new(ManualClock::new(1, 1)))
        .ncpus(2)
        .build()
        .unwrap();
    let header = FileHeader {
        ncpus: 2,
        buffer_words: cfg.buffer_words as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry: EventRegistry::with_builtin(),
    };
    let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
    for i in 0..events_per_cpu {
        for cpu in 0..2 {
            assert!(logger.handle(cpu).unwrap().log_slice(
                MajorId::TEST,
                cpu as u16,
                &[i, i.wrapping_mul(31)]
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
    w.finish().unwrap()
}

/// The definition salvage's lazy merge (and its fallback sort) must meet:
/// `report.events` is the per-record `parse_buffer` output of the records
/// the report lists — each CPU's time hint carried in file order — sorted by
/// `order_key()`, and every record accounts for its own events and notes.
fn check_against_definition(bytes: &[u8], report: &SalvageReport) -> Result<(), TestCaseError> {
    let Some(header) = &report.header else {
        prop_assert!(report.events.is_empty() && report.records.is_empty());
        return Ok(());
    };
    let mut expected: Vec<RawEvent> = Vec::new();
    let mut hints = vec![None; header.ncpus as usize];
    for rec in &report.records {
        let end = (rec.offset + header.record_size()).min(bytes.len());
        prop_assert_eq!(rec.truncated, end - rec.offset < header.record_size());
        let frame = frame_record(&bytes[rec.offset..end]).expect("a listed record frames");
        prop_assert_eq!((frame.cpu, frame.seq), (rec.cpu, rec.seq));
        let words: Vec<u64> = body_words(frame.body).collect();
        let hint = hints[rec.cpu as usize];
        let parsed = parse_buffer(rec.cpu as usize, rec.seq, &words, hint);
        hints[rec.cpu as usize] = parsed.end_time.or(hint);
        prop_assert_eq!(
            rec.events,
            parsed.events.len(),
            "record at byte {}",
            rec.offset
        );
        prop_assert_eq!(&rec.notes, &parsed.notes, "record at byte {}", rec.offset);
        expected.extend(parsed.events);
    }
    prop_assert_eq!(
        report.events.len(),
        report.records.iter().map(|r| r.events).sum::<usize>()
    );
    prop_assert!(
        report
            .events
            .windows(2)
            .all(|w| w[0].order_key() <= w[1].order_key()),
        "events out of order_key order"
    );
    // The same multiset. A record written twice repeats its keys, so order
    // both sides by everything that tells two events apart.
    let total = |e: &RawEvent| (e.order_key(), e.major.raw(), e.minor, e.payload.to_vec());
    let mut got: Vec<&RawEvent> = report.events.iter().collect();
    got.sort_by_key(|e| total(e));
    let mut want: Vec<&RawEvent> = expected.iter().collect();
    want.sort_by_key(|e| total(e));
    prop_assert!(
        got == want,
        "recovered events differ from the listed records' events"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seed-driven mutations from the fault harness's own corruptor:
    /// truncation, byte flips, zeroed spans, several in sequence.
    #[test]
    fn corruptor_mutations_never_panic_salvage(
        seed in any::<u64>(),
        events in 1u64..300,
        rounds in 1usize..4,
    ) {
        let mut bytes = valid_trace(events);
        let total = salvage_bytes(&bytes).events.len();
        let mut corruptor = FileCorruptor::new(seed);
        for _ in 0..rounds {
            corruptor.mutate(&mut bytes);
        }
        let report = salvage_bytes(&bytes);
        // Salvage never invents events out of damage.
        prop_assert!(report.events.len() <= total);
        // The report's accounting is internally consistent.
        prop_assert_eq!(
            report.events.len(),
            report.records.iter().map(|r| r.events).sum::<usize>()
        );
        prop_assert!(report.skipped_bytes + report.trailing_bytes <= report.file_bytes);
        check_against_definition(&bytes, &report)?;
    }

    /// Raw random overwrites at arbitrary offsets, bypassing the corruptor:
    /// the reader must cope with any byte soup that still starts life as a
    /// trace file.
    #[test]
    fn arbitrary_overwrites_never_panic_salvage(
        events in 1u64..200,
        patches in prop::collection::vec((any::<u32>(), prop::collection::vec(any::<u8>(), 1..64)), 1..8),
    ) {
        let mut bytes = valid_trace(events);
        for (at, patch) in &patches {
            if bytes.is_empty() {
                break;
            }
            let at = *at as usize % bytes.len();
            let end = (at + patch.len()).min(bytes.len());
            bytes[at..end].copy_from_slice(&patch[..end - at]);
        }
        let report = salvage_bytes(&bytes);
        prop_assert!(report.file_bytes == bytes.len());
        // Every surviving event still carries a CPU the header declares
        // (when the header survived at all).
        if let Some(h) = &report.header {
            prop_assert!(report.events.iter().all(|e| (e.cpu as u32) < h.ncpus));
        }
        check_against_definition(&bytes, &report)?;
    }

    /// Pure noise — not even a valid prefix — must yield an empty, typed
    /// report rather than a crash.
    #[test]
    fn random_garbage_never_panics_salvage(
        noise in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let report = salvage_bytes(&noise);
        prop_assert_eq!(report.file_bytes, noise.len());
        if !report.header_ok {
            prop_assert!(report.events.is_empty());
        }
    }
}
