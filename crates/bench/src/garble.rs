//! E14: detecting garbled buffers and dropped events (§3.1).
//!
//! The paper's claims under test: (1) per-buffer counts detect both "not
//! enough data" (a killed/blocked logger) and the drain-time mismatch; (2)
//! "with high probability (it is unlikely that random data will have the
//! correct format of a trace event header) errors can be detected by the
//! post-processing tools"; (3) consumer overrun drops events but the count
//! is recorded in-stream.

use ktrace_analysis::table::{Align, TextTable};
use ktrace_clock::SyncClock;
use ktrace_core::{walk_buffer, Mode, TraceConfig, TraceLogger};
use ktrace_format::ids::control;
use ktrace_format::EventRegistry;
use ktrace_format::MajorId;
use ktrace_io::{FileHeader, TraceFileReader, TraceFileWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::io::Cursor;
use std::sync::Arc;

/// Part 1: overrun accounting — attempted = logged + dropped, with the drop
/// count recoverable from in-stream markers.
pub fn overrun_accounting(attempts: u64) -> (u64, u64) {
    let config = TraceConfig {
        buffer_words: 128,
        buffers_per_cpu: 2,
        mode: Mode::Stream,
    };
    let logger = TraceLogger::builder()
        .geometry(config)
        .clock(Arc::new(SyncClock::new()))
        .ncpus(1)
        .build()
        .expect("logger");
    let handle = logger.handle(0).expect("cpu 0");
    let mut logged = 0u64;
    let mut marked = 0u64;
    let mut count_markers = |b: &ktrace_core::CompletedBuffer| {
        for e in walk_buffer(&b.words, None) {
            if e.major == MajorId::CONTROL && e.minor == control::DROPPED {
                marked += e.payload.first().copied().unwrap_or(0);
            }
        }
    };
    for i in 0..attempts {
        if handle.log_slice(MajorId::TEST, 1, &[i, i]) {
            logged += 1;
        }
        // A slow consumer: takes one buffer only every 48 attempts.
        if i % 48 == 0 {
            if let Some(b) = logger.take_buffer(0) {
                count_markers(&b);
            }
        }
    }
    // Drain, then flush and drain again: with a slot free, the flush seals
    // the last drops into a marker, so every drop is in the stream.
    let taken: Vec<_> = std::iter::from_fn(|| logger.take_buffer(0)).collect();
    for b in taken.iter().chain(&logger.drain_all()[0]) {
        count_markers(b);
    }
    (logged, marked)
}

/// Part 2: corruption-detection rate. Returns (records corrupted, records
/// detected).
pub fn corruption_detection(records_to_corrupt: usize, seed: u64) -> (usize, usize) {
    // Build a clean in-memory trace file.
    let config = TraceConfig::small();
    let logger = TraceLogger::builder()
        .geometry(config)
        .clock(Arc::new(SyncClock::new()))
        .ncpus(1)
        .build()
        .expect("logger");
    let handle = logger.handle(0).expect("cpu 0");
    let header = FileHeader {
        ncpus: 1,
        buffer_words: config.buffer_words as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry: EventRegistry::with_builtin(),
    };
    let mut writer = TraceFileWriter::new(Vec::new(), &header).expect("writer");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..20_000u64 {
        handle.log_slice(MajorId::TEST, 1, &[i; 3][..rng.gen_range(0..4)]);
        while let Some(b) = logger.take_buffer(0) {
            writer.write_buffer(&b).expect("write");
        }
    }
    for bufs in logger.drain_all() {
        for b in bufs {
            writer.write_buffer(&b).expect("write");
        }
    }
    let mut bytes = writer.finish().expect("finish");

    // Corrupt one event *header* per chosen record — the paper's scenario is
    // a logger killed between reservation and header write, which leaves a
    // zero header; we also try random garbage where a header should be.
    let (hdr, hdr_len) = FileHeader::decode(&bytes).expect("header");
    let record_size = hdr.record_size();
    let records = (bytes.len() - hdr_len) / record_size;
    let mut chosen: Vec<usize> = (0..records).collect();
    for i in (1..chosen.len()).rev() {
        chosen.swap(i, rng.gen_range(0..=i));
    }
    chosen.truncate(records_to_corrupt.min(records));
    {
        let mut reader = TraceFileReader::new(Cursor::new(bytes.clone())).expect("reader");
        for (n, &rec) in chosen.iter().enumerate() {
            // Find the record's event header offsets and hit a random one
            // past the anchor.
            let words = &reader.read_record(rec).expect("read").words;
            let victims: Vec<usize> = walk_buffer(words, None).skip(1).map(|e| e.offset).collect();
            let word = victims[rng.gen_range(0..victims.len())];
            let at = hdr_len + rec * record_size + ktrace_io::file::RECORD_HEADER_BYTES + word * 8;
            let value: u64 = if n % 2 == 0 { 0 } else { rng.gen() };
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
    }

    // A record is detected when its commit count is short or its walk
    // leaves a note: the garble half of `ktrace-verify`'s lint.
    let mut reader = TraceFileReader::new(Cursor::new(bytes)).expect("reader");
    let detected = chosen
        .iter()
        .filter(|&&rec| {
            let rec = reader.read_record(rec).expect("read");
            let mut walk = walk_buffer(&rec.words, None);
            walk.by_ref().for_each(drop);
            !rec.complete || !walk.notes().is_empty()
        })
        .count();
    (chosen.len(), detected)
}

/// E14 report.
pub fn report(fast: bool) -> String {
    let attempts = if fast { 20_000 } else { 200_000 };
    let (logged, marked) = overrun_accounting(attempts);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "overrun accounting: {attempts} attempts = {logged} logged + {marked} marked dropped \
         (exact: {})",
        logged + marked == attempts
    );

    let mut t = TextTable::new(&[
        ("corrupted records", Align::Right),
        ("detected", Align::Right),
        ("rate", Align::Right),
    ]);
    let mut total = (0usize, 0usize);
    for seed in 0..if fast { 3 } else { 10 } {
        let (corrupted, detected) = corruption_detection(8, seed);
        total.0 += corrupted;
        total.1 += detected;
        t.row(vec![
            corrupted.to_string(),
            detected.to_string(),
            format!("{:.0}%", 100.0 * detected as f64 / corrupted.max(1) as f64),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\noverall detection rate {:.0}% (paper: \"with high probability… errors can be \
         detected by the post-processing tools\"; a flipped word that lands in event \
         *payload* changes data, not structure, and is legitimately invisible)",
        100.0 * total.1 as f64 / total.0.max(1) as f64
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrun_accounting_is_exact() {
        let attempts = 10_000;
        let (logged, marked) = overrun_accounting(attempts);
        assert!(logged > 0 && marked > 0, "logged {logged} marked {marked}");
        assert_eq!(logged + marked, attempts);
    }

    #[test]
    fn most_corruptions_detected() {
        let (corrupted, detected) = corruption_detection(10, 123);
        assert_eq!(corrupted, 10);
        assert!(detected >= 6, "only {detected}/10 detected");
    }

    #[test]
    fn report_renders() {
        let s = report(true);
        assert!(s.contains("overrun accounting"));
        assert!(s.contains("detection rate"));
    }
}
