//! Property-based file roundtrip: arbitrary multi-CPU event streams survive
//! the write→read→merge pipeline bit-exactly.

use ktrace_clock::ManualClock;
use ktrace_core::{walk_buffer, TraceConfig, TraceLogger};
use ktrace_format::{EventRegistry, MajorId};
use ktrace_io::{FileHeader, TraceFileReader, TraceFileWriter};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multi_cpu_file_roundtrip(
        ncpus in 1usize..5,
        events in prop::collection::vec(
            (0usize..4, 1u8..64, any::<u16>(), prop::collection::vec(any::<u64>(), 0..8)),
            1..400,
        ),
    ) {
        let config = TraceConfig::small();
        let logger = TraceLogger::builder().geometry(config).clock(Arc::new(ManualClock::new(1, 1))).ncpus(ncpus).build().unwrap();
        let header = FileHeader {
            ncpus: ncpus as u32,
            buffer_words: config.buffer_words as u32,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry: EventRegistry::with_builtin(),
        };
        let mut writer = TraceFileWriter::new(Vec::new(), &header).unwrap();

        // Log with interleaved draining; keep the per-CPU expectations.
        let mut expected: Vec<Vec<(u8, u16, Vec<u64>)>> = vec![Vec::new(); ncpus];
        for (cpu, major, minor, payload) in &events {
            let cpu = cpu % ncpus;
            let major_id = MajorId::new(*major).unwrap();
            if logger.handle(cpu).unwrap().log_slice(major_id, *minor, payload) {
                expected[cpu].push((*major, *minor, payload.clone()));
            }
            for c in 0..ncpus {
                while let Some(b) = logger.take_buffer(c) {
                    writer.write_buffer(&b).unwrap();
                }
            }
        }
        for bufs in logger.drain_all() {
            for b in bufs {
                writer.write_buffer(&b).unwrap();
            }
        }
        let bytes = writer.finish().unwrap();

        // Read back merged: per-CPU subsequences must match exactly.
        let mut reader = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        // No garbling: every record committed in full and decodes note-free.
        for k in 0..reader.record_count() {
            let rec = reader.read_record(k).unwrap();
            let mut walk = walk_buffer(&rec.words, None);
            walk.by_ref().for_each(drop);
            prop_assert!(rec.complete && walk.notes().is_empty(), "record {} garbled", k);
        }
        let mut got: Vec<Vec<(u8, u16, Vec<u64>)>> = vec![Vec::new(); ncpus];
        let mut last_key = None;
        for e in reader.events().unwrap() {
            // Canonical order, so time order too: `time` leads the key.
            prop_assert!(Some(e.order_key()) >= last_key, "merge order violated");
            last_key = Some(e.order_key());
            if !e.is_control() {
                got[e.cpu].push((e.major.raw(), e.minor, e.payload.to_vec()));
            }
        }
        prop_assert_eq!(&got, &expected);
    }
}
