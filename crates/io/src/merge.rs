//! Timestamp-ordered merge of per-CPU event streams.
//!
//! Each CPU's records are internally time-ordered (the reservation loop
//! guarantees it), so a global view is a k-way merge. Records are parsed
//! lazily, one per CPU at a time, so merging a huge file streams instead of
//! loading everything.

use crate::error::IoError;
use crate::reader::TraceFileReader;
use ktrace_core::reader::{parse_buffer, RawEvent};
use std::collections::VecDeque;
use std::io::{Read, Seek};

struct CpuCursor {
    /// Record indices belonging to this CPU, in file (= seq) order.
    records: VecDeque<usize>,
    /// Events of the currently parsed record.
    current: std::vec::IntoIter<RawEvent>,
    /// Next event, peeked for merge ordering.
    peeked: Option<RawEvent>,
    /// End-time hint carried across records for anchor-less buffers.
    hint: Option<u64>,
}

/// Iterator yielding all events of the selected records merged by
/// [`RawEvent::order_key`] (timestamp order, ties broken by position).
pub struct MergedEvents<'a, R: Read + Seek> {
    reader: &'a mut TraceFileReader<R>,
    cursors: Vec<CpuCursor>,
    error: Option<IoError>,
}

impl<'a, R: Read + Seek> MergedEvents<'a, R> {
    /// Builds a merge over the given record indices (any order; they are
    /// grouped per CPU and kept in file order within each CPU).
    pub fn over_records(
        reader: &'a mut TraceFileReader<R>,
        mut records: Vec<usize>,
    ) -> Result<MergedEvents<'a, R>, IoError> {
        records.sort_unstable();
        let ncpus = reader.header().ncpus as usize;
        let mut per_cpu: Vec<VecDeque<usize>> = vec![VecDeque::new(); ncpus];
        for k in records {
            let (cpu, _seq, _complete, _anchor) = reader.record_meta(k)?;
            if (cpu as usize) < ncpus {
                per_cpu[cpu as usize].push_back(k);
            }
        }
        let mut merged = MergedEvents {
            reader,
            cursors: per_cpu
                .into_iter()
                .map(|records| CpuCursor {
                    records,
                    current: Vec::new().into_iter(),
                    peeked: None,
                    hint: None,
                })
                .collect(),
            error: None,
        };
        for cpu in 0..merged.cursors.len() {
            merged.advance(cpu)?;
        }
        Ok(merged)
    }

    /// The I/O error that cut the merge short, if one occurred mid-stream.
    pub fn io_error(&self) -> Option<&IoError> {
        self.error.as_ref()
    }

    /// Refills `cursors[cpu].peeked`, parsing the next record when the
    /// current one is exhausted.
    fn advance(&mut self, cpu: usize) -> Result<(), IoError> {
        loop {
            if let Some(e) = self.cursors[cpu].current.next() {
                self.cursors[cpu].peeked = Some(e);
                return Ok(());
            }
            let Some(k) = self.cursors[cpu].records.pop_front() else {
                self.cursors[cpu].peeked = None;
                return Ok(());
            };
            let rec = self.reader.record(k)?;
            let parsed = parse_buffer(
                rec.cpu as usize,
                rec.seq,
                &rec.words,
                self.cursors[cpu].hint,
            );
            self.cursors[cpu].hint = parsed.end_time.or(self.cursors[cpu].hint);
            self.cursors[cpu].current = parsed.events.into_iter();
        }
    }
}

impl<R: Read + Seek> Iterator for MergedEvents<'_, R> {
    type Item = RawEvent;

    fn next(&mut self) -> Option<RawEvent> {
        // ≤ 64 CPUs: a linear scan beats heap bookkeeping.
        let cpu = self
            .cursors
            .iter()
            .enumerate()
            .filter_map(|(c, cur)| cur.peeked.as_ref().map(|e| (e.order_key(), c)))
            .min()?
            .1;
        let event = self.cursors[cpu].peeked.take();
        // An I/O error mid-stream ends that CPU's stream; the error is kept
        // for io_error() so callers can tell "drained" from "died". The
        // salvage module is the path that tolerates damage instead.
        if let Err(e) = self.advance(cpu) {
            self.error = Some(e);
        }
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileHeader;
    use crate::writer::TraceFileWriter;
    use ktrace_clock::ManualClock;
    use ktrace_core::{TraceConfig, TraceLogger};
    use ktrace_format::{EventRegistry, MajorId};
    use std::io::Cursor;
    use std::sync::Arc;

    fn trace_with(ncpus: usize, per_cpu_events: u64) -> Vec<u8> {
        let cfg = TraceConfig::small();
        let clock = Arc::new(ManualClock::new(1, 1));
        let logger = TraceLogger::builder()
            .geometry(cfg)
            .clock(clock)
            .ncpus(ncpus)
            .build()
            .unwrap();
        let header = FileHeader {
            ncpus: ncpus as u32,
            buffer_words: cfg.buffer_words as u32,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry: EventRegistry::with_builtin(),
        };
        let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
        for i in 0..per_cpu_events {
            for cpu in 0..ncpus {
                assert!(logger
                    .handle(cpu)
                    .unwrap()
                    .log2(MajorId::TEST, cpu as u16, i, i));
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

    #[test]
    fn merge_is_globally_time_ordered_and_complete() {
        let bytes = trace_with(4, 200);
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let events: Vec<RawEvent> = r.events().unwrap().collect();
        let data: Vec<&RawEvent> = events.iter().filter(|e| !e.is_control()).collect();
        assert_eq!(data.len(), 4 * 200);
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        // Per-CPU subsequences preserve their payload order.
        for cpu in 0..4 {
            let seq: Vec<u64> = data
                .iter()
                .filter(|e| e.cpu == cpu)
                .map(|e| e.payload[0])
                .collect();
            assert_eq!(seq, (0..200).collect::<Vec<u64>>(), "cpu {cpu}");
        }
    }

    #[test]
    fn merge_over_subset_of_records() {
        let bytes = trace_with(2, 300);
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let total = r.record_count();
        assert!(total >= 4);
        // Merge only the first record of each CPU.
        let mut firsts = Vec::new();
        let mut seen = [false; 2];
        for k in 0..total {
            let (cpu, seq, _, _) = r.record_meta(k).unwrap();
            if seq == 0 && !seen[cpu as usize] {
                seen[cpu as usize] = true;
                firsts.push(k);
            }
        }
        let events: Vec<RawEvent> = MergedEvents::over_records(&mut r, firsts)
            .unwrap()
            .collect();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.seq == 0));
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn empty_selection_yields_nothing() {
        let bytes = trace_with(1, 10);
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let events: Vec<RawEvent> = MergedEvents::over_records(&mut r, Vec::new())
            .unwrap()
            .collect();
        assert!(events.is_empty());
    }
}
