//! Timestamp-ordered merge of per-CPU event streams.
//!
//! Each CPU's records are internally time-ordered (the reservation loop
//! guarantees it), so a global view is a k-way merge. Records are parsed
//! lazily, one per CPU at a time, so merging a huge file streams instead of
//! loading everything. [`MergedEvents`] merges the records of an open
//! [`TraceFileReader`]; salvage runs the same [`LazyMerge`] over the record
//! slots it framed in a damaged image.

use crate::error::IoError;
use crate::reader::TraceFileReader;
use ktrace_core::reader::{parse_buffer, ParsedBuffer, RawEvent};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Seek};

struct CpuCursor {
    /// Records belonging to this CPU still to decode, in file (= seq) order.
    records: VecDeque<usize>,
    /// Undelivered events of the currently parsed record; its head is the
    /// CPU's candidate for the merge, peeked in place.
    current: std::vec::IntoIter<RawEvent>,
    /// End-time hint carried across records for anchor-less buffers.
    hint: Option<u64>,
}

/// The k-way merge itself, over numbered records that the caller decodes on
/// demand, one stream per CPU. Between calls every stream with records left
/// holds at least one undelivered event: [`prime`](LazyMerge::prime) before
/// the first [`pop`](LazyMerge::pop), and [`refill`](LazyMerge::refill) the
/// popped stream after every pop.
pub(crate) struct LazyMerge {
    cursors: Vec<CpuCursor>,
}

impl LazyMerge {
    /// A merge over each CPU's records, given in decode order. One stream
    /// per CPU that *has* records: the per-event scan must not grow with a
    /// CPU count that a (possibly damaged) header merely claims.
    pub(crate) fn new(per_cpu: BTreeMap<u32, VecDeque<usize>>) -> LazyMerge {
        LazyMerge {
            cursors: per_cpu
                .into_values()
                .map(|records| CpuCursor {
                    records,
                    current: Vec::new().into_iter(),
                    hint: None,
                })
                .collect(),
        }
    }

    /// Gives every stream its first undelivered event.
    pub(crate) fn prime<E>(
        &mut self,
        mut decode: impl FnMut(usize, Option<u64>) -> Result<ParsedBuffer, E>,
    ) -> Result<(), E> {
        (0..self.cursors.len()).try_for_each(|stream| self.refill(stream, &mut decode))
    }

    /// Decodes `stream`'s next records — `decode(record, time_hint)` — until
    /// it has an undelivered event or runs out. After an `Err` the stream
    /// holds no event, so `pop` never names it again: it has ended.
    pub(crate) fn refill<E>(
        &mut self,
        stream: usize,
        mut decode: impl FnMut(usize, Option<u64>) -> Result<ParsedBuffer, E>,
    ) -> Result<(), E> {
        let cursor = &mut self.cursors[stream];
        while cursor.current.as_slice().is_empty() {
            let Some(k) = cursor.records.pop_front() else {
                break;
            };
            let parsed = decode(k, cursor.hint)?;
            cursor.hint = parsed.end_time.or(cursor.hint);
            cursor.current = parsed.events.into_iter();
        }
        Ok(())
    }

    /// The undelivered event smallest by [`RawEvent::order_key`], and the
    /// stream it came from (to refill).
    pub(crate) fn pop(&mut self) -> Option<(usize, RawEvent)> {
        // A handful of streams: a linear scan beats heap bookkeeping.
        let stream = self
            .cursors
            .iter()
            .enumerate()
            .filter_map(|(s, cur)| cur.current.as_slice().first().map(|e| (e.order_key(), s)))
            .min()?
            .1;
        Some((stream, self.cursors[stream].current.next()?))
    }
}

/// Iterator yielding all events of the selected records merged by
/// [`RawEvent::order_key`] (timestamp order, ties broken by position).
pub struct MergedEvents<'a, R: Read + Seek> {
    reader: &'a mut TraceFileReader<R>,
    merge: LazyMerge,
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
        let ncpus = reader.header().ncpus;
        let mut per_cpu: BTreeMap<u32, VecDeque<usize>> = BTreeMap::new();
        for k in records {
            let (cpu, _seq, _complete, _anchor) = reader.record_meta(k)?;
            if cpu < ncpus {
                per_cpu.entry(cpu).or_default().push_back(k);
            }
        }
        let mut merge = LazyMerge::new(per_cpu);
        merge.prime(|k, hint| decode_record(reader, k, hint))?;
        Ok(MergedEvents {
            reader,
            merge,
            error: None,
        })
    }

    /// The I/O error that cut the merge short, if one occurred mid-stream.
    pub fn io_error(&self) -> Option<&IoError> {
        self.error.as_ref()
    }

    /// Ends the merge: `Err` with the I/O error that cut it short, if one
    /// did — what a caller that collected the iterator must look at before
    /// trusting what it collected.
    pub fn finish(self) -> Result<(), IoError> {
        self.error.map_or(Ok(()), Err)
    }
}

/// Reads and decodes record `k` for the merge.
fn decode_record<R: Read + Seek>(
    reader: &mut TraceFileReader<R>,
    k: usize,
    hint: Option<u64>,
) -> Result<ParsedBuffer, IoError> {
    let rec = reader.read_record(k)?;
    Ok(parse_buffer(rec.cpu as usize, rec.seq, &rec.words, hint))
}

impl<R: Read + Seek> Iterator for MergedEvents<'_, R> {
    type Item = RawEvent;

    fn next(&mut self) -> Option<RawEvent> {
        let (stream, event) = self.merge.pop()?;
        // An I/O error mid-stream ends that CPU's stream; the error is kept
        // for io_error()/finish() so callers can tell "drained" from "died".
        // The salvage module is the path that tolerates damage instead.
        let reader = &mut *self.reader;
        let refilled = self
            .merge
            .refill(stream, |k, hint| decode_record(reader, k, hint));
        if let Err(e) = refilled {
            self.error = Some(e);
        }
        Some(event)
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
