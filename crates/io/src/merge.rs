//! Timestamp-ordered merge of per-CPU event streams.
//!
//! Each CPU's records are internally time-ordered (the reservation loop
//! guarantees it), so a global view is a k-way merge. Records are parsed
//! lazily, one per CPU at a time, so merging a huge file streams instead of
//! loading everything. [`MergedEvents`] merges the records of an open
//! [`TraceFileReader`]; salvage runs the same [`LazyMerge`] over the record
//! slots it framed in a damaged image. Each CPU's cursor walks its current
//! record where the words lie and builds a [`RawEvent`] only when the merge
//! delivers it, straight into the caller's `Vec` or the iterator's item.

use crate::error::IoError;
use crate::reader::TraceFileReader;
use ktrace_core::reader::{EventView, GarbleNote, RawEvent, WalkState};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Seek};

/// What [`RawEvent::order_key`] returns.
type OrderKey = (u64, usize, u64, usize);

/// Where a merge's numbered records come from.
pub(crate) trait RecordSource {
    /// Why a record could not be had.
    type Error;

    /// Replaces `words` with record `k`'s buffer words; returns its
    /// `(cpu, seq, complete)`.
    fn fetch(&mut self, k: usize, words: &mut Vec<u64>) -> Result<(u32, u64, bool), Self::Error>;

    /// Record `k` has been walked to its end: the events it yielded and the
    /// notes the walk took.
    fn walked(&mut self, _k: usize, _events: usize, _notes: Vec<GarbleNote>) {}
}

/// What a cursor keeps of its head between runs: the view's fixed fields,
/// over no words. The payload stays where it lies — the `payload_len` words
/// after the header at `offset`, in the cursor's words — until the event is
/// delivered.
#[derive(Clone, Copy)]
struct Head {
    fixed: EventView<'static>,
    payload_len: usize,
}

impl Head {
    fn of(v: &EventView<'_>) -> Head {
        Head {
            fixed: EventView {
                offset: v.offset,
                time: v.time,
                ts32: v.ts32,
                major: v.major,
                minor: v.minor,
                payload: &[],
            },
            payload_len: v.payload.len(),
        }
    }

    /// The view again, over the words it was taken from.
    fn view<'a>(&self, words: &'a [u64]) -> EventView<'a> {
        EventView {
            payload: &words[self.fixed.offset + 1..][..self.payload_len],
            ..self.fixed
        }
    }
}

#[derive(Default)]
struct CpuCursor {
    /// Records belonging to this CPU still to walk, in file (= seq) order.
    records: VecDeque<usize>,
    /// The record being walked — its index, identity and words — and the
    /// walk over them, one event ahead of what has been delivered.
    record: Option<usize>,
    cpu: usize,
    seq: u64,
    words: Vec<u64>,
    walk: WalkState,
    /// Events the walk has yielded from this record so far.
    yielded: usize,
    /// The undelivered event the walk stands after: the CPU's candidate for
    /// the merge.
    head: Option<Head>,
    /// End-time hint carried across records for anchor-less buffers.
    hint: Option<u64>,
}

impl CpuCursor {
    /// Steps to the next undelivered event, fetching this CPU's next records
    /// as the walk runs off each. After an `Err`, or out of records, the
    /// cursor has no head and the merge never names it again: it has ended.
    fn advance<S: RecordSource>(&mut self, source: &mut S) -> Result<(), S::Error> {
        self.head = None;
        loop {
            if let Some(v) = self.walk.step(&self.words) {
                self.yielded += 1;
                self.head = Some(Head::of(&v));
                return Ok(());
            }
            self.hint = self.walk.end_time().or(self.hint);
            let walk = std::mem::replace(&mut self.walk, WalkState::new(self.hint));
            if let Some(k) = self.record.take() {
                source.walked(k, self.yielded, walk.into_notes());
            }
            self.words.clear();
            let Some(k) = self.records.pop_front() else {
                return Ok(());
            };
            let (cpu, seq, _complete) = source.fetch(k, &mut self.words)?;
            (self.cpu, self.seq) = (cpu as usize, seq);
            (self.record, self.yielded) = (Some(k), 0);
        }
    }

    /// Delivers this stream's events into `out` for as long as they do not
    /// pass `bound`, each built where it will stay; inside a record the head
    /// is a borrowed view and is parked as a [`Head`] only where the run
    /// ends. Returns whether every key followed `last`, which it moves on.
    fn run<S: RecordSource>(
        &mut self,
        bound: Option<OrderKey>,
        last: &mut OrderKey,
        out: &mut Vec<RawEvent>,
        source: &mut S,
    ) -> Result<bool, S::Error> {
        let mut ordered = true;
        while let Some(head) = self.head.take() {
            let (cpu, seq) = (self.cpu, self.seq);
            let mut next = Some(head.view(&self.words));
            while let Some(v) = next {
                let key = (v.time, cpu, seq, v.offset);
                if bound.is_some_and(|b| key > b) {
                    self.head = Some(Head::of(&v));
                    return Ok(ordered);
                }
                ordered &= *last <= key;
                *last = key;
                out.push(v.to_raw(cpu, seq));
                next = self.walk.step(&self.words);
                self.yielded += usize::from(next.is_some());
            }
            self.advance(source)?;
        }
        Ok(ordered)
    }
}

/// The k-way merge itself, over numbered records fetched on demand, one
/// stream per CPU, each holding one record's words and a resumable walk over
/// them. Every stream with events left holds its next one as a head;
/// [`pop`](LazyMerge::pop) delivers the smallest, and
/// [`drain_into`](LazyMerge::drain_into) all that are left.
pub(crate) struct LazyMerge {
    cursors: Vec<CpuCursor>,
}

impl LazyMerge {
    /// A merge over each CPU's records, given in decode order, every stream
    /// at its first event. One stream per CPU that *has* records: the
    /// per-event scan must not grow with a CPU count that a (possibly
    /// damaged) header merely claims.
    pub(crate) fn new<S: RecordSource>(
        per_cpu: BTreeMap<u32, VecDeque<usize>>,
        source: &mut S,
    ) -> Result<LazyMerge, S::Error> {
        let mut cursors: Vec<CpuCursor> = per_cpu
            .into_values()
            .map(|records| CpuCursor {
                records,
                ..CpuCursor::default()
            })
            .collect();
        cursors.iter_mut().try_for_each(|c| c.advance(source))?;
        Ok(LazyMerge { cursors })
    }

    /// Every stream's head key, with the stream it is the head of.
    fn heads(&self) -> impl Iterator<Item = (OrderKey, usize)> + '_ {
        // A handful of streams: a linear scan beats heap bookkeeping.
        self.cursors.iter().enumerate().filter_map(|(s, cur)| {
            let head = cur.head?.fixed;
            Some(((head.time, cur.cpu, cur.seq, head.offset), s))
        })
    }

    /// Delivers the undelivered event smallest by [`RawEvent::order_key`]
    /// and moves its stream on, which is what can fail.
    pub(crate) fn pop<S: RecordSource>(
        &mut self,
        source: &mut S,
    ) -> Option<(RawEvent, Result<(), S::Error>)> {
        let (_, stream) = self.heads().min()?;
        let cursor = &mut self.cursors[stream];
        let event = cursor.head?.view(&cursor.words);
        let event = event.to_raw(cursor.cpu, cursor.seq);
        Some((event, cursor.advance(source)))
    }

    /// Appends every remaining event to `out` in merge order, a run at a
    /// time: the stream with the smallest head delivers until its head passes
    /// the smallest head among the others, so an event inside a run costs a
    /// comparison with that bound, not a scan of the streams. Returns whether
    /// the appended events came out in [`RawEvent::order_key`] order — they
    /// do when every stream is itself in order, which honest streams are and
    /// a garbled one (rewound times, a record written twice) need not be.
    pub(crate) fn drain_into<S: RecordSource>(
        &mut self,
        source: &mut S,
        out: &mut Vec<RawEvent>,
    ) -> Result<bool, S::Error> {
        let mut ordered = true;
        let mut last = OrderKey::default();
        while let Some((_, stream)) = self.heads().min() {
            let others = self.heads().filter(|&(_, s)| s != stream);
            let bound = others.map(|(key, _)| key).min();
            ordered &= self.cursors[stream].run(bound, &mut last, out, source)?;
        }
        Ok(ordered)
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
        let merge = LazyMerge::new(per_cpu, reader)?;
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

    /// Collects the rest of the merge into `out`; `Ok(true)` vouches that it
    /// arrived in [`RawEvent::order_key`] order
    /// ([`LazyMerge::drain_into`]). An I/O error is returned, not parked.
    pub(crate) fn drain_into(mut self, out: &mut Vec<RawEvent>) -> Result<bool, IoError> {
        self.merge.drain_into(self.reader, out)
    }
}

impl<R: Read + Seek> Iterator for MergedEvents<'_, R> {
    type Item = RawEvent;

    fn next(&mut self) -> Option<RawEvent> {
        let (event, moved_on) = self.merge.pop(self.reader)?;
        // An I/O error mid-stream ends that CPU's stream; the error is kept
        // for io_error()/finish() so callers can tell "drained" from "died".
        // The salvage module is the path that tolerates damage instead.
        if let Err(e) = moved_on {
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
                    .log_slice(MajorId::TEST, cpu as u16, &[i, i]));
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
