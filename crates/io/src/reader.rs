//! Random-access trace file reader.
//!
//! Records are fixed-size, so the reader can jump straight to any record —
//! and because each buffer begins with a time anchor, a cheap index from
//! record number to start time is built by reading just three words per
//! record. Displaying "a middle 5 seconds" of a huge trace therefore touches
//! only the overlapping records ([`TraceFileReader::events_between`]).

use crate::error::IoError;
use crate::file::{body_words, frame_record, FileHeader, RecordFrame, RECORD_HEADER_BYTES};
use crate::merge::{MergedEvents, RecordSource};
use crate::trace::Trace;
use ktrace_core::reader::RawEvent;
use ktrace_format::EventHeader;
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// One buffer record read back from a file.
#[derive(Debug, Clone, Default)]
pub struct BufferRecord {
    /// Index of the record in the file.
    pub index: usize,
    /// CPU that produced the buffer.
    pub cpu: u32,
    /// Buffer sequence number within that CPU's region.
    pub seq: u64,
    /// Whether the commit count matched when the buffer was drained.
    pub complete: bool,
    /// The buffer words.
    pub words: Vec<u64>,
}

/// Reader over any seekable source (usually a file).
pub struct TraceFileReader<R: Read + Seek> {
    source: R,
    header: FileHeader,
    data_start: u64,
    record_count: usize,
    /// The bytes and the decoded form of the record read last, reused from
    /// read to read ([`read_record`](Self::read_record)).
    bytes: Vec<u8>,
    scratch: BufferRecord,
}

impl TraceFileReader<std::io::BufReader<std::fs::File>> {
    /// Opens a trace file.
    pub fn open(
        path: impl AsRef<Path>,
    ) -> Result<TraceFileReader<std::io::BufReader<std::fs::File>>, IoError> {
        let file = std::fs::File::open(path)?;
        TraceFileReader::new(std::io::BufReader::new(file))
    }
}

impl<R: Read + Seek> TraceFileReader<R> {
    /// Wraps a seekable source, decoding the header eagerly.
    pub fn new(mut source: R) -> Result<TraceFileReader<R>, IoError> {
        let total = source.seek(SeekFrom::End(0))?;
        source.seek(SeekFrom::Start(0))?;
        // Headers are small; read a generous prefix to decode from.
        let prefix_len = total.min(1 << 20) as usize;
        let mut prefix = vec![0u8; prefix_len];
        source.read_exact(&mut prefix)?;
        let (header, header_len) = FileHeader::decode(&prefix)?;
        let data_start = header_len as u64;
        let record_size = header.record_size() as u64;
        let data_bytes = total - data_start;
        if !data_bytes.is_multiple_of(record_size) {
            return Err(IoError::BadHeader(
                "data section is not a whole number of records",
            ));
        }
        Ok(TraceFileReader {
            source,
            header,
            data_start,
            record_count: (data_bytes / record_size) as usize,
            bytes: Vec::new(),
            scratch: BufferRecord::default(),
        })
    }

    /// The decoded file header.
    pub fn header(&self) -> &FileHeader {
        &self.header
    }

    /// Number of buffer records in the file.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    fn record_offset(&self, index: usize) -> u64 {
        self.data_start + index as u64 * self.header.record_size() as u64
    }

    fn check_index(&self, index: usize) -> Result<(), IoError> {
        if index >= self.record_count {
            return Err(IoError::RecordOutOfRange {
                index,
                count: self.record_count,
            });
        }
        Ok(())
    }

    /// Reads the first `bytes.len()` bytes of record `index` (a single
    /// seek, no scanning) and frames them; a refusal is an `Err`.
    fn read_frame<'b>(
        &mut self,
        index: usize,
        bytes: &'b mut [u8],
    ) -> Result<RecordFrame<'b>, IoError> {
        self.check_index(index)?;
        self.source
            .seek(SeekFrom::Start(self.record_offset(index)))?;
        self.source.read_exact(bytes)?;
        frame_record(bytes).map_err(|e| IoError::CorruptRecord {
            index,
            reason: e.reason(),
        })
    }

    /// Reads record `index` in full into the reader's own record buffer,
    /// which the next read overwrites: the allocation-free form of
    /// [`record`](Self::record) for callers that decode and move on.
    pub fn read_record(&mut self, index: usize) -> Result<&BufferRecord, IoError> {
        let mut words = std::mem::take(&mut self.scratch.words);
        let framed = self.fetch(index, &mut words);
        self.scratch.words = words;
        let rec = &mut self.scratch;
        (rec.cpu, rec.seq, rec.complete) = framed?;
        rec.index = index;
        Ok(&self.scratch)
    }

    /// Reads record `index` in full.
    pub fn record(&mut self, index: usize) -> Result<BufferRecord, IoError> {
        self.read_record(index).cloned()
    }

    /// Reads only a record's identity and anchor time (header + 3 words):
    /// the cheap per-record metadata the time index is built from.
    pub fn record_meta(&mut self, index: usize) -> Result<(u32, u64, bool, Option<u64>), IoError> {
        let mut bytes = [0u8; RECORD_HEADER_BYTES + 3 * 8];
        let frame = self.read_frame(index, &mut bytes)?;
        let mut words = body_words(frame.body);
        let anchor = match (words.next(), words.next()) {
            (Some(w0), Some(w1)) => EventHeader::decode(w0)
                .ok()
                .filter(|h| h.is_time_anchor())
                .map(|_| w1),
            _ => None,
        };
        Ok((frame.cpu, frame.seq, frame.complete, anchor))
    }

    /// A timestamp-merged iterator over every event in the file.
    pub fn events(&mut self) -> Result<MergedEvents<'_, R>, IoError> {
        let all: Vec<usize> = (0..self.record_count).collect();
        MergedEvents::over_records(self, all)
    }

    /// Events whose timestamps fall in `[t0, t1)`, touching only records
    /// that can overlap the window (via the anchor-time index).
    pub fn events_between(&mut self, t0: u64, t1: u64) -> Result<Vec<RawEvent>, IoError> {
        // Build the cheap index: (cpu, record, anchor time).
        let mut per_cpu: BTreeMap<u32, Vec<(usize, Option<u64>)>> = BTreeMap::new();
        for k in 0..self.record_count {
            let (cpu, _seq, _complete, anchor) = self.record_meta(k)?;
            if cpu < self.header.ncpus {
                per_cpu.entry(cpu).or_default().push((k, anchor));
            }
        }
        // A record spans [its anchor, next record-of-same-cpu's anchor).
        let mut wanted = Vec::new();
        for records in per_cpu.values() {
            for (i, &(k, start)) in records.iter().enumerate() {
                let start = start.unwrap_or(0);
                let end = records.get(i + 1).and_then(|&(_, a)| a).unwrap_or(u64::MAX);
                if start < t1 && end > t0 {
                    wanted.push(k);
                }
            }
        }
        wanted.sort_unstable();
        let mut merged = MergedEvents::over_records(self, wanted)?;
        let events = merged
            .by_ref()
            .filter(|e| e.time >= t0 && e.time < t1)
            .collect();
        merged.finish()?;
        Ok(events)
    }

    /// Loads the whole file, or with `window = Some((t0, t1))` only the
    /// events in `[t0, t1)` (via [`events_between`](Self::events_between)),
    /// as a [`Trace`]: the one step from an open reader to the model every
    /// tool consumes.
    pub fn load(&mut self, window: Option<(u64, u64)>) -> Result<Trace, IoError> {
        let (events, ordered) = match window {
            Some((t0, t1)) => (self.events_between(t0, t1)?, false),
            None => {
                let mut events = Vec::new();
                // Room for three-word events wall to wall; a reservation too
                // big to grant is simply not made.
                let per_record = self.header.buffer_words as usize / 3;
                let _ = events.try_reserve(self.record_count.saturating_mul(per_record));
                let ordered = self.events()?.drain_into(&mut events)?;
                (events, ordered)
            }
        };
        // Only a merge that vouches for its own order is spared the sort.
        let build = if ordered {
            Trace::from_ordered
        } else {
            Trace::new
        };
        Ok(build(
            events,
            self.header.registry.clone(),
            self.header.ticks_per_sec,
        ))
    }
}

/// A record read in full is one seek, one read, one bytes→words pass.
impl<R: Read + Seek> RecordSource for TraceFileReader<R> {
    type Error = IoError;

    fn fetch(&mut self, index: usize, words: &mut Vec<u64>) -> Result<(u32, u64, bool), IoError> {
        let mut bytes = std::mem::take(&mut self.bytes);
        bytes.resize(self.header.record_size(), 0);
        let framed = self.read_frame(index, &mut bytes).map(|frame| {
            words.clear();
            words.extend(body_words(frame.body));
            (frame.cpu, frame.seq, frame.complete)
        });
        self.bytes = bytes;
        framed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceFileWriter;
    use ktrace_clock::ManualClock;
    use ktrace_core::reader::parse_buffer;
    use ktrace_core::{TraceConfig, TraceLogger};
    use ktrace_format::{EventRegistry, MajorId};
    use std::io::Cursor;
    use std::sync::Arc;

    /// Logs events on 2 CPUs, writes a file into memory, returns its bytes.
    fn sample_trace() -> (Vec<u8>, u64) {
        let header = FileHeader {
            ncpus: 2,
            buffer_words: TraceConfig::small().buffer_words as u32,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry: EventRegistry::with_builtin(),
        };
        let clock = Arc::new(ManualClock::new(1000, 10));
        let logger = TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(clock)
            .ncpus(2)
            .build()
            .unwrap();
        let h0 = logger.handle(0).unwrap();
        let h1 = logger.handle(1).unwrap();
        let mut w = TraceFileWriter::new(Vec::new(), &header).unwrap();
        let mut logged = 0u64;
        for i in 0..300u64 {
            assert!(h0.log_slice(MajorId::TEST, 1, &[i, i * 3]));
            logged += 1;
            if i % 2 == 0 {
                assert!(h1.log_slice(MajorId::MEM, 2, &[i]));
                logged += 1;
            }
            for cpu in 0..2 {
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
        (w.finish().unwrap(), logged)
    }

    #[test]
    fn roundtrip_all_events_merged_in_time_order() {
        let (bytes, logged) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.record_count() > 2, "trace should span several buffers");
        let events: Vec<RawEvent> = r.events().unwrap().collect();
        let data: Vec<&RawEvent> = events.iter().filter(|e| !e.is_control()).collect();
        assert_eq!(data.len() as u64, logged);
        assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "merged order"
        );
        // Both CPUs present.
        assert!(data.iter().any(|e| e.cpu == 0));
        assert!(data.iter().any(|e| e.cpu == 1));
    }

    #[test]
    fn random_record_access() {
        let (bytes, _) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let last = r.record_count() - 1;
        // Read records out of order; each stands alone.
        let rec_last = r.record(last).unwrap();
        let rec_0 = r.record(0).unwrap();
        assert_eq!(rec_0.index, 0);
        assert_eq!(rec_last.index, last);
        assert!(r.record(last + 1).is_err());
        // Every complete record decodes cleanly on its own (random access).
        for k in [last, 0, last / 2] {
            let rec = r.record(k).unwrap();
            let parsed = parse_buffer(rec.cpu as usize, rec.seq, &rec.words, None);
            assert!(rec.complete);
            assert!(parsed.clean());
            assert!(!parsed.events.is_empty());
            assert!(
                parsed.events[0].is_control(),
                "records start with an anchor"
            );
        }
    }

    #[test]
    fn record_meta_reads_anchor_cheaply() {
        let (bytes, _) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let (cpu, seq, complete, anchor) = r.record_meta(0).unwrap();
        assert!(cpu < 2);
        assert_eq!(seq, 0);
        assert!(complete);
        let rec = r.record(0).unwrap();
        let full = parse_buffer(rec.cpu as usize, rec.seq, &rec.words, None).events;
        assert_eq!(anchor, Some(full[0].payload[0]));
    }

    #[test]
    fn events_between_returns_exactly_the_window() {
        let (bytes, _) = sample_trace();
        let mut r = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let all: Vec<RawEvent> = r.events().unwrap().filter(|e| !e.is_control()).collect();
        let lo = all[all.len() / 4].time;
        let hi = all[3 * all.len() / 4].time;
        let expect: Vec<&RawEvent> = all.iter().filter(|e| e.time >= lo && e.time < hi).collect();
        let got = r.events_between(lo, hi).unwrap();
        let got_data: Vec<&RawEvent> = got.iter().filter(|e| !e.is_control()).collect();
        assert_eq!(got_data.len(), expect.len());
        assert_eq!(
            got_data.first().map(|e| e.time),
            expect.first().map(|e| e.time)
        );
        assert_eq!(
            got_data.last().map(|e| e.time),
            expect.last().map(|e| e.time)
        );
    }

    /// A good image whose `fail_on`-th read of a whole record errors: a disk
    /// that dies after the metadata pass succeeded.
    struct DiesMidRead {
        image: Cursor<Vec<u8>>,
        record_size: usize,
        record_reads: usize,
        fail_on: usize,
    }

    impl Read for DiesMidRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if buf.len() == self.record_size {
                self.record_reads += 1;
                if self.record_reads == self.fail_on {
                    return Err(std::io::Error::other("injected read failure"));
                }
            }
            self.image.read(buf)
        }
    }

    impl Seek for DiesMidRead {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.image.seek(pos)
        }
    }

    #[test]
    fn a_read_that_fails_mid_merge_is_an_error_not_a_shorter_trace() {
        let (bytes, _) = sample_trace();
        let (header, _) = FileHeader::decode(&bytes).unwrap();
        let dying = |fail_on| {
            TraceFileReader::new(DiesMidRead {
                image: Cursor::new(bytes.clone()),
                record_size: header.record_size(),
                record_reads: 0,
                fail_on,
            })
            .unwrap()
        };
        let records = dying(usize::MAX).record_count();
        assert!(records > 4, "trace should span several buffers per cpu");
        // Opening the merge reads each CPU's first record; the failure comes
        // after that, on every later record in turn.
        for fail_on in 3..=records {
            let mut r = dying(fail_on);
            assert!(
                matches!(r.load(None), Err(IoError::Io(_))),
                "load with read {fail_on} of {records} failing"
            );
            let mut r = dying(fail_on);
            assert!(matches!(r.events_between(0, u64::MAX), Err(IoError::Io(_))));
            // Iterating by hand still ends that CPU's stream and parks the
            // error where the caller can find it.
            let mut r = dying(fail_on);
            let mut merged = r.events().unwrap();
            let seen = merged.by_ref().count();
            assert!(merged.io_error().is_some());
            assert!(seen < dying(usize::MAX).events().unwrap().count());
        }
    }

    #[test]
    fn a_header_claiming_four_billion_cpus_sizes_nothing() {
        // `ncpus` is outside input: nothing may be allocated, or scanned per
        // event, in proportion to it. (Fixed header layout: magic 8, version
        // 4, flags 4, then ncpus.)
        let (bytes, _) = sample_trace();
        let mut inflated = bytes.clone();
        inflated[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut honest = TraceFileReader::new(Cursor::new(bytes)).unwrap();
        let mut r = TraceFileReader::new(Cursor::new(inflated)).unwrap();
        assert_eq!(r.header().ncpus, u32::MAX);
        let all = honest.load(None).unwrap().events;
        assert_eq!(r.load(None).unwrap().events, all);
        let (lo, hi) = (all[all.len() / 4].time, all[all.len() / 2].time);
        assert_eq!(
            r.events_between(lo, hi).unwrap(),
            honest.events_between(lo, hi).unwrap()
        );
    }

    #[test]
    fn truncated_file_rejected() {
        let (bytes, _) = sample_trace();
        let cut = bytes.len() - 3; // not a whole record
        assert!(TraceFileReader::new(Cursor::new(bytes[..cut].to_vec())).is_err());
    }
}
