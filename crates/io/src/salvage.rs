//! Crash-resilient trace salvage.
//!
//! [`TraceFileReader`](crate::TraceFileReader) is strict: a torn header, a
//! mid-record truncation, or a byte of garbage between records is an `Err`
//! and the whole file is lost. This module is the forgiving counterpart the
//! paper's machinery was built for — commit counts (§3.1) and alignment
//! boundaries (§3.2) exist precisely so that damage stays *local* to one
//! buffer. The salvager walks the byte image, re-anchors on the per-record
//! magic after corruption, decodes each buffer up to its first garble, and
//! returns everything recoverable plus a [`SalvageReport`] saying exactly
//! what was lost where. It never returns `Err` on corrupt *content* and
//! never panics: any byte image in, a report out.

use crate::file::{body_words, frame_record, FileHeader, RecordFrame, RECORD_HEADER_BYTES};
use crate::merge::{LazyMerge, RecordSource};
use crate::trace::Trace;
use ktrace_core::reader::{GarbleNote, RawEvent};
use ktrace_format::EventRegistry;
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::fmt::Write as _;

/// What the salvager found at one record slot.
#[derive(Debug, Clone)]
pub struct SalvagedRecord {
    /// Byte offset of the record header in the image.
    pub offset: usize,
    /// CPU that produced the buffer.
    pub cpu: u32,
    /// Buffer sequence number within that CPU's region.
    pub seq: u64,
    /// Drain-time commit flag (false: the commit count mismatched, §3.1).
    pub complete: bool,
    /// True if the file ended mid-record; only a prefix was decoded.
    pub truncated: bool,
    /// Events recovered from this record.
    pub events: usize,
    /// Structural garble found while decoding the event chain.
    pub notes: Vec<GarbleNote>,
}

impl SalvagedRecord {
    /// True if the record survived fully intact: committed, whole, and its
    /// event chain decoded without a note. Only clean records make it into a
    /// [`repair`]ed file.
    pub fn clean(&self) -> bool {
        self.complete && !self.truncated && self.notes.is_empty()
    }
}

/// Per-CPU salvage statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpuSalvage {
    /// Records attributed to this CPU.
    pub records: usize,
    /// Records that were fully intact.
    pub clean_records: usize,
    /// Records that were torn, garbled, or uncommitted.
    pub torn_records: usize,
    /// Events recovered (including from torn records' intact prefixes).
    pub events_recovered: usize,
}

/// The typed result of salvaging a byte image: recovered events plus an
/// exact account of the damage.
#[derive(Debug)]
pub struct SalvageReport {
    /// Total size of the image examined.
    pub file_bytes: usize,
    /// False if the file header itself was unreadable — nothing beyond the
    /// byte count can be recovered then, because the record geometry is
    /// unknown.
    pub header_ok: bool,
    /// Why the header failed to decode, when it did.
    pub header_error: Option<String>,
    /// The decoded header, when readable.
    pub header: Option<FileHeader>,
    /// Every record slot examined, in file order.
    pub records: Vec<SalvagedRecord>,
    /// All recovered events, merged by [`RawEvent::order_key`] (matching
    /// [`MergedEvents`](crate::MergedEvents)).
    pub events: Vec<RawEvent>,
    /// Times the scanner lost the record chain and had to hunt for the next
    /// record magic.
    pub resyncs: usize,
    /// Bytes discarded while hunting (corrupt headers, inter-record trash).
    pub skipped_bytes: usize,
    /// Bytes of a partial record at end-of-file (short read / torn write).
    pub trailing_bytes: usize,
}

impl SalvageReport {
    /// True if nothing at all was wrong with the image.
    pub fn clean(&self) -> bool {
        self.header_ok
            && self.resyncs == 0
            && self.skipped_bytes == 0
            && self.trailing_bytes == 0
            && self.records.iter().all(|r| r.clean())
    }

    /// Recovered events excluding tracing-infrastructure control events.
    pub fn data_events(&self) -> impl Iterator<Item = &RawEvent> {
        self.events.iter().filter(|e| !e.is_control())
    }

    /// Records that survived fully intact.
    pub fn clean_records(&self) -> usize {
        self.records.iter().filter(|r| r.clean()).count()
    }

    /// Records that were torn, garbled, or uncommitted.
    pub fn torn_records(&self) -> usize {
        self.records.len() - self.clean_records()
    }

    /// Per-CPU statistics of the CPUs that have records, by CPU number. The
    /// header's `ncpus` is outside input and sizes nothing here.
    pub fn per_cpu(&self) -> BTreeMap<u32, CpuSalvage> {
        let mut out: BTreeMap<u32, CpuSalvage> = BTreeMap::new();
        for r in &self.records {
            let s = out.entry(r.cpu).or_default();
            s.records += 1;
            if r.clean() {
                s.clean_records += 1;
            } else {
                s.torn_records += 1;
            }
            s.events_recovered += r.events;
        }
        out
    }

    /// Feeds this salvage pass into a telemetry registry, so recovery work
    /// shows up beside the live counters in the same exposition
    /// (`ktrace_salvage_*` in the Prometheus text, `salvage` in the JSON).
    pub fn record_telemetry(&self, tel: &ktrace_telemetry::Telemetry) {
        tel.salvage().tally_run(
            self.clean_records() as u64,
            self.events.len() as u64,
            self.torn_records() as u64,
            (self.skipped_bytes + self.trailing_bytes) as u64,
        );
    }

    /// A human-readable multi-line summary (the `ktrace-tools salvage`
    /// output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "salvage: {} bytes examined", self.file_bytes);
        if !self.header_ok {
            let why = self.header_error.as_deref().unwrap_or("unreadable");
            let _ = writeln!(out, "  file header unreadable ({why}); nothing recovered");
            return out;
        }
        let _ = writeln!(
            out,
            "  records: {} clean, {} torn/garbled",
            self.clean_records(),
            self.torn_records()
        );
        let _ = writeln!(
            out,
            "  events recovered: {} ({} data)",
            self.events.len(),
            self.data_events().count()
        );
        if self.resyncs > 0 || self.skipped_bytes > 0 {
            let _ = writeln!(
                out,
                "  resyncs: {} (skipped {} bytes hunting for record magic)",
                self.resyncs, self.skipped_bytes
            );
        }
        if self.trailing_bytes > 0 {
            let _ = writeln!(
                out,
                "  trailing partial record: {} bytes",
                self.trailing_bytes
            );
        }
        for (cpu, s) in self.per_cpu() {
            let _ = writeln!(
                out,
                "  cpu {cpu}: {} records ({} clean, {} torn), {} events",
                s.records, s.clean_records, s.torn_records, s.events_recovered
            );
        }
        for r in self.records.iter().filter(|r| !r.clean()) {
            let why = if r.truncated {
                "truncated".to_string()
            } else if !r.complete {
                "commit count mismatched".to_string()
            } else {
                format!("{:?}", r.notes)
            };
            let _ = writeln!(
                out,
                "  torn record at byte {}: cpu {} seq {} — {why}",
                r.offset, r.cpu, r.seq
            );
        }
        out
    }
}

/// The record framed at `pos`, if one plausibly starts there: it frames and
/// its CPU field is within the header's range (rejecting accidental magic in
/// payload data).
#[inline]
fn plausible_record(bytes: &[u8], pos: usize, ncpus: u32) -> Option<RecordFrame<'_>> {
    frame_record(&bytes[pos..]).ok().filter(|f| f.cpu < ncpus)
}

/// Salvages whatever is recoverable from a trace file byte image.
///
/// Never fails and never panics: corruption is reported, not propagated.
/// Damage confined to one buffer record costs exactly that record's garbled
/// suffix — every event outside it is recovered.
pub fn salvage_bytes(bytes: &[u8]) -> SalvageReport {
    let mut report = SalvageReport {
        file_bytes: bytes.len(),
        header_ok: false,
        header_error: None,
        header: None,
        records: Vec::new(),
        events: Vec::new(),
        resyncs: 0,
        skipped_bytes: 0,
        trailing_bytes: 0,
    };
    let (header, header_len) = match FileHeader::decode(bytes) {
        Ok(h) => h,
        Err(e) => {
            report.header_error = Some(e.to_string());
            report.skipped_bytes = bytes.len();
            return report;
        }
    };
    report.header_ok = true;
    let record_size = header.record_size();
    let ncpus = header.ncpus;
    report.header = Some(header);

    // Tolerant framing: find every record slot, decode none.
    let mut per_cpu: BTreeMap<u32, VecDeque<usize>> = BTreeMap::new();
    let mut pos = header_len;
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER_BYTES {
            // Not even a record header left.
            report.trailing_bytes += bytes.len() - pos;
            break;
        }
        let Some(frame) = plausible_record(bytes, pos, ncpus) else {
            // Lost the chain: hunt for the next plausible record header. A
            // retried write after a mid-record failure, or flipped header
            // bytes, land here.
            let next =
                (pos + 1..bytes.len()).find(|&q| plausible_record(bytes, q, ncpus).is_some());
            report.resyncs += 1;
            match next {
                Some(q) => {
                    report.skipped_bytes += q - pos;
                    pos = q;
                    continue;
                }
                None => {
                    report.skipped_bytes += bytes.len() - pos;
                    break;
                }
            }
        };
        let avail = record_size.min(bytes.len() - pos);
        let truncated = avail < record_size;
        per_cpu
            .entry(frame.cpu)
            .or_default()
            .push_back(report.records.len());
        report.records.push(SalvagedRecord {
            offset: pos,
            cpu: frame.cpu,
            seq: frame.seq,
            complete: frame.complete,
            truncated,
            events: 0,
            notes: Vec::new(),
        });
        if truncated {
            report.trailing_bytes += avail;
        }
        pos += avail;
    }

    // Room for three-word events wall to wall, if it can be had.
    let _ = report
        .events
        .try_reserve((bytes.len() - header_len) / 8 / 3);
    // The reader's lazy per-CPU merge over those slots: each is walked once,
    // when its CPU's stream reaches it, and only one per CPU is held.
    let mut slots = Slots {
        bytes,
        record_size,
        records: &mut report.records,
    };
    let Ok(mut merge) = LazyMerge::new(per_cpu, &mut slots);
    let Ok(ordered) = merge.drain_into(&mut slots, &mut report.events);
    // The merge is in `order_key` order when every CPU's stream is — true of
    // honest streams. A garbled stream (rewound times, a record written
    // twice) is put in order here.
    if !ordered {
        report.events.sort_by_key(RawEvent::order_key);
    }
    report
}

/// The record slots the framing pass found, as the merge's source.
struct Slots<'a> {
    bytes: &'a [u8],
    record_size: usize,
    records: &'a mut [SalvagedRecord],
}

impl RecordSource for Slots<'_> {
    type Error = Infallible;

    fn fetch(&mut self, slot: usize, words: &mut Vec<u64>) -> Result<(u32, u64, bool), Infallible> {
        let rec = &self.records[slot];
        let end = (rec.offset + self.record_size).min(self.bytes.len());
        words.clear();
        words.extend(body_words(
            &self.bytes[rec.offset + RECORD_HEADER_BYTES..end],
        ));
        Ok((rec.cpu, rec.seq, rec.complete))
    }

    fn walked(&mut self, slot: usize, events: usize, notes: Vec<GarbleNote>) {
        (self.records[slot].events, self.records[slot].notes) = (events, notes);
    }
}

/// Salvages a byte image into the [`Trace`] every tool consumes; an
/// unreadable header leaves it empty, with the builtin registry.
pub fn salvage_trace(bytes: &[u8]) -> Trace {
    let report = salvage_bytes(bytes);
    let (registry, ticks_per_sec) = match report.header {
        Some(h) => (h.registry, h.ticks_per_sec),
        None => (EventRegistry::with_builtin(), 1_000_000_000),
    };
    // `salvage_bytes` has put the events in order, whatever it found.
    Trace::from_ordered(report.events, registry, ticks_per_sec)
}

/// Rebuilds a strict-reader-loadable file from the clean records of a
/// salvaged image: the header re-encoded, every [`SalvagedRecord::clean`]
/// record copied verbatim, everything torn dropped. Returns `None` when the
/// header was unreadable (geometry unknown — nothing to rebuild).
pub fn repair(bytes: &[u8], report: &SalvageReport) -> Option<Vec<u8>> {
    let header = report.header.as_ref()?;
    let record_size = header.record_size();
    let mut out = header.encode();
    for rec in report.records.iter().filter(|r| r.clean()) {
        out.extend_from_slice(&bytes[rec.offset..rec.offset + record_size]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TraceFileReader;
    use crate::writer::TraceFileWriter;
    use ktrace_clock::ManualClock;
    use ktrace_core::reader::walk_buffer;
    use ktrace_core::{TraceConfig, TraceLogger};
    use ktrace_format::{EventRegistry, MajorId};
    use std::io::Cursor;
    use std::sync::Arc;

    fn sample_trace(ncpus: usize, per_cpu_events: u64) -> Vec<u8> {
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

    fn strict_events(bytes: &[u8]) -> Vec<RawEvent> {
        let mut r = TraceFileReader::new(Cursor::new(bytes.to_vec())).unwrap();
        r.events().unwrap().collect()
    }

    #[test]
    fn clean_file_salvages_identically_to_strict_read() {
        let bytes = sample_trace(2, 200);
        let report = salvage_bytes(&bytes);
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.events, strict_events(&bytes));
        assert_eq!(report.torn_records(), 0);
        let per_cpu = report.per_cpu();
        assert_eq!(per_cpu.len(), 2);
        assert!(per_cpu.values().all(|s| s.torn_records == 0));
    }

    #[test]
    fn destroyed_header_reports_instead_of_failing() {
        let mut bytes = sample_trace(1, 50);
        bytes[0] ^= 0xff;
        let report = salvage_bytes(&bytes);
        assert!(!report.header_ok);
        assert!(report.header_error.is_some());
        assert!(report.events.is_empty());
        assert_eq!(report.skipped_bytes, bytes.len());
        assert!(repair(&bytes, &report).is_none());
    }

    #[test]
    fn mid_file_garbage_costs_one_record() {
        let bytes = sample_trace(1, 400);
        let strict = strict_events(&bytes);
        let (header, header_len) = FileHeader::decode(&bytes).unwrap();
        let rs = header.record_size();
        let nrecords = (bytes.len() - header_len) / rs;
        assert!(nrecords >= 3, "need several records");
        // Smash the middle record's header magic.
        let victim = nrecords / 2;
        let mut dirty = bytes.clone();
        let at = header_len + victim * rs;
        dirty[at..at + 4].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        // The strict reader decodes the record as an error.
        let mut r = TraceFileReader::new(Cursor::new(dirty.clone())).unwrap();
        assert!(r.record(victim).is_err());
        // The salvager skips to the next record and keeps everything else.
        let report = salvage_bytes(&dirty);
        assert_eq!(report.resyncs, 1);
        assert!(report.skipped_bytes >= rs - 4, "the victim record is lost");
        assert_eq!(report.records.len(), nrecords - 1);
        let victim_events = {
            let mut r = TraceFileReader::new(Cursor::new(bytes.clone())).unwrap();
            walk_buffer(&r.record(victim).unwrap().words, None).count()
        };
        assert_eq!(report.events.len(), strict.len() - victim_events);
    }

    #[test]
    fn truncated_file_keeps_whole_records_and_a_prefix() {
        let bytes = sample_trace(1, 400);
        let (header, header_len) = FileHeader::decode(&bytes).unwrap();
        let rs = header.record_size();
        // Cut mid-record: 1.5 records survive.
        let cut = header_len + rs + rs / 2;
        let report = salvage_bytes(&bytes[..cut]);
        assert_eq!(report.records.len(), 2);
        assert!(report.records[0].clean());
        assert!(report.records[1].truncated);
        assert!(!report.records[1].clean());
        assert!(report.trailing_bytes > 0);
        // The whole first record's events all survive.
        let mut r = TraceFileReader::new(Cursor::new(bytes.clone())).unwrap();
        let first = walk_buffer(&r.record(0).unwrap().words, None).count();
        assert!(report.events.len() >= first);
    }

    #[test]
    fn repair_produces_a_strict_loadable_file() {
        let bytes = sample_trace(2, 300);
        let (header, header_len) = FileHeader::decode(&bytes).unwrap();
        let rs = header.record_size();
        let nrecords = (bytes.len() - header_len) / rs;
        let mut dirty = bytes.clone();
        // Tear one record's magic and cut the file mid-way through the last.
        dirty[header_len + rs] ^= 0xff;
        dirty.truncate(header_len + (nrecords - 1) * rs + rs / 3);
        let report = salvage_bytes(&dirty);
        let repaired = repair(&dirty, &report).expect("header is fine");
        let r = TraceFileReader::new(Cursor::new(repaired)).unwrap();
        assert_eq!(r.record_count(), report.clean_records());
    }

    #[test]
    fn a_header_claiming_four_billion_cpus_sizes_nothing() {
        // A flipped bit in `ncpus` (bytes 16..20 of the fixed header) must
        // cost neither memory nor a per-event scan over CPUs that never
        // logged.
        let bytes = sample_trace(2, 200);
        let mut inflated = bytes.clone();
        inflated[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let report = salvage_bytes(&inflated);
        assert!(report.header_ok);
        assert_eq!(report.events, strict_events(&bytes));
    }

    #[test]
    fn a_report_on_four_billion_claimed_cpus_renders_the_two_that_logged() {
        // The render path of `ktrace-tools salvage`: what it prints is sized
        // by the records found, and reads as it does for the honest header.
        let bytes = sample_trace(2, 200);
        let mut inflated = bytes.clone();
        inflated[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let report = salvage_bytes(&inflated);
        assert_eq!(report.per_cpu().len(), 2);
        assert_eq!(report.render(), salvage_bytes(&bytes).render());
        assert!(
            report.render().contains("\n  cpu 1: "),
            "{}",
            report.render()
        );
    }

    #[test]
    fn degenerate_images_never_panic() {
        for image in [
            &[][..],
            &[0u8; 7][..],
            &[0u8; 4096][..],
            crate::file::FILE_MAGIC.as_slice(),
        ] {
            let report = salvage_bytes(image);
            assert!(!report.header_ok);
        }
        // A header with no records at all is clean.
        let header = FileHeader {
            ncpus: 1,
            buffer_words: 128,
            ticks_per_sec: 1,
            clock_synchronized: false,
            registry: EventRegistry::with_builtin(),
        };
        let report = salvage_bytes(&header.encode());
        assert!(report.header_ok);
        assert!(report.clean());
        assert!(report.events.is_empty());
    }
}
