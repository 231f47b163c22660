//! Inputs made in set-up: a deterministic trace (file or wire bytes) and a
//! damaged copy of one.
//!
//! The trace is logged on one thread under a [`ManualClock`] and drained
//! inline, so the same seed gives the same bytes.

use crate::mix::{Ops, Rng};
use ktrace_clock::{ClockSource, ManualClock};
use ktrace_core::{parse_buffer, TraceConfig, TraceLogger};
use ktrace_io::{FileHeader, IoError, TraceFileWriter};
use std::io::Write;
use std::sync::Arc;

/// When [`write_trace`] stops logging.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many events; partial buffers are flushed.
    Events(usize),
    /// After this many full buffer records; what the open buffers still
    /// hold is left out.
    Records(u64),
}

/// What [`write_trace`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInfo {
    pub data_events: u64,
    pub records: u64,
    pub header_len: usize,
    pub record_size: usize,
}

impl TraceInfo {
    pub fn bytes(&self) -> u64 {
        self.header_len as u64 + self.records * self.record_size as u64
    }
}

/// Calls between drains of the generator's logger: far fewer words than one
/// CPU's eight buffers, so the region never refuses a call.
const DRAIN_EVERY: usize = 256;

/// Calls a CPU logs in a row before the generator moves to the next one.
const CPU_RUN: usize = 64;

/// Logs `ops` from `start` on `ncpus` CPUs in paper geometry and writes the
/// trace to `sink`, header first.
pub fn write_trace<W: Write>(
    ops: &Ops,
    start: usize,
    until: Until,
    ncpus: usize,
    sink: W,
) -> Result<TraceInfo, IoError> {
    let clock = Arc::new(ManualClock::new(1_000, 50));
    let logger = TraceLogger::builder()
        .geometry(TraceConfig::paper())
        .clock(clock.clone())
        .ncpus(ncpus)
        .build()
        .expect("paper geometry is valid");
    ktrace_events::register_all(&logger);
    let header = FileHeader {
        ncpus: ncpus as u32,
        buffer_words: logger.config().buffer_words as u32,
        ticks_per_sec: clock.ticks_per_sec(),
        clock_synchronized: clock.synchronized(),
        registry: logger.registry(),
    };
    let mut info = TraceInfo {
        data_events: 0,
        records: 0,
        header_len: header.encode().len(),
        record_size: header.record_size(),
    };
    let mut writer = TraceFileWriter::new(sink, &header)?;
    let (max_events, max_records) = match until {
        Until::Events(n) => (n, u64::MAX),
        Until::Records(r) => (usize::MAX, r),
    };
    let handles: Vec<_> = (0..ncpus)
        .map(|cpu| logger.handle(cpu).expect("cpu in range"))
        .collect();
    let mut drain = |info: &mut TraceInfo| -> Result<(), IoError> {
        for cpu in 0..ncpus {
            while info.records < max_records {
                let Some(buf) = logger.take_buffer(cpu) else {
                    break;
                };
                assert!(buf.complete, "a single-threaded generator never garbles");
                let parsed = parse_buffer(cpu, buf.seq, &buf.words, None);
                info.data_events += parsed.data_events().count() as u64;
                writer.write_buffer(&buf)?;
                info.records += 1;
            }
        }
        Ok(())
    };
    let mut logged = 0usize;
    while logged < max_events && info.records < max_records {
        let (major, minor, payload) = ops.get((start + logged) % ops.len());
        let accepted = handles[(logged / CPU_RUN) % ncpus].log_slice(major, minor, payload);
        assert!(accepted, "the generator drains before its region can fill");
        logged += 1;
        if logged.is_multiple_of(DRAIN_EVERY) {
            drain(&mut info)?;
        }
    }
    if matches!(until, Until::Events(_)) {
        logger.flush_all();
        drain(&mut info)?;
        assert_eq!(info.data_events, logged as u64);
    }
    writer.finish()?;
    Ok(info)
}

/// A damaged copy of a trace image and the records the damage spared.
pub struct Damaged {
    pub bytes: Vec<u8>,
    /// Indices (in the undamaged file) of records that are wholly present
    /// and byte-identical in `bytes`.
    pub untouched: Vec<usize>,
}

/// Truncates `original` two thirds into its records, then damages a
/// seed-chosen set of distinct whole records among those left: bit flips and
/// zeroed spans inside events, which cost a record's tail; broken record
/// magics and a span zeroed across a record boundary, which make the reader
/// hunt for the next record. Flips and spans land in the last eighth of
/// their record: what a seed costs in lost events then varies by 0.1 % of
/// the trace, not 0.5 %, and `bytes_per_event` can be held to its bound.
/// The file header is spared, so the salvaged trace keeps its registry.
pub fn damage(original: &[u8], info: &TraceInfo, seed: u64) -> Damaged {
    const FLIPS: usize = 8;
    const ZEROED_SPANS: usize = 3;
    const BROKEN_MAGICS: usize = 2;
    let mut rng = Rng::new(seed ^ 0x6b74_7261_6365_0002);
    let records = info.records as usize;
    let size = info.record_size;
    let data = records * size;
    assert_eq!(original.len(), info.header_len + data);
    let kept = data * 2 / 3;
    let whole = kept / size;
    // Victims: distinct whole records after the first, which keeps the
    // chain's start. The boundary victim also costs the record after it.
    assert!(whole >= 20, "the trace is long enough to damage");
    let before_boundary = 1 + rng.below(whole as u64 - 2) as usize;
    let mut victims: Vec<usize> = (1..whole)
        .filter(|&r| r != before_boundary && r != before_boundary + 1)
        .collect();
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut victims = victims.into_iter();
    let mut next = || victims.next().expect("more whole records than damages") * size;

    let mut bytes = original[..info.header_len + kept].to_vec();
    let body = &mut bytes[info.header_len..];
    let mut touched = vec![false; records];
    touched[whole..].fill(true); // cut short, or cut off
    let boundary = (before_boundary + 1) * size;
    body[boundary - 256..boundary + 256].fill(0);
    touched[before_boundary..=before_boundary + 1].fill(true);
    let tail = size / 8;
    for _ in 0..FLIPS {
        let at = next() + size - 1 - rng.below(tail as u64) as usize;
        body[at] ^= 1 << rng.below(8);
        touched[at / size] = true;
    }
    for _ in 0..ZEROED_SPANS {
        let len = 64 + rng.below(4032) as usize;
        let at = next() + size - len - rng.below((tail - len) as u64) as usize;
        body[at..at + len].fill(0);
        touched[at / size] = true;
    }
    for _ in 0..BROKEN_MAGICS {
        let at = next();
        body[at] = !body[at];
        touched[at / size] = true;
    }
    Damaged {
        bytes,
        untouched: (0..records).filter(|&r| !touched[r]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seed: u64) -> (Vec<u8>, TraceInfo) {
        let ops = Ops::generate(seed, 2_000);
        let mut bytes = Vec::new();
        let info = write_trace(&ops, 0, Until::Events(ops.len()), 2, &mut bytes).unwrap();
        (bytes, info)
    }

    #[test]
    fn same_seed_gives_the_same_bytes_another_seed_other_bytes() {
        let (a, info) = trace(11);
        assert_eq!(info.data_events, 200_000);
        assert_eq!(a.len() as u64, info.bytes());
        assert_eq!(trace(11), (a.clone(), info));
        assert_ne!(trace(12).0, a);
    }

    #[test]
    fn a_record_bounded_trace_holds_exactly_that_many_records() {
        let ops = Ops::generate(5, 600);
        let mut bytes = Vec::new();
        let info = write_trace(&ops, 17, Until::Records(3), 1, &mut bytes).unwrap();
        assert_eq!(info.records, 3);
        assert_eq!(bytes.len() as u64, info.bytes());
        let mut reader = ktrace_io::TraceFileReader::new(std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(reader.record_count(), 3);
        let data = reader.events().unwrap().filter(|e| !e.is_control()).count();
        assert_eq!(data as u64, info.data_events);
    }

    #[test]
    fn damage_never_touches_the_records_it_reports_untouched() {
        let (original, info) = trace(21);
        for seed in 0..50 {
            let d = damage(&original, &info, seed);
            assert!(d.bytes.len() < original.len());
            assert_eq!(d.bytes[..info.header_len], original[..info.header_len]);
            assert_ne!(
                d.bytes[..],
                original[..d.bytes.len()],
                "seed {seed} damaged nothing"
            );
            for &r in &d.untouched {
                let lo = info.header_len + r * info.record_size;
                let hi = lo + info.record_size;
                assert!(hi <= d.bytes.len(), "seed {seed}: record {r} is cut");
                assert_eq!(d.bytes[lo..hi], original[lo..hi], "seed {seed}: record {r}");
            }
            assert!(!d.untouched.is_empty());
            assert_eq!(d.bytes, damage(&original, &info, seed).bytes);
        }
    }
}
