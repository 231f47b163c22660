//! The merge against its definition, through every loader that sits on it.
//!
//! For any file whose records frame — honest or not — the events a loader
//! returns are the `parse_buffer` output of every record, each CPU's time
//! hint carried in file order, put in `order_key` order. The merge walks the
//! records in place and builds each event once, so this is the test that it
//! still builds the *same* events: hand-built 1–4 CPU traces with a record
//! whose anchor rewinds, a record written twice, a record without an anchor,
//! a zero header mid-buffer and a record holding no event at all.

use ktrace_core::{parse_buffer, ParsedBuffer, RawEvent};
use ktrace_format::ids::control;
use ktrace_format::{EventHeader, EventRegistry, MajorId};
use ktrace_io::file::{body_words, encode_record_header, frame_record};
use ktrace_io::{salvage_bytes, salvage_trace, FileHeader, TraceFileReader};
use proptest::prelude::*;
use std::io::Cursor;

/// Words per buffer in the hand-built files.
const WORDS: usize = 64;

/// What is wrong with a record, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Honest,
    /// No time anchor: its times come from the CPU's previous record.
    Anchorless,
    /// Anchored well before the CPU's previous record ended.
    Rewound,
    /// Appended to the file a second time, same `seq`.
    WrittenTwice,
    /// A zero word where its middle event's header should be.
    ZeroHeaderMidway,
    /// Nothing but zero words.
    Eventless,
}

const SHAPES: [Shape; 8] = [
    Shape::Honest,
    Shape::Honest,
    Shape::Honest,
    Shape::Anchorless,
    Shape::Rewound,
    Shape::WrittenTwice,
    Shape::ZeroHeaderMidway,
    Shape::Eventless,
];

/// One record's words: an anchor at `anchor` if given, `events` as
/// `(time, payload words)`, filler to the end.
fn buffer(cpu: u32, anchor: Option<u64>, events: &[(u64, usize)], shape: Shape) -> Vec<u64> {
    let mut words = Vec::new();
    if shape == Shape::Eventless {
        words.resize(WORDS, 0);
        return words;
    }
    if let Some(t) = anchor {
        let h = EventHeader::new(t as u32, 2, MajorId::CONTROL, control::TIME_ANCHOR).unwrap();
        words.extend([h.encode(), t, u64::from(cpu)]);
    }
    let mut last = anchor.unwrap_or(0);
    for (i, &(t, len)) in events.iter().enumerate() {
        if words.len() + 1 + len >= WORDS {
            break;
        }
        if shape == Shape::ZeroHeaderMidway && i == events.len() / 2 {
            words.push(0);
        }
        let h = EventHeader::new(t as u32, len, MajorId::TEST, i as u16).unwrap();
        words.push(h.encode());
        words.extend((0..len as u64).map(|w| t ^ w));
        last = t;
    }
    let filler = EventHeader::control(last as u32, control::FILLER, WORDS - words.len());
    words.push(filler.encode());
    words.resize(WORDS, 0);
    words
}

/// A record to write: its CPU (modulo the file's), its events as `(ticks
/// since the last event anywhere, payload words)`, and its shape.
type Record = (u32, Vec<(u64, usize)>, Shape);

/// A file of `records`; CPUs share one clock, so their streams interleave.
fn image(ncpus: u32, records: &[Record]) -> Vec<u8> {
    let header = FileHeader {
        ncpus,
        buffer_words: WORDS as u32,
        ticks_per_sec: 1_000_000_000,
        clock_synchronized: true,
        registry: EventRegistry::with_builtin(),
    };
    let mut bytes = header.encode();
    let mut clock = 0x5_0000_0000u64;
    let mut next_seq = vec![0u64; ncpus as usize];
    for (cpu, events, shape) in records {
        let cpu = cpu % ncpus;
        let start = clock;
        let events: Vec<(u64, usize)> = events
            .iter()
            .map(|&(dt, len)| {
                clock += dt;
                (clock, len)
            })
            .collect();
        let anchor = match shape {
            Shape::Anchorless => None,
            Shape::Rewound => Some(start - 0x1000),
            _ => Some(start),
        };
        let words = buffer(cpu, anchor, &events, *shape);
        let seq = next_seq[cpu as usize];
        next_seq[cpu as usize] += 1;
        for _ in 0..if *shape == Shape::WrittenTwice { 2 } else { 1 } {
            bytes.extend_from_slice(&encode_record_header(cpu, seq, true));
            bytes.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        }
    }
    bytes
}

/// Every record decoded on its own, in file order, each CPU's hint carried.
fn definition(bytes: &[u8]) -> Vec<ParsedBuffer> {
    let (header, header_len) = FileHeader::decode(bytes).unwrap();
    let mut hints = vec![None; header.ncpus as usize];
    bytes[header_len..]
        .chunks(header.record_size())
        .map(|record| {
            let frame = frame_record(record).unwrap();
            let words: Vec<u64> = body_words(frame.body).collect();
            let hint = &mut hints[frame.cpu as usize];
            let parsed = parse_buffer(frame.cpu as usize, frame.seq, &words, *hint);
            *hint = parsed.end_time.or(*hint);
            parsed
        })
        .collect()
}

fn in_order(events: &[RawEvent]) -> bool {
    events
        .windows(2)
        .all(|w| w[0].order_key() <= w[1].order_key())
}

/// Holds every loader to the definition; returns what they loaded and
/// whether the merge itself came out in order.
fn check(bytes: &[u8]) -> Result<(Vec<RawEvent>, bool), TestCaseError> {
    let parsed = definition(bytes);
    let reader = || TraceFileReader::new(Cursor::new(bytes)).unwrap();

    // The iterator is the merge as it comes: the definition's events, each
    // CPU's in file order, the smallest head first.
    let merged: Vec<RawEvent> = reader().events().unwrap().collect();
    // A record written twice repeats its keys, so compare as multisets under
    // an order that tells any two different events apart.
    let total = |e: &RawEvent| (e.order_key(), e.major.raw(), e.minor, e.payload.to_vec());
    let mut want: Vec<RawEvent> = parsed.iter().flat_map(|p| p.events.clone()).collect();
    want.sort_by_key(total);
    let mut got = merged.clone();
    got.sort_by_key(total);
    prop_assert_eq!(&got, &want);

    // `load` is that merge put in canonical order, by whichever path it took.
    let loaded = reader().load(None).unwrap().events;
    let mut sorted = merged.clone();
    sorted.sort_by_key(RawEvent::order_key);
    prop_assert_eq!(&loaded, &sorted);
    prop_assert!(in_order(&loaded));

    // Salvage runs the same merge over the same records, and accounts for
    // each record as its own walk found it.
    let report = salvage_bytes(bytes);
    prop_assert_eq!(&report.events, &loaded);
    prop_assert_eq!(report.records.len(), parsed.len());
    for (rec, p) in report.records.iter().zip(&parsed) {
        prop_assert_eq!(rec.events, p.events.len(), "record at byte {}", rec.offset);
        prop_assert_eq!(&rec.notes, &p.notes, "record at byte {}", rec.offset);
    }
    prop_assert_eq!(&salvage_trace(bytes).events, &loaded);
    Ok((loaded, in_order(&merged)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_loader_returns_the_definitions_events_in_canonical_order(
        ncpus in 1u32..5,
        records in prop::collection::vec(
            (0u32..4, prop::collection::vec((0u64..40, 0usize..6), 0..12), prop::sample::select(SHAPES.to_vec())),
            1..14,
        ),
    ) {
        check(&image(ncpus, &records))?;
    }
}

#[test]
fn a_rewound_record_is_merged_out_of_order_and_loaded_in_order() {
    let run = |n: u64| (0..n).map(|_| (10, 2)).collect::<Vec<(u64, usize)>>();
    let bytes = image(
        2,
        &[
            (0, run(6), Shape::Honest),
            (1, run(6), Shape::Honest),
            (0, run(6), Shape::Rewound),
            (1, run(6), Shape::Honest),
        ],
    );
    let (loaded, merge_in_order) = check(&bytes).unwrap();
    assert!(
        !merge_in_order,
        "the rewound record must break the merge's order"
    );
    // 4 anchors, 24 events, 4 fillers: sorted, not shortened.
    assert_eq!(loaded.len(), 32);

    // The same file without the rewind takes the path that does not sort.
    let honest = image(
        2,
        &[
            (0, run(6), Shape::Honest),
            (1, run(6), Shape::Honest),
            (0, run(6), Shape::Honest),
            (1, run(6), Shape::Honest),
        ],
    );
    assert!(check(&honest).unwrap().1);
}

#[test]
fn records_that_hold_no_event_end_no_stream() {
    let run = |n: u64| (0..n).map(|_| (7, 1)).collect::<Vec<(u64, usize)>>();
    let bytes = image(
        2,
        &[
            (0, vec![], Shape::Eventless),
            (1, run(3), Shape::Honest),
            (0, run(3), Shape::Honest),
            (0, vec![], Shape::Eventless),
            (0, vec![], Shape::Eventless),
            (0, run(3), Shape::Anchorless),
            (1, vec![], Shape::Eventless),
        ],
    );
    let (loaded, _) = check(&bytes).unwrap();
    let data = loaded.iter().filter(|e| !e.is_control()).count();
    assert_eq!(data, 9, "every event around the empty records is loaded");
}
