//! Property-based stream roundtrip: any sequence of events logged through
//! the lockless logger is recovered exactly — same order, same payloads —
//! with clean buffer chains, for arbitrary buffer geometries.

use ktrace_clock::ManualClock;
use ktrace_core::{parse_buffer, Mode, Payload, TraceConfig, TraceLogger};
use ktrace_format::ids::control;
use ktrace_format::{EventHeader, MajorId, MAX_PAYLOAD_WORDS};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct EventSpec {
    major: u8,
    minor: u16,
    payload: Vec<u64>,
}

fn event_strategy(max_payload: usize) -> impl Strategy<Value = EventSpec> {
    (
        1u8..64,
        any::<u16>(),
        prop::collection::vec(any::<u64>(), 0..=max_payload),
    )
        .prop_map(|(major, minor, payload)| EventSpec {
            major,
            minor,
            payload,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn logged_stream_roundtrips_exactly(
        buffer_words_pow in 5u32..10,       // 32..512-word buffers
        nbuf_pow in 1u32..4,                // 2..8 buffers per region
        events in prop::collection::vec(event_strategy(12), 1..300),
    ) {
        let config = TraceConfig {
            buffer_words: 1usize << buffer_words_pow,
            buffers_per_cpu: 1usize << nbuf_pow,
            mode: Mode::Stream,
        };
        let logger = TraceLogger::builder().geometry(config).clock(Arc::new(ManualClock::new(1, 1))).ncpus(1).build().unwrap();
        let handle = logger.handle(0).unwrap();

        // Log, draining as we go so nothing drops; remember what was logged.
        let mut logged: Vec<&EventSpec> = Vec::new();
        let mut buffers = Vec::new();
        for spec in &events {
            let major = MajorId::new(spec.major).unwrap();
            if spec.payload.len() <= config.max_payload_words()
                && handle.log_slice(major, spec.minor, &spec.payload)
            {
                logged.push(spec);
            }
            while let Some(b) = logger.take_buffer(0) {
                buffers.push(b);
            }
        }
        logger.flush_all();
        while let Some(b) = logger.take_buffer(0) {
            buffers.push(b);
        }

        // Decode everything back.
        let mut recovered = Vec::new();
        let mut hint = None;
        let mut last_time = 0u64;
        for b in &buffers {
            prop_assert!(b.complete, "seq {} garbled", b.seq);
            let parsed = parse_buffer(0, b.seq, &b.words, hint);
            prop_assert!(parsed.clean(), "{:?}", parsed.notes);
            hint = parsed.end_time;
            for e in parsed.events {
                prop_assert!(e.time >= last_time, "time went backwards");
                last_time = e.time;
                if !e.is_control() {
                    recovered.push(e);
                }
            }
        }

        prop_assert_eq!(recovered.len(), logged.len());
        for (got, want) in recovered.iter().zip(&logged) {
            prop_assert_eq!(got.major.raw(), want.major);
            prop_assert_eq!(got.minor, want.minor);
            prop_assert_eq!(&got.payload, &want.payload);
        }
    }

    #[test]
    fn flight_recorder_suffix_is_always_recoverable(
        events in prop::collection::vec(event_strategy(6), 50..400),
    ) {
        let config = TraceConfig::small().flight_recorder();
        let logger = TraceLogger::builder().geometry(config).clock(Arc::new(ManualClock::new(1, 1))).ncpus(1).build().unwrap();
        let handle = logger.handle(0).unwrap();
        let mut accepted = Vec::new();
        for spec in &events {
            let major = MajorId::new(spec.major).unwrap();
            if handle.log_slice(major, spec.minor, &spec.payload) {
                accepted.push(spec);
            }
        }
        // Whatever survives the circular overwrite must be a *suffix* of
        // what was logged, in order, undamaged.
        let dump = logger.dump_last(usize::MAX, None).events;
        prop_assert!(!dump.is_empty());
        prop_assert!(dump.len() <= accepted.len());
        let offset = accepted.len() - dump.len();
        for (got, want) in dump.iter().zip(&accepted[offset..]) {
            prop_assert_eq!(got.major.raw(), want.major);
            prop_assert_eq!(got.minor, want.minor);
            prop_assert_eq!(&got.payload, &want.payload);
        }
    }

    /// `Payload` holds short payloads inline and boxes long ones; either way
    /// it must read exactly like the words it was built from. Lengths on
    /// both sides of the inline capacity, and the longest an event can carry.
    #[test]
    fn payloads_of_every_length_read_like_their_words(seed in any::<u64>()) {
        let mut word = seed;
        let mut buffer = {
            let anchor = EventHeader::new(1, 2, MajorId::CONTROL, control::TIME_ANCHOR).unwrap();
            vec![anchor.encode(), 1, 0]
        };
        let mut logged = Vec::new();
        for (i, len) in [0, 1, 2, 3, 4, 5, MAX_PAYLOAD_WORDS].into_iter().enumerate() {
            let words: Vec<u64> = (0..len)
                .map(|_| {
                    word = word.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    word
                })
                .collect();
            let payload = Payload::from(&words[..]);
            prop_assert_eq!(&*payload, &words[..]);
            prop_assert_eq!(&payload, &words);
            let slice: &[u64] = &words;
            prop_assert!(payload == *slice && payload == slice);
            prop_assert_eq!(&payload.clone(), &payload);
            prop_assert_eq!(&Payload::from(words.clone()), &payload);
            prop_assert_eq!(&words.iter().copied().collect::<Payload>(), &payload);
            prop_assert_eq!(format!("{payload:?}"), format!("{words:?}"));
            let header = EventHeader::new(2 + i as u32, len, MajorId::TEST, i as u16).unwrap();
            buffer.push(header.encode());
            buffer.extend_from_slice(&words);
            logged.push(words);
        }

        // A buffer of such events comes back word for word.
        let parsed = parse_buffer(0, 0, &buffer, None);
        prop_assert!(parsed.clean(), "{:?}", parsed.notes);
        prop_assert_eq!(parsed.events.len(), 1 + logged.len());
        let mut rebuilt = Vec::new();
        for e in &parsed.events {
            let header = EventHeader::new(e.ts32, e.payload.len(), e.major, e.minor).unwrap();
            rebuilt.push(header.encode());
            rebuilt.extend_from_slice(&e.payload);
        }
        prop_assert_eq!(&rebuilt, &buffer);
        for (e, words) in parsed.events[1..].iter().zip(&logged) {
            prop_assert_eq!(&e.payload, words);
            prop_assert_eq!(&e.clone(), e);
        }
    }
}
