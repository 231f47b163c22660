//! Decoding raw buffer words back into events.
//!
//! Because events never cross buffer boundaries, a reader can start at any
//! alignment point of a large trace and interpret forward (§3.2's "random
//! access" property) — and read each event *where it lies*. [`walk_buffer`]
//! is the workspace's one decode loop: a borrowing iterator of
//! [`EventView`]s over one buffer's words that reconstructs full 64-bit
//! timestamps from the buffer's time anchor, validates the event chain, and
//! reports every anomaly (zero headers, overruns, missing anchors, timestamp
//! regressions) as [`GarbleNote`]s instead of failing — "with high
//! probability … errors can be detected by the post-processing tools"
//! (§3.1). Consumers that only fold (count, lint, capture heartbeats) run on
//! the walker; [`parse_buffer`] collects it into owned [`RawEvent`]s for the
//! ones that keep events.

use ktrace_clock::WrapExtender;
use ktrace_format::{EventHeader, MajorId, MinorId};
use std::fmt;
use std::ops::Deref;

/// Payload words held inline by a [`Payload`]. Measured, not tuned by users:
/// at 3 a [`RawEvent`] is 72 B and only the longest common event spills to
/// the heap; at 5 nothing spills but every event pays 88 B of page faults,
/// which cost more than the spills saved (EXPERIMENTS.md).
const INLINE_WORDS: usize = 3;

/// An event's payload words: short payloads live inside the event, longer
/// ones are boxed. Reads like a `[u64]` through `Deref`.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    Heap(Box<[u64]>),
}

impl Deref for Payload {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, words } => &words[..usize::from(*len)],
            Repr::Heap(words) => words,
        }
    }
}

impl From<&[u64]> for Payload {
    #[inline]
    fn from(words: &[u64]) -> Payload {
        if words.len() <= INLINE_WORDS {
            let mut inline = [0u64; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(words);
            Payload(Repr::Inline {
                len: words.len() as u8,
                words: inline,
            })
        } else {
            Payload(Repr::Heap(words.into()))
        }
    }
}

impl From<Vec<u64>> for Payload {
    fn from(words: Vec<u64>) -> Payload {
        if words.len() <= INLINE_WORDS {
            Payload::from(&words[..])
        } else {
            Payload(Repr::Heap(words.into_boxed_slice()))
        }
    }
}

impl FromIterator<u64> for Payload {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Payload {
        Payload::from(iter.into_iter().collect::<Vec<u64>>())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl PartialEq<[u64]> for Payload {
    fn eq(&self, other: &[u64]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u64]> for Payload {
    fn eq(&self, other: &&[u64]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u64>> for Payload {
    fn eq(&self, other: &Vec<u64>) -> bool {
        **self == other[..]
    }
}

/// One decoded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEvent {
    /// CPU whose region the event came from.
    pub cpu: usize,
    /// Buffer sequence number within that region.
    pub seq: u64,
    /// Word offset of the header within the buffer.
    pub offset: usize,
    /// Reconstructed full 64-bit timestamp (clock ticks).
    pub time: u64,
    /// The raw 32-bit stamp from the header.
    pub ts32: u32,
    /// Major ID.
    pub major: MajorId,
    /// Minor ID.
    pub minor: MinorId,
    /// Payload words.
    pub payload: Payload,
}

// Bytes materialised are time on the read side (a page fault per 4 KiB of
// events): a field or an inline word added here shows up in `analyze_file`.
const _: () = assert!(std::mem::size_of::<RawEvent>() == 72);

impl RawEvent {
    /// True for stream-control filler events.
    pub fn is_filler(&self) -> bool {
        self.major == MajorId::CONTROL && self.minor == ktrace_format::ids::control::FILLER
    }

    /// True for any tracing-infrastructure control event.
    pub fn is_control(&self) -> bool {
        self.major == MajorId::CONTROL
    }

    /// Total size in words (header + payload).
    pub fn len_words(&self) -> usize {
        1 + self.payload.len()
    }

    /// The canonical event order: time first, then the event's position in
    /// the trace (`cpu`, buffer `seq`, word `offset`), which is unique.
    /// Every sort and merge of events uses this key, so tools agree on the
    /// order of equal-time events and of garbled (non-monotonic) input alike.
    pub fn order_key(&self) -> (u64, usize, u64, usize) {
        (self.time, self.cpu, self.seq, self.offset)
    }
}

/// One event read in place: what a [`RawEvent`] holds minus the buffer's
/// identity (`cpu`, `seq` — the caller knows whose words it is walking),
/// with the payload borrowed from the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventView<'a> {
    /// Word offset of the header within the buffer.
    pub offset: usize,
    /// Reconstructed full 64-bit timestamp (clock ticks).
    pub time: u64,
    /// The raw 32-bit stamp from the header.
    pub ts32: u32,
    /// Major ID.
    pub major: MajorId,
    /// Minor ID.
    pub minor: MinorId,
    /// Payload words, where they lie in the buffer.
    pub payload: &'a [u64],
}

impl EventView<'_> {
    /// True for stream-control filler events.
    pub fn is_filler(&self) -> bool {
        self.major == MajorId::CONTROL && self.minor == ktrace_format::ids::control::FILLER
    }

    /// True for any tracing-infrastructure control event.
    pub fn is_control(&self) -> bool {
        self.major == MajorId::CONTROL
    }

    /// Total size in words (header + payload).
    pub fn len_words(&self) -> usize {
        1 + self.payload.len()
    }

    /// The owned event, as part of buffer `seq` of `cpu`'s region.
    #[inline]
    pub fn to_raw(&self, cpu: usize, seq: u64) -> RawEvent {
        RawEvent {
            cpu,
            seq,
            offset: self.offset,
            time: self.time,
            ts32: self.ts32,
            major: self.major,
            minor: self.minor,
            payload: self.payload.into(),
        }
    }
}

/// An anomaly detected while decoding a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GarbleNote {
    /// A zero header word: a reservation that was never filled in (killed or
    /// long-blocked logger, §3.1). Decoding cannot continue past it.
    ZeroHeader {
        /// Word offset of the bad header.
        offset: usize,
    },
    /// An event length that runs past the buffer end (random data where a
    /// header was expected).
    Overrun {
        /// Word offset of the bad header.
        offset: usize,
        /// Claimed total length in words.
        len_words: usize,
    },
    /// The buffer does not begin with a time anchor; timestamps in it can
    /// only be approximated.
    MissingAnchor,
    /// A timestamp stepped backwards within the buffer, which the reservation
    /// algorithm makes impossible for honestly logged events.
    NonMonotonic {
        /// Word offset of the offending event.
        offset: usize,
    },
}

/// The decode loop's state between events, apart from the words it walks:
/// the next header's offset, the time reconstruction, and the notes, filler
/// accounting and end time a [`ParsedBuffer`] reports. A caller that owns
/// its buffer (the merge's per-CPU cursor) keeps one of these beside the
/// words and calls [`step`](WalkState::step); everyone else borrows the
/// words into a [`BufferWalker`], which is the iterator over the same step.
#[derive(Debug, Clone, Default)]
pub struct WalkState {
    off: usize,
    /// Set where the chain broke: nothing past an undecodable header is an
    /// event, whatever the words there look like.
    broken: bool,
    time_hint: Option<u64>,
    extender: Option<WrapExtender>,
    notes: Vec<GarbleNote>,
    filler_words: usize,
    end_time: Option<u64>,
}

impl WalkState {
    /// The state before a buffer's first event; `time_hint` as for
    /// [`walk_buffer`].
    pub fn new(time_hint: Option<u64>) -> WalkState {
        WalkState {
            time_hint,
            ..WalkState::default()
        }
    }

    /// Anomalies found so far, in the order decoding met them.
    pub fn notes(&self) -> &[GarbleNote] {
        &self.notes
    }

    /// Consumes the state, returning its anomalies.
    pub fn into_notes(self) -> Vec<GarbleNote> {
        self.notes
    }

    /// Words consumed by filler events so far.
    pub fn filler_words(&self) -> usize {
        self.filler_words
    }

    /// The timestamp of the last event yielded.
    pub fn end_time(&self) -> Option<u64> {
        self.end_time
    }

    /// Ends the walk where the chain broke.
    fn garbled(&mut self, note: GarbleNote) {
        self.notes.push(note);
        self.broken = true;
    }

    /// Decodes the next event of `words` — the same buffer on every call —
    /// or `None` at the buffer's end or its first undecodable header. The
    /// workspace's one place an [`EventHeader`] becomes an event.
    #[inline]
    pub fn step<'a>(&mut self, words: &'a [u64]) -> Option<EventView<'a>> {
        if self.broken {
            return None;
        }
        let off = self.off;
        let Ok(header) = EventHeader::decode(*words.get(off)?) else {
            self.garbled(GarbleNote::ZeroHeader { offset: off });
            return None;
        };
        let len = header.len_words as usize;
        let Some(payload) = words.get(off + 1..off + len) else {
            self.garbled(GarbleNote::Overrun {
                offset: off,
                len_words: len,
            });
            return None;
        };

        // A time anchor re-seeds the extender with the full 64-bit time.
        if header.is_time_anchor() && !payload.is_empty() {
            let full = payload[0];
            match &mut self.extender {
                Some(e) => {
                    if full < e.last() {
                        self.notes.push(GarbleNote::NonMonotonic { offset: off });
                    }
                    e.reseed(full);
                }
                None => self.extender = Some(WrapExtender::new(full)),
            }
        } else if off == 0 {
            self.notes.push(GarbleNote::MissingAnchor);
        }

        let time = match &mut self.extender {
            Some(e) => {
                let prev = e.last();
                let t = e.extend(header.timestamp);
                if t < prev {
                    self.notes.push(GarbleNote::NonMonotonic { offset: off });
                }
                t
            }
            None => match self.time_hint {
                Some(hint) => {
                    let mut e = WrapExtender::new(hint);
                    let t = e.extend(header.timestamp);
                    self.extender = Some(e);
                    t
                }
                None => header.timestamp as u64,
            },
        };

        if header.is_filler() {
            self.filler_words += len;
        }
        self.end_time = Some(time);
        self.off = off + len;
        Some(EventView {
            offset: off,
            time,
            ts32: header.timestamp,
            major: header.major,
            minor: header.minor,
            payload,
        })
    }
}

/// [`WalkState::step`] as an iterator over borrowed words: [`EventView`]s up
/// to the buffer's end or its first undecodable header. Iterate it
/// (`by_ref()`), then read the notes, filler accounting and end time off it.
#[derive(Debug, Clone)]
pub struct BufferWalker<'a> {
    words: &'a [u64],
    state: WalkState,
}

/// Starts decoding a buffer's words.
///
/// `time_hint` supplies an approximate full timestamp (e.g. the previous
/// buffer's `end_time`) used when the buffer's own anchor is missing or
/// damaged.
pub fn walk_buffer(words: &[u64], time_hint: Option<u64>) -> BufferWalker<'_> {
    BufferWalker {
        words,
        state: WalkState::new(time_hint),
    }
}

impl BufferWalker<'_> {
    /// Consumes the walker, returning its anomalies.
    pub fn into_notes(self) -> Vec<GarbleNote> {
        self.state.into_notes()
    }
}

/// `notes()`, `filler_words()` and `end_time()` are the state's.
impl Deref for BufferWalker<'_> {
    type Target = WalkState;

    fn deref(&self) -> &WalkState {
        &self.state
    }
}

impl<'a> Iterator for BufferWalker<'a> {
    type Item = EventView<'a>;

    #[inline]
    fn next(&mut self) -> Option<EventView<'a>> {
        self.state.step(self.words)
    }
}

/// The result of decoding one buffer.
#[derive(Debug, Clone)]
pub struct ParsedBuffer {
    /// Every decoded event, control events included, in buffer order.
    pub events: Vec<RawEvent>,
    /// Anomalies found.
    pub notes: Vec<GarbleNote>,
    /// Words consumed by filler events (space overhead accounting, E6).
    pub filler_words: usize,
    /// The last reconstructed timestamp, to hint the next buffer if its
    /// anchor is damaged.
    pub end_time: Option<u64>,
}

impl ParsedBuffer {
    /// Events excluding tracing-infrastructure control events.
    pub fn data_events(&self) -> impl Iterator<Item = &RawEvent> {
        self.events.iter().filter(|e| !e.is_control())
    }

    /// True if the buffer decoded without anomalies.
    pub fn clean(&self) -> bool {
        self.notes.is_empty()
    }
}

/// Decodes the words of buffer `seq` from `cpu`'s region into owned events:
/// [`walk_buffer`], collected.
pub fn parse_buffer(cpu: usize, seq: u64, words: &[u64], time_hint: Option<u64>) -> ParsedBuffer {
    let mut walk = walk_buffer(words, time_hint);
    // Room for three-word events without regrowing (the benchmark's mix
    // averages 3.76 words an event); untouched capacity is never paged in.
    let mut events = Vec::with_capacity(words.len() / 3);
    events.extend(walk.by_ref().map(|v| v.to_raw(cpu, seq)));
    ParsedBuffer {
        events,
        filler_words: walk.filler_words(),
        end_time: walk.end_time(),
        notes: walk.into_notes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_format::ids::control;

    fn anchor(full_ts: u64, cpu: u64) -> Vec<u64> {
        let h =
            EventHeader::new(full_ts as u32, 2, MajorId::CONTROL, control::TIME_ANCHOR).unwrap();
        vec![h.encode(), full_ts, cpu]
    }

    fn event(ts32: u32, major: MajorId, minor: u16, payload: &[u64]) -> Vec<u64> {
        let h = EventHeader::new(ts32, payload.len(), major, minor).unwrap();
        let mut v = vec![h.encode()];
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn parses_anchored_buffer() {
        let mut words = anchor(0x5_0000_0100, 2);
        words.extend(event(0x0000_0150, MajorId::TEST, 1, &[10, 20]));
        words.extend(event(0x0000_0200, MajorId::MEM, 2, &[]));
        let p = parse_buffer(2, 0, &words, None);
        assert!(p.clean(), "{:?}", p.notes);
        assert_eq!(p.events.len(), 3);
        assert_eq!(p.events[1].time, 0x5_0000_0150);
        assert_eq!(p.events[1].payload, vec![10, 20]);
        assert_eq!(p.events[2].time, 0x5_0000_0200);
        assert_eq!(p.end_time, Some(0x5_0000_0200));
        assert_eq!(p.data_events().count(), 2);
    }

    #[test]
    fn timestamp_wrap_within_buffer() {
        let mut words = anchor(0x5_ffff_fff0, 0);
        words.extend(event(0xffff_fffa, MajorId::TEST, 1, &[]));
        words.extend(event(0x0000_0004, MajorId::TEST, 2, &[]));
        let p = parse_buffer(0, 0, &words, None);
        assert!(p.clean());
        assert_eq!(p.events[1].time, 0x5_ffff_fffa);
        assert_eq!(p.events[2].time, 0x6_0000_0004);
    }

    #[test]
    fn zero_header_stops_decode_with_note() {
        let mut words = anchor(1000, 0);
        words.extend(event(1001, MajorId::TEST, 1, &[7]));
        words.push(0); // unwritten reservation
        words.extend(event(1002, MajorId::TEST, 2, &[8])); // unreachable
        let p = parse_buffer(0, 0, &words, None);
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.notes, vec![GarbleNote::ZeroHeader { offset: 5 }]);
    }

    #[test]
    fn walker_reads_in_place_and_stays_stopped_at_a_break() {
        let mut words = anchor(1000, 0);
        words.extend(event(1001, MajorId::TEST, 1, &[7, 8]));
        words.push(0); // unwritten reservation
        words.extend(event(1002, MajorId::TEST, 2, &[9])); // unreachable
        let mut walk = walk_buffer(&words, None);
        let views: Vec<EventView<'_>> = walk.by_ref().collect();
        assert_eq!(views.len(), 2);
        // The payload is the buffer's own words, not a copy.
        assert!(std::ptr::eq(views[1].payload, &words[4..6]));
        assert_eq!(walk.next(), None);
        assert_eq!(walk.notes(), [GarbleNote::ZeroHeader { offset: 6 }]);
        assert_eq!(walk.end_time(), Some(1001));
        // parse_buffer is the same walk, collected.
        let owned: Vec<RawEvent> = views.iter().map(|v| v.to_raw(3, 9)).collect();
        assert_eq!(parse_buffer(3, 9, &words, None).events, owned);
    }

    #[test]
    fn overrun_detected() {
        let mut words = anchor(1000, 0);
        // Header claiming 500 words in a tiny buffer.
        let h = EventHeader::new(1001, 499, MajorId::TEST, 1).unwrap();
        words.push(h.encode());
        let p = parse_buffer(0, 0, &words, None);
        assert_eq!(p.events.len(), 1);
        assert!(matches!(
            p.notes[0],
            GarbleNote::Overrun {
                offset: 3,
                len_words: 500
            }
        ));
    }

    #[test]
    fn missing_anchor_uses_hint() {
        let words = event(0x0000_0042, MajorId::TEST, 1, &[]);
        let p = parse_buffer(0, 3, &words, Some(0x9_0000_0000));
        assert!(p.notes.contains(&GarbleNote::MissingAnchor));
        assert_eq!(p.events[0].time, 0x9_0000_0042);
        // Without a hint the 32-bit stamp is used as-is.
        let p2 = parse_buffer(0, 3, &words, None);
        assert_eq!(p2.events[0].time, 0x42);
    }

    #[test]
    fn nonmonotonic_flagged() {
        let mut words = anchor(0x1000, 0);
        words.extend(event(0x2000, MajorId::TEST, 1, &[]));
        // A stamp "before" the previous one: the extender wraps it forward a
        // full 2^32 and flags nothing... so craft a genuine regression by
        // reseeding via a second (corrupt) anchor going backwards.
        let mut bad_anchor = anchor(0x500, 0);
        // Give the corrupt anchor a plausible 32-bit stamp.
        words.append(&mut bad_anchor);
        words.extend(event(0x600, MajorId::TEST, 2, &[]));
        let p = parse_buffer(0, 0, &words, None);
        assert!(
            p.notes
                .iter()
                .any(|n| matches!(n, GarbleNote::NonMonotonic { .. })),
            "{:?}",
            p.notes
        );
    }

    #[test]
    fn filler_words_counted_and_filtered() {
        let mut words = anchor(10, 0);
        words.extend(event(11, MajorId::TEST, 1, &[1]));
        let f = EventHeader::control(12, ktrace_format::ids::control::FILLER, 5);
        words.push(f.encode());
        words.extend([0u64; 4]); // filler body (uninitialized is fine)
        let p = parse_buffer(0, 0, &words, None);
        assert!(p.clean());
        assert_eq!(p.filler_words, 5);
        assert_eq!(p.data_events().count(), 1);
        assert!(p.events.iter().any(|e| e.is_filler()));
    }

    #[test]
    fn empty_buffer_parses_empty() {
        let p = parse_buffer(0, 0, &[], None);
        assert!(p.events.is_empty());
        assert!(p.clean());
        assert_eq!(p.end_time, None);
    }
}
