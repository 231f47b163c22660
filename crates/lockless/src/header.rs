//! The packed 64-bit event header word.
//!
//! Layout (paper §3.2): "The first word contains 32 bits of timestamp, 10 bits
//! indicating the length, 6 bits for the major ID, and 16 bits of
//! major-class-defined data, typically a minor ID."
//!
//! ```text
//!  63                              32 31       22 21    16 15           0
//! +----------------------------------+-----------+--------+-------------+
//! |        timestamp (32 bits)       | len (10)  | major  |  minor (16) |
//! +----------------------------------+-----------+--------+-------------+
//! ```
//!
//! `len` counts 64-bit words **including** the header itself, so a bare header
//! has length 1 and the maximum event is 1023 words (1 header + 1022 payload
//! words ≈ 8 KiB). A length field of 0 never occurs in a valid stream; since
//! trace buffers are zero-filled before (re)use, a zero header is exactly what
//! an unlogged (garbled) region looks like, which is how readers detect it.

use crate::ids::{control, MajorId, MinorId};
use core::fmt;

/// Maximum total event size in 64-bit words (header + payload): 10-bit field.
pub const MAX_EVENT_WORDS: usize = (1 << 10) - 1;

/// Maximum payload size in 64-bit words (excludes the header word).
pub const MAX_PAYLOAD_WORDS: usize = MAX_EVENT_WORDS - 1;

const TS_SHIFT: u32 = 32;
const LEN_SHIFT: u32 = 22;
const LEN_MASK: u64 = 0x3ff;
const MAJOR_SHIFT: u32 = 16;
const MAJOR_MASK: u64 = 0x3f;
const MINOR_MASK: u64 = 0xffff;

/// A value the event-word layout cannot hold: what the header and ID
/// constructors reject. `ktrace_format::FormatError::Layout` carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// An event length field was zero or larger than the containing buffer
    /// allows. A zero length word is what an unwritten (garbled) header looks
    /// like, so decoders surface it distinctly.
    InvalidLength {
        /// The raw length field value, in 64-bit words.
        words: u16,
    },
    /// A major ID outside `0..64` was requested.
    InvalidMajor(u16),
    /// An event payload was too large to express in the 10-bit length field.
    PayloadTooLarge {
        /// Payload length in 64-bit words (excluding the header).
        words: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::InvalidLength { words } => {
                write!(f, "invalid event length field: {words} words")
            }
            LayoutError::InvalidMajor(m) => write!(f, "major ID {m} out of range (max 63)"),
            LayoutError::PayloadTooLarge { words } => {
                write!(
                    f,
                    "payload of {words} words exceeds the 10-bit length field"
                )
            }
        }
    }
}

/// A decoded event header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHeader {
    /// Low 32 bits of the timestamp at which the event was logged.
    pub timestamp: u32,
    /// Total event length in 64-bit words, including this header. `1..=1023`.
    pub len_words: u16,
    /// Major (subsystem) ID.
    pub major: MajorId,
    /// Minor ID or other major-class-defined 16-bit datum.
    pub minor: MinorId,
}

impl EventHeader {
    /// Builds a header for an event with `payload_words` words of data.
    pub fn new(
        timestamp: u32,
        payload_words: usize,
        major: MajorId,
        minor: MinorId,
    ) -> Result<EventHeader, LayoutError> {
        if payload_words > MAX_PAYLOAD_WORDS {
            return Err(LayoutError::PayloadTooLarge {
                words: payload_words,
            });
        }
        Ok(EventHeader {
            timestamp,
            len_words: (payload_words + 1) as u16,
            major,
            minor,
        })
    }

    /// Builds the header of a stream-control event `total_words` long
    /// (header included): a filler, a time anchor or a dropped marker.
    ///
    /// Fillers are bare headers: the covered words carry no data. A buffer
    /// remainder wider than [`MAX_EVENT_WORDS`] is covered by a *chain* of
    /// fillers ([`filler_chain`]). The caller bounds `total_words` to
    /// `1..=MAX_EVENT_WORDS`; debug builds check it.
    #[inline]
    pub fn control(timestamp: u32, minor: MinorId, total_words: usize) -> EventHeader {
        debug_assert!((1..=MAX_EVENT_WORDS).contains(&total_words));
        EventHeader {
            timestamp,
            len_words: total_words as u16,
            major: MajorId::CONTROL,
            minor,
        }
    }

    /// Packs into the on-buffer 64-bit word.
    #[inline]
    pub const fn encode(self) -> u64 {
        ((self.timestamp as u64) << TS_SHIFT)
            | (((self.len_words as u64) & LEN_MASK) << LEN_SHIFT)
            | (((self.major.raw() as u64) & MAJOR_MASK) << MAJOR_SHIFT)
            | ((self.minor as u64) & MINOR_MASK)
    }

    /// Unpacks a header word. Fails only on a zero length field, which marks
    /// an unwritten (garbled) header slot.
    #[inline]
    pub fn decode(word: u64) -> Result<EventHeader, LayoutError> {
        let len_words = ((word >> LEN_SHIFT) & LEN_MASK) as u16;
        if len_words == 0 {
            return Err(LayoutError::InvalidLength { words: 0 });
        }
        Ok(EventHeader {
            timestamp: (word >> TS_SHIFT) as u32,
            len_words,
            major: MajorId::new_unchecked(((word >> MAJOR_SHIFT) & MAJOR_MASK) as u8),
            minor: (word & MINOR_MASK) as u16,
        })
    }

    /// Payload length in words (total minus the header word).
    #[inline]
    pub const fn payload_words(self) -> usize {
        self.len_words as usize - 1
    }

    /// True for stream-control filler events.
    #[inline]
    pub fn is_filler(self) -> bool {
        self.major == MajorId::CONTROL && self.minor == control::FILLER
    }

    /// True for buffer-start time-anchor events.
    #[inline]
    pub fn is_time_anchor(self) -> bool {
        self.major == MajorId::CONTROL && self.minor == control::TIME_ANCHOR
    }
}

/// Splits a filler extent of `total_words` into chain segments, longest first,
/// each at most [`MAX_EVENT_WORDS`].
pub fn filler_chain(total_words: usize) -> impl Iterator<Item = usize> {
    let full = total_words / MAX_EVENT_WORDS;
    let rem = total_words % MAX_EVENT_WORDS;
    core::iter::repeat_n(MAX_EVENT_WORDS, full).chain(core::iter::once(rem).filter(|&r| r > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::vec::Vec;

    #[test]
    fn roundtrip_all_fields() {
        let h = EventHeader::new(0xdead_beef, 3, MajorId::MEM, 0x1234).unwrap();
        let d = EventHeader::decode(h.encode()).unwrap();
        assert_eq!(h, d);
        assert_eq!(d.timestamp, 0xdead_beef);
        assert_eq!(d.len_words, 4);
        assert_eq!(d.payload_words(), 3);
        assert_eq!(d.major, MajorId::MEM);
        assert_eq!(d.minor, 0x1234);
    }

    #[test]
    fn payload_limit_enforced() {
        assert!(EventHeader::new(0, MAX_PAYLOAD_WORDS, MajorId::TEST, 0).is_ok());
        assert_eq!(
            EventHeader::new(0, MAX_PAYLOAD_WORDS + 1, MajorId::TEST, 0),
            Err(LayoutError::PayloadTooLarge {
                words: MAX_PAYLOAD_WORDS + 1
            })
        );
    }

    #[test]
    fn zero_word_is_an_invalid_header() {
        assert_eq!(
            EventHeader::decode(0),
            Err(LayoutError::InvalidLength { words: 0 })
        );
    }

    #[test]
    fn filler_has_control_class_and_spans_extent() {
        let f = EventHeader::control(7, control::FILLER, 100);
        assert!(f.is_filler());
        assert_eq!(f.len_words, 100);
        assert_eq!(EventHeader::decode(f.encode()).unwrap(), f);
        let anchor = EventHeader::control(7, control::TIME_ANCHOR, MAX_EVENT_WORDS);
        assert!(anchor.is_time_anchor() && !anchor.is_filler());
        assert_eq!(EventHeader::decode(anchor.encode()).unwrap(), anchor);
    }

    #[test]
    fn filler_chain_covers_extent_exactly() {
        for total in [
            1,
            MAX_EVENT_WORDS,
            MAX_EVENT_WORDS + 1,
            3 * MAX_EVENT_WORDS + 17,
            16384,
        ] {
            let segs: Vec<usize> = filler_chain(total).collect();
            assert_eq!(segs.iter().sum::<usize>(), total, "total {total}");
            assert!(segs.iter().all(|&s| (1..=MAX_EVENT_WORDS).contains(&s)));
        }
        assert_eq!(filler_chain(0).count(), 0);
    }

    #[test]
    fn timestamp_occupies_high_bits() {
        // Sorting raw header words of same-buffer events must sort by time.
        let early = EventHeader::new(100, 0, MajorId::TEST, 9).unwrap().encode();
        let late = EventHeader::new(200, 0, MajorId::TEST, 1).unwrap().encode();
        assert!(early < late);
    }
}
