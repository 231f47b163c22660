//! The on-disk format.
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic "KTRACE01" (8)                                          |
//! | version u32 | flags u32                                       |
//! | ncpus u32   | buffer_words u32                                |
//! | ticks_per_sec u64                                             |
//! | registry_bytes u64                                            |
//! | registry text (UTF-8, EventRegistry::to_text)                 |
//! +--------------------------------------------------------------+
//! | record 0 | record 1 | ...      (each fixed RECORD_HEADER_BYTES |
//! |          |          |           + buffer_words * 8 bytes)      |
//! +--------------------------------------------------------------+
//! ```
//!
//! Every record is the same size, so record `k` is at
//! `header_len + k * record_size`: seekable without scanning, the file-level
//! counterpart of the paper's medium-scale alignment boundaries.
//!
//! Record layout: `record magic u32 | cpu u32 | seq u64 | flags u64 |
//! words…`. Flag bit 0 = "complete" (commit count matched when drained).

use crate::error::IoError;
use ktrace_format::EventRegistry;

/// File magic: identifies a ktrace trace file.
pub const FILE_MAGIC: [u8; 8] = *b"KTRACE01";

/// Current format version.
pub const FILE_VERSION: u32 = 1;

/// Per-record magic guarding against corrupt offsets.
pub const RECORD_MAGIC: u32 = 0xB0F4_0001;

/// Fixed bytes before each record's buffer words.
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// Header flag bit: the clock was globally synchronized.
pub const FLAG_CLOCK_SYNCHRONIZED: u32 = 1;

/// Record flag bit: the buffer's commit count matched when drained.
pub const RECORD_FLAG_COMPLETE: u64 = 1;

/// The decoded file header.
#[derive(Debug, Clone)]
pub struct FileHeader {
    /// Number of CPUs that logged into this trace.
    pub ncpus: u32,
    /// Words per buffer (every record carries exactly this many words).
    pub buffer_words: u32,
    /// Clock rate, ticks per second.
    pub ticks_per_sec: u64,
    /// Whether the trace clock was globally synchronized.
    pub clock_synchronized: bool,
    /// The embedded self-describing event registry.
    pub registry: EventRegistry,
}

impl FileHeader {
    /// Size in bytes of one buffer record under this header.
    pub fn record_size(&self) -> usize {
        RECORD_HEADER_BYTES + self.buffer_words as usize * 8
    }

    /// Encodes the header (including the registry text).
    pub fn encode(&self) -> Vec<u8> {
        let registry_text = self.registry.to_text();
        let mut out = Vec::with_capacity(40 + registry_text.len());
        let flags = if self.clock_synchronized {
            FLAG_CLOCK_SYNCHRONIZED
        } else {
            0
        };
        out.extend_from_slice(&FILE_MAGIC);
        out.extend_from_slice(&FILE_VERSION.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&self.ncpus.to_le_bytes());
        out.extend_from_slice(&self.buffer_words.to_le_bytes());
        out.extend_from_slice(&self.ticks_per_sec.to_le_bytes());
        out.extend_from_slice(&(registry_text.len() as u64).to_le_bytes());
        out.extend_from_slice(registry_text.as_bytes());
        out
    }

    /// Decodes a header from the start of `bytes`, returning it and the
    /// number of bytes it occupied.
    pub fn decode(mut bytes: &[u8]) -> Result<(FileHeader, usize), IoError> {
        let total = bytes.len();
        let mut fixed = || {
            Some((
                take::<8>(&mut bytes)?,
                u32::from_le_bytes(take(&mut bytes)?),
                u32::from_le_bytes(take(&mut bytes)?),
                u32::from_le_bytes(take(&mut bytes)?),
                u32::from_le_bytes(take(&mut bytes)?),
                u64::from_le_bytes(take(&mut bytes)?),
                u64::from_le_bytes(take(&mut bytes)?) as usize,
            ))
        };
        let (magic, version, flags, ncpus, buffer_words, ticks_per_sec, registry_bytes) =
            fixed().ok_or(IoError::BadHeader("file shorter than fixed header"))?;
        if magic != FILE_MAGIC {
            return Err(IoError::BadMagic);
        }
        if version != FILE_VERSION {
            return Err(IoError::BadVersion(version));
        }
        if ncpus == 0 {
            return Err(IoError::BadHeader("ncpus is zero"));
        }
        if buffer_words == 0 || !buffer_words.is_power_of_two() {
            return Err(IoError::BadHeader("buffer_words not a power of two"));
        }
        if bytes.len() < registry_bytes {
            return Err(IoError::BadHeader("registry text truncated"));
        }
        let registry_text = std::str::from_utf8(&bytes[..registry_bytes])
            .map_err(|_| IoError::BadHeader("registry text not UTF-8"))?;
        let registry = EventRegistry::from_text(registry_text).map_err(IoError::BadRegistry)?;
        let used = total - (bytes.len() - registry_bytes);
        Ok((
            FileHeader {
                ncpus,
                buffer_words,
                ticks_per_sec,
                clock_synchronized: flags & FLAG_CLOCK_SYNCHRONIZED != 0,
                registry,
            },
            used,
        ))
    }
}

/// Encodes one record's fixed prefix.
pub fn encode_record_header(cpu: u32, seq: u64, complete: bool) -> [u8; RECORD_HEADER_BYTES] {
    let flags = if complete { RECORD_FLAG_COMPLETE } else { 0 };
    let mut out = [0u8; RECORD_HEADER_BYTES];
    out[..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&cpu.to_le_bytes());
    out[8..16].copy_from_slice(&seq.to_le_bytes());
    out[16..].copy_from_slice(&flags.to_le_bytes());
    out
}

/// Splits the next `N` bytes off the front of `bytes`, or leaves it alone
/// and answers `None` when fewer remain.
#[inline]
fn take<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(*head)
}

/// One framed record: the decoded fixed prefix and the buffer bytes after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFrame<'a> {
    /// CPU that produced the buffer.
    pub cpu: u32,
    /// Buffer sequence number within that CPU's region.
    pub seq: u64,
    /// Whether the commit count matched when the buffer was drained.
    pub complete: bool,
    /// The buffer bytes that followed the prefix (short if `bytes` was).
    pub body: &'a [u8],
}

/// Why bytes do not frame as a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`RECORD_HEADER_BYTES`] bytes.
    TruncatedHeader,
    /// The first four bytes are not [`RECORD_MAGIC`].
    BadMagic,
}

impl FrameError {
    /// The refusal as text, for [`IoError::CorruptRecord`].
    pub fn reason(self) -> &'static str {
        match self {
            FrameError::TruncatedHeader => "truncated record header",
            FrameError::BadMagic => "bad record magic",
        }
    }
}

/// Frames the record that starts at `bytes[0]`: the one decoder of the
/// record prefix. `bytes` may hold less than a whole record (a torn tail,
/// a metadata peek); `body` is then as short as what was given. What a
/// refusal means is the caller's policy: the strict reader fails, salvage
/// hunts for the next frame, the collector abandons the connection.
#[inline]
pub fn frame_record(mut bytes: &[u8]) -> Result<RecordFrame<'_>, FrameError> {
    let mut prefix = || {
        Some((
            u32::from_le_bytes(take(&mut bytes)?),
            u32::from_le_bytes(take(&mut bytes)?),
            u64::from_le_bytes(take(&mut bytes)?),
            u64::from_le_bytes(take(&mut bytes)?),
        ))
    };
    let (magic, cpu, seq, flags) = prefix().ok_or(FrameError::TruncatedHeader)?;
    if magic != RECORD_MAGIC {
        return Err(FrameError::BadMagic);
    }
    Ok(RecordFrame {
        cpu,
        seq,
        complete: flags & RECORD_FLAG_COMPLETE != 0,
        body: bytes,
    })
}

/// The little-endian words of a record body (a trailing partial word, left
/// by a torn record, is not one).
pub fn body_words(body: &[u8]) -> impl Iterator<Item = u64> + '_ {
    body.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_format::EventDescriptor;
    use ktrace_format::MajorId;

    fn header() -> FileHeader {
        let mut registry = EventRegistry::with_builtin();
        registry.register(
            MajorId::TEST,
            1,
            EventDescriptor::new("TRACE_TEST_E", "64", "v %0[%d]").unwrap(),
        );
        FileHeader {
            ncpus: 4,
            buffer_words: 1024,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        let enc = h.encode();
        let (dec, used) = FileHeader::decode(&enc).unwrap();
        assert_eq!(used, enc.len());
        assert_eq!(dec.ncpus, 4);
        assert_eq!(dec.buffer_words, 1024);
        assert_eq!(dec.ticks_per_sec, 1_000_000_000);
        assert!(dec.clock_synchronized);
        assert_eq!(dec.registry.len(), h.registry.len());
        assert!(dec.registry.lookup(MajorId::TEST, 1).is_some());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut enc = header().encode();
        enc[0] = b'X';
        assert!(matches!(FileHeader::decode(&enc), Err(IoError::BadMagic)));
        let mut enc = header().encode();
        enc[8] = 99;
        assert!(matches!(
            FileHeader::decode(&enc),
            Err(IoError::BadVersion(_))
        ));
    }

    #[test]
    fn truncated_registry_rejected() {
        let enc = header().encode();
        assert!(matches!(
            FileHeader::decode(&enc[..enc.len() - 10]),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn record_header_roundtrip() {
        let enc = encode_record_header(3, 42, true);
        let frame = frame_record(&enc).unwrap();
        assert_eq!((frame.cpu, frame.seq, frame.complete), (3, 42, true));
        assert!(frame.body.is_empty());
        let enc = encode_record_header(0, 0, false);
        let frame = frame_record(&enc).unwrap();
        assert_eq!((frame.cpu, frame.seq, frame.complete), (0, 0, false));
    }

    #[test]
    fn record_magic_and_length_checked() {
        let mut enc = encode_record_header(3, 42, true);
        assert_eq!(
            frame_record(&enc[..RECORD_HEADER_BYTES - 1]),
            Err(FrameError::TruncatedHeader)
        );
        enc[0] ^= 0xff;
        assert_eq!(frame_record(&enc), Err(FrameError::BadMagic));
    }

    #[test]
    fn body_is_what_follows_the_prefix_and_words_drop_a_torn_tail() {
        let mut enc = encode_record_header(1, 2, true).to_vec();
        enc.extend_from_slice(&7u64.to_le_bytes());
        enc.extend_from_slice(&9u64.to_le_bytes());
        enc.extend_from_slice(&[0xaa; 5]);
        let frame = frame_record(&enc).unwrap();
        assert_eq!(frame.body.len(), 21);
        assert_eq!(body_words(frame.body).collect::<Vec<u64>>(), vec![7, 9]);
    }

    /// `FileHeader::encode()` followed by `encode_record_header(3, 7, false)`
    /// as the last commit that wrote them through the `bytes` cursor traits
    /// produced them: the file and wire bytes are pinned, not re-derived.
    #[test]
    fn header_and_record_prefix_match_the_committed_bytes() {
        let fixture: &[u8] = include_bytes!("../tests/fixtures/header_and_record.bin");
        let mut registry = EventRegistry::new();
        registry.register(
            MajorId::TEST,
            1,
            EventDescriptor::new("TRACE_TEST_E", "64", "v %0[%d]").unwrap(),
        );
        let h = FileHeader {
            registry,
            ..header()
        };
        let mut enc = h.encode();
        let header_len = enc.len();
        enc.extend_from_slice(&encode_record_header(3, 7, false));
        assert_eq!(enc, fixture);

        let (dec, used) = FileHeader::decode(fixture).unwrap();
        assert_eq!(used, header_len);
        assert_eq!((dec.ncpus, dec.buffer_words), (4, 1024));
        let frame = frame_record(&fixture[used..]).unwrap();
        assert_eq!((frame.cpu, frame.seq, frame.complete), (3, 7, false));

        // Anything shorter than a fixed part is refused, not indexed into.
        for n in 0..40 {
            assert!(matches!(
                FileHeader::decode(&fixture[..n]),
                Err(IoError::BadHeader("file shorter than fixed header"))
            ));
        }
        for n in 0..RECORD_HEADER_BYTES {
            assert_eq!(
                frame_record(&fixture[used..used + n]),
                Err(FrameError::TruncatedHeader)
            );
        }
    }

    #[test]
    fn record_size_matches_layout() {
        let h = header();
        assert_eq!(h.record_size(), 24 + 1024 * 8);
    }
}
