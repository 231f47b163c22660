//! In-region and at-rest corruption injectors.

use ktrace_core::TraceLogger;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Drives the fault hooks on a live [`TraceLogger`]: the in-memory leg of
/// the fault matrix. Every choice (offsets, masks, deltas) is drawn from a
/// seeded generator.
#[derive(Debug)]
pub struct RegionCorruptor {
    rng: StdRng,
}

impl RegionCorruptor {
    /// A corruptor whose decisions are a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        RegionCorruptor {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Claims a random-sized reservation on `cpu` and abandons it — the
    /// killed-mid-log scenario (§3.1). Returns the torn extent's start index
    /// and word count, or `None` if `cpu` has no region or the region
    /// refused the reservation.
    pub fn abandon_reservation(
        &mut self,
        logger: &TraceLogger,
        cpu: usize,
    ) -> Option<(u64, usize)> {
        let max = logger.config().max_event_words();
        let words = self.rng.gen_range(1..=max.min(16));
        logger
            .handle(cpu)
            .ok()?
            .fault_abandon_reservation(words)
            .map(|at| (at, words))
    }

    /// XORs a random non-zero mask into a random live word of `cpu`'s current
    /// buffer — a torn header or flipped payload. Returns `(offset, mask)`,
    /// or `None` if nothing has been logged yet.
    pub fn flip_word(&mut self, logger: &TraceLogger, cpu: usize) -> Option<(u64, u64)> {
        let snap = logger.snapshot(cpu);
        if snap.index == 0 {
            return None;
        }
        let bw = snap.buffer_words as u64;
        let lo = (snap.index / bw) * bw; // current buffer's base
        let at = self.rng.gen_range(lo..snap.index.max(lo + 1));
        let mask = self.rng.next_u64() | 1;
        logger.fault_corrupt_word(cpu, at, mask);
        Some((at, mask))
    }

    /// Skews the commit count of `cpu`'s current buffer slot by a random
    /// non-zero delta in `[-8, 8]`. Returns `(slot, delta)`.
    pub fn desync_commit(&mut self, logger: &TraceLogger, cpu: usize) -> (usize, i64) {
        let cfg = logger.config();
        let snap = logger.snapshot(cpu);
        let slot = ((snap.index / cfg.buffer_words as u64) % cfg.buffers_per_cpu as u64) as usize;
        let mut delta = 0i64;
        while delta == 0 {
            delta = self.rng.gen_range(-8i64..=8);
        }
        logger.fault_desync_commit(cpu, slot, delta);
        (slot, delta)
    }
}

/// What [`FileCorruptor::mutate`] did to the byte image, for test logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileMutation {
    /// The tail was cut at the given length.
    Truncated(usize),
    /// `count` bytes were XOR-flipped starting near `offset`.
    FlippedBytes {
        /// First affected byte.
        offset: usize,
        /// How many bytes were flipped.
        count: usize,
    },
    /// A span was zeroed.
    ZeroedSpan {
        /// First zeroed byte.
        offset: usize,
        /// Span length.
        len: usize,
    },
}

/// Byte-level corruption of an encoded trace file: the at-rest leg of the
/// fault matrix and the input generator for the salvage proptest. Knows
/// nothing about the format — that is the point.
#[derive(Debug)]
pub struct FileCorruptor {
    rng: StdRng,
}

impl FileCorruptor {
    /// A corruptor whose mutations are a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        FileCorruptor {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Cuts the image at a random length (possibly to zero): the short-read
    /// plan. Returns the new length.
    pub fn truncate(&mut self, bytes: &mut Vec<u8>) -> usize {
        let keep = if bytes.is_empty() {
            0
        } else {
            self.rng.gen_range(0..bytes.len())
        };
        bytes.truncate(keep);
        keep
    }

    /// XOR-flips up to `count` random bytes anywhere in the image.
    pub fn flip_bytes(&mut self, bytes: &mut [u8], count: usize) -> Option<FileMutation> {
        if bytes.is_empty() {
            return None;
        }
        let mut first = bytes.len();
        for _ in 0..count {
            let at = self.rng.gen_range(0..bytes.len());
            let mask = (self.rng.next_u64() as u8) | 1;
            bytes[at] ^= mask;
            first = first.min(at);
        }
        Some(FileMutation::FlippedBytes {
            offset: first,
            count,
        })
    }

    /// Zeroes a random span of the image.
    pub fn zero_span(&mut self, bytes: &mut [u8]) -> Option<FileMutation> {
        if bytes.is_empty() {
            return None;
        }
        let offset = self.rng.gen_range(0..bytes.len());
        let len = self.rng.gen_range(1..=(bytes.len() - offset).min(256));
        bytes[offset..offset + len].fill(0);
        Some(FileMutation::ZeroedSpan { offset, len })
    }

    /// Applies one randomly chosen mutation and reports what it did.
    pub fn mutate(&mut self, bytes: &mut Vec<u8>) -> Option<FileMutation> {
        match self.rng.gen_range(0u32..3) {
            0 => {
                let keep = self.truncate(bytes);
                Some(FileMutation::Truncated(keep))
            }
            1 => {
                let n = self.rng.gen_range(1usize..=16);
                self.flip_bytes(bytes, n)
            }
            _ => self.zero_span(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::ManualClock;
    use ktrace_core::{parse_buffer, GarbleNote, TraceConfig, TraceLogger};
    use ktrace_format::MajorId;
    use std::sync::Arc;

    fn logger() -> TraceLogger {
        TraceLogger::builder()
            .geometry(TraceConfig::small())
            .clock(Arc::new(ManualClock::new(1, 1)))
            .ncpus(1)
            .build()
            .unwrap()
    }

    #[test]
    fn abandon_leaves_detectable_hole() {
        let l = logger();
        let h = l.handle(0).unwrap();
        h.log_slice(MajorId::TEST, 0, &[1]);
        let mut c = RegionCorruptor::new(11);
        let (at, words) = c.abandon_reservation(&l, 0).expect("reserved");
        assert!(words >= 1);
        l.flush_cpu(0);
        let buf = l.take_buffer(0).unwrap();
        assert!(!buf.complete);
        assert_eq!(buf.expected_words - buf.committed_words, words as u64);
        let parsed = parse_buffer(0, buf.seq, &buf.words, None);
        assert!(parsed
            .notes
            .iter()
            .any(|n| matches!(n, GarbleNote::ZeroHeader { offset } if *offset as u64 == at)));
    }

    #[test]
    fn flip_word_changes_exactly_one_word() {
        let l = logger();
        let h = l.handle(0).unwrap();
        for i in 0..8 {
            h.log_slice(MajorId::TEST, 0, &[i]);
        }
        let before = l.snapshot(0).words;
        let mut c = RegionCorruptor::new(21);
        let (at, mask) = c.flip_word(&l, 0).expect("live words exist");
        let after = l.snapshot(0).words;
        let changed: Vec<usize> = (0..before.len())
            .filter(|&i| before[i] != after[i])
            .collect();
        assert_eq!(changed, vec![at as usize % before.len()]);
        assert_eq!(before[changed[0]] ^ mask, after[changed[0]]);
    }

    #[test]
    fn desync_flags_current_buffer() {
        let l = logger();
        let h = l.handle(0).unwrap();
        h.log_slice(MajorId::TEST, 0, &[1]);
        let mut c = RegionCorruptor::new(31);
        let (_slot, delta) = c.desync_commit(&l, 0);
        assert_ne!(delta, 0);
        l.flush_cpu(0);
        let buf = l.take_buffer(0).unwrap();
        assert!(!buf.complete, "skewed count must flag garble");
    }

    #[test]
    fn corruptors_are_deterministic_per_seed() {
        let run = |seed| {
            let mut img = (0u32..512).map(|i| i as u8).collect::<Vec<u8>>();
            let mut c = FileCorruptor::new(seed);
            let muts: Vec<_> = (0..4).map(|_| c.mutate(&mut img)).collect();
            (img, muts)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }

    #[test]
    fn file_corruptor_handles_degenerate_images() {
        let mut c = FileCorruptor::new(1);
        let mut empty = Vec::new();
        assert_eq!(c.truncate(&mut empty), 0);
        assert!(c.flip_bytes(&mut empty, 4).is_none());
        assert!(c.zero_span(&mut empty).is_none());
        let mut tiny = vec![0xffu8];
        for _ in 0..16 {
            c.mutate(&mut tiny);
        }
    }
}
