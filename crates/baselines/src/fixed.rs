//! Fixed-length-slot logging with valid bits (IRIX-style lockless, ref [15]).
//!
//! §3.1: "Previous lockless logging schemes used fixed-length events with
//! valid bits." Each event occupies one fixed-size slot claimed with a
//! `fetch_add`; a valid bit in the header word is set once the slot is
//! written. §2 lists the structural costs this design pays — "they waste
//! space, they take longer to write … because extra data needs to be written
//! for short events, and they make it complicated to log data that is larger
//! than the fixed size" — which experiments E6/E12 quantify against the
//! variable-length scheme.

use crate::sink::EventSink;
use ktrace_clock::ClockSource;
use ktrace_format::{EventHeader, MajorId, MinorId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Valid bit: stored in bit 63 of the slot's first word would collide with
/// the timestamp, so fixed-slot schemes spend a whole extra word on it.
const VALID: u64 = 1;

/// Aligned to two cache lines (adjacent-line prefetch): one CPU's claim
/// counter never shares a line with a neighbour's.
#[repr(align(128))]
struct CpuRing {
    /// `slots * slot_words` data words plus one valid word per slot.
    words: Vec<AtomicU64>,
    valid: Vec<AtomicU64>,
    next: AtomicU64,
}

const _: () = assert!(std::mem::align_of::<CpuRing>() == 128);

/// Per-CPU fixed-slot lockless logger.
pub struct FixedSlotSink {
    clock: Arc<dyn ClockSource>,
    /// Words per slot including the header word.
    slot_words: usize,
    slots_per_cpu: usize,
    cpus: Vec<CpuRing>,
    truncated: AtomicU64,
}

impl FixedSlotSink {
    /// Builds rings of `slots_per_cpu` slots of `slot_words` words each.
    pub fn new(
        clock: Arc<dyn ClockSource>,
        ncpus: usize,
        slot_words: usize,
        slots_per_cpu: usize,
    ) -> FixedSlotSink {
        assert!(slot_words >= 1, "a slot must at least hold a header");
        let cpus = (0..ncpus)
            .map(|_| CpuRing {
                words: (0..slot_words * slots_per_cpu)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                valid: (0..slots_per_cpu).map(|_| AtomicU64::new(0)).collect(),
                next: AtomicU64::new(0),
            })
            .collect();
        FixedSlotSink {
            clock,
            slot_words,
            slots_per_cpu,
            cpus,
            truncated: AtomicU64::new(0),
        }
    }

    /// Events whose payload exceeded the slot and was truncated — the
    /// "complicated to log data larger than the fixed size" cost.
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Words of ring space consumed per event (always a full slot plus the
    /// valid word), regardless of the event's real size.
    pub fn words_per_event(&self) -> usize {
        self.slot_words + 1
    }

    /// Decodes one CPU's currently valid slots (slot index, header, payload).
    pub fn read_slots(&self, cpu: usize) -> Vec<(usize, EventHeader, Vec<u64>)> {
        let ring = &self.cpus[cpu];
        let mut out = Vec::new();
        for slot in 0..self.slots_per_cpu {
            if ring.valid[slot].load(Ordering::Acquire) & VALID == 0 {
                continue;
            }
            let base = slot * self.slot_words;
            let Ok(header) = EventHeader::decode(ring.words[base].load(Ordering::Relaxed)) else {
                continue;
            };
            let payload: Vec<u64> = (1..header.len_words as usize)
                .map(|i| ring.words[base + i].load(Ordering::Relaxed))
                .collect();
            out.push((slot, header, payload));
        }
        out
    }
}

impl EventSink for FixedSlotSink {
    fn log(&self, cpu: usize, major: MajorId, minor: MinorId, payload: &[u64]) -> bool {
        let ring = &self.cpus[cpu];
        let ts = self.clock.now(cpu);
        let claim = ring.next.fetch_add(1, Ordering::AcqRel);
        let slot = (claim % self.slots_per_cpu as u64) as usize;
        // Fixed slots cannot hold bigger events: truncate (and count it).
        let keep = payload.len().min(self.slot_words - 1);
        if keep < payload.len() {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
        let header = EventHeader::new(ts as u32, keep, major, minor).expect("fits slot");
        let base = slot * self.slot_words;
        // Invalidate, write, validate: the valid-bit protocol.
        ring.valid[slot].store(0, Ordering::Release);
        for (i, &w) in payload[..keep].iter().enumerate() {
            ring.words[base + 1 + i].store(w, Ordering::Relaxed);
        }
        ring.words[base].store(header.encode(), Ordering::Relaxed);
        ring.valid[slot].store(VALID, Ordering::Release);
        true
    }

    fn events_logged(&self) -> u64 {
        self.cpus
            .iter()
            .map(|r| r.next.load(Ordering::Relaxed))
            .sum()
    }

    fn name(&self) -> &'static str {
        "fixed-slot-validbit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::SyncClock;

    fn sink(slot_words: usize, slots: usize) -> FixedSlotSink {
        FixedSlotSink::new(Arc::new(SyncClock::new()), 2, slot_words, slots)
    }

    #[test]
    fn logs_and_reads_back() {
        let s = sink(8, 16);
        assert!(s.log(0, MajorId::TEST, 3, &[10, 20, 30]));
        let slots = s.read_slots(0);
        assert_eq!(slots.len(), 1);
        let (_, h, p) = &slots[0];
        assert_eq!(h.minor, 3);
        assert_eq!(p, &vec![10, 20, 30]);
    }

    #[test]
    fn oversized_payload_truncated_and_counted() {
        let s = sink(4, 16); // 3 payload words max
        assert!(s.log(0, MajorId::TEST, 1, &[1, 2, 3, 4, 5]));
        assert_eq!(s.truncated(), 1);
        let slots = s.read_slots(0);
        assert_eq!(slots[0].2, vec![1, 2, 3]);
    }

    #[test]
    fn ring_wraps_over_old_slots() {
        let s = sink(4, 8);
        for i in 0..20u64 {
            s.log(1, MajorId::TEST, i as u16, &[i]);
        }
        assert_eq!(s.events_logged(), 20);
        let slots = s.read_slots(1);
        assert_eq!(slots.len(), 8, "only the ring's slots remain");
        // Remaining slots hold the 8 most recent events.
        let minors: Vec<u16> = slots.iter().map(|(_, h, _)| h.minor).collect();
        for m in 12..20 {
            assert!(minors.contains(&m), "missing recent event {m}");
        }
    }

    #[test]
    fn space_cost_independent_of_event_size() {
        let s = sink(8, 16);
        assert_eq!(s.words_per_event(), 9);
        // A 0-word and a 7-word event consume the same slot space: that's
        // the waste the variable-length design removes.
    }

    #[test]
    fn concurrent_logging_no_loss_of_count() {
        let s = Arc::new(sink(8, 1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        s.log(t % 2, MajorId::TEST, 0, &[i]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.events_logged(), 2000);
    }
}
