//! The locking logger: one global lock, interrupts disabled per event.
//!
//! This is LTT's original locking mode (§4.1): "The locking option, which
//! disables interrupts and process-state transitions, though slower, provides
//! a greater likelihood that events will not be garbled." Every event
//! acquires one global mutex, pays a configurable interrupt-disable/enable
//! cost, writes header + payload into a single shared ring, and unlocks.
//! Applying the paper's lockless/per-CPU technology to LTT produced "an order
//! of magnitude performance improvement" — experiment E4 reproduces that
//! comparison.

use crate::sink::EventSink;
use ktrace_clock::ClockSource;
use ktrace_format::{EventHeader, MajorId, MinorId};
use std::sync::{Arc, Mutex, PoisonError};

struct Ring {
    words: Vec<u64>,
    /// Next write position (wraps).
    pos: usize,
    events: u64,
}

/// Global-lock event logger (the pre-K42 LTT scheme).
pub struct LockingSink {
    clock: Arc<dyn ClockSource>,
    ring: Mutex<Ring>,
    /// Simulated cost of disabling+re-enabling interrupts and the state
    /// transitions, in nanoseconds of busy work inside the critical section.
    irq_cost_ns: u64,
}

impl LockingSink {
    /// A locking sink with a ring of `ring_words` and the given simulated
    /// interrupt-disable cost per event (0 for none).
    pub fn new(clock: Arc<dyn ClockSource>, ring_words: usize, irq_cost_ns: u64) -> LockingSink {
        LockingSink {
            clock,
            ring: Mutex::new(Ring {
                words: vec![0; ring_words.max(64)],
                pos: 0,
                events: 0,
            }),
            irq_cost_ns,
        }
    }

    fn busy_wait(ns: u64) {
        if ns == 0 {
            return;
        }
        let start = std::time::Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }
}

impl EventSink for LockingSink {
    fn log(&self, cpu: usize, major: MajorId, minor: MinorId, payload: &[u64]) -> bool {
        let total = payload.len() + 1;
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        // "Disable interrupts" while holding the lock.
        Self::busy_wait(self.irq_cost_ns);
        let ts = self.clock.now(cpu);
        let Ok(header) = EventHeader::new(ts as u32, payload.len(), major, minor) else {
            return false;
        };
        if total > ring.words.len() {
            return false;
        }
        if ring.pos + total > ring.words.len() {
            ring.pos = 0; // wrap the ring
        }
        let at = ring.pos;
        ring.words[at] = header.encode();
        ring.words[at + 1..at + total].copy_from_slice(payload);
        ring.pos += total;
        ring.events += 1;
        true
    }

    fn events_logged(&self) -> u64 {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.events
    }

    fn name(&self) -> &'static str {
        "locking-global"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::SyncClock;

    #[test]
    fn logs_and_counts() {
        let sink = LockingSink::new(Arc::new(SyncClock::new()), 1024, 0);
        assert!(sink.log(0, MajorId::TEST, 1, &[1, 2, 3]));
        assert!(sink.log(1, MajorId::TEST, 2, &[]));
        assert_eq!(sink.events_logged(), 2);
    }

    #[test]
    fn ring_wraps_instead_of_failing() {
        let sink = LockingSink::new(Arc::new(SyncClock::new()), 64, 0);
        for i in 0..1000u64 {
            assert!(sink.log(0, MajorId::TEST, 0, &[i; 7]));
        }
        assert_eq!(sink.events_logged(), 1000);
    }

    #[test]
    fn oversized_event_rejected() {
        let sink = LockingSink::new(Arc::new(SyncClock::new()), 64, 0);
        assert!(!sink.log(0, MajorId::TEST, 0, &[0; 64]));
    }

    #[test]
    fn concurrent_logging_is_serialized_but_correct() {
        let sink = Arc::new(LockingSink::new(Arc::new(SyncClock::new()), 4096, 0));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = sink.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        assert!(s.log(t, MajorId::TEST, t as u16, &[i]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.events_logged(), 4000);
    }
}
