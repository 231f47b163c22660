//! Ablation: what goes wrong if the timestamp is **not** re-read inside the
//! reservation loop.
//!
//! §3.1: "Because it is important to guarantee monotonically increasing
//! timestamps, processes must re-determine the timestamp during each attempt
//! to atomically increment the index. If the timestamp was not determined as
//! part of the atomic reserve operation then that process may be interrupted
//! by another process execut\[ing\] this code and get the next slot in the
//! buffer, but obtain[ ] an earlier timestamp."
//!
//! [`StaleTsSink`] implements exactly that broken protocol — timestamp read
//! once, *before* the CAS loop, with a deliberate preemption point between
//! the read and the reservation to model the interrupt window — and exposes
//! the resulting buffer-order/timestamp-order inversions for measurement.
//! [`StaleTsSink::new_correct`] builds the same logger with the paper's
//! in-loop re-read for an A/B comparison.

use crate::sink::EventSink;
use ktrace_clock::ClockSource;
use ktrace_format::{EventHeader, MajorId, MinorId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A single-buffer CAS logger whose timestamp protocol is selectable.
pub struct StaleTsSink {
    clock: Arc<dyn ClockSource>,
    words: Box<[AtomicU64]>,
    index: AtomicU64,
    events: AtomicU64,
    /// True = the broken protocol (timestamp before the loop).
    stale: bool,
    /// Widen the interrupt window between timestamp read and reservation so
    /// the race is demonstrable even on an otherwise idle machine.
    preempt_window: bool,
}

impl StaleTsSink {
    /// The broken protocol of prior systems: timestamp once, then reserve.
    pub fn new_stale(clock: Arc<dyn ClockSource>, ring_words: usize) -> StaleTsSink {
        StaleTsSink::build(clock, ring_words, true)
    }

    /// The paper's protocol: re-read the timestamp on every CAS attempt.
    pub fn new_correct(clock: Arc<dyn ClockSource>, ring_words: usize) -> StaleTsSink {
        StaleTsSink::build(clock, ring_words, false)
    }

    fn build(clock: Arc<dyn ClockSource>, ring_words: usize, stale: bool) -> StaleTsSink {
        StaleTsSink {
            clock,
            words: (0..ring_words.max(64)).map(|_| AtomicU64::new(0)).collect(),
            index: AtomicU64::new(0),
            events: AtomicU64::new(0),
            stale,
            preempt_window: true,
        }
    }

    fn reserve(&self, cpu: usize, total: u64) -> (u64, u64) {
        if self.stale {
            // BROKEN: the timestamp is fixed here…
            let ts = self.clock.now(cpu);
            // …and the "interrupt" hits before the reservation: another
            // thread runs the same code and wins an *earlier* slot with a
            // *later* timestamp.
            if self.preempt_window {
                std::thread::yield_now();
            }
            let start = self.index.fetch_add(total, Ordering::AcqRel);
            (start, ts)
        } else {
            // The paper's fix: timestamp inside the reservation attempt.
            loop {
                let old = self.index.load(Ordering::Relaxed);
                let ts = self.clock.now(cpu);
                if self.preempt_window {
                    std::thread::yield_now();
                }
                if self
                    .index
                    .compare_exchange_weak(old, old + total, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return (old, ts);
                }
                // Retry re-reads the clock, so the winning attempt's stamp
                // is at most one failed-CAS old — still ordered with the
                // slot, because a competitor that took our slot must have
                // CASed (and stamped) before our next read.
            }
        }
    }

    /// Counts buffer-order/timestamp-order inversions in the ring. Stamps
    /// are 32 bits and wrap every 2³² ticks (4.3 s at 1 GHz), so the step
    /// between neighbours is taken modulo 2³² and read as signed: a wrap is
    /// a small step forward, as `ktrace_clock::WrapExtender` extends it, and
    /// only a step back is an inversion.
    pub fn inversions(&self) -> u64 {
        let end = (self.index.load(Ordering::Acquire) as usize).min(self.words.len());
        let mut last_ts: Option<u32> = None;
        let mut inversions = 0;
        let mut off = 0;
        while off < end {
            let Ok(h) = EventHeader::decode(self.words[off].load(Ordering::Relaxed)) else {
                break;
            };
            if last_ts.is_some_and(|last| (h.timestamp.wrapping_sub(last) as i32) < 0) {
                inversions += 1;
            }
            last_ts = Some(h.timestamp);
            off += h.len_words as usize;
        }
        inversions
    }
}

impl EventSink for StaleTsSink {
    fn log(&self, cpu: usize, major: MajorId, minor: MinorId, payload: &[u64]) -> bool {
        let total = payload.len() as u64 + 1;
        let (start, ts) = self.reserve(cpu, total);
        let len = self.words.len() as u64;
        if start + total > len {
            return false; // ring full: this ablation logger does not wrap
        }
        let base = start as usize;
        for (i, &w) in payload.iter().enumerate() {
            self.words[base + 1 + i].store(w, Ordering::Relaxed);
        }
        let header = EventHeader::new(ts as u32, payload.len(), major, minor)
            .expect("payload bounded by caller");
        self.words[base].store(header.encode(), Ordering::Release);
        self.events.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn events_logged(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        if self.stale {
            "lockless-stale-timestamp"
        } else {
            "lockless-reread-timestamp"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_clock::SyncClock;

    fn hammer(sink: &Arc<StaleTsSink>, threads: usize, per_thread: usize) {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = sink.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        s.log(t, MajorId::TEST, i as u16, &[i as u64]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stale_timestamps_invert_buffer_order() {
        // The §3.1 failure mode must be observable: run until an inversion
        // appears (it does almost immediately with the widened window).
        let clock: Arc<dyn ClockSource> = Arc::new(SyncClock::new());
        let mut total_inversions = 0;
        for _ in 0..20 {
            let sink = Arc::new(StaleTsSink::new_stale(clock.clone(), 1 << 18));
            hammer(&sink, 4, 8_000);
            total_inversions += sink.inversions();
            if total_inversions > 0 {
                break;
            }
        }
        assert!(
            total_inversions > 0,
            "stale-timestamp protocol never inverted"
        );
    }

    #[test]
    fn reread_timestamps_never_invert() {
        let clock: Arc<dyn ClockSource> = Arc::new(SyncClock::new());
        for _ in 0..5 {
            let sink = Arc::new(StaleTsSink::new_correct(clock.clone(), 1 << 18));
            hammer(&sink, 4, 8_000);
            assert_eq!(sink.inversions(), 0, "paper protocol must stay monotonic");
        }
    }

    #[test]
    fn a_stamp_wrap_is_not_an_inversion() {
        // The clock starts 100 ticks below 2³² and steps one tick per read,
        // so the stamps cross the 32-bit wrap a hundred-odd events in.
        let clock = Arc::new(ktrace_clock::ManualClock::new((1 << 32) - 100, 1));
        let sink = StaleTsSink::new_correct(clock.clone(), 1024);
        for i in 0..200u64 {
            assert!(sink.log(0, MajorId::TEST, 0, &[i]));
        }
        assert!(clock.now(0) > 1 << 32, "the stamps wrapped");
        assert_eq!(sink.inversions(), 0);
    }

    #[test]
    fn both_variants_log_and_count() {
        let clock: Arc<dyn ClockSource> = Arc::new(SyncClock::new());
        for sink in [
            StaleTsSink::new_stale(clock.clone(), 1024),
            StaleTsSink::new_correct(clock.clone(), 1024),
        ] {
            assert!(sink.log(0, MajorId::TEST, 1, &[1, 2]));
            assert_eq!(sink.events_logged(), 1);
        }
    }
}
